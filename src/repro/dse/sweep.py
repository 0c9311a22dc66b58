"""Fabric-geometry sweep driver — a thin consumer of the campaign layer.

Reproduces the exploration of Section IV-B: length (columns) from 8 to
32 and width (rows) from 2 to 8, reporting execution time, energy and
average FU utilization relative to the stand-alone GPP. Each (L, W)
shape is one campaign design point; the campaign runner shares the
memoised suite traces across all of them. Geometry points are distinct
schedule groups (the walk depends on the fabric shape); sweeping
*policies* on one shape hits the shared-schedule replay path instead
(see :mod:`repro.system.schedule`). A sweep needs every point: a
quarantined point raises rather than leaving a hole in the grid.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.campaign import (
    CampaignRunner,
    CampaignSpec,
    MapperSpec,
    PolicySpec,
    SuiteRun,
)
from repro.core.utilization import Weighting
from repro.errors import ConfigurationError
from repro.sim.trace import Trace
from repro.system.params import SystemParams

#: The paper's sweep values.
DEFAULT_LENGTHS = (8, 16, 24, 32)
DEFAULT_WIDTHS = (2, 4, 8)


@dataclass(frozen=True)
class DSEPoint:
    """Aggregate suite metrics for one geometry.

    Ratios are TransRec relative to the stand-alone GPP; utilization is
    execution-weighted and averaged over all FUs (the paper's
    "occupation").
    """

    cols: int
    rows: int
    exec_time_ratio: float
    energy_ratio: float
    avg_utilization: float
    worst_utilization: float
    speedup: float

    @property
    def label(self) -> str:
        return f"(L{self.cols}, W{self.rows})"


def _dse_point(cols: int, rows: int, run: SuiteRun) -> DSEPoint:
    """Fold one suite run into the sweep's aggregate metrics.

    Execution-time and energy ratios are geometric means across the
    suite; utilization aggregates launch counts over all workloads
    (the fabric ages across the whole mix, not per benchmark).
    """
    results = run.results.values()
    time_ratios = np.array([result.exec_time_ratio for result in results])
    energy_ratios = np.array([result.energy_ratio for result in results])
    if np.any(time_ratios <= 0) or np.any(energy_ratios <= 0):
        raise ConfigurationError(
            f"geomean undefined for L{cols}xW{rows}: non-positive "
            "time/energy ratio in the suite — the log-mean would "
            "silently produce -inf/NaN"
        )
    exec_ratio = float(np.exp(np.mean(np.log(time_ratios))))
    energy_ratio = float(np.exp(np.mean(np.log(energy_ratios))))
    utilization = run.utilization(Weighting.EXECUTIONS)
    return DSEPoint(
        cols=cols,
        rows=rows,
        exec_time_ratio=exec_ratio,
        energy_ratio=energy_ratio,
        avg_utilization=float(utilization.mean()),
        worst_utilization=float(utilization.max()),
        speedup=1.0 / exec_ratio,
    )


def run_design_point(
    traces: dict[str, Trace],
    cols: int,
    rows: int,
    policy: str = "baseline",
    base_params: SystemParams | None = None,
    mapper: str = "greedy",
    mapper_kwargs: dict | None = None,
    ctx_lines: int | None = None,
    **policy_kwargs,
) -> DSEPoint:
    """Evaluate one geometry over a set of workload traces.

    ``ctx_lines`` declares a hard context-line routing budget for the
    fabric; ``None`` keeps the elastic default sizing.
    """
    shape = (rows, cols) if ctx_lines is None else (rows, cols, ctx_lines)
    spec = CampaignSpec(
        geometries=(shape,),
        policies=(PolicySpec.make(policy, **policy_kwargs),),
        mappers=(MapperSpec.make(mapper, **(mapper_kwargs or {})),),
        workloads=tuple(traces),
        name=f"dse_L{cols}xW{rows}",
    )
    runner = CampaignRunner(base_params=base_params)
    return _dse_point(cols, rows, runner.run(spec, traces=traces).only_run())


def sweep(
    traces: dict[str, Trace] | None,
    lengths: tuple[int, ...] = DEFAULT_LENGTHS,
    widths: tuple[int, ...] = DEFAULT_WIDTHS,
    policy: str = "baseline",
    mapper: str = "greedy",
    mapper_kwargs: dict | None = None,
    ctx_lines: int | None = None,
) -> list[DSEPoint]:
    """Evaluate every (L, W) combination; raster order over L then W.

    Pass ``traces=None`` to run the full verified suite. ``mapper``
    selects the place-and-route stage for every point, so the paper's
    geometry exploration can be re-run under wear-aware mapping;
    ``ctx_lines`` declares a hard routing budget applied to every
    shape (``None`` = elastic default sizing).

    Raises:
        ConfigurationError: naming every quarantined task when a
            point could not be evaluated.
    """
    spec = CampaignSpec(
        geometries=tuple(
            (width, length) if ctx_lines is None
            else (width, length, ctx_lines)
            for length in lengths
            for width in widths
        ),
        policies=(PolicySpec.make(policy),),
        mappers=(MapperSpec.make(mapper, **(mapper_kwargs or {})),),
        workloads=tuple(traces) if traces is not None else (),
        name="dse_sweep",
    )
    result = CampaignRunner().run(spec, traces=traces).require_complete()
    return [
        _dse_point(point.cols, point.rows, run)
        for point, run in result.runs.items()
    ]
