"""Campaign evaluation: every design point runs as a task of one
:class:`~repro.resilience.ResilientExecutor`.

The runner owns the three scale levers the ROADMAP asks for:

* **Shared memoised traces** — workload traces are design-independent,
  so they are verified once per process (``run_workload`` is cached)
  and warmed *before* a pool forks, letting every worker inherit them
  for free on fork-based platforms.
* **Shared launch schedules** — design points whose pipelines differ
  only in allocation policy (or policy seed) share one
  policy-independent trace walk per workload and fan the policy axis
  out as vectorized replays (:mod:`repro.system.schedule`). Points are
  grouped by :func:`~repro.system.schedule.schedule_key`;
  stress-coupled mappers (e.g. annealing with live stress feedback)
  opt out and keep the coupled walk.
* **Process-pool parallelism** — schedule groups are embarrassingly
  parallel. With ``max_workers > 1`` each pool task is one schedule
  group (large groups split until the pool is busy), so the group's
  schedules are computed once per task; splitting a group costs one
  extra walk per chunk. Otherwise — and always with explicit
  ``traces``, which are not shipped to workers — the executor runs one
  task per design point inline, and the per-process schedule memo
  shares the walks. Results are bit-identical either way.

The executor also retries, quarantines and degrades (see
:mod:`repro.resilience.executor`) and carries pool workers' telemetry
home, so the counters a run leaves in :mod:`repro.obs` do not depend
on where its points ran.

Artifacts: pass ``artifact_dir`` to persist one JSON summary per design
point plus a ``campaign.json`` manifest describing the spec.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass
from pathlib import Path

from repro import obs
from repro.campaign.artifacts import write_json, write_telemetry
from repro.campaign.results import SuiteRun, suite_run_summary
from repro.campaign.spec import CampaignSpec, DesignPoint, system_params
from repro.errors import ConfigurationError
from repro.resilience import (
    ResilientExecutor,
    RetryPolicy,
    TaskFailure,
    require_complete,
)
from repro.sim.trace import Trace
from repro.system.params import SystemParams
from repro.system.schedule import params_stress_coupled, schedule_key
from repro.system.transrec import TransRecSystem
from repro.workloads.suite import run_workload


def evaluate_design_point(
    point: DesignPoint,
    base_params: SystemParams | None = None,
    traces: dict[str, Trace] | None = None,
) -> SuiteRun:
    """Run every workload of ``point`` on its system; returns the
    :class:`SuiteRun` with full per-workload results.

    ``traces`` overrides trace resolution (useful for custom or
    truncated traces); by default the memoised verified suite traces
    are used. Explicit traces must cover ``point.workloads`` — only
    the point's workloads are evaluated, so results and artifacts
    always agree with the spec.
    """
    system = TransRecSystem(
        system_params(point, point.policy, base_params, point.mapper)
    )
    if traces is None:
        traces = {name: run_workload(name) for name in point.workloads}
    else:
        missing = [name for name in point.workloads if name not in traces]
        if missing:
            raise ConfigurationError(
                f"explicit traces missing workload(s) {missing} required "
                f"by design point {point.label!r}"
            )
        traces = {name: traces[name] for name in point.workloads}
    with obs.span("campaign.evaluate_point", point=point.label):
        obs.count("campaign.points")
        results = {
            name: system.run_trace(trace) for name, trace in traces.items()
        }
    return SuiteRun(
        geometry=system.geometry, policy=point.policy.name, results=results
    )


def _evaluate_points(
    payload: tuple[
        tuple[DesignPoint, ...], SystemParams | None, dict[str, Trace] | None
    ],
) -> list[SuiteRun]:
    """One executor task: evaluate its design points in order. On a
    pool the points form a schedule group, so the first point's walks
    warm the worker's schedule memo and every further point replays
    them."""
    points, base_params, traces = payload
    return [
        evaluate_design_point(point, base_params, traces) for point in points
    ]


@dataclass
class CampaignResult:
    """Evaluated campaign: design points mapped to their suite runs
    (insertion order follows ``spec.design_points()``).

    ``failures`` lists quarantined tasks (points whose task could not
    be evaluated even after retries — their points are absent from
    ``runs``); it is empty on every healthy run. Consumers that need
    every point call :meth:`require_complete` (or :meth:`only_run`).
    """

    spec: CampaignSpec
    runs: dict[DesignPoint, SuiteRun]
    failures: tuple[TaskFailure, ...] = ()

    def __iter__(self):
        return iter(self.runs.items())

    @property
    def points(self) -> tuple[DesignPoint, ...]:
        return tuple(self.runs)

    def require_complete(self) -> "CampaignResult":
        """This result, or :class:`~repro.errors.ConfigurationError`
        naming every quarantined task when a point is missing."""
        require_complete(f"campaign {self.spec.name!r}", self.failures)
        return self

    def only_run(self) -> SuiteRun:
        """The single run of a one-point campaign."""
        self.require_complete()
        if len(self.runs) != 1:
            raise ConfigurationError(
                f"campaign has {len(self.runs)} design points, not 1"
            )
        return next(iter(self.runs.values()))

    def summaries(self) -> list[dict]:
        return [
            suite_run_summary(point, run) for point, run in self.runs.items()
        ]


class CampaignRunner:
    """Evaluates campaign specs.

    Args:
        max_workers: ``None``/``0``/``1`` evaluates one point per task
            inline (sharing the memoised traces and schedules); ``> 1``
            fans schedule groups out over a process pool.
        artifact_dir: when given, one JSON summary per design point and
            a ``campaign.json`` manifest are written there.
        base_params: timing/energy parameter overrides applied to every
            design point (geometry and policy are taken from the point).
        retry: :class:`~repro.resilience.RetryPolicy` governing how
            task failures (worker crashes, hangs, transient exceptions)
            are retried before a task is quarantined (default policy:
            3 attempts, seeded exponential backoff).
        task_timeout: per-group wall-clock budget in seconds for pool
            execution; a hung worker past the budget is abandoned and
            its group requeued (``None`` = unbounded, the default).
    """

    def __init__(
        self,
        max_workers: int | None = None,
        artifact_dir: str | Path | None = None,
        base_params: SystemParams | None = None,
        retry: RetryPolicy | None = None,
        task_timeout: float | None = None,
    ) -> None:
        self.max_workers = max_workers
        self.artifact_dir = Path(artifact_dir) if artifact_dir else None
        self.base_params = base_params
        self.retry = retry if retry is not None else RetryPolicy()
        self.task_timeout = task_timeout

    def schedule_groups(
        self, points: tuple[DesignPoint, ...]
    ) -> list[list[int]]:
        """Partition point indices into schedule-sharing groups.

        Points with equal :func:`~repro.system.schedule.schedule_key`
        (same geometry, mapper identity, DBT/cache/GPP/datapath
        parameters — everything but the allocation policy) and equal
        workloads walk each trace once and replay it per policy.
        Stress-coupled points get singleton groups.
        """
        groups: dict[object, list[int]] = {}
        order: list[object] = []
        for index, point in enumerate(points):
            params = system_params(
                point, point.policy, self.base_params, point.mapper
            )
            if params_stress_coupled(params):
                key: object = ("coupled", index)
            else:
                key = ("shared", schedule_key(params), point.workloads)
            if key not in groups:
                groups[key] = []
                order.append(key)
            groups[key].append(index)
        return [groups[key] for key in order]

    #: Relative replay cost per plan granularity, used to balance pool
    #: payloads: a whole-schedule plan replays in one vectorized pass,
    #: while finer granularities re-enter the policy per epoch /
    #: search interval / launch.
    _GRANULARITY_COST = {"schedule": 1, "epoch": 2, "interval": 4, "launch": 8}

    @classmethod
    def _point_cost(cls, point: DesignPoint) -> int:
        return cls._GRANULARITY_COST.get(point.policy.plan_granularity, 8)

    @classmethod
    def _balanced_groups(
        cls,
        groups: list[list[int]],
        target: int,
        points: tuple[DesignPoint, ...],
    ) -> list[list[int]]:
        """Split large schedule groups until at least ``target`` pool
        payloads exist (or nothing is left to split).

        A policy-only campaign collapses into one schedule group; one
        worker walking and replaying everything would leave the rest of
        the pool idle. Each chunk re-walks the shared schedule once in
        its own worker — one extra walk buys parallelism across the
        replay axis, and results stay bit-identical (replays are
        independent). The group to split is the one with the highest
        estimated replay cost — points are weighted by their policy's
        :attr:`~repro.core.policy.AllocationPolicy.plan_granularity`,
        so a group of per-interval stress-search replays splits before
        an equally sized group of one-segment whole-schedule replays.
        """
        groups = [list(group) for group in groups]

        def cost(group: list[int]) -> int:
            return sum(cls._point_cost(points[index]) for index in group)

        while len(groups) < target:
            # Only multi-point groups can split; an expensive singleton
            # (e.g. one stress-coupled point) must not stall the loop
            # while cheaper groups still have parallelism to give.
            splittable = [group for group in groups if len(group) >= 2]
            if not splittable:
                break
            largest = max(splittable, key=cost)
            groups.remove(largest)
            half = len(largest) // 2
            groups.append(largest[:half])
            groups.append(largest[half:])
        return groups

    def run(
        self,
        spec: CampaignSpec,
        traces: dict[str, Trace] | None = None,
    ) -> CampaignResult:
        """Evaluate every design point of ``spec``.

        ``traces`` pins explicit traces (evaluated inline, since
        arbitrary traces are not shipped to pool workers); without it
        the named workloads are resolved from the memoised suite.
        """
        points = spec.design_points()
        if traces is None:
            # Warm the shared trace cache once so inline tasks reuse it
            # and fork-based pool workers inherit it.
            for name in spec.resolved_workloads():
                run_workload(name)
        workers = (
            (self.max_workers or 1)
            if traces is None and len(points) > 1
            else 1
        )
        if workers > 1:
            groups = self._balanced_groups(
                self.schedule_groups(points), workers, points
            )
            keys = [
                f"group:{position}:{self._group_label(points[group[0]])}"
                for position, group in enumerate(groups)
            ]
        else:
            # Inline, the per-process schedule memo shares walks in any
            # point order: one task per point.
            groups = [[index] for index in range(len(points))]
            keys = [
                f"point:{index}:{point.key}"
                for index, point in enumerate(points)
            ]
        payloads = [
            (tuple(points[index] for index in group), self.base_params, traces)
            for group in groups
        ]
        started = time.perf_counter()
        suite_runs: list[SuiteRun | None] = [None] * len(points)
        done = 0

        def collect(position: int, runs: list[SuiteRun]) -> None:
            nonlocal done
            for index, run in zip(groups[position], runs):
                suite_runs[index] = run
            done += len(runs)
            if obs.enabled():
                obs.log.progress(
                    "campaign.task",
                    done,
                    len(points),
                    time.perf_counter() - started,
                    task=keys[position],
                    points=len(runs),
                )

        executor = ResilientExecutor(
            _evaluate_points,
            workers,
            retry=self.retry,
            task_timeout=self.task_timeout,
        )
        try:
            report = executor.run(payloads, keys=keys, on_result=collect)
        except KeyboardInterrupt:
            # Salvage: completed points are real, deterministic results
            # — persist them (plus the partial manifest) before
            # re-raising, so a Ctrl-C mid-campaign loses only the
            # unfinished work.
            partial = self._build_result(spec, points, suite_runs, [])
            if self.artifact_dir is not None:
                self._write_artifacts(partial, interrupted=True)
                obs.log.emit(
                    "campaign.interrupted",
                    completed=len(partial.runs),
                    total=len(points),
                    artifact_dir=str(self.artifact_dir),
                )
            raise
        for failure in report.failures:
            failure.detail["points"] = [
                points[index].key for index in groups[keys.index(failure.key)]
            ]
        result = self._build_result(spec, points, suite_runs, report.failures)
        if self.artifact_dir is not None:
            self._write_artifacts(result)
        return result

    @staticmethod
    def _build_result(
        spec: CampaignSpec,
        points: tuple[DesignPoint, ...],
        suite_runs: list[SuiteRun | None],
        failures: list[TaskFailure],
    ) -> CampaignResult:
        runs = {
            point: run
            for point, run in zip(points, suite_runs)
            if run is not None
        }
        return CampaignResult(spec=spec, runs=runs, failures=tuple(failures))

    def _group_label(self, point: DesignPoint) -> str:
        """Short stable digest of the point's schedule key (names the
        schedule-sharing group's pool task)."""
        params = system_params(
            point, point.policy, self.base_params, point.mapper
        )
        return hashlib.sha256(
            repr(schedule_key(params)).encode()
        ).hexdigest()[:8]

    def _write_artifacts(
        self, result: CampaignResult, interrupted: bool = False
    ) -> None:
        manifest = {
            "spec": result.spec.to_jsonable(),
            "design_points": [point.key for point in result.points],
        }
        if interrupted:
            # Partial manifest: design_points lists only the completed
            # points whose per-point JSONs exist below.
            manifest["interrupted"] = True
        write_json(self.artifact_dir / "campaign.json", manifest)
        if result.failures or interrupted:
            write_json(
                self.artifact_dir / "failures.json",
                {
                    "interrupted": interrupted,
                    "failures": [
                        failure.to_jsonable() for failure in result.failures
                    ],
                },
            )
        for point, run in result.runs.items():
            write_json(
                self.artifact_dir / f"{point.key}.json",
                suite_run_summary(point, run),
            )
        if obs.enabled():
            # The merged registry: inline tasks recorded here, pool
            # workers' snapshots were absorbed by the executor.
            write_telemetry(
                self.artifact_dir / "telemetry.json", obs.snapshot()
            )
