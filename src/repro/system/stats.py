"""Result containers for full-system runs."""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.utilization import UtilizationTracker
from repro.dbt.config_cache import ConfigCacheStats
from repro.gpp.timing import GPPTimingResult
from repro.hw.energy import EnergyReport

#: :class:`CGRAStats` counters kept as plain attributes, not fields.
NONFIELD_COUNTERS = (
    "config_cache_hits",
    "config_cache_misses",
    "config_cache_evictions",
    "wrong_path_launches",
    "wrong_path_instructions",
    "frontend_mispredicts",
    "frontend_flushes",
    "frontend_interrupts",
    "frontend_flush_cycles",
)


@dataclass
class CGRAStats:
    """Fabric-side counters for one run.

    The config-cache mirrors (``config_cache_hits`` / ``_misses`` /
    ``_evictions``) and the front-end counters (``frontend_*``,
    ``wrong_path_*``) are deliberately *not* dataclass fields: they are
    convenience copies set in ``__post_init__``, kept out of
    field-driven serialisation (``to_jsonable``) so the pinned golden
    experiment JSON stays byte-identical. The front-end counters are
    zero unless the run was driven through a speculative front end
    (:class:`repro.frontend.FrontEndSpec`).
    """

    launches: int = 0
    cold_launches: int = 0
    committed_instructions: int = 0
    squashed_instructions: int = 0
    misspeculations: int = 0
    cgra_cycles: int = 0
    #: Worst per-column context-line pressure over the run's translated
    #: units (see :mod:`repro.mapping.routing`).
    peak_line_pressure: int = 0

    def __post_init__(self) -> None:
        for counter in NONFIELD_COUNTERS:
            setattr(self, counter, 0)

    @property
    def commit_efficiency(self) -> float:
        """Committed / (committed + squashed) fabric instructions."""
        total = self.committed_instructions + self.squashed_instructions
        return self.committed_instructions / total if total else 0.0


@dataclass
class SystemResult:
    """Complete outcome of simulating one trace on one design point.

    ``speedup`` and ``energy_ratio`` are TransRec relative to the
    stand-alone GPP (speedup > 1 and energy_ratio < 1 favour TransRec).
    """

    name: str
    gpp: GPPTimingResult
    transrec_cycles: int
    cgra: CGRAStats
    cache_stats: ConfigCacheStats
    tracker: UtilizationTracker
    gpp_energy: EnergyReport
    transrec_energy: EnergyReport
    instructions: int

    @property
    def speedup(self) -> float:
        if self.transrec_cycles == 0:
            return 1.0
        return self.gpp.cycles / self.transrec_cycles

    @property
    def exec_time_ratio(self) -> float:
        """TransRec runtime / GPP runtime (lower is faster)."""
        if self.gpp.cycles == 0:
            return 1.0
        return self.transrec_cycles / self.gpp.cycles

    @property
    def energy_ratio(self) -> float:
        """TransRec energy / GPP energy (lower is better)."""
        if self.gpp_energy.total_pj == 0:
            return 1.0
        return self.transrec_energy.total_pj / self.gpp_energy.total_pj

    @property
    def offload_fraction(self) -> float:
        """Fraction of committed instructions executed on the fabric."""
        if self.instructions == 0:
            return 0.0
        return self.cgra.committed_instructions / self.instructions
