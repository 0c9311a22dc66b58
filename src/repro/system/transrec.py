"""The TransRec system timing simulation (Fig. 2's execution model).

The simulator walks a committed trace once:

* at every *unit head* (first instruction, or any instruction after a
  control-flow redirect) the configuration cache is probed with the PC;
* on a hit, the cached unit replays on the CGRA: the recorded PC path
  is compared against the upcoming trace, the matching prefix commits,
  a divergent branch squashes the rest (misspeculation penalty), and
  the allocation policy places the launch on the fabric;
* on a miss, the instruction executes on the GPP while the hardware
  DBT translates a new unit in the background (no cycle cost — the DBT
  is a parallel hardware module).

The walk lives in :mod:`repro.system.schedule`: it records the
policy-independent :class:`~repro.system.schedule.LaunchSchedule`
(everything above plus the activity counts the energy model needs),
and the allocation policy is applied either *coupled* — interleaved
with the walk, required when the mapper reads the allocator's live
stress map (launches queue on the allocator and are placed in one
batch at each stress read) — or as a vectorized *replay* of a schedule
shared across every policy of the same pipeline (the default;
bit-identical, and the lever that makes policy-sweep campaigns cheap). Replay hands the
policy the whole launch sequence as segment plans
(:meth:`~repro.core.policy.AllocationPolicy.plan_segments`), so even
stress-searching policies replay in a few vectorized passes per search
interval rather than launch by launch.
"""

from __future__ import annotations

from repro import obs
from repro.core.allocator import ConfigurationAllocator
from repro.core.policy import make_policy
from repro.errors import ConfigurationError
from repro.hw.energy import EnergyModel
from repro.isa.program import Program
from repro.sim.cpu import CPU
from repro.sim.trace import Trace
from repro.system.params import SystemParams
from repro.system.schedule import (
    LaunchSchedule,
    compute_schedule,
    gpp_reference,
    params_stress_coupled,
    replay_schedule,
    shared_schedule,
)
from repro.system.stats import SystemResult

#: ``run_trace`` execution modes: ``auto`` replays a shared schedule
#: whenever the pipeline permits it, ``coupled`` forces the legacy
#: interleaved walk, ``replay`` demands schedule sharing (raising for
#: stress-coupled pipelines).
RUN_MODES = ("auto", "coupled", "replay")


class TransRecSystem:
    """One design point: geometry + policy + timing/energy parameters."""

    def __init__(self, params: SystemParams) -> None:
        self.params = params
        self.geometry = params.geometry
        self._energy_model = EnergyModel(params.energy)

    @property
    def stress_coupled(self) -> bool:
        """Whether this pipeline's mapper reads live allocation stress
        (such design points cannot share launch schedules)."""
        return params_stress_coupled(self.params)

    # ------------------------------------------------------------------

    def run_program(self, program: Program, mode: str = "auto") -> SystemResult:
        """Functionally execute ``program``, then time the trace."""
        trace = CPU(program).run().trace
        return self.run_trace(trace, mode=mode)

    def run_trace(self, trace: Trace, mode: str = "auto") -> SystemResult:
        """Time ``trace`` on the stand-alone GPP and on TransRec.

        Args:
            trace: the committed trace to time.
            mode: ``"auto"`` (default) replays the memoised shared
                schedule unless the mapper is stress-coupled;
                ``"coupled"`` forces the interleaved walk (every launch
                allocated as it is discovered); ``"replay"`` forces
                schedule sharing and raises for stress-coupled mappers.
                All modes produce bit-identical results.
        """
        if mode not in RUN_MODES:
            raise ConfigurationError(
                f"unknown run mode {mode!r}; available: {list(RUN_MODES)}"
            )
        coupled = self.stress_coupled
        if mode == "replay" and coupled:
            raise ConfigurationError(
                f"mapper {self.params.mapper!r} is stress-coupled; its "
                "launch stream depends on the allocation policy, so "
                "schedule replay would diverge — use mode='coupled'"
            )
        if mode == "coupled" or coupled:
            obs.count("transrec.runs.coupled")
            with obs.span(
                "schedule.walk", trace=trace.name, coupled=True
            ):
                allocator = ConfigurationAllocator(
                    self.geometry, self._policy()
                )
                schedule = compute_schedule(
                    self.params, trace, allocator=allocator
                )
        else:
            obs.count("transrec.runs.replay")
            schedule = shared_schedule(self.params, trace)
            allocator = replay_schedule(schedule, self.geometry, self._policy())
        return self._assemble(schedule, allocator, trace)

    # ------------------------------------------------------------------

    def _policy(self):
        return make_policy(self.params.policy, **self.params.policy_kwargs)

    def _assemble(
        self,
        schedule: LaunchSchedule,
        allocator: ConfigurationAllocator,
        trace: Trace,
    ) -> SystemResult:
        gpp_timing, gpp_energy = gpp_reference(trace, self.params)
        cgra_stats, cache_stats = schedule.result_template()
        return SystemResult(
            name=schedule.trace_name,
            gpp=gpp_timing,
            transrec_cycles=schedule.transrec_cycles,
            cgra=cgra_stats,
            cache_stats=cache_stats,
            tracker=allocator.tracker,
            gpp_energy=gpp_energy,
            transrec_energy=self._energy_model.report(schedule.activity),
            instructions=schedule.instructions,
        )
