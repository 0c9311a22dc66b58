"""Trace-driven timing model of the stand-alone GPP.

Walks a committed trace and accumulates cycles:

``cycles = sum(base cycles per class)
         + icache miss penalties (per fetch)
         + dcache miss penalties (per load/store)
         + branch mispredict penalties``

The per-record cost function (:meth:`GPPTimingModel.record_stepper`)
is the one the TransRec schedule walk steps for the instructions that
execute on the GPP side, so stand-alone and TransRec GPP timing share
one definition.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

from repro.gpp.branch import make_predictor
from repro.gpp.cache import CacheModel
from repro.gpp.params import GPPParams
from repro.isa.instructions import InstrClass
from repro.sim.trace import CLASS_MEMBERS, Trace

__all__ = ["GPPTimingModel", "GPPTimingResult", "make_predictor"]


@dataclass
class GPPTimingResult:
    """Cycle breakdown for one trace on the stand-alone GPP."""

    cycles: int
    instructions: int
    base_cycles: int
    icache_miss_cycles: int
    dcache_miss_cycles: int
    mispredict_cycles: int
    icache_miss_rate: float
    dcache_miss_rate: float
    icache_misses: int = 0
    dcache_misses: int = 0

    @property
    def cpi(self) -> float:
        """Cycles per committed instruction."""
        return self.cycles / self.instructions if self.instructions else 0.0


class GPPTimingModel:
    """Stateful per-trace timing walker for the stand-alone GPP."""

    def __init__(self, params: GPPParams | None = None) -> None:
        self.params = params if params is not None else GPPParams()
        self.icache = CacheModel(self.params.icache)
        self.dcache = CacheModel(self.params.dcache)
        self.predictor = make_predictor(self.params.predictor)
        #: Mispredicted branches stepped since the last reset.
        self.mispredicts = 0

    def record_stepper(
        self,
        trace: Trace,
        columns: tuple[list[int], list[int], list[int], list[int]] | None = None,
    ) -> Callable[[int], int]:
        """The per-record cost function over ``trace``'s columns.

        ``step(position)`` returns the cycles of record ``position``
        (base cycles by class code, icache penalty on its pc, dcache
        penalty on its memory address, mispredict penalty on a branch)
        and updates cache and predictor state. Only branches read their
        :class:`TraceRecord` (the predictor needs the offset and the
        outcome). ``columns`` is :meth:`Trace.column_lists`, shared
        with a caller that indexes the same lists. The step binds the
        current caches, so build it after :meth:`reset`.
        """
        pcs, codes, mem_prefix, mem_addresses = (
            columns if columns is not None else trace.column_lists()
        )
        params = self.params
        base = [params.cycles_for(cls) for cls in CLASS_MEMBERS]
        branch = CLASS_MEMBERS.index(InstrClass.BRANCH)
        icache_cycles = self.icache.access_cycles
        dcache_cycles = self.dcache.access_cycles
        predictor = self.predictor
        penalty = params.branch_mispredict_penalty

        def step(position: int) -> int:
            code = codes[position]
            cycles = base[code] + icache_cycles(pcs[position])
            index = mem_prefix[position]
            if mem_prefix[position + 1] != index:
                cycles += dcache_cycles(mem_addresses[index])
            if code == branch:
                record = trace[position]
                predicted = predictor.predict(
                    record.pc, record.imm if record.imm is not None else 0
                )
                taken = bool(record.taken)
                if predicted != taken:
                    cycles += penalty
                    self.mispredicts += 1
                predictor.update(record.pc, taken)
            return cycles

        return step

    def run(self, trace: Trace) -> GPPTimingResult:
        """Time a whole trace on a fresh GPP (state is reset first)."""
        self.reset()
        total = sum(map(self.record_stepper(trace), range(len(trace))))
        params = self.params
        ic_miss = self.icache.misses * params.icache.miss_penalty
        dc_miss = self.dcache.misses * params.dcache.miss_penalty
        mispredict = self.mispredicts * params.branch_mispredict_penalty
        return GPPTimingResult(
            cycles=total,
            instructions=len(trace),
            base_cycles=total - ic_miss - dc_miss - mispredict,
            icache_miss_cycles=ic_miss,
            dcache_miss_cycles=dc_miss,
            mispredict_cycles=mispredict,
            icache_miss_rate=self.icache.miss_rate,
            dcache_miss_rate=self.dcache.miss_rate,
            icache_misses=self.icache.misses,
            dcache_misses=self.dcache.misses,
        )

    def reset(self) -> None:
        """Reset caches and predictor to their initial (cold) state."""
        self.icache = CacheModel(self.params.icache)
        self.dcache = CacheModel(self.params.dcache)
        self.predictor.reset()
        self.mispredicts = 0
