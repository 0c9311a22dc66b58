"""Shared helpers for the test suite."""

from __future__ import annotations

import random
from collections import Counter

import numpy as np

from repro import obs
from repro.cgra.configuration import VirtualConfiguration
from repro.cgra.datapath import configuration_cycles, execution_cycles
from repro.cgra.reconfig import ReconfigLogicSpec
from repro.core.allocator import ConfigurationAllocator
from repro.core.patterns import movement_pattern
from repro.core.policy import make_policy
from repro.core.utilization import UtilizationTracker
from repro.dbt.config_cache import ConfigCache
from repro.dbt.translator import DBTEngine
from repro.errors import AllocationError, ConfigurationError
from repro.frontend.speculative import speculative_trace
from repro.gpp.timing import GPPTimingModel
from repro.hw.energy import SystemActivity
from repro.isa.assembler import assemble
from repro.isa.instructions import OPCODES, InstrClass
from repro.sim.cpu import CPU
from repro.sim.trace import KIND_COMMITTED, KIND_WRONG_PATH, Trace, TraceRecord
from repro.system.params import SystemParams
from repro.system.schedule import LaunchSchedule, _make_walk_mapper, compute_schedule
from repro.system.stats import CGRAStats, SystemResult
from repro.system.transrec import TransRecSystem


def run_asm(source: str, max_steps: int = 500_000):
    """Assemble and functionally execute a snippet."""
    return CPU(assemble(source), max_steps=max_steps).run()


def trace_of(source: str, max_steps: int = 500_000) -> Trace:
    """Committed trace of an assembly snippet."""
    return run_asm(source, max_steps=max_steps).trace


def coupled_run(params: SystemParams, trace: Trace) -> SystemResult:
    """Time ``trace`` through the coupled walk: a fresh allocator under
    ``params``' policy rides :func:`compute_schedule`, so each launch
    is placed as the walk records it. ``TransRecSystem.run_trace``
    replays a shared schedule instead for every decoupled mapper; this
    is the oracle that replay is checked against."""
    allocator = ConfigurationAllocator(
        params.geometry, make_policy(params.policy, **params.policy_kwargs)
    )
    schedule = compute_schedule(params, trace, allocator=allocator)
    return TransRecSystem(params)._assemble(schedule, allocator, trace)


_NEXT_PC = 0x1000


def rec(
    op: str,
    rd: int | None = None,
    rs1: int | None = None,
    rs2: int | None = None,
    imm: int | None = None,
    pc: int | None = None,
    mem_addr: int | None = None,
    mem_bytes: int | None = None,
    taken: bool | None = None,
    next_pc: int | None = None,
) -> TraceRecord:
    """Hand-build a TraceRecord with sensible defaults for tests."""
    global _NEXT_PC
    if pc is None:
        pc = _NEXT_PC
        _NEXT_PC += 4
    spec = OPCODES[op]
    if mem_bytes is None:
        mem_bytes = spec.mem_bytes if mem_addr is not None else 0
    if taken is None and spec.cls is InstrClass.BRANCH:
        taken = False
    if next_pc is None:
        next_pc = pc + 4
    if rd == 0:
        rd = None
    return TraceRecord(
        pc=pc, op=op, cls=spec.cls, rd=rd, rs1=rs1, rs2=rs2, imm=imm,
        rd_value=None, mem_addr=mem_addr, mem_bytes=mem_bytes,
        taken=taken, next_pc=next_pc,
    )


def reset_rec_pcs(base: int = 0x1000) -> None:
    """Reset the automatic PC counter used by :func:`rec`."""
    global _NEXT_PC
    _NEXT_PC = base


# ----------------------------------------------------------------------
# Reference allocator


class ReferenceAllocator:
    """Per-launch allocation oracle for the built-in policies.

    Each :meth:`allocate` call places its launch at once: the pivot is
    chosen from the stress of every earlier launch, the configuration's
    cells are translated with wrap-around and recorded through
    :meth:`UtilizationTracker.record`. The five policy rules are
    re-implemented here in plain Python and share no code with the
    production policies or the batch engine:

    * baseline: the pivot stays at the origin;
    * rotation: a counter steps ``stride`` positions along the pattern;
    * random: two ``randrange`` draws (row, then column) per launch;
    * static_remap: the raster-order min-max pivot, frozen per
      ``start_pc`` at its first launch;
    * stress_aware: a min-max search over the pattern whenever the
      launch counter is 1 mod ``interval`` (through the sensor when one
      is given), one snake step otherwise.

    Searches scan candidates in order and keep the first with the
    lowest ``(max, sum)`` stress.
    """

    def __init__(self, geometry, policy_name, **kwargs):
        self.geometry = geometry
        self.tracker = UtilizationTracker(geometry)
        self.launches = 0
        self.pivots: list[tuple[int, int]] = []
        self._choose = getattr(self, f"_{policy_name}")
        self._kwargs = kwargs
        pattern = kwargs.get("pattern", "snake")
        self._pattern = movement_pattern(pattern, geometry.rows, geometry.cols)
        self._position = 0
        self._counter = 0
        self._frozen: dict[int, tuple[int, int]] = {}
        self._rng = random.Random(kwargs.get("seed", 0))
        if kwargs.get("sensor") is not None:
            kwargs["sensor"].reset()

    def allocate(self, config, cycles: int = 1) -> tuple[int, int]:
        rows, cols = self.geometry.rows, self.geometry.cols
        if config.geometry_rows > rows or config.geometry_cols > cols:
            raise AllocationError("configuration does not fit the fabric")
        if len(set(self.cells(config, (0, 0)))) != len(config.cells):
            raise AllocationError("wrap-around folds two ops onto one cell")
        pivot = self._choose(config)
        self.tracker.record(
            config.start_pc, self.cells(config, pivot), cycles=cycles
        )
        self.launches += 1
        self.pivots.append(pivot)
        return pivot

    def cells(self, config, pivot):
        """``config``'s physical cells under ``pivot``, wrapped."""
        rows, cols = self.geometry.rows, self.geometry.cols
        return tuple(
            ((row + pivot[0]) % rows, (col + pivot[1]) % cols)
            for row, col in config.cells
        )

    def _coolest(self, config, candidates, counts):
        """First candidate pivot with the lowest (max, sum) stress."""
        best, best_key = None, None
        for pivot in candidates:
            values = [int(counts[cell]) for cell in self.cells(config, pivot)]
            key = (max(values), sum(values))
            if best_key is None or key < best_key:
                best, best_key = pivot, key
        return best

    def _baseline(self, config):
        return (0, 0)

    def _rotation(self, config):
        pivot = self._pattern[self._position]
        stride = self._kwargs.get("stride", 1)
        self._position = (self._position + stride) % len(self._pattern)
        return pivot

    def _random(self, config):
        row = self._rng.randrange(self.geometry.rows)
        return (row, self._rng.randrange(self.geometry.cols))

    def _static_remap(self, config):
        if config.start_pc not in self._frozen:
            raster = [
                (row, col)
                for row in range(self.geometry.rows)
                for col in range(self.geometry.cols)
            ]
            self._frozen[config.start_pc] = self._coolest(
                config, raster, self.tracker.execution_counts
            )
        return self._frozen[config.start_pc]

    def _stress_aware(self, config):
        interval = self._kwargs.get("interval", 16)
        self._counter += 1
        if interval == 1 or self._counter % interval == 1:
            counts = self.tracker.execution_counts
            sensor = self._kwargs.get("sensor")
            if sensor is not None:
                counts = sensor.read(counts)
            best = self._coolest(config, self._pattern, counts)
            self._position = self._pattern.index(best)
        else:
            self._position = (self._position + 1) % len(self._pattern)
        return self._pattern[self._position]


# ----------------------------------------------------------------------
# Reference Phase A walk


def _reference_match_length(
    unit: VirtualConfiguration, trace_pcs: np.ndarray, position: int
) -> int:
    """Length of the common prefix of the unit's recorded path and the
    actual upcoming trace (>= 1 since start PCs match)."""
    path = np.array(unit.pc_path, dtype=np.int64)
    limit = min(path.size, trace_pcs.size - position)
    mismatch = np.flatnonzero(
        trace_pcs[position : position + limit] != path[:limit]
    )
    if mismatch.size:
        return int(mismatch[0])
    return int(limit)



def _reference_record_cycles(gpp: GPPTimingModel, record: TraceRecord) -> int:
    """Cycles for one record on ``gpp``, read from the record itself
    (the per-record cost the walk used before the columnar stepper)."""
    params = gpp.params
    cycles = params.cycles_for(record.cls)
    cycles += gpp.icache.access_cycles(record.pc)
    if record.mem_addr is not None:
        cycles += gpp.dcache.access_cycles(record.mem_addr)
    if record.cls is InstrClass.BRANCH:
        predicted = gpp.predictor.predict(
            record.pc, record.imm if record.imm is not None else 0
        )
        taken = bool(record.taken)
        if predicted != taken:
            cycles += params.branch_mispredict_penalty
        gpp.predictor.update(record.pc, taken)
    return cycles


def reference_compute_schedule(
    params: SystemParams,
    trace: Trace,
    allocator: ReferenceAllocator | None = None,
) -> LaunchSchedule:
    """The per-record Phase A walk, kept as an independent oracle.

    This is the schedule walk as it stood before the columnar
    rewrite of :func:`repro.system.schedule.compute_schedule`: every
    record is visited through its :class:`TraceRecord`, counts are
    accumulated per launch and per GPP record, and clean and
    speculative streams take separate branches. The production walk
    must produce an equal :class:`LaunchSchedule`, dict key order
    included. A coupled walk takes a :class:`ReferenceAllocator`, so
    the mapper reads stress placed launch by launch.
    """
    if params.frontend is not None and not trace.speculative:
        trace = speculative_trace(trace, params.frontend)
    geometry = params.geometry
    mapper = _make_walk_mapper(params)
    if mapper.stress_coupled and allocator is None:
        raise ConfigurationError(
            f"mapper {mapper.identity()!r} is stress-coupled: its "
            "placements read the allocator's live stress map, so a "
            "policy-independent schedule cannot be computed — run the "
            "coupled walk instead"
        )
    reconfig_spec = ReconfigLogicSpec(geometry)
    gpp = GPPTimingModel(params.gpp)
    cache = ConfigCache(
        capacity=params.config_cache_entries, mapper_key=mapper.identity()
    )
    stress_provider = None
    if allocator is not None:
        stress_provider = lambda: allocator.tracker.stress_map  # noqa: E731
    engine = DBTEngine(
        geometry=geometry,
        cache=cache,
        limits=params.dbt,
        mapper=mapper,
        stress_provider=stress_provider,
    )

    obs.count("schedule.walks")
    datapath = params.datapath
    dcache = gpp.dcache
    stats = CGRAStats()
    activity = SystemActivity(fabric_cells=geometry.n_cells)
    gpp_class_counts: Counter = Counter()
    cgra_op_counts: Counter = Counter()
    launch_configs: list[VirtualConfiguration] = []
    launch_exec_cycles: list[int] = []
    gpp_segments: list[tuple[int, int]] = []

    trace_pcs = trace.pc_array
    head_flags = engine.unit_head_flags(trace)
    mem_positions = trace.mem_positions
    mem_addresses = trace.mem_addresses

    # Front-end annotation columns; only consulted on speculative
    # streams, so plain committed walks stay byte-identical and never
    # materialise the zero columns.
    speculative = trace.speculative
    if speculative:
        kind_codes = trace.kind_array
        flush_gaps = trace.flush_gap_array
        committed_prefix = trace.committed_prefix
        flush_prefix = trace.flush_gap_prefix
        wrong_path_prefix = np.zeros(len(trace) + 1, dtype=np.int64)
        np.cumsum(kind_codes == KIND_WRONG_PATH, out=wrong_path_prefix[1:])

    cycles = 0
    loaded_pc: int | None = None
    position = 0
    # A translated or replayed unit makes the instruction right after it
    # a translation point too, so configurations tile long straight-line
    # regions instead of only covering their heads.
    pending_head = -1
    # Whether the previous window ran on the fabric without a
    # misspeculation (enables I/O overlap of chained launches).
    chained = False
    segment_start = -1
    n_records = len(trace)
    while position < n_records:
        is_head = position == pending_head or bool(head_flags[position])
        unit = None
        if is_head:
            activity.config_cache_accesses += 1
            unit = cache.lookup(int(trace_pcs[position]))
        if unit is not None:
            if segment_start >= 0:
                gpp_segments.append((segment_start, position))
                segment_start = -1
            # Replay the unit on the fabric: commit the matching prefix
            # of its recorded path, squash on divergence.
            matched = _reference_match_length(unit, trace_pcs, position)
            cold = loaded_pc != unit.start_pc
            launch_cost = configuration_cycles(
                geometry, datapath, unit, cold=cold, back_to_back=chained
            )
            # Data-cache effects of the unit's memory ops (shared L1) —
            # only the precomputed load/store positions are touched.
            lo = int(np.searchsorted(mem_positions, position))
            hi = int(np.searchsorted(mem_positions, position + matched))
            for index in range(lo, hi):
                launch_cost += dcache.access_cycles(int(mem_addresses[index]))
            if matched < unit.n_instructions:
                launch_cost += datapath.misspeculation_penalty
                stats.misspeculations += 1
                stats.squashed_instructions += unit.n_instructions - matched
            exec_cost = execution_cycles(datapath, unit)
            launch_configs.append(unit)
            launch_exec_cycles.append(exec_cost)
            if allocator is not None:
                allocator.allocate(unit, cycles=exec_cost)
            stats.launches += 1
            if cold:
                stats.cold_launches += 1
                activity.cold_config_bits += (
                    reconfig_spec.config_bits_per_column * unit.used_cols
                )
            if speculative:
                # Only committed-kind records are architectural work;
                # wrong-path (and handler) records in the span still
                # occupied the fabric but never commit GPP state.
                end = position + matched
                stats.committed_instructions += int(
                    committed_prefix[end] - committed_prefix[position]
                )
                stats.wrong_path_instructions += int(
                    wrong_path_prefix[end] - wrong_path_prefix[position]
                )
                if kind_codes[position] != KIND_COMMITTED:
                    stats.wrong_path_launches += 1
                span_flush = int(flush_prefix[end] - flush_prefix[position])
                if span_flush:
                    # A pipeline flush inside the replayed span: charge
                    # the refill gap and break launch chaining.
                    launch_cost += span_flush
                    stats.frontend_flush_cycles += span_flush
            else:
                stats.committed_instructions += matched
            activity.launches += 1
            activity.active_column_launches += unit.used_cols
            for op in unit.ops:
                cgra_op_counts[op.kind] += 1
            loaded_pc = unit.start_pc
            engine.note_replay(unit, matched)
            chained = matched == unit.n_instructions
            if speculative and span_flush:
                chained = False
            cycles += launch_cost
            position += matched
            pending_head = position
            continue
        chained = False
        if segment_start < 0:
            segment_start = position
        record = trace[position]
        cycles += _reference_record_cycles(gpp, record)
        gpp_class_counts[record.cls] += 1
        if speculative:
            gap = int(flush_gaps[position])
            if gap:
                # Pipeline flush right after this record (mispredict
                # resolution or interrupt redirect): charge the refill
                # gap and invalidate the GPP segment mid-stream.
                cycles += gap
                stats.frontend_flush_cycles += gap
                gpp_segments.append((segment_start, position + 1))
                segment_start = -1
        if is_head:
            new_unit = engine.translate_at(trace, position)
            if new_unit is not None:
                pending_head = position + new_unit.n_instructions
            else:
                # Unmappable or too-short head: resume translation at
                # the next instruction so the code after a DIV/syscall/
                # indirect jump still gets configurations.
                pending_head = position + 1
        position += 1

    if segment_start >= 0:
        gpp_segments.append((segment_start, n_records))
    activity.cycles = cycles
    activity.gpp_class_counts = dict(gpp_class_counts)
    activity.cgra_op_counts = dict(cgra_op_counts)
    activity.cache_misses = gpp.icache.misses + gpp.dcache.misses
    stats.cgra_cycles = cycles
    stats.peak_line_pressure = engine.peak_line_pressure
    # Surface the config-cache counters on the fabric stats (the
    # cache-sizing study reads them from CGRAStats without having to
    # reach into the cache object).
    stats.config_cache_hits = cache.stats.hits
    stats.config_cache_misses = cache.stats.misses
    stats.config_cache_evictions = cache.stats.evictions
    if speculative:
        stats.frontend_mispredicts = trace.mispredicts
        stats.frontend_flushes = trace.flushes
        stats.frontend_interrupts = trace.interrupts
        obs.count("frontend.mispredicts", trace.mispredicts)
        obs.count("frontend.flushes", trace.flushes)
        obs.count("frontend.interrupts", trace.interrupts)
        obs.count("frontend.wrong_path_launches", stats.wrong_path_launches)
    return LaunchSchedule(
        trace_name=trace.name,
        instructions=trace.n_committed,
        stress_coupled=engine.stress_coupled,
        configs=tuple(launch_configs),
        exec_cycles=np.asarray(launch_exec_cycles, dtype=np.int64),
        transrec_cycles=cycles,
        cgra=stats,
        cache_stats=cache.stats,
        activity=activity,
        gpp_segments=tuple(gpp_segments),
    )

