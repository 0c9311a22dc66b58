"""Launch-schedule computation and vectorized policy replay.

The TransRec timing walk is split into two phases so campaigns that
sweep *allocation policies* over one pipeline stop re-walking the trace
per policy:

* **Phase A — schedule computation** (:func:`compute_schedule`): one
  walk per (trace, geometry, mapper identity, DBT/cache/GPP/datapath
  parameters) records the policy-independent event stream as a
  :class:`LaunchSchedule` — per-launch unit and execution cycles, the
  final cycle count, fabric/cache counters and the energy-model
  activity summary. The walk itself only feeds the allocator when one
  is attached, which is required exactly when the mapper is
  *stress-coupled* (it reads the allocator's live stress map, closing
  the feedback loop that makes the launch stream policy-dependent).
  The coupled walk queues each launch on the allocator; the queue is
  placed in one batch whenever the mapper reads the stress map.
* **Phase B — replay** (:func:`replay_schedule`): any allocation
  policy is applied to a recorded schedule through
  :meth:`~repro.core.allocator.ConfigurationAllocator.allocate_batch`,
  reconstructing the policy-dependent utilization tracker without
  touching the trace. Replay is bit-identical to the interleaved walk
  (the batch engine is property-tested against a per-launch reference
  allocator, and ``tests/test_schedule_equivalence.py`` pins the
  system level).

The walk is *columnar*. It takes the trace's PCs, class codes and
memory addresses as Python lists once per walk, plus a memory-op
prefix count so a launch span's loads and stores are one slice.
Per-unit launch constants (PC path, length, execution cycles, used
columns, launch costs) are memoised per unit object. Per-record Python
runs only where the model has state: the config-cache probe, the GPP
caches and predictor (stepped through
:meth:`~repro.gpp.timing.GPPTimingModel.record_stepper`, the
stand-alone GPP's own cost function) and the DBT misspeculation
monitor. Everything else is folded at the end of the walk: op counts
from per-unit launch counts, GPP class counts from the GPP segments,
committed and wrong-path counts from the kind column. Both activity
count dicts keep *first-occurrence* insertion order (units in
first-launch order, GPP records in stream order), because
:meth:`~repro.hw.energy.EnergyModel.report` sums floats in dict order.
Clean and speculative streams share the loop; a clean trace's
front-end columns are all committed and gap-free.
``tests/test_schedule_walk.py`` checks the walk against a per-record
reference and exact conservation laws.

Schedules and the stand-alone GPP reference timing are memoised per
process, keyed weakly by trace object, so serial campaigns and the
experiment drivers share one walk per pipeline across the whole
policy x seed axis. Nothing is stored on disk: a new process walks
again, so a result never comes from older code.
"""

from __future__ import annotations

import dataclasses
from collections import Counter, OrderedDict
from dataclasses import dataclass, replace
from itertools import accumulate
from weakref import WeakKeyDictionary

import numpy as np

from repro import obs
from repro.cgra.configuration import VirtualConfiguration
from repro.cgra.datapath import configuration_cycles, execution_cycles
from repro.cgra.reconfig import ReconfigLogicSpec
from repro.core.allocator import ConfigurationAllocator
from repro.core.policy import AllocationPolicy
from repro.dbt.config_cache import ConfigCache, ConfigCacheStats
from repro.dbt.translator import DBTEngine
from repro.errors import ConfigurationError
from repro.frontend.speculative import clear_annotation_cache, speculative_trace
from repro.gpp.timing import GPPTimingModel, GPPTimingResult
from repro.hw.energy import EnergyModel, EnergyReport, SystemActivity
from repro.mapping import make_mapper
from repro.sim.trace import KIND_COMMITTED, KIND_WRONG_PATH, Trace, class_histogram
from repro.system.params import SystemParams
from repro.system.stats import NONFIELD_COUNTERS, CGRAStats

__all__ = [
    "LaunchSchedule",
    "clear_schedule_caches",
    "compute_schedule",
    "gpp_reference",
    "params_stress_coupled",
    "replay_schedule",
    "schedule_key",
    "shared_schedule",
]


# ----------------------------------------------------------------------
# Cache keys


def _freeze(value):
    """Canonical hashable form of a parameter bundle.

    Dataclasses become (type name, frozen fields) tuples, dicts become
    item tuples sorted by key repr (enum keys are not orderable), and
    sequences become tuples; everything else must already be hashable.
    """
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return (type(value).__name__,) + tuple(
            (field.name, _freeze(getattr(value, field.name)))
            for field in dataclasses.fields(value)
        )
    if isinstance(value, dict):
        return tuple(
            sorted(
                ((_freeze(key), _freeze(item)) for key, item in value.items()),
                key=repr,
            )
        )
    if isinstance(value, (list, tuple)):
        return tuple(_freeze(item) for item in value)
    if isinstance(value, (set, frozenset)):
        return tuple(sorted((_freeze(item) for item in value), key=repr))
    return value


def schedule_key(params: SystemParams):
    """Hashable identity of everything a :class:`LaunchSchedule`
    depends on — the full :class:`~repro.system.params.SystemParams`
    *minus* the allocation policy and the energy model (energy is pure
    post-processing of the recorded activity). Two design points with
    equal keys share one trace walk. The front-end spec is part of the
    key: different specs produce different speculative streams from the
    same committed trace, so their schedules must never alias (in
    memory or on disk).
    """
    return (
        _freeze(params.geometry),
        params.mapper,
        _freeze(params.mapper_kwargs),
        _freeze(params.gpp),
        _freeze(params.datapath),
        _freeze(params.dbt),
        params.config_cache_entries,
        _freeze(params.frontend),
    )


def _make_walk_mapper(params: SystemParams):
    """The walk's mapper instance (greedy inherits the DBT row policy,
    keeping seed placements and the cache namespace in agreement)."""
    mapper_kwargs = dict(params.mapper_kwargs)
    if params.mapper == "greedy":
        mapper_kwargs.setdefault("row_policy", params.dbt.row_policy)
    return make_mapper(params.mapper, **mapper_kwargs)


def params_stress_coupled(params: SystemParams) -> bool:
    """Whether ``params``' mapper closes the allocation feedback loop.

    Stress-coupled pipelines (e.g. the annealing mapper with a nonzero
    stress weight) must keep the interleaved walk; everything else —
    including the default greedy pipeline behind every paper figure —
    can share policy-independent schedules.
    """
    return bool(_make_walk_mapper(params).stress_coupled)


# ----------------------------------------------------------------------
# The schedule


@dataclass
class LaunchSchedule:
    """Policy-independent event stream of one timed TransRec run.

    Everything in a :class:`~repro.system.stats.SystemResult` except
    the utilization tracker is a function of the schedule alone; the
    tracker is reconstructed per policy by :func:`replay_schedule`.

    Attributes:
        trace_name: name of the walked trace.
        instructions: committed instructions in the trace.
        stress_coupled: whether the walk consumed a live stress map —
            such schedules are valid only for the policy they were
            recorded under and are never shared.
        configs: launched unit per fabric launch, in launch order
            (consecutive replays of one cached unit repeat the same
            object, which the batch allocator vectorizes as one run).
        exec_cycles: per-launch execution cycles (the stress weight of
            the launch), aligned with ``configs``.
        transrec_cycles: total TransRec cycles of the walk.
        cgra: final fabric counters (template — copied per result).
        cache_stats: final configuration-cache counters (template).
        activity: energy-model activity summary of the walk.
        gpp_segments: half-open ``[start, stop)`` trace ranges executed
            on the GPP side (diagnostics; replay never touches them).
    """

    trace_name: str
    instructions: int
    stress_coupled: bool
    configs: tuple[VirtualConfiguration, ...]
    exec_cycles: np.ndarray
    transrec_cycles: int
    cgra: CGRAStats
    cache_stats: ConfigCacheStats
    activity: SystemActivity
    gpp_segments: tuple[tuple[int, int], ...]

    @property
    def n_launches(self) -> int:
        return len(self.configs)

    def result_template(self) -> tuple[CGRAStats, ConfigCacheStats]:
        """Fresh copies of the mutable per-result stat containers."""
        cgra = replace(self.cgra)
        # ``replace`` re-runs ``__post_init__``, which zeroes the
        # non-field counters — carry them over.
        for counter in NONFIELD_COUNTERS:
            setattr(cgra, counter, getattr(self.cgra, counter))
        return cgra, replace(self.cache_stats)


def _launch_constants(unit: VirtualConfiguration, geometry, datapath) -> tuple:
    """What a launch of ``unit`` reads that is fixed per unit: the unit,
    start PC, PC path (a list, compared against trace slices), length,
    execution cycles, used columns and cost ``[cold][back_to_back]``."""
    costs = [
        [configuration_cycles(geometry, datapath, unit, cold, b2b) for b2b in (0, 1)]
        for cold in (0, 1)
    ]
    return (
        unit,
        unit.start_pc,
        list(unit.pc_path),
        unit.n_instructions,
        execution_cycles(datapath, unit),
        unit.used_cols,
        costs,
    )


def compute_schedule(
    params: SystemParams,
    trace: Trace,
    allocator: ConfigurationAllocator | None = None,
) -> LaunchSchedule:
    """Walk ``trace`` once and record its launch schedule.

    With ``allocator`` the walk is *coupled*: every recorded launch is
    queued on it (:meth:`~repro.core.allocator.ConfigurationAllocator.allocate`),
    and each read of the live stress map by a stress-coupled mapper
    first places the queued launches in one batch, so the mapper sees
    the stress of every launch before it. Without it the walk is
    policy-independent; a stress-coupled mapper then raises, because
    its placements would silently diverge from the coupled pipeline.

    With ``params.frontend`` set, the committed trace is first expanded
    into its speculative fetch stream (memoised per trace/spec): the
    walk then sees wrong-path runs and handler mini-traces — squashed
    launches still probe and pollute the config cache and accrue fabric
    stress, but only committed-kind records count as committed work,
    and flush gaps charge cycles and break GPP segments mid-stream (a
    clean trace walks the same loop, its stream all committed, no gaps).
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
    misspeculation_penalty = datapath.misspeculation_penalty
    stats = CGRAStats()
    launch_configs: list[VirtualConfiguration] = []
    launch_exec_cycles: list[int] = []
    launch_starts: list[int] = []
    gpp_segments: list[tuple[int, int]] = []
    # Launch constants per unit object, in first-launch order. Keyed by
    # id(): hashing a frozen VirtualConfiguration hashes every op.
    # Launched units stay alive in launch_configs, so no id is reused.
    unit_constants: dict[int, tuple] = {}

    columns = trace.column_lists()
    pcs, _, mem_prefix, mem_addresses = columns
    gpp_step = gpp.record_stepper(trace, columns)
    dcache_cycles = gpp.dcache.access_cycles
    head_flags = engine.unit_head_flags(trace).tolist()
    # Front-end flush gaps (all zero on a clean trace).
    flush_gaps = trace.flush_gap_array.tolist()
    flush_prefix = [0, *accumulate(flush_gaps)]

    cycles = probes = cold_cols = flush_cycles = 0
    loaded_pc: int | None = None
    position = 0
    # A translated or replayed unit makes the instruction right after it
    # a translation point too, so configurations tile long straight-line
    # regions instead of only covering their heads.
    pending_head = -1
    # Whether the previous window ran on the fabric without a
    # misspeculation or flush (enables I/O overlap of chained launches).
    chained = False
    segment_start = -1
    n_records = len(trace)
    while position < n_records:
        is_head = position == pending_head or head_flags[position]
        unit = None
        if is_head:
            probes += 1
            unit = cache.lookup(pcs[position])
        if unit is not None:
            if segment_start >= 0:
                gpp_segments.append((segment_start, position))
                segment_start = -1
            constants = unit_constants.get(id(unit))
            if constants is None:
                constants = _launch_constants(unit, geometry, datapath)
                unit_constants[id(unit)] = constants
            _, start_pc, path, size, exec_cost, used_cols, costs = constants
            # Replay the unit on the fabric: commit the matching prefix
            # of its recorded path, squash on divergence.
            end = position + size
            if pcs[position:end] == path:
                matched = size
            else:  # divergence (or the stream ends inside the unit)
                limit = min(size, n_records - position)
                matched = next(
                    (k for k in range(limit) if pcs[position + k] != path[k]), limit
                )
                end = position + matched
            cold = loaded_pc != start_pc
            launch_cost = costs[cold][chained]
            # Data-cache effects of the span's memory ops (shared L1).
            for address in mem_addresses[mem_prefix[position] : mem_prefix[end]]:
                launch_cost += dcache_cycles(address)
            if matched < size:
                launch_cost += misspeculation_penalty
                stats.misspeculations += 1
                stats.squashed_instructions += size - matched
            launch_configs.append(unit)
            launch_exec_cycles.append(exec_cost)
            launch_starts.append(position)
            if allocator is not None:
                allocator.allocate(unit, cycles=exec_cost)
            if cold:
                stats.cold_launches += 1
                cold_cols += used_cols
            # A flush inside the span charges its gap and breaks chaining.
            span_flush = flush_prefix[end] - flush_prefix[position]
            launch_cost += span_flush
            flush_cycles += span_flush
            loaded_pc = start_pc
            engine.note_replay(unit, matched)
            chained = matched == size and not span_flush
            cycles += launch_cost
            position = end
            pending_head = position
            continue
        chained = False
        if segment_start < 0:
            segment_start = position
        cycles += gpp_step(position)
        gap = flush_gaps[position]
        if gap:
            # Flush after this record (mispredict resolution or interrupt
            # redirect): charge the gap and end the GPP segment here.
            cycles += gap
            flush_cycles += gap
            gpp_segments.append((segment_start, position + 1))
            segment_start = -1
        if is_head:
            new_unit = engine.translate_at(trace, position)
            # Unmappable or too-short head: resume translation at the next
            # instruction, so code after a DIV/syscall/indirect jump still
            # gets configurations.
            pending_head = position + (new_unit.n_instructions if new_unit else 1)
        position += 1
    if segment_start >= 0:
        gpp_segments.append((segment_start, n_records))

    # End-of-walk folds. Dict insertion order is first occurrence in
    # the walk (units in first-launch order, ops in unit order; GPP
    # records in stream order): energy reports sum in dict order.
    launches_per_unit = Counter(map(id, launch_configs))
    cgra_op_counts: dict = {}
    active_columns = 0
    for key, (unit, *_, used_cols, _) in unit_constants.items():
        count = launches_per_unit[key]
        active_columns += count * used_cols
        for op in unit.ops:
            cgra_op_counts[op.kind] = cgra_op_counts.get(op.kind, 0) + count
    bounds = np.array(gpp_segments, dtype=np.int64).reshape(-1, 2)
    on_gpp = np.zeros(n_records + 1, dtype=np.int64)
    on_gpp[bounds[:, 0]] += 1  # starts are distinct, and so are stops
    on_gpp[bounds[:, 1]] -= 1
    on_gpp = np.cumsum(on_gpp[:-1]).astype(bool)
    kinds = trace.kind_array
    stats.launches = len(launch_configs)
    stats.committed_instructions = int(np.sum(kinds[~on_gpp] == KIND_COMMITTED))
    stats.wrong_path_instructions = int(np.sum(kinds[~on_gpp] == KIND_WRONG_PATH))
    stats.wrong_path_launches = int(np.sum(kinds[launch_starts] != KIND_COMMITTED))
    stats.frontend_flush_cycles = flush_cycles
    activity = SystemActivity(
        cycles=cycles,
        gpp_class_counts=class_histogram(trace.class_code_array[on_gpp]),
        cache_misses=gpp.icache.misses + gpp.dcache.misses,
        cgra_op_counts=cgra_op_counts,
        launches=stats.launches,
        active_column_launches=active_columns,
        cold_config_bits=ReconfigLogicSpec(geometry).config_bits_per_column * cold_cols,
        config_cache_accesses=probes,
        fabric_cells=geometry.n_cells,
    )
    stats.cgra_cycles = cycles
    stats.peak_line_pressure = engine.peak_line_pressure
    # Config-cache mirrors on the fabric stats (the cache-sizing study).
    stats.config_cache_hits = cache.stats.hits
    stats.config_cache_misses = cache.stats.misses
    stats.config_cache_evictions = cache.stats.evictions
    if trace.speculative:
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


def replay_schedule(
    schedule: LaunchSchedule,
    geometry,
    policy: AllocationPolicy,
) -> ConfigurationAllocator:
    """Apply ``policy`` to a recorded schedule (vectorized).

    Returns the allocator whose tracker holds the policy's stress
    outcome; the launch stream itself is replayed bit-identically to
    the coupled walk through
    :meth:`~repro.core.allocator.ConfigurationAllocator.allocate_batch`,
    which drives the policy's whole-schedule *segment plans*
    (:meth:`~repro.core.policy.AllocationPolicy.plan_segments`): the
    policy sees the full launch sequence up front and is re-entered
    only where it actually needs fresh tracker state.
    """
    if schedule.stress_coupled:
        raise ConfigurationError(
            "stress-coupled schedules are policy-dependent and cannot "
            "be replayed under a different policy"
        )
    allocator = ConfigurationAllocator(geometry, policy)
    with obs.span(
        "schedule.replay",
        trace=schedule.trace_name,
        policy=getattr(policy, "name", "?"),
        launches=schedule.n_launches,
    ):
        obs.count("schedule.replays")
        if schedule.configs:
            allocator.allocate_batch(
                schedule.configs, cycles=schedule.exec_cycles
            )
    return allocator


# ----------------------------------------------------------------------
# Per-process memoisation (weak on the trace, LRU-bounded per trace)

#: Distinct pipelines memoised per trace before LRU eviction. Large
#: geometry sweeps stream through without pinning every fabric's
#: schedule in memory.
_SCHEDULES_PER_TRACE = 16

_SCHEDULE_CACHE: WeakKeyDictionary = WeakKeyDictionary()
_GPP_CACHE: WeakKeyDictionary = WeakKeyDictionary()


def shared_schedule(params: SystemParams, trace: Trace) -> LaunchSchedule:
    """Memoised :func:`compute_schedule` for decoupled pipelines.

    One walk per (trace, :func:`schedule_key`) per process; campaigns
    and the experiment drivers fan every policy and seed out as replays
    of the shared schedule.
    """
    key = schedule_key(params)
    per_trace = _SCHEDULE_CACHE.get(trace)
    if per_trace is None:
        per_trace = OrderedDict()
        _SCHEDULE_CACHE[trace] = per_trace
    schedule = per_trace.get(key)
    if schedule is None:
        obs.count("schedule.memo.misses")
        with obs.span("schedule.walk", trace=trace.name, coupled=False):
            schedule = compute_schedule(params, trace)
        per_trace[key] = schedule
        while len(per_trace) > _SCHEDULES_PER_TRACE:
            per_trace.popitem(last=False)
    else:
        obs.count("schedule.memo.hits")
        per_trace.move_to_end(key)
    return schedule


def gpp_reference(
    trace: Trace, params: SystemParams
) -> tuple[GPPTimingResult, EnergyReport]:
    """Stand-alone GPP reference timing + energy, memoised.

    The reference is identical across every policy and mapper point of
    a campaign (it never touches the fabric), so it is computed once
    per (trace, GPP params, energy params) per process. A fresh copy
    of the timing result is returned per call — results are mutable
    dataclasses and must not alias across
    :class:`~repro.system.stats.SystemResult`\\ s.
    """
    key = (_freeze(params.gpp), _freeze(params.energy))
    per_trace = _GPP_CACHE.get(trace)
    if per_trace is None:
        per_trace = {}
        _GPP_CACHE[trace] = per_trace
    entry = per_trace.get(key)
    if entry is None:
        timing = GPPTimingModel(params.gpp).run(trace)
        activity = SystemActivity(
            cycles=timing.cycles,
            gpp_class_counts=dict(trace.class_counts()),
            cache_misses=timing.icache_misses + timing.dcache_misses,
            fabric_cells=0,
        )
        energy = EnergyModel(params.energy).report(activity)
        entry = (timing, energy)
        per_trace[key] = entry
    timing, energy = entry
    return replace(timing), energy


def clear_schedule_caches() -> None:
    """Drop all in-process memoised schedules, GPP references and
    front-end annotations (benchmarking and test isolation)."""
    _SCHEDULE_CACHE.clear()
    _GPP_CACHE.clear()
    clear_annotation_cache()
