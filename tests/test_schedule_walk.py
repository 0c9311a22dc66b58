"""The columnar Phase A walk against its per-record reference.

:func:`repro.system.schedule.compute_schedule` keeps per-record Python
only where the model is stateful and folds every count at the end of
the walk. ``tests.support.reference_compute_schedule`` is the walk as
it stood before that rewrite (one branch per record kind, per-launch
``Counter`` updates). The two must agree field by field — including the
insertion order of both activity count dicts, which
:meth:`repro.hw.energy.EnergyModel.report` sums in dict order — on the
full suite, over the Table I fabrics, for clean and speculative
streams, and for a stress-coupled walk.

Every walk made here also passes exact conservation checks that do not
depend on either implementation: the launch spans (re-derived by prefix
matching each launched unit against the stream) and the GPP segments
tile the stream, and every count equals its recount from the
schedule.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.allocator import ConfigurationAllocator
from repro.core.policy import make_policy
from repro.experiments.mapping_ablation import SUBSET
from repro.frontend import FrontEndSpec
from repro.frontend.speculative import speculative_trace
from repro.sim.trace import KIND_COMMITTED, KIND_WRONG_PATH, Trace
from repro.system import SystemParams, compute_schedule
from repro.system.scenarios import SCENARIOS
from repro.workloads.suite import run_workload, workload_names
from support import ReferenceAllocator, reference_compute_schedule

#: The Table I fabrics BE/BP/BU.
FABRICS = {name: SCENARIOS[name].geometry for name in ("BE", "BP", "BU")}

FRONTENDS = {
    "clean": None,
    "gshare-irq": FrontEndSpec.make("gshare", interrupt_rate=5e-4, seed=3),
}

STAT_COUNTERS = (
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


def identity_pattern(configs):
    """Each launch's unit as the rank of its first launch (by object)."""
    first = {}
    return [first.setdefault(id(unit), len(first)) for unit in configs]


def unique_units(configs):
    """Launched unit objects in first-launch order."""
    return {id(unit): unit for unit in configs}.values()


def assert_schedules_equal(walked, reference):
    """Field-by-field equality, object identity of the launched units
    aside (each walk translates its own units)."""
    assert walked.trace_name == reference.trace_name
    assert walked.instructions == reference.instructions
    assert walked.stress_coupled == reference.stress_coupled
    # Launches of one cached unit repeat one object, in the same
    # pattern in both walks, and the units themselves are equal.
    assert identity_pattern(walked.configs) == identity_pattern(
        reference.configs
    )
    assert list(unique_units(walked.configs)) == list(
        unique_units(reference.configs)
    )
    assert walked.exec_cycles.dtype == reference.exec_cycles.dtype
    np.testing.assert_array_equal(walked.exec_cycles, reference.exec_cycles)
    assert walked.transrec_cycles == reference.transrec_cycles
    assert walked.gpp_segments == reference.gpp_segments
    assert dataclasses.astuple(walked.cgra) == dataclasses.astuple(
        reference.cgra
    )
    for counter in STAT_COUNTERS:
        assert getattr(walked.cgra, counter) == getattr(
            reference.cgra, counter
        ), counter
    assert dataclasses.astuple(walked.cache_stats) == dataclasses.astuple(
        reference.cache_stats
    )
    assert walked.activity == reference.activity
    for name in ("gpp_class_counts", "cgra_op_counts"):
        mine = getattr(walked.activity, name)
        theirs = getattr(reference.activity, name)
        assert list(mine.items()) == list(theirs.items()), name


def assert_conserved(schedule, stream):
    """Exact conservation laws of one walk over ``stream``."""
    n = len(stream)
    stats = schedule.cgra
    activity = schedule.activity
    segments = schedule.gpp_segments

    # GPP segments: sorted, disjoint, non-empty, inside the stream.
    previous_stop = 0
    for start, stop in segments:
        assert previous_stop <= start < stop <= n
        previous_stop = stop

    # Re-derive every launch span by prefix matching the launched unit
    # against the stream, skipping the GPP segments in order.
    pcs = stream.pc_array.tolist()
    position = 0
    segment_index = 0
    matched_total = 0
    squashed = 0
    misspeculations = 0
    spans = []

    def skip_segments(position, segment_index):
        while (
            segment_index < len(segments)
            and segments[segment_index][0] == position
        ):
            position = segments[segment_index][1]
            segment_index += 1
        return position, segment_index

    for unit in schedule.configs:
        position, segment_index = skip_segments(position, segment_index)
        assert pcs[position] == unit.start_pc
        limit = min(unit.n_instructions, n - position)
        matched = 0
        while matched < limit and pcs[position + matched] == unit.pc_path[matched]:
            matched += 1
        if segment_index < len(segments):
            assert position + matched <= segments[segment_index][0]
        spans.append((position, position + matched))
        matched_total += matched
        if matched < unit.n_instructions:
            squashed += unit.n_instructions - matched
            misspeculations += 1
        position += matched
    position, segment_index = skip_segments(position, segment_index)
    # Launch spans and GPP segments tile [0, n).
    assert position == n
    assert segment_index == len(segments)

    gpp_records = sum(stop - start for start, stop in segments)
    assert sum(activity.gpp_class_counts.values()) == gpp_records
    assert matched_total + gpp_records == n
    assert stats.squashed_instructions == squashed
    assert stats.misspeculations == misspeculations
    assert sum(activity.cgra_op_counts.values()) == sum(
        len(unit.ops) for unit in schedule.configs
    )
    assert activity.launches == stats.launches == len(schedule.configs)
    assert activity.active_column_launches == sum(
        unit.used_cols for unit in schedule.configs
    )

    kinds = stream.kind_array
    fabric_kinds = np.concatenate(
        [kinds[start:stop] for start, stop in spans] or [kinds[:0]]
    )
    assert stats.committed_instructions == int(
        np.count_nonzero(fabric_kinds == KIND_COMMITTED)
    )
    assert stats.wrong_path_instructions == int(
        np.count_nonzero(fabric_kinds == KIND_WRONG_PATH)
    )
    assert stats.wrong_path_launches == sum(
        1 for start, _ in spans if kinds[start] != KIND_COMMITTED
    )
    gpp_committed = sum(
        int(np.count_nonzero(kinds[start:stop] == KIND_COMMITTED))
        for start, stop in segments
    )
    assert stats.committed_instructions + gpp_committed == stream.n_committed
    if not stream.speculative:
        assert (
            stats.committed_instructions
            + sum(activity.gpp_class_counts.values())
            == stream.n_committed
        )


def stream_of(trace, frontend):
    return speculative_trace(trace, frontend) if frontend else trace


@pytest.mark.parametrize("frontend", FRONTENDS, ids=list(FRONTENDS))
@pytest.mark.parametrize("fabric", FABRICS)
@pytest.mark.parametrize("workload", workload_names())
def test_walk_matches_reference(workload, fabric, frontend):
    trace = run_workload(workload)
    params = SystemParams(
        geometry=FABRICS[fabric], frontend=FRONTENDS[frontend]
    )
    walked = compute_schedule(params, trace)
    assert_schedules_equal(walked, reference_compute_schedule(params, trace))
    assert_conserved(walked, stream_of(trace, FRONTENDS[frontend]))


@settings(max_examples=20, deadline=None)
@given(
    workload=st.sampled_from(workload_names()),
    cut=st.integers(1, 20_000),
    frontend=st.sampled_from(list(FRONTENDS)),
)
def test_cut_streams_match_reference(workload, cut, frontend):
    """Traces cut at arbitrary points end inside units, mid-segment and
    mid-wrong-path run: the short-slice fallback of the prefix match
    and the final segment must agree with the reference too."""
    full = run_workload(workload)
    trace = Trace(list(full)[: min(cut, len(full))], name=f"{workload}@{cut}")
    params = SystemParams(geometry=FABRICS["BE"], frontend=FRONTENDS[frontend])
    walked = compute_schedule(params, trace)
    assert_schedules_equal(walked, reference_compute_schedule(params, trace))
    assert_conserved(walked, stream_of(trace, FRONTENDS[frontend]))


@pytest.mark.parametrize("workload", SUBSET)
def test_coupled_walk_matches_reference(workload):
    """Annealing with live stress feedback: the walk queues launches
    on the allocator and the mapper's stress reads place them in
    batches; the reference walk places each launch at once through
    the per-launch reference allocator, sharing no allocation code."""
    trace = run_workload(workload)
    params = SystemParams(
        geometry=FABRICS["BE"],
        policy="stress_aware",
        mapper="annealing",
        mapper_kwargs={"seed": 5},
    )

    walked_allocator = ConfigurationAllocator(
        params.geometry, make_policy("stress_aware", interval=8)
    )
    walked = compute_schedule(params, trace, allocator=walked_allocator)
    reference_allocator = ReferenceAllocator(
        params.geometry, "stress_aware", interval=8
    )
    reference = reference_compute_schedule(
        params, trace, allocator=reference_allocator
    )
    assert walked.stress_coupled
    assert_schedules_equal(walked, reference)
    np.testing.assert_array_equal(
        walked_allocator.tracker.cycle_counts,
        reference_allocator.tracker.cycle_counts,
    )
    assert (
        walked_allocator.tracker.config_footprints
        == reference_allocator.tracker.config_footprints
    )
    assert walked_allocator.launches == reference_allocator.launches
    assert_conserved(walked, trace)
