"""Allocation engine vs the per-launch reference allocator.

The vectorized ``allocate_batch`` engine, and the queued ``allocate``
that feeds it, must be *bit-identical* to
:class:`tests.support.ReferenceAllocator`, which places each launch as
it arrives with the policy rules re-implemented in plain Python: same
execution-count, cycle-count and config-footprint matrices, same
pivots, same errors — for every policy, on real translation units from
the workload suite and on adversarial synthetic configurations.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.aging.sensor import SensorArray
from repro.cgra.configuration import PlacedOp, VirtualConfiguration
from repro.cgra.fabric import FabricGeometry
from repro.cgra.fu import FUKind
from repro.core.allocator import ConfigurationAllocator
from repro.core.policy import make_policy
from repro.dbt.window import build_unit
from repro.errors import AllocationError
from repro.workloads.suite import run_workload, workload_names

from tests.support import ReferenceAllocator

ROWS, COLS = 4, 8
GEOMETRY = FabricGeometry(rows=ROWS, cols=COLS)

#: Every registered allocation policy with state-exercising kwargs.
#: Entries are (name, kwargs factory): stateful constructor arguments
#: (the sensor) must be fresh per allocator, or the engine and the
#: reference would share mutable state.
POLICIES = (
    ("baseline", dict),
    ("random", lambda: {"seed": 11}),
    ("rotation", lambda: {"pattern": "snake"}),
    ("stress_aware", lambda: {"interval": 3}),
    (
        "stress_aware",
        lambda: {
            "interval": 3,
            "sensor": SensorArray(levels=8, sample_period=2),
        },
    ),
    ("static_remap", dict),
)


def build_allocator(policy_name, make_kwargs):
    return ConfigurationAllocator(
        GEOMETRY, make_policy(policy_name, **make_kwargs())
    )


def build_reference(policy_name, make_kwargs):
    return ReferenceAllocator(GEOMETRY, policy_name, **make_kwargs())


def oversized_config():
    """A configuration scheduled for a taller grid than ``GEOMETRY``."""
    return VirtualConfiguration(
        start_pc=0x3000,
        pc_path=(0x3000,),
        ops=(
            PlacedOp(
                op="add", kind=FUKind.ALU, row=0, col=0, width=1,
                trace_offset=0,
            ),
        ),
        n_instructions=1,
        geometry_rows=ROWS + 1,
        geometry_cols=COLS,
    )


def synthetic_config(cells, start_pc=0x1000, rows=ROWS, cols=COLS):
    ops = tuple(
        PlacedOp(
            op="add", kind=FUKind.ALU, row=row, col=col, width=1,
            trace_offset=index,
        )
        for index, (row, col) in enumerate(cells)
    )
    return VirtualConfiguration(
        start_pc=start_pc,
        pc_path=tuple(start_pc + 4 * i for i in range(len(cells))),
        ops=ops,
        n_instructions=len(cells),
        geometry_rows=rows,
        geometry_cols=cols,
    )


def assert_trackers_identical(expected, actual):
    np.testing.assert_array_equal(
        expected.tracker.execution_counts, actual.tracker.execution_counts
    )
    np.testing.assert_array_equal(
        expected.tracker.cycle_counts, actual.tracker.cycle_counts
    )
    assert expected.tracker.total_executions == actual.tracker.total_executions
    assert expected.tracker.total_cycles == actual.tracker.total_cycles
    assert (
        expected.tracker.config_footprints == actual.tracker.config_footprints
    )
    assert expected.launches == actual.launches


@pytest.fixture(scope="module")
def suite_units():
    """Real translation units: one per suite workload (where mappable)."""
    units = []
    for name in workload_names():
        trace = run_workload(name)
        for position in (0, 40, 200):
            unit = build_unit(trace, position, GEOMETRY)
            if unit is not None:
                units.append(unit)
                break
    assert len(units) >= 5, "suite should yield several mappable units"
    return units


@pytest.mark.parametrize("policy_name,make_kwargs", POLICIES)
def test_suite_equivalence_all_policies(suite_units, policy_name, make_kwargs):
    """One big interleaved batch over real suite units matches the
    reference exactly, for every policy."""
    sequence = []
    cycles = []
    for repeat in range(3):
        for index, unit in enumerate(suite_units):
            sequence.extend([unit] * (2 + (index + repeat) % 3))
            cycles.extend(
                7 + (index * 13 + repeat * 5 + offset) % 11
                for offset in range(2 + (index + repeat) % 3)
            )
    reference = build_reference(policy_name, make_kwargs)
    batched = build_allocator(policy_name, make_kwargs)
    for config, cyc in zip(sequence, cycles):
        reference.allocate(config, cycles=cyc)
    batch = batched.allocate_batch(sequence, cycles=cycles)
    assert_trackers_identical(reference, batched)
    np.testing.assert_array_equal(
        batch.pivots, np.asarray(reference.pivots, dtype=np.int64)
    )


@pytest.mark.parametrize("policy_name,make_kwargs", POLICIES)
def test_run_of_one_interleaving_equivalence(
    suite_units, policy_name, make_kwargs
):
    """A fully interleaved schedule — every run has length 1, the
    worst case for per-run planning — matches the reference exactly
    for every policy."""
    distinct = suite_units[:4]
    sequence = [distinct[index % len(distinct)] for index in range(60)]
    cycles = [1 + index % 7 for index in range(60)]
    reference = build_reference(policy_name, make_kwargs)
    batched = build_allocator(policy_name, make_kwargs)
    for config, cyc in zip(sequence, cycles):
        reference.allocate(config, cycles=cyc)
    batch = batched.allocate_batch(sequence, cycles=cycles)
    assert_trackers_identical(reference, batched)
    np.testing.assert_array_equal(
        batch.pivots, np.asarray(reference.pivots, dtype=np.int64)
    )


@settings(max_examples=20, deadline=None)
@given(
    prefix=st.integers(min_value=0, max_value=12),
    interleave=st.booleans(),
    policy_index=st.integers(min_value=0, max_value=len(POLICIES) - 1),
)
def test_property_mid_batch_error_equivalence(prefix, interleave, policy_index):
    """A configuration that cannot fit, appearing mid-sequence, raises
    from the engine and the reference with the launches before it
    recorded identically — ``launches`` and the tracker stay in
    agreement on the error path."""
    small_a = synthetic_config([(0, 0), (1, 3)], start_pc=0x1000)
    small_b = synthetic_config([(2, 1)], start_pc=0x2000)
    oversized = oversized_config()
    if interleave:
        good = [small_a if index % 2 else small_b for index in range(prefix)]
    else:
        good = [small_a] * prefix
    sequence = good + [oversized] + [small_b] * 3
    policy_name, make_kwargs = POLICIES[policy_index]
    reference = build_reference(policy_name, make_kwargs)
    batched = build_allocator(policy_name, make_kwargs)
    with pytest.raises(AllocationError):
        for config in sequence:
            reference.allocate(config)
    with pytest.raises(AllocationError):
        batched.allocate_batch(sequence)
    # The reference records exactly the launches before the bad
    # config; the engine may have planned further ahead, but must
    # *record* the same accepted prefix.
    assert_trackers_identical(reference, batched)
    assert batched.launches == prefix


@pytest.mark.parametrize("policy_name,make_kwargs", POLICIES)
def test_chunked_batches_equal_one_batch(suite_units, policy_name, make_kwargs):
    """Splitting a launch sequence into arbitrary chunks leaves the
    accumulated stress unchanged (tracker updates between runs see the
    same state one batch would)."""
    sequence = [unit for unit in suite_units for _ in range(5)]
    whole = build_allocator(policy_name, make_kwargs)
    chunked = build_allocator(policy_name, make_kwargs)
    whole.allocate_batch(sequence, cycles=3)
    boundaries = [0, 1, 4, 7, len(sequence) // 2, len(sequence)]
    for start, stop in zip(boundaries, boundaries[1:]):
        chunked.allocate_batch(sequence[start:stop], cycles=3)
    assert_trackers_identical(whole, chunked)


def test_explicit_pivots_replay(suite_units):
    """Feeding recorded pivots back through ``pivots=`` reproduces the
    policy-driven batch exactly."""
    sequence = [unit for unit in suite_units for _ in range(4)]
    driven = ConfigurationAllocator(GEOMETRY, make_policy("rotation"))
    batch = driven.allocate_batch(sequence, cycles=2)
    replayed = ConfigurationAllocator(GEOMETRY, make_policy("rotation"))
    replayed.allocate_batch(sequence, pivots=batch.pivots, cycles=2)
    assert_trackers_identical(driven, replayed)


config_cells = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=ROWS - 1),
        st.integers(min_value=0, max_value=COLS - 1),
    ),
    min_size=1,
    max_size=6,
    unique=True,
)


@settings(max_examples=30, deadline=None)
@given(
    pool=st.lists(config_cells, min_size=1, max_size=4),
    picks=st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=3),
            st.integers(min_value=1, max_value=9),
        ),
        min_size=1,
        max_size=40,
    ),
    policy_index=st.integers(min_value=0, max_value=len(POLICIES) - 1),
)
def test_property_reference_batch_equivalence(pool, picks, policy_index):
    """Random config pools, launch orders and cycle weights: the
    reference and one-shot batch accrue identical stress."""
    configs = [
        synthetic_config(cells, start_pc=0x1000 + 0x40 * index)
        for index, cells in enumerate(pool)
    ]
    sequence = [configs[index % len(configs)] for index, _ in picks]
    cycles = [cyc for _, cyc in picks]
    policy_name, make_kwargs = POLICIES[policy_index]
    reference = build_reference(policy_name, make_kwargs)
    batched = build_allocator(policy_name, make_kwargs)
    for config, cyc in zip(sequence, cycles):
        reference.allocate(config, cycles=cyc)
    batched.allocate_batch(sequence, cycles=cycles)
    assert_trackers_identical(reference, batched)


SMALL = FabricGeometry(rows=2, cols=4)


@pytest.mark.parametrize("policy_name,make_kwargs", POLICIES)
@settings(max_examples=30, deadline=None)
@given(
    pool=st.lists(
        st.lists(
            st.tuples(st.integers(0, 1), st.integers(0, 3)),
            min_size=2,
            max_size=3,
            unique=True,
        ),
        min_size=2,
        max_size=6,
    ),
    runs=st.lists(
        st.tuples(st.integers(0, 5), st.integers(1, 6)), min_size=1, max_size=12
    ),
)
def test_property_saturated_fabric(policy_name, make_kwargs, pool, runs):
    """Many configurations on a 2x4 fabric leave no stress-free pivot,
    so the searches' (max, sum) tie-breaks decide the placement."""
    configs = [
        synthetic_config(cells, start_pc=0x1000 + 0x40 * index, rows=2, cols=4)
        for index, cells in enumerate(pool)
    ]
    sequence = [
        configs[index % len(configs)] for index, length in runs
        for _ in range(length)
    ]
    reference = ReferenceAllocator(SMALL, policy_name, **make_kwargs())
    allocator = ConfigurationAllocator(
        SMALL, make_policy(policy_name, **make_kwargs())
    )
    for config in sequence:
        reference.allocate(config)
    allocator.allocate_batch(sequence)
    assert_trackers_identical(reference, allocator)


#: One step of an interleaved allocation sequence: ``("allocate", config,
#: cycles)`` queues a launch, ``("read",)`` reads the tracker, and
#: ``("batch", launches)`` places ``(config, cycles)`` pairs through
#: ``allocate_batch``.
interleaving_steps = st.one_of(
    st.tuples(
        st.just("allocate"),
        st.integers(min_value=0, max_value=3),
        st.integers(min_value=1, max_value=9),
    ),
    st.tuples(st.just("read")),
    st.tuples(
        st.just("batch"),
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=3),
                st.integers(min_value=1, max_value=9),
            ),
            max_size=12,
        ),
    ),
)


@settings(max_examples=100, deadline=None)
@given(
    pool=st.lists(config_cells, min_size=1, max_size=4),
    steps=st.lists(interleaving_steps, min_size=1, max_size=30),
    policy_index=st.integers(min_value=0, max_value=len(POLICIES) - 1),
)
def test_property_queued_interleaving_matches_reference(pool, steps, policy_index):
    """Queued ``allocate`` calls, tracker reads at random points and
    ``allocate_batch`` calls, interleaved: the engine places exactly
    what the per-launch reference places, whatever the flush points."""
    configs = [
        synthetic_config(cells, start_pc=0x1000 + 0x40 * index)
        for index, cells in enumerate(pool)
    ]
    policy_name, make_kwargs = POLICIES[policy_index]
    reference = build_reference(policy_name, make_kwargs)
    allocator = build_allocator(policy_name, make_kwargs)
    for step in steps:
        if step[0] == "allocate":
            config = configs[step[1] % len(configs)]
            assert allocator.allocate(config, cycles=step[2]) is None
            reference.allocate(config, cycles=step[2])
        elif step[0] == "read":
            np.testing.assert_array_equal(
                reference.tracker.execution_counts,
                allocator.tracker.execution_counts,
            )
        else:
            launches = [
                (configs[index % len(configs)], cyc) for index, cyc in step[1]
            ]
            for config, cyc in launches:
                reference.allocate(config, cycles=cyc)
            allocator.allocate_batch(
                [config for config, _ in launches],
                cycles=np.asarray([cyc for _, cyc in launches], dtype=np.int64),
            )
    assert_trackers_identical(reference, allocator)


@pytest.mark.parametrize("policy_name,make_kwargs", POLICIES)
def test_queued_error_surfaces_at_flush(policy_name, make_kwargs):
    """A queued launch that cannot be placed raises when the queue is
    flushed, not when it is queued; the launches queued before it are
    recorded as the reference records them, and the queue is left
    empty."""
    good = synthetic_config([(0, 0), (1, 3)], start_pc=0x1000)
    other = synthetic_config([(2, 1)], start_pc=0x2000)
    prefix = [good, other, good, good, other]
    reference = build_reference(policy_name, make_kwargs)
    allocator = build_allocator(policy_name, make_kwargs)
    for index, config in enumerate(prefix):
        allocator.allocate(config, cycles=index + 1)
        reference.allocate(config, cycles=index + 1)
    allocator.allocate(oversized_config())  # queued: no error yet
    allocator.allocate(good)
    with pytest.raises(AllocationError):
        allocator.tracker
    assert allocator.launches == len(prefix)
    assert_trackers_identical(reference, allocator)
    # The queue is empty: the failed launches are not retried, and the
    # next batch places only its own launch. (Policy state is not
    # compared past an error: the engine may have planned ahead.)
    allocator.allocate_batch([other])
    assert allocator.launches == len(prefix) + 1
    assert allocator.tracker.total_executions == len(prefix) + 1


class TestBatchValidation:
    def test_oversized_config_rejected(self):
        big = VirtualConfiguration(
            start_pc=0x2000,
            pc_path=(0x2000,),
            ops=(
                PlacedOp(
                    op="add", kind=FUKind.ALU, row=0, col=0, width=1,
                    trace_offset=0,
                ),
            ),
            n_instructions=1,
            geometry_rows=ROWS + 2,
            geometry_cols=COLS,
        )
        allocator = ConfigurationAllocator(GEOMETRY, make_policy("baseline"))
        with pytest.raises(AllocationError):
            allocator.allocate_batch([big])

    def test_bad_pivot_shape_rejected(self):
        config = synthetic_config([(0, 0)])
        allocator = ConfigurationAllocator(GEOMETRY, make_policy("baseline"))
        with pytest.raises(AllocationError):
            allocator.allocate_batch([config, config], pivots=[(0, 0)])

    def test_out_of_range_pivot_rejected(self):
        config = synthetic_config([(0, 0)])
        allocator = ConfigurationAllocator(GEOMETRY, make_policy("baseline"))
        with pytest.raises(AllocationError):
            allocator.allocate_batch([config], pivots=[(ROWS, 0)])

    def test_bad_cycles_length_rejected(self):
        config = synthetic_config([(0, 0)])
        allocator = ConfigurationAllocator(GEOMETRY, make_policy("baseline"))
        with pytest.raises(AllocationError):
            allocator.allocate_batch([config, config], cycles=[1, 2, 3])

    def test_empty_batch_is_noop(self):
        allocator = ConfigurationAllocator(GEOMETRY, make_policy("rotation"))
        batch = allocator.allocate_batch([])
        assert batch.n_launches == 0
        assert allocator.tracker.total_executions == 0

    def test_placement_reconstruction_matches_reference(self):
        config = synthetic_config([(0, 0), (1, 3), (3, 7)])
        batched = ConfigurationAllocator(GEOMETRY, make_policy("rotation"))
        reference = ReferenceAllocator(GEOMETRY, "rotation")
        batch = batched.allocate_batch([config] * 8)
        for index in range(8):
            pivot = reference.allocate(config)
            placement = batch.placement(index)
            assert placement.pivot == pivot
            assert placement.cells == reference.cells(config, pivot)
            assert placement.config is config
