"""Tests for allocation policies and the configuration allocator.

Per-launch behaviour is checked through the engine (queued
``allocate`` and ``allocate_batch``) and, where a policy's pivot stream
is the point, against :class:`tests.support.ReferenceAllocator`.
"""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.cgra.configuration import PlacedOp, VirtualConfiguration
from repro.cgra.fabric import FabricGeometry
from repro.cgra.fu import FUKind
from repro.core.allocator import ConfigurationAllocator
from repro.core.policy import (
    AllocationPolicy,
    SegmentPlan,
    available_policies,
    make_policy,
)
from repro.errors import AllocationError, ConfigurationError

from tests.support import ReferenceAllocator


def config(cells, rows=2, cols=8, start_pc=0x1000):
    """Build a config whose ops are single-column ALUs at `cells`."""
    ops = tuple(
        PlacedOp(op="add", kind=FUKind.ALU, row=r, col=c, width=1,
                 trace_offset=i)
        for i, (r, c) in enumerate(cells)
    )
    return VirtualConfiguration(
        start_pc=start_pc,
        pc_path=tuple(start_pc + 4 * i for i in range(len(cells))),
        ops=ops,
        n_instructions=len(cells),
        geometry_rows=rows,
        geometry_cols=cols,
    )


def allocator(policy_name="baseline", rows=2, cols=8, **kwargs):
    geometry = FabricGeometry(rows=rows, cols=cols)
    return ConfigurationAllocator(geometry, make_policy(policy_name, **kwargs))


def placements(alloc, c, launches):
    """Place ``launches`` launches of ``c``; their placements in order."""
    batch = alloc.allocate_batch([c] * launches)
    return [batch.placement(index) for index in range(launches)]


def reference_pivots(policy_name, c, launches, rows=2, cols=8, **kwargs):
    reference = ReferenceAllocator(
        FabricGeometry(rows=rows, cols=cols), policy_name, **kwargs
    )
    return [reference.allocate(c) for _ in range(launches)]


class TestRegistry:
    def test_all_policies_registered(self):
        names = available_policies()
        for expected in ("baseline", "rotation", "random", "stress_aware"):
            assert expected in names

    def test_unknown_policy(self):
        with pytest.raises(ConfigurationError):
            make_policy("oracle")


class TestBaseline:
    def test_pivot_always_origin(self):
        alloc = allocator("baseline")
        c = config([(0, 0), (1, 1)])
        for placement in placements(alloc, c, 5):
            assert placement.pivot == (0, 0)
            assert placement.cells == ((0, 0), (1, 1))

    def test_corner_concentration(self):
        alloc = allocator("baseline", rows=2, cols=8)
        c = config([(0, 0)])
        for _ in range(10):
            alloc.allocate(c)
        util = alloc.tracker.utilization()
        assert util[0, 0] == 1.0
        assert util.sum() == 1.0  # nothing anywhere else


class TestRotation:
    def test_pivots_follow_snake(self):
        alloc = allocator("rotation", rows=2, cols=4)
        c = config([(0, 0)], rows=2, cols=4)
        pivots = [p.pivot for p in placements(alloc, c, 8)]
        assert pivots == [
            (0, 0), (0, 1), (0, 2), (0, 3),
            (1, 3), (1, 2), (1, 1), (1, 0),
        ]
        assert pivots == reference_pivots("rotation", c, 8, rows=2, cols=4)

    def test_wrap_around(self):
        alloc = allocator("rotation", rows=2, cols=4)
        c = config([(0, 0), (0, 3), (1, 0)], rows=2, cols=4)
        second = placements(alloc, c, 2)[1]
        # Second launch pivot (0,1): cell (0,3) wraps to (0,0).
        assert second.pivot == (0, 1)
        assert (0, 0) in second.cells

    def test_full_sweep_uniform(self):
        """After exactly rows*cols launches every physical cell has been
        stressed by a single-op config exactly once."""
        alloc = allocator("rotation", rows=2, cols=4)
        c = config([(0, 0)], rows=2, cols=4)
        for _ in range(8):
            alloc.allocate(c)
        counts = alloc.tracker.execution_counts
        assert (counts == 1).all()

    def test_multi_cell_uniform_after_sweep(self):
        alloc = allocator("rotation", rows=2, cols=4)
        c = config([(0, 0), (0, 1), (1, 2)], rows=2, cols=4)
        for _ in range(8):
            alloc.allocate(c)
        counts = alloc.tracker.execution_counts
        assert (counts == 3).all()

    def test_alternative_pattern(self):
        alloc = allocator("rotation", rows=2, cols=4, pattern="raster")
        c = config([(0, 0)], rows=2, cols=4)
        pivots = [p.pivot for p in placements(alloc, c, 4)]
        assert pivots == [(0, 0), (0, 1), (0, 2), (0, 3)]


class TestRandom:
    def test_deterministic_under_seed(self):
        a = allocator("random", seed=7)
        b = allocator("random", seed=7)
        c = config([(0, 0)])
        pivots_a = [p.pivot for p in placements(a, c, 20)]
        pivots_b = [p.pivot for p in placements(b, c, 20)]
        assert pivots_a == pivots_b
        assert pivots_a == reference_pivots("random", c, 20, seed=7)

    def test_spreads_over_fabric(self):
        alloc = allocator("random", rows=2, cols=8, seed=3)
        c = config([(0, 0)])
        for _ in range(400):
            alloc.allocate(c)
        counts = alloc.tracker.execution_counts
        assert (counts > 0).all()


class TestStressAware:
    def test_balances_at_least_as_well_as_baseline(self):
        c = config([(0, 0), (0, 1)], rows=2, cols=4)
        base = allocator("baseline", rows=2, cols=4)
        aware = allocator("stress_aware", rows=2, cols=4, interval=1)
        for _ in range(32):
            base.allocate(c)
            aware.allocate(c)
        assert (
            aware.tracker.max_utilization() < base.tracker.max_utilization()
        )

    def test_perfect_balance_with_interval_one(self):
        c = config([(0, 0)], rows=2, cols=4)
        aware = allocator("stress_aware", rows=2, cols=4, interval=1)
        for _ in range(32):
            aware.allocate(c)
        counts = aware.tracker.execution_counts
        assert counts.max() - counts.min() <= 1

    def test_bad_interval(self):
        with pytest.raises(ValueError):
            make_policy("stress_aware", interval=0)


class TestAllocatorValidation:
    def test_oversized_config_rejected_at_flush(self):
        alloc = allocator("baseline", rows=2, cols=8)
        big = config([(0, 0)], rows=4, cols=8)
        alloc.allocate(big)  # queued: placed at the next read
        with pytest.raises(AllocationError):
            alloc.tracker
        assert alloc.launches == 0

    def test_pivot_out_of_range_rejected(self):
        class BadPolicy(AllocationPolicy):
            name = "bad"

            def plan_segments(self, schedule, tracker):
                count = schedule.n_launches
                pivots = np.tile((99, 0), (count, 1))
                yield SegmentPlan(start=0, stop=count, pivots=pivots)

        geometry = FabricGeometry(rows=2, cols=8)
        alloc = ConfigurationAllocator(geometry, BadPolicy())
        with pytest.raises(AllocationError, match="outside"):
            alloc.allocate_batch([config([(0, 0)])])

    def test_base_policy_has_no_plan(self):
        alloc = ConfigurationAllocator(
            FabricGeometry(rows=2, cols=8), AllocationPolicy()
        )
        with pytest.raises(NotImplementedError):
            alloc.allocate_batch([config([(0, 0)])])


class TestQueuedAllocate:
    class CountingPolicy(AllocationPolicy):
        """Origin pivots; counts how often the engine plans."""

        name = "counting"
        plan_granularity = "schedule"

        def __init__(self):
            self.plans = 0

        def plan_segments(self, schedule, tracker):
            self.plans += 1
            count = schedule.n_launches
            yield SegmentPlan(
                start=0, stop=count, pivots=np.zeros((count, 2), np.int64)
            )

    def test_allocate_queues_until_a_read(self):
        policy = self.CountingPolicy()
        alloc = ConfigurationAllocator(FabricGeometry(rows=2, cols=8), policy)
        c = config([(0, 0), (1, 1)])
        for cycles in (3, 4, 5):
            assert alloc.allocate(c, cycles=cycles) is None
        assert policy.plans == 0
        assert alloc.launches == 3
        assert policy.plans == 1  # one batch for the whole queue
        assert alloc.tracker.total_cycles == 12
        assert policy.plans == 1  # nothing queued: no further batch

    def test_batch_places_queued_launches_first(self):
        alloc = allocator("rotation", rows=2, cols=4)
        c = config([(0, 0)], rows=2, cols=4)
        alloc.allocate(c)
        alloc.allocate(c)
        batch = alloc.allocate_batch([c] * 2)
        # The batch's own launches continue the counter after the queue.
        assert batch.n_launches == 2
        assert [tuple(p) for p in batch.pivots] == [(0, 2), (0, 3)]
        assert alloc.launches == 4


class TestAllocatorProperties:
    @given(
        pivot_count=st.integers(min_value=1, max_value=64),
        seed=st.integers(min_value=0, max_value=100),
    )
    def test_cells_always_in_bounds(self, pivot_count, seed):
        alloc = allocator("random", rows=2, cols=8, seed=seed)
        c = config([(0, 0), (1, 3), (0, 7)], rows=2, cols=8)
        for placement in placements(alloc, c, pivot_count):
            for row, col in placement.cells:
                assert 0 <= row < 2
                assert 0 <= col < 8

    @given(seed=st.integers(min_value=0, max_value=100))
    def test_no_cell_collisions_after_wrap(self, seed):
        alloc = allocator("random", rows=2, cols=8, seed=seed)
        cells = [(0, 0), (0, 1), (1, 0), (1, 7), (0, 4)]
        c = config(cells, rows=2, cols=8)
        (placement,) = placements(alloc, c, 1)
        assert len(set(placement.cells)) == len(cells)
