"""Tests for the static health-aware remap policy (related work [19])."""

import pytest

from repro.cgra.fabric import FabricGeometry
from repro.core.allocator import ConfigurationAllocator
from repro.core.policy import make_policy

from tests.test_core_allocator import config


def allocator(rows=2, cols=4):
    return ConfigurationAllocator(
        FabricGeometry(rows=rows, cols=cols), make_policy("static_remap")
    )


class TestStaticRemap:
    def test_pivot_frozen_per_configuration(self):
        alloc = allocator()
        c = config([(0, 0)], rows=2, cols=4)
        pivots = {tuple(p) for p in alloc.allocate_batch([c] * 16).pivots}
        assert len(pivots) == 1  # one static choice, reused forever

    def test_second_configuration_avoids_first(self):
        alloc = allocator()
        first = config([(0, 0)], rows=2, cols=4, start_pc=0x1000)
        second = config([(0, 0)], rows=2, cols=4, start_pc=0x2000)
        batch = alloc.allocate_batch([first] * 8 + [second, first])
        # The static mapper sees first's accumulated stress and places
        # the new configuration on untouched FUs.
        first_cell = batch.placement(9).cells[0]
        assert batch.placement(8).cells[0] != first_cell

    def test_cannot_balance_single_hot_configuration(self):
        """The paper's critique of static approaches: one configuration
        dominating the run keeps hammering its statically chosen FUs."""
        static = allocator()
        c = config([(0, 0)], rows=2, cols=4)
        for _ in range(64):
            static.allocate(c)
        assert static.tracker.max_utilization() == 1.0

        rotating = ConfigurationAllocator(
            FabricGeometry(rows=2, cols=4), make_policy("rotation")
        )
        for _ in range(64):
            rotating.allocate(c)
        assert rotating.tracker.max_utilization() == pytest.approx(1 / 8)

    def test_many_configurations_spread(self):
        """With many distinct configurations the static mapper does
        balance — the regime where related work [19] helps."""
        alloc = allocator(rows=2, cols=4)
        for index in range(8):
            c = config([(0, 0)], rows=2, cols=4, start_pc=0x1000 + 16 * index)
            for _ in range(4):
                alloc.allocate(c)
        counts = alloc.tracker.execution_counts
        assert counts.max() == counts.min() == 4

    def test_rebind_clears_frozen_pivots(self):
        policy = make_policy("static_remap")
        geometry = FabricGeometry(rows=2, cols=4)
        alloc = ConfigurationAllocator(geometry, policy)
        c = config([(0, 0)], rows=2, cols=4)
        alloc.allocate_batch([c])
        assert policy.describe() == "static_remap(1 frozen pivots)"
        policy.bind(geometry)
        assert policy.describe() == "static_remap(0 frozen pivots)"
