"""Each hot loop has one (numpy) implementation; pin it to an oracle.

The interval fold, the snake fill of the stress-aware planner, the
tracker's batched stress accrual and the annealing move loop each
exist once. Every one of them is checked here against code it shares
nothing with: a brute-force count, the per-launch
:class:`tests.support.ReferenceAllocator`, repeated single-launch
``record`` calls, or a second independent run of the same seeded
search.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cgra.fabric import FabricGeometry
from repro.cgra.interconnect import pressure_profile
from repro.core.allocator import ConfigurationAllocator
from repro.core.patterns import movement_pattern
from repro.core.policy import make_policy
from repro.core.utilization import UtilizationTracker
from repro.dbt.window import build_unit
from repro.errors import AllocationError
from repro.mapping import SimulatedAnnealingMapper
from repro.mapping.legality import check_unit
from repro.workloads.suite import run_workload, workload_names

from tests.support import ReferenceAllocator, rec, reset_rec_pcs
from tests.test_batch_equivalence import (
    POLICIES,
    assert_trackers_identical,
    synthetic_config,
)

# ----------------------------------------------------------------------
# Interval fold: pressure_profile vs a per-boundary brute-force count
# ----------------------------------------------------------------------


def brute_force_pressure(intervals, n_cols):
    """Values crossing into each boundary, counted one by one."""
    return [
        sum(1 for first, last in intervals if first <= boundary <= last)
        for boundary in range(n_cols)
    ]


class TestPressureProfile:
    @settings(deadline=None, max_examples=100)
    @given(
        intervals=st.lists(
            st.tuples(st.integers(0, 12), st.integers(-1, 12)), max_size=40
        ),
        n_cols=st.integers(1, 12),
    )
    def test_matches_brute_force_count(self, intervals, n_cols):
        # Contract (shared with the producers in routing.py): the open
        # endpoint never exceeds n_cols, so clamp generated intervals.
        intervals = [(min(first, n_cols), last) for first, last in intervals]
        got = pressure_profile(intervals, n_cols)
        assert got.dtype == np.int64
        assert got.tolist() == brute_force_pressure(intervals, n_cols)

    def test_intervals_past_the_last_column_are_clipped(self):
        profile = pressure_profile([(2, 9), (0, 4)], 4)
        assert profile.tolist() == [1, 1, 2, 2]

    def test_value_available_at_the_open_endpoint_adds_nothing(self):
        assert pressure_profile([(4, 4), (4, 7)], 4).tolist() == [0] * 4


# ----------------------------------------------------------------------
# Snake fill: stress-aware plan pivots vs the per-launch reference
# ----------------------------------------------------------------------

SNAKE_GEOMETRY = FabricGeometry(rows=4, cols=8)


def snake_config():
    return synthetic_config([(0, 0), (1, 3), (2, 5)])


class TestSnakeFill:
    PATTERN_LENGTH = SNAKE_GEOMETRY.rows * SNAKE_GEOMETRY.cols

    @pytest.mark.parametrize("interval", (1, 2, 5, 32, 33, 70))
    def test_pivots_follow_the_pattern_across_its_end(self, interval):
        """Between searches the planner gathers ``pattern[(start + k) %
        len]``; intervals at and beyond the pattern length make that
        gather wrap, in one batch and across chunked batches."""
        config = snake_config()
        n_launches = 2 * interval + 9
        reference = ReferenceAllocator(
            SNAKE_GEOMETRY, "stress_aware", interval=interval
        )
        for _ in range(n_launches):
            reference.allocate(config)

        whole = ConfigurationAllocator(
            SNAKE_GEOMETRY, make_policy("stress_aware", interval=interval)
        )
        batch = whole.allocate_batch([config] * n_launches)
        assert [tuple(p) for p in batch.pivots.tolist()] == reference.pivots

        chunked = ConfigurationAllocator(
            SNAKE_GEOMETRY, make_policy("stress_aware", interval=interval)
        )
        pivots = []
        for start in range(0, n_launches, 7):
            part = chunked.allocate_batch(
                [config] * min(7, n_launches - start)
            )
            pivots.extend(tuple(p) for p in part.pivots.tolist())
        assert pivots == reference.pivots
        assert_trackers_identical(reference, whole)
        assert_trackers_identical(reference, chunked)

        # Launches that follow a search step one pattern position each.
        pattern = movement_pattern(
            "snake", SNAKE_GEOMETRY.rows, SNAKE_GEOMETRY.cols
        )
        for launch in range(1, n_launches):
            if launch % interval != 0:
                previous = pattern.index(reference.pivots[launch - 1])
                assert reference.pivots[launch] == pattern[
                    (previous + 1) % self.PATTERN_LENGTH
                ]


# ----------------------------------------------------------------------
# Batched accrual: record_batch vs one record call per launch
# ----------------------------------------------------------------------


def random_launches(seed, n_launches, rows=4, cols=6):
    """``(n_launches, n_cells)`` flat cells (distinct within a launch)
    and per-launch cycles."""
    rng = np.random.default_rng(seed)
    n_cells = int(rng.integers(1, rows * cols))
    flat = np.stack(
        [rng.permutation(rows * cols)[:n_cells] for _ in range(n_launches)]
    ).astype(np.int64)
    cycles = rng.integers(1, 9, size=n_launches).astype(np.int64)
    return flat, cycles


def assert_batch_matches_records(flat, cycles, geometry):
    batched = UtilizationTracker(geometry)
    batched.record_batch(0x40, flat, cycles)
    expected = UtilizationTracker(geometry)
    for launch_cells, launch_cycles in zip(flat.tolist(), cycles.tolist()):
        cells = [divmod(cell, geometry.cols) for cell in launch_cells]
        expected.record(0x40, cells, cycles=launch_cycles)
    np.testing.assert_array_equal(
        batched.execution_counts, expected.execution_counts
    )
    np.testing.assert_array_equal(batched.cycle_counts, expected.cycle_counts)
    assert batched.total_executions == expected.total_executions
    assert batched.total_cycles == expected.total_cycles
    assert batched.config_footprints == expected.config_footprints


class TestRecordBatch:
    GEOMETRY = FabricGeometry(rows=4, cols=6)

    @settings(deadline=None, max_examples=60)
    @given(seed=st.integers(0, 2**16), n_launches=st.integers(2, 24))
    def test_matches_per_launch_records(self, seed, n_launches):
        flat, cycles = random_launches(seed, n_launches)
        assert_batch_matches_records(flat, cycles, self.GEOMETRY)

    def test_single_launch_fast_path(self):
        flat, cycles = random_launches(3, 1)
        assert_batch_matches_records(flat, cycles, self.GEOMETRY)

    def test_empty_batch_records_nothing(self):
        tracker = UtilizationTracker(self.GEOMETRY)
        tracker.record_batch(
            0x40, np.zeros((0, 2), dtype=np.int64), np.zeros(0, np.int64)
        )
        assert tracker.total_executions == 0
        assert tracker.config_footprints == {}


# ----------------------------------------------------------------------
# Annealing moves: one seeded search, run twice, stays legal
# ----------------------------------------------------------------------

_OPS_R = ("add", "sub", "xor", "and", "or", "mul")

window_entries = st.lists(
    st.tuples(
        st.sampled_from(_OPS_R + ("lw", "sw")),
        st.integers(min_value=1, max_value=7),  # rd
        st.integers(min_value=1, max_value=7),  # rs1
        st.integers(min_value=1, max_value=7),  # rs2
    ),
    min_size=1,
    max_size=16,
)


def build_window(entries):
    reset_rec_pcs()
    records = []
    for index, (op, rd, rs1, rs2) in enumerate(entries):
        if op == "lw":
            records.append(
                rec("lw", rd=rd, rs1=rs1, mem_addr=0x100 + 4 * (index % 8))
            )
        elif op == "sw":
            records.append(
                rec("sw", rs1=rs1, rs2=rs2, mem_addr=0x100 + 4 * (index % 8))
            )
        else:
            records.append(rec(op, rd=rd, rs1=rs1, rs2=rs2))
    return tuple(records)


#: (mapper kwargs, geometry, whether to pass a stress hint).
ANNEAL_SCENARIOS = {
    "default": ({}, FabricGeometry(rows=4, cols=8), False),
    "stress_hint": ({}, FabricGeometry(rows=4, cols=8), True),
    "hard_line_budget": ({}, FabricGeometry(rows=4, cols=8, ctx_lines=4), False),
    "congestion_off": (
        {"congestion_weight": 0.0, "line_budget": None},
        FabricGeometry(rows=4, cols=8),
        False,
    ),
}


class TestAnnealMoves:
    @pytest.mark.parametrize("scenario", sorted(ANNEAL_SCENARIOS))
    @settings(deadline=None, max_examples=10)
    @given(entries=window_entries, seed=st.integers(0, 2**16))
    def test_seeded_search_is_reproducible_and_legal(
        self, scenario, entries, seed
    ):
        kwargs, geometry, with_hint = ANNEAL_SCENARIOS[scenario]
        records = build_window(entries)
        hint = None
        if with_hint:
            rng = np.random.default_rng(seed)
            hint = rng.random((geometry.rows, geometry.cols)) * 10.0
        first, second = (
            SimulatedAnnealingMapper(seed=seed, **kwargs).map_unit(
                records, geometry, stress_hint=hint
            )
            for _ in range(2)
        )
        assert (first is None) == (second is None)
        if first is None:
            return
        assert [(op.row, op.col) for op in first.ops] == [
            (op.row, op.col) for op in second.ops
        ]
        assert first.mapper_key == second.mapper_key
        report = check_unit(first, records, geometry)
        assert report.ok, report.violations


# ----------------------------------------------------------------------
# Queued replay of real units on a wide fabric vs the reference
# ----------------------------------------------------------------------

WIDE = FabricGeometry(rows=4, cols=16)


@pytest.fixture(scope="module")
def wide_units():
    units = []
    for name in workload_names()[:4]:
        trace = run_workload(name)
        for position in (0, 40, 200):
            unit = build_unit(trace, position, WIDE)
            if unit is not None:
                units.append(unit)
                break
    assert len(units) >= 2
    return units


@pytest.mark.parametrize("policy_name,make_kwargs", POLICIES)
def test_queued_wide_replay_matches_reference(
    wide_units, policy_name, make_kwargs
):
    """Per-launch queued ``allocate`` with a tracker read every seventh
    launch (the coupled walk's access shape) equals the reference."""
    reference = ReferenceAllocator(WIDE, policy_name, **make_kwargs())
    allocator = ConfigurationAllocator(
        WIDE, make_policy(policy_name, **make_kwargs())
    )
    for index in range(48):
        config = wide_units[index % len(wide_units)]
        cycles = 1 + (index * 5) % 9
        reference.allocate(config, cycles=cycles)
        allocator.allocate(config, cycles=cycles)
        if index % 7 == 6:
            np.testing.assert_array_equal(
                allocator.tracker.execution_counts,
                reference.tracker.execution_counts,
            )
    assert_trackers_identical(reference, allocator)


def test_wide_mid_batch_error_keeps_the_reference_prefix(wide_units):
    oversized = dataclasses.replace(
        wide_units[0], geometry_rows=WIDE.rows + 1
    )
    configs = [wide_units[index % 2] for index in range(7)]
    cycles = list(range(1, len(configs) + 3))
    reference = ReferenceAllocator(WIDE, "stress_aware", interval=3)
    for config, cyc in zip(configs, cycles):
        reference.allocate(config, cycles=cyc)
    allocator = ConfigurationAllocator(
        WIDE, make_policy("stress_aware", interval=3)
    )
    with pytest.raises(AllocationError):
        allocator.allocate_batch(
            configs + [oversized, wide_units[0]],
            cycles=np.asarray(cycles, dtype=np.int64),
        )
    assert_trackers_identical(reference, allocator)
