"""The sequence-planning policy protocol: segment plans, the schedule
view and the allocator's plan validation.

Companion to ``tests/test_batch_equivalence.py`` (which pins the
engine's bit-identity to the per-launch reference allocator): this
file pins the protocol itself — plan granularities, contiguity
validation, and the custom policy of ``examples/adaptive_policy.py``.
"""

import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.cgra.configuration import PlacedOp, VirtualConfiguration
from repro.cgra.fabric import FabricGeometry
from repro.cgra.fu import FUKind
from repro.core.allocator import ConfigurationAllocator
from repro.core.policy import (
    PLAN_GRANULARITIES,
    AllocationPolicy,
    ScheduleView,
    SegmentPlan,
    iter_runs,
    make_policy,
    policy_class,
)
from repro.errors import AllocationError

ROWS, COLS = 4, 8
GEOMETRY = FabricGeometry(rows=ROWS, cols=COLS)


def synthetic_config(cells, start_pc=0x1000):
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
        geometry_rows=ROWS,
        geometry_cols=COLS,
    )


CONFIG_A = synthetic_config([(0, 0), (1, 1)], start_pc=0x1000)
CONFIG_B = synthetic_config([(0, 2)], start_pc=0x2000)


class TestScheduleView:
    def test_runs_follow_object_identity(self):
        view = ScheduleView((CONFIG_A, CONFIG_A, CONFIG_B, CONFIG_A))
        assert list(view.runs()) == [
            (CONFIG_A, 0, 2),
            (CONFIG_B, 2, 3),
            (CONFIG_A, 3, 4),
        ]
        assert view.n_launches == len(view) == 4

    def test_runs_within_slice(self):
        configs = (CONFIG_A, CONFIG_A, CONFIG_B, CONFIG_B, CONFIG_A)
        assert list(iter_runs(configs, 1, 4)) == [
            (CONFIG_A, 1, 2),
            (CONFIG_B, 2, 4),
        ]

    def test_cycles_exposed_read_only(self):
        cycles = np.asarray([3, 5], dtype=np.int64)
        view = ScheduleView((CONFIG_A, CONFIG_A), cycles)
        np.testing.assert_array_equal(view.cycles, cycles)
        # The view must not let a planner edit the weights the
        # allocator goes on to record.
        assert not view.cycles.flags.writeable
        with pytest.raises(ValueError):
            view.cycles[0] = 9
        assert ScheduleView((CONFIG_A,)).cycles is None


class TestPlanGranularity:
    @pytest.mark.parametrize(
        "name,granularity",
        [
            ("baseline", "schedule"),
            ("rotation", "schedule"),
            ("random", "schedule"),
            ("static_remap", "epoch"),
            ("stress_aware", "interval"),
        ],
    )
    def test_builtin_declarations(self, name, granularity):
        assert policy_class(name).plan_granularity == granularity
        assert granularity in PLAN_GRANULARITIES

    def test_base_class_defaults_to_per_launch(self):
        assert AllocationPolicy.plan_granularity == "launch"


class TestBuiltinPlans:
    def test_whole_schedule_policies_yield_one_segment(self):
        for name in ("baseline", "rotation", "random"):
            policy = make_policy(name)
            policy.bind(GEOMETRY)
            plans = list(
                policy.plan_segments(
                    ScheduleView((CONFIG_A, CONFIG_B, CONFIG_A)), None
                )
            )
            assert [(p.start, p.stop) for p in plans] == [(0, 3)]
            assert plans[0].pivots.shape == (3, 2)
            assert plans[0].n_launches == 3

    def test_static_remap_segments_break_at_new_configs(self):
        policy = make_policy("static_remap")
        allocator = ConfigurationAllocator(GEOMETRY, policy)
        view = ScheduleView(
            (CONFIG_A, CONFIG_A, CONFIG_B, CONFIG_A, CONFIG_B)
        )
        plans = list(policy.plan_segments(view, allocator.tracker))
        # One epoch per first-seen config: [0, 2) closes when B first
        # appears, then [2, 5) runs to the end (no further new configs).
        assert [(p.start, p.stop) for p in plans] == [(0, 2), (2, 5)]

    def test_stress_aware_segments_align_to_search_interval(self):
        policy = make_policy("stress_aware", interval=4)
        allocator = ConfigurationAllocator(GEOMETRY, policy)
        view = ScheduleView((CONFIG_A,) * 10)
        plans = list(policy.plan_segments(view, allocator.tracker))
        assert [(p.start, p.stop) for p in plans] == [(0, 4), (4, 8), (8, 10)]

    def test_stress_aware_segments_resume_mid_interval(self):
        policy = make_policy("stress_aware", interval=4)
        allocator = ConfigurationAllocator(GEOMETRY, policy)
        allocator.allocate(CONFIG_A)
        allocator.allocate(CONFIG_A)
        plans = list(
            policy.plan_segments(
                ScheduleView((CONFIG_A,) * 6), allocator.tracker
            )
        )
        # Two queued launches consumed the first half of the interval:
        # the first segment only runs to the next search boundary.
        assert [(p.start, p.stop) for p in plans] == [(0, 2), (2, 6)]


class _MisplannedPolicy(AllocationPolicy):
    """Yields whatever segments the test injects."""

    name = "misplanned"

    def __init__(self, plans):
        self._plans = plans

    def plan_segments(self, schedule, tracker):
        yield from self._plans


def _zeros(count):
    return np.zeros((count, 2), dtype=np.int64)


class TestPlanValidation:
    def _allocate(self, plans, sequence=None):
        sequence = sequence or [CONFIG_A] * 4
        allocator = ConfigurationAllocator(
            GEOMETRY, _MisplannedPolicy(plans)
        )
        return allocator, lambda: allocator.allocate_batch(sequence)

    def test_gap_between_segments_rejected(self):
        _, run = self._allocate(
            [SegmentPlan(0, 2, _zeros(2)), SegmentPlan(3, 4, _zeros(1))]
        )
        with pytest.raises(AllocationError, match="out of order"):
            run()

    def test_overlapping_segments_rejected(self):
        _, run = self._allocate(
            [SegmentPlan(0, 3, _zeros(3)), SegmentPlan(2, 4, _zeros(2))]
        )
        with pytest.raises(AllocationError, match="out of order"):
            run()

    def test_overrunning_segment_rejected(self):
        _, run = self._allocate([SegmentPlan(0, 9, _zeros(9))])
        with pytest.raises(AllocationError, match="out of order"):
            run()

    def test_short_coverage_rejected(self):
        _, run = self._allocate([SegmentPlan(0, 2, _zeros(2))])
        with pytest.raises(AllocationError, match="covering only 2 of 4"):
            run()

    def test_bad_pivot_shape_rejected(self):
        _, run = self._allocate([SegmentPlan(0, 4, _zeros(3))])
        with pytest.raises(AllocationError, match="shape"):
            run()

    def test_out_of_range_pivot_rejected(self):
        bad = _zeros(4)
        bad[2] = (ROWS, 0)
        _, run = self._allocate([SegmentPlan(0, 4, bad)])
        with pytest.raises(AllocationError, match="outside"):
            run()

    def test_tracker_consistent_after_bad_plan(self):
        """Segments accepted before the error are recorded; launches
        and the tracker agree."""
        allocator, run = self._allocate(
            [SegmentPlan(0, 2, _zeros(2)), SegmentPlan(3, 4, _zeros(1))]
        )
        with pytest.raises(AllocationError):
            run()
        assert allocator.launches == 2
        assert allocator.tracker.total_executions == 2


def _load_example(name="example_adaptive_policy"):
    path = Path(__file__).parent.parent / "examples" / "adaptive_policy.py"
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def _coolest_corner_per_launch(sequence, epoch):
    """The example policy's rule, one launch at a time: every ``epoch``
    launches re-anchor at the raster pivot whose footprint has the
    lowest total stress (first wins), then hold it."""
    reference = ConfigurationAllocator(GEOMETRY, make_policy("baseline"))
    candidates = [(row, col) for row in range(ROWS) for col in range(COLS)]
    pivot = (0, 0)
    for launch, config in enumerate(sequence):
        if launch % epoch == 0:
            counts = reference.tracker.execution_counts
            totals = [
                sum(
                    int(counts[(r + row) % ROWS, (c + col) % COLS])
                    for r, c in config.cells
                )
                for row, col in candidates
            ]
            pivot = candidates[totals.index(min(totals))]
        reference.allocate_batch([config], pivots=[pivot])
    return reference.tracker


class TestExamplePolicies:
    """examples/adaptive_policy.py's custom policy stays on the
    supported protocol and plans what its per-launch rule says."""

    @pytest.fixture(scope="class")
    def example(self):
        return _load_example()

    def test_demo_replays_the_schedule(self, example):
        tracker = example.demo_custom_policy()
        assert tracker.total_executions > 0
        assert int(tracker.execution_counts.sum()) > tracker.total_executions

    @pytest.mark.parametrize("epoch", [3, 5, 16])
    def test_plans_match_per_launch_rule(self, example, epoch):
        sequence = [CONFIG_A, CONFIG_B, CONFIG_B, CONFIG_A] * 9
        planned = ConfigurationAllocator(
            GEOMETRY, example.CoolestCornerPolicy(epoch=epoch)
        )
        planned.allocate_batch(sequence)
        np.testing.assert_array_equal(
            _coolest_corner_per_launch(sequence, epoch).execution_counts,
            planned.tracker.execution_counts,
        )

    @pytest.mark.parametrize("epoch", [3, 7, 64])
    def test_queued_launches_match_one_replay(self, example, epoch):
        """The coupled walk's way in — queued launches flushed at
        arbitrary reads — plans exactly what one replay plans."""
        from repro.system import SystemParams, replay_schedule, shared_schedule
        from repro.workloads.suite import run_workload

        geometry = FabricGeometry(rows=4, cols=16)
        schedule = shared_schedule(
            SystemParams(geometry=geometry), run_workload("crc32")
        )
        replayed = replay_schedule(
            schedule, geometry, example.CoolestCornerPolicy(epoch=epoch)
        )
        queued = ConfigurationAllocator(
            geometry, example.CoolestCornerPolicy(epoch=epoch)
        )
        for index, (config, cycles) in enumerate(
            zip(schedule.configs, schedule.exec_cycles)
        ):
            queued.allocate(config, cycles=int(cycles))
            if index % 11 == 0:
                queued.tracker  # flush point
        np.testing.assert_array_equal(
            replayed.tracker.execution_counts, queued.tracker.execution_counts
        )
        np.testing.assert_array_equal(
            replayed.tracker.cycle_counts, queued.tracker.cycle_counts
        )

    def test_plans_epoch_segments(self, example):
        policy = example.CoolestCornerPolicy(epoch=4)
        policy.bind(GEOMETRY)
        allocator = ConfigurationAllocator(GEOMETRY, policy)
        plans = list(
            policy.plan_segments(
                ScheduleView((CONFIG_A,) * 10), allocator.tracker
            )
        )
        assert [(p.start, p.stop) for p in plans] == [(0, 4), (4, 8), (8, 10)]
