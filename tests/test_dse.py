"""Tests for design-space exploration and Pareto utilities."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.dse.pareto import dominates, pareto_front
from repro.dse.sweep import DSEPoint, run_design_point, sweep
from repro.errors import ConfigurationError
from repro.resilience import FaultPlan, faults
from repro.workloads.suite import run_workload


def point(time, energy, cols=16, rows=2, util=0.3):
    return DSEPoint(
        cols=cols, rows=rows, exec_time_ratio=time, energy_ratio=energy,
        avg_utilization=util, worst_utilization=1.0, speedup=1.0 / time,
    )


class TestPareto:
    def test_dominates(self):
        assert dominates(point(0.4, 0.9), point(0.5, 1.0))
        assert dominates(point(0.4, 1.0), point(0.5, 1.0))
        assert not dominates(point(0.4, 1.1), point(0.5, 1.0))
        assert not dominates(point(0.5, 1.0), point(0.5, 1.0))

    def test_front_excludes_dominated(self):
        good = point(0.4, 0.9)
        bad = point(0.5, 1.0)
        tradeoff = point(0.3, 1.2)
        front = pareto_front([good, bad, tradeoff])
        assert good in front
        assert tradeoff in front
        assert bad not in front

    def test_front_sorted_by_time(self):
        front = pareto_front([point(0.5, 0.8), point(0.3, 1.2)])
        assert front[0].exec_time_ratio <= front[1].exec_time_ratio

    @given(
        times=st.lists(
            st.floats(min_value=0.1, max_value=1.0), min_size=1, max_size=12
        ),
        energies=st.lists(
            st.floats(min_value=0.5, max_value=3.0), min_size=1, max_size=12
        ),
    )
    def test_front_members_mutually_nondominated(self, times, energies):
        points = [point(t, e) for t, e in zip(times, energies)]
        front = pareto_front(points)
        assert front  # never empty for non-empty input
        for a in front:
            for b in front:
                if a is not b:
                    assert not dominates(a, b)


class TestSweep:
    @pytest.fixture(scope="class")
    def mini_traces(self):
        return {name: run_workload(name) for name in ("bitcount", "sha")}

    def test_design_point_fields(self, mini_traces):
        dse_point = run_design_point(mini_traces, cols=16, rows=2)
        assert dse_point.label == "(L16, W2)"
        assert 0 < dse_point.exec_time_ratio < 1.5
        assert dse_point.speedup == pytest.approx(
            1.0 / dse_point.exec_time_ratio
        )
        assert 0 < dse_point.avg_utilization <= 1.0
        assert dse_point.worst_utilization >= dse_point.avg_utilization

    def test_sweep_covers_grid(self, mini_traces):
        points = sweep(mini_traces, lengths=(8, 16), widths=(2, 4))
        assert len(points) == 4
        shapes = {(p.cols, p.rows) for p in points}
        assert shapes == {(8, 2), (8, 4), (16, 2), (16, 4)}

    def test_wider_fabric_lower_occupation(self, mini_traces):
        narrow = run_design_point(mini_traces, cols=16, rows=2)
        wide = run_design_point(mini_traces, cols=16, rows=8)
        assert wide.avg_utilization < narrow.avg_utilization

    def test_sweep_refuses_a_grid_with_a_quarantined_point(self, mini_traces):
        """A point that cannot be evaluated raises, naming its task,
        instead of leaving a hole in the grid."""
        faults.activate(
            FaultPlan.single(
                "task.error", match="point:1:", times=None, max_attempt=None
            )
        )
        try:
            with pytest.raises(
                ConfigurationError,
                match=r"'point:1:L16xW2.*InjectedFaultError: injected task error",
            ):
                sweep(mini_traces, lengths=(8, 16), widths=(2,))
        finally:
            faults.deactivate()

    def test_policy_does_not_change_performance(self, mini_traces):
        baseline = run_design_point(mini_traces, cols=16, rows=2)
        rotated = run_design_point(
            mini_traces, cols=16, rows=2, policy="rotation"
        )
        assert rotated.exec_time_ratio == pytest.approx(
            baseline.exec_time_ratio
        )
        assert rotated.worst_utilization < baseline.worst_utilization
