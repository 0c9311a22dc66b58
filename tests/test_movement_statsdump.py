"""Tests for the movement renderer, stats dump and workloads CLI."""

import pytest

from repro.analysis.movement import (
    render_movement_sequence,
    render_placement,
    wrap_demonstration,
)
from repro.cgra.fabric import FabricGeometry
from repro.core.allocator import ConfigurationAllocator
from repro.core.policy import make_policy
from repro.system.params import SystemParams
from repro.system.statsdump import dump_stats, stats_lines
from repro.system.transrec import TransRecSystem
from repro.workloads.suite import run_workload

from tests.test_core_allocator import config


@pytest.fixture
def geometry():
    return FabricGeometry(rows=2, cols=4)


class TestMovementRendering:
    def test_placement_frame(self, geometry):
        allocator = ConfigurationAllocator(
            geometry, make_policy("baseline")
        )
        batch = allocator.allocate_batch([config([(0, 0), (1, 1)], 2, 4)])
        placement = batch.placement(0)
        frame = render_placement(geometry, placement, launch_index=0)
        assert "launch 0" in frame
        assert "P" in frame       # pivot marker
        assert "#" in frame       # second occupied cell
        lines = frame.splitlines()
        assert lines[1].startswith("R2")
        assert lines[2].startswith("R1")

    def test_sequence_advances_pivot(self, geometry):
        allocator = ConfigurationAllocator(
            geometry, make_policy("rotation")
        )
        frames = render_movement_sequence(
            geometry, config([(0, 0)], 2, 4), allocator, launches=3
        )
        assert frames.count("launch") == 3
        # Snake rotation: consecutive frames name consecutive pivots.
        assert "pivot=(R1, C1)" in frames
        assert "pivot=(R1, C2)" in frames
        assert "pivot=(R1, C3)" in frames

    def test_wrap_demonstration_wraps(self, geometry):
        text = wrap_demonstration(geometry)
        assert "wrap-around" in text
        # The far-corner pivot is marked and cells appear on row 1 and
        # column 1 (the folded-back part).
        assert "P" in text
        grid_lines = [l for l in text.splitlines() if l.startswith("R")]
        r1 = grid_lines[-1]
        assert "#" in r1 or "P" in r1


class TestStatsDump:
    @pytest.fixture(scope="class")
    def result(self):
        system = TransRecSystem(
            SystemParams(geometry=FabricGeometry(rows=2, cols=16))
        )
        return system.run_trace(run_workload("bitcount"))

    def test_all_keys_present(self, result):
        keys = {key for key, _, _ in stats_lines(result)}
        for expected in (
            "sim.instructions", "gpp.cycles", "transrec.speedup",
            "cgra.launches", "cfgcache.hits", "util.worst",
            "energy.ratio",
        ):
            assert expected in keys

    def test_values_consistent(self, result):
        values = {key: value for key, value, _ in stats_lines(result)}
        assert values["sim.instructions"] == result.instructions
        assert values["transrec.speedup"] == pytest.approx(
            result.speedup, abs=1e-3
        )

    def test_dump_format(self, result):
        text = dump_stats(result)
        assert text.startswith("---------- begin stats")
        assert text.rstrip().endswith("---------- end stats ----------")
        assert "# committed instructions" in text


class TestWorkloadsCLI:
    def test_verify_one(self, capsys):
        from repro.workloads.__main__ import main

        assert main(["bitcount"]) == 0
        assert "verified" in capsys.readouterr().out

    def test_unknown_rejected(self, capsys):
        from repro.workloads.__main__ import main

        assert main(["linpack"]) == 1
        assert "unknown" in capsys.readouterr().out
