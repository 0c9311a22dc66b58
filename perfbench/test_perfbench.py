"""Tests of the benchmark itself, on tiny inputs.

Run with ``PYTHONPATH=src python -m pytest perfbench -q``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

from perfbench import hostspeed, run
from perfbench.layers import LayerTracer
from perfbench.workloads import WORKLOADS, WHOLE, capture

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def _result_line(capsys, *argv) -> dict:
    assert run.main(list(argv)) == 0
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_tiny_run_prints_the_declared_metrics(workload, capsys):
    for trace, declared in ((0, "end_to_end"), (1, "per_layer")):
        line = _result_line(
            capsys, "--workload", workload, "--seed", "5", "--seconds", "0.1",
            "--trace", str(trace), "--size", "tiny",
        )
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert line["correct"] and line["failed"] == 0 and line["attempted"] >= 1
        names = {metric["name"]: metric["unit"] for metric in BENCHMARK[declared]}
        assert {name: m["unit"] for name, m in line["metrics"].items()} == names


def test_declared_workloads_match():
    assert [entry["name"] for entry in BENCHMARK["workloads"]] == list(WORKLOADS)


def test_corrupted_reference_digest_makes_error_rate_nonzero():
    workload = WORKLOADS["policy_sweep"]
    run.setup(workload, "tiny")
    inputs = workload.inputs(0, "tiny")
    outputs = workload.run(inputs)
    reference = workload.digests(inputs, outputs)

    clean = run.Checker(workload, inputs, dict(reference))
    clean.check(outputs)
    assert clean.failed == 0

    corrupted = dict(reference)
    op = next(key for key in corrupted if key != WHOLE)
    corrupted[op] = "0" * 16
    checker = run.Checker(workload, inputs, corrupted)
    checker.check(outputs)
    assert checker.failed == 1
    assert checker.failed / checker.attempted > 0


def test_fleet_digest_mismatch_fails_every_shard():
    workload = WORKLOADS["fleet_mttf"]
    run.setup(workload, "tiny")
    inputs = workload.inputs(0, "tiny")
    outputs = workload.run(inputs)
    reference = dict(workload.digests(inputs, outputs), **{WHOLE: "0" * 16})
    checker = run.Checker(workload, inputs, reference)
    checker.check(outputs)
    assert checker.failed == checker.attempted == len(inputs.shards())


def test_invariants_catch_a_broken_tracker():
    workload = WORKLOADS["wear_aware_spec"]
    run.setup(workload, "tiny")
    inputs = workload.inputs(0, "tiny")
    with capture() as captured:
        outputs = workload.run(inputs)
    assert workload.invariant_failures(inputs, outputs, captured) == {}
    point, suite_run = captured.suite_runs[0]
    result = next(iter(suite_run.results.values()))
    result.tracker._execution_counts[0, 0] += 1
    failures = workload.invariant_failures(inputs, outputs, captured)
    assert list(failures) == [point.key]


def test_recorded_digests_cover_every_operation():
    for name, workload in WORKLOADS.items():
        if not workload.seeded:
            continue
        reference = workload.recorded_reference(0, "full")
        assert reference is not None, name
        ops = set(workload.ops(workload.inputs(0, "full")))
        assert WHOLE in reference or ops <= set(reference)


def test_host_clock_scales_work_by_the_calibration(monkeypatch):
    passes = iter([2.0, 4.0, 4.0])
    monkeypatch.setattr(hostspeed, "calibrate", lambda: hostspeed.REFERENCE_S * next(passes))
    monkeypatch.setattr(hostspeed, "INTERVAL_S", 0.0)
    ticks = iter([10.0, 11.0, 12.0, 15.0])
    monkeypatch.setattr(hostspeed, "time", SimpleNamespace(perf_counter=lambda: next(ticks)))
    with hostspeed.HostClock() as clock:
        clock.mark()
    # 1 s of work at 3x the reference pass time, then 3 s at 4x.
    assert clock.seconds == 4.0
    assert clock.reference_seconds == pytest.approx(1 / 3 + 3 / 4)
    assert clock.calibrations == 2


def test_tracer_restores_every_binding():
    import repro.system.schedule as schedule
    import repro.system.transrec as transrec
    from repro.sim.cpu import CPU

    before = (schedule.compute_schedule, transrec.compute_schedule, CPU.__dict__["run"])
    with LayerTracer():
        assert transrec.compute_schedule is not before[1]
        assert schedule.compute_schedule is transrec.compute_schedule
    assert (
        schedule.compute_schedule, transrec.compute_schedule, CPU.__dict__["run"]
    ) == before


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        ROOT / "perfbench", tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("out", "__pycache__"),
    )
    completed = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "dse_sweep",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert completed.returncode != 0
    assert "metrics" not in completed.stdout
