"""Run one benchmark workload and print its metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload dse_sweep --seed 0 --seconds 20 --trace 0

With ``--trace 0`` the run times the workload's user-facing entry point
(``repro.obs`` off) in reference seconds (``perfbench/hostspeed.py``)
and reports the end-to-end metrics; with
``--trace 1`` it alternates untraced and traced repetitions and reports
per-layer self times instead, writing the traced spans as Chrome
trace-event JSON under ``perfbench/out/``. Either way every repetition's
simulated outputs are checked, and the last line of standard output is
one JSON object ``{"correct", "attempted", "failed", "metrics"}``.

``--record-digests`` regenerates ``perfbench/digests.json`` after an
intentional model change (see ``perfbench/README.md``).
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

#: Fresh processes timed per run for ``setup_s`` (median reported).
SETUP_PROBES = {"full": 3, "tiny": 1}

#: Untraced repetitions a run makes even when they overrun
#: ``--seconds``, so that ``wall_s`` is a median of several.
MIN_REPETITIONS = {"full": 3, "tiny": 1}

#: Environment switches of the program that must not leak into a
#: measurement (telemetry, fault injection, kernel backend override).
PROGRAM_ENV = ("REPRO_TELEMETRY", "REPRO_FAULTS", "REPRO_KERNEL_BACKEND")

#: Seeds ``--record-digests`` records by default.
REFERENCE_SEEDS = tuple(range(11))


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # ``tiny`` is a seconds-long variant for the benchmark's own tests.
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument(
        "--record-digests",
        action="store_true",
        help="rewrite perfbench/digests.json for the reference seeds",
    )
    return parser.parse_args(argv)


# ----------------------------------------------------------------------
# Set-up


def setup(workload, size: str) -> None:
    """Checksum-verified traces of the workload (memoised per process)."""
    from repro.workloads.suite import run_workload

    for name in workload.trace_names(size):
        run_workload(name)


def probe_setup(name: str, size: str) -> float:
    """Reference seconds (:mod:`perfbench.hostspeed`) from spawning a
    fresh process to the end of its set-up."""
    from perfbench.hostspeed import HostClock

    command = [
        sys.executable, str(HERE / "run.py"), "--setup-probe",
        "--workload", name, "--size", size,
    ]
    with HostClock() as clock, subprocess.Popen(
        command, cwd=ROOT, stdout=subprocess.PIPE, text=True
    ) as process:
        out, _ = process.communicate(timeout=120)
    if process.returncode != 0 or out.strip() != "ready":
        raise RuntimeError(f"set-up probe failed ({process.returncode}): {out!r}")
    return clock.reference_seconds


# ----------------------------------------------------------------------
# Provenance


def provenance(seed: int) -> dict:
    """Host fingerprint, code identity and workload seed of a result."""
    import numpy

    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as handle:
            cpu = next(
                (line.split(":", 1)[1].strip() for line in handle
                 if line.startswith("model name")),
                cpu,
            )
    except OSError:
        pass
    host = {
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }
    sha, dirty = None, None
    if (ROOT / ".git").exists():
        def git(*args):
            return subprocess.run(
                ["git", "-C", str(ROOT), *args],
                capture_output=True, text=True, timeout=30,
            ).stdout.strip()

        sha = git("rev-parse", "HEAD") or None
        dirty = bool(git("status", "--porcelain", "--untracked-files=no"))
    source = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        source.update(path.relative_to(SRC).as_posix().encode())
        source.update(path.read_bytes())
    return {
        "host": host,
        "host_fingerprint": hashlib.sha256(
            json.dumps(host, sort_keys=True).encode()
        ).hexdigest()[:12],
        "git_sha": sha,
        "git_dirty": dirty,
        "source_sha256": source.hexdigest()[:16],
        "seed": seed,
    }


# ----------------------------------------------------------------------
# Measurement


class Checker:
    """Counts operations attempted and failed across repetitions."""

    def __init__(self, workload, inputs, reference) -> None:
        self.workload = workload
        self.inputs = inputs
        self.ops = workload.ops(inputs)
        self.reference = reference
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def check(self, outputs, invariant_failures=None) -> None:
        from perfbench.workloads import failed_ops

        digests = self.workload.digests(self.inputs, outputs)
        if self.reference is None:
            self.reference = digests
        bad = failed_ops(self.ops, digests, self.reference)
        self.problems.extend(f"{op}: output differs from reference" for op in sorted(bad))
        for op, issues in (invariant_failures or {}).items():
            bad.add(op)
            self.problems.extend(f"{op}: {issue}" for issue in issues)
        self.attempted += len(self.ops)
        self.failed += len(bad)

    def raised(self) -> None:
        self.problems.append(traceback.format_exc())
        self.attempted += len(self.ops)
        self.failed += len(self.ops)


def timed_rep(workload, inputs, tracer=None):
    """One repetition from cold schedule caches and a fresh collector
    under the output capture hooks; returns (seconds, host seconds,
    outputs, captured). Untraced, ``seconds`` are reference seconds
    (:mod:`perfbench.hostspeed`); with a tracer both are the host
    seconds of the repetition's root span."""
    from perfbench.hostspeed import HostClock
    from perfbench.layers import ROOT_SPAN
    from perfbench.workloads import capture
    from repro.system.schedule import clear_schedule_caches

    clear_schedule_caches()
    gc.collect()
    if tracer is None:
        clock = HostClock()
        with capture(clock) as captured, clock:
            outputs = workload.run(inputs)
        return clock.reference_seconds, clock.seconds, outputs, captured
    with tracer, capture() as captured:
        root = tracer.open(ROOT_SPAN)
        outputs = workload.run(inputs)
        tracer.close(root)
    duration = tracer.spans[root].duration
    return duration, duration, outputs, captured


def measure(args) -> tuple[dict, dict]:
    """Run the workload; returns (result line, report)."""
    from perfbench import layers
    from perfbench.workloads import WORKLOADS, paper_errors
    from repro import obs
    from repro.workloads.suite import run_workload

    if obs.enabled():
        obs.set_enabled(False)
    workload = WORKLOADS[args.workload]
    tracer = layers.LayerTracer() if args.trace else None
    if tracer is not None:
        # Trace generation is set-up; record it once, traced.
        run_workload.cache_clear()
        with tracer:
            root = tracer.open("setup")
            setup(workload, args.size)
            tracer.close(root)
        setup_spans, setup_counts = tracer.spans, tracer.counts
    else:
        setup(workload, args.size)
        probes = [
            probe_setup(args.workload, args.size)
            for _ in range(SETUP_PROBES[args.size])
        ]

    inputs = workload.inputs(args.seed, args.size)
    checker = Checker(
        workload, inputs, workload.recorded_reference(args.seed, args.size)
    )
    work = None
    walls, host_walls, traced_walls, traced = [], [], [], []
    started = time.perf_counter()
    while True:
        use_tracer = tracer is not None and len(walls) > len(traced_walls)
        try:
            wall, host_wall, outputs, captured = timed_rep(
                workload, inputs, tracer if use_tracer else None
            )
        except Exception:
            checker.raised()
            break
        checker.check(
            outputs, workload.invariant_failures(inputs, outputs, captured)
        )
        if work is None:
            work = workload.work(inputs, outputs, captured)
        del outputs
        if use_tracer:
            traced_walls.append(wall)
            traced.append({
                "self": tracer.self_times(),
                "calls": tracer.calls(),
                "counts": dict(tracer.counts),
                "replay_self": tracer.tagged_self_times("core.replay"),
                "spans": tracer.spans,
            })
        else:
            walls.append(wall)
            host_walls.append(host_wall)
        del captured
        elapsed = time.perf_counter() - started
        done = (
            len(walls) >= MIN_REPETITIONS[args.size]
            if tracer is None
            else walls and traced_walls
        )
        if done and elapsed + host_wall / 2 >= args.seconds:
            break
    if not walls or (tracer is not None and not traced):
        raise RuntimeError("no repetition completed:\n" + "\n".join(checker.problems))

    report = {
        "workload": args.workload,
        "size": args.size,
        "provenance": provenance(args.seed),
        "walls": walls,
        "host_walls": host_walls,
        "traced_walls": traced_walls,
    }
    problems = checker.problems
    if tracer is None:
        wall = statistics.median(walls)
        speedup_err, lifetime_err = paper_errors(args.size)
        metrics = {
            "wall_s": (wall, "s"),
            "setup_s": (statistics.median(probes), "s"),
            "sim_minstr_per_s": (work.instructions / 1e6 / wall, "Minstr/s"),
            "launches_per_s": (work.launches / wall, "1/s"),
            "devices_per_s": (work.devices / wall, "1/s"),
            "peak_rss_mb": (
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"
            ),
            "paper_speedup_err": (speedup_err, "ratio"),
            "paper_lifetime_err": (lifetime_err, "ratio"),
        }
    else:
        metrics, coverage = layer_metrics(
            workload, args.size, setup_spans, setup_counts, traced,
            statistics.median(host_walls), statistics.median(traced_walls),
        )
        report["coverage"] = coverage
        problems = problems + coverage["problems"]
        events = [
            event
            for spans in [setup_spans] + [entry["spans"] for entry in traced]
            for event in layers.chrome_events(spans, os.getpid())
        ]
        OUT.mkdir(exist_ok=True)
        trace_path = OUT / f"{args.workload}-seed{args.seed}.trace.json"
        trace_path.write_text(
            json.dumps({"traceEvents": events, "displayTimeUnit": "ms",
                        "otherData": report["provenance"]}) + "\n"
        )
        report["trace_file"] = str(trace_path.relative_to(ROOT))
    report.update(
        attempted=checker.attempted,
        failed=checker.failed,
        error_rate=checker.failed / checker.attempted,
        problems=problems[:20],
        metrics={
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    )
    line = {
        "correct": checker.failed == 0 and not problems,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": report["metrics"],
    }
    return line, report


def layer_metrics(workload, size, setup_spans, setup_counts, traced, wall, traced_wall):
    """Per-layer metrics of the traced repetitions plus the coverage
    check: every layer named for the workload was called and, at full
    size, the layer it was chosen for has the largest self time."""
    from perfbench.layers import LAYERS, REPLAY_POLICIES, ROOT_SPAN, self_times_of

    def median_of(table, key):
        return statistics.median(entry[table].get(key, 0.0) for entry in traced)

    selfs = {layer: median_of("self", layer) for layer in (ROOT_SPAN, *LAYERS)}
    calls = traced[-1]["calls"]
    counts = traced[-1]["counts"]
    trace_s = self_times_of(setup_spans)["sim.trace"]

    def rate(count, seconds):
        return count / seconds if seconds > 0 else 0.0

    metrics = {
        "sim.trace_s": (trace_s, "s"),
        "sim.trace_minstr_per_s": (
            rate(setup_counts["sim.instructions"] / 1e6, trace_s), "Minstr/s"
        ),
        "system.walk_s": (selfs["system.walk"], "s"),
        "system.walks": (calls["system.walk"], "count"),
        "system.walk_launches_per_s": (
            rate(counts.get("system.walk_launches", 0), selfs["system.walk"]), "1/s"
        ),
        "dbt.translate_s": (selfs["dbt.translate"], "s"),
        "dbt.translations": (calls["dbt.translate"], "count"),
        "dbt.config_cache_hit_ratio": (
            rate(counts.get("dbt.cache_hits", 0), counts.get("dbt.cache_accesses", 0)),
            "ratio",
        ),
        "mapping.greedy_s": (selfs["mapping.greedy"], "s"),
        "mapping.sa_s": (selfs["mapping.sa"], "s"),
        "mapping.sa_units": (calls["mapping.sa"], "count"),
        "mapping.sa_units_per_s": (rate(calls["mapping.sa"], selfs["mapping.sa"]), "1/s"),
        "gpp.reference_s": (selfs["gpp.reference"], "s"),
        "core.replay_s": (selfs["core.replay"], "s"),
        "core.replays": (calls["core.replay"], "count"),
        "core.replay_launches_per_s": (
            rate(counts.get("core.replay_launches", 0), selfs["core.replay"]), "1/s"
        ),
    }
    for policy in REPLAY_POLICIES:
        seconds = median_of("replay_self", policy)
        metrics[f"core.replay_launches_per_s.{policy}"] = (
            rate(counts.get(f"core.replay_launches.{policy}", 0), seconds), "1/s"
        )
    metrics.update({
        "core.allocate_s": (selfs["core.allocate"], "s"),
        "core.allocate_launches_per_s": (
            rate(calls["core.allocate"], selfs["core.allocate"]), "1/s"
        ),
        "frontend.annotate_s": (selfs["frontend.annotate"], "s"),
        "frontend.wrong_path_frac": (
            rate(counts.get("frontend.wrong_path", 0), counts.get("frontend.records", 0)),
            "ratio",
        ),
        "fleet.profiles_s": (selfs["fleet.profiles"], "s"),
        "fleet.expand_s": (selfs["fleet.expand"], "s"),
        "fleet.expand_devices_per_s": (
            rate(counts.get("fleet.devices", 0), selfs["fleet.expand"]), "1/s"
        ),
        "fleet.merge_s": (selfs["fleet.merge"], "s"),
        "aging.lifetime_s": (selfs["aging.lifetime"], "s"),
        "campaign.self_s": (selfs["campaign"], "s"),
        "analysis.render_s": (selfs["analysis.render"], "s"),
        "trace.unattributed_s": (selfs[ROOT_SPAN], "s"),
        "trace.overhead_frac": (traced_wall / wall - 1.0, "ratio"),
    })

    problems = []
    if trace_s <= 0:
        problems.append("layer sim.trace recorded no calls during set-up")
    for layer in workload.layers:
        if layer != "sim.trace" and calls[layer] == 0:
            problems.append(f"layer {layer} recorded no calls on {workload.name}")
    top = sum(selfs[layer] for layer in workload.top_layer)
    rivals = {
        layer: seconds for layer, seconds in selfs.items()
        if layer not in workload.top_layer and layer != ROOT_SPAN
    }
    leader = max(rivals, key=rivals.get)
    if size == "full" and rivals[leader] >= top:
        problems.append(
            f"top self-time layer is {leader} ({rivals[leader]:.3f} s), not "
            f"{'+'.join(workload.top_layer)} ({top:.3f} s)"
        )
    coverage = {
        "calls": calls,
        "top_layer": "+".join(workload.top_layer),
        "top_layer_s": top,
        "problems": problems,
    }
    return metrics, coverage


# ----------------------------------------------------------------------
# Digest recording


def record_digests(seeds=REFERENCE_SEEDS) -> dict:
    """Digests of every seeded workload for ``seeds``; every output
    must first pass the conservation invariants."""
    from perfbench.workloads import DIGESTS_PATH, WORKLOADS, capture
    from repro.system.schedule import clear_schedule_caches

    recorded: dict = {}
    for name, workload in WORKLOADS.items():
        if not workload.seeded:
            continue
        setup(workload, "full")
        for seed in seeds:
            inputs = workload.inputs(seed, "full")
            clear_schedule_caches()
            with capture() as captured:
                outputs = workload.run(inputs)
            problems = workload.invariant_failures(inputs, outputs, captured)
            if problems:
                raise RuntimeError(f"{name} seed {seed}: {problems}")
            recorded.setdefault(name, {})[str(seed)] = workload.digests(inputs, outputs)
            print(f"recorded {name} seed {seed}", file=sys.stderr)
    DIGESTS_PATH.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n")
    return recorded


# ----------------------------------------------------------------------


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro").is_dir():
        print(f"perfbench: no program sources under {SRC}", file=sys.stderr)
        return 2
    for path in (str(ROOT), str(SRC)):
        if path not in sys.path:
            sys.path.insert(0, path)
    from perfbench.workloads import WORKLOADS

    if args.record_digests:
        record_digests()
        return 0
    if args.workload not in WORKLOADS:
        print(
            f"perfbench: unknown workload {args.workload!r}; "
            f"choose from {sorted(WORKLOADS)}",
            file=sys.stderr,
        )
        return 2
    if args.setup_probe:
        setup(WORKLOADS[args.workload], args.size)
        print("ready", flush=True)
        os._exit(0)
    line, report = measure(args)
    for problem in report["problems"]:
        print(f"perfbench: {problem}", file=sys.stderr)
    OUT.mkdir(exist_ok=True)
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(report, indent=1, default=str) + "\n"
    )
    print(f"provenance {json.dumps(report['provenance'], sort_keys=True)}")
    print(f"error_rate {report['error_rate']!r} (failed {report['failed']} "
          f"of {report['attempted']} operations)")
    for name, metric in report["metrics"].items():
        print(f"{name} {metric['value']!r} {metric['unit']}")
    print(json.dumps(line), flush=True)
    return 0


if __name__ == "__main__":
    for variable in PROGRAM_ENV:
        os.environ.pop(variable, None)
    sys.exit(main())
