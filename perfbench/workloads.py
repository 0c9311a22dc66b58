"""The benchmark's workloads: seeded inputs, the timed entry point, and
the checks that the simulated outputs are right.

Every workload runs one user-facing entry point of the reproduction
serially in this process (``max_workers=None``): the Fig. 6 geometry
sweep, a Table I-style policy campaign, a fleet campaign, and a
wear-aware campaign with a speculative front end. The program receives
only the specs built here from the workload seed.

Outputs are checked per *operation* (a campaign design point, or a
fleet shard):

* ``dse_sweep`` must render ``tests/golden/fig6.stdout.txt`` exactly.
* The other workloads hash their simulated results (per-point
  ``transrec_cycles``, tracker matrices and lifetimes; the fleet's
  merged aggregates) and compare the hashes with ``digests.json``,
  recorded for a few reference seeds. Seeds without a recording are
  checked against seed-independent invariants instead, and later
  repetitions must repeat the first one's hashes.
"""

from __future__ import annotations

import hashlib
import json
import math
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import repro.campaign.runner as campaign_runner
import repro.fleet.runner as fleet_runner
from repro.aging.lifetime import lifetime_improvement, lifetime_years
from repro.aging.nbti import NBTIModel
from repro.campaign import CampaignRunner, CampaignSpec, MapperSpec, PolicySpec
from repro.core.utilization import Weighting
from repro.experiments import fig6, table1
from repro.fleet import FleetRunner, FleetSpec
from repro.frontend import FrontEndSpec
from repro.system.scenarios import SCENARIOS
from repro.system.transrec import TransRecSystem
from repro.workloads.suite import workload_names

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DIGESTS_PATH = HERE / "digests.json"
GOLDEN_FIG6 = ROOT / "tests" / "golden" / "fig6.stdout.txt"

#: Digest key that stands for the whole output rather than one
#: operation; a mismatch there fails every operation.
WHOLE = "_whole"

#: Suite subset of the mapping ablation (the SA mapper is slow).
MAPPING_SUBSET = ("bitcount", "crc32", "sha", "susan_corners")

_MODEL = NBTIModel()


@dataclass
class Captured:
    """What a repetition records next to its outputs for the checks:
    every evaluated design point and the launch schedule behind each
    per-workload result (campaigns), and every replay (fleet)."""

    suite_runs: list = field(default_factory=list)
    schedule_of: dict = field(default_factory=dict)
    replays: list = field(default_factory=list)


def _no_mark() -> None:
    return None


@contextmanager
def capture(clock=None):
    """Record design points, schedules and replays while the block
    runs, by wrapping the bindings the runners call. Each hook costs
    one list or dict insert per call. With a
    :class:`~perfbench.hostspeed.HostClock`, every hooked call (and
    every fleet shard) also marks a boundary where it may calibrate."""
    captured = Captured()
    mark = _no_mark if clock is None else clock.mark
    evaluate = campaign_runner.evaluate_design_point
    assemble = TransRecSystem._assemble
    replay = fleet_runner.replay_schedule
    expand = fleet_runner.expand_shard

    def evaluate_hook(point, *args, **kwargs):
        run = evaluate(point, *args, **kwargs)
        mark()
        captured.suite_runs.append((point, run))
        return run

    def assemble_hook(self, schedule, allocator, trace):
        result = assemble(self, schedule, allocator, trace)
        mark()
        captured.schedule_of[id(result)] = (schedule, result)
        return result

    def replay_hook(schedule, geometry, policy):
        allocator = replay(schedule, geometry, policy)
        mark()
        captured.replays.append((schedule, allocator))
        return allocator

    def expand_hook(*args, **kwargs):
        records = expand(*args, **kwargs)
        mark()
        return records

    hooks = (
        (campaign_runner, "evaluate_design_point", evaluate, evaluate_hook),
        (TransRecSystem, "_assemble", assemble, assemble_hook),
        (fleet_runner, "replay_schedule", replay, replay_hook),
        (fleet_runner, "expand_shard", expand, expand_hook),
    )
    for owner, name, _, hook in hooks:
        setattr(owner, name, hook)
    try:
        yield captured
    finally:
        for owner, name, original, _ in hooks:
            setattr(owner, name, original)


@dataclass(frozen=True)
class Work:
    """Simulated work of one repetition (identical on every one)."""

    instructions: int
    launches: int
    devices: int


def _derived_seeds(seed: int, salt: int, count: int) -> tuple[int, ...]:
    rng = np.random.default_rng([seed, salt])
    return tuple(int(value) for value in rng.choice(1 << 16, count, replace=False))


def _schedule_failures(schedule, tracker, launches: int) -> list[str]:
    """Conservation checks between a launch schedule and the tracker
    its replay (or coupled walk) filled."""
    problems = []
    if not tracker.total_executions == schedule.n_launches == launches:
        problems.append(
            f"{schedule.trace_name}: launches {launches}, tracker "
            f"{tracker.total_executions}, schedule {schedule.n_launches}"
        )
    cells = sum(len(config.cells) for config in schedule.configs)
    if int(tracker.execution_counts.sum()) != cells:
        problems.append(
            f"{schedule.trace_name}: tracker executions "
            f"{int(tracker.execution_counts.sum())} != launched cells {cells}"
        )
    return problems


def _suite_run_digest(run) -> str:
    hasher = hashlib.sha256()
    for name, result in run.results.items():
        hasher.update(f"{name}:{result.transrec_cycles};".encode())
        for matrix in (result.tracker.execution_counts, result.tracker.cycle_counts):
            hasher.update(np.ascontiguousarray(matrix, dtype="<i8").tobytes())
    lifetime = lifetime_years(_MODEL, run.max_utilization(Weighting.EXECUTIONS))
    hasher.update(repr(lifetime).encode())
    return hasher.hexdigest()[:16]


class Workload:
    """One benchmark workload. Subclasses define the inputs, the
    entry point and what its outputs digest to."""

    name = ""
    why = ""
    #: Layers the traced run must see called on this workload.
    layers: tuple[str, ...] = ()
    #: Layers whose summed self time must be the workload's largest.
    top_layer: tuple[str, ...] = ()
    #: Whether the inputs depend on the seed (and digests are recorded).
    seeded = True

    def trace_names(self, size: str) -> tuple[str, ...]:
        raise NotImplementedError

    def inputs(self, seed: int, size: str):
        raise NotImplementedError

    def run(self, inputs):
        raise NotImplementedError

    def ops(self, inputs) -> tuple[str, ...]:
        raise NotImplementedError

    def digests(self, inputs, outputs) -> dict[str, str]:
        raise NotImplementedError

    def invariant_failures(self, inputs, outputs, captured) -> dict[str, list[str]]:
        raise NotImplementedError

    def work(self, inputs, outputs, captured) -> Work:
        raise NotImplementedError

    def recorded_reference(self, seed: int, size: str) -> dict[str, str] | None:
        """Digests recorded for ``seed`` (``None`` when there are none)."""
        if size != "full" or not DIGESTS_PATH.is_file():
            return None
        recorded = json.loads(DIGESTS_PATH.read_text())
        return recorded.get(self.name, {}).get(str(seed))


def failed_ops(ops, digests: dict[str, str], reference: dict[str, str]) -> set[str]:
    """Operations whose digest differs from the reference (all of them
    when the whole-output digest differs)."""
    if digests.get(WHOLE) != reference.get(WHOLE):
        return set(ops)
    return {op for op in ops if digests.get(op) != reference.get(op)}


class CampaignWorkload(Workload):
    """A :class:`~repro.campaign.CampaignRunner` campaign."""

    def run(self, inputs):
        return CampaignRunner().run(inputs)

    def ops(self, inputs) -> tuple[str, ...]:
        return tuple(point.key for point in inputs.design_points())

    def op_of(self, point) -> str:
        return point.key

    def digests(self, inputs, outputs) -> dict[str, str]:
        return {point.key: _suite_run_digest(run) for point, run in outputs.runs.items()}

    def invariant_failures(self, inputs, outputs, captured) -> dict[str, list[str]]:
        problems: dict[str, list[str]] = {}
        seen = set()
        for point, run in captured.suite_runs:
            op = self.op_of(point)
            seen.add(op)
            for result in run.results.values():
                entry = captured.schedule_of.get(id(result))
                if entry is None:
                    issues = [f"{result.name}: no schedule recorded"]
                else:
                    issues = _schedule_failures(
                        entry[0], result.tracker, result.cgra.launches
                    )
                if issues:
                    problems.setdefault(op, []).extend(issues)
        for op in set(self.ops(inputs)) - seen:
            problems.setdefault(op, []).append("design point not evaluated")
        return problems

    def work(self, inputs, outputs, captured) -> Work:
        results = [
            result for _, run in captured.suite_runs for result in run.results.values()
        ]
        return Work(
            instructions=sum(result.instructions for result in results),
            launches=sum(result.cgra.launches for result in results),
            devices=len(captured.suite_runs),
        )


class DSESweep(CampaignWorkload):
    name = "dse_sweep"
    why = (
        "walk-bound Fig. 6 geometry sweep (12 fabrics x 10 workloads, "
        "baseline policy): a walk/DBT change shows here, a replay change does not"
    )
    layers = (
        "sim.trace", "system.walk", "dbt.translate", "mapping.greedy",
        "gpp.reference", "core.replay", "campaign", "analysis.render",
    )
    top_layer = ("system.walk", "dbt.translate")
    seeded = False

    def trace_names(self, size):
        return workload_names()

    def inputs(self, seed, size):
        # The paper's sweep has no random element: every seed gives the
        # same geometries, and the output must equal the golden table.
        if size == "tiny":
            return ((8,), (2,))
        return (fig6.DEFAULT_LENGTHS, fig6.DEFAULT_WIDTHS)

    def run(self, inputs):
        lengths, widths = inputs
        result = fig6.run(lengths=lengths, widths=widths)
        return result, fig6.render(result)

    def ops(self, inputs):
        lengths, widths = inputs
        return tuple(f"(L{length}, W{width})" for length in lengths for width in widths)

    def op_of(self, point):
        return f"(L{point.cols}, W{point.rows})"

    def digests(self, inputs, outputs):
        return self.text_digests(self.ops(inputs), outputs[1])

    @staticmethod
    def text_digests(labels, text: str) -> dict[str, str]:
        """One entry per design-point row of the sweep table, plus the
        rest of the text (headers and the named-scenario table)."""
        rows = {}
        rest = []
        for line in text.splitlines():
            label = line.split(" |", 1)[0].strip()
            if label in labels and label not in rows:
                rows[label] = line
            else:
                rest.append(line)
        rows[WHOLE] = "\n".join(rest)
        return rows

    def recorded_reference(self, seed, size):
        if size != "full":
            return None
        golden = GOLDEN_FIG6.read_text().rstrip("\n")
        return self.text_digests(self.ops(self.inputs(seed, size)), golden)


class PolicySweep(CampaignWorkload):
    name = "policy_sweep"
    why = (
        "replay-bound Table I campaign (3 fabrics x 14 policies, shared "
        "schedules): 30 walks against 420 allocate_batch replays"
    )
    layers = (
        "sim.trace", "system.walk", "dbt.translate", "mapping.greedy",
        "gpp.reference", "core.replay", "campaign",
    )
    top_layer = ("core.replay",)

    def trace_names(self, size):
        return workload_names()[:2] if size == "tiny" else workload_names()

    def inputs(self, seed, size):
        policies = (
            PolicySpec.make("baseline"),
            PolicySpec.make("rotation"),
            PolicySpec.make("static_remap"),
            PolicySpec.make("stress_aware", interval=4),
            PolicySpec.make("stress_aware", interval=16),
            PolicySpec.make("stress_aware", interval=64),
            PolicySpec.make("random"),
        )
        geometries = tuple(
            (SCENARIOS[name].rows, SCENARIOS[name].cols) for name in ("BE", "BP", "BU")
        )
        if size == "tiny":
            return CampaignSpec(
                geometries=geometries[:1],
                policies=policies,
                workloads=self.trace_names(size),
                seeds=_derived_seeds(seed, 1, 2),
                name="perfbench-policy-sweep",
            )
        return CampaignSpec(
            geometries=geometries,
            policies=policies,
            seeds=_derived_seeds(seed, 1, 8),
            name="perfbench-policy-sweep",
        )


class WearAwareSpec(CampaignWorkload):
    name = "wear_aware_spec"
    why = (
        "stress-coupled SA mapper x speculative front end: coupled walk, "
        "scalar allocate and the wrong-path fetch stream"
    )
    layers = (
        "sim.trace", "system.walk", "dbt.translate", "mapping.sa",
        "gpp.reference", "core.allocate", "frontend.annotate", "campaign",
    )
    top_layer = ("mapping.sa",)

    def trace_names(self, size):
        return MAPPING_SUBSET[:1] if size == "tiny" else MAPPING_SUBSET

    def inputs(self, seed, size):
        sa_seed, frontend_seed = _derived_seeds(seed, 2, 2)
        return CampaignSpec(
            geometries=((SCENARIOS["BE"].rows, SCENARIOS["BE"].cols),),
            policies=(
                PolicySpec.make("baseline"),
                PolicySpec.make("stress_aware", interval=8),
            ),
            mappers=(MapperSpec.make("annealing", seed=sa_seed),),
            frontends=(
                None,
                FrontEndSpec.make("gshare", interrupt_rate=5e-4, seed=frontend_seed),
            ),
            workloads=self.trace_names(size),
            name="perfbench-wear-aware-spec",
        )


class FleetMTTF(Workload):
    name = "fleet_mttf"
    why = (
        "fleet/aging-bound: 2M devices on 4x8 under crypto_gateway traffic; "
        "walk and replay are <10%, so walk and allocation changes show nothing"
    )
    layers = (
        "sim.trace", "system.walk", "dbt.translate", "mapping.greedy",
        "core.replay", "fleet.profiles", "fleet.expand", "fleet.merge",
        "aging.lifetime",
    )
    top_layer = ("fleet.expand",)

    def trace_names(self, size):
        return self.inputs(0, size).workloads

    def inputs(self, seed, size):
        return FleetSpec(
            name="perfbench-fleet",
            rows=4,
            cols=8,
            policies=(
                PolicySpec.make("baseline"),
                PolicySpec.make("rotation"),
                PolicySpec.make("stress_aware"),
            ),
            scenario="crypto_gateway",
            n_devices=8192 if size == "tiny" else 1 << 21,
            devices_per_shard=4096,
            seed=seed,
        )

    def run(self, inputs):
        return FleetRunner().run(inputs)

    def ops(self, inputs):
        return tuple(f"shard{shard.index}" for shard in inputs.shards())

    def digests(self, inputs, outputs):
        hasher = hashlib.sha256()
        for name in sorted(outputs.aggregates):
            aggregate = outputs.aggregates[name]
            hasher.update(json.dumps(aggregate.to_jsonable(), sort_keys=True).encode())
            hasher.update(np.ascontiguousarray(aggregate.hist, dtype="<i8").tobytes())
            hasher.update(np.ascontiguousarray(aggregate.survival, dtype="<i8").tobytes())
        digests = {WHOLE: hasher.hexdigest()[:16]}
        for name, aggregate in outputs.aggregates.items():
            for index in set(range(len(inputs.shards()))) - set(aggregate.shards):
                digests[f"shard{index}"] = f"missing from {name}"
        return digests

    def invariant_failures(self, inputs, outputs, captured):
        problems = []
        labels = [policy.label for policy in inputs.policies]
        if sorted(outputs.aggregates) != sorted(labels):
            problems.append(f"aggregates {sorted(outputs.aggregates)} != {labels}")
        for name, aggregate in outputs.aggregates.items():
            mass = int(aggregate.hist.sum()) + aggregate.n_infinite
            if not mass == aggregate.n_devices == inputs.n_devices:
                problems.append(
                    f"{name}: histogram mass {mass}, devices "
                    f"{aggregate.n_devices}, fleet {inputs.n_devices}"
                )
            survival = np.asarray(aggregate.survival)
            if np.any(np.diff(survival) > 0) or np.any(survival > aggregate.n_devices):
                problems.append(f"{name}: survival counts {survival.tolist()} increase")
        if len(captured.replays) != len(labels) * len(inputs.workloads):
            problems.append(f"{len(captured.replays)} replays recorded")
        for schedule, allocator in captured.replays:
            problems.extend(
                _schedule_failures(schedule, allocator.tracker, schedule.n_launches)
            )
        return {op: problems for op in self.ops(inputs)} if problems else {}

    def work(self, inputs, outputs, captured):
        return Work(
            instructions=sum(schedule.instructions for schedule, _ in captured.replays),
            launches=sum(schedule.n_launches for schedule, _ in captured.replays),
            devices=inputs.n_devices,
        )


WORKLOADS: dict[str, Workload] = {
    workload.name: workload
    for workload in (DSESweep(), PolicySweep(), FleetMTTF(), WearAwareSpec())
}


def paper_errors(size: str) -> tuple[float, float]:
    """Model accuracy against the paper: the mean relative error of the
    BE/BP/BU speedups (Fig. 6) and of their rotation-vs-baseline
    lifetime improvements (Table I). Deterministic; it moves only when
    the model does."""
    names = ("BE",) if size == "tiny" else ("BE", "BP", "BU")
    shapes = {(SCENARIOS[name].rows, SCENARIOS[name].cols): name for name in names}
    spec = CampaignSpec(
        geometries=tuple(shapes),
        policies=(PolicySpec.make("baseline"), PolicySpec.make("rotation")),
        workloads=workload_names()[:2] if size == "tiny" else (),
        name="perfbench-paper-accuracy",
    )
    runs = {
        (shapes[(point.rows, point.cols)], point.policy.name): run
        for point, run in CampaignRunner().run(spec).runs.items()
    }
    speedup_errors = []
    lifetime_errors = []
    for name in names:
        baseline = runs[(name, "baseline")]
        ratios = [result.exec_time_ratio for result in baseline.results.values()]
        speedup = 1.0 / math.exp(sum(math.log(ratio) for ratio in ratios) / len(ratios))
        speedup_errors.append(abs(speedup / fig6.PAPER_SCENARIOS[name][0] - 1.0))
        improvement = lifetime_improvement(
            _MODEL,
            baseline.max_utilization(Weighting.EXECUTIONS),
            runs[(name, "rotation")].max_utilization(Weighting.EXECUTIONS),
        )
        lifetime_errors.append(abs(improvement / table1.PAPER_ROWS[name][3] - 1.0))
    return (
        sum(speedup_errors) / len(speedup_errors),
        sum(lifetime_errors) / len(lifetime_errors),
    )
