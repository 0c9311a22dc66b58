"""Fleet evaluation: sharded device expansion over shared replays.

The runner splits a fleet campaign into three phases, each bounded in
memory regardless of fleet size:

* **Phase 1 — stress profiles** (per policy x workload): one
  vectorized replay of the shared launch schedule per (policy,
  workload) yields the per-cell launch-count matrix and launch total.
  Schedules are memoised per process and keyed by
  :func:`~repro.system.schedule.schedule_key`, so a million-device
  fleet walks each trace exactly once.
* **Phase 2 — shard expansion** (per shard): each shard regenerates
  its devices' scenario-drawn mix weights
  (:meth:`~repro.fleet.spec.FleetSpec.device_weights`, sharding-
  independent), combines them with the stress profiles into per-device
  utilization, worst-FU duty cycle and NBTI lifetime — pure vectorized
  numpy on a ``(devices, workloads, cells)`` block — and folds the
  result straight into one compact :class:`ShardRecord` per policy.
  Every shard runs as a task of one
  :class:`~repro.resilience.ResilientExecutor`: inline one shard per
  task, or chunks of shards on a process pool — only records (and the
  worker's telemetry snapshot) cross process boundaries, never
  per-device vectors.
* **Phase 3 — merge**: records (freshly computed + resumed from the
  append-only store) fold into per-policy :class:`FleetAggregate`\\ s
  in sorted shard order — streaming lifetime percentiles, fleet
  survival curves and MTTF deltas, with the same counter/summary merge
  semantics as :meth:`~repro.obs.TelemetrySnapshot.merge`.

Resume: with a ``store_dir``, every completed (policy, shard) record
is appended as one NDJSON line; a re-run loads the intact records,
re-runs only the missing/torn shards, and — because shard expansion is
deterministic — produces bit-identical merged aggregates.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro import obs
from repro.aging.lifetime import device_lifetimes
from repro.aging.nbti import NBTIModel
from repro.campaign.artifacts import write_json
from repro.campaign.spec import system_params
from repro.core.policy import make_policy
from repro.errors import ConfigurationError
from repro.fleet.spec import FleetShard, FleetSpec
from repro.fleet.store import (
    FleetAggregate,
    ResultStore,
    ShardRecord,
    StoreSkips,
    merge_records,
)
from repro.resilience import (
    ResilientExecutor,
    RetryPolicy,
    TaskFailure,
    require_complete,
)
from repro.system.params import SystemParams
from repro.system.schedule import replay_schedule, shared_schedule
from repro.workloads.suite import run_workload

#: Shards per pool task: amortises task dispatch without letting one
#: straggler hold a worker for the whole fleet. Inline tasks hold one
#: shard, so every record reaches the store as soon as it exists.
_SHARDS_PER_TASK = 4


@dataclass(frozen=True)
class StressProfile:
    """Phase 1 output for one policy: per-workload launch-count
    matrices, stacked for the shard expansion.

    Attributes:
        policy: policy label the profile was replayed under.
        exec_counts: ``(n_workloads, n_cells)`` per-cell launch counts.
        totals: ``(n_workloads,)`` total launches per workload.
    """

    policy: str
    exec_counts: np.ndarray
    totals: np.ndarray


def expand_shard(
    spec: FleetSpec,
    shard: FleetShard,
    profiles: dict[str, StressProfile],
    model: NBTIModel,
    fingerprint: str,
) -> list[ShardRecord]:
    """Evaluate one shard's devices under every policy.

    Pure numpy over the shard's device block: per-device utilization is
    the mix-weighted launch-count combination of the policy's
    per-workload stress profiles, normalised by the device's weighted
    launch total (the EXECUTIONS duty-cycle weighting, per device). The
    weighted fold runs as a broadcast ``sum`` over the fixed workload
    axis (not a BLAS matmul), so per-device results are bit-identical
    regardless of shard size — the property resume and the
    sharded-vs-unsharded smoke both rest on.
    """
    weights = spec.device_weights(shard.start, shard.stop)
    records = []
    for policy in spec.policies:
        profile = profiles[policy.label]
        stressed = (weights[:, :, None] * profile.exec_counts[None, :, :]).sum(
            axis=1
        )
        launches = (weights * profile.totals[None, :]).sum(axis=1)
        launches = np.where(launches > 0, launches, 1.0)
        worst = stressed.max(axis=1) / launches
        worst = np.clip(worst, 0.0, 1.0)
        lifetimes = device_lifetimes(model, worst)
        records.append(
            ShardRecord.from_lifetimes(
                fingerprint=fingerprint,
                policy=policy.label,
                shard=shard.index,
                lifetimes=lifetimes,
                worst_utils=worst,
                mission_years=spec.mission_years,
            )
        )
    obs.count("fleet.shards.expanded")
    obs.count("fleet.devices.expanded", shard.n_devices)
    return records


def _expand_shards(
    payload: tuple[
        FleetSpec,
        tuple[FleetShard, ...],
        dict[str, StressProfile],
        NBTIModel,
        str,
    ],
) -> list[ShardRecord]:
    """One executor task: expand its shards (no trace walks, no
    schedule state — just the spec, the stacked profiles and numpy)."""
    spec, shards, profiles, model, fingerprint = payload
    records: list[ShardRecord] = []
    for shard in shards:
        records.extend(expand_shard(spec, shard, profiles, model, fingerprint))
    return records


@dataclass
class FleetResult:
    """Merged outcome of one fleet campaign."""

    spec: FleetSpec
    aggregates: dict[str, FleetAggregate]
    #: Shards evaluated this run vs resumed from the store.
    shards_run: int
    shards_resumed: int
    #: Total store lines skipped while resuming (see ``store_skips``
    #: for the torn/stale/corrupt/foreign breakdown).
    store_lines_skipped: int
    store_skips: StoreSkips = field(default_factory=StoreSkips)
    #: Shard chunks quarantined after exhausting retries; their shards
    #: are absent from the aggregates (graceful degradation).
    failures: tuple[TaskFailure, ...] = ()
    shards_failed: int = 0
    #: store.append I/O errors degraded to in-memory records (merged
    #: aggregates stay correct; only resumability was lost).
    store_append_errors: int = 0

    def require_complete(self) -> "FleetResult":
        """This result, or :class:`~repro.errors.ConfigurationError`
        naming every quarantined shard task when a shard is missing
        from the aggregates."""
        require_complete(f"fleet {self.spec.name!r}", self.failures)
        return self

    def aggregate(self, policy: str) -> FleetAggregate:
        agg = self.aggregates.get(policy)
        if agg is None:
            raise ConfigurationError(
                f"no aggregate for policy {policy!r}; "
                f"available: {sorted(self.aggregates)}"
            )
        return agg

    def mttf_ratio(self, policy: str, baseline: str | None = None) -> float:
        """Fleet MTTF of ``policy`` relative to ``baseline`` (default:
        the spec's first policy) — the paper's Eq. 1 lifetime-
        improvement claim, fleet-expanded."""
        if baseline is None:
            baseline = self.spec.policies[0].label
        return self.aggregate(policy).mttf_years() / self.aggregate(
            baseline
        ).mttf_years()

    def to_jsonable(self) -> dict:
        return {
            "fleet": self.spec.to_jsonable(),
            "fingerprint": self.spec.fingerprint(),
            "shards_run": self.shards_run,
            "shards_resumed": self.shards_resumed,
            "store_lines_skipped": self.store_lines_skipped,
            "store_skips": self.store_skips.to_jsonable(),
            "shards_failed": self.shards_failed,
            "store_append_errors": self.store_append_errors,
            "failures": [failure.to_jsonable() for failure in self.failures],
            "policies": {
                name: aggregate.to_jsonable()
                for name, aggregate in self.aggregates.items()
            },
        }


class FleetRunner:
    """Evaluates :class:`FleetSpec`\\ s.

    Args:
        store_dir: append-only result store directory. When given,
            every completed (policy, shard) record is persisted as one
            NDJSON line and re-runs resume from the intact records;
            ``fleet.json`` (manifest) and ``fleet_summary.json``
            (merged aggregates) are written alongside. ``None`` keeps
            everything in memory (tests, benchmarks).
        max_workers: ``None``/``0``/``1`` expands one shard per task
            inline; ``> 1`` fans shard chunks out over a process pool.
        base_params: timing-parameter overrides for the replay phase
            (geometry and policy come from the spec).
        model: NBTI model for device lifetimes (default calibration:
            +10% delay over 3 years at full stress).
        retry: :class:`~repro.resilience.RetryPolicy` for task
            failures during shard expansion (worker crashes, hangs,
            transient exceptions) before a task is quarantined.
        task_timeout: per-chunk wall-clock budget in seconds for pool
            expansion (``None`` = unbounded).
    """

    def __init__(
        self,
        store_dir: str | Path | None = None,
        max_workers: int | None = None,
        base_params: SystemParams | None = None,
        model: NBTIModel | None = None,
        retry: RetryPolicy | None = None,
        task_timeout: float | None = None,
    ) -> None:
        self.store_dir = Path(store_dir) if store_dir else None
        self.max_workers = max_workers
        self.base_params = base_params
        self.model = model if model is not None else NBTIModel()
        self.retry = retry if retry is not None else RetryPolicy()
        self.task_timeout = task_timeout

    # ------------------------------------------------------------------

    def stress_profiles(self, spec: FleetSpec) -> dict[str, StressProfile]:
        """Phase 1: per-policy stacked stress profiles.

        Policies of one fleet share a single schedule walk per
        workload (they differ only in allocation policy, the exact
        case :func:`~repro.system.schedule.shared_schedule` exists
        for); each (policy, workload) is then one vectorized replay.
        """
        profiles: dict[str, StressProfile] = {}
        for policy in spec.policies:
            params = system_params(spec, policy, self.base_params)
            counts = []
            totals = []
            for workload in spec.workloads:
                with obs.span(
                    "fleet.replay",
                    policy=policy.label,
                    workload=workload,
                ):
                    trace = run_workload(workload)
                    schedule = shared_schedule(params, trace)
                    tracker = replay_schedule(
                        schedule,
                        params.geometry,
                        make_policy(policy.name, **policy.as_kwargs()),
                    ).tracker
                counts.append(tracker.execution_counts.ravel().astype(float))
                totals.append(float(tracker.total_executions))
            profiles[policy.label] = StressProfile(
                policy=policy.label,
                exec_counts=np.stack(counts),
                totals=np.asarray(totals),
            )
        return profiles

    # ------------------------------------------------------------------

    def run(self, spec: FleetSpec) -> FleetResult:
        """Evaluate ``spec``: replay, expand pending shards, merge."""
        fingerprint = spec.fingerprint()
        store = ResultStore(self.store_dir) if self.store_dir else None
        resumed: list[ShardRecord] = []
        skips = StoreSkips()
        if store is not None:
            resumed, skips = store.load(fingerprint)
        done: set[tuple[str, int]] = {
            (record.policy, record.shard) for record in resumed
        }
        labels = [policy.label for policy in spec.policies]
        pending = [
            shard
            for shard in spec.shards()
            if any((label, shard.index) not in done for label in labels)
        ]
        started = time.perf_counter()
        with obs.span(
            "fleet.run",
            fleet=spec.name,
            devices=spec.n_devices,
            shards=len(spec.shards()),
        ):
            profiles = (
                self.stress_profiles(spec) if pending else {}
            )
            fresh, append_errors, failures = self._expand_pending(
                spec, pending, profiles, fingerprint, store, started
            )
        # Deduplicate against resumed records: a shard is re-run when
        # *any* of its per-policy records is missing, so the intact
        # ones are recomputed too (bit-identical) and must not
        # double-count. merge_records keeps the first of each
        # (policy, shard) key; resumed-first preserves store priority.
        aggregates = merge_records(resumed + fresh, spec.mission_years)
        shards_failed = sum(
            len(failure.detail.get("shards", ())) for failure in failures
        )
        result = FleetResult(
            spec=spec,
            aggregates=aggregates,
            shards_run=len(pending),
            shards_resumed=len(spec.shards()) - len(pending),
            store_lines_skipped=skips.total,
            store_skips=skips,
            failures=tuple(failures),
            shards_failed=shards_failed,
            store_append_errors=append_errors,
        )
        if store is not None:
            write_json(store.directory / "fleet.json", spec.to_jsonable())
            write_json(
                store.directory / "fleet_summary.json", result.to_jsonable()
            )
        return result

    def _expand_pending(
        self,
        spec: FleetSpec,
        pending: list[FleetShard],
        profiles: dict[str, StressProfile],
        fingerprint: str,
        store: ResultStore | None,
        started: float,
    ) -> tuple[list[ShardRecord], int, list[TaskFailure]]:
        """Phase 2 over the pending shards as executor tasks; records
        are appended to the store as they arrive (streaming — a kill at
        any point leaves a resumable store). Returns ``(records,
        store_append_errors, failures)``.

        A ``store.append`` I/O failure (full disk, dead mount,
        injected fault) degrades to keeping the record in memory: the
        merged aggregates stay correct, only this run's resumability
        is lost for that record.
        """
        workers = (self.max_workers or 1) if len(pending) > 1 else 1
        per_task = _SHARDS_PER_TASK if workers > 1 else 1
        chunks = [
            tuple(pending[index : index + per_task])
            for index in range(0, len(pending), per_task)
        ]
        payloads = [
            (spec, chunk, profiles, self.model, fingerprint)
            for chunk in chunks
        ]
        keys = [
            f"shards:{chunk[0].index}-{chunk[-1].index}" for chunk in chunks
        ]
        records: list[ShardRecord] = []
        append_errors = 0
        done_shards = 0

        def collect(position: int, batch: list[ShardRecord]) -> None:
            nonlocal append_errors, done_shards
            for record in batch:
                if store is not None:
                    try:
                        store.append(record)
                    except OSError as error:
                        append_errors += 1
                        obs.count("fleet.store.append_errors")
                        if append_errors == 1:
                            obs.log.emit(
                                "fleet.store.append_error",
                                policy=record.policy,
                                shard=record.shard,
                                error=str(error),
                            )
                records.append(record)
            done_shards += len(chunks[position])
            if obs.enabled():
                obs.log.progress(
                    "fleet.shard",
                    done_shards,
                    len(pending),
                    time.perf_counter() - started,
                    fleet=spec.name,
                )

        executor = ResilientExecutor(
            _expand_shards,
            workers,
            retry=self.retry,
            task_timeout=self.task_timeout,
        )
        report = executor.run(payloads, keys=keys, on_result=collect)
        for failure in report.failures:
            failure.detail["shards"] = [
                shard.index for shard in chunks[keys.index(failure.key)]
            ]
        return records, append_errors, report.failures
