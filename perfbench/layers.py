"""Per-layer tracing from outside the program.

:class:`LayerTracer` wraps the public entry point of each pipeline
layer for the duration of a ``with`` block and records one span (name,
start, end, parent) per call, kept in memory. A layer's self time is
its spans' durations minus the time their child spans cover. Callers
bind many entry points with ``from x import y``, so a function is
replaced in every loaded ``repro`` module that holds it, and a method
is replaced on its class. Nothing is added inside ``src/``.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from dataclasses import dataclass, field

import numpy as np

from repro.sim.trace import KIND_WRONG_PATH

#: Root span of one traced repetition.
ROOT_SPAN = "workload"

#: Policies whose replay throughput is reported separately.
REPLAY_POLICIES = ("baseline", "rotation", "random", "static_remap", "stress_aware")


def _count_trace(counts, args, result):
    counts["sim.instructions"] += result.trace.n_committed


def _count_walk(counts, args, schedule):
    counts["system.walk_launches"] += schedule.n_launches
    counts["dbt.cache_hits"] += schedule.cache_stats.hits
    counts["dbt.cache_accesses"] += schedule.cache_stats.accesses


def _count_replay(counts, args, allocator):
    counts["core.replay_launches"] += args[0].n_launches
    counts[f"core.replay_launches.{allocator.policy.name}"] += args[0].n_launches
    return allocator.policy.name


def _count_annotate(counts, args, annotated):
    counts["frontend.records"] += len(annotated)
    counts["frontend.wrong_path"] += int(
        np.count_nonzero(annotated.kind_array == KIND_WRONG_PATH)
    )


def _count_expand(counts, args, records):
    counts["fleet.devices"] += args[1].n_devices


def _no_count(counts, args, result):
    return None


#: (layer, module, class or None, attribute, counter) — the public
#: entry point of each layer. The counter adds the call's work to the
#: tracer's counts and may return a tag for the span (the policy of a
#: replay).
ENTRY_POINTS = (
    ("sim.trace", "repro.sim.cpu", "CPU", "run", _count_trace),
    ("system.walk", "repro.system.schedule", None, "compute_schedule", _count_walk),
    ("dbt.translate", "repro.dbt.translator", "DBTEngine", "translate_at", _no_count),
    ("mapping.greedy", "repro.mapping.greedy", "GreedyMapper", "map_unit", _no_count),
    ("mapping.sa", "repro.mapping.annealing", "SimulatedAnnealingMapper", "map_unit",
     _no_count),
    ("gpp.reference", "repro.gpp.timing", "GPPTimingModel", "run", _no_count),
    ("core.replay", "repro.system.schedule", None, "replay_schedule", _count_replay),
    ("core.allocate", "repro.core.allocator", "ConfigurationAllocator", "allocate",
     _no_count),
    ("frontend.annotate", "repro.frontend.speculative", "SpeculativeFrontEnd",
     "annotate", _count_annotate),
    ("fleet.profiles", "repro.fleet.runner", "FleetRunner", "stress_profiles",
     _no_count),
    ("fleet.expand", "repro.fleet.runner", None, "expand_shard", _count_expand),
    ("fleet.merge", "repro.fleet.store", None, "merge_records", _no_count),
    *(
        ("aging.lifetime", "repro.aging.lifetime", None, name, _no_count)
        for name in (
            "device_lifetimes", "survival_counts", "lifetime_years",
            "lifetime_improvement",
        )
    ),
    ("campaign", "repro.campaign.runner", "CampaignRunner", "run", _no_count),
    ("analysis.render", "repro.experiments.fig6", None, "render", _no_count),
)

LAYERS = tuple(dict.fromkeys(entry[0] for entry in ENTRY_POINTS))


class _Counts(dict):
    """Counts that start at zero."""

    def __missing__(self, key):
        return 0


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int = -1
    children: float = 0.0
    tag: str | None = None

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_time(self) -> float:
        return self.duration - self.children


@dataclass
class LayerTracer:
    """Records layer spans while installed: ``with tracer:`` wraps the
    entry points and starts a fresh record; leaving the block restores
    every binding."""

    spans: list[Span] = field(default_factory=list)
    counts: dict = field(default_factory=lambda: _Counts())
    _stack: list[int] = field(default_factory=list)
    _patches: list = field(default_factory=list)

    # -- spans ---------------------------------------------------------

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, time.perf_counter(), parent=parent))
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def close(self, index: int) -> None:
        span = self.spans[index]
        span.end = time.perf_counter()
        self._stack.pop()
        if span.parent >= 0:
            self.spans[span.parent].children += span.duration

    def reset(self) -> None:
        self.spans = []
        self.counts = _Counts()
        self._stack = []

    # -- installation --------------------------------------------------

    def _wrap(self, layer, function, count):
        tracer = self

        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            index = tracer.open(layer)
            try:
                result = function(*args, **kwargs)
            finally:
                tracer.close(index)
            tracer.spans[index].tag = count(tracer.counts, args, result)
            return result

        return wrapper

    def __enter__(self) -> "LayerTracer":
        self.reset()
        for layer, module_name, class_name, attribute, count in ENTRY_POINTS:
            module = importlib.import_module(module_name)
            if class_name is not None:
                owner = getattr(module, class_name)
                original = owner.__dict__[attribute]
                self._patch(owner, attribute, original, self._wrap(layer, original, count))
                continue
            original = getattr(module, attribute)
            wrapper = self._wrap(layer, original, count)
            # Every binding of the function object: the defining module
            # and each ``from x import y`` copy in another module.
            for name, loaded in list(sys.modules.items()):
                if name.startswith("repro") and loaded is not None:
                    for binding, value in list(vars(loaded).items()):
                        if value is original:
                            self._patch(loaded, binding, original, wrapper)
        return self

    def _patch(self, owner, attribute, original, replacement) -> None:
        self._patches.append((owner, attribute, original))
        setattr(owner, attribute, replacement)

    def __exit__(self, *exc) -> None:
        for owner, attribute, original in reversed(self._patches):
            setattr(owner, attribute, original)
        self._patches = []

    # -- reporting -----------------------------------------------------

    def self_times(self) -> dict[str, float]:
        return self_times_of(self.spans)

    def calls(self) -> dict[str, int]:
        """Recorded spans per layer (the coverage check)."""
        totals = dict.fromkeys(LAYERS, 0)
        for span in self.spans:
            if span.name in totals:
                totals[span.name] += 1
        return totals

    def tagged_self_times(self, name: str) -> dict[str, float]:
        """Self seconds of ``name`` spans per tag."""
        totals: dict[str, float] = {}
        for span in self.spans:
            if span.name == name:
                totals[span.tag] = totals.get(span.tag, 0.0) + span.self_time
        return totals


def self_times_of(spans: list[Span]) -> dict[str, float]:
    """Self seconds per span name."""
    totals = dict.fromkeys((ROOT_SPAN, *LAYERS), 0.0)
    for span in spans:
        totals[span.name] = totals.get(span.name, 0.0) + span.self_time
    return totals


def chrome_events(spans: list[Span], pid: int) -> list[dict]:
    """Spans as Chrome trace-event ``X`` records, which Perfetto and
    ``chrome://tracing`` open; timestamps are wall-clock microseconds."""
    offset_us = (time.time() - time.perf_counter()) * 1e6
    return [
        {
            "name": span.name,
            "cat": span.name.split(".", 1)[0],
            "ph": "X",
            "ts": span.start * 1e6 + offset_us,
            "dur": span.duration * 1e6,
            "pid": pid,
            "tid": 0,
            "args": {"self_us": span.self_time * 1e6, "parent": span.parent},
        }
        for span in spans
    ]
