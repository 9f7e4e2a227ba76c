"""Layer spans recorded from outside the program, and the metrics they give.

:func:`install` wraps the public entry point of every layer the benchmark
breaks a sweep into — each wrapper opens a span (name, start, end, parent)
around the original call and may note a count from its arguments or
result.  Spans stay in memory in the :class:`Tracer` and are written out
once, when the run ends (:meth:`Tracer.write`).  The program's own code is
untouched; a traced run differs from an untraced one only by these
wrappers, so its store records must be byte-identical.

Traced runs execute inline (one process), so every layer call happens in
the process that holds the tracer and spans nest strictly: a span's self
time is its duration minus the durations of its direct children.
"""

from __future__ import annotations

import importlib
import json
import os
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

#: The root span around one workload call; not a layer.
ROOT = "workload"


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    start: float
    end: float = 0.0
    notes: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans in memory; patches and restores the wrapped callables."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._restore: list[tuple[object, str, object]] = []

    def open(self, name: str) -> Span:
        parent = self._stack[-1].id if self._stack else None
        span = Span(len(self.spans), name, parent, time.perf_counter())
        self.spans.append(span)
        self._stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        popped = self._stack.pop()
        if popped is not span:
            raise RuntimeError(f"span {span.name!r} closed out of order")

    @contextmanager
    def span(self, name: str):
        span = self.open(name)
        try:
            yield span
        finally:
            self.close(span)

    def wrap(self, owner, attr: str, name: str, before=None, after=None) -> None:
        """Replace ``owner.attr`` by a span-recording wrapper.

        *before(notes, args)* runs inside the span ahead of the call;
        *after(notes, args, result)* runs once the call returned.
        """
        original = owner.__dict__[attr]
        tracer = self

        def traced(*args, **kwargs):
            with tracer.span(name) as span:
                if before is not None:
                    before(span.notes, args)
                result = original(*args, **kwargs)
                if after is not None:
                    after(span.notes, args, result)
                return result

        traced.__wrapped__ = original
        setattr(owner, attr, traced)
        self._restore.append((owner, attr, original))

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def write(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                record = {"id": s.id, "name": s.name, "parent": s.parent,
                          "start": s.start, "end": s.end, **s.notes}
                fh.write(json.dumps(record, sort_keys=True) + "\n")


# -- the layers ------------------------------------------------------------------


def _file_bytes(path) -> int:
    try:
        return os.path.getsize(path)
    except OSError:
        return 0


def _note_fallback(notes, args, result) -> None:
    notes["fallback"] = result is None


def _note_trace_bytes(notes, args, entry) -> None:
    notes["bytes"] = _file_bytes(entry.get("path", ""))


def _note_captured(notes, args, bundle) -> None:
    notes["accesses"] = bundle.meta["length"] * bundle.meta["num_cores"]


def _note_saved(notes, args, result) -> None:
    notes["bytes"] = _file_bytes(args[1])


def _note_extended(notes, args, result) -> None:
    notes["accesses"] = args[2]


def _runner_before(notes, args) -> None:
    notes["_stats"] = dict(args[0].stats)


def _runner_after(notes, args, result) -> None:
    before = notes.pop("_stats")
    notes["stats"] = {k: v - before.get(k, 0) for k, v in args[0].stats.items()}


def _note_report(notes, args, report) -> None:
    notes["cells"] = len(report.data.cells)


#: (module, owner path within it, span name, before, after) per layer.
LAYERS = (
    ("repro.trace.shared", "SharedTraceStore.materialise", "traces.materialise",
     None, _note_trace_bytes),
    ("repro.cpu.capture", "capture_workload", "capture", None, _note_captured),
    ("repro.runner.replaystore", "save_bundle", "replaystore.save", None, _note_saved),
    ("repro.runner.replaystore", "load_bundle", "replaystore.load", None, None),
    ("repro.cpu.replay", "run_replay", "replay", None, _note_fallback),
    ("repro.cpu.capture", "extend_tape", "replay.extend", None, _note_extended),
    ("repro.cpu.fastpath", "run_fast", "fused", None, _note_fallback),
    ("repro.sim.multi", "run_workload", "multi", None, None),
    ("repro.sim.single", "run_alone", "alone", None, None),
    ("repro.runner.parallel", "ParallelRunner.run", "runner", _runner_before, _runner_after),
    ("repro.runner.store", "ResultStore.put", "store.put", None, None),
    ("repro.runner.store", "ResultStore.get", "store.get", None, None),
    ("repro.report.aggregate", "report_from_store", "report", None, _note_report),
)


def install(tracer: Tracer) -> Tracer:
    """Wrap every layer entry point of :data:`LAYERS`."""
    for module_name, path, name, before, after in LAYERS:
        owner = importlib.import_module(module_name)
        *parents, attr = path.split(".")
        for part in parents:
            owner = getattr(owner, part)
        tracer.wrap(owner, attr, name, before, after)
    return tracer


# -- metrics ---------------------------------------------------------------------

#: Runner counters reported as ``runner.<name>``.
RUNNER_COUNTERS = (
    "executed", "store_hits", "retried", "timeouts", "pool_rebuilds",
    "sticky_hits", "sticky_misses", "bundle_loads",
)

#: Spans whose time is job execution (what a pool worker would spend).
JOB_SPANS = ("multi", "alone", "capture", "replaystore.save")


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer counts and seconds of one traced run.

    Also returns ``job_s`` (summed job execution time) and
    ``tracing.unattributed_s`` (root-span time covered by no layer span);
    the caller turns ``job_s`` into ``runner.worker_util``.
    """
    by_name: dict[str, list[Span]] = defaultdict(list)
    child_s: dict[int, float] = defaultdict(float)
    for s in spans:
        by_name[s.name].append(s)
        if s.parent is not None:
            child_s[s.parent] += s.duration

    def calls(name):
        return len(by_name[name])

    def seconds(name):
        return sum(s.duration for s in by_name[name])

    def self_s(name):
        return sum(s.duration - child_s[s.id] for s in by_name[name])

    def total(name, note):
        return sum(s.notes.get(note, 0) for s in by_name[name])

    captured = total("capture", "accesses")
    m = {
        "traces.materialise.calls": calls("traces.materialise"),
        "traces.materialise.s": seconds("traces.materialise"),
        "traces.bytes": total("traces.materialise", "bytes"),
        "capture.calls": calls("capture"),
        "capture.s": seconds("capture"),
        "capture.accesses": captured,
        "replaystore.save.s": seconds("replaystore.save"),
        "replaystore.load.calls": calls("replaystore.load"),
        "replaystore.load.s": seconds("replaystore.load"),
        "replaystore.bytes": total("replaystore.save", "bytes"),
        "replay.calls": calls("replay"),
        "replay.s": seconds("replay"),
        "replay.self_s": self_s("replay"),
        "replay.fallbacks": total("replay", "fallback"),
        "replay.extend.calls": calls("replay.extend"),
        "replay.extend.s": seconds("replay.extend"),
        "replay.extend_frac": (
            total("replay.extend", "accesses") / captured if captured else 0.0
        ),
        "fused.calls": calls("fused"),
        "fused.s": seconds("fused"),
        "fused.fallbacks": total("fused", "fallback"),
        "multi.calls": calls("multi"),
        "multi.self_s": self_s("multi"),
        "alone.calls": calls("alone"),
        "alone.self_s": self_s("alone"),
        "runner.self_s": self_s("runner"),
        "store.put.calls": calls("store.put"),
        "store.put.s": seconds("store.put"),
        "store.get.calls": calls("store.get"),
        "store.get.s": seconds("store.get"),
        "report.s": seconds("report"),
        "report.cells": total("report", "cells"),
    }
    runner_stats: dict[str, int] = defaultdict(int)
    for s in by_name["runner"]:
        for key, value in s.notes.get("stats", {}).items():
            runner_stats[key] += value
    for key in RUNNER_COUNTERS:
        m[f"runner.{key}"] = runner_stats[key]
    m["job_s"] = sum(seconds(name) for name in JOB_SPANS)
    root_ids = {s.id for s in by_name[ROOT]}
    m["tracing.unattributed_s"] = sum(s.duration for s in by_name[ROOT]) - sum(
        s.duration for s in spans if s.parent in root_ids
    )
    return m
