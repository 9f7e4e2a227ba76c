"""The benchmark's own checks: its gates trip, and tracing moves no result.

Workloads run here inline on miniature budgets, so the whole file takes
seconds; the full-size identity is checked by every benchmark run.
"""

import contextlib
import json
import os

import pytest

import gates
import run
import spans
import workloads
from repro.experiments.common import ExperimentSettings

TINY = ExperimentSettings(
    quota=2_000,
    warmup=500,
    alone_quota=2_000,
    alone_warmup=500,
    workloads={4: 1, 8: 1, 16: 1, 20: 1, 24: 1},
)


def _run(name, root, *, traced=False):
    tracer = spans.install(spans.Tracer()) if traced else None
    try:
        with tracer.span(spans.ROOT) if tracer else contextlib.nullcontext():
            outcome = workloads.WORKLOADS[name](0, root, 1, settings=TINY)
    finally:
        if tracer is not None:
            tracer.uninstall()
    return outcome, gates.scan_store(root), tracer


@pytest.mark.parametrize("name", ["sweep4", "alone1"])
def test_tracing_moves_no_result(tmp_path, name):
    plain, plain_scan, _ = _run(name, tmp_path / "plain")
    traced, traced_scan, tracer = _run(name, tmp_path / "traced", traced=True)
    assert plain_scan["records"] and plain_scan["records"] == traced_scan["records"]
    assert plain.report == traced.report

    layers = spans.layer_metrics(tracer.spans)
    assert layers["runner.executed"] == traced.executed == len(traced_scan["records"])
    assert layers["runner.store_hits"] == 0
    assert layers["store.put.calls"] == traced.executed
    assert 0 <= layers["tracing.unattributed_s"] < sum(
        s.duration for s in tracer.spans if s.name == spans.ROOT
    )
    if name == "sweep4":
        # Every cell of a swept workload replays its platform's capture.
        assert layers["capture.calls"] == 2
        assert layers["replay.calls"] == layers["multi.calls"] == len(
            traced.report["rel_ws_geomean"]
        ) * 2
        assert layers["report.cells"] == traced.report["cells"]
    else:
        assert layers["capture.calls"] == layers["replay.calls"] == 0
        assert layers["fused.calls"] == layers["alone.calls"] == traced.executed


def test_uninstall_restores_every_layer():
    tracer = spans.install(spans.Tracer())
    tracer.uninstall()
    from repro.runner.store import ResultStore

    assert not hasattr(ResultStore.put, "__wrapped__")
    assert not hasattr(workloads.aggregate.report_from_store, "__wrapped__")


def test_perturbed_record_trips_the_gate(tmp_path):
    root = tmp_path / "store"
    _run("alone1", root)
    expected = gates.scan_store(root)["records"]
    assert gates.mismatches(expected, expected) == 0

    path = sorted(p for p in root.glob("*/*.json") if p.parent.name == p.stem[:2])[0]
    payload = json.loads(path.read_text())
    payload["result"]["snapshot"]["cycles"] += 1.0
    path.write_text(json.dumps(payload))
    assert gates.mismatches(gates.scan_store(root)["records"], expected) == 1

    path.unlink()
    assert gates.mismatches(gates.scan_store(root)["records"], expected) == 1
    assert gates.mismatches({**expected, "0" * gates.DIGITS: "x"}, expected) == 1


def test_snapshot_gate_checks_hash_and_every_geomean():
    snapshot = json.loads(run.SNAPSHOT.read_text())
    report = {
        "config_hash": snapshot["config_hash"],
        "cells": snapshot["cells"],
        "rel_ws_geomean": {p: e["rel_ws_geomean"] for p, e in snapshot["policies"].items()},
    }
    assert gates.snapshot_mismatches(report, snapshot) == 0

    moved = dict(report, rel_ws_geomean=dict(report["rel_ws_geomean"]))
    moved["rel_ws_geomean"]["lru"] *= 1.0 + 1e-12
    assert gates.snapshot_mismatches(moved, snapshot) == snapshot["policies"]["lru"]["cells"]

    rehashed = dict(report, config_hash="0" * 64)
    assert gates.snapshot_mismatches(rehashed, snapshot) == snapshot["cells"]


def _result(**overrides):
    records = {"a": "1", "b": "2"}
    result = {"store_hits": 0, "executed": 2, "failed": 0, "records": records, "report": None}
    return dict(result, **overrides), records


def test_cold_cache_guard():
    result, expected = _result()
    assert run.check(result, expected, None) == 0
    with pytest.raises(RuntimeError, match="cold-cache"):
        run.check(_result(store_hits=1, executed=1)[0], expected, None)
    with pytest.raises(RuntimeError, match="cold-cache"):
        run.check(_result(executed=1)[0], expected, None)
    # A quarantined cell is attempted, not warm: it fails the identity gate.
    quarantined, _ = _result(executed=1, failed=1, records={"a": "1"})
    assert run.check(quarantined, expected, None) == 1


def test_child_environment_is_pinned(monkeypatch):
    monkeypatch.setenv("REPRO_NO_REPLAY", "1")
    monkeypatch.setenv("REPRO_REPLAY_VEC", "1")
    monkeypatch.setenv("REPRO_SCALE", "3")
    env = run.child_env(2)
    assert {k: v for k, v in env.items() if k.startswith("REPRO_")} == {
        "REPRO_SCALE": "0.1",
        "REPRO_JOBS": "2",
    }
    assert env["PYTHONPATH"] == str(run.ROOT / "src")
    assert os.environ["REPRO_NO_REPLAY"] == "1"


def test_self_time_and_unattributed_time():
    tracer = spans.Tracer()
    tracer.spans = [
        spans.Span(0, spans.ROOT, None, 0.0, 10.0),
        spans.Span(1, "multi", 0, 1.0, 5.0),
        spans.Span(2, "replay", 1, 1.5, 4.5, {"fallback": False}),
        spans.Span(3, "replay.extend", 2, 2.0, 3.0, {"accesses": 30}),
        spans.Span(4, "capture", 0, 6.0, 8.0, {"accesses": 100}),
    ]
    m = spans.layer_metrics(tracer.spans)
    assert m["multi.self_s"] == pytest.approx(1.0)
    assert m["replay.self_s"] == pytest.approx(2.0)
    assert m["replay.extend_frac"] == pytest.approx(0.3)
    assert m["job_s"] == pytest.approx(6.0)
    assert m["tracing.unattributed_s"] == pytest.approx(4.0)


def test_reference_covers_every_workload_and_seed():
    reference = json.loads(run.REFERENCE.read_text())
    assert set(reference["runs"]) == set(run.WORKLOADS)
    for name, runs in reference["runs"].items():
        assert set(runs) == {str(s) for s in range(reference["seeds"])}, name
    # sweep4 at master seed 0 is the committed tournament: 52 cells + 15 baselines.
    assert len(reference["runs"]["sweep4"]["0"]) == 67
    assert all(len(r) == 38 for r in reference["runs"]["alone1"].values())


def test_every_declared_metric_is_measured():
    layers = set(spans.layer_metrics([])) - {"job_s"}
    assert layers | {"runner.worker_util", "tracing.overhead_frac"} == set(run.declared_units(1))
    rep = {"wall_s": 2.0, "cpu_s": 3.0, "instructions": 4e6, "peak_rss_mb": 50.0}
    assert set(run.untraced_metrics([rep], [0.5])) == set(run.declared_units(0))
