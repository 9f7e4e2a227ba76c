"""The committed ``BENCH_tournament.json`` performance-trajectory snapshot.

Every ``repro-experiments report`` run can serialise its aggregated view
into one JSON snapshot.  The snapshot is the repo's in-tree perf/accuracy
trajectory: committed at the repo root, regenerated when tournament
behaviour intentionally changes (like the golden fixtures), and diffed by
the regression detector (:mod:`repro.report.regress`) in nightly CI.

Snapshot schema (``schema`` bumps on incompatible change)::

    {
      "schema": 1,
      "run_id": "tournament-<config_hash[:12]>-<cells>c",
      "generated_utc": "2026-08-07T12:00:00Z",     # informational
      "config_hash": "<sha256>",   # over every aggregated cell identity
      "baseline": "tadrrip",
      "seeds": [0, 1], "cores": [4], "workload_slots": [...],
      "cells": 52,
      "policies": {
        "<name>": {"rank": 1, "cells": 4, "rel_ws_geomean": ...,
                    "rel_ws_ci": [lo, hi], "ws_geomean": ...,
                    "llc_mpki_mean": ...,
                    "win_rate": ...}   # null: no head-to-head data
      },
      "kernel": {"hot_loop_accesses_per_second": ..., "accesses": ...}
    }

``config_hash`` covers exactly the run identities that fed the numbers —
policy roster, workload slots, platforms, seeds, budgets — so two
snapshots are comparable iff their hashes match; metric values and the
machine-dependent ``kernel`` section are deliberately *not* hashed.  The
``kernel`` section mirrors ``benchmarks/bench_kernel_throughput.py``'s
headline ``hot_loop`` scenario (fast-kernel accesses/second), giving the
trajectory a speed axis next to the accuracy axis.
"""

from __future__ import annotations

import hashlib
import json
import time
from pathlib import Path

from repro.report.aggregate import TournamentReport

#: Bump when the snapshot encoding changes incompatibly.
SNAPSHOT_SCHEMA = 1

#: Measured accesses for the kernel-throughput probe — matches the
#: bench's ``BASE_QUOTA`` so the two numbers are directly comparable.
KERNEL_PROBE_QUOTA = 40_000


def config_hash(report: TournamentReport) -> str:
    """SHA-256 over every aggregated cell identity (see module docstring)."""
    blob = json.dumps(
        {"baseline": report.data.baseline, "identities": report.data.identities},
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(blob.encode()).hexdigest()


def measure_kernel_throughput(repeats: int = 2) -> dict:
    """Fast-kernel accesses/second on the bench's ``hot_loop`` scenario.

    One core running the L1-resident ``calc`` application — the scenario
    ``bench_kernel_throughput.py`` uses as its headline kernel-dispatch
    cost.  Best-of-*repeats* wall-clock, exactly like the bench.
    """
    from repro.cpu.engine import MulticoreEngine
    from repro.sim.build import build_hierarchy, build_sources
    from repro.sim.config import SystemConfig
    from repro.trace.workloads import Workload

    config = SystemConfig.scaled(16).with_cores(1)
    workload = Workload("hot", ("calc",))
    best = float("inf")
    accesses = 0
    for _ in range(repeats):
        hierarchy = build_hierarchy(config, "tadrrip")
        sources = build_sources(workload, config)
        engine = MulticoreEngine(hierarchy, sources, quota_per_core=KERNEL_PROBE_QUOTA)
        start = time.perf_counter()
        engine.run()
        elapsed = time.perf_counter() - start
        accesses = sum(core.accesses for core in engine.cores)
        best = min(best, elapsed / accesses)
    return {
        "scenario": "hot_loop",
        "hot_loop_accesses_per_second": 1.0 / best,
        "accesses": accesses,
    }


def build_snapshot(
    report: TournamentReport, *, kernel: dict | None = None
) -> dict:
    """The JSON-safe ``BENCH_tournament.json`` payload for *report*."""
    data = report.data
    policies = {}
    for rank, s in enumerate(report.summaries, start=1):
        policies[s.policy] = {
            "rank": rank,
            "cells": s.cells,
            "rel_ws_geomean": s.rel_ws_geomean,
            "rel_ws_ci": list(s.rel_ws_ci),
            "ws_geomean": s.ws_geomean,
            "llc_mpki_mean": s.llc_mpki_mean,
            "win_rate": s.win_rate,
        }
    digest = config_hash(report)
    return {
        "schema": SNAPSHOT_SCHEMA,
        "run_id": f"tournament-{digest[:12]}-{len(data.cells)}c",
        "generated_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "config_hash": digest,
        "baseline": data.baseline,
        "seeds": data.seeds,
        "cores": sorted({c.cores for c in data.cells}),
        "workload_slots": data.workloads,
        "cells": len(data.cells),
        "policies": policies,
        "kernel": kernel,
    }


def write_snapshot(snapshot: dict, path: str | Path) -> Path:
    """Pretty-print *snapshot* to *path* (newline-terminated, sorted keys)."""
    path = Path(path)
    if path.parent != Path(""):
        path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(snapshot, indent=2, sort_keys=True) + "\n")
    return path


def load_snapshot(path: str | Path) -> dict:
    """Read a snapshot, validating the schema version."""
    payload = json.loads(Path(path).read_text())
    if payload.get("schema") != SNAPSHOT_SCHEMA:
        raise ValueError(
            f"{path}: snapshot schema {payload.get('schema')!r} "
            f"(this build reads {SNAPSHOT_SCHEMA})"
        )
    return payload
