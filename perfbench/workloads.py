"""The workloads the benchmark times, as plain functions of a seed.

Each workload runs the program's own public entry points against a fresh
result store under *root* and returns a :class:`Outcome`.  Nothing here
times or traces anything: :mod:`child` wraps these calls.

* ``sweep4``  — the 4-core tournament: the full 13-policy roster over the
  two suites master seeds 0 and 1 draw, on the trace streams of seeds
  ``2 * seed`` and ``2 * seed + 1``, then the report.  At seed 0 this is
  exactly ``run_tournament(cores=(4,), seeds=(0, 1))``, the configuration
  behind the committed ``BENCH_tournament.json``.
* ``alone1``  — the ``IPC_alone`` baseline of every synthetic benchmark on
  the 1-core platform through ``AloneCache.prefetch``: no capture, no
  replay, no shared trace buffers.

Every program module a workload needs is imported here, at module level,
so a child process that imports this module pays all import cost before its
first job is submitted (counted as set-up, not as sweep wall clock).
"""

from __future__ import annotations

import importlib
from dataclasses import dataclass, replace
from pathlib import Path

from repro.experiments.common import ExperimentSettings, Runner, config_for_cores
from repro.policies.registry import tournament_policies
from repro.report.bench import config_hash
from repro.runner import ParallelRunner, ResultStore
from repro.sim.config import SystemConfig
from repro.sim.single import AloneCache
from repro.trace.benchmarks import BENCHMARKS

# The module, not the same-named function ``repro.report`` re-exports; calls
# go through its attribute, so a tracer's wrapper is what runs.
aggregate = importlib.import_module("repro.report.aggregate")


@dataclass
class Outcome:
    """What one workload run executed, as the program reports it."""

    executed: int
    store_hits: int
    failed: int
    #: ``config_hash`` and per-policy ``rel_ws_geomean`` of the report
    #: (``None`` for workloads without a tournament report).
    report: dict | None = None


def _report(root: Path) -> dict:
    report = aggregate.report_from_store(ResultStore(root))
    return {
        "config_hash": config_hash(report),
        "cells": len(report.data.cells),
        "rel_ws_geomean": {s.policy: s.rel_ws_geomean for s in report.summaries},
    }


def sweep4(seed: int, root: Path, jobs: int, settings=None) -> Outcome:
    """``run_tournament``'s loop, with suite composition and streams apart.

    The suites of master seeds 0 and 1 are swept on the trace streams (and
    baselines) of seeds ``2 * seed`` and ``2 * seed + 1``; at seed 0 this
    is ``run_tournament(cores=(4,), seeds=(0, 1))``.  A tournament ties
    composition and streams to one master seed, but the mixes a seed
    draws change the sweep's host time by up to 1.7x; fixing them keeps
    the inputs seed-dependent without letting the seed pick the cost.
    """
    base = settings or ExperimentSettings.from_env()
    outcome = Outcome(executed=0, store_hits=0, failed=0)
    for composition, stream in ((0, 2 * seed), (1, 2 * seed + 1)):
        runner = Runner(
            SystemConfig.scaled(16),
            replace(base, master_seed=stream),
            jobs=jobs,
            results_dir=root,
        )
        try:
            config = config_for_cores(runner.config, 4)
            suite = replace(base, master_seed=composition).suite(4)
            runner.prefetch(suite, tournament_policies(), config)
        finally:
            runner.close()
        outcome.executed += runner.pool.stats["executed"]
        outcome.store_hits += runner.pool.stats["store_hits"]
        outcome.failed += runner.pool.stats["failed"]
    outcome.report = _report(root)
    return outcome


def alone1(seed: int, root: Path, jobs: int, settings=None) -> Outcome:
    settings = settings or ExperimentSettings.from_env()
    pool = ParallelRunner(jobs=jobs, store=ResultStore(root))
    try:
        cache = AloneCache(
            config_for_cores(SystemConfig.scaled(16), 1),
            quota=settings.alone_quota,
            warmup=settings.alone_warmup,
            master_seed=seed,
            pool=pool,
        )
        cache.prefetch(sorted(BENCHMARKS))
    finally:
        pool.close()
    return Outcome(
        executed=pool.stats["executed"],
        store_hits=pool.stats["store_hits"],
        failed=pool.stats["failed"],
    )


WORKLOADS = {"sweep4": sweep4, "alone1": alone1}
