"""End-to-end tests of the dependency-edged capture→replay pipeline.

The load-bearing properties: pipelined and replay-disabled runs are
bit-identical; a failed capture costs only its sweep's replay kernel
(never a result); and the per-process resident bundle makes a sweep load
each artifact at most once per worker, observably via ``runner.stats``.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor

import pytest

from repro.runner import ParallelRunner, WorkloadJob
from repro.runner import replaystore
from repro.runner import supervisor as supervisor_mod
from repro.runner.supervisor import RetryPolicy
from repro.trace.workloads import Workload

QUOTA = 400
WARMUP = 100
MIXES = {"thrash": ("mcf", "libq"), "friendly": ("gcc", "calc")}


@pytest.fixture(autouse=True)
def _fresh_caches():
    """Per-test isolation for the process-local replay caches."""
    replaystore._RESIDENT.clear()
    replaystore.clear_replay_manifest()
    yield
    replaystore._RESIDENT.clear()
    replaystore.clear_replay_manifest()


def _sweep(config, policies, mixes=("thrash",), seed=0):
    return [
        WorkloadJob.for_workload(
            Workload(name, MIXES[name]),
            config.with_cores(len(MIXES[name])),
            policy,
            quota=QUOTA,
            warmup=WARMUP,
            master_seed=seed,
        )
        for name in mixes
        for policy in policies
    ]


def _run(jobs, *, n=1, retry=None):
    with ParallelRunner(jobs=n, retry=retry) as runner:
        results = runner.run(jobs)
    return results, runner


class TestPipelinedEquivalence:
    def test_pipelined_matches_fused(self, tiny_config, monkeypatch):
        jobs = _sweep(tiny_config, ("lru", "adapt"), mixes=("thrash", "friendly"))

        pipelined, runner = _run(jobs)
        assert runner.stats["executed"] == len(jobs)
        assert runner.stats["failed"] == 0

        monkeypatch.setenv("REPRO_NO_REPLAY", "1")
        fused, _ = _run(jobs)

        assert pipelined == fused

    @pytest.mark.slow
    def test_pool_run_matches_inline(self, tiny_config):
        jobs = _sweep(tiny_config, ("lru", "ship", "adapt"), mixes=("thrash", "friendly"))
        inline, _ = _run(jobs, n=1)
        pooled, runner = _run(jobs, n=2)
        assert pooled == inline
        assert runner.stats["failed"] == 0
        # The per-process bundle cache holds under the shared pool: each
        # of the 2 workers loads each of the 2 sweeps' artifacts at most
        # once, however the 6 replays are spread.
        assert runner.stats["bundle_loads"] <= 2 * 2

    def test_sweep_runs_on_one_shared_pool(self, tiny_config, monkeypatch):
        built = []

        class _CountedPool(ProcessPoolExecutor):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                built.append(self._max_workers)

        monkeypatch.setattr(supervisor_mod, "ProcessPoolExecutor", _CountedPool)
        jobs = _sweep(tiny_config, ("lru", "adapt"))
        results, runner = _run(jobs, n=2)
        assert len(results) == len(jobs)
        assert runner.stats["failed"] == 0
        # Capture and replays alike go to one pool of both workers.
        assert built == [2]


class TestCaptureFailureDegradation:
    def test_poisoned_capture_costs_only_the_replay_kernel(
        self, tiny_config, monkeypatch
    ):
        from repro.cpu.capture import REPLAY_SLACK
        from repro.runner.replaystore import replay_key
        from repro.sim.build import capture_identity

        jobs = _sweep(tiny_config, ("lru", "adapt"), mixes=("thrash", "friendly"))
        thrash = next(job for job in jobs if job.workload_name == "thrash")
        identity = capture_identity(
            thrash.benchmarks, thrash.config, QUOTA, WARMUP, thrash.master_seed
        )
        # The fault grammar splits on ":", so match on the hex key alone —
        # it only ever appears in the capture job's "capture:<key>" key.
        ckey = replay_key(identity, REPLAY_SLACK)

        monkeypatch.setenv("REPRO_NO_REPLAY", "1")
        fused, _ = _run(jobs)
        monkeypatch.delenv("REPRO_NO_REPLAY")

        # Poison exactly the thrash sweep's capture job: it quarantines,
        # its replays degrade to the fused kernel, and the friendly sweep
        # pipelines normally.  Zero lost cells, bit-identical results.
        monkeypatch.setenv("REPRO_FAULT", "poison:" + ckey[:24])
        poisoned, runner = _run(
            jobs, retry=RetryPolicy(max_retries=0, backoff_base=0.001)
        )
        assert poisoned == fused
        assert all(result is not None for result in poisoned)
        # Capture failures are folded away, never surfaced as job failures.
        assert runner.stats["failed"] == 0
        assert runner.last_failures == []


class TestAffinityCaches:
    def test_sweep_loads_each_artifact_once(self, tiny_config):
        # Inline run of an 8-policy sweep on the replay kernel: one
        # artifact, so one bundle load; every other policy hits the
        # per-process bundle cache.
        policies = ("lru", "ship", "adapt", "srrip", "brrip", "dip", "eaf", "lip")
        jobs = _sweep(tiny_config, policies)
        results, runner = _run(jobs)
        assert all(result is not None for result in results)
        assert runner.stats["executed"] == len(jobs)
        assert runner.stats["bundle_loads"] == 1

    def test_two_sweeps_two_loads(self, tiny_config):
        jobs = _sweep(tiny_config, ("lru", "ship"), mixes=("thrash", "friendly"))
        results, runner = _run(jobs)
        assert all(result is not None for result in results)
        assert runner.stats["bundle_loads"] == 2
