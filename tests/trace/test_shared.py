"""Zero-copy shared trace buffers: equivalence, lifecycle, exactly-once."""

from __future__ import annotations

import gc
import weakref
from pathlib import Path

import numpy as np
import pytest

from repro.runner.jobs import AloneJob, WorkloadJob
from repro.runner.parallel import ParallelRunner
from repro.runner.store import ResultStore
from repro.sim.config import SystemConfig
from repro.trace import shared
from repro.trace.benchmarks import BENCHMARKS, Geometry, TraceSource
from repro.trace.workloads import Workload

GEOM = Geometry(llc_num_sets=64, l2_blocks=128, l1_blocks=32)
SPEC = BENCHMARKS["mcf"]


@pytest.fixture(autouse=True)
def _clean_registry():
    shared.clear_manifest()
    yield
    shared.clear_manifest()


class TestSharedTraceStore:
    def test_materialise_writes_content_addressed_file(self, tmp_path):
        store = shared.SharedTraceStore(tmp_path)
        entry = store.materialise(SPEC, GEOM, 0, 3, n_chunks=2)
        key = shared.trace_key(SPEC.name, GEOM, 0, 3, 2)
        assert entry["path"] == str(tmp_path / f"{key}.npy")
        arr = np.load(entry["path"], mmap_mode="r")
        assert arr.dtype == shared.TRACE_DTYPE
        assert len(arr) == 2 * TraceSource.CHUNK
        assert store.stats == {"materialised": 1, "reused": 0}

    def test_rematerialise_reuses_existing_file(self, tmp_path):
        store = shared.SharedTraceStore(tmp_path)
        store.materialise(SPEC, GEOM, 0, 3, n_chunks=2)
        again = shared.SharedTraceStore(tmp_path)
        again.materialise(SPEC, GEOM, 0, 3, n_chunks=2)
        assert again.stats == {"materialised": 0, "reused": 1}

    def test_distinct_parameters_get_distinct_keys(self):
        base = shared.trace_key("mcf", GEOM, 0, 3, 2)
        assert shared.trace_key("gcc", GEOM, 0, 3, 2) != base
        assert shared.trace_key("mcf", GEOM, 1, 3, 2) != base
        assert shared.trace_key("mcf", GEOM, 0, 4, 2) != base
        assert shared.trace_key("mcf", GEOM, 0, 3, 3) != base
        other_geom = Geometry(128, 128, 32)
        assert shared.trace_key("mcf", other_geom, 0, 3, 2) != base

    def test_buffer_content_matches_generator(self, tmp_path):
        store = shared.SharedTraceStore(tmp_path)
        entry = store.materialise(SPEC, GEOM, 1, 9, n_chunks=2)
        arr = np.load(entry["path"], mmap_mode="r")
        src = TraceSource(SPEC, GEOM, 1, 9)
        for i in range(2 * TraceSource.CHUNK):
            addr, pc, write = src.next_access()
            assert (arr["addr"][i], arr["pc"][i], arr["write"][i]) == (
                addr,
                pc,
                write,
            )


class TestSharedTraceSource:
    def _shared_source(self, tmp_path, n_chunks=2, core_id=0, seed=5):
        store = shared.SharedTraceStore(tmp_path)
        entry = store.materialise(SPEC, GEOM, core_id, seed, n_chunks=n_chunks)
        shared.install_manifest([entry])
        source = shared.make_source(SPEC, GEOM, core_id, seed)
        assert isinstance(source, shared.SharedTraceSource)
        return source

    def test_replay_then_live_stream_is_bit_identical(self, tmp_path):
        source = self._shared_source(tmp_path, n_chunks=2)
        plain = TraceSource(SPEC, GEOM, 0, 5)
        n = 4 * TraceSource.CHUNK + 99  # 2 replayed + fallback + live
        for _ in range(n):
            assert source.next_access() == plain.next_access()
        assert source.chunks_generated == plain.chunks_generated
        assert (
            source._rng.bit_generator.state == plain._rng.bit_generator.state
        )

    def test_replay_does_not_draw_rng(self, tmp_path):
        source = self._shared_source(tmp_path, n_chunks=2)
        state_before = repr(source._rng.bit_generator.state)
        for _ in range(2 * TraceSource.CHUNK):
            source.next_access()
        assert repr(source._rng.bit_generator.state) == state_before

    def test_restart_fast_forwards_generator_state(self, tmp_path):
        source = self._shared_source(tmp_path, n_chunks=2)
        plain = TraceSource(SPEC, GEOM, 0, 5)
        for _ in range(TraceSource.CHUNK + 7):
            source.next_access()
            plain.next_access()
        source.restart()
        plain.restart()
        for _ in range(2 * TraceSource.CHUNK):
            assert source.next_access() == plain.next_access()

    def test_unregistered_identity_gets_plain_source(self):
        source = shared.make_source(SPEC, GEOM, 0, 5)
        assert type(source) is TraceSource

    def test_kill_switch(self, monkeypatch):
        monkeypatch.setenv("REPRO_NO_SHARED_TRACES", "1")
        assert not shared.shared_traces_enabled()
        monkeypatch.delenv("REPRO_NO_SHARED_TRACES")
        assert shared.shared_traces_enabled()

    def test_corrupt_buffer_is_skipped(self, tmp_path):
        path = tmp_path / "bad.npy"
        path.write_bytes(b"not a numpy file")
        shared.install_manifest(
            [
                {
                    "benchmark": SPEC.name,
                    "geometry": [GEOM.llc_num_sets, GEOM.l2_blocks, GEOM.l1_blocks],
                    "core_id": 0,
                    "master_seed": 5,
                    "n_chunks": 2,
                    "path": str(path),
                }
            ]
        )
        assert shared.lookup(SPEC.name, GEOM, 0, 5) is None
        assert type(shared.make_source(SPEC, GEOM, 0, 5)) is TraceSource

    def test_mapping_dies_with_its_source(self, tmp_path):
        source = self._shared_source(tmp_path, n_chunks=2)
        other = shared.make_source(SPEC, GEOM, 0, 5)
        # Every source maps the buffer itself: no process-wide cache.
        assert other._shared is not source._shared
        source.next_access()
        mapping = weakref.ref(source._shared)
        del source
        gc.collect()
        assert mapping() is None

    def test_install_verifies_each_path_once(self, tmp_path, monkeypatch):
        from repro.runner import integrity

        entry = shared.SharedTraceStore(tmp_path).materialise(SPEC, GEOM, 0, 5, 2)
        calls = []
        real = integrity.verify_artifact

        def counting(path):
            calls.append(path)
            return real(path)

        monkeypatch.setattr(integrity, "verify_artifact", counting)
        for _ in range(3):
            shared.install_manifest([entry])
            assert isinstance(
                shared.make_source(SPEC, GEOM, 0, 5), shared.SharedTraceSource
            )
        assert calls == [entry["path"]]

    def test_corrupt_buffer_is_quarantined_on_first_install(self, tmp_path):
        from repro.runner.faults import corrupt_file

        entry = shared.SharedTraceStore(tmp_path).materialise(SPEC, GEOM, 0, 5, 2)
        corrupt_file(entry["path"])
        shared.install_manifest([entry])
        assert (tmp_path / "quarantine" / Path(entry["path"]).name).is_file()
        assert shared.lookup(SPEC.name, GEOM, 0, 5) is None
        assert type(shared.make_source(SPEC, GEOM, 0, 5)) is TraceSource


class TestRunnerIntegration:
    CONFIG = SystemConfig.scaled(2, llc_sets=64)
    WORKLOAD = Workload("mix", ("mcf", "gcc"))

    def _jobs(self):
        return [
            WorkloadJob.for_workload(
                self.WORKLOAD,
                self.CONFIG,
                policy,
                quota=800,
                warmup=200,
                master_seed=0,
            )
            for policy in ("tadrrip", "ship", "eaf")
        ] + [
            AloneJob("mcf", self.CONFIG.with_cores(1), "tadrrip", 800, 200, 0)
        ]

    def test_shared_traces_generate_each_buffer_exactly_once(
        self, tmp_path, monkeypatch
    ):
        generated: list[tuple] = []
        original = TraceSource._generate_chunk

        def counting(self):
            generated.append((self.spec.name, self.core_id))
            return original(self)

        monkeypatch.setattr(TraceSource, "_generate_chunk", counting)
        runner = ParallelRunner(jobs=1, store=ResultStore(tmp_path))
        results = runner.run(self._jobs())
        assert len(results) == 4
        # Both workload traces (mcf core 0, gcc core 1) are shared by the
        # three policy jobs and the alone job; each was materialised once
        # and only replayed afterwards, so every generation event belongs
        # to the two materialisation passes.
        assert runner.trace_store().stats["materialised"] == 2
        per_trace = {t: generated.count(t) for t in set(generated)}
        n_chunks = shared.chunks_for(800, 200)
        assert per_trace == {("mcf", 0): n_chunks, ("gcc", 1): n_chunks}

    def test_results_identical_with_and_without_sharing(self, tmp_path):
        plain = ParallelRunner(jobs=1, share_traces=False)
        reference = [r.to_dict() for r in plain.run(self._jobs())]
        sharing = ParallelRunner(jobs=1, store=ResultStore(tmp_path))
        assert [r.to_dict() for r in sharing.run(self._jobs())] == reference

    def test_buffers_live_under_store_root(self, tmp_path):
        runner = ParallelRunner(jobs=1, store=ResultStore(tmp_path))
        runner.run(self._jobs())
        buffers = list((tmp_path / "traces").glob("*.npy"))
        assert len(buffers) == 2

    def test_warm_store_rematerialises_nothing(self, tmp_path):
        first = ParallelRunner(jobs=1, store=ResultStore(tmp_path))
        first.run(self._jobs())
        # A later batch of *different* jobs over the same workload misses
        # the result store but reuses the first batch's trace buffers.
        second = ParallelRunner(jobs=1, store=ResultStore(tmp_path))
        second.run(
            [
                WorkloadJob.for_workload(
                    self.WORKLOAD,
                    self.CONFIG,
                    policy,
                    quota=800,
                    warmup=200,
                    master_seed=0,
                )
                for policy in ("drrip", "srrip")
            ]
        )
        assert second.trace_store().stats == {"materialised": 0, "reused": 2}

    def test_no_cache_keeps_buffers_out_of_the_store(self, tmp_path):
        # ``--no-cache`` promises the store is neither read nor written;
        # trace buffers then live in a runner-lifetime tempdir instead.
        runner = ParallelRunner(
            jobs=1, store=ResultStore(tmp_path), use_cache=False
        )
        runner.run(self._jobs())
        assert runner.trace_store().stats["materialised"] == 2
        assert not (tmp_path / "traces").exists()
        assert runner._trace_tmpdir is not None

    def test_single_job_batches_share_nothing(self, tmp_path):
        runner = ParallelRunner(jobs=1, store=ResultStore(tmp_path))
        runner.run(
            [
                WorkloadJob.for_workload(
                    self.WORKLOAD,
                    self.CONFIG,
                    "tadrrip",
                    quota=800,
                    warmup=200,
                    master_seed=0,
                )
            ]
        )
        assert runner._traces is None
