"""Unit tests for the LLC-filtered replay engine: capture artifacts,
eligibility/fallback behaviour, live-tail continuation, the kill switch,
and the runner's capture-job scheduling."""

from __future__ import annotations

import tracemalloc
from array import array

import numpy as np
import pytest

from repro.cpu import replay as replay_mod
from repro.cpu.capture import CoreTape, capture_workload, extend_tape
from repro.cpu.engine import MulticoreEngine
from repro.cpu.replay import run_replay
from repro.golden import QUOTA, WARMUP, golden_config
from repro.runner import ParallelRunner, ResultStore, WorkloadJob
from repro.runner.replaystore import (
    ReplayStore,
    active_replay_bundle,
    clear_replay_manifest,
    install_replay_manifest,
    load_bundle,
    replay_key,
    save_bundle,
)
from repro.sim.build import build_hierarchy, build_sources, capture_identity
from repro.trace.workloads import Workload

BENCHMARKS = ("mcf", "libq")
WORKLOAD = Workload("g", BENCHMARKS)


@pytest.fixture(autouse=True)
def _clean_registry():
    clear_replay_manifest()
    yield
    clear_replay_manifest()


def _engine(policy="tadrrip", config=None, quota=QUOTA, warmup=WARMUP):
    config = config or golden_config()
    hierarchy = build_hierarchy(config, policy)
    sources = build_sources(WORKLOAD, config, 0)
    return MulticoreEngine(
        hierarchy,
        sources,
        quota_per_core=quota,
        interval_misses=config.effective_interval,
        warmup_accesses=warmup,
    )


@pytest.fixture(scope="module")
def bundle():
    return capture_workload(BENCHMARKS, golden_config(), QUOTA, WARMUP, 0)


class TestCapture:
    def test_tape_shape(self, bundle):
        meta = bundle.meta
        assert meta["length"] >= QUOTA + WARMUP
        for tape in bundle.tapes:
            assert tape.length == meta["length"]
            assert len(tape.steps) == meta["length"]
            # Events are emitted in nondecreasing access order.
            assert all(
                a <= b for a, b in zip(tape.ev_step, tape.ev_step[1:])
            )
            # Exactly one baseline and one completion marker per core.
            assert tape.ev_kind.count(4) == 1
            assert tape.ev_kind.count(5) == 1
            assert tape.baseline is not None and tape.finish is not None
            # Checkpoints start at the pristine state and end at the tape end.
            assert tape.checkpoints[0]["index"] == 0
            assert tape.checkpoints[-1]["index"] == meta["length"]

    def test_replay_matches_fused_snapshots(self, bundle):
        fused = _engine("ship")
        expected = fused.run()
        engine = _engine("ship")
        got = run_replay(engine, bundle)
        assert got == expected
        assert engine.intervals_completed == fused.intervals_completed
        assert engine.now == fused.now

    def test_finalize_false_skips_private_reconstruction(self, bundle):
        fused = _engine("lru")
        expected = fused.run()
        engine = _engine("lru")
        got = run_replay(engine, bundle, finalize=False)
        assert got == expected
        # LLC-side state is exact; the discarded private levels stay pristine.
        assert engine.hierarchy.llc.stats.snapshot() == fused.hierarchy.llc.stats.snapshot()
        assert engine.hierarchy.l1s[0].stats.demand_hits[0] == 0


class TestEligibility:
    def test_quota_mismatch_falls_back(self, bundle):
        engine = _engine(quota=QUOTA + 1)
        assert run_replay(engine, bundle) is None

    def test_seed_mismatch_falls_back(self, bundle):
        config = golden_config()
        hierarchy = build_hierarchy(config, "lru")
        sources = build_sources(WORKLOAD, config, master_seed=7)
        engine = MulticoreEngine(
            hierarchy, sources, quota_per_core=QUOTA, warmup_accesses=WARMUP
        )
        assert run_replay(engine, bundle) is None

    def test_benchmark_mismatch_falls_back(self, bundle):
        config = golden_config()
        hierarchy = build_hierarchy(config, "lru")
        sources = build_sources(Workload("g", ("gcc", "calc")), config, 0)
        engine = MulticoreEngine(
            hierarchy, sources, quota_per_core=QUOTA, warmup_accesses=WARMUP
        )
        assert run_replay(engine, bundle) is None

    def test_duck_typed_source_falls_back(self, bundle):
        class _NextAccessOnly:
            def __init__(self, inner):
                self._inner = inner

            def next_access(self):
                return self._inner.next_access()

            def __getattr__(self, name):
                if name == "next_chunk":
                    raise AttributeError(name)
                return getattr(self._inner, name)

        engine = _engine()
        engine.sources = [_NextAccessOnly(s) for s in engine.sources]
        assert run_replay(engine, bundle) is None

    def test_kill_switch(self, monkeypatch):
        monkeypatch.setenv("REPRO_NO_REPLAY", "1")
        assert not replay_mod.replay_enabled()
        monkeypatch.delenv("REPRO_NO_REPLAY")
        # Replay is morally part of the fast path: the fast-path kill
        # switch disables it too (differential runs stay generic).
        monkeypatch.setenv("REPRO_NO_FASTPATH", "1")
        assert not replay_mod.replay_enabled()
        monkeypatch.delenv("REPRO_NO_FASTPATH")
        assert replay_mod.replay_enabled()


class TestLiveTail:
    def test_zero_slack_run_extends_tape_and_stays_exact(self):
        expected = _engine("dip").run()
        lean = capture_workload(BENCHMARKS, golden_config(), QUOTA, WARMUP, 0, slack=0.0)
        assert lean.meta["length"] == QUOTA + WARMUP
        engine = _engine("dip")
        got = run_replay(engine, lean)
        assert got == expected
        # At least one core outran the captured stream and was extended.
        assert any(tape.length > lean.meta["length"] for tape in lean.tapes)
        # The extension persists in the bundle: a second replay reuses it.
        lengths = [tape.length for tape in lean.tapes]
        assert run_replay(_engine("dip"), lean) == expected
        assert [tape.length for tape in lean.tapes] == lengths


class TestLlcSilentCore:
    def test_silent_overrunning_core_cannot_stall_the_run(self):
        """A core whose working set fits its private levels emits no LLC
        events while it overruns; replay must keep making bounded progress
        (provisional wake-ups) instead of extending its tape forever."""
        from dataclasses import replace

        from repro.sim.config import CacheLevelConfig

        # An L2 large enough to hold twolf's whole working set: after
        # warm-up the core goes LLC-silent and overruns at L2-hit speed
        # while mcf (slow, miss-heavy) finishes last.
        config = replace(
            golden_config(), l2=CacheLevelConfig(num_sets=64, ways=8, latency=14.0)
        )
        workload = Workload("g", ("twolf", "mcf"))

        def engine(policy):
            hierarchy = build_hierarchy(config, policy)
            sources = build_sources(workload, config, 0)
            return MulticoreEngine(
                hierarchy,
                sources,
                quota_per_core=1200,
                interval_misses=config.effective_interval,
                warmup_accesses=300,
            )

        expected = engine("ship").run()
        bundle = capture_workload(
            ("twolf", "mcf"), config, 1200, 300, 0, slack=0.0
        )
        assert run_replay(engine("ship"), bundle) == expected
        tape = bundle.tapes[0]
        extension = tape.length - bundle.meta["length"]
        tail_events = sum(1 for s in tape.ev_step if s >= bundle.meta["length"])
        assert extension >= 4096 and tail_events == 0


class TestArtifactStore:
    def test_save_load_round_trip(self, bundle, tmp_path):
        path = tmp_path / "replay-x.npz"
        save_bundle(bundle, path)
        loaded = load_bundle(path)
        assert loaded is not None
        assert loaded.meta == bundle.meta
        for a, b in zip(loaded.tapes, bundle.tapes):
            assert a.steps == b.steps
            assert a.ev_step == b.ev_step
            assert a.ev_kind == b.ev_kind
            assert a.ev_addr == b.ev_addr
            assert a.ev_pc == b.ev_pc
            assert a.checkpoints == b.checkpoints
            assert a.baseline == b.baseline and a.finish == b.finish
        # A loaded bundle drives the replay kernel identically.
        expected = _engine("eaf").run()
        assert run_replay(_engine("eaf"), loaded) == expected

    def test_save_load_save_is_byte_identical(self, bundle, tmp_path):
        first = tmp_path / "replay-a.npz"
        second = tmp_path / "replay-b.npz"
        save_bundle(bundle, first)
        save_bundle(load_bundle(first), second)
        assert first.read_bytes() == second.read_bytes()

    def test_loaded_tape_extends_live_after_export(self, tmp_path):
        lean = capture_workload(BENCHMARKS, golden_config(), QUOTA, WARMUP, 0, slack=0.0)
        path = tmp_path / "replay-lean.npz"
        save_bundle(lean, path)
        loaded = load_bundle(path)
        tape = loaded.tapes[0]
        before = tape.events_array()
        length, n_events = tape.length, len(tape.ev_step)
        extend_tape(loaded, 0, loaded.meta["chunk"])
        assert tape.length == length + loaded.meta["chunk"]
        assert len(tape.ev_step) > n_events
        assert len(tape.steps) == tape.length
        # The earlier export is a copy, untouched by the extension.
        assert len(before) == n_events
        # And a replay over the exported-then-extended bundle stays exact.
        assert run_replay(_engine("dip"), loaded) == _engine("dip").run()

    def test_save_bundle_accepts_str_path(self, bundle, tmp_path):
        path = tmp_path / "nested" / "replay-s.npz"
        save_bundle(bundle, str(path))
        loaded = load_bundle(str(path))
        assert loaded is not None and loaded.meta == bundle.meta

    def test_corrupt_artifact_loads_as_none(self, tmp_path):
        path = tmp_path / "replay-bad.npz"
        path.write_bytes(b"not an npz")
        assert load_bundle(path) is None
        missing = tmp_path / "replay-missing.npz"
        assert load_bundle(missing) is None

    def test_materialise_is_content_addressed_and_reused(self, tmp_path):
        store = ReplayStore(tmp_path)
        config = golden_config()
        entry = store.materialise(BENCHMARKS, config, 200, 50, 0)
        ident = capture_identity(BENCHMARKS, config, 200, 50, 0)
        from repro.cpu.capture import REPLAY_SLACK

        assert entry["path"] == str(
            tmp_path / f"replay-{replay_key(ident, REPLAY_SLACK)}.npz"
        )
        assert store.stats == {"captured": 1, "reused": 0}
        store.materialise(BENCHMARKS, config, 200, 50, 0)
        assert store.stats == {"captured": 1, "reused": 1}

    def test_default_slack_is_a_constant(self, tmp_path, monkeypatch):
        from repro.cpu.capture import REPLAY_SLACK

        # The slack is part of every replay key; no environment setting
        # may move it, or stored artifacts would stop being found.
        monkeypatch.setenv("REPRO_REPLAY_SLACK", "0.9")
        assert REPLAY_SLACK == 0.25
        config = golden_config()
        assert capture_workload(BENCHMARKS, config, 200, 50, 0).meta["slack"] == 0.25
        entry = ReplayStore(tmp_path).materialise(BENCHMARKS, config, 200, 50, 0)
        ident = capture_identity(BENCHMARKS, config, 200, 50, 0)
        assert entry["path"] == str(tmp_path / f"replay-{replay_key(ident, 0.25)}.npz")

    def test_manifest_registry_round_trip(self, tmp_path):
        store = ReplayStore(tmp_path)
        config = golden_config()
        entry = store.materialise(BENCHMARKS, config, 200, 50, 0)
        install_replay_manifest([entry])
        assert active_replay_bundle(BENCHMARKS, config, 200, 50, 0) is not None
        assert active_replay_bundle(BENCHMARKS, config, 200, 51, 0) is None
        clear_replay_manifest()
        assert active_replay_bundle(BENCHMARKS, config, 200, 50, 0) is None


def _pending(tape) -> bool:
    """Whether a loaded tape still holds its stored checkpoints encoded
    (live extension may have appended decoded ones after them)."""
    return tape._checkpoints_json is not None


class TestLazyCheckpoints:
    def test_load_decodes_checkpoints_only_when_read(self, bundle, tmp_path):
        path = tmp_path / "replay-x.npz"
        save_bundle(bundle, path)
        loaded = load_bundle(path)
        assert all(_pending(tape) for tape in loaded.tapes)
        # A sweep's replay (no finalisation) never reads them...
        assert run_replay(_engine("srrip"), loaded, finalize=False) is not None
        assert all(_pending(tape) for tape in loaded.tapes)
        # ...and the first read returns the captured list.
        for a, b in zip(loaded.tapes, bundle.tapes):
            assert a.checkpoints == b.checkpoints
            assert a.end_state == b.checkpoints[-1]
            assert not _pending(a)

    def test_live_extension_never_decodes_stored_checkpoints(self, tmp_path):
        lean = capture_workload(BENCHMARKS, golden_config(), QUOTA, WARMUP, 0, slack=0.0)
        path = tmp_path / "replay-lean.npz"
        save_bundle(lean, path)
        loaded = load_bundle(path)
        tape = loaded.tapes[0]
        stored = len(lean.tapes[0].checkpoints)
        for _ in range(3):
            extend_tape(loaded, 0, loaded.meta["chunk"])
        assert _pending(tape)
        appended = list(tape._checkpoints)
        assert appended and appended[-1]["index"] == tape.length
        # Decoding puts the stored checkpoints first, extensions after.
        indices = [ck["index"] for ck in tape.checkpoints]
        assert indices == sorted(indices) and len(indices) == stored + len(appended)
        # The finalised replay still ends bit-identical to a fused run.
        expected = _engine("dip")
        expected.run()
        engine = _engine("dip")
        run_replay(engine, loaded)
        assert [c.accesses for c in engine.cores] == [c.accesses for c in expected.cores]
        for ours, theirs in zip(engine.hierarchy.l2s, expected.hierarchy.l2s):
            assert ours.addrs == theirs.addrs and ours.policy.rrpv == theirs.policy.rrpv

    def test_extended_tape_saves_its_live_end(self, tmp_path):
        lean = capture_workload(BENCHMARKS, golden_config(), QUOTA, WARMUP, 0, slack=0.0)
        extend_tape(lean, 0, lean.meta["chunk"])
        path = tmp_path / "replay-ext.npz"
        save_bundle(lean, path)
        loaded = load_bundle(path)
        tape = loaded.tapes[0]
        assert tape.end_state["index"] == tape.length == lean.tapes[0].length
        # Resuming a loaded extended tape continues its stream exactly.
        extend_tape(loaded, 0, lean.meta["chunk"])
        extend_tape(lean, 0, lean.meta["chunk"])
        assert tape.steps == lean.tapes[0].steps
        assert tape.ev_step == lean.tapes[0].ev_step


class TestResidentBundle:
    @pytest.fixture
    def two_sweeps(self, tmp_path):
        from repro.runner import replaystore

        replaystore._RESIDENT.clear()
        store = ReplayStore(tmp_path)
        config = golden_config()
        entries = [store.materialise(BENCHMARKS, config, 200, 50, seed) for seed in (0, 1)]
        install_replay_manifest(entries)
        yield config, entries
        replaystore._RESIDENT.clear()

    @staticmethod
    def _loads() -> int:
        from repro.runner.replaystore import REGISTRY_STATS

        return REGISTRY_STATS["bundle_loads"]

    def test_second_sweep_replaces_the_resident_bundle(self, two_sweeps):
        from repro.runner import replaystore

        config, entries = two_sweeps
        before = self._loads()
        first = active_replay_bundle(BENCHMARKS, config, 200, 50, 0)
        assert active_replay_bundle(BENCHMARKS, config, 200, 50, 0) is first
        assert self._loads() == before + 1
        second = active_replay_bundle(BENCHMARKS, config, 200, 50, 1)
        assert second is not None and second is not first
        assert list(replaystore._RESIDENT) == [entries[1]["path"]]
        assert self._loads() == before + 2
        # The first sweep's bundle is gone: asking again reloads it.
        assert active_replay_bundle(BENCHMARKS, config, 200, 50, 0) is not first
        assert self._loads() == before + 3

    @pytest.mark.parametrize("damage", ["checksum", "unreadable"])
    def test_quarantined_artifact_never_evicts_the_resident(self, two_sweeps, damage):
        from pathlib import Path

        from repro.runner import replaystore
        from repro.runner.faults import corrupt_file
        from repro.runner.integrity import checksum_path

        config, entries = two_sweeps
        resident = active_replay_bundle(BENCHMARKS, config, 200, 50, 0)
        loads = self._loads()
        bad = Path(entries[1]["path"])
        if damage == "checksum":
            corrupt_file(bad)
        else:
            checksum_path(bad).unlink()
            bad.write_bytes(b"not an npz")
        assert active_replay_bundle(BENCHMARKS, config, 200, 50, 1) is None
        assert (bad.parent / "quarantine" / bad.name).is_file()
        assert list(replaystore._RESIDENT) == [entries[0]["path"]]
        assert active_replay_bundle(BENCHMARKS, config, 200, 50, 0) is resident
        # The bad path stays a miss without another load attempt.
        assert active_replay_bundle(BENCHMARKS, config, 200, 50, 1) is None
        assert self._loads() == loads


class TestRunnerIntegration:
    POLICIES = ("lru", "srrip", "ship")

    def _jobs(self, config, quota=400, warmup=100):
        return [
            WorkloadJob.for_workload(
                WORKLOAD, config, p, quota=quota, warmup=warmup, master_seed=0
            )
            for p in self.POLICIES
        ]

    def test_sweep_results_identical_with_and_without_replay(
        self, tmp_path, monkeypatch
    ):
        config = golden_config()
        store = ResultStore(tmp_path / "results")
        replayed = ParallelRunner(jobs=1, store=store, use_cache=False).run(
            self._jobs(config)
        )
        monkeypatch.setenv("REPRO_NO_REPLAY", "1")
        fused = ParallelRunner(jobs=1, store=store, use_cache=False).run(
            self._jobs(config)
        )
        assert [r.to_dict() for r in replayed] == [r.to_dict() for r in fused]

    def test_sweep_materialises_one_artifact(self, tmp_path):
        config = golden_config()
        store = ResultStore(tmp_path / "results")
        runner = ParallelRunner(jobs=1, store=store)
        runner.run(self._jobs(config))
        artifacts = list((tmp_path / "results" / "traces").glob("replay-*.npz"))
        assert len(artifacts) == 1

    def test_single_job_batches_skip_capture(self, tmp_path):
        config = golden_config()
        store = ResultStore(tmp_path / "results")
        runner = ParallelRunner(jobs=1, store=store)
        runner.run(self._jobs(config)[:1])
        assert not list((tmp_path / "results" / "traces").glob("replay-*.npz"))


def _assert_typed(tape):
    """Every stream of *tape* is a typed buffer, never a Python list."""
    assert type(tape.steps) is bytearray
    assert type(tape.ev_kind) is bytearray
    for field in (tape.ev_step, tape.ev_addr, tape.ev_pc):
        assert type(field) is array and field.typecode == "q"


class TestTapeArrays:
    def test_arrays_round_trip_native_types(self):
        tape = CoreTape()
        tape.steps.extend([0, 1, 2])
        tape.ev_step.extend([2, 2])
        tape.ev_kind.extend([3, 5])
        tape.ev_addr.extend([123, 2**40])
        tape.ev_pc.extend([7, 0])
        events = tape.events_array()
        assert events["step"].tolist() == [2, 2]
        assert events["kind"].tolist() == [3, 5]
        assert events["addr"].tolist() == [123, 2**40]
        steps = tape.steps_array()
        assert steps.dtype == np.uint8
        assert steps.tolist() == [0, 1, 2]
        copy = CoreTape.from_arrays(steps, events)
        _assert_typed(copy)
        assert copy.steps == tape.steps
        assert copy.ev_step == tape.ev_step and copy.ev_kind == tape.ev_kind
        assert copy.ev_addr == tape.ev_addr and copy.ev_pc == tape.ev_pc

    def test_captured_extended_and_loaded_tapes_are_typed(self, tmp_path):
        lean = capture_workload(BENCHMARKS, golden_config(), QUOTA, WARMUP, 0, slack=0.0)
        for tape in lean.tapes:
            _assert_typed(tape)
        assert run_replay(_engine("dip"), lean) is not None
        assert any(tape.length > lean.meta["length"] for tape in lean.tapes)
        for tape in lean.tapes:
            _assert_typed(tape)
        path = tmp_path / "replay-lean.npz"
        save_bundle(lean, path)
        for tape in load_bundle(path).tapes:
            _assert_typed(tape)

    def test_decoded_bundle_costs_under_40_bytes_per_event(self, tmp_path):
        # Large enough that per-bundle fixed costs (meta, objects) vanish
        # against the per-event tapes.  Python-int lists cost ~120 B/event.
        # The bound covers the whole loaded bundle, encoded checkpoints
        # and tape-end states included.
        bundle = capture_workload(BENCHMARKS, golden_config(), 8000, 2000, 0)
        path = tmp_path / "replay-big.npz"
        save_bundle(bundle, path)
        del bundle
        tracemalloc.start()
        try:
            loaded = load_bundle(path)
            held, _peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        events = sum(len(tape.ev_step) for tape in loaded.tapes)
        assert events > 10_000
        assert held / events <= 40
