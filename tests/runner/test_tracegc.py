"""``repro-experiments traces gc``: prune unreferenced shared buffers."""

from __future__ import annotations

import pytest

from repro.experiments.__main__ import main
from repro.runner import ParallelRunner, ResultStore, WorkloadJob
from repro.runner.tracegc import collect_garbage
from repro.sim.config import SystemConfig
from repro.trace.workloads import Workload


@pytest.fixture
def populated_store(tmp_path):
    config = SystemConfig.scaled(16).with_cores(2)
    workload = Workload("g", ("mcf", "libq"))
    jobs = [
        WorkloadJob.for_workload(
            workload, config, policy, quota=300, warmup=80, master_seed=0
        )
        for policy in ("lru", "srrip", "ship")
    ]
    root = tmp_path / "results"
    ParallelRunner(jobs=1, store=ResultStore(root)).run(jobs)
    return root


class TestCollectGarbage:
    def test_referenced_buffers_survive(self, populated_store):
        traces = populated_store / "traces"
        before = sorted(p.name for p in traces.iterdir())
        # The sweep materialised shared traces and one replay artifact.
        assert any(name.endswith(".npy") for name in before)
        assert any(name.startswith("replay-") for name in before)
        report = collect_garbage(populated_store)
        assert report.removed == []
        assert sorted(p.name for p in traces.iterdir()) == before

    def test_orphans_are_pruned(self, populated_store):
        traces = populated_store / "traces"
        orphan_trace = traces / ("ab" * 20 + ".npy")
        orphan_trace.write_bytes(b"x" * 64)
        orphan_replay = traces / ("replay-" + "cd" * 20 + ".npz")
        orphan_replay.write_bytes(b"y" * 64)
        report = collect_garbage(populated_store)
        assert sorted(report.removed) == sorted(
            [orphan_trace.name, orphan_replay.name]
        )
        assert report.freed_bytes == 128
        assert not orphan_trace.exists() and not orphan_replay.exists()

    def test_replay_artifacts_survive_a_slack_change(self, populated_store):
        """Artifacts are matched by their embedded capture identity, so a
        referenced capture written with another slack (which changes the
        content address) must survive gc."""
        from repro.cpu.capture import capture_workload
        from repro.runner.integrity import write_checksum
        from repro.runner.replaystore import replay_key, save_bundle
        from repro.sim.build import capture_identity

        config = SystemConfig.scaled(16).with_cores(2)
        benchmarks = ("mcf", "libq")
        identity = capture_identity(benchmarks, config, 300, 80, 0)
        traces = populated_store / "traces"
        wide = traces / f"replay-{replay_key(identity, 0.9)}.npz"
        assert not wide.exists()
        save_bundle(capture_workload(benchmarks, config, 300, 80, 0, slack=0.9), wide)
        write_checksum(wide)
        before = {p.name for p in traces.glob("replay-*.npz")}
        assert wide.name in before and len(before) == 2
        report = collect_garbage(populated_store)
        assert report.removed == []
        assert wide.name in report.kept
        assert {p.name for p in traces.glob("replay-*.npz")} == before

    def test_foreign_format_artifact_is_pruned_not_corrupt(self, populated_store):
        """An intact, checksummed capture of another artifact format (a
        store written before a format bump) is stale garbage: gc prunes
        it instead of reporting or quarantining it as corrupt."""
        from repro.cpu.capture import CAPTURE_FORMAT
        from repro.runner.integrity import write_checksum
        from repro.runner.replaystore import load_bundle, save_bundle

        traces = populated_store / "traces"
        current = next(iter(traces.glob("replay-*.npz")))
        bundle = load_bundle(current)
        bundle.meta["format"] = CAPTURE_FORMAT + 1
        foreign = traces / ("replay-" + "deadbeef" * 5 + ".npz")
        save_bundle(bundle, foreign)
        write_checksum(foreign)
        report = collect_garbage(populated_store, fix=True)
        assert report.corrupt == []
        assert foreign.name in report.removed
        assert foreign.name + ".sha256" in report.removed
        assert current.name in report.kept
        assert not foreign.exists()
        assert not (traces / "quarantine").exists()

    def test_stale_tmp_files_are_pruned_after_grace(self, populated_store):
        import os
        import time

        traces = populated_store / "traces"
        stale = traces / "tmpabc123.tmp"
        stale.write_bytes(b"partial write")
        old = time.time() - 2 * 3600
        os.utime(stale, (old, old))
        fresh = traces / "tmpdef456.tmp"
        fresh.write_bytes(b"live writer")
        report = collect_garbage(populated_store)
        assert stale.name in report.removed and not stale.exists()
        # A young .tmp may belong to a writer that is still running.
        assert fresh.exists() and fresh.name in report.kept

    def test_dry_run_deletes_nothing(self, populated_store):
        traces = populated_store / "traces"
        orphan = traces / ("ef" * 20 + ".npy")
        orphan.write_bytes(b"z" * 32)
        report = collect_garbage(populated_store, dry_run=True)
        assert report.dry_run and orphan.name in report.removed
        assert orphan.exists()

    def test_results_without_traces_dir(self, tmp_path):
        report = collect_garbage(tmp_path / "empty")
        assert report.removed == [] and report.kept == []


class TestCorruptDetection:
    def _damage_one(self, populated_store, pattern):
        from repro.runner.faults import corrupt_file

        target = next(iter(sorted((populated_store / "traces").glob(pattern))))
        corrupt_file(target)
        return target

    def test_corrupt_referenced_trace_is_reported_not_deleted(
        self, populated_store
    ):
        target = self._damage_one(populated_store, "*.npy")
        report = collect_garbage(populated_store)
        assert target.name in report.corrupt
        # Without --fix the evidence stays put (and is never "removed").
        assert target.exists()
        assert target.name not in report.removed

    def test_fix_quarantines_corrupt_artifacts(self, populated_store):
        trace = self._damage_one(populated_store, "*.npy")
        replay = self._damage_one(populated_store, "replay-*.npz")
        report = collect_garbage(populated_store, fix=True)
        assert {trace.name, replay.name} <= set(report.corrupt)
        quarantine = populated_store / "traces" / "quarantine"
        assert not trace.exists() and (quarantine / trace.name).exists()
        assert not replay.exists() and (quarantine / replay.name).exists()
        # A later pass reports what the quarantine holds.
        again = collect_garbage(populated_store)
        assert {trace.name, replay.name} <= set(again.quarantined)
        assert again.corrupt == []

    def test_dry_run_never_quarantines(self, populated_store):
        target = self._damage_one(populated_store, "*.npy")
        report = collect_garbage(populated_store, dry_run=True, fix=True)
        assert target.name in report.corrupt and target.exists()

    def test_orphan_sidecars_are_swept_with_their_artifact(
        self, populated_store
    ):
        traces = populated_store / "traces"
        orphan = traces / ("ab" * 20 + ".npy")
        orphan.write_bytes(b"x" * 64)
        sidecar = traces / (orphan.name + ".sha256")
        sidecar.write_text("0" * 64 + "\n")
        report = collect_garbage(populated_store)
        assert orphan.name in report.removed and sidecar.name in report.removed
        assert not orphan.exists() and not sidecar.exists()
        # Sidecars of kept artifacts survive.
        assert list(traces.glob("*.sha256"))


class TestCli:
    def test_traces_gc_subcommand(self, populated_store, capsys):
        orphan = populated_store / "traces" / ("0f" * 20 + ".npy")
        orphan.write_bytes(b"o")
        assert main(["traces", "gc", "--results-dir", str(populated_store)]) == 0
        out = capsys.readouterr().out
        assert "removed" in out and orphan.name in out
        assert not orphan.exists()

    def test_traces_gc_fix_flag(self, populated_store, capsys):
        from repro.runner.faults import corrupt_file

        target = next(iter(sorted((populated_store / "traces").glob("*.npy"))))
        corrupt_file(target)
        assert (
            main(["traces", "gc", "--fix", "--results-dir", str(populated_store)])
            == 0
        )
        out = capsys.readouterr().out
        assert "quarantined" in out and target.name in out
        assert not target.exists()
        assert (populated_store / "traces" / "quarantine" / target.name).exists()

    def test_traces_requires_gc_action(self):
        with pytest.raises(SystemExit):
            main(["traces", "prune"])

    def test_gc_requires_store(self, capsys):
        assert main(["traces", "gc", "--results-dir", ""]) == 2
