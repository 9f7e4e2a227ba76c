"""Kill-switch precedence: every env combination picks one documented kernel.

The three kernel-family switches — ``REPRO_NO_FASTPATH``,
``REPRO_NO_REPLAY`` and ``REPRO_NO_SHARED_TRACES`` — must resolve
deterministically in the documented precedence order (generic beats
fused beats replay; shared-trace materialisation is orthogonal).  This
suite enumerates all eight combinations against
:func:`repro.sim.multi.kernel_selection` and checks end to end that a
replay-registered ``run_workload`` — and a swept ``ParallelRunner``
batch — produces identical results whichever kernel the switches
resolve to.
"""

from __future__ import annotations

from itertools import product

import pytest

from repro.cpu import replay
from repro.cpu.fastpath import fastpath_enabled
from repro.golden import golden_config
from repro.runner import ParallelRunner, ResultStore, WorkloadJob
from repro.runner.replaystore import (
    REGISTRY_STATS,
    ReplayStore,
    clear_replay_manifest,
    install_replay_manifest,
)
from repro.sim.multi import kernel_selection, run_workload
from repro.trace.shared import shared_traces_enabled
from repro.trace.workloads import Workload

FLAGS = ("REPRO_NO_FASTPATH", "REPRO_NO_REPLAY", "REPRO_NO_SHARED_TRACES")

COMBOS = list(product((False, True), repeat=len(FLAGS)))
COMBO_IDS = [
    "+".join(flag.replace("REPRO_", "") for flag, on in zip(FLAGS, combo) if on)
    or "none"
    for combo in COMBOS
]


#: The predicate each switch turns off.
PREDICATES = {
    "REPRO_NO_FASTPATH": fastpath_enabled,
    "REPRO_NO_REPLAY": replay.replay_enabled,
    "REPRO_NO_SHARED_TRACES": shared_traces_enabled,
}


def _set_combo(combo, monkeypatch):
    for flag, on in zip(FLAGS, combo):
        if on:
            monkeypatch.setenv(flag, "1")


def _expected(no_fastpath, no_replay, _no_shared_traces):
    if no_fastpath:
        return "generic"
    if no_replay:
        return "fast"
    return "replay"


@pytest.fixture(autouse=True)
def _clean_env(monkeypatch):
    for flag in FLAGS:
        monkeypatch.delenv(flag, raising=False)


@pytest.mark.parametrize("combo", COMBOS, ids=COMBO_IDS)
def test_every_combination_resolves_deterministically(combo, monkeypatch):
    _set_combo(combo, monkeypatch)
    assert kernel_selection() == _expected(*combo)
    # The predicates agree with the resolution.
    selected = kernel_selection()
    assert fastpath_enabled() == (selected != "generic")
    assert replay.replay_enabled() == (selected == "replay")


def test_shared_traces_switch_never_changes_the_kernel(monkeypatch):
    for combo in COMBOS:
        for flag, on in zip(FLAGS, combo):
            monkeypatch.setenv(flag, "1") if on else monkeypatch.delenv(
                flag, raising=False
            )
        without = kernel_selection()
        monkeypatch.setenv("REPRO_NO_SHARED_TRACES", "1")
        assert kernel_selection() == without


class TestSwitchValueSemantics:
    """A switch is off when unset or empty and on for any other value."""

    @pytest.mark.parametrize("flag", FLAGS)
    @pytest.mark.parametrize("value", [None, ""], ids=["unset", "empty"])
    def test_off_values(self, flag, value, monkeypatch):
        if value is not None:
            monkeypatch.setenv(flag, value)
        assert PREDICATES[flag]()
        assert kernel_selection() == "replay"

    @pytest.mark.parametrize("flag", FLAGS)
    @pytest.mark.parametrize("value", ["1", "yes", "true"])
    def test_on_values(self, flag, value, monkeypatch):
        monkeypatch.setenv(flag, value)
        assert not PREDICATES[flag]()
        expected = _expected(*(f == flag for f in FLAGS))
        assert kernel_selection() == expected


class TestRunWorkloadRouting:
    """The resolved kernel actually drives a replay-registered run — and
    every resolution produces the identical result."""

    BENCHMARKS = ("mcf", "libq")
    QUOTA, WARMUP = 300, 100

    def _run(self, config):
        return run_workload(
            Workload("sel", self.BENCHMARKS),
            config,
            "tadrrip",
            quota=self.QUOTA,
            warmup=self.WARMUP,
            master_seed=0,
        ).to_dict()

    def test_all_kernels_agree_end_to_end(self, tmp_path, monkeypatch):
        config = golden_config()
        store = ReplayStore(tmp_path)
        entry = store.materialise(
            self.BENCHMARKS, config, self.QUOTA, self.WARMUP, 0
        )
        install_replay_manifest([entry])
        try:
            loads = REGISTRY_STATS["bundle_loads"]
            baseline = self._run(config)
            # Observable proof the replay kernel ran: the registered
            # bundle was loaded for it.
            assert REGISTRY_STATS["bundle_loads"] == loads + 1
            monkeypatch.setenv("REPRO_NO_REPLAY", "1")
            fused = self._run(config)
            monkeypatch.setenv("REPRO_NO_FASTPATH", "1")
            generic = self._run(config)
        finally:
            clear_replay_manifest()
        assert fused == baseline
        assert generic == baseline

    @pytest.mark.parametrize("combo", COMBOS, ids=COMBO_IDS)
    def test_each_combination_loads_the_bundle_iff_replay(
        self, combo, tmp_path, monkeypatch
    ):
        config = golden_config()
        store = ReplayStore(tmp_path)
        entry = store.materialise(
            self.BENCHMARKS, config, self.QUOTA, self.WARMUP, 0
        )
        monkeypatch.setenv("REPRO_NO_REPLAY", "1")
        reference = self._run(config)
        monkeypatch.delenv("REPRO_NO_REPLAY")
        _set_combo(combo, monkeypatch)
        install_replay_manifest([entry])
        try:
            loads = REGISTRY_STATS["bundle_loads"]
            result = self._run(config)
            loaded = REGISTRY_STATS["bundle_loads"] - loads
        finally:
            clear_replay_manifest()
        assert result == reference
        assert loaded == (1 if kernel_selection() == "replay" else 0)


class TestSweepCapturePlanning:
    """A swept ``ParallelRunner`` batch captures an artifact exactly when
    replay is selected and materialises shared traces exactly when
    sharing is on — and its results never depend on either."""

    POLICIES = ("lru", "srrip", "ship")
    QUOTA, WARMUP = 300, 100

    def _sweep(self, root):
        config = golden_config()
        jobs = [
            WorkloadJob.for_workload(
                Workload("sel", ("mcf", "libq")),
                config,
                policy,
                quota=self.QUOTA,
                warmup=self.WARMUP,
                master_seed=0,
            )
            for policy in self.POLICIES
        ]
        with ParallelRunner(jobs=1, store=ResultStore(root)) as runner:
            results = runner.run(jobs)
        return [r.to_dict() for r in results]

    @pytest.mark.parametrize("combo", COMBOS, ids=COMBO_IDS)
    def test_each_combination_plans_its_own_artifacts(
        self, combo, tmp_path, monkeypatch
    ):
        monkeypatch.setenv("REPRO_NO_REPLAY", "1")
        monkeypatch.setenv("REPRO_NO_SHARED_TRACES", "1")
        reference = self._sweep(tmp_path / "reference")
        monkeypatch.delenv("REPRO_NO_REPLAY")
        monkeypatch.delenv("REPRO_NO_SHARED_TRACES")
        _set_combo(combo, monkeypatch)
        assert self._sweep(tmp_path / "results") == reference
        traces = tmp_path / "results" / "traces"
        artifacts = list(traces.glob("replay-*.npz"))
        buffers = list(traces.glob("*.npy"))
        assert len(artifacts) == (1 if kernel_selection() == "replay" else 0)
        assert bool(buffers) == shared_traces_enabled()
