"""Content-addressed replay-capture artifacts and their per-process registry.

The second kind of shared buffer in the result store's ``traces/``
directory (next to the zero-copy trace buffers of
:mod:`repro.trace.shared`): one ``replay-<key>.npz`` per distinct
``(workload, private-level platform, budgets, seed)``, holding the
private-level streams a whole policy sweep replays through the
LLC-filtered kernel (:mod:`repro.cpu.replay`).

Artifacts are structured-NumPy end to end — per-core ``uint8`` step
streams, structured event records and JSON-encoded checkpoint lists,
plus one JSON meta blob (bundle identity, baseline/finish stat records,
tape-end states) — written atomically and addressed by a SHA-256 over
the capture identity, so a stale or foreign file is simply never loaded.
Each checkpoint list is its own member so a load can leave it encoded:
only a finalised replay ever reads it.

The lifecycle mirrors shared traces, driven by
:class:`~repro.runner.parallel.ParallelRunner`:

1. the parent scans a miss batch for platform identities swept by two or
   more jobs and schedules one **capture job** per identity in the
   batch's worker queue, ahead of the swept jobs that depend on it;
2. the growing manifest rides along with every worker payload;
   :func:`install_replay_manifest` registers the artifacts in the
   executing process;
3. :func:`active_replay_bundle` (consulted by
   :func:`repro.sim.multi.run_workload`) lazily loads the bundle for a
   registered identity and keeps it resident until another sweep's
   bundle replaces it, so every swept job runs on the replay kernel with
   an automatic fallback to the fused loop;
4. the parent clears the registry after the batch; files persist and are
   reused content-addressed by later invocations.

``REPRO_NO_REPLAY`` (or ``REPRO_NO_FASTPATH``) disables the whole
mechanism; results are bit-identical either way.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from pathlib import Path

import numpy as np

from repro.cpu.capture import CAPTURE_FORMAT, EVENT_DTYPE, CaptureBundle, CoreTape
from repro.runner import faults
from repro.runner.integrity import quarantine, verify_artifact, write_checksum

_KEY_LEN = 40


def replay_key(identity: tuple, slack: float) -> str:
    """Content address of one capture artifact."""
    blob = json.dumps(
        {"v": CAPTURE_FORMAT, "identity": list(identity), "slack": slack},
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(blob.encode()).hexdigest()[:_KEY_LEN]


def save_bundle(bundle: CaptureBundle, path: Path | str) -> None:
    """Atomically write *bundle* as one ``.npz`` (arrays + JSON meta blob)."""
    path = Path(path)
    blob = {
        "meta": bundle.meta,
        "tapes": [
            {
                "baseline": tape.baseline,
                "finish": tape.finish,
                "length": tape.length,
                # A live-extended tape ends where its continuation is now.
                "end_state": (
                    tape.live_sim.snapshot_state()
                    if tape.live_sim is not None
                    else tape.end_state
                ),
            }
            for tape in bundle.tapes
        ],
    }
    arrays = {"meta_json": _json_member(blob)}
    for i, tape in enumerate(bundle.tapes):
        arrays[f"steps_{i}"] = tape.steps_array()
        arrays[f"events_{i}"] = tape.events_array()
        arrays[f"checkpoints_{i}"] = _json_member(tape.checkpoints)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            np.savez(fh, **arrays)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def _json_member(value) -> np.ndarray:
    return np.frombuffer(json.dumps(value).encode(), dtype=np.uint8)


def identity_from_meta(meta: dict) -> tuple:
    """Reconstruct an artifact's capture identity from its embedded meta.

    Matches :func:`repro.sim.build.capture_identity` field for field, so
    consumers (the gc pass) can recognise an on-disk artifact regardless
    of the slack it was captured with.
    """
    return (
        tuple(meta["benchmarks"]),
        meta["l1_sets"],
        meta["l1_ways"],
        meta["l2_sets"],
        meta["l2_ways"],
        meta["llc_sets"],
        bool(meta["l1_next_line_prefetch"]),
        bool(meta["l2_stride_prefetch"]),
        int(meta["l2_prefetch_degree"]) if meta["l2_stride_prefetch"] else 0,
        int(meta["quota"]),
        int(meta["warmup"]),
        int(meta["master_seed"]),
        int(meta["chunk"]),
    )


def load_meta(path: Path | str) -> dict | None:
    """Just an artifact's meta block (no tapes); ``None`` on any damage.

    An intact artifact of another :data:`CAPTURE_FORMAT` still returns
    its meta (check ``meta["format"]``): it is stale, not damaged.
    """
    try:
        with np.load(path, allow_pickle=False) as npz:
            blob = json.loads(bytes(npz["meta_json"]).decode())
            meta = blob["meta"]
    except Exception:
        # "Any damage" includes mid-file corruption, which surfaces as
        # BadZipFile/UnicodeDecodeError/... depending on which bytes hit.
        return None
    return meta if isinstance(meta, dict) else None


def load_bundle(path: Path | str) -> CaptureBundle | None:
    """Load an artifact back into a live bundle; ``None`` on any damage.

    Checkpoint lists stay encoded on their tapes until first read.
    """
    try:
        with np.load(path, allow_pickle=False) as npz:
            blob = json.loads(bytes(npz["meta_json"]).decode())
            meta = blob["meta"]
            if meta.get("format") != CAPTURE_FORMAT:
                return None
            tapes = []
            for i, rec in enumerate(blob["tapes"]):
                events = npz[f"events_{i}"]
                if events.dtype != EVENT_DTYPE:
                    return None
                tape = CoreTape.from_arrays(npz[f"steps_{i}"], events)
                tape.store_checkpoints(npz[f"checkpoints_{i}"].tobytes())
                tape.end_state = rec["end_state"]
                tape.baseline = rec["baseline"]
                tape.finish = rec["finish"]
                tape.length = rec["length"]
                tapes.append(tape)
    except Exception:
        # Same contract as load_meta: any damage reads as a miss.
        return None
    return CaptureBundle(meta, tapes)


class ReplayStore:
    """Capture artifacts under a shared-trace directory.

    ``stats`` counts real capture work (``captured``) separately from
    warm-store reuse (``reused``).
    """

    def __init__(self, root: str | Path) -> None:
        self.root = Path(root)
        self.stats = {"captured": 0, "reused": 0}

    def path_for(self, key: str) -> Path:
        return self.root / f"replay-{key}.npz"

    def materialise(
        self,
        benchmarks: tuple[str, ...],
        config,
        quota: int,
        warmup: int,
        master_seed: int,
    ) -> dict:
        """Capture (or find) one artifact; returns its manifest entry."""
        from repro.cpu.capture import REPLAY_SLACK, capture_workload
        from repro.sim.build import capture_identity

        identity = capture_identity(benchmarks, config, quota, warmup, master_seed)
        key = replay_key(identity, REPLAY_SLACK)
        path = self.path_for(key)
        if path.is_file() and verify_artifact(path) is False:
            # Damage found before reuse: preserve the evidence out of the
            # live namespace and fall through to a fresh capture.
            quarantine(path, reason="replay checksum mismatch")
        if path.is_file():
            self.stats["reused"] += 1
        else:
            bundle = capture_workload(
                tuple(benchmarks), config, quota, warmup, master_seed
            )
            save_bundle(bundle, path)
            write_checksum(path)
            faults.corrupt_artifact("replay", path, path.name)
            self.stats["captured"] += 1
        return {"identity": list(identity), "path": str(path)}


# -- per-process registry ------------------------------------------------------

#: Identity tuple -> artifact path, installed from a manifest.
_ACTIVE: dict[tuple, str] = {}
#: Path -> loaded bundle, at most one entry: the sweep in flight.  A
#: sweep's jobs sit together in the supervisor's FIFO queue, so a worker
#: finishes with one bundle before it needs the next, and every job of
#: the sweep that lands on the worker reuses its one load (and shares any
#: live tape extensions).  A second sweep's load replaces the entry, so a
#: long-lived worker holds one platform's tapes, not one per sweep.
_RESIDENT: dict[str, CaptureBundle] = {}
#: Paths that failed their checksum or did not load: misses for the rest
#: of the batch, kept apart so they never evict the resident bundle.
_UNUSABLE: set[str] = set()

#: Monotonic per-process counter of artifact loads from disk; the parallel
#: runner ships per-task deltas back and aggregates them into
#: ``runner.stats`` — a sweep should load each artifact at most once per
#: worker, not once per job.
REGISTRY_STATS = {"bundle_loads": 0}


def _freeze(identity) -> tuple:
    return (tuple(identity[0]),) + tuple(identity[1:])


def install_replay_manifest(entries: list[dict]) -> None:
    """Register every manifest artifact for :func:`active_replay_bundle`."""
    active: dict[tuple, str] = {}
    for entry in entries:
        try:
            active[_freeze(entry["identity"])] = entry["path"]
        except (KeyError, TypeError):
            continue
    _ACTIVE.clear()
    _ACTIVE.update(active)


def clear_replay_manifest() -> None:
    """Drop the registry and its misses (the resident bundle stays).

    A batch ends here, and the next batch may re-capture a quarantined
    path, so a damaged artifact misses for one batch only.
    """
    _ACTIVE.clear()
    _UNUSABLE.clear()


def active_replay_bundle(
    benchmarks: tuple[str, ...], config, quota: int, warmup: int, master_seed: int
):
    """The registered capture bundle for one run identity, or ``None``.

    Loads the artifact on first use and keeps it as the resident bundle;
    an unreadable or mismatched file is quarantined and misses for the
    rest of the batch, so the affected jobs simply run on the fused
    kernel.
    """
    if not _ACTIVE:
        return None
    from repro.sim.build import capture_identity

    identity = capture_identity(benchmarks, config, quota, warmup, master_seed)
    path = _ACTIVE.get(identity)
    if path is None or path in _UNUSABLE:
        return None
    bundle = _RESIDENT.get(path)
    if bundle is not None:
        return bundle
    if verify_artifact(path) is False:
        # Checksum mismatch: a corrupt .npz may still *load* with wrong
        # tape data, so quarantine instead of trusting it.
        quarantine(path, reason="replay checksum mismatch")
        _UNUSABLE.add(path)
        return None
    bundle = load_bundle(path)
    if bundle is None:
        if os.path.isfile(path):
            # Structurally unreadable (truncated/damaged npz): the next
            # materialise should re-capture, not re-reuse it.
            quarantine(path, reason="replay unreadable")
        _UNUSABLE.add(path)
        return None
    REGISTRY_STATS["bundle_loads"] += 1
    _RESIDENT.clear()
    _RESIDENT[path] = bundle
    return bundle
