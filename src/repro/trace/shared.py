"""Zero-copy shared trace buffers for multi-job runs.

A synthetic trace is fully determined by ``(benchmark, calibration
geometry, core id, master seed)`` plus the fixed chunk schedule — every
job that shares a (workload, seed) pair consumes the *same* access
stream, yet historically each worker process regenerated it from scratch.
This module materialises each distinct trace **once** as a flat
structured-NumPy file under the result store (``traces/<key>.npy``, where
``key`` is a content address over the generation parameters) and lets
every consumer — pool workers and the parent alike — map it read-only via
``np.load(..., mmap_mode="r")``.  The mapping is zero-copy: all processes
share the same page-cache pages, nothing crosses the process pipe, and a
warm store serves later invocations without generating anything at all.

Equivalence contract: a :class:`SharedTraceSource` yields a stream
bit-identical to a plain :class:`~repro.trace.benchmarks.TraceSource`
with the same parameters.  The buffer holds exactly the chunks the
generator would produce; while replaying, the RNG is never touched, and
the first generation past the materialised prefix (or a ``restart``)
fast-forwards the generator/pattern/echo state by re-running the replayed
chunks state-only, so live continuation chunks match too.

The lifecycle is driven by :class:`~repro.runner.parallel.ParallelRunner`:

1. the parent scans a miss batch for trace identities needed by two or
   more jobs and calls :meth:`SharedTraceStore.materialise` for each;
2. the resulting manifest rides along with every worker payload;
   :func:`install_manifest` verifies the files once per executing process;
3. :func:`make_source` (used by the simulation builders) transparently
   returns a :class:`SharedTraceSource` over its own mapping of the
   buffer for registered identities and a plain generator otherwise, so
   a mapping lives exactly as long as its source;
4. the parent clears its registry after the batch; files persist in the
   store and are reused content-addressed by later invocations.

``REPRO_NO_SHARED_TRACES`` disables the whole mechanism (every source
generates privately, the pre-sharing behaviour).
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from pathlib import Path

import numpy as np

from repro.trace.benchmarks import BENCHMARKS, BenchmarkSpec, Geometry, TraceSource

#: One record per access; ``np.load(mmap_mode="r")`` maps it zero-copy.
TRACE_DTYPE = np.dtype([("addr", "<i8"), ("pc", "<i8"), ("write", "?")])

#: Bump when the buffer layout or the generator's chunk schedule changes;
#: part of every content address, so stale files are simply never mapped.
FORMAT_VERSION = 1


def shared_traces_enabled() -> bool:
    """Sharing is on unless ``REPRO_NO_SHARED_TRACES`` is set."""
    return not os.environ.get("REPRO_NO_SHARED_TRACES")


def trace_key(
    spec_name: str, geometry: Geometry, core_id: int, master_seed: int, n_chunks: int
) -> str:
    """Content address of one materialised trace buffer."""
    blob = json.dumps(
        {
            "v": FORMAT_VERSION,
            "benchmark": spec_name,
            "llc_num_sets": geometry.llc_num_sets,
            "l2_blocks": geometry.l2_blocks,
            "l1_blocks": geometry.l1_blocks,
            "core_id": core_id,
            "master_seed": master_seed,
            "chunk": TraceSource.CHUNK,
            "n_chunks": n_chunks,
        },
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(blob.encode()).hexdigest()[:40]


def chunks_for(quota: int, warmup: int, slack: float = 2.0) -> int:
    """Buffer length (in chunks) covering one run's expected consumption.

    A core consumes at least ``warmup + quota`` accesses; cores that
    finish early keep running until the slowest core completes, and that
    skew can exceed any fixed *slack*: in the 4-core tournament mix
    ``astar+apsi+black+deal``, ``deal`` runs 91,094 accesses against a
    57,344-access buffer.  Under-coverage is never a correctness issue —
    a source that outruns its buffer falls back to live generation.
    """
    accesses = max(1, round((quota + warmup) * slack))
    return -(-accesses // TraceSource.CHUNK)


def _identity(
    spec_name: str, geometry: Geometry, core_id: int, master_seed: int
) -> tuple:
    return (
        spec_name,
        geometry.llc_num_sets,
        geometry.l2_blocks,
        geometry.l1_blocks,
        core_id,
        master_seed,
    )


class SharedTraceStore:
    """Content-addressed trace buffers under ``<root>/``.

    ``stats`` counts real generation work (``materialised``) separately
    from warm-store reuse (``reused``) — the "each trace generated exactly
    once" property is asserted against the former.
    """

    def __init__(self, root: str | Path) -> None:
        self.root = Path(root)
        self.stats = {"materialised": 0, "reused": 0}

    def path_for(self, key: str) -> Path:
        return self.root / f"{key}.npy"

    def materialise(
        self,
        spec: BenchmarkSpec,
        geometry: Geometry,
        core_id: int,
        master_seed: int,
        n_chunks: int,
    ) -> dict:
        """Generate (or find) one trace buffer; returns its manifest entry."""
        # Lazy import: repro.runner.parallel imports this module, so the
        # integrity/fault helpers can't be top-level without a cycle.
        from repro.runner import faults
        from repro.runner.integrity import (
            quarantine,
            verify_artifact,
            write_checksum,
            write_meta,
        )

        key = trace_key(spec.name, geometry, core_id, master_seed, n_chunks)
        path = self.path_for(key)
        if path.is_file() and verify_artifact(path) is False:
            # Damage found before reuse: preserve the evidence out of the
            # live namespace and fall through to regeneration.
            quarantine(path, reason="trace checksum mismatch")
        if path.is_file():
            self.stats["reused"] += 1
        else:
            self.root.mkdir(parents=True, exist_ok=True)
            source = TraceSource(spec, geometry, core_id, master_seed)
            chunk = TraceSource.CHUNK
            out = np.empty(n_chunks * chunk, dtype=TRACE_DTYPE)
            for i in range(n_chunks):
                addrs, pcs, writes = source._generate_chunk()
                block = out[i * chunk : (i + 1) * chunk]
                block["addr"] = addrs
                block["pc"] = pcs
                block["write"] = writes
            fd, tmp = tempfile.mkstemp(dir=self.root, suffix=".tmp")
            try:
                with os.fdopen(fd, "wb") as fh:
                    np.save(fh, out)
                os.replace(tmp, path)
            except BaseException:
                try:
                    os.unlink(tmp)
                except OSError:
                    pass
                raise
            write_checksum(path)
            # Generator provenance rides in a meta sidecar, so the gc/ls
            # inventory and ``targets info`` render synthetic buffers
            # uniformly with ingested ones.
            write_meta(
                path,
                {
                    "kind": "synthetic",
                    "generator": spec.name,
                    "pattern": spec.pattern,
                    "paper_class": spec.paper_class,
                    "core_id": core_id,
                    "master_seed": master_seed,
                    "n_chunks": n_chunks,
                    "format_version": FORMAT_VERSION,
                },
            )
            faults.corrupt_artifact("trace", path, path.name)
            self.stats["materialised"] += 1
        return {
            "benchmark": spec.name,
            "geometry": [
                geometry.llc_num_sets,
                geometry.l2_blocks,
                geometry.l1_blocks,
            ],
            "core_id": core_id,
            "master_seed": master_seed,
            "n_chunks": n_chunks,
            "path": str(path),
        }


# -- per-process registry ------------------------------------------------------

#: Identity tuple -> buffer path, installed from a manifest.  Paths, not
#: mappings: :func:`lookup` maps a buffer per source, so a mapping (and
#: the page-cache pages it has touched, which count towards this
#: process's RSS) dies with the source instead of living as long as the
#: process.
_ACTIVE: dict[tuple, str] = {}


def install_manifest(entries: list[dict]) -> None:
    """Verify every manifest buffer and register it for :func:`make_source`.

    A checksum-mismatched file is quarantined and left unregistered: a
    bit-flipped buffer would still map and feed silently wrong accesses
    into a simulation, so it must leave the live namespace before anyone
    trusts it.  Each path is verified once per process; mapping waits for
    the first source that needs it.
    """
    from repro.runner.integrity import quarantine, verify_once

    active: dict[tuple, str] = {}
    for entry in entries:
        path = entry["path"]
        if verify_once(path) is False:
            quarantine(path, reason="trace checksum mismatch")
            continue
        sets, l2b, l1b = entry["geometry"]
        geometry = Geometry(sets, l2b, l1b)
        ident = _identity(
            entry["benchmark"], geometry, entry["core_id"], entry["master_seed"]
        )
        active[ident] = path
    _ACTIVE.clear()
    _ACTIVE.update(active)


def clear_manifest() -> None:
    """Drop the registry."""
    _ACTIVE.clear()


def lookup(
    spec_name: str, geometry: Geometry, core_id: int, master_seed: int
) -> np.ndarray | None:
    """A fresh read-only mapping of one identity's buffer, or ``None``.

    ``None`` when the identity is unregistered or its file is unreadable
    or mis-shaped; the source then generates privately, which is always
    equivalent.
    """
    path = _ACTIVE.get(_identity(spec_name, geometry, core_id, master_seed))
    if path is None:
        return None
    try:
        arr = np.load(path, mmap_mode="r")
    except (OSError, ValueError):
        return None
    if arr.dtype != TRACE_DTYPE or arr.ndim != 1:
        return None
    return arr


def make_source(
    spec: BenchmarkSpec | str,
    geometry: Geometry,
    core_id: int,
    master_seed: int = 0,
) -> TraceSource:
    """A trace source for one core: shared-buffer replay when registered.

    The single construction point the simulation builders go through, so
    every run — pooled, inline or direct — transparently benefits from an
    installed manifest.  ``tgt:``-prefixed names (and resolved
    :class:`~repro.targets.registry.TargetSpec` objects) dispatch to the
    ingested-trace frontend, which memory-maps its own buffers.
    """
    if isinstance(spec, str):
        if spec.startswith("tgt:"):
            from repro.targets.registry import make_target_source

            return make_target_source(spec, geometry, core_id, master_seed)
        spec = BENCHMARKS[spec]
    elif getattr(spec, "kind", None) == "target":
        from repro.targets.registry import make_target_source

        return make_target_source(spec, geometry, core_id, master_seed)
    buffer = lookup(spec.name, geometry, core_id, master_seed)
    if buffer is not None:
        return SharedTraceSource(spec, geometry, core_id, master_seed, buffer)
    return TraceSource(spec, geometry, core_id, master_seed)


class SharedTraceSource(TraceSource):
    """A :class:`TraceSource` replaying a materialised prefix zero-copy.

    While the prefix lasts, ``_refill`` slices the mapped buffer and the
    RNG is never drawn; the moment the run outlives the prefix (or
    ``restart`` needs generator state), the replayed chunks are re-run
    state-only so live generation continues bit-identically.
    """

    __slots__ = ("_shared",)

    def __init__(
        self,
        spec: BenchmarkSpec,
        geometry: Geometry,
        core_id: int,
        master_seed: int,
        shared: np.ndarray,
    ) -> None:
        super().__init__(spec, geometry, core_id, master_seed)
        self._shared = shared

    def _refill(self) -> None:
        shared = self._shared
        if shared is not None:
            start = self.chunks_generated * self.CHUNK
            end = start + self.CHUNK
            if end <= len(shared):
                # Zero-copy field views into the mapped buffer; consumers
                # pre-decode/convert per chunk exactly like generated chunks.
                block = shared[start:end]
                self._addrs = block["addr"]
                self._pcs = block["pc"]
                self._writes = block["write"]
                self._pos = 0
                self.chunks_generated += 1
                return
            self._fast_forward()
        super()._refill()

    def _fast_forward(self) -> None:
        """Advance generator state past the replayed prefix, then detach."""
        self._shared = None
        replayed = self.chunks_generated
        self.chunks_generated = 0
        for _ in range(replayed):
            self._generate_chunk()

    def restart(self) -> None:
        if self._shared is not None:
            # ``restart`` resets the pattern but keeps the RNG stream, so
            # the generator state must first catch up with the replay.
            self._fast_forward()
        super().restart()
