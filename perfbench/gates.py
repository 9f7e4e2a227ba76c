"""Result-identity gates: store digests, the reference, and the snapshot.

Simulated statistics are deterministic, so every result record a run
leaves in its store must be byte-identical to the record the reference
run left under the same key.  A record is digested over its canonical
JSON (sorted keys, no whitespace); the reference (``reference.json``,
written by :mod:`record`) maps each store key of each (workload, seed)
to that digest.  Keys and digests are truncated to 16 hex digits.

This module reads store files as plain JSON and imports nothing from the
program, so the parent process can run the gates too.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

DIGITS = 16


def canonical_digest(payload: dict) -> str:
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:DIGITS]


def scan_store(root: Path) -> dict:
    """Digest every result record under a result-store root.

    Returns ``records`` (truncated key -> digest) and ``instructions``
    (simulated instructions summed over the snapshots of every record).
    Persisted failure records are skipped: the runner counts those.
    """
    records: dict[str, str] = {}
    instructions = 0.0
    for path in sorted(Path(root).glob("*/*.json")):
        if path.parent.name != path.stem[:2]:
            continue  # not a record: e.g. traces/*.meta.json
        payload = json.loads(path.read_text(encoding="utf-8"))
        if payload.get("kind") == "failure":
            continue
        records[path.stem[:DIGITS]] = canonical_digest(payload)
        result = payload["result"]
        snapshots = result["snapshots"] if "snapshots" in result else [result["snapshot"]]
        instructions += sum(s["instructions"] for s in snapshots)
    return {"records": records, "instructions": instructions}


def mismatches(actual: dict[str, str], expected: dict[str, str]) -> int:
    """Records that differ from, are missing from, or are absent in the reference."""
    differ = sum(1 for key, digest in expected.items() if actual.get(key) != digest)
    return differ + sum(1 for key in actual if key not in expected)


def snapshot_mismatches(report: dict, snapshot: dict) -> int:
    """Report cells that disagree with a committed ``BENCH_tournament.json``.

    A different ``config_hash`` or cell count fails every cell; otherwise
    each policy whose ``rel_ws_geomean`` is not exactly equal fails its
    cells.
    """
    if report["config_hash"] != snapshot["config_hash"] or report["cells"] != snapshot["cells"]:
        return report["cells"]
    failed = 0
    for policy, entry in snapshot["policies"].items():
        if report["rel_ws_geomean"].get(policy) != entry["rel_ws_geomean"]:
            failed += entry["cells"]
    return failed
