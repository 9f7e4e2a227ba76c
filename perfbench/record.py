"""Write ``reference.json``: the record digests every benchmark run must match.

Run from the repository root, only when simulated behaviour changes on
purpose (the same rule as for the golden fixtures)::

    python3 perfbench/record.py

Every workload of :data:`run.WORKLOADS` runs once per seed ``0..SEEDS-1``
through the benchmark's own child process, on a fresh store and ``nproc``
workers; the cold-cache guard applies.  The file is rewritten whole.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

import run

SEEDS = 16


def main(argv: list[str]) -> int:
    argparse.ArgumentParser(description=__doc__.splitlines()[0]).parse_args(argv)
    reference = {"seeds": SEEDS, "env": run.PINNED_ENV, "runs": {}}
    for workload in run.WORKLOADS:
        runs = {}
        for seed in range(SEEDS):
            launcher = run.Launcher(workload, seed, time.monotonic() + run.BUDGET_S)
            result = launcher.launch(run.nproc())
            if result["store_hits"] or result["failed"]:
                raise RuntimeError(f"{workload} seed {seed}: not a clean cold run")
            runs[str(seed)] = result["records"]
            print(f"{workload} seed {seed}: {len(result['records'])} records", file=sys.stderr)
        reference["runs"][workload] = runs
    run.REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
