"""One run of one workload, in a fresh process, against a fresh store.

Started by :mod:`run` (never imported by it)::

    python3 perfbench/child.py --workload sweep4 --seed 0 --jobs 2 \\
        --root <fresh dir> --out result.json [--trace spans.jsonl] [--setup-only]

The process start, imports and store/runner construction are set-up; the
monotonic time of the first ``ParallelRunner.run`` call (the first job
submission) ends it and is reported as ``submit_at``, to be compared with
the parent's launch time.  ``--setup-only`` stops right there.

Otherwise the workload call is timed — wall clock and the CPU time of
this process plus its reaped pool workers — and afterwards, outside the
timed region, the store is digested (:func:`gates.scan_store`).  With
``--trace`` every layer entry point is wrapped (:mod:`spans`) and the
per-layer metrics come back with the result; the spans go to the given
JSONL file.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import resource
import sys
import time
from pathlib import Path

import gates
import spans
import workloads
from repro.runner.parallel import ParallelRunner


class SetupDone(Exception):
    """Raised at the first job submission of a ``--setup-only`` run."""


def _mark_first_submit(marks: list[float], stop: bool) -> None:
    original = ParallelRunner.run

    def run(self, jobs):
        if not marks:
            marks.append(time.monotonic())
            if stop:
                raise SetupDone
        return original(self, jobs)

    ParallelRunner.run = run


def _cpu_s() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def _peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux; the children figure is the largest
    # single reaped worker, not a sum.
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--jobs", type=int, required=True)
    parser.add_argument("--root", type=Path, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--trace", type=Path)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    if args.root.exists():
        # Cold-cache guard: a store or trace buffer left from an earlier
        # run would turn simulation into store hits.
        parser.error(f"{args.root} exists; every run needs a fresh store")

    marks: list[float] = []
    _mark_first_submit(marks, stop=args.setup_only)
    workload = workloads.WORKLOADS[args.workload]
    if args.setup_only:
        try:
            workload(args.seed, args.root, args.jobs)
        except SetupDone:
            pass
        args.out.write_text(json.dumps({"submit_at": marks[0]}))
        return 0

    tracer = spans.install(spans.Tracer()) if args.trace else None
    cpu0 = _cpu_s()
    start = time.perf_counter()
    with tracer.span(spans.ROOT) if tracer else contextlib.nullcontext():
        outcome = workload(args.seed, args.root, args.jobs)
    wall_s = time.perf_counter() - start
    cpu_s = _cpu_s() - cpu0
    if tracer is not None:
        tracer.uninstall()
        tracer.write(args.trace)

    result = {
        "submit_at": marks[0],
        "wall_s": wall_s,
        "cpu_s": cpu_s,
        "peak_rss_mb": _peak_rss_mb(),
        "executed": outcome.executed,
        "store_hits": outcome.store_hits,
        "failed": outcome.failed,
        "report": outcome.report,
        **gates.scan_store(args.root),
    }
    if tracer is not None:
        result["layers"] = spans.layer_metrics(tracer.spans)
    args.out.write_text(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
