"""Sweep benchmark: end-to-end wall clock, simulated throughput, layer breakdown.

Run from the repository root::

    python3 perfbench/run.py --workload sweep4 --seed 0 --seconds 60 --trace 0

Workloads (see ``perfbench/README.md`` for why each exists and what each
layer metric should move): ``sweep4`` and ``alone1``.

``--trace 0`` samples set-up time several times, then repeats the
untraced workload on ``nproc`` workers until ``--seconds`` is used up (at
least once), and reports medians of ``wall_s``, ``cpu_s``,
``sim_minstr_per_s``, ``peak_rss_mb`` and ``setup_s``.

``--trace 1`` runs the workload three times: untraced on ``nproc``
workers, then untraced inline side by side with traced inline.  It reports
the traced run's per-layer metrics plus ``runner.worker_util`` and
``tracing.overhead_frac`` against the two untraced runs.  All three must
leave identical records.

Every run goes through a fresh :mod:`child` process with a fresh store,
an environment scrubbed of ``REPRO_*`` variables except the pinned
``REPRO_SCALE`` and ``REPRO_JOBS``, and the gates of :mod:`gates`: each
record must match ``reference.json`` and, for ``sweep4`` at workload seed 0,
the report must match the committed ``BENCH_tournament.json``.  A warm
store (any store hit, or fewer executions than reference records) aborts
the run.  The last stdout line is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the full result set, with a
machine fingerprint, is written under ``.perfbench/results/``.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import gates

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench"
REFERENCE = HERE / "reference.json"
SNAPSHOT = ROOT / "BENCH_tournament.json"
WORKLOADS = ("sweep4", "alone1")
#: The only ``REPRO_*`` settings a child sees (plus ``REPRO_JOBS``).
PINNED_ENV = {"REPRO_SCALE": "0.1"}
#: Set-up-only launches per ``--trace 0`` run, on top of one per rep.
SETUP_SAMPLES = 10
#: Wall-clock budget of one benchmark invocation, all children included.
BUDGET_S = 170.0

#: Declares every metric with its unit: ``end_to_end`` for ``--trace 0``,
#: ``per_layer`` for ``--trace 1``.
DECLARATION = ROOT / "BENCHMARK.json"


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def child_env(jobs: int) -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env.update(PINNED_ENV, REPRO_JOBS=str(jobs), PYTHONPATH=str(ROOT / "src"))
    return env


class Launcher:
    """Starts child processes under one deadline and collects their results."""

    def __init__(self, workload: str, seed: int, deadline: float) -> None:
        self.workload = workload
        self.seed = seed
        self.deadline = deadline
        self.count = 0

    def start(self, jobs: int, *, trace: bool = False, setup_only: bool = False) -> tuple:
        self.count += 1
        rep = WORK / f"{self.workload}-{self.seed}-{self.count}"
        shutil.rmtree(rep, ignore_errors=True)
        rep.mkdir(parents=True)
        cmd = [
            sys.executable, str(HERE / "child.py"),
            "--workload", self.workload, "--seed", str(self.seed), "--jobs", str(jobs),
            "--root", str(rep / "store"), "--out", str(rep / "result.json"),
        ]
        if trace:
            cmd += ["--trace", str(rep / "spans.jsonl")]
        if setup_only:
            cmd.append("--setup-only")
        launched = time.monotonic()
        # Own session: on timeout the whole group (child + pool workers)
        # is killed.  Child stdout goes to our stderr, keeping ours clean.
        proc = subprocess.Popen(
            cmd, cwd=ROOT, env=child_env(jobs), stdout=sys.stderr.fileno(),
            start_new_session=True,
        )
        return proc, rep, launched

    def finish(self, started: list[tuple]) -> list[dict]:
        """Wait for every started child; kills the rest if one fails."""
        try:
            return [self._wait(*child) for child in started]
        finally:
            for proc, rep, _ in started:
                if proc.poll() is None:
                    os.killpg(proc.pid, signal.SIGKILL)
                    proc.wait()
                shutil.rmtree(rep / "store", ignore_errors=True)

    def launch(self, jobs: int, **kwargs) -> dict:
        return self.finish([self.start(jobs, **kwargs)])[0]

    def _wait(self, proc, rep: Path, launched: float) -> dict:
        try:
            code = proc.wait(timeout=max(1.0, self.deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            raise RuntimeError(f"child exceeded the {BUDGET_S:.0f} s budget: {proc.args}")
        if code != 0:
            raise RuntimeError(f"child exited with {code}: {proc.args}")
        result = json.loads((rep / "result.json").read_text())
        result["setup_s"] = result["submit_at"] - launched
        result["duration_s"] = time.monotonic() - launched
        return result


def check(result: dict, expected: dict[str, str], snapshot: dict | None) -> int:
    """Failed cells of one child run; raises when the store was not cold."""
    if result["store_hits"] != 0 or result["executed"] + result["failed"] != len(expected):
        raise RuntimeError(
            f"cold-cache guard: {result['store_hits']} store hits, "
            f"{result['executed']} executed + {result['failed']} quarantined, "
            f"{len(expected)} expected"
        )
    failed = gates.mismatches(result["records"], expected)
    if snapshot is not None:
        failed += gates.snapshot_mismatches(result["report"], snapshot)
    return min(failed, len(expected))


def untraced_metrics(reps: list[dict], setups: list[float]) -> dict[str, float]:
    med = statistics.median
    return {
        "wall_s": med(r["wall_s"] for r in reps),
        "cpu_s": med(r["cpu_s"] for r in reps),
        "sim_minstr_per_s": med(r["instructions"] / 1e6 / r["wall_s"] for r in reps),
        "peak_rss_mb": med(r["peak_rss_mb"] for r in reps),
        "setup_s": med(setups),
    }


def run_untraced(launcher: Launcher, seconds: float) -> tuple[list[dict], dict]:
    start = time.monotonic()
    setups = [launcher.launch(nproc(), setup_only=True)["setup_s"] for _ in range(SETUP_SAMPLES)]
    reps: list[dict] = []
    while True:
        reps.append(launcher.launch(nproc()))
        setups.append(reps[-1]["setup_s"])
        spent = time.monotonic() - start
        if spent + statistics.median(r["duration_s"] for r in reps) > seconds:
            return reps, untraced_metrics(reps, setups)


def run_traced(launcher: Launcher) -> tuple[list[dict], dict]:
    pooled = launcher.launch(nproc())
    # The two inline runs go side by side, one per CPU: host-speed drift
    # then slows both alike, so tracing.overhead_frac compares like with like.
    inline, traced = launcher.finish([launcher.start(1), launcher.start(1, trace=True)])
    layers = dict(traced["layers"])
    job_s = layers.pop("job_s")
    layers["runner.worker_util"] = job_s / (nproc() * pooled["wall_s"])
    layers["tracing.overhead_frac"] = traced["wall_s"] / inline["wall_s"] - 1.0
    return [pooled, inline, traced], layers


def declared_units(trace: int) -> dict[str, str]:
    declared = json.loads(DECLARATION.read_text())
    return {m["name"]: m["unit"] for m in declared["per_layer" if trace else "end_to_end"]}


def fingerprint() -> dict:
    import numpy

    src = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        src.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        probe = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            timeout=30,
        )
        commit = probe.stdout.strip() or None
    return {
        "nproc": nproc(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "backend": "numba" if importlib.util.find_spec("numba") else "numpy",
        "commit": commit,
        "src_sha256": src.hexdigest(),
        "env": PINNED_ENV,
    }


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + BUDGET_S
    if not (ROOT / "src" / "repro").is_dir():
        parser.error(f"no program sources under {ROOT / 'src'}; run from a full checkout")

    reference = json.loads(REFERENCE.read_text())
    # The reference covers seeds 0..n-1; every --seed maps onto one of them.
    workload_seed = args.seed % reference["seeds"]
    expected = reference["runs"][args.workload][str(workload_seed)]
    snapshot = None
    if args.workload == "sweep4" and workload_seed == 0:
        snapshot = json.loads(SNAPSHOT.read_text())

    launcher = Launcher(args.workload, workload_seed, deadline)
    if args.trace:
        results, metrics = run_traced(launcher)
    else:
        results, metrics = run_untraced(launcher, args.seconds)
    units = declared_units(args.trace)
    if set(metrics) != set(units):
        raise RuntimeError(f"measured {sorted(metrics)}, declared {sorted(units)}")
    failed = sum(check(r, expected, snapshot) for r in results)
    if args.trace and len({json.dumps(r["records"], sort_keys=True) for r in results}) != 1:
        # Tracing (or inline execution) moved a result: nothing verified.
        failed = len(expected) * len(results)
    attempted = len(expected) * len(results)

    result_set = {
        "workload": args.workload,
        "seed": args.seed,
        "workload_seed": workload_seed,
        "trace": args.trace,
        "fingerprint": fingerprint(),
        "metrics": metrics,
        "runs": results,
    }
    out = WORK / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(result_set, indent=1, sort_keys=True) + "\n")

    for name, unit in units.items():
        print(f"{args.workload} {name} {metrics[name]:.6g} {unit}")
    print(f"fingerprint {json.dumps(result_set['fingerprint'], sort_keys=True)}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
