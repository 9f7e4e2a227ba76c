"""Process-pool execution of simulation jobs with two cache layers.

:class:`ParallelRunner` takes a batch of serialisable jobs
(:mod:`repro.runner.jobs`), satisfies what it can from the persistent
:class:`~repro.runner.store.ResultStore`, and fans the remaining misses
out across a ``concurrent.futures.ProcessPoolExecutor``.  Results come
back in input order regardless of which worker finished first, and every
job carries its own master seed, so a parallel run is bit-identical to the
sequential run of the same batch.

Before fanning out, the runner scans the miss batch for trace identities
needed by two or more jobs (the common shape: one workload swept across
several policies) and materialises each such trace **once** as a
content-addressed shared buffer (:mod:`repro.trace.shared`, stored under
``<store root>/traces/``).  Workers map the buffers zero-copy instead of
regenerating the streams per process; with no persistent store a
runner-lifetime temporary directory holds them.

The worker count defaults to the ``REPRO_JOBS`` environment variable and
falls back to ``os.cpu_count()``; ``jobs=1`` executes inline in the
calling process (no pool, no pickling), which is also the automatic
fast path for single-job batches.

Policy sweeps additionally run a once-per-platform private-level
*capture* pass (:mod:`repro.runner.replaystore`) so every swept job can
execute on the LLC-only replay kernel.  Captures and sim jobs share one
dependency-edged queue on one process pool: each sweep's replays are
released the moment *its* capture's manifest entry lands, so a slow
capture never stalls unrelated sweeps.

Execution is *supervised* (:mod:`repro.runner.supervisor`): every miss
is submitted as its own future and collected in completion order, so a
worker exception, hang or death costs one job — retried with backoff,
recovered across pool rebuilds, or quarantined as a structured
:class:`~repro.runner.supervisor.FailureRecord` in the result store.
:meth:`ParallelRunner.run` therefore returns **partial results**
(``None`` holes for quarantined jobs) plus :attr:`ParallelRunner.last_failures`
instead of raising mid-batch; a re-invocation against the same store
re-executes only the holes, because completed work is already durable
under its content-addressed keys.
"""

from __future__ import annotations

import os
import tempfile
from collections.abc import Sequence

from repro.runner import faults
from repro.runner.jobs import SCHEMA_VERSION, Job, job_from_dict
from repro.runner.replaystore import (
    ReplayStore,
    clear_replay_manifest,
    install_replay_manifest,
)
from repro.runner.store import ResultStore
from repro.runner.supervisor import FailureRecord, RetryPolicy, Supervisor
from repro.trace.shared import (
    SharedTraceStore,
    chunks_for,
    clear_manifest,
    install_manifest,
    shared_traces_enabled,
)


def default_jobs() -> int:
    """Worker count: ``REPRO_JOBS`` if set to a positive int, else CPU count."""
    raw = os.environ.get("REPRO_JOBS", "")
    try:
        value = int(raw)
    except ValueError:
        value = 0
    if value > 0:
        return value
    return os.cpu_count() or 1


def _job_trace_identities(job: Job) -> list[tuple]:
    """``(benchmark, geometry, core_id, master_seed, n_chunks)`` per core."""
    from repro.sim.build import geometry_of

    geometry = geometry_of(job.config)
    n_chunks = chunks_for(job.quota, job.warmup)
    names = job.benchmarks if job.kind == "workload" else (job.benchmark,)
    return [
        (name, geometry, core_id, job.master_seed, n_chunks)
        for core_id, name in enumerate(names)
    ]


def _counters_snapshot() -> dict:
    """Per-process cache counters the runner aggregates across workers."""
    from repro.runner.replaystore import REGISTRY_STATS

    return {"bundle_loads": REGISTRY_STATS["bundle_loads"]}


def _execute_payload(task: tuple[dict, list[dict], list[dict], str, int]) -> dict:
    """Worker entry point: dict in, dict out — nothing exotic crosses the pipe.

    The shared-trace and replay-capture manifests ride along with every
    payload; installing them is idempotent (each buffer's checksum is
    checked once per process, each sweep's bundle stays resident while
    its jobs run), so a worker reusing a process across tasks verifies
    each buffer once — and a *fresh* worker after a pool rebuild needs no
    re-initialisation beyond its first task.  The job's cache key and
    attempt number ride along too, for the fault-injection harness.

    The wire dict carries a ``_counters`` delta (bundle loads) that the
    parent strips and folds into ``runner.stats``.
    """
    payload, manifest, replay_manifest, key, attempt = task
    if manifest:
        install_manifest(manifest)
    install_replay_manifest(replay_manifest)
    faults.maybe_fail(key, attempt, allow_exit=True)
    before = _counters_snapshot()
    result = job_from_dict(payload).execute().to_dict()
    after = _counters_snapshot()
    result["_counters"] = {name: after[name] - before[name] for name in after}
    return result


def _execute_task(task: tuple[str, object]) -> object:
    """Worker entry point: tagged tasks.

    One pool serves both job families, so a worker alternates freely
    between ``("capture", ...)`` and ``("sim", ...)`` tasks as the
    dependency-edged queue drains.
    """
    tag, inner = task
    if tag == "capture":
        payload, manifest, key, attempt = inner
        if manifest:
            install_manifest(manifest)
        faults.maybe_fail(key, attempt, allow_exit=True)
        try:
            return _materialise_capture(payload)
        except Exception:
            # Replay is a pure optimisation: a failed capture costs its
            # manifest entry, never the batch — the affected sweep runs
            # on the fused kernel instead.
            return None
    return _execute_payload(inner)


def _materialise_capture(payload: dict) -> dict:
    """Run one capture job (in a worker or inline); returns its entry."""
    return ReplayStore(payload["root"]).materialise(
        tuple(payload["benchmarks"]),
        _config_from(payload["config"]),
        payload["quota"],
        payload["warmup"],
        payload["master_seed"],
    )


def _config_from(data: dict):
    from repro.sim.config import SystemConfig

    return SystemConfig.from_dict(data)


class ParallelRunner:
    """Shard independent jobs across processes, backed by the result store.

    Parameters
    ----------
    jobs:
        Worker-process count; ``None`` or ``0`` means :func:`default_jobs`.
    store:
        Optional persistent :class:`ResultStore` (the L2 cache).  Misses
        are simulated and written back; hits skip simulation entirely.
    use_cache:
        When ``False`` the store is neither read nor written — every job
        is simulated fresh (the ``--no-cache`` CLI behaviour).
    share_traces:
        When ``True`` (default), traces needed by two or more miss jobs
        are materialised once and mapped zero-copy by every executor
        (also gated by the ``REPRO_NO_SHARED_TRACES`` environment
        variable).  Results are bit-identical either way.
    retry:
        The batch :class:`~repro.runner.supervisor.RetryPolicy`
        (``None`` reads ``REPRO_MAX_RETRIES`` / ``REPRO_JOB_TIMEOUT`` /
        ``REPRO_RETRY_BACKOFF`` from the environment).
    """

    def __init__(
        self,
        jobs: int | None = None,
        store: ResultStore | None = None,
        use_cache: bool = True,
        share_traces: bool = True,
        retry: RetryPolicy | None = None,
    ) -> None:
        self.jobs = jobs if jobs and jobs > 0 else default_jobs()
        self.store = store
        self.use_cache = use_cache
        self.share_traces = share_traces
        self.retry = retry or RetryPolicy.from_env()
        self._traces: SharedTraceStore | None = None
        self._trace_tmpdir: tempfile.TemporaryDirectory | None = None
        #: Lifetime counters: ``store_hits`` results re-read from disk,
        #: ``executed`` simulations completed (counted per job, as each
        #: finishes), ``failed`` jobs quarantined after retries, the
        #: supervisor's ``retried``/``timeouts``/``pool_rebuilds``, plus
        #: ``bundle_loads`` (replay artifacts read from disk), aggregated
        #: across workers.
        self.stats = {
            "store_hits": 0,
            "executed": 0,
            "failed": 0,
            "retried": 0,
            "timeouts": 0,
            "pool_rebuilds": 0,
            "bundle_loads": 0,
        }
        #: Every quarantined job over the runner's lifetime, and the
        #: subset from the most recent :meth:`run` batch.
        self.failures: list[FailureRecord] = []
        self.last_failures: list[FailureRecord] = []

    # -- lifecycle ---------------------------------------------------------------

    def close(self) -> None:
        """Reclaim the runner-lifetime temporary trace directory (if any)."""
        tmpdir, self._trace_tmpdir = self._trace_tmpdir, None
        if tmpdir is not None:
            self._traces = None
            tmpdir.cleanup()

    def __enter__(self) -> "ParallelRunner":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- execution ---------------------------------------------------------------

    def run(self, jobs: Sequence[Job]) -> list:
        """Execute *jobs*; returns their results in input order.

        Duplicate jobs (same cache key) within a batch are simulated
        once.  A job that exhausts its retries yields ``None`` in the
        returned list (and a :class:`FailureRecord` in
        :attr:`last_failures` plus, with a store, a persisted failure
        record) rather than aborting the batch — completed results are
        always returned, and a later invocation re-executes only the
        holes.
        """
        order: list[str] = []
        unique: dict[str, Job] = {}
        for job in jobs:
            key = job.cache_key()
            order.append(key)
            unique.setdefault(key, job)

        results: dict[str, object] = {}
        misses: list[tuple[str, Job]] = []
        for key, job in unique.items():
            cached = self._load(key, job)
            if cached is not None:
                results[key] = cached
            else:
                misses.append((key, job))
        self.last_failures = []

        manifest = self._prepare_traces([job for _, job in misses])
        if manifest:
            # Install in this process too: inline execution replays the
            # same buffers the pool workers map.
            install_manifest(manifest)
        # One supervisor (and pool) serves captures and sims alike: the
        # capture jobs warm the workers (imports).
        supervisor = Supervisor(
            workers=min(self.jobs, len(misses)) if len(misses) > 1 else 1,
            policy=self.retry,
        )
        counters_before = _counters_snapshot()
        try:
            plan = self._plan_captures([job for _, job in misses])
            for key, job, outcome in self._execute_pipelined(
                supervisor, misses, manifest, plan
            ):
                if isinstance(outcome, FailureRecord):
                    self.stats["failed"] += 1
                    self.failures.append(outcome)
                    self.last_failures.append(outcome)
                    self._record_failure(job, outcome)
                else:
                    self.stats["executed"] += 1
                    results[key] = outcome
                    self._save(key, job, outcome)
        except BaseException:
            # Don't block behind queued work when the batch is going down.
            supervisor.shutdown(cancel=True)
            raise
        else:
            supervisor.shutdown()
        finally:
            for name, value in supervisor.stats.items():
                self.stats[name] += value
            counters_after = _counters_snapshot()
            for name in counters_after:
                self.stats[name] += counters_after[name] - counters_before[name]
            clear_replay_manifest()
            if manifest:
                clear_manifest()

        return [results.get(key) for key in order]

    def run_one(self, job: Job):
        return self.run([job])[0]

    # -- shared traces -----------------------------------------------------------

    def trace_store(self) -> SharedTraceStore:
        """The shared-trace buffer store (created on first use).

        Lives under ``<result store root>/traces`` so buffers persist and
        are reused content-addressed across invocations.  Without a result
        store — or with ``use_cache=False``, which promises the store is
        neither read nor written — a runner-lifetime temporary directory
        backs them instead.
        """
        if self._traces is None:
            if self.store is not None and self.use_cache:
                root = self.store.root / "traces"
            else:
                self._trace_tmpdir = tempfile.TemporaryDirectory(
                    prefix="repro-traces-"
                )
                root = self._trace_tmpdir.name
            self._traces = SharedTraceStore(root)
        return self._traces

    def _prepare_traces(self, jobs: list[Job]) -> list[dict]:
        """Materialise every trace needed by two or more miss jobs.

        Returns the manifest the executors install; empty when sharing is
        off, nothing overlaps, or buffer I/O fails (every failure mode
        falls back to per-process generation, which is always equivalent).
        """
        if not self.share_traces or len(jobs) < 2 or not shared_traces_enabled():
            return []
        needed: dict[tuple, int] = {}
        counts: dict[tuple, int] = {}
        geometries: dict[tuple, object] = {}
        for job in jobs:
            for name, geometry, core_id, seed, n_chunks in _job_trace_identities(job):
                ident = (
                    name,
                    geometry.llc_num_sets,
                    geometry.l2_blocks,
                    geometry.l1_blocks,
                    core_id,
                    seed,
                )
                counts[ident] = counts.get(ident, 0) + 1
                needed[ident] = max(needed.get(ident, 0), n_chunks)
                geometries[ident] = geometry
        shared = [ident for ident, n in counts.items() if n >= 2]
        if not shared:
            return []
        from repro.trace.benchmarks import BENCHMARKS

        manifest = []
        store = self.trace_store()
        try:
            for ident in shared:
                name, _, _, _, core_id, seed = ident
                spec = BENCHMARKS.get(name)
                if spec is None:
                    continue
                manifest.append(
                    store.materialise(
                        spec, geometries[ident], core_id, seed, needed[ident]
                    )
                )
        except OSError:
            return []
        return manifest

    # -- replay captures ---------------------------------------------------------

    def _plan_captures(self, jobs: list[Job]) -> dict[tuple, dict]:
        """Swept capture identities of a miss batch, with worker payloads.

        A *sweep* is two or more miss jobs sharing one capture identity —
        same workload, private-level platform and budgets, different LLC
        policy.  Returns ``{identity: payload}`` (the payload already
        carries the store root); empty when sharing is off, replay is
        disabled, nothing is swept, or the store root is unavailable —
        every one of which degrades to the fused kernel.
        """
        from repro.cpu.replay import replay_enabled
        from repro.sim.build import capture_identity

        if not self.share_traces or len(jobs) < 2 or not replay_enabled():
            return {}
        counts: dict[tuple, int] = {}
        payloads: dict[tuple, dict] = {}
        for job in jobs:
            if job.kind != "workload":
                continue
            identity = capture_identity(
                job.benchmarks, job.config, job.quota, job.warmup, job.master_seed
            )
            counts[identity] = counts.get(identity, 0) + 1
            payloads.setdefault(
                identity,
                {
                    "benchmarks": list(job.benchmarks),
                    "config": job.config.to_dict(),
                    "quota": job.quota,
                    "warmup": job.warmup,
                    "master_seed": job.master_seed,
                },
            )
        swept = [ident for ident, count in counts.items() if count >= 2]
        if not swept:
            return {}
        try:
            root = str(self.trace_store().root)
        except OSError:
            return {}
        plan: dict[tuple, dict] = {}
        for ident in swept:
            payload = dict(payloads[ident])
            payload["root"] = root
            plan[ident] = payload
        return plan

    def _execute_pipelined(
        self,
        supervisor: Supervisor,
        misses: list[tuple[str, Job]],
        manifest: list[dict],
        plan: dict[tuple, dict],
    ):
        """Dependency-edged execution: captures and sims share one queue.

        Every planned capture becomes a supervised job; each swept sim
        job depends on its capture's key, so the supervisor withholds it
        until the capture's manifest entry lands — and unrelated jobs
        flow freely around a slow (or hung, or crashed) capture.  Capture
        outcomes are folded into the growing replay manifest here and
        never surface to the caller; only sim outcomes are yielded.  A
        batch without a sweep (empty *plan*) is just its sim jobs.
        """
        from repro.cpu.capture import REPLAY_SLACK
        from repro.runner.replaystore import replay_key
        from repro.sim.build import capture_identity

        capture_jobs: list[tuple[str, dict]] = []
        routes: dict[tuple, str] = {}
        for identity, payload in plan.items():
            ckey = f"capture:{replay_key(identity, REPLAY_SLACK)}"
            routes[identity] = ckey
            capture_jobs.append((ckey, payload))
        dependencies: dict[str, str] = {}
        for key, job in misses:
            if job.kind != "workload":
                continue
            identity = capture_identity(
                job.benchmarks, job.config, job.quota, job.warmup, job.master_seed
            )
            ckey = routes.get(identity)
            if ckey is not None:
                dependencies[key] = ckey
        capture_keys = {ckey for ckey, _ in capture_jobs}
        replay_manifest: list[dict] = []

        def task_for(key, job, attempt):
            if key in capture_keys:
                return ("capture", (job, manifest, key, attempt))
            # Snapshot at submit time: the job's capture (if any) has
            # already landed, so its entry is aboard.
            return ("sim", (job.to_dict(), manifest, list(replay_manifest), key, attempt))

        def inline_fn(key, job):
            if key in capture_keys:
                return _materialise_capture(job)
            return job.execute()

        def decode(job, data):
            if not isinstance(job, Job):
                return data  # capture outcome: the manifest entry (or None)
            counters = data.pop("_counters", None)
            if counters:
                for name, value in counters.items():
                    self.stats[name] = self.stats.get(name, 0) + value
            return job.result_from_dict(data)

        for key, job, outcome in supervisor.run_jobs(
            capture_jobs + list(misses),
            worker_fn=_execute_task,
            task_for=task_for,
            inline_fn=inline_fn,
            decode=decode,
            dependencies=dependencies,
        ):
            if key in capture_keys:
                # A FailureRecord or None here only costs the sweep its
                # replay kernel; the parent install keeps inline
                # execution and the manifest snapshots coherent.
                if isinstance(outcome, dict):
                    replay_manifest.append(outcome)
                    install_replay_manifest(replay_manifest)
                continue
            yield key, job, outcome

    # -- store plumbing ----------------------------------------------------------

    def _load(self, key: str, job: Job):
        if self.store is None or not self.use_cache:
            return None
        payload = self.store.get(key)
        if not payload or payload.get("schema") != SCHEMA_VERSION:
            return None
        if payload.get("kind") == "failure" or "result" not in payload:
            # A persisted FailureRecord is informational, not a result:
            # resuming re-executes the job (and overwrites the record on
            # success).
            return None
        try:
            result = job.result_from_dict(payload["result"])
        except (KeyError, TypeError):
            return None
        self.stats["store_hits"] += 1
        return result

    def _save(self, key: str, job: Job, result) -> None:
        if self.store is None or not self.use_cache:
            return
        self.store.put(
            key,
            {
                "schema": SCHEMA_VERSION,
                "kind": job.kind,
                "job": job.to_dict(),
                "result": result.to_dict(),
            },
        )

    def _record_failure(self, job: Job, failure: FailureRecord) -> None:
        """Persist a quarantined job so it is never silently dropped.

        The record lives at the job's own cache key — enumerable via
        :meth:`ResultStore.failures`, read as a *miss* by :meth:`_load`
        (so a resumed run retries the job) and overwritten by the result
        when a retry eventually succeeds.
        """
        if self.store is None or not self.use_cache:
            return
        self.store.put(
            failure.key,
            {
                "schema": SCHEMA_VERSION,
                "kind": "failure",
                "job": job.to_dict(),
                "failure": failure.to_dict(),
            },
        )
