"""Worker runtime: a supervised thread draining the job queue.

One :class:`ServiceWorker` polls the queue, leases jobs, expands each
job payload into a list of :class:`ExperimentConfig` cells, and drives
them through the existing :func:`repro.experiments.run_sweep` pool —
with the content-addressed :class:`~repro.service.cache.CellCache`
short-circuiting already-answered cells and ``ObserveOptions``
(``keep_going``, crash bundles, flight recorder) handling per-cell
failures without losing the rest of the job.

The worker thread itself is *supervised*: a companion thread watches
it and, should anything escape :meth:`run_job`'s catch (a chaos kill,
a ``MemoryError``, an interpreter-level surprise), records the crash,
recovers the in-flight job — straight back to ``queued`` while
attempts remain, quarantined as ``failed`` with a crash bundle once
``JobQueue.max_attempts`` is burned — and restarts the thread.  Lease
expiry stays the backstop for whole-process death; the supervisor just
makes single-thread crashes recover in milliseconds instead of a
lease period.  :meth:`stop` drains: the in-flight job finishes before
the thread exits.

The sweep's lifecycle events (schema-v1 JSONL, the same format
``--events-out`` writes) stream into the store's ``job_events`` table
line by line, so the HTTP API can re-serve live progress while the
job is still running.

Job payload shapes (all JSON):

``scenario``   ``{"config": {...}}``
``sweep``      ``{"configs": [{...}, ...]}``
``faultsweep`` ``{"config": {...}, "error_rates": [...],
               "node_mtbfs": [...]}`` — expanded into one cell per
               fault point (plus the fault-free baseline), exactly the
               grid ``repro-ec2 faultsweep`` runs.

Optional payload keys: ``jobs`` (worker processes for the sweep) and
``scale`` (``"paper"`` default, or ``"small"`` for the down-scaled
workflows the determinism sanitizer uses — handy for smoke tests).
"""

from __future__ import annotations

import hashlib
import json
import sqlite3
import threading
import traceback
from typing import Any, Dict, List, Optional

from ..experiments.config import ExperimentConfig
from ..experiments.runner import ObserveOptions, run_sweep
from ..lint.determinism import small_workflow
from ..lint.lockwatch import new_lock
from ..observe.events import EventLogWriter
from ..observe.flight import BUNDLE_SCHEMA_VERSION, write_crash_bundle
from ..observe.hostclock import wall_now
from ..observe.monitor import SweepMonitor
from ..telemetry.metrics import MetricsRegistry
from .cache import CellCache
from .queue import DEFAULT_LEASE_SECONDS, JobQueue, JobRow
from .store import SQLiteStore


class _StoreEventSink:
    """File-like adapter writing JSONL event lines into ``job_events``.

    :class:`~repro.observe.events.EventLogWriter` only needs
    ``write``/``flush``; each complete line becomes one row keyed by
    the writer's own monotonic ``seq``, so a crashed worker leaves a
    gapless, parseable prefix behind.
    """

    def __init__(self, store: SQLiteStore, job_id: int) -> None:
        self._store = store
        self._job_id = job_id
        self._seq = 0
        self._buffer = ""

    def write(self, text: str) -> int:
        self._buffer += text
        while "\n" in self._buffer:
            line, self._buffer = self._buffer.split("\n", 1)
            if line:
                self._seq += 1
                self._store.append_event(self._job_id, self._seq, line)
        return len(text)

    def flush(self) -> None:
        """No-op: complete lines are committed as they arrive."""


def expand_job(payload: Dict[str, Any], kind: str
               ) -> List[ExperimentConfig]:
    """The cell list one job payload describes (validated)."""
    if kind == "scenario":
        raw_configs = [payload["config"]]
    elif kind == "sweep":
        raw_configs = list(payload["configs"])
        if not raw_configs:
            raise ValueError("sweep job with no configs")
    elif kind == "faultsweep":
        base = ExperimentConfig.from_dict(payload["config"])
        cells = [base]
        for rate in payload.get("error_rates", []):
            cells.append(base.with_(storage_error_rate=float(rate)))
        for mtbf in payload.get("node_mtbfs", []):
            cells.append(base.with_(node_mtbf=float(mtbf)))
        return cells
    else:
        raise ValueError(f"unknown job kind {kind!r}")
    configs = [ExperimentConfig.from_dict(c) for c in raw_configs]
    for config in configs:
        ok, why = config.is_valid()
        if not ok:
            raise ValueError(f"invalid cell {config.label}: {why}")
    return configs


class ServiceWorker:
    """Supervisor thread running queued jobs through ``run_sweep``."""

    def __init__(self, store: SQLiteStore, queue: JobQueue,
                 cache: CellCache,
                 metrics: Optional[MetricsRegistry] = None,
                 name: str = "worker-0",
                 jobs: int = 1,
                 poll_interval: float = 0.05,
                 lease_seconds: float = DEFAULT_LEASE_SECONDS,
                 crash_dir: Optional[str] = None,
                 chaos: Optional[Any] = None,
                 max_restarts: int = 1000) -> None:
        self.store = store
        self.queue = queue
        self.cache = cache
        self.metrics = metrics if metrics is not None else cache.metrics
        self.name = name
        self.jobs = jobs
        self.poll_interval = poll_interval
        self.lease_seconds = lease_seconds
        self.crash_dir = crash_dir
        self.chaos = chaos
        self.max_restarts = max_restarts
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None
        self._supervisor: Optional[threading.Thread] = None
        # The in-flight slot is shared worker <-> supervisor: the worker
        # sets it at pickup, the supervisor snapshots-and-clears it after
        # a thread death.  A leaf lock (nothing is called while it is
        # held) makes the handoff a single atomic unit — without it the
        # supervisor can pair a stale crash with a fresh job, or start()
        # can wipe a slot the supervisor is mid-recovery on.
        self._slot_lock = new_lock("worker.slot")
        # The supervisor publishes and starts a replacement thread under
        # this lock, and stop() raises the stop flag under it: stop()
        # never joins a published thread that has not started yet, and
        # no replacement starts once stop() has begun.
        self._restart_lock = new_lock("worker.restart")
        self._current_job: Optional[JobRow] = None
        self._crash: Optional[BaseException] = None
        self.n_restarts = 0
        self._jobs_done = self.metrics.counter(
            "service_jobs_completed_total", "jobs finished by outcome")
        self._cells_run = self.metrics.counter(
            "service_cells_total", "sweep cells processed by source")
        self._restarts = self.metrics.counter(
            "service_worker_restarts_total",
            "worker threads resurrected by the supervisor")
        self._restarts.inc(0.0, worker=name)

    # -- one job ------------------------------------------------------------

    def run_job(self, job: JobRow) -> None:
        """Execute one leased job to completion (never raises).

        "Never raises" covers :class:`Exception`; a ``BaseException``
        (a chaos kill, ``KeyboardInterrupt``) deliberately escapes so
        it kills the thread like a real crash would — that is the
        path the supervisor exists to recover.
        """
        if self.chaos is not None:
            self.chaos.on_job(job)
        try:
            configs = expand_job(job.payload, job.kind)
        except (KeyError, TypeError, ValueError) as exc:
            self.queue.fail(job.id, f"bad job payload: {exc}")
            self._jobs_done.inc(outcome="failed")
            return
        self.queue.update_progress(job.id, n_cells=len(configs))
        sweep_jobs = int(job.payload.get("jobs", self.jobs))
        factory = (small_workflow
                   if job.payload.get("scale") == "small" else None)
        cache = self._job_cache(job)

        sink = _StoreEventSink(self.store, job.id)
        monitor = SweepMonitor(events=EventLogWriter(sink))
        observe = ObserveOptions(monitor=monitor, keep_going=True,
                                 crash_dir=self.crash_dir)
        done = {"n": 0}

        def _progress(result: Any) -> None:
            done["n"] += 1
            self.queue.update_progress(job.id, n_done=done["n"])
            self.queue.heartbeat(job.id, self.name, self.lease_seconds)
            if self.chaos is not None:
                self.chaos.on_cell(job, done["n"])

        # The worker must outlive any cell failure: keep_going already
        # folds per-cell errors into None placeholders, and anything
        # else (a corrupt payload, a store hiccup) must land in the
        # job row as 'failed', never kill the worker thread.
        try:
            results = run_sweep(configs, workflow_factory=factory,
                                progress=_progress, jobs=sweep_jobs,
                                observe=observe, cache=cache)
        except Exception as exc:  # lint: ignore[SIM007]
            self.queue.fail(job.id, traceback.format_exc(limit=20))
            self._jobs_done.inc(outcome="failed")
            self._write_job_bundle(job, exc)
            return

        # _mark_cache_hits stamped, at pickup time, which cells the
        # store could already answer — that snapshot is the per-job
        # hit count even though the shared cache counters aggregate
        # across concurrent jobs.
        marks = job.payload.get("_cache_marks") or []
        n_done = n_failed = n_hits = 0
        for index, (config, result) in enumerate(zip(configs, results)):
            if result is None:
                n_failed += 1
                self._cells_run.inc(source="failed")
                self.store.record_cell(job.id, index, config.label,
                                       None, cached=False,
                                       error="cell failed (see events)")
                continue
            cached = bool(marks[index]) if index < len(marks) else False
            n_done += 1
            if cached:
                n_hits += 1
                self._cells_run.inc(source="cache")
            else:
                self._cells_run.inc(source="simulated")
            self.store.record_cell(job.id, index, config.label,
                                   cache.key(config), cached=cached)
        self.queue.complete(job.id, n_done=n_done, n_failed=n_failed,
                            n_cache_hits=n_hits)
        self._jobs_done.inc(
            outcome="done" if n_failed == 0 else "partial")

    def _write_job_bundle(self, job: JobRow, error: BaseException) -> None:
        """Persist a job-level crash bundle under ``crash_dir``.

        Reuses the :mod:`repro.observe.flight` bundle layout (so
        ``repro-ec2 postmortem`` summarizes service crashes alongside
        cell crashes); the "config" of a job bundle is its payload and
        the digest is the payload's content hash.
        """
        if not self.crash_dir:
            return
        payload = {k: v for k, v in job.payload.items()
                   if k != "_cache_marks"}
        digest = hashlib.sha256(
            json.dumps(payload, sort_keys=True).encode("utf-8")).hexdigest()
        bundle: Dict[str, Any] = {
            "schema": BUNDLE_SCHEMA_VERSION,
            "kind": "crash_bundle",
            "ts": wall_now(),
            "index": job.id,
            "label": f"job-{job.id}-{job.kind}",
            "digest": digest,
            "config": payload,
            "error": {
                "type": type(error).__name__,
                "message": str(error),
                "traceback": "".join(traceback.format_exception(
                    type(error), error, error.__traceback__)),
            },
            "job": {
                "id": job.id,
                "kind": job.kind,
                "attempts": job.attempts,
                "worker": self.name,
            },
        }
        try:
            write_crash_bundle(self.crash_dir, bundle)
        except OSError:
            pass  # a full disk must not take the supervisor down too

    # -- the polling loop ---------------------------------------------------

    def run_once(self) -> bool:
        """Lease and run at most one job; True when one was processed."""
        job = self.queue.lease(self.name, self.lease_seconds)
        if job is None:
            return False
        # The slot is only cleared on clean completion: if run_job dies
        # with a BaseException the clearing below never runs, and the
        # supervisor reads the slot to recover the in-flight job.
        with self._slot_lock:
            self._current_job = job
        job = self._mark_cache_hits(job)
        self.run_job(job)
        with self._slot_lock:
            self._current_job = None
        return True

    def _job_cache(self, job: JobRow) -> CellCache:
        """The cache view for one job's workflow scale.

        Down-scaled (``scale: "small"``) jobs simulate different
        workflows for the same config, so their results live under a
        namespaced key and can never answer a paper-scale submission
        (or vice versa).
        """
        return self.cache.for_scale(job.payload.get("scale"))

    def _mark_cache_hits(self, job: JobRow) -> JobRow:
        """Annotate which cells the store can already answer.

        Done at pickup time (before the sweep issues its counted
        lookups) so the per-job hit count is exact even though the
        shared cache counters aggregate across jobs.
        """
        try:
            configs = expand_job(job.payload, job.kind)
        except (KeyError, TypeError, ValueError):
            return job  # run_job will fail it with the real error
        cache = self._job_cache(job)
        job.payload["_cache_marks"] = [cache.peek(c) for c in configs]
        return job

    def run_forever(self) -> None:
        """Poll until :meth:`stop` is called."""
        while not self._stop.is_set():
            if not self.run_once():
                self._stop.wait(self.poll_interval)

    # -- supervision --------------------------------------------------------

    def _run_guarded(self) -> None:
        """Worker-thread target: record whatever kills the loop."""
        try:
            self.run_forever()
        except BaseException as exc:  # lint: ignore[SIM007]
            # The supervisor seam: a crash is *data* here (recorded for
            # the restart/quarantine decision), never swallowed on a
            # simulation path — run_job already re-raises sim errors
            # into the job row.
            with self._slot_lock:
                self._crash = exc

    def _recover_crashed_job(self, job: JobRow,
                             crash: Optional[BaseException]) -> None:
        """Requeue or quarantine the job a dead thread was holding."""
        error = crash if crash is not None else RuntimeError(
            "worker thread died without recording an exception")
        self._write_job_bundle(job, error)
        try:
            if job.attempts >= self.queue.max_attempts:
                self.queue.fail(
                    job.id,
                    f"worker thread crashed on attempt {job.attempts}/"
                    f"{self.queue.max_attempts} "
                    f"({type(error).__name__}: {error}); quarantined")
                self._jobs_done.inc(outcome="quarantined")
            else:
                self.queue.requeue(job.id)
        except sqlite3.Error:
            # The store is down too; lease expiry is the backstop.
            pass

    def _supervise(self) -> None:
        """Companion loop: restart the worker thread when it dies."""
        while True:
            thread = self._thread
            if thread is None:
                return
            thread.join(self.poll_interval)
            if thread.is_alive():
                continue
            if self._stop.is_set():
                return
            # Snapshot-and-clear atomically: run_once leaves the slot
            # set when run_job dies mid-flight.  Recovery (store/queue
            # work) runs *after* the lock is released — worker.slot
            # stays a leaf in the lock-order graph.
            with self._slot_lock:
                job, crash = self._current_job, self._crash
                self._current_job = None
                self._crash = None
            if job is not None:
                self._recover_crashed_job(job, crash)
            self.n_restarts += 1
            self._restarts.inc(worker=self.name)
            if self.n_restarts > self.max_restarts:
                return
            with self._restart_lock:
                if self._stop.is_set():
                    return
                replacement = threading.Thread(
                    target=self._run_guarded, name=self.name, daemon=True)
                self._thread = replacement
                replacement.start()

    def start(self) -> "ServiceWorker":
        """Start the worker + supervisor threads (join via :meth:`stop`)."""
        if self._thread is not None:
            raise RuntimeError("worker already started")
        self._stop.clear()
        with self._slot_lock:
            self._crash = None
            self._current_job = None
        self._thread = threading.Thread(
            target=self._run_guarded, name=self.name, daemon=True)
        self._thread.start()
        self._supervisor = threading.Thread(
            target=self._supervise, name=f"{self.name}-supervisor",
            daemon=True)
        self._supervisor.start()
        return self

    def stop(self, timeout: float = 10.0) -> bool:
        """Signal the loop to exit, drain, and join both threads.

        Draining means the in-flight job (if any) runs to completion
        before the thread exits — the loop only checks the stop flag
        between jobs.  Returns True when everything wound down inside
        ``timeout``; False means a job was still running (its lease
        will expire and re-queue it).
        """
        with self._restart_lock:
            self._stop.set()
        drained = True
        if self._thread is not None:
            self._thread.join(timeout)
            drained = not self._thread.is_alive()
        if self._supervisor is not None:
            self._supervisor.join(max(0.1, self.poll_interval * 4))
            self._supervisor = None
        self._thread = None
        return drained
