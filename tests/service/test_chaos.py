"""Chaos tests: the service survives injected host-side faults.

The oracle rests on the determinism contract: every cell is a pure
function of ``(ExperimentConfig, seed)`` and the result store is
content-addressed, so under *any* fault schedule every submitted job
must (a) reach a terminal state, (b) lose nothing, (c) never observe
a double execution (a re-run is byte-identical, so the cache answers
it), and (d) leave the store uncorrupted.

Three layers of tests:

* seeded property runs over the full stack (store + HTTP + worker
  faults at once),
* targeted worker-death recovery — the *real* lease-expiry backstop
  with no supervisor, then the supervisor's fast path,
* quarantine of poison jobs after ``max_attempts``, with crash
  bundles.
"""

import threading
import time

import pytest

from repro.experiments import ExperimentConfig
from repro.observe.flight import load_crash_bundles, validate_bundle
from repro.service import (
    CellCache,
    ChaosSpec,
    JobQueue,
    ServiceWorker,
    WorkerKilled,
    chaos_service,
    open_store,
)
from repro.lint.lockwatch import install_watcher, uninstall_watcher
from repro.service.chaos import ChaosSchedule, FlakySQLiteStore
from repro.service.client import TRANSIENT_STATUSES, ServiceError
from repro.telemetry.export import validate_exposition

TERMINAL = ("done", "failed")


@pytest.fixture(autouse=True)
def lock_witness():
    """Run every chaos seed as a runtime lock-order witness.

    All service locks are built through the lockwatch factory seam, so
    installing a watcher here turns each chaos scenario into a free
    concurrency audit: any lock-order inversion, excessive hold, or
    off-lock mutation of guarded state fails the test that provoked
    it.  The hold threshold is generous — chaos deliberately injects
    store delays *under* the connection lock, and CI machines stall.
    """
    watcher = install_watcher(hold_threshold=5.0)
    try:
        yield watcher
    finally:
        uninstall_watcher()
    assert watcher.findings == [], watcher.format_report()


def _cells():
    """A small mixed workload: distinct cells plus one duplicate."""
    return [
        ExperimentConfig("montage", "nfs", 2),
        ExperimentConfig("montage", "s3", 2),
        ExperimentConfig("epigenome", "nfs", 2),
        ExperimentConfig("montage", "nfs", 4),
        ExperimentConfig("montage", "nfs", 2),  # duplicate of job 1
    ]


def _submit_retrying(client, cells, deadline_s=30.0, **kwargs):
    """Submit with manual retry: POSTs are not auto-retried, and the
    chaos middleware only injects errors *before* the app runs, so a
    failed submission is guaranteed not to have enqueued anything."""
    t0 = time.monotonic()
    while True:
        try:
            return client.submit(cells, **kwargs)
        except ServiceError as exc:
            if exc.status not in TRANSIENT_STATUSES:
                raise
            if time.monotonic() - t0 > deadline_s:
                raise
            time.sleep(0.05)


@pytest.mark.parametrize("seed", [101, 202, 303])
def test_chaos_property_every_job_terminates_cleanly(seed, tmp_path):
    spec = ChaosSpec(
        seed=seed,
        store_error_rate=0.04,
        store_delay_rate=0.02,
        store_delay_seconds=0.002,
        http_error_rate=0.10,
        http_delay_rate=0.05,
        http_delay_seconds=0.005,
        http_drop_rate=0.15,
        kill_job_rate=0.05,
        kill_cell_rate=0.05,
    )
    db = str(tmp_path / "chaos.db")
    crash_dir = str(tmp_path / "crash")
    harness = chaos_service(spec, db_path=db, lease_seconds=1.0,
                            max_attempts=8, crash_dir=crash_dir)
    client = harness.client()
    try:
        job_ids = [
            _submit_retrying(client, [cell], scale="small")["job_id"]
            for cell in _cells()
        ]
        statuses = {}
        for job_id in job_ids:
            status = client.wait(job_id, timeout=120, poll_interval=0.1)
            statuses[job_id] = status
            # (a) terminal, with a recorded reason when failed.
            assert status["state"] in TERMINAL, status
            if status["state"] == "failed":
                assert status["error"], status

        # (b) nothing lost: every submitted id is still known, and no
        # job is stuck queued/running.
        with harness.schedule.calm():
            listed = {j["id"]: j for j in client.list_jobs()}
            assert set(job_ids) <= set(listed)
            assert all(listed[i]["state"] in TERMINAL for i in job_ids)

            # (d) the store itself is intact.
            rows = harness.store.query("PRAGMA integrity_check")
            assert rows[0][0] == "ok"

            # The schedule really fired (otherwise this test proves
            # nothing) ...
            assert harness.schedule.total_injected() > 0
            # ... and the exposition stayed valid under fire.
            assert validate_exposition(client.metrics()) == []
    finally:
        harness.stop()

    # A clean restart over the same database serves the survivors:
    # chaos gone, every done job's results are fetchable and the
    # duplicate submission proves cache idempotence (byte-identical
    # payload for the same digest).
    clean = chaos_service(ChaosSpec(seed=0), db_path=db,
                          lease_seconds=5.0)
    client2 = clean.client()
    try:
        assert clean.schedule.total_injected() == 0
        payload_by_digest = {}
        n_done = 0
        for job_id, status in statuses.items():
            if status["state"] != "done":
                continue
            n_done += 1
            for cell in client2.result(job_id)["cells"]:
                digest = cell["digest"]
                previous = payload_by_digest.setdefault(
                    digest, cell["result"])
                # (c) same digest -> byte-identical payload, no matter
                # how many crashes and re-runs produced it.
                assert cell["result"] == previous
        assert n_done > 0  # chaos may fail jobs, but not all of them
        # Resubmitting a done cell is a pure cache hit on the clean
        # stack: the kernel never re-runs an answered scenario.
        done_cells = [c for c, j in zip(_cells(), job_ids)
                      if statuses[j]["state"] == "done"]
        doc = client2.submit([done_cells[0]], scale="small")
        status = client2.wait(doc["job_id"], timeout=60)
        assert status["state"] == "done"
        assert status["n_cache_hits"] == 1
    finally:
        clean.stop()


class KillNthPickup:
    """Chaos hook killing the worker thread at its Nth job pickup."""

    def __init__(self, at=1):
        self.at = at
        self.pickups = 0

    def on_job(self, job):
        self.pickups += 1
        if self.pickups == self.at:
            raise WorkerKilled(f"test kill at pickup {self.pickups}")

    def on_cell(self, job, n_done):
        pass


class KillEveryPickup:
    """Chaos hook that kills the worker at every pickup (poison pill)."""

    def on_job(self, job):
        raise WorkerKilled("poison job")

    def on_cell(self, job, n_done):
        pass


def _stack(tmp_path, max_attempts=3, **worker_kwargs):
    store = open_store(str(tmp_path / "svc.db"))
    queue = JobQueue(store, max_attempts=max_attempts)
    cache = CellCache(store)
    worker = ServiceWorker(store, queue, cache, poll_interval=0.02,
                           **worker_kwargs)
    return store, queue, cache, worker


def _wait_for(predicate, timeout=30.0, interval=0.02):
    t0 = time.monotonic()
    while time.monotonic() - t0 < timeout:
        if predicate():
            return True
        time.sleep(interval)
    return predicate()


def test_dead_worker_lease_expires_and_job_completes(tmp_path):
    """Satellite: a *real* dead worker, recovered by lease expiry alone.

    The worker thread is killed mid-``run_job`` (no ack, no supervisor
    running), the job's short lease expires, and a healthy worker
    re-queues and completes it with the attempt count preserved.
    """
    store, queue, cache, worker = _stack(
        tmp_path, chaos=KillNthPickup(at=1), lease_seconds=0.3)
    job_id = queue.submit(
        "scenario",
        {"config": ExperimentConfig("montage", "nfs", 2).to_dict(),
         "scale": "small"})

    # Run the worker thread *without* its supervisor: this is the
    # whole-process-death scenario where only the lease protects us.
    thread = threading.Thread(target=worker._run_guarded, daemon=True)
    thread.start()
    assert _wait_for(lambda: not thread.is_alive(), timeout=10)
    assert isinstance(worker._crash, WorkerKilled)

    # The job is stranded mid-lease: still 'running', one attempt
    # burned, nothing acked.
    job = queue.get(job_id)
    assert job.state == "running"
    assert job.attempts == 1
    assert job.lease_owner == worker.name

    # Before the lease expires nothing can claim it.
    assert queue.lease("healthy-worker", 10.0) is None

    time.sleep(0.35)  # let the real lease run out

    # A healthy worker now recovers and completes the job.
    healthy = ServiceWorker(store, queue, cache, name="healthy-worker",
                            poll_interval=0.02, lease_seconds=10.0)
    healthy.start()
    try:
        assert _wait_for(lambda: queue.get(job_id).state == "done",
                         timeout=60)
    finally:
        assert healthy.stop()
    job = queue.get(job_id)
    assert job.state == "done"
    assert job.attempts == 2  # first (killed) + second (clean)
    assert job.n_done == 1 and job.n_failed == 0
    store.close()


def test_supervisor_restarts_worker_and_job_completes(tmp_path):
    """The fast path: the supervisor requeues + respawns in-process."""
    chaos = KillNthPickup(at=1)
    store, queue, cache, worker = _stack(
        tmp_path, chaos=chaos, lease_seconds=60.0)
    # Lease far longer than the test: if the job completes, it was the
    # supervisor's requeue, not lease expiry.
    job_id = queue.submit(
        "scenario",
        {"config": ExperimentConfig("montage", "nfs", 2).to_dict(),
         "scale": "small"})
    worker.start()
    try:
        assert _wait_for(lambda: queue.get(job_id).state == "done",
                         timeout=60)
    finally:
        assert worker.stop()
    job = queue.get(job_id)
    assert job.attempts == 2
    assert worker.n_restarts == 1
    assert chaos.pickups == 2
    from repro.telemetry.export import to_prometheus
    assert ('service_worker_restarts_total{worker="worker-0"} 1'
            in to_prometheus(worker.metrics))
    store.close()


def test_stop_while_supervisor_restarts_the_worker(tmp_path, monkeypatch):
    """stop() racing the supervisor's restart of a killed worker thread
    never joins a thread that is published but not started yet.  A
    slowed ``Thread.start`` holds the restart window open long enough to
    hit it every time."""
    class SlowStart(threading.Thread):
        def start(self):
            time.sleep(0.5)
            super().start()

    store, queue, cache, worker = _stack(
        tmp_path, max_attempts=5, chaos=KillEveryPickup(),
        lease_seconds=60.0)
    queue.submit(
        "scenario",
        {"config": ExperimentConfig("montage", "nfs", 2).to_dict(),
         "scale": "small"})
    monkeypatch.setattr(threading, "Thread", SlowStart)
    worker.start()
    try:
        assert _wait_for(lambda: worker.n_restarts >= 1, timeout=30)
    finally:
        assert worker.stop()
    monkeypatch.undo()
    store.close()


def test_poison_job_is_quarantined_with_crash_bundle(tmp_path):
    """A job that kills its worker every time fails cleanly at the
    attempt cap instead of crash-looping forever, and leaves a crash
    bundle behind for postmortem."""
    crash_dir = str(tmp_path / "crash")
    store, queue, cache, worker = _stack(
        tmp_path, max_attempts=2, chaos=KillEveryPickup(),
        lease_seconds=60.0, crash_dir=crash_dir)
    job_id = queue.submit(
        "scenario",
        {"config": ExperimentConfig("montage", "nfs", 2).to_dict(),
         "scale": "small"})
    worker.start()
    try:
        assert _wait_for(lambda: queue.get(job_id).state == "failed",
                         timeout=60)
    finally:
        worker.stop()
    job = queue.get(job_id)
    assert job.state == "failed"
    assert job.attempts == 2
    assert "quarantined" in job.error
    assert "WorkerKilled" in job.error
    # The supervisor kept the worker pool alive through both crashes.
    assert worker.n_restarts >= 2

    # Crash bundles: one per crash, schema-valid, pointing at the job.
    bundles = load_crash_bundles(crash_dir)
    assert len(bundles) >= 1
    for _, bundle in bundles:
        assert validate_bundle(bundle) == []
        assert bundle["job"]["id"] == job_id
        assert bundle["error"]["type"] == "WorkerKilled"
    store.close()


def test_flaky_store_faults_are_absorbed_by_retries(tmp_path):
    """Store-level chaos alone: every statement-level injection is
    retried away; the queue protocol never sees a fault."""
    schedule = ChaosSchedule(ChaosSpec(seed=5, store_error_rate=0.10))
    store = FlakySQLiteStore(str(tmp_path / "flaky.db"),
                             schedule=schedule)
    queue = JobQueue(store)
    ids = [queue.submit("scenario", {"i": i}) for i in range(30)]
    assert len(set(ids)) == 30
    for job_id in ids:
        assert queue.get(job_id).state == "queued"
    counts = queue.counts()
    assert counts["queued"] == 30
    assert schedule.injected["store.error"] > 0
    from repro.telemetry.export import to_prometheus
    text = to_prometheus(store.metrics)
    assert "service_retry_attempts_total" in text
    with schedule.calm():
        assert store.query("PRAGMA integrity_check")[0][0] == "ok"
    store.close()
