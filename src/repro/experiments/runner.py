"""End-to-end experiment execution.

:func:`run_experiment` stands up a fresh simulated world for one
configuration cell — cloud, virtual cluster, storage deployment,
workflow management system — executes the application, terminates the
cluster, and prices the run.  :func:`run_sweep` drives a list of cells
(one fresh world each; nothing leaks between cells).

A sweep is one pipeline: cache lookup, then an executor yielding one
:class:`_SweepEnvelope` per cell in config order (inline, or a process
pool whose workers ship finished results), then one consumer that
interleaves cache hits, retries failures and feeds the monitor.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterable, Iterator, List, Optional

from ..apps.templates import app_template
from ..cloud.cluster import ContextBroker
from ..cloud.ec2 import EC2Cloud
from ..cost.model import WorkflowCost, compute_cost
from ..faults import FaultCoordinator, FaultReport, RescueLog
from ..observe import hostclock
from ..observe.flight import (DEFAULT_RING_CAPACITY, FlightRecorder,
                              crash_bundle, write_crash_bundle)
from ..observe.monitor import SweepMonitor
from ..observe.profiles import capture_profile
from ..simcore.engine import Environment
from ..simcore.tracing import NULL_COLLECTOR, TraceCollector
from ..storage import make_storage
from ..telemetry.metrics import NULL_REGISTRY, MetricsRegistry, install_trace_bridge
from ..telemetry.sampler import Timeline, UtilizationSampler, attach_cluster
from ..telemetry.spans import Span, SpanBuilder, spans_from_trace
from ..workflow.dag import Workflow
from ..workflow.wms import PegasusWMS, WorkflowRun
from .config import ExperimentConfig


class CellError(RuntimeError):
    """One or more sweep cells failed.

    Raised by :func:`run_sweep` (unless ``keep_going``) after the whole
    sweep has been driven and every failure recorded; ``failures``
    holds one dict per failed cell — ``index``, ``label``, ``digest``,
    the ``error`` record (type/message/traceback), and the crash
    ``bundle`` path when ``--crash-dir`` was active.  The exception
    message is a single line, suitable for a CLI exit summary; the full
    tracebacks live in the failure dicts and the bundles.
    """

    def __init__(self, failures: List[Dict[str, Any]]) -> None:
        self.failures = failures
        parts = [f"cell {f['index']} {f['label']} "
                 f"[{f['error']['type']}: {f['error']['message']}]"
                 for f in failures]
        noun = "cell" if len(failures) == 1 else "cells"
        super().__init__(f"{len(failures)} sweep {noun} failed: "
                         + "; ".join(parts))


@dataclass
class ObserveOptions:
    """Host-side observability configuration for :func:`run_sweep`.

    All features default off; a default-constructed instance makes
    ``run_sweep`` behave exactly as if no options were passed.  None of
    these options can alter simulation results — they only observe.
    """

    #: Receives every lifecycle transition (events/progress/summary).
    monitor: Optional[SweepMonitor] = None
    #: Directory for crash bundles of failed cells (created on demand).
    crash_dir: Optional[str] = None
    #: Keep a flight-recorder ring in every worker even without a
    #: crash dir (the ring is only *persisted* via ``crash_dir``).
    flight: bool = False
    flight_capacity: int = DEFAULT_RING_CAPACITY
    #: ``off`` or ``cprofile`` (host-CPU profile per cell).
    profile: str = "off"
    #: In-process re-runs of a failed cell before it counts as failed
    #: (guards against host-level transients; the sim is deterministic).
    cell_retries: int = 0
    #: Collect failures and return ``None`` placeholders instead of
    #: raising :class:`CellError` at the end of the sweep.
    keep_going: bool = False

    def flight_enabled(self) -> bool:
        """Ring buffers are on explicitly or implied by a crash dir."""
        return self.flight or self.crash_dir is not None


@dataclass
class ExperimentResult:
    """Everything measured for one experiment cell."""

    config: ExperimentConfig
    run: WorkflowRun
    cost: WorkflowCost
    trace: Optional[TraceCollector] = None
    #: Per-run instrument registry (None when telemetry was disabled).
    metrics: Optional[MetricsRegistry] = None
    #: Sampled utilization timelines (None when telemetry was disabled).
    timeline: Optional[Timeline] = None
    #: What the fault layer injected/recovered (None = faults off).
    faults: Optional[FaultReport] = None

    @property
    def makespan(self) -> float:
        """Workflow wall-clock time, seconds."""
        return self.run.makespan

    @property
    def label(self) -> str:
        """The cell label."""
        return self.config.label

    @property
    def spans(self) -> List[Span]:
        """The reconstructed span forest (empty without a trace)."""
        if self.trace is None:
            return []
        return spans_from_trace(self.trace)

    def summary_row(self) -> Dict[str, object]:
        """Flat dict for result tables / CSV export."""
        return {
            "app": self.config.app,
            "storage": self.config.storage,
            "nodes": self.config.n_workers,
            "makespan_s": round(self.run.makespan, 1),
            "cost_per_hour": round(self.cost.per_hour_total, 4),
            "cost_per_second": round(self.cost.per_second_total, 4),
            "jobs": self.run.n_jobs,
            "s3_gets": self.run.storage_stats.get_requests,
            "s3_puts": self.run.storage_stats.put_requests,
            "cache_hits": self.run.storage_stats.cache_hits,
        }

    def to_json(self, indent: Optional[int] = None) -> str:
        """Lossless, schema-versioned JSON (see
        :mod:`repro.experiments.serialize`)."""
        from .serialize import result_to_json
        return result_to_json(self, indent=indent)

    @classmethod
    def from_json(cls, text: str) -> "ExperimentResult":
        """Rebuild a result serialized by :meth:`to_json`."""
        from .serialize import result_from_json
        return result_from_json(text)


def run_experiment(config: ExperimentConfig,
                   workflow: Optional[Workflow] = None,
                   rescue: Optional[RescueLog] = None,
                   trace: Optional[TraceCollector] = None
                   ) -> ExperimentResult:
    """Execute one experiment cell in a fresh simulated world.

    ``workflow`` overrides the application's default (paper-sized)
    instance — used by tests and sweeps over workflow scale.
    ``rescue`` resumes from / checkpoints to a rescue-DAG log.
    ``trace`` supplies an external collector (the flight recorder's) so
    observers see kernel events even when ``collect_traces`` is off;
    the *result's* trace/metrics fields stay keyed to
    ``config.collect_traces`` regardless, and an external collector is
    purely a passive subscriber — it cannot change the run.
    """
    ok, why = config.is_valid()
    if not ok:
        raise ValueError(f"invalid experiment {config.label}: {why}")

    telemetry_on = config.collect_traces
    if trace is None:
        trace = TraceCollector() if telemetry_on else NULL_COLLECTOR
    metrics = MetricsRegistry() if telemetry_on else NULL_REGISTRY
    install_trace_bridge(metrics, trace)
    env = Environment()
    spans = SpanBuilder(trace, env)
    exp_span = spans.begin("experiment", config.label, app=config.app,
                           storage=config.storage, nodes=config.n_workers)
    cloud = EC2Cloud(env, seed=config.seed, trace=trace)
    broker = ContextBroker(cloud, trace=trace)

    needs_nfs = config.storage == "nfs"
    cluster = broker.provision_now(
        config.n_workers,
        worker_type=config.worker_type,
        service_type=config.nfs_server_type if needs_nfs else None,
        n_service=1 if needs_nfs else 0,
        initialized_disks=config.initialized_disks,
    )

    storage = make_storage(
        config.storage, env, cloud=cloud,
        nfs_server=cluster.service_nodes[0] if needs_nfs else None,
        trace=trace,
    )
    storage.deploy(cluster.workers)

    fault_spec = config.effective_fault_spec()
    faults: Optional[FaultCoordinator] = None
    if fault_spec is not None:
        faults = FaultCoordinator(env, fault_spec, seed=config.seed,
                                  trace=trace)
        faults.attach_storage(storage)

    if workflow is None:
        # Cached frozen template: the DAG is built and validated once
        # per process, then shared by every run of the same app.
        workflow = app_template(config.app).instantiate()

    sampler: Optional[UtilizationSampler] = None
    if telemetry_on:
        sampler = UtilizationSampler(env, interval=config.sample_interval)
        attach_cluster(sampler, cluster.all_nodes, storage=storage)
        sampler.start()

    wms = PegasusWMS(
        env, cluster.workers, storage,
        scheduler=config.scheduler,
        seed=config.seed,
        cpu_jitter_sigma=config.cpu_jitter_sigma,
        task_failure_rate=config.task_failure_rate,
        retries=config.retries,
        fault_coordinator=faults,
        halt_on_failure=config.halt_on_failure,
        trace=trace,
    )
    run = wms.execute(workflow, parent_span=exp_span if telemetry_on else None,
                      rescue=rescue)
    if sampler is not None:
        sampler.sample_now()  # final reading at workflow completion
        sampler.stop()
    cloud.terminate_all()
    spans.end(exp_span)

    stored_gb = workflow.total_files_bytes() / 1e9 \
        if hasattr(workflow, "total_files_bytes") else \
        sum(m.size for m in workflow.files.values()) / 1e9
    cost = compute_cost(
        cloud.billing, storage.stats, storage.name,
        makespan=run.makespan, stored_gb=stored_gb, at=env.now,
    )
    if telemetry_on:
        _set_summary_gauges(metrics, config, run, cost)
    return ExperimentResult(
        config=config, run=run, cost=cost,
        trace=trace if telemetry_on else None,
        metrics=metrics if telemetry_on else None,
        timeline=sampler.timeline if sampler is not None else None,
        faults=faults.report() if faults is not None else None,
    )


def _set_summary_gauges(metrics: MetricsRegistry, config: ExperimentConfig,
                        run: WorkflowRun, cost: WorkflowCost) -> None:
    """Publish the per-run summary gauges (shared with deserialization)."""
    makespan_g = metrics.gauge(
        "experiment_makespan_seconds", "workflow wall-clock time")
    makespan_g.set(run.makespan, app=config.app,
                   storage=config.storage, nodes=config.n_workers)
    cost_g = metrics.gauge(
        "experiment_cost_usd", "run cost by billing model")
    cost_g.set(cost.per_hour_total, billing="hour")
    cost_g.set(cost.per_second_total, billing="second")


@dataclass
class _CellObserve:
    """Picklable per-cell observability switches shipped to workers."""

    flight: bool = False
    flight_capacity: int = DEFAULT_RING_CAPACITY
    profile: str = "off"


@dataclass
class _SweepEnvelope:
    """One sweep cell's outcome on its way to the sweep's consumer.

    The inline executor hands ``result`` over live, exactly as
    :func:`run_experiment` returned it.  A pool worker
    (:func:`_sweep_cell`) ships it finished: the result crosses the
    process boundary with its metrics registry — the worker already
    built every instrument — but without its trace collector, whose
    subscriber is the bridge closure and cannot be pickled.  The
    collector's records travel as plain ``trace_rows`` instead, and
    :func:`_rehydrate` rebuilds the collector from them in bulk.

    The host-side fields (``wall_*``, ``peak_rss``, ``profile_stats``,
    ``error``) feed the sweep monitor and flight recorder only; none of
    them ever reaches the deterministic result or its telemetry.
    """

    index: int
    config: ExperimentConfig
    #: The cell's result (None when the cell raised).
    result: Optional[ExperimentResult] = None
    #: ``(time, category, event, fields)`` rows of a shipped trace; None
    #: while the result still holds its collector (or has none).
    trace_rows: Optional[List[tuple]] = None
    #: The worker collector's id counter (span ids continue from here).
    trace_next_id: int = 0
    #: Host epoch seconds when the cell was picked up.
    wall_start: float = 0.0
    #: Host wall-clock duration of the cell, seconds.
    wall_seconds: float = 0.0
    #: Peak RSS in bytes at cell completion (process-wide high water
    #: mark — monotone within one worker process).
    peak_rss: int = 0
    #: pstats tables captured under ``--profile cprofile``.
    profile_stats: Optional[List[Dict[Any, Any]]] = None
    #: Crash bundle dict when the cell raised.
    error: Optional[Dict[str, Any]] = None


#: The explicit ``workflow`` of the pool this process works for, set
#: once per worker by :func:`_init_pool_worker`; None in the parent.
_pool_workflow: Optional[Workflow] = None


def _init_pool_worker(workflow: Optional[Workflow]) -> None:
    """Pool initializer: take the sweep's explicit workflow once per
    worker, so pool payloads leave their workflow slot None."""
    global _pool_workflow
    _pool_workflow = workflow


def _run_cell(payload) -> _SweepEnvelope:
    """Run one cell in this process; the envelope holds the live result.

    ``payload`` is ``(index, config, workflow, factory, obs)``.  Never
    raises: a failing cell comes back as an envelope whose ``error``
    field is a ready-to-write crash bundle (traceback, scenario config
    + digest, flight-recorder ring, partial metrics), so the sweep
    keeps going past it.
    """
    index, config, workflow, factory, obs = payload
    wall_start = hostclock.wall_now()
    t0 = hostclock.monotonic()
    recorder = FlightRecorder(obs.flight_capacity) if obs.flight else None
    profile_sink: List[Dict[Any, Any]] = []
    result: Optional[ExperimentResult] = None
    error: Optional[Dict[str, Any]] = None
    try:
        if workflow is None:
            workflow = _pool_workflow
        if workflow is None and factory is not None:
            workflow = factory(config.app)
        ext_trace = recorder.trace if recorder is not None else None
        if obs.profile == "cprofile":
            with capture_profile(profile_sink):
                result = run_experiment(config, workflow=workflow,
                                        trace=ext_trace)
        else:
            result = run_experiment(config, workflow=workflow,
                                    trace=ext_trace)
    # Catching everything here is the point: any cell failure
    # (Interrupt and deadlock included) becomes an error envelope so
    # the sweep keeps yielding the remaining cells, and the exception
    # is preserved verbatim inside the crash bundle.
    except Exception as exc:  # lint: ignore[SIM007]
        error = crash_bundle(config, index, exc, recorder)
    else:
        if recorder is not None:
            recorder.detach()
    return _SweepEnvelope(
        index=index, config=config, result=result,
        wall_start=wall_start,
        wall_seconds=hostclock.monotonic() - t0,
        peak_rss=hostclock.peak_rss_bytes(),
        profile_stats=profile_sink or None,
        error=error,
    )


def _sweep_cell(payload) -> _SweepEnvelope:
    """Pool worker entry point: run one cell and ship it finished.

    The result keeps its metrics registry; its trace collector is
    unrolled into ``trace_rows`` for :func:`_rehydrate` to rebuild.
    """
    envelope = _run_cell(payload)
    result = envelope.result
    if result is not None and result.trace is not None:
        trace = result.trace
        envelope.trace_rows = [(r.time, r.category, r.event, r.fields)
                               for r in trace.records]
        envelope.trace_next_id = trace._next_id
        result.trace = None
    return envelope


def _rehydrate(envelope: _SweepEnvelope) -> ExperimentResult:
    """The envelope's result, with a shipped trace collector rebuilt.

    :meth:`TraceCollector.from_rows` restores the records, the
    ``(category, event)`` index and the id counter in bulk, and the
    metrics bridge is subscribed to the shipped registry, which already
    holds every value.  Nothing is replayed, yet the result equals the
    serial one: records, indexes, ``_next_id``, subscriber count and
    every instrument.  A live result passes through untouched.
    """
    result = envelope.result
    if envelope.trace_rows is not None:
        result.trace = TraceCollector.from_rows(envelope.trace_rows,
                                                envelope.trace_next_id)
        install_trace_bridge(result.metrics, result.trace)
    return result


def _envelopes(payloads: List[tuple], jobs: int,
               workflow: Optional[Workflow]) -> Iterator[_SweepEnvelope]:
    """The sweep's executor: one envelope per payload, in payload order.

    With ``jobs == 1`` or a single payload the cells run inline, each
    when the consumer asks for it, and hand over live results.
    Otherwise a pool of up to ``jobs`` processes runs them through
    :func:`_sweep_cell`; ``map`` yields in submission order whatever
    the completion order.  An explicit ``workflow`` reaches each worker
    once, through the pool initializer, instead of in every payload.
    """
    if jobs == 1 or len(payloads) <= 1:
        for payload in payloads:
            yield _run_cell(payload)
        return
    from concurrent.futures import ProcessPoolExecutor

    shipped = [(index, config, None, factory, obs)
               for index, config, _, factory, obs in payloads]
    with ProcessPoolExecutor(max_workers=min(jobs, len(payloads)),
                             initializer=_init_pool_worker,
                             initargs=(workflow,)) as pool:
        yield from pool.map(_sweep_cell, shipped)


def run_sweep(configs: Iterable[ExperimentConfig],
              workflow_factory: Optional[Callable[[str], Workflow]] = None,
              progress: Optional[Callable[[ExperimentResult], None]] = None,
              jobs: int = 1,
              workflow: Optional[Workflow] = None,
              observe: Optional[ObserveOptions] = None,
              cache: Optional[Any] = None,
              ) -> List[Optional[ExperimentResult]]:
    """Run many cells; each gets its own fresh simulated world.

    ``workflow_factory(app_name)`` can supply down-scaled workflows for
    quick sweeps; ``workflow`` fixes one explicit workflow for every
    cell instead (mutually exclusive with the factory).  ``progress``
    is called after each cell, in config order.

    ``jobs > 1`` runs cells in up to that many worker processes.  The
    returned list is always in config order and — because every cell is
    a fresh, fully deterministic world — bit-identical to a serial
    sweep, including the telemetry of each result (see
    :class:`_SweepEnvelope`).  With ``jobs > 1`` the factory must be
    picklable (a module-level function, not a lambda).

    ``observe`` switches on host-side observability (monitor/event log,
    flight recorder + crash bundles, profiling, retries); see
    :class:`ObserveOptions`.  A cell that raises is recorded (bundle
    written, ``cell_failed`` event emitted) and — after the whole sweep
    has been driven — the first-failure behaviour is a single
    :class:`CellError` listing every failed cell.  With ``keep_going``
    the sweep instead returns ``None`` placeholders at failed indexes.

    ``cache`` is a content-addressed cell cache (anything with the
    :class:`repro.service.cache.CellCache` ``get(config)``/
    ``put(config, result)`` shape).  Every cell is looked up by its
    ``config.digest()`` before any world is built; hits are served
    without simulating (zero kernel events) and misses are stored
    after the run, so a repeated sweep is O(new cells).  The cache
    counts ``sweep_cache_hits_total`` / ``sweep_cache_misses_total``
    per lookup.  Caching only ever changes *whether* a cell is
    simulated, never its result: a hit is the losslessly round-tripped
    result of an earlier run of the same scenario, and serial vs
    parallel sweeps populate identical cache contents.  The cache is
    deliberately *not* used for cells that fail — only completed
    results are stored.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    if workflow is not None and workflow_factory is not None:
        raise ValueError("pass workflow or workflow_factory, not both")
    configs = list(configs)
    opts = observe if observe is not None else ObserveOptions()
    if opts.profile not in ("off", "cprofile"):
        raise ValueError(f"unknown profile mode {opts.profile!r}")

    # Content-addressed lookup happens up front, in config order, so
    # hit/miss counters are deterministic and no worker process is ever
    # spawned for a cell the store can already answer.
    cached: Dict[int, ExperimentResult] = {}
    if cache is not None:
        for index, config in enumerate(configs):
            hit = cache.get(config)
            if hit is not None:
                cached[index] = hit

    cell_obs = _CellObserve(flight=opts.flight_enabled(),
                            flight_capacity=opts.flight_capacity,
                            profile=opts.profile)
    payloads = [(i, config, workflow, workflow_factory, cell_obs)
                for i, config in enumerate(configs)]
    monitor = opts.monitor
    results: List[Optional[ExperimentResult]] = []
    failures: List[Dict[str, Any]] = []

    if monitor is not None:
        monitor.sweep_started(len(configs), jobs)
        for index, config in enumerate(configs):
            monitor.cell_scheduled(index, config)
    envelopes = _envelopes([p for p in payloads if p[0] not in cached],
                           jobs, workflow)
    try:
        # The one consumer: interleaving the cached indexes back in
        # keeps result order (and progress callbacks) config order.  A
        # hit costs no simulation, so its envelope reports zero wall
        # time and is not stored again.
        for index, config in enumerate(configs):
            hit = cached.get(index)
            if hit is not None:
                envelope = _SweepEnvelope(index, config, result=hit)
            else:
                envelope = next(envelopes)
                if envelope.error is not None:
                    envelope = _run_with_retries(payloads[index], opts,
                                                 envelope)
            results.append(_consume_envelope(
                envelope, opts, progress, failures,
                cache=cache if hit is None else None))
    finally:
        envelopes.close()
        if monitor is not None:
            monitor.sweep_finished()
    if failures and not opts.keep_going:
        raise CellError(failures)
    return results


def _run_with_retries(payload, opts: ObserveOptions,
                      envelope: _SweepEnvelope) -> _SweepEnvelope:
    """Re-run a failed cell in this process, up to cell_retries times.

    The simulation itself is deterministic, so a retry only helps
    against *host*-level transients (an OOM-killed worker, a full
    tmpdir); each attempt is announced via ``cell_retried``.
    """
    attempt = 0
    while envelope.error is not None and attempt < opts.cell_retries:
        attempt += 1
        if opts.monitor is not None:
            opts.monitor.cell_retried(payload[0], payload[1], attempt)
        envelope = _run_cell(payload)
    return envelope


def _consume_envelope(envelope: _SweepEnvelope, opts: ObserveOptions,
                      progress: Optional[Callable[[ExperimentResult], None]],
                      failures: List[Dict[str, Any]],
                      cache: Optional[Any] = None
                      ) -> Optional[ExperimentResult]:
    """Fold one envelope into monitor events, bundles, and a result.

    ``cell_started`` is emitted here — retrospectively, at completion —
    because a process pool gives the parent no signal when a worker
    actually picks a cell up; the event's host ordering is therefore
    schedule-accurate, not start-accurate (the worker-observed start
    time is preserved in ``wall_start``).
    """
    monitor = opts.monitor
    config = envelope.config
    if monitor is not None:
        monitor.cell_started(envelope.index, config)
        for table in envelope.profile_stats or []:
            monitor.add_profile_stats(table)
    if envelope.error is not None:
        bundle_path: Optional[str] = None
        if opts.crash_dir is not None:
            bundle_path = write_crash_bundle(opts.crash_dir, envelope.error)
        err = envelope.error["error"]
        failures.append({
            "index": envelope.index,
            "label": config.label,
            "digest": envelope.error["digest"],
            "error": err,
            "bundle": bundle_path,
        })
        if monitor is not None:
            monitor.cell_failed(
                envelope.index, config,
                error=f"{err['type']}: {err['message']}",
                wall_seconds=envelope.wall_seconds,
                peak_rss=envelope.peak_rss,
                bundle_path=bundle_path)
        return None
    result = _rehydrate(envelope)
    if cache is not None:
        cache.put(config, result)
    if monitor is not None:
        monitor.cell_finished(envelope.index, config,
                              wall_seconds=envelope.wall_seconds,
                              peak_rss=envelope.peak_rss)
    if progress is not None:
        progress(result)
    return result
