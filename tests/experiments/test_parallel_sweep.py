"""Serial vs process-parallel sweeps must be bit-identical.

``run_sweep(jobs=N)`` farms cells out to worker processes, which ship
their finished results (metrics registry included) back to the parent;
nothing about the numbers, ordering, trace streams or telemetry may
depend on N.
"""

import pickle

import pytest

from repro.apps import build_epigenome, build_synthetic
from repro.experiments import ExperimentConfig, ObserveOptions, run_experiment, run_sweep, runner
from repro.experiments.faultsweep import fault_inflation_sweep
from repro.telemetry.export import to_prometheus


def small_wf(app_name="any"):
    return build_synthetic(n_tasks=24, width=8, cpu_seconds=5.0, seed=1)


def _cells(collect_traces=False):
    return [
        ExperimentConfig("synthetic", "local", 1,
                         collect_traces=collect_traces),
        ExperimentConfig("synthetic", "nfs", 2,
                         collect_traces=collect_traces),
        ExperimentConfig("synthetic", "s3", 2,
                         collect_traces=collect_traces),
        ExperimentConfig("synthetic", "glusterfs-distribute", 2,
                         collect_traces=collect_traces),
    ]


def test_parallel_sweep_matches_serial_bit_for_bit():
    serial = run_sweep(_cells(), workflow_factory=small_wf)
    parallel = run_sweep(_cells(), workflow_factory=small_wf, jobs=4)
    assert len(parallel) == len(serial) == 4
    for s, p in zip(serial, parallel):
        assert p.config.label == s.config.label
        assert repr(p.makespan) == repr(s.makespan)
        assert repr(p.cost.per_hour_total) == repr(s.cost.per_hour_total)
        assert p.summary_row() == s.summary_row()


def test_parallel_sweep_replays_traces_identically():
    serial = run_sweep(_cells(collect_traces=True),
                       workflow_factory=small_wf)
    parallel = run_sweep(_cells(collect_traces=True),
                         workflow_factory=small_wf, jobs=2)
    for s, p in zip(serial, parallel):
        assert s.trace is not None and p.trace is not None
        s_records = [(r.time, r.category, r.event, r.fields)
                     for r in s.trace.records]
        p_records = [(r.time, r.category, r.event, r.fields)
                     for r in p.trace.records]
        assert p_records == s_records


def test_parallel_sweep_preserves_submission_order():
    # More cells than workers: completion order may scramble, result
    # order may not.
    cells = [ExperimentConfig("synthetic", "nfs", n) for n in (1, 2, 3, 4)]
    results = run_sweep(cells, workflow_factory=small_wf, jobs=2)
    assert [r.config.n_workers for r in results] == [1, 2, 3, 4]


def test_parallel_fault_sweep_matches_serial():
    base = ExperimentConfig("synthetic", "nfs", 2, seed=3)
    serial = fault_inflation_sweep(base, error_rates=(0.01, 0.05),
                                   node_mtbfs=(4000.0,),
                                   workflow=small_wf())
    parallel = fault_inflation_sweep(base, error_rates=(0.01, 0.05),
                                     node_mtbfs=(4000.0,),
                                     workflow=small_wf(), jobs=3)
    assert [p.row() for p in parallel] == [s.row() for s in serial]


def test_parallel_fault_sweep_replays_full_telemetry():
    # Beyond the flat points: the underlying results (exposed via
    # results_sink) must carry bit-identical metrics snapshots and
    # trace streams regardless of worker count.
    base = ExperimentConfig("synthetic", "nfs", 2, seed=3,
                            collect_traces=True)
    serial_results, parallel_results = [], []
    serial = fault_inflation_sweep(base, error_rates=(0.02,),
                                   node_mtbfs=(4000.0,),
                                   workflow=small_wf(),
                                   results_sink=serial_results)
    parallel = fault_inflation_sweep(base, error_rates=(0.02,),
                                     node_mtbfs=(4000.0,),
                                     workflow=small_wf(), jobs=2,
                                     results_sink=parallel_results)
    assert [p.row() for p in parallel] == [s.row() for s in serial]
    assert len(parallel_results) == len(serial_results) == 3
    for s, p in zip(serial_results, parallel_results):
        assert p.config.label == s.config.label
        assert p.metrics is not None and s.metrics is not None
        assert p.metrics.to_json() == s.metrics.to_json()
        s_records = [(r.time, r.category, r.event, r.fields)
                     for r in s.trace.records]
        p_records = [(r.time, r.category, r.event, r.fields)
                     for r in p.trace.records]
        assert p_records == s_records


def test_jobs_validation():
    with pytest.raises(ValueError):
        run_sweep(_cells(), workflow_factory=small_wf, jobs=0)


def app_wf(app_name):
    """Down-scaled workflow per app (module level, so workers can
    unpickle it)."""
    if app_name == "epigenome":
        return build_epigenome(chunks_per_lane=[2, 2])
    return small_wf(app_name)


def _telemetry_cells():
    return [
        ExperimentConfig("synthetic", "local", 1, collect_traces=True),
        ExperimentConfig("synthetic", "pvfs", 3, seed=2,
                         cpu_jitter_sigma=0.1, collect_traces=True),
        ExperimentConfig("epigenome", "nfs", 2, seed=1,
                         cpu_jitter_sigma=0.1, collect_traces=True),
        ExperimentConfig("epigenome", "pvfs", 2, collect_traces=True),
    ]


def _rows(records):
    return [(r.time, r.category, r.event, r.fields) for r in records]


def _telemetry(result):
    """Everything a result's telemetry exposes, in comparable form."""
    trace = result.trace
    return {
        "records": _rows(trace.records),
        "next_id": trace._next_id,
        "index": [(key, _rows(bucket))
                  for key, bucket in trace._by_cat_event.items()],
        "n_subscribers": trace.n_subscribers,
        "instruments": list(result.metrics._instruments),
        "metrics": result.metrics.to_json(),
        "prometheus": to_prometheus(result.metrics),
        "spans": result.spans,
    }


def test_parallel_sweep_ships_identical_telemetry():
    serial = run_sweep(_telemetry_cells(), workflow_factory=app_wf)
    parallel = run_sweep(_telemetry_cells(), workflow_factory=app_wf,
                         jobs=2)
    for s, p in zip(serial, parallel):
        assert p.config.label == s.config.label
        assert p.trace.n_subscribers == 1
        assert _telemetry(p) == _telemetry(s)


def test_shipped_bridge_keeps_counting_like_the_live_one():
    # The rebuilt collector's bridge feeds the shipped registry: a
    # record emitted after the sweep lands in both results alike.
    cells = _telemetry_cells()[:2]
    serial = run_sweep(cells, workflow_factory=app_wf)
    parallel = run_sweep(cells, workflow_factory=app_wf, jobs=2)
    for result in serial + parallel:
        result.trace.emit(0.0, "schedd", "submit")
    for s, p in zip(serial, parallel):
        assert p.metrics.to_json() == s.metrics.to_json()


def test_flight_recorder_detaches_from_finished_cells():
    # The recorder shares the cell's collector while it runs; a cell
    # that finished hands over a trace with only the result's bridge.
    cells = _telemetry_cells()[:2]
    plain = run_sweep(cells, workflow_factory=app_wf)
    for jobs in (1, 2):
        observed = run_sweep(cells, workflow_factory=app_wf, jobs=jobs,
                             observe=ObserveOptions(flight=True))
        for s, o in zip(plain, observed):
            assert _telemetry(o) == _telemetry(s)


def test_run_metrics_registry_pickles_round_trip():
    result = run_experiment(_telemetry_cells()[2],
                            workflow=app_wf("epigenome"))
    clone = pickle.loads(pickle.dumps(result.metrics))
    assert list(clone._instruments) == list(result.metrics._instruments)
    assert clone.to_json() == result.metrics.to_json()
    assert to_prometheus(clone) == to_prometheus(result.metrics)
    # The clone is a working registry, not a frozen snapshot.
    clone.counter("schedd_submits_total").inc()
    assert clone.counter("schedd_submits_total").total() == \
        result.metrics.counter("schedd_submits_total").total() + 1


_seen_payload_workflows = []


def _spy_sweep_cell(payload):
    # Runs in the pool worker (inherited by fork); the payload's
    # workflow slot rides home on the envelope.
    envelope = _spy_sweep_cell.inner(payload)
    envelope.payload_workflow = payload[2]
    return envelope


def test_pool_payloads_do_not_carry_the_workflow(monkeypatch):
    base = ExperimentConfig("synthetic", "nfs", 2, collect_traces=True)
    configs = [base.with_(seed=seed) for seed in range(3)]
    serial = run_sweep(configs, workflow=small_wf())

    orig_rehydrate = runner._rehydrate

    def rehydrate(envelope):
        _seen_payload_workflows.append(envelope.payload_workflow)
        return orig_rehydrate(envelope)

    _seen_payload_workflows.clear()
    _spy_sweep_cell.inner = runner._sweep_cell
    monkeypatch.setattr(runner, "_sweep_cell", _spy_sweep_cell)
    monkeypatch.setattr(runner, "_rehydrate", rehydrate)
    parallel = run_sweep(configs, workflow=small_wf(), jobs=2)
    assert _seen_payload_workflows == [None, None, None]
    for s, p in zip(serial, parallel):
        assert repr(p.makespan) == repr(s.makespan)
        assert _telemetry(p) == _telemetry(s)
