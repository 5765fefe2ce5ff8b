"""Observability must never touch the deterministic hash-chain.

Every scenario below runs twice: once bare, once with the whole
observability surface switched on — live progress, JSONL event log,
crash dir + flight recorder, per-cell cProfile, Prometheus export.
The telemetry hash-chain (every trace record, makespan, cost) must be
bit-identical between the two legs: host-side observation is passive
by construction, and this test is the regression gate for that
invariant (see ISSUE/docs: "no wall-clock data in the hash-chain").

The bare leg is also checked against the literal hash-chain, makespan
and cost pinned in ``tests/golden_scenarios.json``, so a change that
moves both legs together still fails.
"""

import hashlib
import io

import pytest

from repro.apps import (
    build_broadband,
    build_epigenome,
    build_montage,
    build_synthetic,
)
from repro.experiments import (
    ExperimentConfig,
    ObserveOptions,
    run_sweep,
)
from repro.lint.determinism import canonical_event
from repro.observe import EventLogWriter, SweepMonitor
from repro.telemetry import to_prometheus, validate_exposition

# The 22 golden scenarios: every application crossed with a spread of
# storage backends, node counts, and seeds.  Workflows are scaled down
# so the double-run suite stays fast; determinism is scale-free.
SCENARIOS = [
    ("synthetic", "local", 1, 0),
    ("synthetic", "local", 1, 1),
    ("synthetic", "nfs", 2, 0),
    ("synthetic", "nfs", 4, 7),
    ("synthetic", "s3", 2, 0),
    ("synthetic", "s3", 4, 3),
    ("synthetic", "pvfs", 2, 0),
    ("synthetic", "pvfs", 4, 5),
    ("synthetic", "glusterfs-nufa", 2, 0),
    ("synthetic", "glusterfs-nufa", 4, 11),
    ("synthetic", "glusterfs-distribute", 2, 0),
    ("synthetic", "glusterfs-distribute", 4, 13),
    ("montage", "local", 1, 0),
    ("montage", "nfs", 2, 42),
    ("montage", "s3", 2, 0),
    ("montage", "glusterfs-nufa", 2, 17),
    ("epigenome", "nfs", 2, 0),
    ("epigenome", "pvfs", 2, 42),
    ("broadband", "s3", 2, 0),
    ("broadband", "nfs", 2, 23),
    ("montage", "xtreemfs", 2, 0),
    ("synthetic", "p2p", 2, 0),
]


def scenario_id(scenario):
    """Test id and golden-file key, e.g. ``montage-nfs-n2-s42``."""
    return "{}-{}-n{}-s{}".format(*scenario)


def small_workflow(app):
    if app == "montage":
        return build_montage(degrees=0.5)
    if app == "epigenome":
        return build_epigenome(chunks_per_lane=[2, 2])
    if app == "broadband":
        return build_broadband(n_sources=1, n_sites=2)
    return build_synthetic(30, width=6, seed=1)


def _config(app, storage, nodes, seed):
    # cpu_jitter routes the seed through the random substreams, so the
    # chain covers the full stochastic surface, as in digest_run().
    return ExperimentConfig(app, storage, nodes, seed=seed,
                            cpu_jitter_sigma=0.05, collect_traces=True)


def _hash_chain(result):
    """sha256 over every canonical trace line + makespan/cost tail."""
    chain = hashlib.sha256()
    for rec in result.trace.records:
        chain.update(canonical_event(rec.time, rec.category, rec.event,
                                     rec.fields).encode())
        chain.update(b"\n")
    tail = (f"makespan={result.run.makespan!r}"
            f"|cost={result.cost.per_second_total!r}")
    chain.update(tail.encode())
    return chain.hexdigest()


def golden_record(result):
    """The pinned triple for one scenario (see tests/golden_scenarios.json)."""
    return {"hash_chain": _hash_chain(result),
            "makespan": result.run.makespan,
            "cost_per_second_total": result.cost.per_second_total}


def _run_bare(config, workflow):
    (result,) = run_sweep([config], workflow=workflow)
    return result


def _run_fully_observed(config, workflow, tmp_path, jobs=1):
    events = EventLogWriter(io.StringIO())
    monitor = SweepMonitor(events=events, progress=True,
                           stream=io.StringIO())
    observe = ObserveOptions(monitor=monitor,
                             crash_dir=str(tmp_path / "crashes"),
                             flight=True, flight_capacity=64,
                             profile="cprofile")
    (result,) = run_sweep([config], workflow=workflow, jobs=jobs,
                          observe=observe)
    # Exercise the export path too: rendering the registry is read-only
    # and must produce a valid exposition.
    assert result.metrics is not None
    assert validate_exposition(to_prometheus(result.metrics)) == []
    return result


@pytest.mark.parametrize("scenario", SCENARIOS, ids=scenario_id)
def test_digest_invariant_under_full_observability(scenario, tmp_path,
                                                   goldens):
    app, storage, nodes, seed = scenario
    workflow = small_workflow(app)
    config = _config(app, storage, nodes, seed)
    bare = _run_bare(config, workflow)
    observed = _run_fully_observed(config, workflow, tmp_path)
    assert _hash_chain(observed) == _hash_chain(bare)
    assert repr(observed.run.makespan) == repr(bare.run.makespan)
    assert repr(observed.cost.per_second_total) == \
        repr(bare.cost.per_second_total)
    assert observed.metrics.to_json() == bare.metrics.to_json()
    goldens.check("scenarios", scenario_id(scenario), golden_record(bare))


def test_digest_invariant_across_worker_processes(tmp_path):
    # Same invariant through the process-pool path: envelopes must
    # replay the exact stream even with the flight recorder attached.
    app, storage, nodes, seed = SCENARIOS[2]
    configs = [_config(app, storage, nodes, seed),
               _config(app, storage, nodes, seed + 1)]
    workflow = small_workflow(app)
    bare = [_run_bare(c, workflow) for c in configs]
    monitor = SweepMonitor(events=EventLogWriter(io.StringIO()),
                           progress=True, stream=io.StringIO())
    observe = ObserveOptions(monitor=monitor,
                             crash_dir=str(tmp_path / "crashes"),
                             flight=True, profile="cprofile")
    observed = run_sweep(configs, workflow=workflow, jobs=2,
                         observe=observe)
    for b, o in zip(bare, observed):
        assert _hash_chain(o) == _hash_chain(b)
