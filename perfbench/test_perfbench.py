"""Tests of the benchmark's own machinery.

Run from the repository root::

    PYTHONPATH=src python3 -m pytest perfbench -q
"""

from __future__ import annotations

import os
import re

import numpy as np
import pytest
import run
import tracer
import workloads
from repro.apps import build_broadband, build_epigenome, build_montage
from repro.experiments import runner
from repro.experiments.config import ExperimentConfig
from repro.simcore.engine import Environment
from repro.simcore.errors import Interrupt

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _log_of(rows):
    """A SpanLog holding ``(name, start, end, parent)`` rows."""
    log = tracer.SpanLog()
    for name, start, end, parent in rows:
        log.start.append(start)
        log.end.append(end)
        log.parent.append(parent)
        log.name.append(log.name_id(name))
        log.cell_of.append(0)
    return log


# -- self-time arithmetic ---------------------------------------------------

NEST = [
    ("engine.cell", 0, 100, -1),        # 0: root
    ("storage.read", 10, 40, 0),        # 1: nested child ...
    ("cloud.transfer", 20, 30, 1),      # 2: ... with its own child
    ("flownet.transfer", 40, 60, 0),    # 3: back-to-back with 1 and 5
    ("pipes.submit", 60, 60, 0),        # 4: zero length
    ("storage.write", 60, 70, 0),       # 5: starts where 3 and 4 end
    ("cloud.transfer", 70, 70, 5),      # 6: zero length at the end of 5
]


def test_self_times_of_a_span_nest():
    start, end, parent = (np.array([r[i] for r in NEST], dtype=np.int64)
                          for i in (1, 2, 3))
    own = tracer.self_times(start, end, parent)
    assert own.tolist() == [40, 20, 10, 20, 0, 10, 0]
    assert own.sum() == 100


def test_layer_self_times_add_up_to_the_roots():
    rows = NEST + [("sweep.cell", 200, 260, -1), ("engine.cell", 210, 250, 7),
                   ("telemetry.emit", 250, 250, 7)]
    own, inclusive, roots = tracer.layer_seconds(_log_of(rows))
    assert roots == pytest.approx(160e-9)
    assert sum(own.values()) == pytest.approx(roots)
    assert own["engine"] == pytest.approx(80e-9)
    assert own["storage"] == pytest.approx(30e-9)
    assert own["cloud"] == pytest.approx(10e-9)
    assert own["sweep"] == pytest.approx(20e-9)
    assert own["pipes"] == own["telemetry"] == 0
    assert inclusive["cloud.transfer"] == pytest.approx(10e-9)


def test_merge_appends_worker_spans_as_new_roots():
    parent_log = _log_of(NEST[:2])
    worker = _log_of([("sweep.cell", 5, 9, -1), ("engine.cell", 6, 8, 0)])
    worker.counts["engine.resumes"] += 3
    parent_log.merge(worker.export())
    assert list(parent_log.parent) == [-1, 0, -1, 2]
    assert [parent_log.names[n] for n in parent_log.name] == [
        "engine.cell", "storage.read", "sweep.cell", "engine.cell"]
    assert parent_log.counts["engine.resumes"] == 3


# -- the generator proxy ----------------------------------------------------

def _proxy(gen, log):
    return tracer.GenProxy(gen, log.name_id("storage.test"), log)


def _closed(log):
    """Every span is closed and the stack is back at the root."""
    return log.stack == [-1] and all(e >= s for s, e in zip(log.start, log.end))


def test_proxy_keeps_send_and_return_value():
    done = []

    def gen():
        try:
            x = yield 1
            y = yield x + 1
            return x + y
        finally:
            done.append("finally")

    log = tracer.SpanLog()
    p = _proxy(gen(), log)
    assert p.__name__ == "gen"
    assert next(p) == 1
    assert p.send(5) == 6
    with pytest.raises(StopIteration) as stop:
        p.send(7)
    assert stop.value.value == 12
    assert done == ["finally"]
    assert len(log) == 3 and _closed(log)


def test_proxy_under_yield_from_keeps_throw_and_return():
    def inner():
        try:
            yield "first"
        except ValueError as exc:
            yield f"caught {exc}"
        return "result"

    def outer(log):
        value = yield from _proxy(inner(), log)
        yield value

    log = tracer.SpanLog()
    g = outer(log)
    assert next(g) == "first"
    assert g.throw(ValueError("boom")) == "caught boom"
    assert next(g) == "result"
    assert _closed(log)


def test_proxy_close_runs_finally():
    done = []

    def gen():
        try:
            yield 1
            yield 2
        finally:
            done.append("finally")

    log = tracer.SpanLog()
    p = _proxy(gen(), log)
    next(p)
    p.close()
    assert done == ["finally"]
    with pytest.raises(StopIteration):
        next(p)
    assert _closed(log)


def test_interrupt_reaches_a_traced_process():
    seen = []
    log = tracer.SpanLog()
    uninstall = tracer.install(log)
    try:
        env = Environment()

        def sleeper():
            try:
                yield env.timeout(10)
            except Interrupt as exc:
                seen.append(("interrupted", env.now, exc.cause))
            finally:
                seen.append("finally")
            return "done"

        def waker(proc):
            yield env.timeout(3)
            proc.interrupt("wake")

        proc = env.process(sleeper())
        env.process(waker(proc))
        assert env.run(until=proc) == "done"
    finally:
        uninstall()
    assert seen == [("interrupted", 3, "wake"), "finally"]
    assert log.counts["engine.processes"] == 2
    assert log.counts["engine.resumes"] == 4
    assert _closed(log)


def test_uninstall_restores_every_entry_point():
    from repro.simcore.flownet import FlowNetwork
    from repro.workflow import condor

    before = (Environment.process, FlowNetwork.transfer, condor.execute_job,
              runner.run_experiment, runner._sweep_cell)
    tracer.install(tracer.SpanLog())()
    assert before == (Environment.process, FlowNetwork.transfer,
                      condor.execute_job, runner.run_experiment,
                      runner._sweep_cell)


# -- the wrappers change no result ------------------------------------------

def small_workflow(app):
    """Down-scaled paper workflows (module level, so pool workers can
    unpickle it)."""
    if app == "montage":
        return build_montage(degrees=0.5)
    if app == "epigenome":
        return build_epigenome(chunks_per_lane=[2, 2])
    return build_broadband(n_sources=1, n_sites=2)


def _outputs(result):
    return (result.makespan, result.cost.per_hour_total,
            result.cost.per_second_total, result.run.n_jobs,
            [(r.time, r.category, r.event, r.fields) for r in result.trace.records])


@pytest.mark.parametrize("app,storage,nodes", [
    ("montage", "nfs", 2), ("broadband", "pvfs", 3), ("epigenome", "s3", 2)])
def test_small_cell_is_bit_identical_with_wrappers(app, storage, nodes):
    config = ExperimentConfig(app, storage, nodes, seed=5, cpu_jitter_sigma=0.1,
                              collect_traces=True)
    bare = _outputs(runner.run_experiment(config, workflow=small_workflow(app)))
    log = tracer.SpanLog()
    uninstall = tracer.install(log)
    try:
        traced = _outputs(runner.run_experiment(config, workflow=small_workflow(app)))
    finally:
        uninstall()
    assert traced == bare
    assert log.counts["engine.resumes"] > 0 and _closed(log)
    own, _, roots = tracer.layer_seconds(log)
    assert sum(own.values()) == pytest.approx(roots, rel=1e-9)
    assert own["other"] == 0


def test_pool_worker_spans_reach_the_parent():
    configs = [ExperimentConfig("epigenome", s, 2, seed=i, collect_traces=True)
               for i, s in enumerate(("nfs", "pvfs"))]
    bare = [_outputs(r) for r in runner.run_sweep(
        configs, workflow_factory=small_workflow, jobs=2)]
    log = tracer.SpanLog()
    uninstall = tracer.install(log)
    try:
        traced = [_outputs(r) for r in runner.run_sweep(
            configs, workflow_factory=small_workflow, jobs=2)]
    finally:
        uninstall()
    assert traced == bare
    names = [log.names[n] for n in log.name]
    assert names.count("sweep.cell") == 2 and names.count("sweep.rehydrate") == 2
    assert sorted(set(log.cell_of)) == [0, 1, 2]  # 0: the parent's own spans
    assert log.counts["workflow.jobs"] == sum(b[3] for b in bare)
    assert log.counts["telemetry.records"] > 0


# -- pinned outputs ---------------------------------------------------------

def _figure_value(name, storage, nodes):
    """A makespan from a committed figure table (its last column is 8 nodes)."""
    with open(os.path.join(ROOT, "benchmarks", "output", name)) as f:
        for line in f:
            if line.split()[:1] == [storage]:
                return int(re.findall(r"(\d+)s", line)[{8: -1, 4: -2}[nodes]])
    raise AssertionError(f"{storage} not in {name}")


def test_pinned_cells_match_the_committed_figures():
    assert _figure_value("fig2_montage.txt", "nfs", 4) == 5213
    assert _figure_value("fig4_broadband.txt", "pvfs", 8) == 1629
    assert round(workloads.PINNED_CELLS["montage_nfs4"][1]) == 5213
    assert round(workloads.PINNED_CELLS["broadband_pvfs8"][1]) == 1629


def test_failed_cells_counts_each_mismatch():
    sweep = "epigenome_sweep_traced"
    pinned = list(workloads.PINNED_SWEEP)
    assert workloads.failed_cells(sweep, 0, pinned) == {}
    pinned[3] = pinned[3][:1] + (pinned[3][1] + 1e-9,) + pinned[3][2:]
    pinned[7] = pinned[7][:4] + (528, False)
    assert sorted(workloads.failed_cells(sweep, 0, pinned)) == [3, 7]
    assert len(workloads.failed_cells(sweep, 0, pinned[:35])) == 36
    other_seed = list(workloads.PINNED_SWEEP)
    other_seed[0] = other_seed[0][:5] + (True,)
    assert sorted(workloads.failed_cells(sweep, 1, other_seed)) == [0]
    cell = list(workloads.PINNED_CELLS["montage_nfs4"])
    assert workloads.failed_cells("montage_nfs4", 9, [cell]) == {}
    cell[3] += 1e-12
    assert sorted(workloads.failed_cells("montage_nfs4", 9, [cell])) == [0]


def test_check_counts_errors_and_disagreeing_repetitions():
    cell = list(workloads.PINNED_CELLS["montage_nfs4"])
    drifted = cell[:1] + [cell[1] + 1] + cell[2:]
    problems = []
    reps = [{"cells": [cell]}, {"cells": [cell]}, {"cells": [drifted]},
            {"error": "plain repetition failed: boom"}]
    assert run.check("montage_nfs4", 4, reps, problems) == (4, 2)
    assert len(problems) == 2


def test_sweep_seeds_are_reproducible_and_distinct():
    assert workloads.sweep_seeds(3) == workloads.sweep_seeds(3)
    assert workloads.sweep_seeds(3) != workloads.sweep_seeds(4)
    assert len(set(workloads.sweep_seeds(0))) == 36

