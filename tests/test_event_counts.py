"""Exact engine work of two golden scenarios, pinned as literals.

Storage stages run as callback chains, not processes (see
``repro.simcore.events.Stage``), so a PVFS or NFS cell spawns only the
workflow's own processes.  The counts below are exact and repeat from
run to run; a backend that goes back to one process per disk or
network stage moves them and fails here, even though its simulated
numbers stay bit-identical.

The flow network's work is pinned the same way: transfers started,
flushes that refill a component, and wake timeouts allocated.  A kernel
rewrite that keeps every rate bit-identical must also keep these.
"""

import pytest

from repro.experiments import run_sweep
from repro.simcore.events import Process
from repro.simcore.flownet import FlowNetwork
from tests.test_observability_invariance import _config, scenario_id, small_workflow

#: golden scenario -> (processes spawned, Process._resume calls).
PINNED = {
    ("epigenome", "pvfs", 2, 42): (17, 343),
    ("montage", "nfs", 2, 42): (18, 904),
}

#: golden scenario -> (FlowNetwork.transfer calls, flushes that refill,
#: wake timeouts allocated).
PINNED_FLOWNET = {
    ("epigenome", "pvfs", 2, 42): (56, 53, 53),
    ("montage", "nfs", 2, 42): (123, 179, 179),
}


def _engine_work(monkeypatch, app, storage, nodes, seed):
    counts = {"processes": 0, "resumes": 0}
    init, resume = Process.__init__, Process._resume

    def counting_init(self, *args, **kwargs):
        counts["processes"] += 1
        init(self, *args, **kwargs)

    def counting_resume(self, event):
        counts["resumes"] += 1
        resume(self, event)

    monkeypatch.setattr(Process, "__init__", counting_init)
    monkeypatch.setattr(Process, "_resume", counting_resume)
    run_sweep([_config(app, storage, nodes, seed)],
              workflow=small_workflow(app))
    return counts["processes"], counts["resumes"]


@pytest.mark.parametrize("scenario", sorted(PINNED), ids=scenario_id)
def test_engine_work_is_pinned(monkeypatch, scenario):
    assert _engine_work(monkeypatch, *scenario) == PINNED[scenario]


def _flownet_work(monkeypatch, app, storage, nodes, seed):
    counts = {"transfers": 0, "refills": 0, "wakes": 0}
    transfer = FlowNetwork.transfer
    fill, reschedule = FlowNetwork._fill, FlowNetwork._reschedule

    def counting_transfer(self, *args, **kwargs):
        counts["transfers"] += 1
        return transfer(self, *args, **kwargs)

    def counting_fill(self, *args):
        counts["refills"] += 1
        fill(self, *args)

    def counting_reschedule(self):
        before = self._wake_event
        reschedule(self)
        counts["wakes"] += self._wake_event is not before

    monkeypatch.setattr(FlowNetwork, "transfer", counting_transfer)
    monkeypatch.setattr(FlowNetwork, "_fill", counting_fill)
    monkeypatch.setattr(FlowNetwork, "_reschedule", counting_reschedule)
    run_sweep([_config(app, storage, nodes, seed)],
              workflow=small_workflow(app))
    return counts["transfers"], counts["refills"], counts["wakes"]


@pytest.mark.parametrize("scenario", sorted(PINNED_FLOWNET), ids=scenario_id)
def test_flownet_work_is_pinned(monkeypatch, scenario):
    assert _flownet_work(monkeypatch, *scenario) == PINNED_FLOWNET[scenario]
