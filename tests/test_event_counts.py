"""Exact engine work of two golden scenarios, pinned as literals.

Storage stages run as callback chains, not processes (see
``repro.simcore.events.Stage``), so a PVFS or NFS cell spawns only the
workflow's own processes.  The counts below are exact and repeat from
run to run; a backend that goes back to one process per disk or
network stage moves them and fails here, even though its simulated
numbers stay bit-identical.

The flow network's work is pinned the same way: transfers started,
flushes that refill a component, wake timers allocated, and flows
refilled.  A kernel rewrite that keeps every rate bit-identical must
also keep these.

So are the event objects the kernel allocates, by class: a stage is
its own kick-start lane entry, a kernel wake or stage sleep is a bare
``_Timer``, and a stage join is a countdown, so none of them builds an
``Event``, ``Timeout`` or ``AllOf``.  ``scripts/event_counts.py`` holds
the same counts for two paper-scale cells.
"""

import pytest

from repro.experiments import run_sweep
from repro.simcore.events import Process
from repro.simcore.flownet import FlowNetwork
from scripts.event_counts import count_event_objects
from tests.test_observability_invariance import (SCENARIOS, _config, scenario_id,
                                                 small_workflow)

#: golden scenario -> (processes spawned, Process._resume calls).
PINNED = {
    ("epigenome", "pvfs", 2, 42): (17, 343),
    ("montage", "nfs", 2, 42): (18, 904),
}

#: golden scenario -> (FlowNetwork.transfer calls, flushes that refill,
#: wake timers allocated).
PINNED_FLOWNET = {
    ("epigenome", "pvfs", 2, 42): (56, 53, 53),
    ("montage", "nfs", 2, 42): (123, 179, 179),
}

#: golden scenario -> flows refilled, summed over every refill.  A
#: refill covers the dirty component, or every live flow once the scan
#: has reached as many *live* flows as there are.
PINNED_FLOWS_REFILLED = {
    ("synthetic", "local", 1, 0): 0,
    ("synthetic", "local", 1, 1): 0,
    ("synthetic", "nfs", 2, 0): 117,
    ("synthetic", "nfs", 4, 7): 119,
    ("synthetic", "s3", 2, 0): 73,
    ("synthetic", "s3", 4, 3): 68,
    ("synthetic", "pvfs", 2, 0): 119,
    ("synthetic", "pvfs", 4, 5): 441,
    ("synthetic", "glusterfs-nufa", 2, 0): 44,
    ("synthetic", "glusterfs-nufa", 4, 11): 72,
    ("synthetic", "glusterfs-distribute", 2, 0): 71,
    ("synthetic", "glusterfs-distribute", 4, 13): 91,
    ("montage", "local", 1, 0): 0,
    ("montage", "nfs", 2, 42): 643,
    ("montage", "s3", 2, 0): 426,
    ("montage", "glusterfs-nufa", 2, 17): 101,
    ("epigenome", "nfs", 2, 0): 42,
    ("epigenome", "pvfs", 2, 42): 56,
    ("broadband", "s3", 2, 0): 791,
    ("broadband", "nfs", 2, 23): 391,
    ("montage", "xtreemfs", 2, 0): 1199,
    ("synthetic", "p2p", 2, 0): 24,
}

#: golden scenario -> event objects allocated, by class.
PINNED_OBJECTS = {
    ("epigenome", "pvfs", 2, 42): {
        "Event": 333, "Timeout": 225, "Process": 17, "Stage": 224,
        "Condition": 0, "AllOf": 56, "AnyOf": 0, "Request": 0,
        "PriorityRequest": 0, "_Timer": 453},
    ("montage", "nfs", 2, 42): {
        "Event": 790, "Timeout": 397, "Process": 18, "Stage": 254,
        "Condition": 0, "AllOf": 123, "AnyOf": 0, "Request": 0,
        "PriorityRequest": 0, "_Timer": 585},
}


def _run(app, storage, nodes, seed):
    run_sweep([_config(app, storage, nodes, seed)],
              workflow=small_workflow(app))


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
    _run(app, storage, nodes, seed)
    return counts["processes"], counts["resumes"]


@pytest.mark.parametrize("scenario", sorted(PINNED), ids=scenario_id)
def test_engine_work_is_pinned(monkeypatch, scenario):
    assert _engine_work(monkeypatch, *scenario) == PINNED[scenario]


def _flownet_work(monkeypatch, app, storage, nodes, seed):
    """(transfers, flushes that refill, wakes allocated, flows refilled)."""
    counts = {"transfers": 0, "refills": 0, "wakes": 0, "refilled": 0}
    transfer = FlowNetwork.transfer
    fill, reschedule = FlowNetwork._fill, FlowNetwork._reschedule

    def counting_transfer(self, *args, **kwargs):
        counts["transfers"] += 1
        return transfer(self, *args, **kwargs)

    def counting_fill(self, flow_list):
        counts["refills"] += 1
        counts["refilled"] += len(flow_list)
        fill(self, flow_list)

    def counting_reschedule(self):
        before = self._wake
        reschedule(self)
        counts["wakes"] += self._wake is not before

    monkeypatch.setattr(FlowNetwork, "transfer", counting_transfer)
    monkeypatch.setattr(FlowNetwork, "_fill", counting_fill)
    monkeypatch.setattr(FlowNetwork, "_reschedule", counting_reschedule)
    _run(app, storage, nodes, seed)
    return (counts["transfers"], counts["refills"], counts["wakes"],
            counts["refilled"])


@pytest.mark.parametrize("scenario", sorted(PINNED_FLOWNET), ids=scenario_id)
def test_flownet_work_is_pinned(monkeypatch, scenario):
    work = _flownet_work(monkeypatch, *scenario)
    assert work[:3] == PINNED_FLOWNET[scenario]


@pytest.mark.parametrize("scenario", SCENARIOS, ids=scenario_id)
def test_flows_refilled_is_pinned(monkeypatch, scenario):
    work = _flownet_work(monkeypatch, *scenario)
    assert work[3] == PINNED_FLOWS_REFILLED[scenario]


@pytest.mark.parametrize("scenario", sorted(PINNED_OBJECTS), ids=scenario_id)
def test_event_objects_are_pinned(scenario):
    with count_event_objects() as counts:
        _run(*scenario)
    assert dict(counts) == PINNED_OBJECTS[scenario]
