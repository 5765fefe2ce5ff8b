"""Exact engine work of two golden scenarios, pinned as literals.

Storage stages run as callback chains, not processes (see
``repro.simcore.events.Stage``), so a PVFS or NFS cell spawns only the
workflow's own processes.  The counts below are exact and repeat from
run to run; a backend that goes back to one process per disk or
network stage moves them and fails here, even though its simulated
numbers stay bit-identical.
"""

import pytest

from repro.experiments import run_sweep
from repro.simcore.events import Process
from tests.test_observability_invariance import _config, scenario_id, small_workflow

#: golden scenario -> (processes spawned, Process._resume calls).
PINNED = {
    ("epigenome", "pvfs", 2, 42): (17, 343),
    ("montage", "nfs", 2, 42): (18, 904),
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
