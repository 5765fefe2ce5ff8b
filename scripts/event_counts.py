#!/usr/bin/env python
"""CI gate: the event objects of two paper-scale cells, by class.

Runs the Montage NFS@4 (Fig. 2) and Broadband PVFS@8 (Fig. 4) cells at
paper scale and counts every event object the simulation kernel
allocates, by class.  The counts are exact and repeat from run to run,
so the script fails on any difference from :data:`PINNED`: a change
that allocates more (or fewer) objects per cell must update the
literals here; every run prints each cell's counts, so the new values
and the diff are in its output.

The counters wrap the constructors from outside the kernel; nothing
they record reaches the telemetry hash chain.

    python scripts/event_counts.py     # print and gate both cells
"""

import gc
import sys
from collections import Counter
from contextlib import contextmanager
from typing import Dict, Iterator, List

sys.path.insert(0, "src")  # allow running from a plain checkout

from repro.experiments import ExperimentConfig, run_experiment  # noqa: E402
# resources defines Event subclasses of its own (Request and its kin).
from repro.simcore import events, resources  # noqa: E402,F401


def counted_classes() -> List[type]:
    """Every class whose instances the run loop processes: ``Event``
    and all its subclasses, found when the counter starts, plus the
    kernel's bare ``_Timer`` entry."""
    found, todo = [], [events.Event]
    while todo:
        cls = todo.pop()
        found.append(cls)
        todo.extend(cls.__subclasses__())
    return found + [events._Timer]


#: cell -> event objects allocated, by class name.
PINNED: Dict[str, Dict[str, int]] = {
    "montage/nfs@4": {
        "Event": 285646, "Timeout": 108126, "Process": 33,
        "Stage": 139789, "Condition": 0, "AllOf": 56521, "AnyOf": 0,
        "Request": 0, "PriorityRequest": 0, "_Timer": 255065,
    },
    "broadband/pvfs@8": {
        "Event": 172865, "Timeout": 12144, "Process": 64,
        "Stage": 233376, "Condition": 0, "AllOf": 10608, "AnyOf": 0,
        "Request": 0, "PriorityRequest": 0, "_Timer": 342359,
    },
}

CELLS = {
    "montage/nfs@4": ("montage", "nfs", 4),
    "broadband/pvfs@8": ("broadband", "pvfs", 8),
}


@contextmanager
def count_event_objects() -> Iterator[Counter]:
    """Count the instances of :func:`counted_classes` built inside
    the block, by class name.

    Each class's ``__init__`` is wrapped for the block; an instance is
    counted once, under its own class, however its constructors chain.
    Every class of the package starts at 0, so a new one shows up in the
    counts (and fails a pin) even before anything builds it.
    Garbage from earlier runs is collected first: a suspended process
    generator left over from a run that ended runs its ``finally``
    blocks when it is collected, and may build events then.
    """
    gc.collect()
    counted = counted_classes()
    counts: Counter = Counter({cls.__name__: 0 for cls in counted
                               if cls.__module__.startswith("repro.")})
    saved = [(cls, cls.__dict__.get("__init__")) for cls in counted]

    def wrap(cls):
        init = cls.__init__
        name = cls.__name__

        def counting_init(self, *args, **kwargs):
            if type(self) is cls:
                counts[name] += 1
            init(self, *args, **kwargs)
        return counting_init

    for cls in counted:
        cls.__init__ = wrap(cls)
    try:
        yield counts
    finally:
        for cls, init in saved:
            if init is None:
                del cls.__init__
            else:
                cls.__init__ = init


def count_cell(label: str) -> Dict[str, int]:
    app, storage, nodes = CELLS[label]
    with count_event_objects() as counts:
        run_experiment(ExperimentConfig(app, storage, nodes, seed=0))
    return dict(counts)


def main() -> int:
    failures = 0
    for label in CELLS:
        counts = count_cell(label)
        total = sum(counts.values())
        print(f"{label}: {total:,} event objects  {counts}")
        if counts == PINNED[label]:
            continue
        failures += 1
        for name in sorted(set(counts) | set(PINNED[label])):
            got, want = counts.get(name, 0), PINNED[label].get(name)
            if got != want:
                print(f"  FAIL {name}: {got:,} (pinned {want})")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
