"""Per-layer spans and counts for the benchmark's traced runs.

The benchmark times calls into each ``repro`` layer from its own code:
:func:`install` replaces the layers' public entry points with wrappers
that record one span per call into a :class:`SpanLog`, and the
returned function puts the originals back.  Generator-based entry
points (storage reads and writes, ``execute_job``, disk and network
transfers, and every generator handed to ``Environment.process``) are
wrapped in a :class:`GenProxy`, which records one span per resume.
Callbacks handed to ``Environment.defer`` are wrapped likewise.  Each
span is attributed to a layer by the module that defines the code it
times; the engine is whatever remains of a cell's root span.

Spans nest as a call stack does, so a span's children are disjoint and
lie inside it, and a layer's self time is its spans' time minus the
time their child spans cover (:func:`self_times`).
"""

from __future__ import annotations

import functools
from array import array
from collections import Counter
from time import perf_counter_ns
from typing import Any, Callable, Dict, List, Tuple

import numpy as np

#: Module prefix -> layer, first match wins.  ``repro.simcore.tracing``
#: holds the trace collector, which belongs to the telemetry layer.
_LAYER_PREFIXES: Tuple[Tuple[str, str], ...] = (
    ("repro.simcore.flownet", "flownet"),
    ("repro.simcore.pipes", "pipes"),
    ("repro.simcore.resources", "resources"),
    ("repro.simcore.tracing", "telemetry"),
    ("repro.simcore", "engine"),
    ("repro.cloud", "cloud"),
    ("repro.storage", "storage"),
    ("repro.workflow", "workflow"),
    ("repro.apps", "apps"),
    ("repro.telemetry", "telemetry"),
    ("repro.experiments", "sweep"),
)

#: Every layer a span can be attributed to.  ``other`` collects code
#: from modules outside the paper path (faults, service); it stays 0
#: on the benchmark's workloads.
LAYERS = ("engine", "flownet", "pipes", "resources", "cloud", "storage",
          "workflow", "apps", "telemetry", "sweep", "other")


def layer_of(module: str) -> str:
    """The layer a ``repro`` module belongs to."""
    for prefix, layer in _LAYER_PREFIXES:
        if module.startswith(prefix):
            return layer
    return "other"


class SpanLog:
    """Spans kept in memory as parallel arrays, one row per span.

    A row holds the span's name id, start and end (``perf_counter_ns``),
    the row of its parent (-1 for a root) and the cell it belongs to.
    ``counts`` holds the work counts recorded at the same boundaries.
    """

    def __init__(self) -> None:
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self.reset()

    def reset(self, cell: int = 0) -> None:
        """Drop every span and count; new spans belong to ``cell``."""
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.name = array("q")
        self.cell_of = array("q")
        self.stack: List[int] = [-1]
        self.cell = cell
        self.counts: Counter = Counter()

    def name_id(self, name: str) -> int:
        """Small integer id of a span name (``<layer>.<operation>``)."""
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def begin(self, nid: int) -> int:
        """Open a span under the innermost open one; returns its row."""
        row = len(self.start)
        self.parent.append(self.stack[-1])
        self.name.append(nid)
        self.cell_of.append(self.cell)
        self.end.append(0)
        self.stack.append(row)
        self.start.append(perf_counter_ns())
        return row

    def finish(self, row: int) -> None:
        """Close the innermost open span, ``row``."""
        self.end[row] = perf_counter_ns()
        self.stack.pop()

    def __len__(self) -> int:
        return len(self.start)

    def export(self) -> Dict[str, Any]:
        """Plain, picklable copy of the spans and counts."""
        return {"names": list(self.names), "start": self.start.tobytes(),
                "end": self.end.tobytes(), "parent": self.parent.tobytes(),
                "name": self.name.tobytes(), "cell": self.cell_of.tobytes(),
                "counts": dict(self.counts)}

    def merge(self, data: Dict[str, Any]) -> None:
        """Append spans exported by another process as separate roots."""
        offset = len(self.start)
        remap = [self.name_id(n) for n in data["names"]]
        parent = array("q")
        parent.frombytes(data["parent"])
        name = array("q")
        name.frombytes(data["name"])
        self.start.frombytes(data["start"])
        self.end.frombytes(data["end"])
        self.cell_of.frombytes(data["cell"])
        self.parent.extend(p + offset if p >= 0 else -1 for p in parent)
        self.name.extend(remap[n] for n in name)
        self.counts.update(data["counts"])

    def arrays(self) -> Dict[str, np.ndarray]:
        """The span table as numpy arrays."""
        return {"start": np.frombuffer(self.start, dtype=np.int64),
                "end": np.frombuffer(self.end, dtype=np.int64),
                "parent": np.frombuffer(self.parent, dtype=np.int64),
                "name": np.frombuffer(self.name, dtype=np.int64),
                "cell": np.frombuffer(self.cell_of, dtype=np.int64)}


def self_times(start: np.ndarray, end: np.ndarray,
               parent: np.ndarray) -> np.ndarray:
    """Each span's duration minus the time its direct children cover.

    Spans recorded from one call stack lie inside their parent and
    never overlap their siblings, so the children's durations add up
    to the time they cover.
    """
    dur = end - start
    child = parent >= 0
    covered = np.bincount(parent[child], weights=dur[child], minlength=len(dur))
    return dur - covered.astype(dur.dtype)


def layer_seconds(log: SpanLog
                  ) -> Tuple[Dict[str, float], Dict[str, float], float]:
    """Per-layer self seconds, inclusive seconds per span name, and the
    total duration of the root spans, which the self times add up to."""
    a = log.arrays()
    own = self_times(a["start"], a["end"], a["parent"])
    layer_ids = np.array([LAYERS.index(n.split(".", 1)[0]) for n in log.names],
                         dtype=np.int64)
    per_layer = np.bincount(layer_ids[a["name"]], weights=own,
                            minlength=len(LAYERS)) / 1e9
    per_name = np.bincount(a["name"], weights=a["end"] - a["start"],
                           minlength=len(log.names)) / 1e9
    roots = a["parent"] < 0
    return ({layer: float(s) for layer, s in zip(LAYERS, per_layer)},
            {n: float(s) for n, s in zip(log.names, per_name)},
            float((a["end"][roots] - a["start"][roots]).sum()) / 1e9)


class GenProxy:
    """Stands in for a generator and records one span per resume.

    ``send``, ``throw`` and ``close`` pass straight through, so return
    values (``StopIteration``), interrupts and ``finally`` blocks reach
    the generator unchanged.  ``top`` marks a generator the engine
    resumes itself (one handed to ``Environment.process``); only those
    resumes count as ``engine.resumes``.
    """

    __slots__ = ("_gen", "_nid", "_log", "top")

    def __init__(self, gen, nid: int, log: SpanLog) -> None:
        self._gen = gen
        self._nid = nid
        self._log = log
        self.top = False

    @property
    def __name__(self) -> str:
        return getattr(self._gen, "__name__", "process")

    def __iter__(self) -> "GenProxy":
        return self

    def __next__(self):
        return self.send(None)

    def send(self, value):
        log = self._log
        if self.top:
            log.counts["engine.resumes"] += 1
        row = log.begin(self._nid)
        try:
            return self._gen.send(value)
        finally:
            log.finish(row)

    def throw(self, *args):
        log = self._log
        if self.top:
            log.counts["engine.resumes"] += 1
        row = log.begin(self._nid)
        try:
            return self._gen.throw(*args)
        finally:
            log.finish(row)

    def close(self) -> None:
        row = self._log.begin(self._nid)
        try:
            self._gen.close()
        finally:
            self._log.finish(row)


class _Deferred:
    """A callback handed to ``Environment.defer``, timed when it runs.

    Equality follows the wrapped callback, because ``defer`` moves an
    already-pending callback to the back by equality.
    """

    __slots__ = ("fn", "_nid", "_key", "_log")

    def __init__(self, fn: Callable[[], None], nid: int, key: str,
                 log: SpanLog) -> None:
        self.fn = fn
        self._nid = nid
        self._key = key
        self._log = log

    def __call__(self) -> None:
        log = self._log
        log.counts[self._key] += 1
        row = log.begin(self._nid)
        try:
            self.fn()
        finally:
            log.finish(row)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, _Deferred) and self.fn == other.fn

    def __hash__(self) -> int:
        return hash(self.fn)


def _code_name(fn) -> str:
    """``<layer>.<qualname>`` of a function, method or generator."""
    code = getattr(fn, "gi_code", None)
    if code is not None:
        frame = fn.gi_frame
        module = frame.f_globals.get("__name__", "") if frame is not None else ""
        return f"{layer_of(module)}.{code.co_qualname}"
    fn = getattr(fn, "__func__", fn)
    return f"{layer_of(getattr(fn, '__module__', '') or '')}.{fn.__qualname__}"


def _timed(orig: Callable, nid: int, log: SpanLog, count: str = "") -> Callable:
    """A wrapper recording one span (and one count) per call."""
    @functools.wraps(orig)
    def wrapper(*args, **kwargs):
        if count:
            log.counts[count] += 1
        row = log.begin(nid)
        try:
            return orig(*args, **kwargs)
        finally:
            log.finish(row)
    return wrapper


def _proxied(orig: Callable, nid: int, log: SpanLog, count: str) -> Callable:
    """A wrapper around a generator function: one span per resume."""
    @functools.wraps(orig)
    def wrapper(*args, **kwargs):
        log.counts[count] += 1
        return GenProxy(orig(*args, **kwargs), nid, log)
    return wrapper


def _when_enabled(orig: Callable, nid: int, log: SpanLog,
                  count: str = "") -> Callable:
    """Like :func:`_timed`, but only while the collector is enabled.

    The shared disabled collector drops every record; its calls stay
    part of the caller's time, so untraced cells show no telemetry.
    """
    @functools.wraps(orig)
    def wrapper(self, *args, **kwargs):
        trace = getattr(self, "trace", self)
        if not trace.enabled:
            return orig(self, *args, **kwargs)
        if count:
            log.counts[count] += 1
        row = log.begin(nid)
        try:
            return orig(self, *args, **kwargs)
        finally:
            log.finish(row)
    return wrapper


#: The log the wrappers record into, read by :func:`_traced_sweep_cell`
#: in pool workers (which inherit it, and the wrappers, by fork).
_ACTIVE: Dict[str, SpanLog] = {}


def _traced_sweep_cell(payload):
    """Pool-worker entry: run one sweep cell and ship its spans home.

    The worker starts each cell with an empty log; the spans and counts
    travel back on the envelope and are merged by the parent.
    """
    log = _ACTIVE["log"]
    log.reset(cell=payload[0] + 1)
    row = log.begin(log.name_id("sweep.cell"))
    try:
        envelope = _ACTIVE["sweep_cell"](payload)
    finally:
        log.finish(row)
    envelope.bench_spans = log.export()
    return envelope


def install(log: SpanLog) -> Callable[[], None]:
    """Wrap every layer entry point to record into ``log``.

    Returns a function that restores the originals.
    """
    from repro.apps import templates
    from repro.cloud.cluster import ContextBroker
    from repro.cloud.disk import BlockDevice
    from repro.cloud.network import ClusterNetwork
    from repro.experiments import runner
    from repro.simcore import resources
    from repro.simcore.engine import Environment
    from repro.simcore.flownet import FlowNetwork
    from repro.simcore.pipes import FairShareChannel
    from repro.simcore.tracing import TraceCollector
    from repro.storage.base import StorageSystem
    from repro.telemetry.sampler import UtilizationSampler
    from repro.telemetry.spans import SpanBuilder
    from repro.workflow import condor, executor
    from repro.workflow.mapper import PegasusMapper

    saved: List[Tuple[Any, str, Any]] = []

    def patch(owner, attr: str, make: Callable, *extra) -> None:
        orig = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        saved.append((owner, attr, orig))
        setattr(owner, attr, make(orig, log.name_id(_code_name(orig)), log, *extra))

    # Engine: generators handed to process(), callbacks handed to defer().
    gen_names: Dict[Any, int] = {}
    orig_process = Environment.process

    def process(self, generator, name=None):
        log.counts["engine.processes"] += 1
        if type(generator) is not GenProxy:
            code = getattr(generator, "gi_code", None)
            nid = gen_names.get(code)
            if nid is None:
                nid = gen_names[code] = log.name_id(
                    _code_name(generator) if code is not None else "other.process")
            generator = GenProxy(generator, nid, log)
        generator.top = True
        return orig_process(self, generator, name)

    saved.append((Environment, "process", orig_process))
    Environment.process = process

    defer_names: Dict[Any, Tuple[int, str]] = {}
    orig_defer = Environment.defer

    def defer(self, fn):
        key = getattr(fn, "__func__", fn)
        named = defer_names.get(key)
        if named is None:
            layer = _code_name(fn).split(".", 1)[0]
            named = defer_names[key] = (log.name_id(layer + ".flush"),
                                        layer + ".flushes")
        return orig_defer(self, _Deferred(fn, named[0], named[1], log))

    saved.append((Environment, "defer", orig_defer))
    Environment.defer = defer

    patch(FlowNetwork, "transfer", _timed, "flownet.transfers")
    patch(FairShareChannel, "submit", _timed, "pipes.submits")
    for cls, attr in ((resources.Resource, "request"),
                      (resources.PriorityResource, "request"),
                      (resources.Container, "get"), (resources.Container, "put"),
                      (resources.Store, "get"), (resources.Store, "put")):
        patch(cls, attr, _timed, "resources.requests")

    patch(ClusterNetwork, "transfer", _proxied, "cloud.net_transfers")
    patch(BlockDevice, "read", _proxied, "cloud.disk_ops")
    patch(BlockDevice, "write", _proxied, "cloud.disk_ops")
    patch(ContextBroker, "provision_now", _timed)

    patch(StorageSystem, "deploy", _timed)
    patch(StorageSystem, "stage_input", _timed)
    backends = list(StorageSystem.__subclasses__())
    while backends:
        cls = backends.pop()
        backends.extend(cls.__subclasses__())
        for attr in ("read", "write"):
            if attr in cls.__dict__:
                patch(cls, attr, _proxied, f"storage.{attr}s")

    patch(PegasusMapper, "plan", _timed)
    for module in (executor, condor):
        patch(module, "execute_job", _proxied, "workflow.jobs")
    patch(templates.WorkflowTemplate, "instantiate", _timed)

    patch(TraceCollector, "emit", _when_enabled, "telemetry.records")
    patch(SpanBuilder, "begin", _when_enabled)
    patch(SpanBuilder, "end", _when_enabled)
    for attr in ("start", "stop", "sample_now"):
        patch(UtilizationSampler, attr, _timed)
    patch(runner, "attach_cluster", _timed)

    # Cells and the sweep's own plumbing.
    orig_run = runner.run_experiment
    saved.append((runner, "run_experiment", orig_run))
    runner.run_experiment = _timed(orig_run, log.name_id("engine.cell"), log)

    orig_rehydrate = runner._rehydrate
    rehydrate_nid = log.name_id("sweep.rehydrate")

    def rehydrate(envelope):
        spans = envelope.__dict__.pop("bench_spans", None)
        if spans is not None:
            log.merge(spans)
        row = log.begin(rehydrate_nid)
        try:
            return orig_rehydrate(envelope)
        finally:
            log.finish(row)

    saved.append((runner, "_rehydrate", orig_rehydrate))
    runner._rehydrate = rehydrate
    saved.append((runner, "_sweep_cell", runner._sweep_cell))
    _ACTIVE.update(log=log, sweep_cell=runner._sweep_cell)
    runner._sweep_cell = _traced_sweep_cell

    def uninstall() -> None:
        for owner, attr, orig in reversed(saved):
            setattr(owner, attr, orig)
        _ACTIVE.clear()

    return uninstall
