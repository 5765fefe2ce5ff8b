"""Max-min fair flow network.

Models a set of capacitated links (NIC transmit/receive sides, a shared
service endpoint, a core switch) carrying concurrent byte flows.  Each
flow traverses an ordered set of links; whenever the flow population
changes, bandwidth is reallocated by progressive filling (water-filling)
to the max-min fair allocation, the textbook model of TCP-like fair
sharing on a star topology.

This is the substrate used for all network transfers in the EC2
simulation: NFS client/server traffic, GlusterFS peer reads, PVFS
stripe traffic, and S3 GET/PUT payloads.

Performance notes (see ``docs/performance.md``):

* Flow state (remaining bytes, rate) lives in slots on each ``_Flow``
  handle; the live flows are the network's insertion-ordered
  ``_flows`` dict, and every pass walks them in that order, which fixes
  the sequence of float operations.  Completion is a dict and link
  removal — nothing is compacted or re-indexed.
* Same-timestamp event cascades are batched: a transfer (or wake) marks
  the network dirty and defers one flush to the environment's
  end-of-timestamp hook (:meth:`Environment.defer`).  Progressive
  filling is stateless — the fill is a pure function of the final flow
  population — so eliding the intermediate fills of a cascade and
  running one fill over the union component yields bitwise the same
  rates a fill after every event would compute.  Completions stay eager
  (flows finish, in insertion order, at the first touch of a
  timestamp), so the event-sequence order of ``succeed()`` calls — and
  with it the telemetry hash-chain — is unchanged.  External readers
  (the utilization sampler's ``flow.rate``) trigger a lazy flush, so
  mid-cascade observations match a per-event fill exactly.
* Reallocation stays *incremental*: only the connected component of
  links reachable from the dirty flows is refilled.
* Completion wakeups come from a min-scan over the live flows,
  rescheduled once per dirtied timestamp.
* ``tests/golden_scenarios.json`` pins the telemetry hash-chains of the
  golden end-to-end scenarios and digests of randomized churn scripts;
  any change to the arithmetic above must leave them intact.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence

from .events import Event, Timeout

if TYPE_CHECKING:  # pragma: no cover
    from .engine import Environment

_INF = float("inf")


class Link:
    """A capacitated, unidirectional link (bytes per second)."""

    __slots__ = ("name", "capacity", "_flows", "_stamp", "_residual", "_n")

    def __init__(self, name: str, capacity: float) -> None:
        if capacity <= 0 or not math.isfinite(capacity):
            raise ValueError(f"capacity must be finite and > 0, got {capacity}")
        self.name = name
        self.capacity = float(capacity)
        # Insertion-ordered (dict keys) so allocation arithmetic is
        # bit-reproducible across processes.
        self._flows: Dict["_Flow", None] = {}
        # Scratch state for traversal/fill passes: ``_stamp`` marks
        # which pass last touched this link (see FlowNetwork._stamp_seq)
        # so passes need no per-call visited dicts; ``_residual`` and
        # ``_n`` are only meaningful while a fill is running.
        self._stamp = 0
        self._residual = 0.0
        self._n = 0

    @property
    def active_flows(self) -> int:
        """Number of flows currently routed over this link."""
        return len(self._flows)

    def __repr__(self) -> str:
        return f"<Link {self.name} cap={self.capacity:.3g}B/s flows={len(self._flows)}>"


class _Flow:
    """One flow: its description, its progress, and fill scratch.

    ``_left`` and ``_rate`` keep their last live values once the flow
    completes, so late readers (telemetry holding a handle) still see
    them.  Reading ``rate`` flushes a pending batched reallocation
    first, so samplers observing mid-cascade see exactly what a
    per-event fill would produce.
    """

    __slots__ = ("net", "links", "event", "max_rate", "eps",
                 "_left", "_rate", "_stamp", "_frozen")

    def __init__(self, net: "FlowNetwork", links: Sequence[Link],
                 event: Event, max_rate: Optional[float], nbytes: float,
                 eps: float) -> None:
        self.net = net
        self.links = list(links)
        self.event = event
        self.max_rate = max_rate
        self.eps = eps
        self._left = nbytes
        self._rate = 0.0
        # Traversal stamp and fill scratch (see FlowNetwork._stamp_seq).
        self._stamp = 0
        self._frozen = False

    @property
    def bytes_left(self) -> float:
        return self._left

    @property
    def rate(self) -> float:
        net = self.net
        if net._dirty:
            net._flush()
        return self._rate


class FlowNetwork:
    """A collection of links carrying max-min fairly shared flows.

    ``FlowNetwork(env)`` binds the network to a simulation environment;
    flows start with :meth:`transfer`.  Completion wakeups are scheduled
    from a min-scan over the live flows, so wake times are
    bit-reproducible.
    """

    def __init__(self, env: "Environment") -> None:
        self.env = env
        # Live flows in insertion order: every pass walks them this way.
        self._flows: Dict[_Flow, None] = {}
        self._last_update = env.now
        # Wakeup invalidation by event identity (see FairShareChannel):
        # only the timeout of the latest reschedule is honoured.
        self._wake_event: object = None
        self._wake_cb = self._on_wake
        # Monotonic pass id handed to component scans and fills; a
        # link/flow whose ``_stamp`` differs from the current pass id
        # has not been visited by it (no per-call visited sets needed).
        self._stamp_seq = 0
        #: Total bytes delivered across all completed+running flows.
        self.total_bytes_moved = 0.0
        #: Total flows ever started.
        self.total_flows = 0
        # -- batched-cascade state ------------------------------------
        # ``_dirty`` marks a pending reallocation/reschedule;
        # ``_dirty_seeds`` are the flows whose arrival or completion
        # dirtied it (traversal roots for the component refill).  The
        # flush runs from the environment's end-of-timestamp hook, or
        # lazily when a rate is read mid-cascade.
        self._dirty = False
        self._dirty_seeds: List[_Flow] = []
        self._flush_cb_bound = self._flush_cb

    # -- public API --------------------------------------------------------

    @property
    def active_flows(self) -> int:
        """Number of in-flight flows."""
        return len(self._flows)

    def transfer(self, links: Sequence[Link], nbytes: float,
                 max_rate: Optional[float] = None) -> Event:
        """Start a flow of ``nbytes`` over ``links``.

        Parameters
        ----------
        links:
            The capacitated links the flow traverses (order irrelevant).
        nbytes:
            Payload size in bytes.
        max_rate:
            Optional per-flow rate ceiling (bytes/s) — models per-stream
            limits such as a single S3 connection's throughput.

        Returns an event that fires on delivery of the last byte.
        """
        if nbytes < 0 or not math.isfinite(nbytes):
            raise ValueError(f"nbytes must be finite and >= 0, got {nbytes}")
        if max_rate is not None:
            if max_rate <= 0:
                raise ValueError(f"max_rate must be > 0, got {max_rate}")
            max_rate = float(max_rate)
        self.total_flows += 1
        done = Event(self.env)
        if nbytes == 0:
            done.succeed()
            return done
        self._sync()
        nbytes = float(nbytes)
        # Completion tolerance must scale with the transfer size:
        # float subtraction across many progress updates leaves a
        # relative residue (~1e-12 of the size), which for GB-scale
        # flows dwarfs any absolute epsilon.
        eps = max(1e-9, nbytes * 1e-9)
        flow = _Flow(self, links, done, max_rate, nbytes, eps)
        self._flows[flow] = None
        for link in flow.links:
            link._flows[flow] = None
        if nbytes <= eps:
            # Sub-epsilon payload: completes within this same cascade;
            # final rates are as if it never joined.
            self._complete([flow])
        else:
            self._mark_dirty(flow)
        return done

    # -- batched-cascade plumbing -------------------------------------------

    def _mark_dirty(self, seed: Optional[_Flow]) -> None:
        # Every touch re-defers (moving the callback to the back of the
        # flush list), so flush order tracks the *last* touch — see
        # Environment.defer.
        self._dirty = True
        if seed is not None:
            self._dirty_seeds.append(seed)
        self.env.defer(self._flush_cb_bound)

    def _flush_cb(self) -> None:
        if self._dirty:
            self._flush()

    def _flush(self) -> None:
        """Refill dirty components and reschedule the wake.

        Runs once per dirtied timestamp — from the end-of-timestamp
        hook, or earlier if a rate is read mid-cascade (in which case
        the hook's later invocation is a no-op).
        """
        self._dirty = False
        seeds = self._dirty_seeds
        self._dirty_seeds = []
        if self._flows:
            if seeds:
                self._fill(self._component(seeds))
            self._reschedule()

    # -- internals -----------------------------------------------------------

    def _sync(self) -> None:
        """Advance all flows to ``now`` and complete the finished ones.

        The first touch of each timestamp does the real work; later
        same-timestamp calls see ``elapsed == 0`` and return.  Delivered
        bytes are summed strictly sequentially in insertion order.
        """
        now = self.env.now
        elapsed = now - self._last_update
        self._last_update = now
        if elapsed <= 0 or not self._flows:
            return
        total = self.total_bytes_moved
        finished = None
        for h in self._flows:
            left = h._left
            moved = h._rate * elapsed
            new_left = left - moved
            h._left = new_left
            # Clamp the delivered-bytes counter to what the flow
            # actually had left (the final wake routinely lands a hair
            # past the true finish).
            if moved > left:
                moved = left if left > 0.0 else 0.0
            total += moved
            if new_left <= h.eps:
                if finished is None:
                    finished = [h]
                else:
                    finished.append(h)
        self.total_bytes_moved = total
        if finished:
            self._complete(finished)

    def _complete(self, done: List[_Flow]) -> None:
        """Finish the flows ``done`` (in insertion order).

        Pops them from the registry and their links, fires their events
        in that order, and seeds the deferred refill with the dead flows
        as traversal roots.
        """
        flows = self._flows
        for h in done:
            del flows[h]
            for link in h.links:
                link._flows.pop(h, None)
            h.event.succeed()
            self._mark_dirty(h)

    def _component(self, seeds: Sequence[_Flow]) -> List[_Flow]:
        """Live flows connected to ``seeds`` through shared links.

        Returns them in insertion order.  Seeds may be just-finished
        flows (traversal roots only); they count towards the
        whole-network shortcut, which returns every live flow once the
        scan has marked as many flows as are live (the common
        star-topology case).  Visited links and flows are stamp-marked
        with a fresh pass id, so the scan allocates only the pending
        stack and the traversal order never leaks into the result.
        """
        sid = self._stamp_seq = self._stamp_seq + 1
        pending: List[Link] = []
        nseen = 0
        for h in seeds:
            if h._stamp != sid:
                h._stamp = sid
                nseen += 1
                for link in h.links:
                    if link._stamp != sid:
                        link._stamp = sid
                        pending.append(link)
        while pending:
            link = pending.pop()
            for h in link._flows:
                if h._stamp != sid:
                    h._stamp = sid
                    nseen += 1
                    for nxt in h.links:
                        if nxt._stamp != sid:
                            nxt._stamp = sid
                            pending.append(nxt)
        if nseen >= len(self._flows):
            return list(self._flows)
        return [h for h in self._flows if h._stamp == sid]

    # -- progressive filling --------------------------------------------------

    def _fill(self, flow_list: List[_Flow]) -> None:
        """Progressive filling of ``flow_list`` to the max-min fair
        allocation, in place on each handle's ``_rate``.

        ``flow_list`` is one or more whole connected components (rates
        of flows outside it are left untouched).  Scratch state lives on
        the links/handles, claimed by stamping with a fresh pass id.
        Iteration order fixes every float operation: flow order is
        insertion order, link order is first-encounter order over the
        flows' links, and the freeze scan walks ``link._flows``.
        """
        count = len(flow_list)
        if count == 0:
            return
        if count == 1:
            # Singleton fill (no contention): rate is the tightest of
            # the link capacities and the per-flow cap — the exact
            # value one loop iteration of the general fill produces.
            h = flow_list[0]
            share = _INF
            for link in h.links:
                if link.capacity < share:
                    share = link.capacity
            cap = h.max_rate
            if cap is not None and cap < share:
                h._rate = cap
            elif share < _INF:
                h._rate = share
            else:
                h._rate = cap or _INF
            return
        fid = self._stamp_seq = self._stamp_seq + 1
        links: List[Link] = []
        for h in flow_list:
            h._rate = 0.0
            h._frozen = False
            for link in h.links:
                if link._stamp != fid:
                    link._stamp = fid
                    link._residual = link.capacity
                    link._n = 0
                    links.append(link)
                link._n += 1
        remaining = count

        while remaining:
            # Fair share offered by each link still serving unfrozen flows.
            bottleneck_share = _INF
            for link in links:
                n = link._n
                if n > 0:
                    share = link._residual / n
                    if share < bottleneck_share:
                        bottleneck_share = share
            # Rate-capped flows below the bottleneck share freeze at
            # their cap instead (they are their own bottleneck).
            capped_any = False
            for h in flow_list:
                if not h._frozen:
                    cap = h.max_rate
                    if cap is not None and cap < bottleneck_share:
                        capped_any = True
                        h._frozen = True
                        remaining -= 1
                        h._rate = cap
                        for link in h.links:
                            r = link._residual - cap
                            link._residual = r if r > 0.0 else 0.0
                            link._n -= 1
            if capped_any:
                continue
            if bottleneck_share == _INF:
                # Flows with no links at all: unconstrained; should not
                # happen in practice but terminate rather than spin.
                for h in flow_list:
                    if not h._frozen:
                        h._frozen = True
                        remaining -= 1
                        h._rate = h.max_rate or _INF
                break
            # Freeze every unfrozen flow on a bottleneck link.  Flows
            # outside this fill's component can never appear on a
            # component link (shared links merge components), so the
            # ``link._flows`` walk stays within ``flow_list``.
            frozen_any = False
            tolerance = bottleneck_share * (1 + 1e-12)
            for link in links:
                n = link._n
                if n > 0 and link._residual / n <= tolerance:
                    for h in link._flows:
                        if not h._frozen:
                            h._frozen = True
                            remaining -= 1
                            h._rate = bottleneck_share
                            for lnk in h.links:
                                r = lnk._residual - bottleneck_share
                                lnk._residual = r if r > 0.0 else 0.0
                                lnk._n -= 1
                            frozen_any = True
            if not frozen_any:  # pragma: no cover - numerical safety valve
                for h in flow_list:
                    if not h._frozen:
                        h._frozen = True
                        remaining -= 1
                        h._rate = bottleneck_share

    # -- completion scheduling ------------------------------------------------

    def _reschedule(self) -> None:
        next_in = -1.0
        for h in self._flows:
            rate = h._rate
            if rate > 0.0:
                remaining = h._left / rate
                if next_in < 0.0 or remaining < next_in:
                    next_in = remaining
        if next_in < 0.0:  # pragma: no cover - all flows stalled
            return
        # Floor the delay so the clock always advances between wakeups
        # (a zero-elapsed wake would make no progress and spin).
        wake = Timeout(self.env, max(next_in, 1e-9))
        self._wake_event = wake
        wake.callbacks.append(self._wake_cb)

    def _on_wake(self, event: object) -> None:
        if event is not self._wake_event:
            return  # superseded by a newer reschedule
        self._sync()
        # Always refresh the wake on every valid wake; completions
        # seeded their own refill above.
        self._mark_dirty(None)
