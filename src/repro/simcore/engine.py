"""The simulation environment: clock, event queue, and run loop."""

from __future__ import annotations

from collections import deque
from heapq import heappop as _heappop
from heapq import heappush as _heappush
from typing import Any, Callable, Deque, Generator, Iterable, List, Optional, Tuple, Union

from .errors import SimulationDeadlock
from .events import AllOf, AnyOf, Event, Process, Timeout, _Timer

#: Default priority for newly queued events.  Lower sorts earlier at the
#: same timestamp; interrupts use priority 0 so they pre-empt same-time
#: ordinary events.
NORMAL_PRIORITY = 1


class Environment:
    """Holds simulation state and drives event processing.

    Typical use::

        env = Environment()

        def producer(env, store):
            while True:
                yield env.timeout(1.0)
                yield store.put("item")

        env.process(producer(env, store))
        env.run(until=100.0)

    Time is a float in arbitrary units; this project uses seconds
    throughout.

    Events are processed in ``(time, priority, sequence)`` order, kept
    in two queues.  The heap holds future events and priority-0
    interrupts.  Everything else that becomes due at ``now`` (a
    succeed/fail, a process or :class:`~repro.simcore.events.Stage`
    kick-start, a timeout or timer whose ``now + delay == now``) is
    appended to the due-now *lane*, a FIFO deque, without touching the
    heap.  The loop pops the heap head if it lies at ``now``, else the
    lane, else runs the deferred flushes, else advances the clock to
    the heap head.  That is exactly the single-heap order: a heap entry
    at ``(now, 1)`` was pushed before the clock reached ``now``, so its
    sequence number is older than any lane entry's, and lane entries
    are pushed in sequence order.
    """

    def __init__(self, initial_time: float = 0.0) -> None:
        self._now = float(initial_time)
        # Heap entries: (time, priority, sequence, event or timer)
        self._queue: List[Tuple[float, int, int, Union[Event, _Timer]]] = []
        # The due-now lane (see the class docstring).
        self._due: Deque[Union[Event, _Timer]] = deque()
        self._seq = 0
        # End-of-timestamp flush hooks (see :meth:`defer`): callbacks
        # that run once the current timestamp's event cascade has fully
        # drained, before the clock moves to the next event time.
        self._flush_pending: List[Callable[[], None]] = []

    # -- clock -------------------------------------------------------------

    @property
    def now(self) -> float:
        """Current simulation time."""
        return self._now

    # -- event factories ----------------------------------------------------

    def event(self) -> Event:
        """A fresh, untriggered event."""
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """An event firing ``delay`` time units from now."""
        return Timeout(self, delay, value)

    def process(self, generator: Generator, name: Optional[str] = None) -> Process:
        """Spawn a process from a generator; returns the Process event."""
        return Process(self, generator, name=name)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        """An event firing once all of ``events`` have fired."""
        return AllOf(self, events)

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        """An event firing once any of ``events`` has fired."""
        return AnyOf(self, events)

    # -- scheduling (internal API used by events) ---------------------------

    def _queue_event(self, event: Event, delay: float = 0.0,
                     priority: int = NORMAL_PRIORITY) -> None:
        when = self._now + delay
        if when > self._now or priority != NORMAL_PRIORITY:
            seq = self._seq + 1
            self._seq = seq
            _heappush(self._queue, (when, priority, seq, event))
        else:
            self._due.append(event)

    def _timer(self, delay: float,
               callback: Callable[[_Timer], None]) -> _Timer:
        """Call ``callback(timer)`` ``delay`` from now, in the slot that
        ``env.timeout(delay)`` would take here, and return the timer.

        The kernel's own wakes and stage steps need no event: nothing
        else waits on them, and nothing reads a value from them.  The
        returned entry is only good for an identity check (a wake that
        a later reschedule superseded).
        """
        if delay < 0:
            raise ValueError(f"negative delay {delay}")
        timer = _Timer()
        timer.callbacks = (callback,)
        when = self._now + delay
        if when > self._now:
            seq = self._seq + 1
            self._seq = seq
            _heappush(self._queue, (when, 1, seq, timer))
        else:
            self._due.append(timer)
        return timer

    # -- end-of-timestamp flush hooks ---------------------------------------

    def defer(self, fn: Callable[[], None]) -> None:
        """Run ``fn`` once the current timestamp's cascade has drained.

        Same-timestamp event cascades (a wave of transfers all starting
        at ``now``) would otherwise trigger one full reallocation per
        event.  A kernel that batches instead marks itself dirty, defers
        one flush callback here, and the run loop invokes it exactly
        once — after every event queued at the current simulation time
        has been processed and before the clock advances.  Flushes run
        in *last*-registration order: re-deferring an already-pending
        callback moves it to the back, so flush order follows each
        kernel's final touch within the cascade — the relative order
        in which the eager kernels allocated their wakes, which
        keeps same-time event tie-breaks bit-identical.  A flush may
        defer further callbacks; they drain in the same pass.
        """
        pending = self._flush_pending
        if fn in pending:
            pending.remove(fn)
        pending.append(fn)

    def _run_deferred(self) -> None:
        pending = self._flush_pending
        while pending:
            batch = pending[:]
            del pending[:]
            for fn in batch:
                fn()

    # -- run loop ------------------------------------------------------------

    def peek(self) -> float:
        """Time of the next scheduled event, or ``inf`` if none."""
        if self._due:
            return self._now
        return self._queue[0][0] if self._queue else float("inf")

    def step(self) -> None:
        """Process exactly one event (advancing the clock to it)."""
        queue = self._queue
        while True:
            if queue and queue[0][0] <= self._now:
                event = _heappop(queue)[3]
            elif self._due:
                event = self._due.popleft()
            elif self._flush_pending:
                self._run_deferred()
                continue
            elif queue:
                when, _prio, _seq, event = _heappop(queue)
                self._now = when
            else:
                raise SimulationDeadlock("no scheduled events")
            break
        callbacks, event.callbacks = event.callbacks, None
        for callback in callbacks:
            callback(event)
        if not event._ok and not event._defused:
            # A failed event nobody waited on: surface the error loudly
            # rather than losing it.
            exc = event._value
            raise exc

    def run(self, until: Any = None) -> Any:
        """Run the simulation.

        ``until`` may be:

        * ``None`` — run until no events remain;
        * a number — run until that simulation time;
        * an :class:`Event` — run until that event is processed, and
          return its value (re-raising its exception if it failed).
        """
        # The loop below inlines :meth:`step` (queue pops, clock bump,
        # callback drain) with the hot names bound locally; at ~10^6
        # events per cell the method/attribute dispatch of a
        # `while ...: self.step()` loop is a measurable fraction of
        # total runtime.  Semantics are identical to calling ``step``.
        # One loop serves all three ``until`` forms: it stops once the
        # sentinel list is non-empty (``until`` is an Event and has been
        # processed) or nothing is due now and the heap's head lies
        # beyond ``deadline`` (``inf`` unless ``until`` is a number).
        # The end-of-timestamp flush hooks run once nothing is due at
        # ``now``, before the clock is allowed to advance.
        finished: List[Event] = []
        deadline = float("inf")
        if isinstance(until, Event):
            if until.callbacks is None:
                # Already processed.
                if not until._ok:
                    raise until._value
                return until._value
            until.callbacks.append(finished.append)
        elif until is not None:
            deadline = float(until)
            if deadline < self._now:
                raise ValueError(
                    f"until={deadline} is in the past (now={self._now})")

        queue = self._queue
        pop = _heappop
        due = self._due
        popleft = due.popleft
        flush = self._flush_pending
        now = self._now
        while not finished:
            # The heap never holds an entry earlier than ``now``.
            if queue and queue[0][0] <= now:
                event = pop(queue)[3]
            elif due:
                event = popleft()
            elif flush:
                self._run_deferred()
                continue
            elif queue and queue[0][0] <= deadline:
                now, _prio, _seq, event = pop(queue)
                self._now = now
            else:
                break
            callbacks, event.callbacks = event.callbacks, None
            for callback in callbacks:
                callback(event)
            if not event._ok and not event._defused:
                raise event._value

        if isinstance(until, Event):
            if not finished:
                raise SimulationDeadlock(
                    f"event {until!r} will never fire: queue is empty")
            if not until._ok:
                until._defused = True
                raise until._value
            return until._value
        if until is not None:
            self._now = deadline
        return None
