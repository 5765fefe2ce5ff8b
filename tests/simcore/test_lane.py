"""The due-now lane processes events in the single-heap order.

``Environment`` keeps events due at ``now`` in a FIFO lane next to the
heap of future events.  The reference below puts every event through
one ``(time, priority, seq)`` heap instead, as the engine did before
the lane, and runs the same randomized scenarios: zero-delay succeeds,
timeouts landing exactly on ``now``, interrupts at ``now``, process
and stage starts, and ``defer`` flushes.  Both must log the same
actions at the same times, under every way of driving the loop.

The scenarios also cover what the kernel schedules without an event of
its own: bare timers (``env._timer``), stages as their own kick-start
entries, stage sleeps, countdown joins (``Stage.join``, including a
failing sub-event and already-processed ones) and stage bodies that
raise in their kick.  The reference runs each of them in the form it
stands for: a timer is a ``Timeout`` with a callback, and a stage is
the process whose generator yields ``env.timeout`` where the stage
sleeps and ``env.all_of`` where it joins.
"""

import random
from heapq import heappop, heappush

import pytest

from repro.simcore import (Environment, Event, Interrupt, SimulationDeadlock,
                           Stage)

INF = float("inf")


class _IntoHeap:
    """Stands in for the lane: every due-now push goes to the heap."""

    def __init__(self, env):
        self.env = env

    def append(self, event):
        env = self.env
        env._seq += 1
        heappush(env._queue, (env._now, 1, env._seq, event))

    def __len__(self):
        return 0


class HeapOnlyEnvironment(Environment):
    """Reference loop: one heap for every event, no lane."""

    def __init__(self, initial_time=0.0):
        super().__init__(initial_time)
        self._due = _IntoHeap(self)

    def peek(self):
        return self._queue[0][0] if self._queue else INF

    def _flush_due(self):
        return self._flush_pending and (
            not self._queue or self._queue[0][0] > self._now)

    def step(self):
        if self._flush_due():
            self._run_deferred()
        if not self._queue:
            raise SimulationDeadlock("no scheduled events")
        self._now, _prio, _seq, event = heappop(self._queue)
        callbacks, event.callbacks = event.callbacks, None
        for callback in callbacks:
            callback(event)
        if not event._ok and not event._defused:
            raise event._value

    def run(self, until=None):
        finished = []
        deadline = INF
        if isinstance(until, Event):
            if until.callbacks is None:
                if not until._ok:
                    raise until._value
                return until._value
            until.callbacks.append(finished.append)
        elif until is not None:
            deadline = float(until)
        while not finished:
            if self._flush_due():
                self._run_deferred()
            if not self._queue or self._queue[0][0] > deadline:
                break
            self.step()
        if isinstance(until, Event):
            if not finished:
                raise SimulationDeadlock("queue is empty")
            if not until._ok:
                until._defused = True
                raise until._value
            return until._value
        if until is not None:
            self._now = deadline
        return None


class _ProcessBody:
    """What a stage body is handed on the reference: the calls of a
    :class:`Stage`, turned into what its generator would yield."""

    def __init__(self, env):
        self.env = env

    def succeed(self, value=None):
        self.value = value

    def sleep(self, delay, fn, *args):
        self.wait, self.then = self.env.timeout(delay), (fn, args)

    def join(self, *events):
        self.wait, self.then = self.env.all_of(events), None


def _as_generator(env, fn, args):
    body = _ProcessBody(env)
    then = (fn, args)
    while then is not None:
        body.value = body.wait = body.then = None
        fn, args = then
        fn(body, *args)
        if body.wait is None:
            return body.value
        yield body.wait
        then = body.then


def start_stage(env, fn, *args):
    """``Stage(env, fn, *args)``; on the reference, its process."""
    if isinstance(env, HeapOnlyEnvironment):
        return env.process(_as_generator(env, fn, args))
    return Stage(env, fn, *args)


def start_timer(env, delay, callback):
    """``env._timer``; on the reference, a timeout with a callback."""
    if isinstance(env, HeapOnlyEnvironment):
        env.timeout(delay).callbacks.append(callback)
    else:
        env._timer(delay, callback)


def _succeed(stage, value):
    stage.succeed(value)


#: Base time 2**53: there ``now + 1.0 == now``, so a 1-second timeout
#: lands exactly on ``now`` while 2- and 4-second ones do not.
BIG = 2.0 ** 53


def build(env, seed, log, n_workers=5, n_steps=10):
    """Start a randomized scenario on ``env``; returns the workers."""
    rng = random.Random(seed)
    delays = (0.0, 1.0, 2.0, 4.0)
    workers = []
    suspended = set()
    parked = {"a": [], "b": []}

    def make_flush(tag):
        def flush():
            log.append((env.now, "flush", tag, len(parked[tag])))
            while parked[tag]:
                parked[tag].pop(0).succeed(tag)
        return flush

    flushes = {tag: make_flush(tag) for tag in parked}

    def log_stage(stage, entry):
        log.append(entry)
        stage.succeed()

    processed = []

    def raising(stage, i, k):
        # Push something first, so a failure queued one slot late would
        # land after this entry's own follow-up and change the log.
        env.event().succeed().callbacks.append(
            lambda ev: log.append((env.now, "pre-raise", i, k)))
        raise ValueError(f"{i}-{k}")

    def sleeping(stage, i, k):
        stage.sleep(rng.choice(delays), joining, i, k)

    def joining(stage, i, k):
        log.append((env.now, "slept", i, k))
        if rng.random() < 0.1:
            stage.join()
            return
        parts = [env.timeout(rng.choice(delays)), start_stage(env, _succeed, k),
                 env.event().succeed(i)]
        if processed and rng.random() < 0.5:
            parts.append(rng.choice(processed))
        if rng.random() < 0.3:
            parts.append(start_stage(env, raising, i, k))
        rng.shuffle(parts)
        stage.join(*parts)

    def catch(event, i, k):
        try:
            return (yield event)
        except ValueError as exc:
            log.append((env.now, "caught", i, k, str(exc)))
            return "caught"

    def ring(timer, ev, i, k):
        log.append((env.now, "timer", i, k))
        ev.succeed(("timer", i, k))

    def child(i, k):
        yield env.timeout(rng.choice(delays))
        log.append((env.now, "child", i, k))
        return k

    def wait(me, event):
        suspended.add(me)
        try:
            return (yield event)
        finally:
            suspended.discard(me)

    def worker(i):
        me = workers[i]
        for k in range(n_steps):
            try:
                r = rng.random() * 1.3
                if r >= 1.2:
                    ev = env.event()
                    start_timer(env, rng.choice(delays),
                                lambda timer, ev=ev, k=k: ring(timer, ev, i, k))
                    got = yield from wait(me, ev)
                elif r >= 1.1:
                    body = sleeping if rng.random() < 0.7 else raising
                    got = yield from wait(me, env.process(
                        catch(start_stage(env, body, i, k), i, k)))
                elif r >= 1.0:
                    got = yield from wait(me, env.process(catch(
                        start_stage(env, joining, i, k), i, k)))
                elif r < 0.2:
                    got = yield from wait(me, env.timeout(rng.choice(delays), k))
                elif r < 0.3:
                    got = yield from wait(me, start_stage(env, _succeed,
                                                          ("soon", i, k)))
                elif r < 0.4:
                    got = yield from wait(me, env.event().succeed(("now", i, k)))
                elif r < 0.55:
                    proc = env.process(child(i, k))
                    got = (yield from wait(me, proc)) if rng.random() < 0.5 else None
                elif r < 0.65:
                    victims = sorted(suspended, key=workers.index)
                    if victims:
                        victim = rng.choice(victims)
                        suspended.discard(victim)
                        victim.interrupt((i, k))
                    got = yield from wait(me, env.timeout(0.0))
                elif r < 0.85:
                    tag = rng.choice("ab")
                    ev = env.event()
                    parked[tag].append(ev)
                    env.defer(flushes[tag])
                    got = yield from wait(me, ev)
                else:
                    got = yield from wait(me, env.all_of(
                        [env.timeout(rng.choice(delays)) for _ in range(3)]))
                    got = sorted(got.values(), key=repr)
                start_stage(env, log_stage, (env.now, "soon-log", i, k))
                log.append((env.now, "step", i, k, got))
                processed.append(env.event().succeed(k))
            except Interrupt as exc:
                log.append((env.now, "interrupted", i, k, exc.cause))
        return i

    for i in range(n_workers):
        workers.append(env.process(worker(i)))
    return workers


def drive(kind, env, workers, log):
    """Run ``env`` to the end one way, logging what the driver sees."""
    if kind == "exhaust":
        env.run()
    elif kind == "until-time":
        for t in (0.0, 1.0, 3.5, 7.0):
            env.run(until=env.now + t)
            log.append((env.now, "paused", env.peek()))
        env.run()
    elif kind == "until-event":
        for proc in workers:
            log.append((env.now, "joined", env.run(until=proc)))
        env.run()
    elif kind == "step":
        while True:
            log.append((env.now, "peek", env.peek()))
            try:
                env.step()
            except SimulationDeadlock:
                break
    log.append((env.now, "end", env.peek()))


@pytest.mark.parametrize("base", [0.0, BIG], ids=["t0", "t2**53"])
@pytest.mark.parametrize("kind", ["exhaust", "until-time", "until-event",
                                  "step"])
@pytest.mark.parametrize("seed", range(12))
def test_lane_matches_heap_only_reference(seed, kind, base):
    logs = []
    for cls in (Environment, HeapOnlyEnvironment):
        env = cls(initial_time=base)
        log = []
        drive(kind, env, build(env, seed, log), log)
        logs.append(log)
    lane, heap_only = logs
    assert lane == heap_only
    kinds = {entry[1] for entry in lane}
    assert {"step", "flush", "end"} <= kinds


def test_scenarios_cover_every_lane_path():
    """Across the seeds, every action the lane must order shows up."""
    kinds = set()
    for seed in range(12):
        env = Environment(initial_time=BIG)
        log = []
        drive("exhaust", env, build(env, seed, log), log)
        kinds.update(entry[1] for entry in log)
    assert {"step", "soon-log", "child", "interrupted", "flush", "timer",
            "slept", "caught", "pre-raise"} <= kinds


def test_timeout_absorbed_by_the_clock_is_due_now():
    env = Environment(initial_time=BIG)
    order = []
    env.timeout(2.0).callbacks.append(lambda ev: order.append("later"))
    env.timeout(1.0).callbacks.append(lambda ev: order.append("absorbed"))
    env.event().succeed().callbacks.append(lambda ev: order.append("succeed"))
    assert env.peek() == BIG
    env.run()
    assert order == ["absorbed", "succeed", "later"]
    assert env.now == BIG + 2.0


def test_interrupt_at_now_preempts_the_lane():
    env = Environment()
    order = []

    def sleeper():
        try:
            yield env.timeout(5.0)
        except Interrupt:
            order.append(("interrupted", env.now))

    proc = env.process(sleeper())
    env.run(until=1.0)
    env.event().succeed().callbacks.append(lambda ev: order.append("due"))
    proc.interrupt()
    env.run()
    assert order == [("interrupted", 1.0), "due"]


def test_stage_takes_a_process_start_slot():
    env = Environment()
    order = []

    def proc(tag):
        order.append(tag)
        yield env.timeout(0.0)

    def body(stage, tag):
        order.append(tag)
        stage.succeed(tag)

    env.process(proc("first"))
    stage = Stage(env, body, "stage")
    env.process(proc("second"))
    assert env.peek() == 0.0
    assert not stage.triggered
    env.run()
    assert order == ["first", "stage", "second"]
    assert stage.value == "stage"


@pytest.mark.parametrize("observed", [True, False], ids=["observed", "unobserved"])
def test_stage_failing_in_its_kick_fails_in_the_process_slot(observed):
    """A body that raises fails its stage in the lane slot where the
    process it stands for fails: after what the body pushed, before
    what that pushed in turn.  Unobserved, the failure stops the run
    at that slot."""
    logs = []
    for make in (Stage, lambda env, fn: env.process(_as_generator(env, fn, ()))):
        env = Environment()
        order = []

        def body(stage):
            order.append("body")
            env.event().succeed().callbacks.append(lambda ev: (
                order.append("pushed"),
                env.event().succeed().callbacks.append(
                    lambda ev: order.append("pushed-next"))))
            raise ValueError("boom")

        def waiter(event):
            try:
                yield event
            except ValueError as exc:
                order.append(("caught", str(exc)))

        failing = make(env, body)
        if observed:
            env.process(waiter(failing))
            env.run()
        else:
            with pytest.raises(ValueError, match="boom"):
                env.run()
        assert failing.triggered and not failing.ok
        logs.append(order)
    stage_order, process_order = logs
    assert stage_order == process_order
    if observed:
        assert stage_order == ["body", "pushed", ("caught", "boom"), "pushed-next"]
    else:
        assert stage_order == ["body", "pushed"]
