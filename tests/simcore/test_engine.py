"""Unit tests for the DES engine: clock, run loop, processes."""

import pytest

from repro.simcore import (
    Environment,
    EventNotTriggered,
    Interrupt,
    SimulationDeadlock,
)


def test_clock_starts_at_zero():
    env = Environment()
    assert env.now == 0.0


def test_clock_custom_start():
    env = Environment(initial_time=42.5)
    assert env.now == 42.5


def test_timeout_advances_clock():
    env = Environment()
    done = []

    def proc(env):
        yield env.timeout(5.0)
        done.append(env.now)

    env.process(proc(env))
    env.run()
    assert done == [5.0]


def test_timeout_value_passed_to_process():
    env = Environment()
    seen = []

    def proc(env):
        v = yield env.timeout(1.0, value="hello")
        seen.append(v)

    env.process(proc(env))
    env.run()
    assert seen == ["hello"]


def test_negative_timeout_rejected():
    env = Environment()
    with pytest.raises(ValueError):
        env.timeout(-1.0)


def test_run_until_time_stops_clock_exactly():
    env = Environment()

    def ticker(env):
        while True:
            yield env.timeout(1.0)

    env.process(ticker(env))
    env.run(until=10.5)
    assert env.now == 10.5


def test_run_until_past_time_rejected():
    env = Environment()
    env.run(until=5.0)
    with pytest.raises(ValueError):
        env.run(until=1.0)


def test_run_until_event_returns_value():
    env = Environment()

    def proc(env):
        yield env.timeout(3.0)
        return "result"

    p = env.process(proc(env))
    assert env.run(until=p) == "result"
    assert env.now == 3.0


def test_run_until_event_reraises_failure():
    env = Environment()

    def proc(env):
        yield env.timeout(1.0)
        raise RuntimeError("boom")

    p = env.process(proc(env))
    with pytest.raises(RuntimeError, match="boom"):
        env.run(until=p)


def test_run_until_unreachable_event_deadlocks():
    env = Environment()
    ev = env.event()  # nobody will ever trigger this
    with pytest.raises(SimulationDeadlock):
        env.run(until=ev)


def test_step_on_empty_queue_deadlocks():
    env = Environment()
    with pytest.raises(SimulationDeadlock):
        env.step()


def test_events_fire_in_time_order():
    env = Environment()
    order = []

    def proc(env, delay, tag):
        yield env.timeout(delay)
        order.append(tag)

    env.process(proc(env, 3.0, "c"))
    env.process(proc(env, 1.0, "a"))
    env.process(proc(env, 2.0, "b"))
    env.run()
    assert order == ["a", "b", "c"]


def test_same_time_events_fifo():
    env = Environment()
    order = []

    def proc(env, tag):
        yield env.timeout(1.0)
        order.append(tag)

    for tag in "abcd":
        env.process(proc(env, tag))
    env.run()
    assert order == list("abcd")


def test_nested_process_waits_for_child():
    env = Environment()
    log = []

    def child(env):
        yield env.timeout(2.0)
        log.append(("child", env.now))
        return 99

    def parent(env):
        result = yield env.process(child(env))
        log.append(("parent", env.now, result))

    env.process(parent(env))
    env.run()
    assert log == [("child", 2.0), ("parent", 2.0, 99)]


def test_process_value_readable_after_completion():
    env = Environment()

    def proc(env):
        yield env.timeout(1.0)
        return 7

    p = env.process(proc(env))
    with pytest.raises(EventNotTriggered):
        _ = p.value
    env.run()
    assert p.value == 7
    assert not p.is_alive


def test_process_exception_propagates_to_parent():
    env = Environment()
    caught = []

    def child(env):
        yield env.timeout(1.0)
        raise ValueError("child died")

    def parent(env):
        try:
            yield env.process(child(env))
        except ValueError as exc:
            caught.append(str(exc))

    env.process(parent(env))
    env.run()
    assert caught == ["child died"]


def test_unhandled_process_failure_surfaces():
    env = Environment()

    def proc(env):
        yield env.timeout(1.0)
        raise RuntimeError("unhandled")

    env.process(proc(env))
    with pytest.raises(RuntimeError, match="unhandled"):
        env.run()


def test_interrupt_wakes_waiting_process():
    env = Environment()
    log = []

    def sleeper(env):
        try:
            yield env.timeout(100.0)
        except Interrupt as i:
            log.append((env.now, i.cause))

    def interrupter(env, victim):
        yield env.timeout(5.0)
        victim.interrupt(cause="wake up")

    victim = env.process(sleeper(env))
    env.process(interrupter(env, victim))
    env.run()
    assert log == [(5.0, "wake up")]


def test_interrupt_dead_process_rejected():
    env = Environment()

    def proc(env):
        yield env.timeout(1.0)

    p = env.process(proc(env))
    env.run()
    with pytest.raises(RuntimeError):
        p.interrupt()


def test_yield_non_event_fails_process():
    env = Environment()

    def proc(env):
        yield 42  # not an Event

    env.process(proc(env))
    with pytest.raises(RuntimeError, match="non-event"):
        env.run()


def test_manual_event_trigger():
    env = Environment()
    ev = env.event()
    seen = []

    def waiter(env, ev):
        v = yield ev
        seen.append((env.now, v))

    def trigger(env, ev):
        yield env.timeout(4.0)
        ev.succeed("go")

    env.process(waiter(env, ev))
    env.process(trigger(env, ev))
    env.run()
    assert seen == [(4.0, "go")]


def test_peek_reports_next_event_time():
    env = Environment()
    env.timeout(7.0)
    # The timeout's trigger is queued at t=7 (timeouts self-queue).
    assert env.peek() == 7.0


def test_peek_empty_is_inf():
    env = Environment()
    assert env.peek() == float("inf")


def test_all_of_waits_for_every_event():
    env = Environment()
    times = []

    def proc(env):
        t1 = env.timeout(1.0, value="a")
        t2 = env.timeout(5.0, value="b")
        results = yield env.all_of([t1, t2])
        times.append(env.now)
        assert set(results.values()) == {"a", "b"}

    env.process(proc(env))
    env.run()
    assert times == [5.0]


def test_any_of_fires_on_first():
    env = Environment()
    times = []

    def proc(env):
        t1 = env.timeout(1.0, value="fast")
        t2 = env.timeout(5.0, value="slow")
        results = yield env.any_of([t1, t2])
        times.append(env.now)
        assert "fast" in results.values()

    env.process(proc(env))
    env.run()
    assert times == [1.0]


def test_and_or_operators():
    env = Environment()
    log = []

    def proc(env):
        yield env.timeout(1.0) & env.timeout(2.0)
        log.append(env.now)
        yield env.timeout(1.0) | env.timeout(10.0)
        log.append(env.now)

    env.process(proc(env))
    env.run(until=20)
    assert log == [2.0, 3.0]


def test_empty_all_of_fires_immediately():
    env = Environment()
    log = []

    def proc(env):
        yield env.all_of([])
        log.append(env.now)

    env.process(proc(env))
    env.run()
    assert log == [0.0]


def test_any_of_empty_rejected():
    env = Environment()
    with pytest.raises(ValueError):
        env.any_of([])


def test_event_double_trigger_rejected():
    env = Environment()
    ev = env.event()
    ev.succeed(1)
    from repro.simcore import EventAlreadyTriggered
    with pytest.raises(EventAlreadyTriggered):
        ev.succeed(2)


def test_many_processes_complete():
    env = Environment()
    done = []

    def proc(env, i):
        yield env.timeout(float(i % 17) + 0.1)
        done.append(i)

    for i in range(500):
        env.process(proc(env, i))
    env.run()
    assert sorted(done) == list(range(500))


# -- end-of-timestamp flush hooks (Environment.defer) -------------------------


def _deferring_world():
    """A process that defers ``flush`` twice at t=2 and once at t=5;
    ``log`` records the clock at every flush."""
    env = Environment()
    log = []

    def flush():
        log.append(env.now)

    def proc(env):
        yield env.timeout(2.0)
        env.defer(flush)
        env.defer(flush)
        yield env.timeout(3.0)
        env.defer(flush)

    return env, env.process(proc(env)), log


def test_defer_flushes_once_per_dirtied_timestamp():
    env = Environment()
    log = []

    def flush():
        log.append(env.now)

    def toucher(env, delay):
        yield env.timeout(delay)
        env.defer(flush)

    # Three touches at t=1, two at t=4, none at t=3.
    for delay in (1.0, 1.0, 1.0, 3.0, 4.0, 4.0):
        env.process(toucher(env, delay))
    env.run()
    assert log == [1.0, 3.0, 4.0]


def test_defer_runs_in_last_registration_order():
    env = Environment()
    order = []

    def a():
        order.append("a")

    def b():
        order.append("b")

    env.defer(a)
    env.defer(b)
    env.defer(a)  # re-deferring moves ``a`` behind ``b``
    env.run()
    assert order == ["b", "a"]


def test_flush_that_defers_drains_in_same_pass():
    env = Environment()
    log = []

    def second():
        log.append(("second", env.now))

    def first():
        log.append(("first", env.now))
        env.defer(second)

    def proc(env):
        yield env.timeout(1.0)
        env.defer(first)
        yield env.timeout(1.0)
        log.append(("next event", env.now))

    env.process(proc(env))
    env.run()
    assert log == [("first", 1.0), ("second", 1.0), ("next event", 2.0)]


def test_flushes_run_before_clock_advances_under_step():
    env, _proc, log = _deferring_world()
    while env.now < 2.0:
        env.step()
    assert log == []  # still inside the t=2 cascade
    env.step()  # flushes at t=2, then pops the t=5 timeout
    assert log == [2.0]
    assert env.now == 5.0


def test_flushes_run_before_clock_advances_under_run_to_exhaustion():
    env, _proc, log = _deferring_world()
    env.run()
    # The final flush runs even though no event follows it.
    assert log == [2.0, 5.0]


def test_flushes_run_before_clock_advances_under_run_until_event():
    env, proc, log = _deferring_world()
    env.run(until=proc)
    # The run stops as soon as ``proc`` is processed at t=5, before the
    # t=5 cascade's flush; the next run picks it up at the same time.
    assert log == [2.0]
    assert env.now == 5.0
    env.run()
    assert log == [2.0, 5.0]


def test_flushes_run_before_clock_advances_under_run_until_time():
    env, _proc, log = _deferring_world()
    env.run(until=4.0)
    assert log == [2.0]
    assert env.now == 4.0
    env.run(until=10.0)
    assert log == [2.0, 5.0]
    assert env.now == 10.0
