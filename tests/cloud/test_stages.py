"""Stage forms of disk and network operations keep the process schedule.

``disk.read_event(n)`` must push the same events in the same order as
``env.process(disk.read(n))``; likewise ``write_event`` and
``ClusterNetwork.transfer_event``.  Each test runs one contended
workload twice, once per form, with operations arriving at the same
instant and interleaved with unrelated same-time processes, and
compares the completion order, completion times and trace records.
"""

import pytest

from repro.cloud import EPHEMERAL_DISK, MB, BlockDevice, ClusterNetwork
from repro.simcore import Environment
from repro.simcore.events import Stage
from repro.simcore.tracing import TraceCollector


def _records(trace):
    return [(r.time, r.category, r.event, r.fields) for r in trace.records]


def _marker(env, log, tag):
    """A same-time bystander: logs at start and after a zero timeout."""
    log.append((env.now, "marker", tag))
    yield env.timeout(0.0)
    log.append((env.now, "marker-done", tag))


def _run(make_ops, use_stages):
    """Start every op of ``make_ops`` in waves; return what happened."""
    env = Environment()
    trace = TraceCollector()
    log = []

    def finish(tag):
        return lambda ev: log.append((env.now, "done", tag, ev.ok))

    def launcher():
        for wave, ops in enumerate(make_ops(env, trace)):
            for k, (gen_form, stage_form) in enumerate(ops):
                env.process(_marker(env, log, (wave, k)))
                ev = stage_form() if use_stages else env.process(gen_form())
                ev.callbacks.append(finish((wave, k)))
            yield env.timeout(0.25)

    env.process(launcher())
    env.run()
    return log, _records(trace), env.now


def disk_ops(env, trace):
    disk = BlockDevice(env, EPHEMERAL_DISK, trace=trace)
    sizes = (8 * MB, 0.0, 1 * MB, 64 * MB, 8 * MB)

    def wave(first_key):
        ops = []
        for k, size in enumerate(sizes):
            key = f"f{first_key + k % 3}"
            ops.append((lambda s=size: disk.read(s),
                        lambda s=size: disk.read_event(s)))
            ops.append((lambda s=size, key=key: disk.write(key, s),
                        lambda s=size, key=key: disk.write_event(key, s)))
        return ops

    return [wave(0), wave(1), wave(0)]


def net_ops(env, trace):
    net = ClusterNetwork(env, trace=trace)
    a, b, c = (net.attach(n, 100 * MB) for n in "abc")
    flows = [(a, b, 40 * MB, None), (c, b, 10 * MB, None),
             (a, a, 5 * MB, None), (b, c, 0.0, None),
             (a, b, 20 * MB, 30 * MB), (c, b, 10 * MB, None),
             (a, c, 1 * MB, None)]

    def wave():
        return [(lambda f=f: net.transfer(*f[:3], max_rate=f[3]),
                 lambda f=f: net.transfer_event(*f[:3], max_rate=f[3]))
                for f in flows]

    return [wave(), wave(), wave()]


@pytest.mark.parametrize("make_ops", [disk_ops, net_ops],
                         ids=["disk", "network"])
def test_stage_forms_match_processes(make_ops):
    processes = _run(make_ops, use_stages=False)
    stages = _run(make_ops, use_stages=True)
    assert stages == processes
    log, records, _ = stages
    done = [entry for entry in log if entry[1] == "done"]
    assert len(done) == sum(len(w) for w in make_ops(Environment(),
                                                     TraceCollector()))
    assert len({entry[0] for entry in done}) > 3  # contention spreads them
    assert records


def test_stage_forms_account_like_generators():
    def counters(use_stages):
        env = Environment()
        disk = BlockDevice(env, EPHEMERAL_DISK)
        if use_stages:
            events = [disk.write_event("k", 4 * MB), disk.read_event(2 * MB),
                      disk.write_event("k", 4 * MB)]
        else:
            events = [env.process(disk.write("k", 4 * MB)),
                      env.process(disk.read(2 * MB)),
                      env.process(disk.write("k", 4 * MB))]
        env.run(until=env.all_of(events))
        return (disk.reads, disk.writes, disk.bytes_read, disk.bytes_written,
                disk.is_touched("k"), env.now)

    assert counters(True) == counters(False)


def _failure(make_event):
    """(time, exception type, message) of a failed operation."""
    env = Environment()
    ev = make_event(env)
    with pytest.raises(Exception) as info:
        env.run(until=ev)
    return env.now, type(info.value), str(info.value)


def test_stage_body_that_raises_fails_its_event_like_a_process():
    def body(stage, n):
        raise RuntimeError(f"bad stage {n}")

    def gen(env, n):
        raise RuntimeError(f"bad stage {n}")
        yield env.timeout(0)  # pragma: no cover - makes it a generator

    assert _failure(lambda env: Stage(env, body, 3)) == _failure(
        lambda env: env.process(gen(env, 3)))
    assert _failure(lambda env: Stage(env, body, 3))[1] is RuntimeError


@pytest.mark.parametrize("op", ["read", "write"])
def test_failed_disk_stage_matches_failed_process(op):
    def stage(env):
        disk = BlockDevice(env, EPHEMERAL_DISK)
        return disk.read_event(-5) if op == "read" else disk.write_event("k", -5)

    def process(env):
        disk = BlockDevice(env, EPHEMERAL_DISK)
        gen = disk.read(-5) if op == "read" else disk.write("k", -5)
        return env.process(gen)

    assert _failure(stage) == _failure(process)
    assert _failure(stage)[1] is ValueError


def test_failure_after_the_latency_hop_fails_the_stage():
    def stage(env):
        net = ClusterNetwork(env)
        return net.transfer_event(net.attach("a", MB), net.attach("b", MB),
                                  MB, max_rate=-1.0)

    def process(env):
        net = ClusterNetwork(env)
        return env.process(net.transfer(net.attach("a", MB),
                                        net.attach("b", MB), MB, max_rate=-1.0))

    assert _failure(stage) == _failure(process)
    assert _failure(stage)[0] == ClusterNetwork.INTRA_ZONE_LATENCY


def test_unwaited_failed_stage_surfaces_from_run():
    env = Environment()
    disk = BlockDevice(env, EPHEMERAL_DISK)
    disk.read_event(-1)
    with pytest.raises(ValueError):
        env.run()


def test_waiting_process_receives_stage_failure():
    env = Environment()
    disk = BlockDevice(env, EPHEMERAL_DISK)
    seen = []

    def waiter():
        try:
            yield disk.read_event(-1)
        except ValueError as exc:
            seen.append((env.now, str(exc)))

    env.process(waiter())
    env.run()
    assert seen == [(0.0, "nbytes must be >= 0")]
