"""Differential tests for the struct-of-arrays flow-network kernel.

The kernel in :mod:`repro.simcore.flownet` has a scalar and a
vectorized code path for every pass (advance, completion scan, fill),
chosen by population size, and claims both are *bit-identical*.  It
also replaced an object-graph kernel with the same bit-identity claim;
that kernel is retired, and the literals it agreed with are pinned in
``tests/golden_scenarios.json`` (captured while scalar == vector ==
object-graph held).  These tests check:

* randomized topologies — steady-state rates and churn completion
  logs must be equal (``==``, not approx) on the scalar and vector
  paths (thresholds pinned low to force the vector paths on small
  populations) and equal their pinned digests; steady-state rates must
  also match an independent brute-force water-filler approximately;
* the golden end-to-end scenarios must reproduce their pinned
  telemetry hash-chains with the vector paths forced, and serial vs
  parallel sweeps must agree.
"""

import hashlib
import random

import pytest

from repro.experiments import run_sweep
from repro.simcore import Environment, FlowNetwork, Link
from tests.simcore.test_flownet_invariants import reference_fill
from tests.test_observability_invariance import (
    SCENARIOS,
    _config,
    _hash_chain,
    golden_record,
    scenario_id,
    small_workflow,
)

#: Huge payload so no flow finishes while steady-state rates are read.
_NEVER_FINISH = 1e18


def _force_vector(monkeypatch):
    """Pin the thresholds so even tiny populations take the vectorized
    sync/fill paths."""
    monkeypatch.setattr(FlowNetwork, "VEC_FILL_MIN", 1)
    monkeypatch.setattr(FlowNetwork, "VEC_SCAN_MIN", 1)


def _random_specs(rng):
    """Uneven capacities, shared-link components, capped flows."""
    n_links = rng.randint(2, 9)
    caps = [rng.choice([1e6, 3.7e6, 2.5e7, 1e8, rng.uniform(1e5, 1e9)])
            for _ in range(n_links)]
    specs = []
    for _ in range(rng.randint(2, 24)):
        k = rng.randint(1, min(3, n_links))
        path = tuple(sorted(rng.sample(range(n_links), k)))
        cap = rng.choice([None, None, None, 2e5, 1.5e6,
                          rng.uniform(1e4, 1e8)])
        specs.append((path, cap))
    return caps, specs


def _steady_rates(caps, specs):
    """Rates after all flows joined, in arrival order, plus the net."""
    env = Environment()
    net = FlowNetwork(env)
    links = [Link(f"l{i}", c) for i, c in enumerate(caps)]
    for path, cap in specs:
        net.transfer([links[i] for i in path], _NEVER_FINISH, max_rate=cap)
    return [float(flow.rate) for flow in net._flows]


def _digest(value):
    """sha256 of ``repr(value)`` — exact for plain floats/ints/tuples."""
    return hashlib.sha256(repr(value).encode()).hexdigest()


@pytest.mark.parametrize("trial", range(15))
def test_steady_rates_bit_identical_across_kernels(trial, monkeypatch,
                                                   goldens):
    """Scalar == vector == the pinned digest, and all ≈ brute force."""
    rng = random.Random(52000 + trial)
    caps, specs = _random_specs(rng)

    scalar = _steady_rates(caps, specs)
    _force_vector(monkeypatch)
    vector = _steady_rates(caps, specs)

    assert scalar == vector
    goldens.check("steady_rates", str(trial), _digest(scalar))

    links = [Link(f"l{i}", c) for i, c in enumerate(caps)]
    ref_specs = [([links[i] for i in path], cap) for path, cap in specs]
    want = reference_fill(ref_specs)
    for got, expected in zip(scalar, want):
        assert got == pytest.approx(expected, rel=1e-6, abs=1e-3)


def _churn_script(rng):
    """A reproducible arrival script with the nasty cases mixed in:
    zero-byte transfers, sub-epsilon payloads, shared-link components,
    synchronized same-timestamp waves."""
    caps, _ = _random_specs(rng)
    script = []
    for _ in range(rng.randint(10, 30)):
        k = rng.randint(1, min(3, len(caps)))
        path = tuple(sorted(rng.sample(range(len(caps)), k)))
        nbytes = rng.choice([
            0.0, 1e-12, rng.uniform(1e5, 5e7), rng.uniform(1e5, 5e7),
            rng.uniform(1e3, 1e5), rng.uniform(1e7, 2e8),
        ])
        cap = rng.choice([None, None, 2e5, rng.uniform(1e4, 1e7)])
        # delay 0.0 builds same-timestamp waves (the batched-cascade path).
        delay = rng.choice([0.0, 0.0, rng.uniform(0.01, 2.0)])
        script.append((path, nbytes, cap, delay))
    return caps, script


def _run_churn(caps, script):
    """Completion log [(flow index, finish time)] in event order."""
    env = Environment()
    net = FlowNetwork(env)
    links = [Link(f"l{i}", c) for i, c in enumerate(caps)]
    log = []

    def driver():
        pending = []
        for idx, (path, nbytes, cap, delay) in enumerate(script):
            done = net.transfer([links[i] for i in path], nbytes,
                                max_rate=cap)
            done.callbacks.append(
                lambda _ev, idx=idx: log.append((idx, env.now)))
            pending.append(done)
            if delay:
                yield env.timeout(delay)
        yield env.all_of(pending)

    env.process(driver())
    env.run()
    return log, float(net.total_bytes_moved), net.total_flows


@pytest.mark.parametrize("trial", range(10))
def test_churn_completions_bit_identical_across_kernels(trial, monkeypatch,
                                                        goldens):
    """Completion order, completion times, and byte totals match the
    pinned digest exactly under churn, on both paths — including
    zero-byte and sub-epsilon payloads arriving inside same-timestamp
    waves."""
    caps, script = _churn_script(random.Random(61000 + trial))

    scalar = _run_churn(caps, script)
    _force_vector(monkeypatch)
    vector = _run_churn(caps, script)

    assert scalar == vector
    goldens.check("churn_completions", str(trial), _digest(scalar))


def test_zero_byte_transfer_is_immediate_in_both_kernels(monkeypatch):
    """A zero-byte transfer succeeds synchronously, counts in
    ``total_flows``, moves no bytes and never joins the network — same
    contract on the scalar and the vector paths, with a live flow on
    its link."""
    for vector in (False, True):
        if vector:
            _force_vector(monkeypatch)
        env = Environment()
        net = FlowNetwork(env)
        link = Link("l", 10.0)
        busy = net.transfer((link,), 1e3)
        env.run(until=1.0)
        done = net.transfer((link,), 0.0)
        assert done.triggered
        assert net.total_flows == 2
        assert len(net._flows) == len(link._flows) == 1
        assert next(iter(net._flows)).rate == 10.0
        env.run(busy)
        assert env.now == 100.0
        assert net.total_bytes_moved == 1e3


# -- golden end-to-end scenarios ------------------------------------------


@pytest.mark.parametrize("scenario", SCENARIOS, ids=scenario_id)
def test_golden_scenarios_bit_identical_to_legacy(scenario, monkeypatch,
                                                  goldens):
    """With the vector paths forced onto every population, telemetry
    hash-chain, makespan, and cost still equal the pins the retired
    object-graph kernel agreed with.  (The default-threshold run is
    checked against the same pins by the observability test.)"""
    app, storage, nodes, seed = scenario
    _force_vector(monkeypatch)
    (result,) = run_sweep([_config(app, storage, nodes, seed)],
                          workflow=small_workflow(app))
    goldens.check("scenarios", scenario_id(scenario), golden_record(result))


def test_sweep_digest_serial_vs_parallel_under_soa_kernel():
    """The SoA kernel's results are independent of worker scheduling:
    the same sweep run serially and with two worker processes yields
    identical hash-chains cell for cell."""
    cells = [
        ("synthetic", "nfs", 2, 0),
        ("montage", "s3", 2, 0),
        ("synthetic", "pvfs", 4, 5),
        ("broadband", "nfs", 2, 23),
    ]
    configs = [_config(*cell) for cell in cells]
    serial = run_sweep(configs, workflow_factory=small_workflow)
    parallel = run_sweep(configs, workflow_factory=small_workflow, jobs=2)
    assert ([_hash_chain(r) for r in serial]
            == [_hash_chain(r) for r in parallel])
