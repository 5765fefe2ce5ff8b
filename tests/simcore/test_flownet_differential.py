"""Pinned differential tests for the flow-network kernel.

:mod:`repro.simcore.flownet` is one scalar kernel.  Two kernels it
replaced claimed bit-identity with it: an object-graph kernel, and a
numpy struct-of-arrays kernel with a vectorized path for every pass
(advance, completion scan, fill).  Both are retired; the digests they
agreed with are pinned as literals — the small trials in
``tests/golden_scenarios.json`` (captured while object-graph == vector
== scalar held), the large-component trials below (captured while the
struct-of-arrays kernel's default and forced-vector paths agreed).
These tests check:

* randomized topologies — steady-state rates and churn completion logs
  equal (``==``, not approx) their pinned digests; steady-state rates
  also match an independent brute-force water-filler approximately;
* large components (64–512 flows over 8–32 links, rate caps, one to
  three disjoint link groups), the sizes that only the vectorized fill
  used to take — same checks against literal digests;
* the golden end-to-end scenarios reproduce their pinned telemetry
  hash-chains, and serial vs parallel sweeps agree.
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


def _check_against_reference(caps, specs, rates):
    """Kernel rates ≈ the brute-force water-filler's."""
    links = [Link(f"l{i}", c) for i, c in enumerate(caps)]
    ref_specs = [([links[i] for i in path], cap) for path, cap in specs]
    want = reference_fill(ref_specs)
    assert len(rates) == len(want)
    for got, expected in zip(rates, want):
        assert got == pytest.approx(expected, rel=1e-6, abs=1e-3)


@pytest.mark.parametrize("trial", range(15))
def test_steady_rates_bit_identical_across_kernels(trial, goldens):
    """Steady rates equal the digest the retired kernels agreed on,
    and ≈ brute force."""
    rng = random.Random(52000 + trial)
    caps, specs = _random_specs(rng)
    rates = _steady_rates(caps, specs)
    goldens.check("steady_rates", str(trial), _digest(rates))
    _check_against_reference(caps, specs, rates)


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
def test_churn_completions_bit_identical_across_kernels(trial, goldens):
    """Completion order, completion times, and byte totals match the
    pinned digest exactly under churn — including zero-byte and
    sub-epsilon payloads arriving inside same-timestamp waves."""
    caps, script = _churn_script(random.Random(61000 + trial))
    goldens.check("churn_completions", str(trial),
                  _digest(_run_churn(caps, script)))


def test_zero_byte_transfer_is_immediate():
    """A zero-byte transfer succeeds synchronously, counts in
    ``total_flows``, moves no bytes and never joins the network, even
    with a live flow on its link."""
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


# -- large components -----------------------------------------------------


def _large_specs(rng):
    """64–512 flows over 8–32 links, split into 1–3 disjoint link
    groups so some trials hold several large components and refill
    only the dirty one."""
    n_links = rng.randint(8, 32)
    caps = [rng.choice([1e6, 3.7e6, 2.5e7, 1e8, rng.uniform(1e5, 1e9)])
            for _ in range(n_links)]
    n_groups = rng.randint(1, 3)
    groups = [list(range(g, n_links, n_groups)) for g in range(n_groups)]
    specs = []
    for _ in range(rng.randint(64, 512)):
        group = rng.choice(groups)
        k = rng.randint(1, min(3, len(group)))
        path = tuple(sorted(rng.sample(group, k)))
        cap = rng.choice([None, None, None, 2e5, 1.5e6,
                          rng.uniform(1e4, 1e8)])
        specs.append((path, cap))
    return caps, specs


def _large_churn_script(rng):
    """The large specs as an arrival script, mostly in same-timestamp
    waves, with the payload mix of :func:`_churn_script`."""
    caps, specs = _large_specs(rng)
    script = []
    for path, cap in specs:
        nbytes = rng.choice([
            0.0, 1e-12, rng.uniform(1e5, 5e7), rng.uniform(1e5, 5e7),
            rng.uniform(1e3, 1e5), rng.uniform(1e7, 2e8),
        ])
        delay = rng.choice([0.0, 0.0, 0.0, 0.0, rng.uniform(0.01, 2.0)])
        script.append((path, nbytes, cap, delay))
    return caps, script


#: trial -> (links, flows, digest of the steady rates), seeds 73000+trial.
#: Captured from the struct-of-arrays kernel, where the default and the
#: forced-vector thresholds gave the same digests.
LARGE_STEADY = {
    0: (31, 385, "0affefe975d6b60af20ca9116c4ab49bc95efd6b2189c19803cea1fce121a718"),
    1: (21, 199, "a819a887eb7e41f402ae3090a84034f6b400cf0bd384a56dc350234960554695"),
    2: (15, 426, "4acff47f0cf4a35bbbc4c482cf8f9db29e6128a616a5c5fc27f0f825f2707650"),
    3: (12, 416, "47b17b54df29ddca445cd1743d78d9ffa8409ece9ef698178a1aed53fccec450"),
    4: (27, 354, "39dcab073d95da5fa9ac0881fbccadd411b526102366050c4c7d44701fe12984"),
    5: (14, 354, "d8014438f56159b00d78291f552a5ba8be638314f1e53b5383b8f3fae57c8522"),
    6: (13, 266, "608e8020d734f176f5105376fa6072adcbf4ba2a41a3e2cba19b925d8618015c"),
    7: (16, 303, "eaffe0fa172277b78e7291622f1062650807884dc84a0cea287efab7866112d9"),
}

#: trial -> (links, flows, digest of the churn log), seeds 74000+trial;
#: captured like LARGE_STEADY.
LARGE_CHURN = {
    0: (28, 419, "b1627a3a9bdb9ff3326ab9fd4f725064a531c1fcc6b47bb341ea77b1590453e3"),
    1: (27, 291, "e808de3c28d57c5b7fc510802e3e243ec9e1a72fb390aa92910508dfa22812fb"),
    2: (32, 216, "3376de56a55f6d7c5073b1c4fc904de7005cf5599b9708eae9cef60392c42a9d"),
    3: (10, 476, "429c47cbbd5fc7b0bd66fb4883ac2de0878066b81de256ccef090b4c64e23ee0"),
}


@pytest.mark.parametrize("trial", sorted(LARGE_STEADY))
def test_large_component_steady_rates_pinned(trial):
    caps, specs = _large_specs(random.Random(73000 + trial))
    rates = _steady_rates(caps, specs)
    assert (len(caps), len(specs), _digest(rates)) == LARGE_STEADY[trial]
    _check_against_reference(caps, specs, rates)


@pytest.mark.parametrize("trial", sorted(LARGE_CHURN))
def test_large_component_churn_pinned(trial):
    caps, script = _large_churn_script(random.Random(74000 + trial))
    digest = _digest(_run_churn(caps, script))
    assert (len(caps), len(script), digest) == LARGE_CHURN[trial]


# -- golden end-to-end scenarios ------------------------------------------


@pytest.mark.parametrize("scenario", SCENARIOS, ids=scenario_id)
def test_golden_scenarios_bit_identical_to_legacy(scenario, goldens):
    """Telemetry hash-chain, makespan, and cost of a plain run equal
    the pins the retired kernels agreed with."""
    app, storage, nodes, seed = scenario
    (result,) = run_sweep([_config(app, storage, nodes, seed)],
                          workflow=small_workflow(app))
    goldens.check("scenarios", scenario_id(scenario), golden_record(result))


def test_sweep_digest_serial_vs_parallel():
    """The kernel's results are independent of worker scheduling: the
    same sweep run serially and with two worker processes yields
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
