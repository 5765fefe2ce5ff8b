"""Kernel microbenchmarks (wall-clock; deliberately outside src/repro).

Each ``bench_*`` function exercises one hot layer of the simulator and
returns elapsed seconds (best of ``repeats`` runs).  :func:`run_suite`
bundles them at three scales:

``smoke``
    Downscaled for CI: a few hundred thousand events, a 1-degree
    Montage.  Finishes in well under a minute on a laptop.
``full``
    The honest numbers: paper-scale Montage cells (10,429 tasks) on
    S3 and NFS at 4 workers — the workloads the PR's speedup targets.
``sweep``
    Fleet-shaped load: hundreds of small cells through ``run_sweep``
    (serial and with a 4-worker pool) plus a dense-component flownet
    churn whose every refill spans ~100 flows.

Because absolute wall-clock depends on the host, every figure is also
reported *normalized* by :func:`calibrate` — the time of a fixed pure
Python spin loop on the same machine — so the perf gate compares
machine-independent ratios, not raw seconds.

This module reads the host clock on purpose; it lives in
``benchmarks/`` (not on the ``repro.lint`` SIM001 path) because
nothing here runs inside a simulation.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path
from typing import Callable, Dict

sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "src"))

from repro.apps import build_montage, build_synthetic  # noqa: E402
from repro.apps.templates import WorkflowTemplate  # noqa: E402
from repro.experiments.runner import (  # noqa: E402
    ExperimentConfig,
    run_experiment,
    run_sweep,
)
from repro.simcore.engine import Environment  # noqa: E402
from repro.simcore.flownet import FlowNetwork, Link  # noqa: E402

#: Spin-loop iterations for machine-speed calibration.
_CALIBRATION_N = 2_000_000


def _best_of(fn: Callable[[], None], repeats: int) -> float:
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        elapsed = time.perf_counter() - t0
        if elapsed < best:
            best = elapsed
    return best


def calibrate(repeats: int = 3) -> float:
    """Seconds for a fixed pure-Python spin loop (machine-speed probe)."""
    def spin() -> None:
        acc = 0
        for i in range(_CALIBRATION_N):
            acc += i & 7
    return _best_of(spin, repeats)


# -- kernel layers ---------------------------------------------------------


def bench_flownet_kernel(n_waves: int = 80, flows_per_wave: int = 24,
                         n_links: int = 12, repeats: int = 3) -> float:
    """Churn the max-min fill: waves of overlapping two-link flows.

    Stresses exactly what the incremental reallocator optimizes —
    flow arrivals/completions touching small link components.
    """
    def once() -> None:
        env = Environment()
        net = FlowNetwork(env)
        links = [Link(f"l{i}", 1e8) for i in range(n_links)]

        def driver():
            for wave in range(n_waves):
                events = []
                for i in range(flows_per_wave):
                    a = links[(wave + i) % n_links]
                    b = links[(wave * 7 + i * 3 + 1) % n_links]
                    if a is b:
                        b = links[(wave * 7 + i * 3 + 2) % n_links]
                    nbytes = 1e6 * (1 + (i % 5))
                    events.append(net.transfer((a, b), nbytes))
                yield env.all_of(events)

        env.process(driver())
        env.run()

    return _best_of(once, repeats)


def bench_event_loop(n_events: int = 300_000, repeats: int = 3) -> float:
    """Raw engine throughput: a timeout chain plus a succeed chain."""
    def once() -> None:
        env = Environment()

        def ticker():
            for _ in range(n_events // 2):
                yield env.timeout(1.0)

        def chainer():
            for _ in range(n_events // 2):
                ev = env.event()
                ev.succeed()
                yield ev

        env.process(ticker())
        env.process(chainer())
        env.run()

    return _best_of(once, repeats)


def bench_dag_build(degrees: float = 8.0, repeats: int = 3) -> float:
    """Cold construction of the Montage DAG (what templates amortize)."""
    return _best_of(lambda: build_montage(degrees=degrees), repeats)


def bench_template_instantiate(n_calls: int = 1000,
                               repeats: int = 3) -> float:
    """Warm per-run cost of a cached template (should be ~free)."""
    template = WorkflowTemplate(build_montage)
    template.instantiate()  # build outside the timed region

    def once() -> None:
        for _ in range(n_calls):
            template.instantiate()

    return _best_of(once, repeats)


def bench_flownet_dense(n_waves: int = 40, flows_per_wave: int = 96,
                        n_links: int = 6, repeats: int = 3) -> float:
    """Dense components: waves of ~100 flows over 6 shared links.

    Every wave forms one large link component, so each refill runs
    progressive filling over the whole population — the shape a PVFS
    stripe fan-out or a saturated shared server produces.
    """
    def once() -> None:
        env = Environment()
        net = FlowNetwork(env)
        links = [Link(f"l{i}", 1e8) for i in range(n_links)]

        def driver():
            for wave in range(n_waves):
                events = []
                for i in range(flows_per_wave):
                    a = links[(wave + i) % n_links]
                    b = links[(wave * 5 + i * 3 + 1) % n_links]
                    if a is b:
                        b = links[(wave * 5 + i * 3 + 2) % n_links]
                    nbytes = 1e6 * (1 + (i % 7))
                    events.append(net.transfer((a, b), nbytes))
                yield env.all_of(events)

        env.process(driver())
        env.run()

    return _best_of(once, repeats)


def bench_sweep(n_cells: int = 240, jobs: int = 1,
                repeats: int = 1) -> float:
    """Hundreds of small cells through :func:`run_sweep`.

    Sweep-shaped load is where the batched same-timestamp cascades
    pay off: every cell is dominated by event-cascade churn rather
    than one big steady state.  ``jobs`` exercises the process-pool
    path (worker spawn + telemetry replay included in the figure,
    exactly as a user-visible sweep would pay them).
    """
    workflow = build_synthetic(30, width=6, seed=1)
    storages = ("local", "nfs", "s3", "pvfs")

    def once() -> None:
        configs = [
            ExperimentConfig("synthetic", storages[i % len(storages)],
                             1 + i % 4, seed=i)
            for i in range(n_cells)
        ]
        run_sweep(configs, workflow=workflow, jobs=jobs)

    return _best_of(once, repeats)


def bench_end_to_end(storage: str, degrees: float = 8.0,
                     repeats: int = 1) -> float:
    """One full Montage cell at 4 workers (telemetry off, like sweeps)."""
    workflow = None if degrees == 8.0 else build_montage(degrees=degrees)

    def once() -> None:
        config = ExperimentConfig("montage", storage, 4, seed=0)
        run_experiment(config, workflow=workflow)

    return _best_of(once, repeats)


# -- suite -----------------------------------------------------------------


def run_suite(scale: str = "smoke") -> Dict[str, Dict[str, float]]:
    """Run every microbench at ``scale``; returns name -> timings.

    Each entry carries raw ``seconds`` and machine-``normalized``
    (seconds / calibration-loop seconds) figures.
    """
    if scale not in ("smoke", "full", "sweep"):
        raise ValueError(
            f"scale must be 'smoke', 'full', or 'sweep', got {scale!r}")
    calibration = calibrate()
    benches: Dict[str, float] = {}
    if scale == "sweep":
        # Sweep tier: cascade-churn workloads at fleet scale — dense
        # link components and hundreds of small cells through
        # run_sweep, serial and with a worker pool.
        benches["flownet_dense"] = bench_flownet_dense()
        benches["sweep_240_serial"] = bench_sweep(n_cells=240, jobs=1)
        benches["sweep_240_jobs4"] = bench_sweep(n_cells=240, jobs=4)
        return {
            name: {"seconds": round(seconds, 4),
                   "normalized": round(seconds / calibration, 3)}
            for name, seconds in benches.items()
        } | {"_calibration": {"seconds": round(calibration, 4),
                              "normalized": 1.0}}
    smoke = scale == "smoke"
    benches["flownet_kernel"] = bench_flownet_kernel(
        n_waves=30 if smoke else 80)
    benches["event_loop"] = bench_event_loop(
        n_events=100_000 if smoke else 300_000)
    benches["dag_build"] = bench_dag_build(
        degrees=2.0 if smoke else 8.0)
    benches["template_instantiate"] = bench_template_instantiate()
    # Smoke cells use a 2-degree Montage (~650 tasks) with best-of-3:
    # the 1-degree DAG finishes in ~50 ms, far too short to time
    # reproducibly against a 25% gate, and best-of damps scheduler
    # noise toward the true minimum on busy hosts.
    degrees = 2.0 if smoke else 8.0
    repeats = 3 if smoke else 1
    benches["end_to_end_montage_s3_4"] = bench_end_to_end(
        "s3", degrees, repeats=repeats)
    benches["end_to_end_montage_nfs_4"] = bench_end_to_end(
        "nfs", degrees, repeats=repeats)
    return {
        name: {"seconds": round(seconds, 4),
               "normalized": round(seconds / calibration, 3)}
        for name, seconds in benches.items()
    } | {"_calibration": {"seconds": round(calibration, 4),
                          "normalized": 1.0}}
