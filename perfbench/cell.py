"""One repetition of a benchmark workload, in a fresh interpreter.

``run.py`` starts this script once per repetition.  It imports
``repro`` from the checkout's ``src/``, builds the application's
workflow template, prints ``{"ready": <perf_counter>}`` (the end of
set-up), runs the timed region and prints one JSON result line.  With
``--mode traced`` the layer wrappers of :mod:`tracer` are installed
after set-up and the result carries the per-layer metrics; with
``--mode setup`` the script stops once set-up is done.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(HERE, "out")


def _configs(workload: str, seed: int):
    from repro.experiments.config import ExperimentConfig, paper_matrix

    import workloads

    spec = workloads.WORKLOADS[workload]
    if spec["kind"] == "cell":
        return [ExperimentConfig(spec["app"], spec["storage"], spec["nodes"],
                                 seed=seed)]
    matrix = paper_matrix(spec["app"], cpu_jitter_sigma=workloads.SWEEP_JITTER,
                          collect_traces=True)
    seeds = iter(workloads.sweep_seeds(seed))
    return [cfg.with_(seed=next(seeds))
            for _ in range(workloads.SWEEP_REPEATS) for cfg in matrix]


def _cpu(usage) -> float:
    return usage.ru_utime + usage.ru_stime


def _layer_metrics(log, results, run_s: float, jobs: int, usage) -> dict:
    """The per-layer metrics of one traced run (see README.md)."""
    import numpy as np

    import tracer

    own, inclusive, busy = tracer.layer_seconds(log)

    def incl(*names: str) -> float:
        return sum(inclusive.get(n, 0.0) for n in names)

    c = log.counts
    tasks = sum(r.run.n_jobs for r in results)
    stats = [r.run.storage_stats for r in results]
    lookups = sum(s.cache_hits + s.cache_misses for s in stats)
    m = {f"{layer}.self_s": own[layer] for layer in tracer.LAYERS}
    m.update({
        "engine.processes": c["engine.processes"],
        "engine.resumes": c["engine.resumes"],
        "engine.resumes_per_task": c["engine.resumes"] / tasks,
        "engine.self_share": own["engine"] / busy,
        "flownet.transfers": c["flownet.transfers"],
        "flownet.flushes": c["flownet.flushes"],
        "flownet.us_per_flush": (1e6 * incl("flownet.flush") / c["flownet.flushes"]
                                 if c["flownet.flushes"] else 0.0),
        "pipes.submits": c["pipes.submits"],
        "pipes.flushes": c["pipes.flushes"],
        "resources.requests": c["resources.requests"],
        "cloud.net_transfers": c["cloud.net_transfers"],
        "cloud.disk_ops": c["cloud.disk_ops"],
        "cloud.provision_s": incl("cloud.ContextBroker.provision_now"),
        "storage.reads": c["storage.reads"],
        "storage.writes": c["storage.writes"],
        "storage.deploy_s": incl("storage.StorageSystem.deploy",
                                 "storage.StorageSystem.stage_input"),
        "storage.bytes_read": sum(s.bytes_read for s in stats),
        "storage.bytes_written": sum(s.bytes_written for s in stats),
        "storage.cache_hit_ratio": (sum(s.cache_hits for s in stats) / lookups
                                    if lookups else 0.0),
        "storage.io_sim_s": sum(r.run.total_io_seconds() for r in results),
        "workflow.jobs": c["workflow.jobs"],
        "workflow.plan_s": incl("workflow.PegasusMapper.plan"),
        "workflow.queue_wait_sim_s": sum(rec.queue_delay for r in results
                                         for rec in r.run.records),
        "telemetry.records": c["telemetry.records"],
        "telemetry.records_per_task": c["telemetry.records"] / tasks,
        "trace.run_s": run_s,
        "trace.busy_s": busy,
        "trace.spans": len(log),
    })
    m.update(_sweep_usage(jobs, run_s, usage))
    os.makedirs(OUT_DIR, exist_ok=True)
    np.savez(os.path.join(OUT_DIR, "spans.npz"), names=np.array(log.names),
             **log.arrays())
    return m


def _sweep_usage(jobs: int, run_s: float, usage) -> dict:
    (self0, child0), (self1, child1) = usage
    worker_cpu = _cpu(child1) - _cpu(child0)
    return {"sweep.parent_cpu_s": _cpu(self1) - _cpu(self0),
            "sweep.worker_cpu_s": worker_cpu,
            "sweep.pool_utilization": worker_cpu / (jobs * run_s) if jobs else 0.0}


def _usage():
    return (resource.getrusage(resource.RUSAGE_SELF),
            resource.getrusage(resource.RUSAGE_CHILDREN))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("plain", "traced", "setup"),
                        required=True)
    args = parser.parse_args()

    sys.path.insert(0, os.path.join(ROOT, "src"))
    import repro
    from repro.apps.templates import app_template
    from repro.experiments import runner

    import workloads

    if not os.path.abspath(repro.__file__).startswith(os.path.join(ROOT, "src")):
        raise SystemExit(f"repro imported from {repro.__file__}, not this checkout")
    spec = workloads.WORKLOADS[args.workload]
    t0 = time.perf_counter()
    app_template(spec["app"]).instantiate()
    template_build_s = time.perf_counter() - t0
    print(json.dumps({"ready": time.perf_counter()}), flush=True)
    if args.mode == "setup":
        return 0

    configs = _configs(args.workload, args.seed)
    sweep = spec["kind"] == "sweep"
    jobs = min(2, os.cpu_count() or 1) if sweep else 0
    log = uninstall = None
    if args.mode == "traced":
        import tracer
        log = tracer.SpanLog()
        uninstall = tracer.install(log)
    before = _usage()
    t0 = time.perf_counter()
    if sweep and log is not None:
        row = log.begin(log.name_id("sweep.run_sweep"))
        try:
            results = runner.run_sweep(configs, jobs=jobs)
        finally:
            log.finish(row)
    elif sweep:
        results = runner.run_sweep(configs, jobs=jobs)
    else:
        results = [runner.run_experiment(configs[0])]
    run_s = time.perf_counter() - t0
    usage = (before, _usage())
    if uninstall is not None:
        uninstall()

    out = {
        "run_s": run_s,
        "template_build_s": template_build_s,
        "peak_rss_mb": max(u.ru_maxrss for u in usage[1]) / 1024.0,
        "cells": [[r.label, r.makespan, r.cost.per_hour_total,
                   r.cost.per_second_total, r.run.n_jobs, r.run.partial]
                  for r in results],
        "tasks": sum(r.run.n_jobs for r in results),
    }
    out.update(_sweep_usage(jobs, run_s, usage))
    if log is not None:
        out["trace"] = _layer_metrics(log, results, run_s, jobs, usage)
        out["trace"]["apps.template_build_s"] = template_build_s
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
