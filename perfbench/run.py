"""Benchmark of the EC2 data-sharing simulator: one workload, one run.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload montage_nfs4 --seed 0 --seconds 30 --trace 0

Every repetition runs in a fresh interpreter (``cell.py``).  With
``--trace 0`` the workload is repeated until ``--seconds`` have passed
(at least three times) and the medians of the end-to-end metrics are
reported.  With ``--trace 1`` it runs once untraced and twice with the
layer wrappers of ``tracer.py``, and the per-layer metrics are
reported.  Every cell's outputs are checked against ``workloads.py``.
The last line of standard output is one JSON object; the lines before
it are a readable report, also written to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
CELL = os.path.join(HERE, "cell.py")
OUT_DIR = os.path.join(HERE, "out")

#: Fewest timed repetitions and set-up samples behind one median.
MIN_REPS = 3
MIN_SETUPS = 12
#: Wall-clock limit of one child interpreter, seconds.
CHILD_TIMEOUT = 170

#: Counts two traced runs must reproduce exactly.
EXACT_SUFFIXES = (".processes", ".resumes", ".transfers", ".flushes",
                  ".submits", ".records", ".requests", ".reads", ".writes",
                  ".disk_ops", ".net_transfers", "workflow.jobs", "trace.spans")


def metric_units(kind: str) -> dict:
    """Name -> unit of the ``end_to_end`` or ``per_layer`` metrics that
    ``BENCHMARK.json`` declares."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return {m["name"]: m["unit"] for m in json.load(f)[kind]}


def host_metadata(seed: int) -> dict:
    """Where a number came from: host, interpreter and source revision."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=10)
        git_sha = sha.stdout.strip() if sha.returncode == 0 else None
    except (OSError, subprocess.TimeoutExpired):
        git_sha = None
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src", "repro")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames.sort()
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, src).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    import numpy
    return {"nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "platform": platform.platform(),
            "git_sha": git_sha, "src_sha256": digest.hexdigest()[:16],
            "seed": seed}


def spawn(workload: str, seed: int, mode: str) -> dict:
    """Run one repetition in a fresh interpreter; returns its result.

    ``setup_s`` is measured from just before the interpreter starts to
    the moment it reports set-up done (both ends read the system-wide
    monotonic clock).  A failed repetition has an ``error`` key.
    """
    cmd = [sys.executable, CELL, "--workload", workload, "--seed", str(seed),
           "--mode", mode]
    t0 = time.perf_counter()
    # A session of its own, so a timeout also stops the pool workers.
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        stdout, stderr = proc.communicate(timeout=CHILD_TIMEOUT)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        return {"error": f"{mode} repetition exceeded {CHILD_TIMEOUT} s"}
    lines = stdout.splitlines()
    result: dict = {}
    try:
        result["setup_s"] = json.loads(lines[0])["ready"] - t0
        if mode != "setup":
            result.update(json.loads(lines[-1]))
    except (IndexError, ValueError, KeyError):
        pass
    if proc.returncode != 0 or (mode != "setup" and "cells" not in result):
        tail = stderr.strip().splitlines()[-1:] or [f"exit {proc.returncode}"]
        result["error"] = f"{mode} repetition failed: {tail[0]}"
    return result


def check(workload: str, seed: int, reps: list, problems: list) -> tuple:
    """Count attempted and failed cells over all repetitions.

    Besides reproducing its expected output, every cell must agree
    exactly with the same cell of the first repetition (same seed, same
    inputs).
    """
    n = workloads.n_cells(workload)
    first = next((r["cells"] for r in reps if "cells" in r), None)
    failed = 0
    for rep in reps:
        if "error" in rep:
            failed += n
            problems.append(rep["error"])
            continue
        bad = workloads.failed_cells(workload, seed, rep["cells"])
        for i, (got, want) in enumerate(zip(rep["cells"], first)):
            if got != want:
                bad.setdefault(i, f"{got[0]} differs between repetitions")
        failed += len(bad)
        problems.extend(bad.values())
    return n * len(reps), failed


def quartiles(values: list) -> str:
    if len(values) < 2:
        return f"n={len(values)}"
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (f"n={len(values)} q1={q1:.4f} median={q2:.4f} q3={q3:.4f} "
            f"min={min(values):.4f} max={max(values):.4f}")


def untraced(workload: str, seed: int, seconds: float, report: list) -> tuple:
    reps = []
    t0 = time.perf_counter()
    while len(reps) < MIN_REPS or time.perf_counter() - t0 < seconds:
        reps.append(spawn(workload, seed, "plain"))
    setups = [r["setup_s"] for r in reps if "setup_s" in r]
    while len(setups) < MIN_SETUPS:
        probe = spawn(workload, seed, "setup")
        if "setup_s" not in probe:
            reps.append(probe)
            break
        setups.append(probe["setup_s"])
    ok = [r for r in reps if "error" not in r]
    samples = {"setup_s": setups, "run_s": [r["run_s"] for r in ok],
               "peak_rss_mb": [r["peak_rss_mb"] for r in ok]}
    units = metric_units("end_to_end")
    metrics = {name: {"value": statistics.median(samples[name]) if samples[name]
                      else 0.0, "unit": unit} for name, unit in units.items()}
    for name, values in samples.items():
        report.append(f"{name} ({units[name]}): {quartiles(values)}")
    for key in ("sweep.parent_cpu_s", "sweep.worker_cpu_s", "sweep.pool_utilization"):
        values = [r[key] for r in ok]
        if values:
            report.append(f"{key}: median={statistics.median(values):.4f}")
    return reps, metrics


def traced(workload: str, seed: int, report: list, problems: list) -> tuple:
    plain = spawn(workload, seed, "plain")
    runs = [spawn(workload, seed, "traced") for _ in range(2)]
    reps = [plain] + runs
    units = metric_units("per_layer")
    if any("error" in r for r in reps):
        return reps, {name: {"value": 0.0, "unit": unit}
                      for name, unit in units.items()}
    t1, t2 = (r["trace"] for r in runs)
    for key in sorted(t1):
        if key.endswith(EXACT_SUFFIXES) and t1[key] != t2[key]:
            problems.append(f"count {key} differs between traced runs: "
                            f"{t1[key]} vs {t2[key]}")
    values = {key: (t1[key] + t2[key]) / 2 for key in units if key in t1}
    for t in (t1, t2):
        total = sum(t[key] for key in t if key.endswith(".self_s"))
        if abs(total - t["trace.busy_s"]) > 1e-6 * t["trace.busy_s"]:
            problems.append(f"layer self times sum to {total}, spans cover "
                            f"{t['trace.busy_s']}")
    values["trace.overhead"] = values["trace.run_s"] / plain["run_s"] - 1
    report.append(f"untraced run_s: {plain['run_s']:.4f} s, traced run_s: "
                  f"{runs[0]['run_s']:.4f} s and {runs[1]['run_s']:.4f} s")
    return reps, {name: {"value": values[name], "unit": unit}
                  for name, unit in units.items() if name in values}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print(f"error: no repro sources in {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2

    meta = host_metadata(args.seed)
    report = [f"workload {args.workload} seed {args.seed} trace {args.trace}",
              "host " + json.dumps(meta)]
    problems: list = []
    if args.trace:
        reps, metrics = traced(args.workload, args.seed, report, problems)
    else:
        reps, metrics = untraced(args.workload, args.seed, args.seconds, report)
    attempted, failed = check(args.workload, args.seed, reps, problems)
    if args.trace:
        metrics["error_rate"] = {"value": failed / attempted, "unit": "fraction"}
    ok = next((r for r in reps if "cells" in r), {})
    report.append(f"input: {len(ok.get('cells', []))} cells, {ok.get('tasks', 0)} "
                  f"tasks per repetition; {len(reps)} repetitions")
    report.append(f"cells attempted {attempted}, failed {failed}, "
                  f"error_rate {failed / attempted:.4f}")
    report.extend(f"problem: {p}" for p in problems[:20])
    report.extend(f"{name} = {m['value']!r} {m['unit']}" for name, m in metrics.items())
    result = {"correct": failed == 0 and not problems, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, f"{args.workload}-trace{args.trace}.json")
    with open(path, "w") as f:
        json.dump({"host": meta, "args": vars(args), "result": result,
                   "repetitions": [{k: v for k, v in r.items() if k != "cells"}
                                   for r in reps]}, f, indent=1)
    print("\n".join(report))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
