#!/usr/bin/env python
"""Perf gate: the simulation kernel must not silently regress.

Runs the ``benchmarks/perf`` microbench suite and compares it against
the committed ``BENCH_kernel.json`` at the repo root.  Comparison uses
the *normalized* figures (bench seconds divided by a fixed spin-loop's
seconds on the same machine), so the gate is meaningful across hosts
of different speeds; ``--tolerance`` (default 0.25) absorbs the
remaining scheduling noise.

Usage::

    python scripts/perf_gate.py                  # smoke scale, check
    python scripts/perf_gate.py --scale full     # paper-scale cells
    python scripts/perf_gate.py --scale sweep    # hundreds of small cells
    python scripts/perf_gate.py --update         # rewrite the baseline

Exits 0 when within tolerance (or after ``--update``), 1 on a
regression, 2 on configuration problems.

Every run also appends one JSONL entry (timestamp, scale, normalized
figures, and the host it ran on: core count, Python, numpy, platform,
git SHA) to ``benchmarks/perf/history.jsonl`` — the longitudinal
record behind ``repro-ec2 perf-trend``.  Disable with ``--no-history``.
"""

import argparse
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]
DEFAULT_BENCH_FILE = REPO_ROOT / "BENCH_kernel.json"
DEFAULT_HISTORY_FILE = REPO_ROOT / "benchmarks" / "perf" / "history.jsonl"


def _run_suite(scale: str):
    sys.path.insert(0, str(REPO_ROOT / "benchmarks" / "perf"))
    import microbench
    return microbench.run_suite(scale)


def _host_metadata() -> dict:
    """Which host a history row came from.  A parallel figure cannot be
    read without the core count; ``git_sha`` is None outside a git
    checkout."""
    import numpy
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=REPO_ROOT, capture_output=True,
            text=True, check=True, timeout=10).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        sha = None
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "platform": platform.platform(),
            "git_sha": sha}


def _append_history(path: Path, scale: str, results: dict) -> None:
    """One history line per gate run (host wall clock is fine here —
    this is build telemetry, nowhere near the simulation kernel)."""
    entry = {
        "schema": 1,
        "ts": time.time(),  # lint: ignore[SIM001]
        "scale": scale,
        "results": {name: {"seconds": r["seconds"],
                           "normalized": r["normalized"]}
                    for name, r in sorted(results.items())
                    if name != "_calibration"},
        "calibration": results.get("_calibration"),
        "host": _host_metadata(),
    }
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("a", encoding="utf-8") as fh:
        fh.write(json.dumps(entry, sort_keys=True) + "\n")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--scale", choices=("smoke", "full", "sweep"),
                        default="smoke",
                        help="suite scale (smoke = CI-sized, "
                             "full = paper-scale cells, "
                             "sweep = hundreds of small cells through "
                             "run_sweep)")
    parser.add_argument("--tolerance", type=float, default=0.25,
                        help="allowed fractional slowdown per bench "
                             "before the gate fails (default 0.25)")
    parser.add_argument("--update", action="store_true",
                        help="rewrite this scale's baseline instead of "
                             "checking against it")
    parser.add_argument("--file", type=Path, default=DEFAULT_BENCH_FILE,
                        help="baseline JSON path (default BENCH_kernel.json "
                             "at the repo root)")
    parser.add_argument("--history", type=Path,
                        default=DEFAULT_HISTORY_FILE,
                        help="JSONL perf-history file to append to "
                             "(default benchmarks/perf/history.jsonl)")
    parser.add_argument("--no-history", action="store_true",
                        help="do not append this run to the history")
    args = parser.parse_args()
    if args.tolerance < 0:
        print("error: --tolerance must be >= 0", file=sys.stderr)
        return 2

    current = _run_suite(args.scale)
    if not args.no_history:
        _append_history(args.history, args.scale, current)
        print(f"appended history entry to {args.history}", file=sys.stderr)

    data = {}
    if args.file.exists():
        try:
            data = json.loads(args.file.read_text())
        except (OSError, ValueError) as exc:
            print(f"error: unreadable baseline {args.file}: {exc}",
                  file=sys.stderr)
            return 2
    data.setdefault("schema", 1)
    data.setdefault(
        "description",
        "Simulation-kernel benchmark baseline; normalized = bench "
        "seconds / calibration spin-loop seconds on the same machine "
        "(machine-independent).  Maintained by scripts/perf_gate.py.")
    scales = data.setdefault("scales", {})
    baseline = scales.get(args.scale)

    header = f"{'bench':<28}{'seconds':>10}{'norm':>9}{'baseline':>10}{'delta':>8}"
    print(f"perf suite @ {args.scale}")
    print(header)
    print("-" * len(header))
    failures = []
    for name in sorted(current):
        cur = current[name]
        base_norm = None
        if baseline is not None and name in baseline:
            base_norm = baseline[name]["normalized"]
        delta = ""
        if base_norm:
            ratio = cur["normalized"] / base_norm - 1.0
            delta = f"{ratio:+7.1%}"
            if name != "_calibration" and ratio > args.tolerance:
                failures.append((name, ratio))
        print(f"{name:<28}{cur['seconds']:>10.4f}{cur['normalized']:>9.2f}"
              f"{base_norm if base_norm is not None else float('nan'):>10.2f}"
              f"{delta:>8}")

    if args.update or baseline is None:
        scales[args.scale] = current
        args.file.write_text(json.dumps(data, indent=1, sort_keys=True)
                             + "\n")
        action = "updated" if baseline is not None else "created"
        print(f"\n{action} {args.file} [{args.scale}]")
        return 0

    if failures:
        print(f"\nperf gate FAILED (tolerance {args.tolerance:.0%}):")
        for name, ratio in failures:
            print(f"  {name}: {ratio:+.1%} vs baseline")
        return 1
    print(f"\nperf gate passed (tolerance {args.tolerance:.0%})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
