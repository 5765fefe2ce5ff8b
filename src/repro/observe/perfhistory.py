"""Perf-gate history: load and trend benchmarks/perf/history.jsonl.

``scripts/perf_gate.py`` appends one JSONL entry per run — timestamp,
scale, the normalized figure for every microbenchmark, and the host it
ran on (``host``: nproc, Python, numpy, platform, git SHA) — so the
repository accumulates a longitudinal record of kernel performance.
Rows written before ``host`` existed carry none and still parse.
``repro-ec2 perf-trend`` renders that record as a per-benchmark trend
table via :func:`format_trend`.

Normalized figures (seconds scaled by the machine calibration factor)
are the comparable series; raw seconds are machine-dependent noise.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List

#: Bump when the history entry layout changes.
HISTORY_SCHEMA_VERSION = 1


def load_history(path: str) -> List[Dict[str, Any]]:
    """Parsed history entries in file (chronological) order.

    Unparsable lines are skipped rather than fatal: the history file is
    append-only across many machines/branches and a torn write must not
    brick the trend report.
    """
    entries: List[Dict[str, Any]] = []
    try:
        with open(path, encoding="utf-8") as fh:
            for line in fh:
                line = line.strip()
                if not line:
                    continue
                try:
                    entry = json.loads(line)
                except ValueError:
                    continue
                if isinstance(entry, dict) and "results" in entry:
                    entries.append(entry)
    except OSError:
        return []
    return entries


def trend_rows(entries: List[Dict[str, Any]],
               scale: str = "") -> List[Dict[str, Any]]:
    """Per-benchmark trend across entries (optionally one scale only).

    Each row: name, n (number of samples), first/last/best normalized
    figure, delta_pct of last vs first (negative = got faster), and the
    core count of the host behind the last sample (``nproc``; None for
    rows that predate host metadata).
    """
    if scale:
        entries = [e for e in entries if e.get("scale") == scale]
    series: Dict[str, List[float]] = {}
    last_nproc: Dict[str, Any] = {}
    for entry in entries:
        host = entry.get("host")
        nproc = host.get("nproc") if isinstance(host, dict) else None
        for name, result in sorted(entry.get("results", {}).items()):
            value = result.get("normalized")
            if isinstance(value, (int, float)):
                series.setdefault(name, []).append(float(value))
                last_nproc[name] = nproc
    rows: List[Dict[str, Any]] = []
    for name in sorted(series):
        values = series[name]
        first, last = values[0], values[-1]
        delta = (last - first) / first * 100.0 if first else 0.0
        rows.append({"name": name, "n": len(values), "first": first,
                     "last": last, "best": min(values),
                     "delta_pct": delta, "nproc": last_nproc[name]})
    return rows


def format_trend(entries: List[Dict[str, Any]],
                 scale: str = "") -> str:
    """The ``repro-ec2 perf-trend`` table."""
    rows = trend_rows(entries, scale=scale)
    if not rows:
        return "no perf history entries" + (
            f" for scale {scale!r}" if scale else "") + "\n"
    header = (f"{'benchmark':<32} {'runs':>4} {'first':>10} "
              f"{'last':>10} {'best':>10} {'delta':>8} {'nproc':>5}")
    lines = [header, "-" * len(header)]
    for row in rows:
        nproc = "?" if row["nproc"] is None else row["nproc"]
        lines.append(
            f"{row['name']:<32} {row['n']:>4} {row['first']:>10.4f} "
            f"{row['last']:>10.4f} {row['best']:>10.4f} "
            f"{row['delta_pct']:>+7.1f}% {nproc:>5}")
    return "\n".join(lines) + "\n"
