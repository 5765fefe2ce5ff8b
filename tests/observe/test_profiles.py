"""cProfile capture/merge and perf-history trend reporting."""

import json
from pathlib import Path

from repro.observe.perfhistory import (
    format_trend,
    load_history,
    trend_rows,
)
from repro.observe.profiles import (
    capture_profile,
    hotspot_report,
    merge_stats,
)


def _busy_work(n=200):
    return sum(i * i for i in range(n))


class TestProfiles:
    def test_capture_appends_table(self):
        sink = []
        with capture_profile(sink):
            _busy_work()
        assert len(sink) == 1
        assert isinstance(sink[0], dict) and sink[0]

    def test_capture_appends_even_on_error(self):
        sink = []
        try:
            with capture_profile(sink):
                raise RuntimeError("boom")
        except RuntimeError:
            pass
        assert len(sink) == 1

    def test_tables_survive_pickle_and_merge(self):
        import pickle
        sink = []
        for _ in range(2):
            with capture_profile(sink):
                _busy_work()
        tables = [pickle.loads(pickle.dumps(t)) for t in sink]
        merged = merge_stats(tables)
        assert merged is not None
        assert merged.total_calls >= sum(
            pstats_calls(t) for t in tables) // 2

    def test_merge_empty(self):
        assert merge_stats([]) is None

    def test_hotspot_report(self):
        sink = []
        with capture_profile(sink):
            _busy_work()
        report = hotspot_report(sink, top=5)
        assert "cumulative" in report
        assert "_busy_work" in report

    def test_hotspot_report_empty(self):
        assert hotspot_report([]) == "no profile data captured\n"


def pstats_calls(table):
    # Each value is (cc, nc, tt, ct, callers); nc is the call count.
    return sum(v[1] for v in table.values())


def _history_file(tmp_path, entries):
    path = tmp_path / "history.jsonl"
    path.write_text("".join(json.dumps(e) + "\n" for e in entries))
    return str(path)


def _entry(scale, **norms):
    return {"schema": 1, "ts": 0.0, "scale": scale,
            "results": {name: {"seconds": v * 2, "normalized": v}
                        for name, v in norms.items()}}


class TestPerfHistory:
    def test_load_skips_torn_lines(self, tmp_path):
        path = tmp_path / "history.jsonl"
        path.write_text(json.dumps(_entry("smoke", bench=1.0)) + "\n"
                        "{torn line\n"
                        "\n"
                        + json.dumps({"no_results": True}) + "\n"
                        + json.dumps(_entry("smoke", bench=2.0)) + "\n")
        entries = load_history(str(path))
        assert len(entries) == 2

    def test_load_missing_file(self, tmp_path):
        assert load_history(str(tmp_path / "absent.jsonl")) == []

    def test_trend_rows(self, tmp_path):
        path = _history_file(tmp_path, [
            _entry("smoke", event_loop=2.0, dag_build=1.0),
            _entry("smoke", event_loop=1.0, dag_build=1.5),
            _entry("full", event_loop=9.0),
        ])
        rows = trend_rows(load_history(path), scale="smoke")
        by_name = {r["name"]: r for r in rows}
        assert set(by_name) == {"event_loop", "dag_build"}
        ev = by_name["event_loop"]
        assert (ev["n"], ev["first"], ev["last"], ev["best"]) == \
            (2, 2.0, 1.0, 1.0)
        assert ev["delta_pct"] == -50.0

    def test_trend_all_scales_when_unfiltered(self, tmp_path):
        path = _history_file(tmp_path, [
            _entry("smoke", bench=1.0), _entry("full", bench=3.0)])
        rows = trend_rows(load_history(path))
        assert rows[0]["n"] == 2

    def test_format_trend_table(self, tmp_path):
        path = _history_file(tmp_path, [
            _entry("smoke", event_loop=2.0),
            _entry("smoke", event_loop=1.0),
        ])
        text = format_trend(load_history(path), scale="smoke")
        assert "event_loop" in text
        assert "-50.0%" in text

    def test_format_trend_empty(self):
        assert format_trend([], scale="nope").startswith(
            "no perf history entries")

    def test_sweep_scale_rows_coexist_with_old_entries(self, tmp_path):
        # The sweep tier added new benchmark names and a new scale
        # string to history.jsonl; rows written before it (same
        # schema, smoke/full scales only) must keep parsing and
        # trending unchanged alongside the new ones.
        old_row = json.dumps(_entry("smoke", event_loop=1.1,
                                    flownet_kernel=0.2))
        sweep_row = json.dumps(_entry("sweep", sweep_240_serial=23.8,
                                      sweep_240_jobs4=35.3,
                                      flownet_dense=1.4))
        path = tmp_path / "history.jsonl"
        path.write_text(old_row + "\n" + sweep_row + "\n")

        entries = load_history(str(path))
        assert len(entries) == 2
        smoke = {r["name"] for r in trend_rows(entries, scale="smoke")}
        assert smoke == {"event_loop", "flownet_kernel"}
        sweep = {r["name"] for r in trend_rows(entries, scale="sweep")}
        assert sweep == {"sweep_240_serial", "sweep_240_jobs4",
                         "flownet_dense"}
        # Unfiltered trending sees disjoint series, never a crash.
        assert {r["name"] for r in trend_rows(entries)} == smoke | sweep

    def test_host_metadata_rows_coexist_with_old_entries(self, tmp_path):
        # Rows gained a "host" block (nproc, Python, numpy, platform,
        # git SHA); rows written before it still parse and trend, and
        # perf-trend shows the core count behind each last sample.
        old_row = _entry("sweep", sweep_240_jobs4=35.3, flownet_dense=1.4)
        new_row = dict(_entry("sweep", sweep_240_jobs4=30.0),
                       host={"nproc": 2, "python": "3.11.7",
                             "numpy": "2.4.6", "platform": "Linux",
                             "git_sha": "0" * 40})
        path = _history_file(tmp_path, [old_row, new_row])
        entries = load_history(path)
        assert len(entries) == 2
        rows = {r["name"]: r for r in trend_rows(entries, scale="sweep")}
        assert rows["sweep_240_jobs4"]["n"] == 2
        assert rows["sweep_240_jobs4"]["nproc"] == 2
        assert rows["flownet_dense"]["nproc"] is None
        lines = format_trend(entries, scale="sweep").splitlines()
        assert lines[0].split()[-1] == "nproc"
        by_name = {line.split()[0]: line.split()[-1] for line in lines[2:]}
        assert by_name == {"sweep_240_jobs4": "2", "flownet_dense": "?"}

    def test_repo_history_file_parses_every_row(self):
        # The committed history must never contain a row the loader
        # drops: all appended entries (including pre-sweep ones) carry
        # schema 1 and a results dict.
        path = Path(__file__).resolve().parents[2] \
            / "benchmarks" / "perf" / "history.jsonl"
        raw = [line for line in path.read_text().splitlines()
               if line.strip()]
        entries = load_history(str(path))
        assert len(entries) == len(raw)
        assert {e["schema"] for e in entries} == {1}
        assert {e["scale"] for e in entries} >= {"smoke", "sweep"}
