"""Per-rule fixture tests: every SIMxxx rule fires on its known-bad
fixture and stays quiet on the known-good one."""

from pathlib import Path

import pytest

from repro.lint import RULES, Severity, lint_source

FIXTURES = Path(__file__).parent / "fixtures"

#: rule id -> (fixture stem, virtual path the fixture is linted under,
#: expected finding count in the bad fixture).  Scoped rules (SIM003,
#: SIM005, SIM008) need a scheduling-path filename to activate; the
#: thread-safety rules (SIM010-SIM014) need a threaded-package one.
CASES = {
    "SIM001": ("sim001", "repro/experiments/runner.py", 2),
    "SIM002": ("sim002", "repro/experiments/runner.py", 2),
    "SIM003": ("sim003", "repro/workflow/scheduler.py", 2),
    "SIM004": ("sim004", "repro/simcore/clock.py", 1),
    "SIM005": ("sim005", "repro/workflow/slots.py", 1),
    "SIM006": ("sim006", "repro/telemetry/collect.py", 2),
    "SIM007": ("sim007", "repro/workflow/driver.py", 2),
    "SIM008": ("sim008", "repro/workflow/scheduler.py", 6),
    "SIM009": ("sim009", "repro/simcore/kernel.py", 7),
    "SIM010": ("sim010", "repro/service/store.py", 3),
    "SIM011": ("sim011", "repro/service/worker.py", 3),
    "SIM012": ("sim012", "repro/observe/monitor.py", 2),
    "SIM013": ("sim013", "repro/service/api.py", 2),
    "SIM014": ("sim014", "repro/service/worker.py", 3),
    "SIM015": ("sim015", "repro/simcore/fastnet.py", 3),
}


def _lint_fixture(stem: str, suffix: str, path: str, rule_id: str):
    source = (FIXTURES / f"{stem}_{suffix}.py").read_text()
    return lint_source(source, path=path, select=[rule_id])


@pytest.mark.parametrize("rule_id", sorted(CASES))
def test_bad_fixture_fires(rule_id):
    stem, path, expected = CASES[rule_id]
    findings = _lint_fixture(stem, "bad", path, rule_id)
    assert len(findings) == expected, [f.format() for f in findings]
    assert all(f.rule_id == rule_id for f in findings)
    assert all(not f.suppressed for f in findings)
    assert all(f.line > 0 for f in findings)


@pytest.mark.parametrize("rule_id", sorted(CASES))
def test_good_fixture_quiet(rule_id):
    stem, path, _ = CASES[rule_id]
    findings = _lint_fixture(stem, "good", path, rule_id)
    assert findings == [], [f.format() for f in findings]


def test_every_rule_has_a_case():
    assert sorted(CASES) == sorted(RULES)


def test_cases_match_fixture_files():
    # The fixture directory is the source of truth: every sim*_bad.py /
    # sim*_good.py pair must be wired into CASES and vice versa, so a
    # new rule cannot land half-tested.
    stems = {p.name.rsplit("_", 1)[0]
             for p in FIXTURES.glob("sim*_*.py")}
    assert stems == {stem for stem, _, _ in CASES.values()}
    for stem, _, _ in CASES.values():
        assert (FIXTURES / f"{stem}_bad.py").is_file()
        assert (FIXTURES / f"{stem}_good.py").is_file()


@pytest.mark.parametrize("rule_id,path", [
    ("SIM003", "repro/telemetry/collect.py"),
    ("SIM005", "repro/apps/montage.py"),
    ("SIM009", "repro/experiments/runner.py"),
    ("SIM015", "repro/experiments/runner.py"),
])
def test_scoped_rules_inactive_off_scheduling_path(rule_id, path):
    stem, _, _ = CASES[rule_id]
    source = (FIXTURES / f"{stem}_bad.py").read_text()
    assert lint_source(source, path=path, select=[rule_id]) == []


@pytest.mark.parametrize("rule_id", ["SIM010", "SIM011", "SIM012",
                                     "SIM013", "SIM014"])
def test_thread_rules_inactive_outside_threaded_packages(rule_id):
    # The kernel is single-threaded by contract; the thread-safety
    # rules must stay silent there even on their own bad fixtures.
    stem, _, _ = CASES[rule_id]
    source = (FIXTURES / f"{stem}_bad.py").read_text()
    assert lint_source(source, path="repro/simcore/kernel.py",
                       select=[rule_id]) == []


def test_sim012_guard_annotation_is_not_a_suppression():
    # guarded-by documents the lock; it must not count as an inline
    # ignore directive anywhere in the reporting.
    source = "registry = {}  # lint: guarded-by[_lock]\n"
    findings = lint_source(source, path="repro/service/api.py",
                           select=["SIM012"])
    assert findings == []
    from repro.lint import SuppressionMap
    supp = SuppressionMap(source)
    assert supp.n_directives == 0
    assert supp.guard_at(1) == "_lock"
    assert supp.guard_at(2) is None


def test_sim008_allowed_inside_kernel():
    source = (FIXTURES / "sim008_bad.py").read_text()
    findings = lint_source(source, path="repro/simcore/engine.py",
                           select=["SIM008"])
    assert findings == []


def test_sim008_flags_the_due_now_lane():
    source = ("def kick(env, stage, event):\n"
              "    env._due.append(event)\n"
              "    stage.env._due.append(event)\n"
              "    Stage(env, kick)\n")
    findings = lint_source(source, path="repro/cloud/disk.py",
                           select=["SIM008"])
    assert [f.line for f in findings] == [2, 3]
    assert all("due-now lane" in f.message for f in findings)
    assert lint_source(source, path="repro/simcore/events.py",
                       select=["SIM008"]) == []


def test_sim008_keeps_the_timer_inside_the_kernel():
    source = ("def wake(self):\n"
              "    self.env._timer(1.0, self._on_wake)\n")
    findings = lint_source(source, path="repro/cloud/disk.py",
                           select=["SIM008"])
    assert [f.line for f in findings] == [2]
    assert "Stage.sleep" in findings[0].message
    assert lint_source(source, path="repro/simcore/pipes.py",
                       select=["SIM008"]) == []


def test_sim001_exempts_host_observe_package():
    # repro/observe is the sanctioned wall-clock location; SIM001 must
    # not fire there, without any inline suppressions.
    source = (FIXTURES / "sim001_bad.py").read_text()
    findings = lint_source(source, path="repro/observe/hostclock.py",
                           select=["SIM001"])
    assert findings == []


def test_sim009_counts_dotted_chain_once():
    source = ("from repro.observe import hostclock\n"
              "t = hostclock.wall_now()\n")
    findings = lint_source(source, path="repro/storage/s3.py",
                           select=["SIM009"])
    # One finding for the import, one for the (whole) call chain.
    assert len(findings) == 2


def test_src_layout_paths_canonicalised():
    # The same fixture must activate scoped rules whether linted as
    # repro/... or src/repro/... (checkout layout).
    source = (FIXTURES / "sim003_bad.py").read_text()
    findings = lint_source(source, path="src/repro/workflow/scheduler.py",
                           select=["SIM003"])
    assert len(findings) == 2


def test_severities():
    assert RULES["SIM001"].severity is Severity.ERROR
    assert RULES["SIM004"].severity is Severity.WARNING
    assert RULES["SIM007"].severity is Severity.WARNING


def test_finding_format_and_dict():
    stem, path, _ = CASES["SIM006"]
    finding = _lint_fixture(stem, "bad", path, "SIM006")[0]
    text = finding.format()
    assert "SIM006" in text and path in text
    d = finding.to_dict()
    assert d["rule"] == "SIM006"
    assert d["path"] == path
    assert d["severity"] == "error"
