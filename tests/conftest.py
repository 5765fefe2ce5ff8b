"""Suite-wide pytest hooks: the pinned golden values.

``tests/golden_scenarios.json`` holds literal expectations — telemetry
hash-chains, makespans and costs of the golden end-to-end scenarios,
plus digests of the flow-network differential trials.  Tests compare
against it through the ``goldens`` fixture, so a change that moves a
simulated number fails even when every relative check (observed vs
bare, scalar vs vector) still agrees with itself.

``pytest --regen-goldens`` rewrites the entries of the tests it runs
from the current code and fails each of them, so a regenerated pin
always surfaces as a reviewed diff of the JSON file, never as a
silently green run.
"""

import json
from pathlib import Path

import pytest

GOLDEN_PATH = Path(__file__).with_name("golden_scenarios.json")


def pytest_addoption(parser):
    parser.addoption(
        "--regen-goldens", action="store_true", default=False,
        help="rewrite tests/golden_scenarios.json from the current code "
             "(every pinned test then fails so the diff gets reviewed)")


class Goldens:
    """Section -> key -> pinned value, loaded from the golden file."""

    def __init__(self, path: Path, regen: bool) -> None:
        self.path = path
        self.regen = regen
        self.data = json.loads(path.read_text()) if path.exists() else {}
        self.changed = False

    def check(self, section: str, key: str, value) -> None:
        """Assert ``value`` equals the pin (exactly: floats round-trip
        through JSON bit-for-bit), or record it under ``--regen-goldens``."""
        if self.regen:
            self.data.setdefault(section, {})[key] = value
            self.changed = True
            pytest.fail(f"regenerated golden {section}[{key!r}]; review the "
                        f"diff of {self.path.name} and rerun without "
                        f"--regen-goldens")
        pinned = self.data.get(section, {}).get(key)
        assert pinned is not None, (
            f"no golden {section}[{key!r}] in {self.path.name}; "
            f"run pytest --regen-goldens and review the diff")
        assert value == pinned, f"golden {section}[{key!r}] moved"

    def save(self) -> None:
        self.path.write_text(
            json.dumps(self.data, indent=1, sort_keys=True) + "\n")


@pytest.fixture(scope="session")
def goldens(request):
    pins = Goldens(GOLDEN_PATH, request.config.getoption("--regen-goldens"))
    yield pins
    if pins.changed:
        pins.save()
