import importlib.util
import time
from pathlib import Path

import pytest
from hypothesis import settings

from dunklsmooth import harness
from dunklsmooth.quad import default_grid

# property tests draw the same examples on every run, so a failure reproduces
# on rerun; each test keeps its own max_examples and deadline
settings.register_profile("reproducible", derandomize=True)
settings.load_profile("reproducible")

# Lines appended by test_acceptance, echoed after the run so each criterion
# gets one visible pass/fail line even without -s.
_acceptance_lines: list[str] = []


@pytest.fixture(scope="session")
def acceptance_log():
    return _acceptance_lines


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if _acceptance_lines:
        terminalreporter.section("acceptance criteria")
        for line in _acceptance_lines:
            terminalreporter.write_line(line)


@pytest.fixture(autouse=True)
def empty_chain_handoff():
    """Each test starts with no chain values handed on from the test before
    it, so what a chain experiment computes does not depend on test order."""
    harness._HANDOFF.clear()


@pytest.fixture(scope="session")
def golden():
    """``tests/golden/update.py``, the golden files' reader and writer."""
    spec = importlib.util.spec_from_file_location(
        "golden_update", Path(__file__).resolve().parent / "golden" / "update.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="session")
def criterion_6_reports(golden):
    """Criterion 6's equivalence and realization reports, and the seconds
    they took: criterion 6 checks their windows, the golden gate their
    values."""
    grid = default_grid()
    harness._HANDOFF.clear()
    start = time.perf_counter()
    reports = [harness.EXPERIMENTS[cfg.name](cfg, grid) for cfg in golden.criterion_6_configs()]
    return reports, time.perf_counter() - start


@pytest.fixture(scope="session")
def default_run(tmp_path_factory):
    """The reports of the built-in sweep and the directory they were
    written to."""
    out = tmp_path_factory.mktemp("default_run")
    harness._HANDOFF.clear()
    return harness.run_config(harness.parse_config(harness.default_config()), out), out
