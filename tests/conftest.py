import pytest
from hypothesis import settings

from dunklsmooth import harness

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
