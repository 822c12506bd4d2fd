"""Shared pytest hooks and fixtures for the test suite."""

import sys

import pytest

from chiral_qfim import experiments


@pytest.fixture
def fresh_input_states():
    """Empty ``prepare_input_state``'s cache before and after the test, so a
    test that counts or patches the state builders sees them run whatever
    ran before it, and leaves no state they built behind."""
    experiments.prepare_input_state.cache_clear()
    yield
    experiments.prepare_input_state.cache_clear()


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """Echo the acceptance verdict lines after capture is torn down.

    The default file-descriptor capture swallows in-test prints for passing
    tests, so the acceptance module records its one-line verdicts and this
    hook replays them where they are always visible.
    """
    module = sys.modules.get("test_acceptance")
    lines = getattr(module, "VERDICTS", None) if module else None
    if not lines:
        return
    terminalreporter.section("acceptance verdicts")
    for line in lines:
        terminalreporter.write_line(line)
