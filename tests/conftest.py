import sys

import pytest

from diffuniq.operator import Coefficient


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    lines = []
    for name, mod in list(sys.modules.items()):
        if name.rpartition(".")[2] == "test_acceptance":
            lines = getattr(mod, "LINES", [])
            if lines:
                break
    if lines:
        terminalreporter.section("acceptance criteria")
        for line in lines:
            terminalreporter.write_line(line)


@pytest.fixture
def evaluation_counts(monkeypatch):
    """The count of checked array passes of every coefficient made during
    the test."""
    counts = {"passes": 0}
    check = Coefficient.check

    def counted_check(self, xs):
        counts["passes"] += 1
        return check(self, xs)
    monkeypatch.setattr(Coefficient, "check", counted_check)
    return counts
