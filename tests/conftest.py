import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(__file__))

# one line per acceptance criterion, filled in by test_acceptance.py
ACCEPTANCE_LINES: list[str] = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


@pytest.fixture(params=[None, 7], ids=["default-block", "block-7"])
def pair_block(request, monkeypatch):
    """The pair walk's block size: the default, or 7 so that walks split."""
    from apkit import gridindex

    if request.param is not None:
        monkeypatch.setattr(gridindex, "_PAIR_BLOCK", request.param)
    return gridindex._PAIR_BLOCK
