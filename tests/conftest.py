import json
import re

import pytest

from tests.oracles import ks_against


@pytest.fixture
def ks():
    return ks_against


# -- acceptance scoreboard ---------------------------------------------------

#: one scoreboard line as ``test_acceptance._report`` prints it
SCOREBOARD_LINE = re.compile(r"^\[(criterion-\d+)\] (PASS|FAIL): (.*)$", re.MULTILINE)


def pytest_addoption(parser):
    parser.addoption(
        "--scoreboard",
        metavar="PATH",
        help="write the [criterion-N] PASS/FAIL lines of the captured output to PATH as JSON "
        "(spell it --scoreboard=PATH: a bare PATH outside the repo is taken for a test path)",
    )


class Scoreboard:
    """Collects the scoreboard lines each test printed (they are read from
    the captured output, so a ``-s`` run collects none) and writes them as
    JSON at the end of the session."""

    def __init__(self, path):
        self.path = path
        self.lines = []

    def pytest_runtest_logreport(self, report):
        if report.when == "call":
            for criterion, status, detail in SCOREBOARD_LINE.findall(report.capstdout):
                self.lines.append(
                    {"test": report.nodeid, "criterion": criterion, "status": status, "detail": detail}
                )

    def pytest_sessionfinish(self):
        counts = {s: sum(x["status"] == s for x in self.lines) for s in ("PASS", "FAIL")}
        with open(self.path, "w", encoding="utf-8") as f:
            json.dump({**counts, "lines": self.lines}, f, indent=2)
            f.write("\n")


def pytest_configure(config):
    path = config.getoption("--scoreboard")
    if path:
        config.pluginmanager.register(Scoreboard(path), "scoreboard")
