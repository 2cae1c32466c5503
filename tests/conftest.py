import json
import re

import numpy as np
import pytest

from evl_lab.processes import PathEngine


def ks_against(values, cdf):
    """One-sample Kolmogorov-Smirnov distance of `values` against `cdf`."""
    x = np.sort(np.asarray(values, dtype=np.float64))
    n = x.size
    fx = np.asarray(cdf(x), dtype=np.float64)
    return float(
        max(
            np.abs(np.arange(1, n + 1) / n - fx).max(),
            np.abs(np.arange(0, n) / n - fx).max(),
        )
    )


def dense_mask_chunks(ens, event, extra=0, chunk=256):
    """(trial ids, dense (trials, length + extra) exceedance mask) per chunk of
    ``chunk`` trials, each from one whole-horizon engine sweep: the plain
    reference of the keys that ``Ensemble.mask_chunks`` builds window by window."""
    L = ens.length + extra
    for lo in range(0, ens.trials, chunk):
        ids = np.arange(lo, min(lo + chunk, ens.trials), dtype=np.uint64)
        yield ids, PathEngine(ens.spec, ens.seed, ids).masks(0, L, event)


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
