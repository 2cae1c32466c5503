"""``reproduce-paper`` in forked worker processes: same files, no stray workers."""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from evl_lab import cli

#: every test here runs the worker pool, which forks, on Linux only
pytestmark = pytest.mark.skipif(not hasattr(os, "sched_getaffinity"), reason="needs Linux")


@pytest.fixture(autouse=True)
def two_cpus(monkeypatch):
    """Two workers, also on a one-CPU host."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})


def _no_children():
    """No worker is left, reaped or not: any child process counts."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _tree(root):
    """{relative path: contents}, provenance without its wall time and output directory."""
    files = {}
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        data = path.read_bytes()
        if path.name == "provenance.json":
            prov = json.loads(data)
            del prov["wall_time_s"], prov["config"]["out"]
            data = prov
        files[str(path.relative_to(root))] = data
    return files


@pytest.mark.parametrize("seed", [7, 8])
def test_pool_writes_the_files_of_in_process_runs(tmp_path, seed):
    cli.run_reproduce_paper(tmp_path / "pool", seed, "quick")
    _no_children()
    for name, sub in cli.reproduce_paper_configs("quick").items():
        cli.run_experiment({**sub, "seed": seed, "out": str(tmp_path / "serial" / name)})
    pool, serial = _tree(tmp_path / "pool"), _tree(tmp_path / "serial")
    assert len(pool) == 28
    assert pool == serial


def _raise(message):
    def runner(cfg):
        raise ValueError(message)

    return runner


def test_failing_experiment_exits_1_with_its_error_line(tmp_path, monkeypatch):
    monkeypatch.setitem(cli._RUNNERS, "symbolic", _raise("boom"))  # forked workers inherit it
    out = tmp_path / "r"
    assert cli.main(["reproduce-paper", "--profile", "quick", "--seed", "7", "--out", str(out)]) == 1
    assert (out / "results.csv").read_text(encoding="utf-8") == "error\nboom\n"
    _no_children()
    assert (out / "dichotomy_champernowne" / "results.csv").exists()


def test_failure_cancels_pending_experiments(tmp_path, monkeypatch):
    monkeypatch.setitem(cli._RUNNERS, "estimate-ei", _raise("no estimates"))
    with pytest.raises(ValueError, match="no estimates"):
        cli.run_reproduce_paper(tmp_path, 7, "quick")
    _no_children()
    # the two workers took the first two experiments and nothing after them: no
    # later experiment (the first that writes here is hts_doubling) made its directory
    assert list(tmp_path.iterdir()) == []


def test_first_failure_in_config_order_is_raised(tmp_path, monkeypatch):
    # dichotomy (the 12th experiment) fails only after symbolic (the 13th)
    # has failed on the other worker
    marker = tmp_path / "symbolic-failed"

    def symbolic(cfg):
        marker.touch()
        raise ValueError("late in config order")

    def dichotomy(cfg):
        deadline = time.monotonic() + 30.0
        while not marker.exists():
            if time.monotonic() > deadline:
                raise ValueError("symbolic did not run beside dichotomy")
            time.sleep(0.01)
        raise ValueError("early in config order")

    monkeypatch.setitem(cli._RUNNERS, "symbolic", symbolic)
    monkeypatch.setitem(cli._RUNNERS, "dichotomy", dichotomy)
    with pytest.raises(ValueError, match="^early in config order$"):
        cli.run_reproduce_paper(tmp_path / "r", 7, "quick")
    assert marker.exists()
    _no_children()


def test_dead_worker_is_an_error_not_a_hang(tmp_path, monkeypatch):
    monkeypatch.setitem(cli._RUNNERS, "symbolic", lambda cfg: os._exit(3))
    out = tmp_path / "r"
    assert cli.main(["reproduce-paper", "--profile", "quick", "--seed", "7", "--out", str(out)]) == 1
    assert (out / "results.csv").read_text(encoding="utf-8").startswith("error\n")
    _no_children()


def test_importing_the_cli_leaves_the_worker_modules_unloaded(tmp_path):
    # importing these modules costs tens of milliseconds that every command
    # would pay, and the pool of processes._fork_map needs neither of them
    src = str(Path(cli.__file__).resolve().parents[1])
    loaded = "print(sorted(m for m in ('multiprocessing', 'concurrent.futures') if m in sys.modules))"
    code = (
        f"import os, sys, evl_lab.cli; {loaded}; "
        "os.sched_getaffinity = lambda pid: {0, 1}; "
        f"evl_lab.cli.run_reproduce_paper({str(tmp_path)!r}, 7, 'quick'); {loaded}"
    )
    env = {**os.environ, "PYTHONPATH": src}
    got = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert got.stdout.split() == ["[]", "[]"]
