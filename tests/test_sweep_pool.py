"""Large sweeps in the forked worker pool: the same results on 1, 2 and 3
CPUs, named errors, no stray workers, and one pool level."""

import os
import signal
import time

import numpy as np
import pytest

from evl_lab import cli, hts_rts, processes, rng
from evl_lab.escapes import EscapeOffsets, escape_statistics, periodicity_report
from evl_lab.estimators import _survey, estimate_ei_bundle
from evl_lab.hts_rts import TargetSet, _first_hits_engine
from evl_lab.observables import LevelSchedule, ObservableSpec, exceedance_event
from evl_lab.processes import POOL_TRIAL_STEPS, Ensemble, ProcessSpec, _chunk_trials, _fork_map

#: every test here forks, on Linux only
pytestmark = pytest.mark.skipif(not hasattr(os, "sched_getaffinity"), reason="needs Linux")

BALL0 = ObservableSpec(family="ball_measure", form="gumbel", anchor="0")
MMA_OBS = ObservableSpec(family="distance", form="weibull", anchor=None)
DOUB = ProcessSpec.doubling()

#: 2,400 paths of 3,600 steps: above the split constant, and 3 chunks of 800
#: trials at 3 CPUs (no chunk is cut below 256 trials)
TRIALS, N = 2400, 3600


@pytest.fixture(autouse=True)
def deadline():
    """A hung pool fails its test after a minute instead of hanging the suite."""

    def expire(signum, frame):
        raise TimeoutError("the pool did not return within 60 s")

    old = signal.signal(signal.SIGALRM, expire)
    signal.alarm(60)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, old)


def _no_children():
    """No child process is left, reaped or not."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _set_cpus(monkeypatch, k):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(k)))


@pytest.fixture
def forks(monkeypatch, tmp_path):
    """The pids that called os.fork, read back from a file: a fork made in
    a forked worker is logged too."""
    log, real_fork = tmp_path / "forks", os.fork

    def fork():
        with open(log, "a", encoding="utf-8") as f:
            f.write(f"{os.getpid()}\n")
        return real_fork()

    monkeypatch.setattr(os, "fork", fork)
    return lambda: [int(x) for x in log.read_text(encoding="utf-8").split()] if log.exists() else []


def _sweeps():
    """Each pooled sweep's results at a size above the split constant."""
    offsets = EscapeOffsets((1,))
    levels = LevelSchedule(DOUB, BALL0, tau=1.0)
    event = exceedance_event(DOUB, BALL0, levels.u(N))
    ens = Ensemble(DOUB, 5, TRIALS, N, obs=BALL0)
    counts = [np.bincount(k % ids.size, minlength=ids.size) for ids, k in ens.mask_chunks(event, extra=1)]
    mma = ProcessSpec.mma13()
    mma_event = exceedance_event(mma, MMA_OBS, LevelSchedule(mma, MMA_OBS, tau=1.0).u(N))
    target = TargetSet.ball(DOUB, "0", 2.0**-8)
    return {
        "chunks": len(counts),
        "per-path exceedances": np.concatenate(counts).tolist(),
        "survey": repr(_survey(ens, event, offsets)),
        "survey mma13": repr(_survey(Ensemble(mma, 6, TRIALS, N), mma_event, EscapeOffsets((1, 3)))),
        "periodicity": repr(list(periodicity_report(ens, offsets, 0.5, levels, N).rows())),
        "escapes": repr(escape_statistics(ens, offsets, N, levels)),
        "hts": _first_hits_engine(DOUB, target, TRIALS, 7, N, rng.CH_HTS).tolist(),
        "rts": _first_hits_engine(DOUB, target, TRIALS, 8, N, rng.CH_ORBIT, starts=True).tolist(),
    }


def test_sweeps_identical_on_one_two_and_three_cpus(monkeypatch, forks):
    assert TRIALS * N >= POOL_TRIAL_STEPS
    got = {}
    for k in (1, 2, 3):
        _set_cpus(monkeypatch, k)
        got[k] = _sweeps()
        assert got[k].pop("chunks") == k
        _no_children()
    assert got[1] == got[2] == got[3]
    assert set(forks()) == {os.getpid()}  # the workers forked nothing
    assert len(forks()) == 0 + 2 * 7 + 3 * 7  # one pool per sweep, one worker per CPU


def test_small_sweep_keeps_its_one_cpu_chunks(monkeypatch):
    _set_cpus(monkeypatch, 2)
    chunks = list(_chunk_trials(DOUB, 1000, POOL_TRIAL_STEPS // 1000 - 1))
    assert [c.size for c in chunks] == [1000]


def test_chunks_in_flight_split_the_budget(monkeypatch):
    # a budget-bound sweep: w workers hold w chunks of at most 1/w the size
    stop, trials = 100 * processes.TIME_BLOCK, 60000
    sizes = {}
    for k in (1, 2, 3):
        _set_cpus(monkeypatch, k)
        sizes[k] = max(c.size for c in _chunk_trials(ProcessSpec.mma13(), trials, stop))
    assert sizes[1] == processes.CHUNK_BUDGET // (36 * (processes.TIME_BLOCK + 1))
    assert 2 * sizes[2] <= sizes[1] and 3 * sizes[3] <= sizes[1]


def test_one_cpu_forks_nothing(monkeypatch):
    _set_cpus(monkeypatch, 1)

    def no_fork():
        raise AssertionError("forked on one CPU")

    monkeypatch.setattr(os, "fork", no_fork)
    assert _fork_map(lambda x: x * x, range(5)) == [0, 1, 4, 9, 16]
    ens = Ensemble(DOUB, 5, TRIALS, N)
    _survey(ens, exceedance_event(DOUB, BALL0, LevelSchedule(DOUB, BALL0, tau=1.0).u(N)), EscapeOffsets((1,)))


def test_results_come_back_in_item_order(monkeypatch):
    _set_cpus(monkeypatch, 3)

    def slow_first(x):
        time.sleep(0.2 if x == 0 else 0.0)
        return {"item": x, "square": np.arange(x) ** 2}

    got = _fork_map(slow_first, range(7))
    assert [g["item"] for g in got] == list(range(7))
    assert all(np.array_equal(g["square"], np.arange(i) ** 2) for i, g in enumerate(got))
    _no_children()


def test_failing_chunk_is_raised_in_the_parent(monkeypatch, tmp_path):
    # item 1 fails while item 0 runs: no later item is handed out, and the
    # failure is raised once item 0 ends
    _set_cpus(monkeypatch, 2)

    def fn(x):
        (tmp_path / f"ran-{x}").touch()
        if x == 1:
            raise ValueError("chunk 1 failed")
        time.sleep(0.3)
        return x

    with pytest.raises(ValueError, match="^chunk 1 failed$"):
        _fork_map(fn, range(6))
    assert sorted(p.name for p in tmp_path.iterdir()) == ["ran-0", "ran-1"]
    _no_children()


def test_failing_sweep_chunk_is_raised_in_the_parent(monkeypatch):
    _set_cpus(monkeypatch, 2)

    def windows(self, stop, event):
        raise ValueError(f"no windows for trials from {int(self.trials[0])}")

    monkeypatch.setattr(processes.PathEngine, "windows", windows)
    ens = Ensemble(DOUB, 5, TRIALS, N)
    with pytest.raises(ValueError, match="^no windows for trials from 0$"):
        _survey(ens, exceedance_event(DOUB, BALL0, LevelSchedule(DOUB, BALL0, tau=1.0).u(N)), EscapeOffsets((1,)))
    _no_children()


def test_first_failure_in_item_order_is_raised(monkeypatch):
    _set_cpus(monkeypatch, 2)

    def fn(x):
        if x == 0:
            time.sleep(0.3)  # fails after item 1 has failed
        raise ValueError(f"item {x}")

    with pytest.raises(ValueError, match="^item 0$"):
        _fork_map(fn, range(4))
    _no_children()


def test_dead_worker_is_an_error_not_a_hang(monkeypatch):
    _set_cpus(monkeypatch, 2)
    with pytest.raises(RuntimeError, match=r"died \(exit code 3\) running item 1$"):
        _fork_map(lambda x: os._exit(3) if x == 1 else x, range(4))
    _no_children()


def test_unpicklable_exception_comes_back_as_its_repr(monkeypatch):
    _set_cpus(monkeypatch, 2)

    class LocalError(Exception):  # a local class cannot be pickled
        pass

    def fn(x):
        raise LocalError(f"item {x}")

    with pytest.raises(RuntimeError, match=r"LocalError\('item 0'\)"):
        _fork_map(fn, range(2))
    _no_children()


def test_sweep_inside_a_reproduce_worker_forks_nothing(monkeypatch, tmp_path, forks):
    _set_cpus(monkeypatch, 2)
    ens = Ensemble(DOUB, 5, TRIALS, N)
    event = exceedance_event(DOUB, BALL0, LevelSchedule(DOUB, BALL0, tau=1.0).u(N))
    got = tmp_path / "survey"

    def symbolic(cfg):  # the last experiment runs a sweep above the split constant
        got.write_text(repr(_survey(ens, event, EscapeOffsets((1,)))), encoding="utf-8")
        raise ValueError("stop here")

    monkeypatch.setitem(cli._RUNNERS, "symbolic", symbolic)
    with pytest.raises(ValueError, match="^stop here$"):
        cli.run_reproduce_paper(tmp_path / "r", 7, "quick")
    assert forks() == [os.getpid()] * 2  # the reproduce-paper pool's two workers
    _no_children()
    _set_cpus(monkeypatch, 1)
    assert got.read_text(encoding="utf-8") == repr(_survey(ens, event, EscapeOffsets((1,))))


def _bundle(seed=9):
    """The estimator bundle at a size above the split constant."""
    return repr(estimate_ei_bundle(DOUB, BALL0, EscapeOffsets((1,)), 1.0, N, TRIALS, seed))


def test_bundle_identical_on_one_two_and_three_cpus(monkeypatch, forks):
    # one pool per bundle runs both legs: w workers, none on one CPU
    got = {}
    for k in (1, 2, 3):
        _set_cpus(monkeypatch, k)
        before = len(forks())
        got[k] = _bundle()
        assert len(forks()) - before == (0 if k == 1 else k)
        _no_children()
    assert got[1] == got[2] == got[3]
    assert set(forks()) == {os.getpid()}  # the workers forked nothing


def test_bundle_start_failure_is_raised_in_the_parent(monkeypatch):
    _set_cpus(monkeypatch, 2)
    rts_prefix = hts_rts._rts_prefix

    def failing(spec, target, ids, seed):
        if int(ids[0]) != 0:
            raise hts_rts.ConditionalStartError(f"no start for trials from {int(ids[0])}")
        return rts_prefix(spec, target, ids, seed)

    monkeypatch.setattr(hts_rts, "_rts_prefix", failing)
    with pytest.raises(hts_rts.ConditionalStartError, match=f"^no start for trials from {TRIALS // 2}$"):
        _bundle()
    _no_children()


def test_bundle_inside_a_reproduce_worker_forks_nothing(monkeypatch, tmp_path, forks):
    _set_cpus(monkeypatch, 2)
    got = tmp_path / "bundle"

    def symbolic(cfg):  # the last experiment runs a bundle above the split constant
        got.write_text(_bundle(), encoding="utf-8")
        raise ValueError("stop here")

    monkeypatch.setitem(cli._RUNNERS, "symbolic", symbolic)
    with pytest.raises(ValueError, match="^stop here$"):
        cli.run_reproduce_paper(tmp_path / "r", 7, "quick")
    assert forks() == [os.getpid()] * 2  # the reproduce-paper pool's two workers
    _no_children()
    _set_cpus(monkeypatch, 1)
    assert got.read_text(encoding="utf-8") == _bundle()
