"""Return-time starts drawn per trial chunk: a trial's start prefix does not
depend on the other trials of its chunk, so return times are the same under
any chunking."""

import math

import numpy as np
import pytest

import evl_lab.hts_rts as H
from evl_lab.hts_rts import TargetSet, _first_hits_engine, _rts_prefix, _time_samples
from evl_lab.observables import ObservableSpec
from evl_lab.processes import ProcessSpec

END = ObservableSpec(family="distance", form="weibull", anchor=None)
DOUB = ProcessSpec.doubling()

#: one target of each start construction: arc descents (fair, weighted,
#: chebyshev's theta, the jump map's gaps), a cylinder tile, ar1's
#: MSB-first descent and the moving-maximum starts
TARGETS = {
    "doubling@0": lambda: TargetSet.ball(DOUB, "0", 2.0**-10),
    "bernoulli(0.3)@01": lambda: TargetSet.ball(ProcessSpec.bernoulli_doubling(0.3), "01", 2.0**-10),
    "chebyshev@0": lambda: TargetSet.ball(ProcessSpec.chebyshev(), "0", 2.0**-14),
    "dyadic_jump@01": lambda: TargetSet.ball(ProcessSpec.dyadic_jump(), "01", 0.01),
    "doubling cylinder 0110": lambda: TargetSet.cylinder(DOUB, "0110"),
    "ar1(3)": lambda: TargetSet.ball_of_measure(ProcessSpec.ar1(3), END, 2.0**-7),
    "mma2": lambda: TargetSet.ball_of_measure(ProcessSpec.mma2(), END, 2.0**-7),
    "mma13": lambda: TargetSet.ball_of_measure(ProcessSpec.mma13(), END, 2.0**-7),
    "iid_uniform": lambda: TargetSet.ball_of_measure(ProcessSpec.iid_uniform(), END, 2.0**-7),
}

#: a contiguous slice of the trials, and a thinned set with uneven gaps
CHUNKS = {
    "slice": np.arange(150, 420, dtype=np.uint64),
    "thinned": np.r_[3, 10:40:3, 41, 299, 300, 517:600:11].astype(np.uint64),
}


@pytest.mark.parametrize("chunk", list(CHUNKS))
@pytest.mark.parametrize("name", list(TARGETS))
def test_chunk_starts_are_rows_of_the_whole_set(name, chunk):
    tgt = TARGETS[name]()
    whole = _rts_prefix(tgt.spec, tgt, np.arange(600, dtype=np.uint64), 31)
    ids = CHUNKS[chunk]
    got = _rts_prefix(tgt.spec, tgt, ids, 31)
    assert got.dtype == whole.dtype
    assert np.array_equal(got, whole[ids.astype(np.intp)])


@pytest.mark.parametrize("name", list(TARGETS))
def test_return_times_are_the_same_in_one_two_and_three_chunks(name, monkeypatch):
    tgt = TARGETS[name]()
    steps_h = math.ceil(0.5 / tgt.measure)  # the normalized horizon 0.5
    got = []
    for k in (1, 2, 3):
        monkeypatch.setattr(H, "_chunk_trials", lambda spec, trials, stop: np.array_split(np.arange(trials), k))
        steps = _first_hits_engine(tgt.spec, tgt, 500, 17, steps_h, H.rng.CH_ORBIT, starts=True)
        rts = _time_samples(steps, steps_h, "rts", tgt.measure)
        got.append((rts.times.tobytes(), rts.censored.tobytes()))
    assert got[0] == got[1] == got[2]
    assert not rts.censored.all()  # some paths return within the horizon
