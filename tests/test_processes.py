import hashlib
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evl_lab import observables, processes, rng
from evl_lab.processes import PRECISION, Ensemble, PathEngine, ProcessSpec, point_values_at
from tests.oracles import exact_point, ks_against, path, point

ALL_SPECS = [
    ProcessSpec.doubling(),
    ProcessSpec.bernoulli_doubling(0.3),
    ProcessSpec.m_ary(3),
    ProcessSpec.dyadic_jump(),
    ProcessSpec.chebyshev(),
    ProcessSpec.ar1(2),
    ProcessSpec.ar1(3),
    ProcessSpec.mma2(),
    ProcessSpec.mma13(),
    ProcessSpec.iid_uniform(),
]


@pytest.mark.parametrize("ids", [[1.5, 2.7], np.array([1.0]), [True, False], np.array([1], dtype=object)])
def test_engine_rejects_non_integer_trial_ids(ids):
    # [1.5, 2.7] was once truncated to trials [1, 2]
    with pytest.raises(ValueError, match="trial ids must be integers"):
        PathEngine(ProcessSpec.doubling(), 3, ids)


@pytest.mark.parametrize("trials", [2.5, 3.0, True, "3"])
def test_ensemble_rejects_non_integer_trials(trials):
    with pytest.raises(ValueError, match="trials must be an integer"):
        Ensemble(ProcessSpec.doubling(), 1, trials, 10)


def test_ensemble_takes_numpy_integer_trials():
    assert Ensemble(ProcessSpec.doubling(), 1, np.int64(3), 10).trials == 3


@pytest.mark.parametrize(
    "length, message",
    [
        (2.5, "length must be an integer"),
        (True, "length must be an integer"),
        (0, "length must be >= 1"),
        (-5, "length must be >= 1"),
    ],
)
def test_ensemble_rejects_bad_length(length, message):
    # each once constructed and failed only inside the sweep
    with pytest.raises(ValueError, match=message):
        Ensemble(ProcessSpec.doubling(), 1, 10, length)


def test_ensemble_takes_numpy_integer_length():
    assert Ensemble(ProcessSpec.doubling(), 1, 10, np.int64(1)).length == 1


@pytest.mark.parametrize(
    "event, packed",
    [
        (observables.ExceedanceEvent(((0.25, 0.25 + 2.0**-9),)), True),
        (observables.ExceedanceEvent(word=(0, 1, 1) * 22), False),  # words of 64 digits or fewer are packed
        (observables.ExceedanceEvent(((0.3, 0.55),)), False),
    ],
    ids=["packed", "cylinder", "scan"],
)
def test_windows_must_increase_on_every_route(event, packed):
    eng = PathEngine(ProcessSpec.doubling(), 3, np.arange(20))
    assert (eng._cells(event) is not None) == packed
    eng.masks(0, 100, event)
    with pytest.raises(ValueError, match="engine windows must be increasing"):
        eng.masks(50, 150, event)
    with pytest.raises(ValueError, match="engine windows must be increasing"):
        eng.points(99, 120)
    eng.masks(100, 120, event)  # the window is not moved by a refused read
    eng.points(120, 130)
    with pytest.raises(ValueError, match="engine windows must be increasing"):
        eng.masks(125, 140, event)


def test_spec_validation():
    with pytest.raises(ValueError):
        ProcessSpec.m_ary(1)
    with pytest.raises(ValueError):
        ProcessSpec.m_ary(2, (0.2, 0.7))  # does not sum to 1
    with pytest.raises(ValueError):
        ProcessSpec.m_ary(2, (0.0, 1.0))  # weights must be interior
    with pytest.raises(ValueError):
        ProcessSpec.ar1(1)
    with pytest.raises(ValueError):
        ProcessSpec("nope")


def test_near_uniform_weights_are_not_uniform(monkeypatch):
    import evl_lab.hts_rts as H

    near = ProcessSpec.bernoulli_doubling(0.5 + 1e-7)
    doub = ProcessSpec.doubling()
    assert doub.is_uniform and not near.is_uniform
    assert near.label != doub.label
    obs = observables.ObservableSpec(family="distance", form="weibull", anchor="01")
    assert abs(observables.ball_measure(near, obs, 1 / 3) - observables.ball_measure(doub, obs, 1 / 3)) > 1e-9
    assert observables.marginal_cdf(near, 0.5) > 0.5 + 5e-8
    assert np.array_equal(path(near, 3, 2, 200), rng.digits(3, rng.CH_ORBIT, [2], 0, 200, np.cumsum(near.weights))[0])
    calls = []
    monkeypatch.setattr(H, "bernoulli_cdf", lambda *a: calls.append(1) or observables.bernoulli_cdf(*a))
    H._interval_digit_prefix(doub, ((0.2, 0.3),), np.arange(10), seed=1)
    assert not calls
    H._interval_digit_prefix(near, ((0.2, 0.3),), np.arange(10), seed=1)
    assert calls


@pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: s.label)
def test_reference_paths_are_the_engine_stream(spec):
    ids = np.array([0, 2, 5], dtype=np.uint64)
    n = 300
    if spec.uses_digits:
        rows = PathEngine(spec, 3, ids).digit_matrix(0, n)
    else:
        rows = rng.uniforms(3, rng.CH_ORBIT, ids, 0, n)
    for trial, row in zip(ids, rows):
        assert np.array_equal(path(spec, 3, int(trial), n), row)
    # the last step whose point the path holds; one position fewer is an error
    seq = rows[0]
    t = n - (spec.slots[-1] + 1 if spec.slots else PRECISION)
    point(spec, seq, t)
    with pytest.raises(ValueError):
        point(spec, seq[:-1], t)


def test_chebyshev_double_angle_conjugacy():
    y = np.random.default_rng(1).random(1000)
    lhs = 1.0 - 2.0 * np.cos(np.pi * y) ** 2
    rhs = -np.cos(2.0 * np.pi * y)
    assert np.abs(lhs - rhs).max() <= 1e-12


def test_ar1_step_arithmetic():
    # X_{n-1} = 0.5, eps_n = 0.5 (digit 1 base 2) -> X_n = 0.75
    spec = ProcessSpec.ar1(2)
    seq = np.array([0] * 63 + [1] + [1])  # X_0 = 0.5 (MSB at position 63), next digit 1
    assert abs(point(spec, seq, 0) - 0.5) < 1e-12
    assert abs(point(spec, seq, 1) - 0.75) < 1e-12


def test_evaluate_examples():
    spec = ProcessSpec.doubling()
    assert abs(point(spec, np.array([1] + [0] * 63), 0) - 0.5) < 2e-16
    spec3 = ProcessSpec.m_ary(3)
    assert abs(point(spec3, np.array([2, 1] + [0] * 62), 0, K=2) - (2 / 3 + 1 / 9)) < 1e-12


def test_mma_buffer_evaluation():
    spec = ProcessSpec.mma2()
    # innovation window Y_{n-2}=0.3, Y_{n-1}=0.9, Y_n=0.4: the lag-1 value is
    # skipped, so X_n = max(0.3, 0.4) = 0.4
    assert point(spec, np.array([0.0, 0.3, 0.9, 0.4, 0.0]), 0) == pytest.approx(0.4)
    # X_n = max(Y_{n-3}, Y_{n-2}, Y_n) = max(0.2, 0.3, 0.4)
    assert point(ProcessSpec.mma13(), np.array([0.2, 0.3, 0.9, 0.4, 0.0]), 0) == pytest.approx(0.4)


def test_shift_exactness_exact_arithmetic():
    # the point at step t + 1 equals the map of the point at step t within
    # m**-(K-1), checked over the exact rationals carried by the digits themselves.
    for spec in (ProcessSpec.doubling(), ProcessSpec.m_ary(3), ProcessSpec.bernoulli_doubling(0.3)):
        seq = path(spec, 3, 1, 21 + PRECISION)
        for t in range(20):
            mapped = (exact_point(spec, seq, t) * spec.m) % 1
            assert abs(exact_point(spec, seq, t + 1) - mapped) < Fraction(spec.m) ** -(63)
    # the jump map, f(x) = 2^k x - 1 on its branch (2^-k, 2^-(k-1)]
    jump = ProcessSpec.dyadic_jump()
    seq = path(jump, 3, 1, 21 + PRECISION)
    for t in range(20):
        x = exact_point(jump, seq, t)
        k = 1
        while x <= Fraction(1, 2**k):
            k += 1
        assert abs(exact_point(jump, seq, t + 1) - (x * 2**k - 1)) < Fraction(2) ** -63


def test_dyadic_jump_strips_branch_prefix():
    spec = ProcessSpec.dyadic_jump()
    seq = np.resize([3, 1, 2], 1 + PRECISION)  # the gaps of the bits 001 1 01
    # step 1 starts past the gap 0,0,1: f(x) = 2^k (x - 2^-k) on branch k=3
    x = point(spec, seq, 0)
    assert abs(point(spec, seq, 1) - (2**3) * (x - 2**-3)) < 1e-12


def test_ar1_digit_model_matches_exact_recursion():
    spec = ProcessSpec.ar1(3)
    seq = path(spec, 5, 0, 1000 + 64)
    x = exact_point(spec, seq, 0)
    for k in range(1000):
        x = x / 3 + Fraction(int(seq[64 + k]), 3)
        assert abs(float(x) - point(spec, seq, k + 1)) < 1e-12


def test_engine_matches_scalar_stepping():
    for spec in ALL_SPECS:
        pts = PathEngine(spec, 31, [0, 1, 2]).points(0, 60)
        for trial in range(3):
            seq = path(spec, 31, trial, 60 + PRECISION)
            for t in range(60):
                assert point(spec, seq, t) == pytest.approx(pts[trial, t], abs=1e-12)


def test_engine_windows_are_positional():
    # a window starting past step 0 equals the tail of the full sweep
    for spec in ALL_SPECS:
        full = PathEngine(spec, 19, [0, 1, 2]).points(0, 60)
        assert np.array_equal(PathEngine(spec, 19, [0, 1, 2]).points(40, 60), full[:, 40:])


@pytest.mark.parametrize(
    "spec",
    [ProcessSpec.doubling(), ProcessSpec.bernoulli_doubling(0.3), ProcessSpec.m_ary(3),
     ProcessSpec.dyadic_jump(), ProcessSpec.chebyshev(), ProcessSpec.ar1(2), ProcessSpec.ar1(3)],
    ids=lambda s: s.label,
)
def test_points_across_window_ends(spec):
    # a map point is a backward scan from its window's end, so its last bit
    # may move with that end; ar1 values are carried forward from step 0
    ids = np.arange(3000, dtype=np.uint64)
    short = PathEngine(spec, 11, ids).points(0, 11)
    long = PathEngine(spec, 11, ids).points(0, processes.TIME_BLOCK)[:, :11]
    if spec.kind == "ar1":
        assert short.tobytes() == long.tobytes()
    else:
        assert np.abs(short - long).max() <= 4 * np.finfo(np.float64).eps


def test_jump_points_past_a_400_zero_bit_prefix():
    # 400 zero bits start a gap of 400 plus the path's own first gap; the
    # points still match the scalar projection
    spec = ProcessSpec.dyadic_jump()
    prefix = processes._gap_prefix(np.zeros((2, 400), dtype=np.uint8), 41, [0, 1])
    eng = PathEngine(spec, 41, [0, 1], prefix=prefix)
    pts = np.hstack([eng.points(0, 11), eng.points(11, 30)])
    assert pts[:, 0].max() < 2.0**-400
    for trial in range(2):
        seq = np.r_[prefix[trial], path(spec, 41, trial, 30 + 600)[prefix.shape[1] :]]
        for t in range(30):
            assert point(spec, seq, t, K=600) == pytest.approx(pts[trial, t], rel=1e-12, abs=0)


def test_jump_draws_the_same_words_in_every_window(monkeypatch):
    # one word per path and step: the words drawn for a TIME_BLOCK window do
    # not grow with its index, so a sweep's memory is flat in the horizon
    drawn = []
    raw_words = rng.raw_words

    def counted(seed, channel, trials, lo, hi):
        drawn.append(np.size(trials) * (hi - lo))
        return raw_words(seed, channel, trials, lo, hi)

    monkeypatch.setattr(rng, "raw_words", counted)
    eng = PathEngine(ProcessSpec.dyadic_jump(), 7, np.arange(500))
    per_window = []
    for _ in eng.windows(64 * processes.TIME_BLOCK, observables.ExceedanceEvent(((0.3, 0.55),))):
        per_window.append(sum(drawn))
        drawn.clear()
    assert per_window == [500 * (processes.TIME_BLOCK + PRECISION)] * 64


_BALL0 = observables.ExceedanceEvent.circle_arc(-1e-3, 1e-3)  # narrow: packed keys
_WIDE = observables.ExceedanceEvent(((0.3, 0.55),))  # the float scan
_START_CASES = {
    "doubling, float scan": (ProcessSpec.doubling(), _WIDE),
    "doubling, packed": (ProcessSpec.doubling(), _BALL0),
    "doubling, cylinder": (ProcessSpec.doubling(), observables.ExceedanceEvent(word=(0, 1, 1))),
    "bernoulli, packed": (ProcessSpec.bernoulli_doubling(0.3), _BALL0),
    "jump": (ProcessSpec.dyadic_jump(), _WIDE),
    "ar1(2)": (ProcessSpec.ar1(2), observables.ExceedanceEvent(((0.9, math.inf),))),
    "mma13": (ProcessSpec.mma13(), observables.ExceedanceEvent(((0.9, math.inf),))),
    "doubling, packed, start prefix": (ProcessSpec.doubling(), _BALL0),
    "doubling, float scan, start prefix": (ProcessSpec.doubling(), _WIDE),
}


@pytest.mark.parametrize("block", [processes.TIME_BLOCK, 40])
@pytest.mark.parametrize("case", list(_START_CASES))
def test_windows_from_step_one(case, block, monkeypatch):
    # a sweep from step 1 yields the same windows, on the same grid, with
    # the keys of step 0 left out; a 40-step block ends inside the first word
    from evl_lab.hts_rts import TargetSet, _rts_prefix

    spec, event = _START_CASES[case]
    ids = np.arange(3, 403, dtype=np.uint64)
    prefix = None
    if case.endswith("start prefix"):
        prefix = _rts_prefix(spec, TargetSet.ball(spec, "0", 2.0**-12), ids, 5)
    monkeypatch.setattr(processes, "TIME_BLOCK", block)
    stop = 2 * block + 37
    whole = list(PathEngine(spec, 9, ids, prefix=prefix).windows(stop, event))
    ones = list(PathEngine(spec, 9, ids, prefix=prefix).windows(stop, event, start=1))
    assert [t for t, _ in ones] == [t for t, _ in whole] == list(range(0, stop, block))
    assert sum(k.size for _, k in ones) > 0
    for (t, got), (_, want) in zip(ones, whole):
        want = want[want >= ids.size] if t == 0 else want
        assert got.tolist() == want.tolist(), t


def test_windows_start_outside_the_sweep_is_a_named_error():
    eng = PathEngine(ProcessSpec.doubling(), 9, np.arange(10))
    assert list(eng.windows(50, _WIDE, start=50)) == []
    for start in (-1, 51):
        with pytest.raises(ValueError, match=f"start {start} must lie in"):
            list(eng.windows(50, _WIDE, start=start))


@pytest.mark.parametrize("spec", [ProcessSpec.ar1(2), ProcessSpec.dyadic_jump()], ids=lambda s: s.label)
def test_digit_matrix_leaves_the_sweep_carry_alone(spec):
    # a raw digit read between two windows neither moves nor skips the
    # carried state: the later window equals one sweep's steps
    eng = PathEngine(spec, 3, [0, 1])
    eng.points(0, 5)
    assert eng.digit_matrix(5, 8).tobytes() == PathEngine(spec, 3, [0, 1]).digit_matrix(0, 8)[:, 5:].tobytes()
    assert eng.points(8, 10).tobytes() == PathEngine(spec, 3, [0, 1]).points(0, 10)[:, 8:].tobytes()


def test_observe_path_reproducible():
    spec = ProcessSpec.chebyshev()
    obs = observables.ObservableSpec(family="distance", form="weibull", anchor="0")

    def observe_path(trial):
        return obs.apply(spec, PathEngine(spec, 2, [trial]).points(0, 200)[0])

    a = observe_path(7)
    b = observe_path(7)
    assert np.array_equal(a, b)
    c = observe_path(8)
    assert not np.array_equal(a, c)


def test_chunking_does_not_change_paths():
    spec = ProcessSpec.ar1(3)
    full = PathEngine(spec, 77, np.arange(64)).points(0, 100)
    subset = PathEngine(spec, 77, np.arange(40, 64)).points(0, 100)
    assert np.array_equal(full[40:], subset)


@pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: s.label)
def test_stationarity_ks(spec):
    # marginal of the exposed point at steps 0, 10, 100 matches the invariant law
    trials = 20000
    pts = point_values_at(spec, 123, np.arange(trials), [0, 10, 100])
    for j in range(3):
        d = ks_against(pts[:, j], lambda x: observables.marginal_cdf(spec, x))
        assert d <= 0.015, (spec.label, j, d)


def test_initial_marginals_match_invariant_law():
    trials = 100000
    for spec, cdf in [
        (ProcessSpec.doubling(), lambda x: np.clip(x, 0, 1)),
        (ProcessSpec.chebyshev(), lambda x: 0.5 + np.arcsin(np.clip(x, -1, 1)) / math.pi),
        (ProcessSpec.ar1(2), lambda x: np.clip(x, 0, 1)),
    ]:
        pts = point_values_at(spec, 17, np.arange(trials), [0])[:, 0]
        assert ks_against(pts, cdf) <= 0.01


def test_ensemble_mask_determinism_across_runs():
    spec = ProcessSpec.doubling()
    obs = observables.ObservableSpec(family="ball_measure", form="gumbel", anchor="0")
    u = observables.level_for_tau(spec, obs, 500, 1.0)
    ev = observables.exceedance_event(spec, obs, u)
    ens = Ensemble(spec, 5, 3000, 500)
    a = np.concatenate([k for _, k in ens.mask_chunks(ev)])
    b = np.concatenate([k for _, k in ens.mask_chunks(ev)])
    assert np.array_equal(a, b)


def _random_event(spec, data):
    if spec.uses_digits and data.draw(st.booleans()):
        word = data.draw(st.lists(st.integers(0, spec.base - 1), min_size=1, max_size=4))
        return observables.ExceedanceEvent(word=tuple(word))
    if data.draw(st.booleans()):  # two arcs: (a, b) and (c, d), or with a = -inf and d = inf a wrapped one
        a, b, c, d = sorted(data.draw(st.lists(st.floats(0.0, 1.0), min_size=4, max_size=4, unique=True)))
        if data.draw(st.booleans()):
            a, d = -math.inf, math.inf
        return observables.ExceedanceEvent(((a, b), (c, d)))
    if spec.kind in ("m_ary", "chebyshev"):
        lo = data.draw(st.floats(0.0, 1.0, exclude_max=True))
        return observables.ExceedanceEvent.circle_arc(lo, lo + 0.2)
    if spec.kind == "dyadic_jump":
        lo = data.draw(st.floats(0.0, 0.8))
        return observables.ExceedanceEvent(((lo, lo + 0.2),))
    return observables.ExceedanceEvent(((data.draw(st.floats(0.3, 0.95)), math.inf),))


def _cuts(data, n):
    """0 = c_0 < c_1 < ... < c_k = n."""
    inner = data.draw(st.lists(st.integers(1, n - 1), max_size=5)) if n > 1 else []
    return [0, *sorted(set(inner)), n]


@pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: s.label)
@settings(max_examples=20, deadline=None, derandomize=True)
@given(data=st.data())
def test_engine_masks_window_and_chunk_invariant(spec, data):
    # trial chunks swept over increasing windows (some skipped) reproduce
    # one one-shot sweep
    n = data.draw(st.integers(1, 150))
    trials = data.draw(st.integers(1, 12))
    seed = data.draw(st.integers(0, 2**32))
    ev = _random_event(spec, data)
    ids = np.arange(trials, dtype=np.uint64)
    whole = PathEngine(spec, seed, ids).masks(0, n, ev)
    assert whole.shape == (trials, n) and whole.dtype == bool
    trial_cuts = _cuts(data, trials)
    for a, b in zip(trial_cuts, trial_cuts[1:]):
        eng = PathEngine(spec, seed, ids[a:b])
        steps = _cuts(data, n)
        for t0, t1 in zip(steps, steps[1:]):
            if t0 > 0 and data.draw(st.booleans()):
                continue  # skipped window: the engine scans through it
            assert np.array_equal(eng.masks(t0, t1, ev), whole[a:b, t0:t1])
    # points exist in the event's coordinate for all but chebyshev (x-space
    # points, theta-space events)
    if not ev.word and spec.kind != "chebyshev":
        pts = PathEngine(spec, seed, ids).points(0, n)
        assert np.array_equal(ev.mask_native(pts), whole)


# sha256 of PathEngine output over ENGINE_KAT_RUNS, per kind and quantity:
# the engine's known answers, so that a rewrite of the scans shows bit-identity.
# Each run is (trial ids, prefix length, windows); the first skips steps
# [37, 60), the second starts at step 5 under a fixed per-trial prefix.
ENGINE_KAT_SPECS = [
    ProcessSpec.doubling(),
    ProcessSpec.bernoulli_doubling(0.3),
    ProcessSpec.chebyshev(),
    ProcessSpec.m_ary(3),
    ProcessSpec.ar1(2),
    ProcessSpec.ar1(3),
    ProcessSpec.ar1(5),
]
ENGINE_KAT_RUNS = [
    ([0, 1, 2, 5, 300, 1001], 0, [(0, 37), (60, 141)]),
    ([3, 4, 9, 77], 20, [(5, 90)]),
]
ENGINE_KAT_EVENTS = {
    "circle": observables.ExceedanceEvent(((-math.inf, 0.15), (0.8, math.inf))),
    "gt": observables.ExceedanceEvent(((0.6, math.inf),)),
    "interval": observables.ExceedanceEvent(((0.3, 0.55),)),
    "cylinder": observables.ExceedanceEvent(word=(0, 1, 1)),
}
# the jump map's runs: the same trials and prefix, in whole windows from step 0
JUMP_KAT_RUNS = [(ENGINE_KAT_RUNS[0][0], 0, [(0, 141)]), (ENGINE_KAT_RUNS[1][0], 20, [(0, 90)])]
ENGINE_KAT = {
    ("m_ary(m=2,uniform)", "points"): "6f0a1cdf90b044f539b11ff621823096107dbc928e60764ccf5582f8e7cb32f3",
    ("m_ary(m=2,uniform)", "circle"): "bc5a69b1bfd7a897fc6938081eeacb6ca492c1c5bd3f987f176edde6210ece30",
    ("m_ary(m=2,uniform)", "gt"): "094152bce61bd0c06d9c5940e7c162181f2edce09cea78ea7deb26ffb0129ae9",
    ("m_ary(m=2,weights=0.3,0.7)", "points"): "dee916672cfde54aaeb777a617f59e0fd6c64f18f00a03a0280ee545f21f4ac4",
    ("m_ary(m=2,weights=0.3,0.7)", "circle"): "eeafe495343a0b111c9634adc20b913c63e8d4bc5eb357d4b263d9a14db848b0",
    ("m_ary(m=2,weights=0.3,0.7)", "gt"): "fa6540f62fc513c8a4cd041ba0d6da998513b3527af73b642b574aa00e57a71d",
    ("chebyshev", "points"): "308cd4b2129bee4fd26beda107f407dfbfeacfb81f4f68b11e1052aa8ea7eaa9",
    ("chebyshev", "circle"): "bc5a69b1bfd7a897fc6938081eeacb6ca492c1c5bd3f987f176edde6210ece30",
    ("chebyshev", "gt"): "094152bce61bd0c06d9c5940e7c162181f2edce09cea78ea7deb26ffb0129ae9",
    ("m_ary(m=3,uniform)", "points"): "3944bf715504e2894108c4c51240dd4dab15e1174701e29b6e5f54a05cdb5597",
    ("m_ary(m=3,uniform)", "circle"): "3bf9824c98308aed4cd0b2c713992e7929d3109be6d3be646976cebb7c3babfb",
    ("m_ary(m=3,uniform)", "gt"): "ccebe7390f7b39d56c7a8684d7f7d46c78f4a7a27538be5ae5799e6876266c72",
    ("ar1(r=2)", "points"): "1aa36d978c828cfc569bd737ed7cbfc701244aa24a9a6754ca47fb1a6acb2cfd",
    ("ar1(r=2)", "circle"): "972a6bae847b8d3c4d4a68c560b8a1c92cd539e1813a313d73d471828a4ea013",
    ("ar1(r=2)", "gt"): "37838c94ed28370adcb45d9cf1b888afa50b4f5247e5dc48b495d283d01f261d",
    ("ar1(r=3)", "points"): "5eaa542f6e16dc04d822b1abb81d16ccf29a419b97837db227645b8bef4bfa4e",
    ("ar1(r=3)", "circle"): "b38350aa3e48c8429b14a7d4f3ea6d0d40d92634329e32d0f8c62d9c50341d8c",
    ("ar1(r=3)", "gt"): "3f581de56bfcf902f4b945dfdf3b45edbc77be99f4a9875b318de39af7435673",
    ("ar1(r=5)", "points"): "38b11a852d418b5ffcbbce512682be855cd102ded7c5591dbd933e3200db5ec5",
    ("ar1(r=5)", "circle"): "5636b52b2761241e996391e4048cf71e0d886f976eef5315c142fe5d84c29de4",
    ("ar1(r=5)", "gt"): "0058415d1e98c2ac2a3632c43b40b154832724f87419f24c09f965f4a4b3a1ce",
}

JUMP_KAT = {
    "points": "81199b01fd727ef960011b0f48e2a1334714df4100e0d9905e8b73700784b009",
    "interval": "4f9b980607add9fec6f369c2c51ec724f25db7f48c6d04f234c0933a5af848e6",
    "cylinder": "db02b10fb9014c1bdff1b9d539e1043042fef7853d53183e521fe7e1f1bc80d2",
}


# the series kinds' runs are ENGINE_KAT_RUNS, under a float prefix of innovations
SERIES_KAT_SPECS = [ProcessSpec.iid_uniform(), ProcessSpec.mma2(), ProcessSpec.mma13()]
SERIES_KAT = {
    ("iid_uniform", "points"): "e9f569db2bef3c4acdc08b12df7b951218a88259017a7f1075e45a14303f4b20",
    ("iid_uniform", "gt"): "6324b16bb5ee7ea0410f9a2e2d75a0b38a39576eb2e23fe965ed3eb563b8f69d",
    ("mma2", "points"): "37b4998967e063b13b8fdbba770e75f4cb7b6064b0f2129cacb8e8348e15ae95",
    ("mma2", "gt"): "5bac64bad3511df6b72355ab242b7b1d9b9fee8c8bac23ca05685882ac420817",
    ("mma13", "points"): "3934a3bd1c4230993a6d981b7697ea5a5d9a8565e4d2d18a95bc5972084aefea",
    ("mma13", "gt"): "c38db81990f20e83bd988b978a4e902010c7979d8c80221662eb70b40f80611a",
}


def _engine_kat(spec, quantity, runs=ENGINE_KAT_RUNS, seed=2024):
    h = hashlib.sha256()
    for trials, k, windows in runs:
        prefix = None
        if k:
            cells = np.arange(len(trials) * k).reshape(len(trials), k)
            prefix = (cells * 7 % spec.base).astype(np.uint8) if spec.uses_digits else cells * 0.37 % 1.0
            if spec.kind == "dyadic_jump":  # the prefix holds bits: run the start they make
                prefix = processes._gap_prefix(prefix, seed, trials)
        eng = PathEngine(spec, seed, trials, prefix=prefix)
        for t0, t1 in windows:
            if quantity == "points":
                out = eng.points(t0, t1)
            else:
                out = eng.masks(t0, t1, ENGINE_KAT_EVENTS[quantity])
            h.update(np.ascontiguousarray(out).tobytes())
    return h.hexdigest()


@pytest.mark.parametrize("quantity", ["points", "circle", "gt"])
@pytest.mark.parametrize("spec", ENGINE_KAT_SPECS, ids=lambda s: s.label)
def test_engine_known_answer_digests(spec, quantity):
    # chebyshev points are -cos(2 pi theta), so their digest also reads numpy's cos
    assert _engine_kat(spec, quantity) == ENGINE_KAT[spec.label, quantity]


@pytest.mark.parametrize("quantity", ["points", "gt"])
@pytest.mark.parametrize("spec", SERIES_KAT_SPECS, ids=lambda s: s.label)
def test_series_known_answer_digests(spec, quantity):
    assert _engine_kat(spec, quantity) == SERIES_KAT[spec.label, quantity]


@pytest.mark.parametrize("quantity", ["points", "interval", "cylinder"])
def test_jump_known_answer_digests(quantity):
    assert _engine_kat(ProcessSpec.dyadic_jump(), quantity, JUMP_KAT_RUNS) == JUMP_KAT[quantity]


def _per_step_values(spec, digits, windows):
    """Plain per-step recursion over trial-major digits: each map window
    scans back from 0 through its PRECISION lookahead digits, ar1 carries
    X_t = (X_{t-1} + d_{t+63}) / r from X_0 built out of digits [0, 64)."""
    d = digits.astype(np.float64).T
    inv = 1.0 / spec.base
    out = {}
    if spec.kind == "ar1":
        x = np.zeros(d.shape[1])
        for j in range(PRECISION):
            x = (x + d[j]) / spec.r
        out[0] = x
        for t in range(1, windows[-1][1]):
            x = (x + d[t + PRECISION - 1]) * inv
            out[t] = x
    else:
        for t0, t1 in windows:
            x = np.zeros(d.shape[1])
            for p in range(t1 + PRECISION - 1, t0 - 1, -1):
                x = (d[p] + x) * inv
                out[p] = x
    return [np.stack([out[t] for t in range(t0, t1)], axis=1) for t0, t1 in windows]


@pytest.mark.parametrize("spec", ENGINE_KAT_SPECS, ids=lambda s: s.label)
def test_scan_independent_of_scan_block(spec, monkeypatch):
    # digits [0, 100) fixed, [100, 400) zero: the scanned values fall to about
    # base**-300 there; the windows skip steps, which ar1 scans through with
    # its carried value
    trials = [0, 1, 2, 7, 40]
    prefix = np.zeros((len(trials), 400), dtype=np.uint8)
    prefix[:, :100] = np.arange(len(trials) * 100).reshape(len(trials), 100) * 7 % spec.base
    windows = [(0, 50), (90, 430), (440, 470)]
    digits = PathEngine(spec, 5, trials, prefix=prefix).digit_matrix(0, 470 + PRECISION)
    ref = _per_step_values(spec, digits, windows)
    ev = observables.ExceedanceEvent(((-math.inf, 0.15), (0.8, math.inf)))
    for block in (1, 7, processes.SCAN_BLOCK):
        monkeypatch.setattr(processes, "SCAN_BLOCK", block)
        pts, masks = PathEngine(spec, 5, trials, prefix=prefix), PathEngine(spec, 5, trials, prefix=prefix)
        for (t0, t1), want in zip(windows, ref):
            got = pts.points(t0, t1)
            exposed = -np.cos(2.0 * np.pi * want) if spec.kind == "chebyshev" else want
            assert got.tobytes() == exposed.tobytes(), (block, t0)
            assert masks.masks(t0, t1, ev).tobytes() == ev.mask_native(want).tobytes(), (block, t0)
    assert 0.0 < ref[1].min() < float(spec.base) ** -250  # tiny values were scanned
