import hashlib
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evl_lab import observables, processes, rng
from evl_lab.processes import (
    PRECISION,
    DigitStream,
    Ensemble,
    PathEngine,
    ProcessSpec,
    ProcessState,
    evaluate_point,
    exact_point,
    observe_path,
    point_values_at,
    point_values_range,
    sample_initial,
    step,
)
from tests.conftest import ks_against

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
    digits = DigitStream.random(near, seed=3, trial=2).block(0, 200)
    assert np.array_equal(digits, rng.digits(3, rng.CH_ORBIT, [2], 0, 200, np.cumsum(near.weights))[0])
    calls = []
    monkeypatch.setattr(H, "bernoulli_cdf", lambda *a: calls.append(1) or observables.bernoulli_cdf(*a))
    H._interval_digit_prefix(doub, 0.2, 0.3, 10, seed=1)
    assert not calls
    H._interval_digit_prefix(near, 0.2, 0.3, 10, seed=1)
    assert calls


def test_digit_stream_is_stable_under_extension():
    spec = ProcessSpec.bernoulli_doubling(0.3)
    s = DigitStream.random(spec, seed=9, trial=4)
    first = s.block(0, 50).copy()
    s.block(0, 5000)  # extend
    assert np.array_equal(s.block(0, 50), first)
    assert s[17] == first[17]


def test_doubling_step_shifts_bits():
    st = ProcessState(ProcessSpec.doubling(), DigitStream.periodic(2, [0, 1, 1, 0]), 0)
    st2 = step(st.spec, st)
    assert list(st2.stream.block(st2.cursor, st2.cursor + 3)) == [1, 1, 0]


def test_chebyshev_double_angle_conjugacy():
    y = np.random.default_rng(1).random(1000)
    lhs = 1.0 - 2.0 * np.cos(np.pi * y) ** 2
    rhs = -np.cos(2.0 * np.pi * y)
    assert np.abs(lhs - rhs).max() <= 1e-12


def test_ar1_step_arithmetic():
    # X_{n-1} = 0.5, eps_n = 0.5 (digit 1 base 2) -> X_n = 0.75
    spec = ProcessSpec.ar1(2)
    digits = [0] * 63 + [1] + [1]  # X_0 = 0.5 (MSB at position 63), next digit 1
    st = ProcessState(spec, DigitStream.periodic(2, digits), 0)
    assert abs(evaluate_point(spec, st) - 0.5) < 1e-12
    st2 = step(spec, st)
    assert abs(evaluate_point(spec, st2) - 0.75) < 1e-12


def test_evaluate_examples():
    spec = ProcessSpec.doubling()
    st = ProcessState(spec, DigitStream.periodic(2, [1] + [0] * 63), 0)
    assert abs(evaluate_point(spec, st) - 0.5) < 2e-16
    spec3 = ProcessSpec.m_ary(3)
    st3 = ProcessState(spec3, DigitStream.periodic(3, [2, 1] + [0] * 62), 0)
    assert abs(evaluate_point(spec3, st3, K=2) - (2 / 3 + 1 / 9)) < 1e-12


def test_mma_buffer_evaluation():
    from evl_lab.processes import UniformStream

    spec = ProcessSpec.mma2()
    # innovation window Y_{n-2}=0.3, Y_{n-1}=0.9, Y_n=0.4: the lag-1 value is
    # skipped, so X_n = max(0.3, 0.4) = 0.4
    us = UniformStream(lambda lo, hi: np.array([0.0, 0.3, 0.9, 0.4, 0.0][lo:hi]))
    st = ProcessState(spec, us, 0)
    assert evaluate_point(spec, st) == pytest.approx(0.4)
    spec13 = ProcessSpec.mma13()
    us13 = UniformStream(lambda lo, hi: np.array([0.2, 0.3, 0.9, 0.4, 0.0][lo:hi]))
    st13 = ProcessState(spec13, us13, 0)
    # X_n = max(Y_{n-3}, Y_{n-2}, Y_n) = max(0.2, 0.3, 0.4)
    assert evaluate_point(spec13, st13) == pytest.approx(0.4)


def test_shift_exactness_exact_arithmetic():
    # evaluate(step(s)) equals the map of evaluate(s) within m**-(K-1), checked
    # over the exact rationals carried by the digits themselves.
    for spec in (ProcessSpec.doubling(), ProcessSpec.m_ary(3), ProcessSpec.bernoulli_doubling(0.3)):
        st = sample_initial(spec, seed=3, trial=1)
        for _ in range(20):
            x = exact_point(spec, st)
            st2 = step(spec, st)
            y = exact_point(spec, st2)
            mapped = (x * spec.m) % 1
            assert abs(y - mapped) < Fraction(spec.m) ** -(63)
            st = st2


def test_dyadic_jump_strips_branch_prefix():
    spec = ProcessSpec.dyadic_jump()
    st = ProcessState(spec, DigitStream.periodic(2, [0, 0, 1, 1, 0, 1]), 0)
    st2 = step(spec, st)
    assert st2.cursor == 3  # skipped past 0,0,1
    # f(x) = 2^k (x - 2^-k) on branch k=3
    x = evaluate_point(spec, st)
    fx = evaluate_point(spec, st2)
    assert abs(fx - (2**3) * (x - 2**-3)) < 1e-12


def test_ar1_digit_model_matches_exact_recursion():
    spec = ProcessSpec.ar1(3)
    st = sample_initial(spec, seed=5)
    x = exact_point(spec, st)
    series = [evaluate_point(spec, st)]
    for k in range(1000):
        eps = Fraction(int(st.stream[64 + k]), 3)
        x = x / 3 + eps
        st = step(spec, st)
        series.append(evaluate_point(spec, st))
        assert abs(float(x) - series[-1]) < 1e-12


def test_engine_matches_scalar_stepping():
    for spec in ALL_SPECS:
        if spec.kind == "dyadic_jump":
            continue
        pts = point_values_range(spec, 31, [0, 1, 2], 0, 60)
        for trial in range(3):
            st = sample_initial(spec, 31, trial=trial)
            for t in range(60):
                assert evaluate_point(spec, st) == pytest.approx(pts[trial, t], abs=1e-12)
                st = step(spec, st)


def test_dyadic_engine_matches_scalar():
    spec = ProcessSpec.dyadic_jump()
    pts = point_values_range(spec, 13, [0, 1], 0, 40)
    for trial in range(2):
        st = sample_initial(spec, 13, trial=trial)
        for t in range(40):
            assert evaluate_point(spec, st) == pytest.approx(pts[trial, t], abs=1e-12)
            st = step(spec, st)


def test_engine_windows_are_positional():
    # a window starting past step 0 equals the tail of the full sweep
    for spec in ALL_SPECS:
        if spec.kind == "dyadic_jump":
            continue
        full = point_values_range(spec, 19, [0, 1, 2], 0, 60)
        assert np.array_equal(point_values_range(spec, 19, [0, 1, 2], 40, 60), full[:, 40:])
    jump = ProcessSpec.dyadic_jump()
    ev = observables.ExceedanceEvent("interval", lo=0.2, hi=0.3)
    with pytest.raises(ValueError):
        PathEngine(jump, 19, [0, 1]).masks(5, 10, ev)
    eng = PathEngine(jump, 19, [0, 1])
    eng.masks(0, 10, ev)
    with pytest.raises(ValueError):
        eng.masks(10, 20, ev)


@pytest.mark.parametrize(
    "spec",
    [ProcessSpec.doubling(), ProcessSpec.bernoulli_doubling(0.3), ProcessSpec.m_ary(3),
     ProcessSpec.chebyshev(), ProcessSpec.ar1(2), ProcessSpec.ar1(3)],
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


def test_observe_path_reproducible():
    spec = ProcessSpec.chebyshev()
    obs = observables.ObservableSpec(family="distance", form="weibull", anchor="0")
    a = observe_path(spec, obs, seed=2, n=200, trial=7)
    b = observe_path(spec, obs, seed=2, n=200, trial=7)
    assert np.array_equal(a, b)
    c = observe_path(spec, obs, seed=2, n=200, trial=8)
    assert not np.array_equal(a, c)


def test_chunking_does_not_change_paths():
    spec = ProcessSpec.ar1(3)
    full = point_values_range(spec, 77, np.arange(64), 0, 100)
    subset = point_values_range(spec, 77, np.arange(40, 64), 0, 100)
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
        return observables.ExceedanceEvent("cylinder", word=tuple(word))
    if spec.kind in ("m_ary", "chebyshev"):
        lo = data.draw(st.floats(0.0, 1.0, exclude_max=True))
        return observables.ExceedanceEvent("circle", lo=lo, hi=(lo + 0.2) % 1.0)
    if spec.kind == "dyadic_jump":
        lo = data.draw(st.floats(0.0, 0.8))
        return observables.ExceedanceEvent("interval", lo=lo, hi=lo + 0.2)
    return observables.ExceedanceEvent("gt", u=data.draw(st.floats(0.3, 0.95)))


def _cuts(data, n):
    """0 = c_0 < c_1 < ... < c_k = n."""
    inner = data.draw(st.lists(st.integers(1, n - 1), max_size=5)) if n > 1 else []
    return [0, *sorted(set(inner)), n]


@pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: s.label)
@settings(max_examples=20, deadline=None, derandomize=True)
@given(data=st.data())
def test_engine_masks_window_and_chunk_invariant(spec, data):
    # trial chunks swept over increasing windows (some skipped) reproduce
    # one one-shot sweep; the jump map sweeps one whole window per chunk
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
        steps = [0, n] if spec.kind == "dyadic_jump" else _cuts(data, n)
        for t0, t1 in zip(steps, steps[1:]):
            if t0 > 0 and data.draw(st.booleans()):
                continue  # skipped window: the engine scans through it
            assert np.array_equal(eng.masks(t0, t1, ev), whole[a:b, t0:t1])
    # points exist in the event's coordinate for all but chebyshev (x-space
    # points, theta-space events)
    if not ev.is_cylinder and spec.kind != "chebyshev":
        pts = point_values_range(spec, seed, ids, 0, n)
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
    "circle": observables.ExceedanceEvent("circle", lo=0.8, hi=0.15),
    "gt": observables.ExceedanceEvent("gt", u=0.6),
}
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


def _engine_kat(spec, quantity, seed=2024):
    h = hashlib.sha256()
    for trials, k, windows in ENGINE_KAT_RUNS:
        prefix = None
        if k:
            prefix = (np.arange(len(trials) * k).reshape(len(trials), k) * 7 % spec.base).astype(np.uint8)
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
    digits = PathEngine(spec, 5, trials, prefix=prefix).digit_matrix(0, 470, lookahead=PRECISION)
    ref = _per_step_values(spec, digits, windows)
    ev = observables.ExceedanceEvent("circle", lo=0.8, hi=0.15)
    for block in (1, 7, processes.SCAN_BLOCK):
        monkeypatch.setattr(processes, "SCAN_BLOCK", block)
        pts, masks = PathEngine(spec, 5, trials, prefix=prefix), PathEngine(spec, 5, trials, prefix=prefix)
        for (t0, t1), want in zip(windows, ref):
            got = pts.points(t0, t1)
            exposed = -np.cos(2.0 * np.pi * want) if spec.kind == "chebyshev" else want
            assert got.tobytes() == exposed.tobytes(), (block, t0)
            assert masks.masks(t0, t1, ev).tobytes() == ev.mask_native(want).tobytes(), (block, t0)
    assert 0.0 < ref[1].min() < float(spec.base) ** -250  # tiny values were scanned
