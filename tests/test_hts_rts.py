import hashlib
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from evl_lab import rng, theory
from evl_lab.hts_rts import (
    TargetSet,
    TimeSampleSet,
    _rts_prefix,
    check_integral_relation,
    ks_distance,
    sample_hts,
    sample_rts,
)
from evl_lab.observables import ExceedanceEvent, ObservableSpec, bernoulli_cdf
from evl_lab.processes import PRECISION, TIME_BLOCK, ProcessSpec
from evl_lab.symbolic import champernowne_bits
from tests.oracles import contains_state, hitting_time, path, rts_quantile

DOUB = ProcessSpec.doubling()


def test_hitting_time_enters_at_step_three():
    # orbit digits 000110 000110 ...: the cylinder '11' is first entered at step 3
    seq = np.resize([0, 0, 0, 1, 1, 0], 60)
    tgt = TargetSet.cylinder(DOUB, "11")
    assert hitting_time(tgt, seq, 0, 50) == 3
    tgt1 = TargetSet.cylinder(DOUB, "111")
    assert hitting_time(tgt1, seq, 0, 50) is None  # never three ones in a row


def test_hitting_time_start_in_target_censored():
    # a path inside the cylinder '01' whose orbit never returns to it
    seq = np.r_[[0, 1], np.zeros(200, dtype=np.uint8)]
    tgt = TargetSet.cylinder(DOUB, "01")
    assert contains_state(tgt, seq, 0)
    assert hitting_time(tgt, seq, 0, 200) is None


def test_hitting_time_matches_engine():
    tgt = TargetSet.ball(DOUB, "0", 2.0**-6)
    from evl_lab import rng
    from evl_lab.hts_rts import _first_hits_engine

    steps = _first_hits_engine(DOUB, tgt, 8, 55, 3000, rng.CH_ORBIT)
    for trial in range(8):
        assert hitting_time(tgt, path(DOUB, 55, trial, 3001 + PRECISION), 0, 3000) == int(steps[trial])


def test_kac_mean_return():
    tgt = TargetSet.ball(DOUB, "0", 2.0**-10)
    assert tgt.measure == pytest.approx(2.0**-9)
    rts = sample_rts(DOUB, tgt, 20000, seed=71, horizon_factor=60)
    mean = rts.times.mean() / tgt.measure  # raw steps
    se = rts.times.std(ddof=1) / tgt.measure / math.sqrt(rts.times.size)
    assert abs(mean - 512.0) <= 3 * se


def test_hts_law_doubling(ks):
    tgt = TargetSet.ball(DOUB, "0", 2.0**-10)
    hts = sample_hts(DOUB, tgt, 20000, seed=73)
    d = ks_distance(hts, theory.theoretical_cdf("hts", 0.5))
    assert d <= 0.02


def test_hts_radius_independence():
    vals = []
    for delta in (2.0**-8, 2.0**-10, 2.0**-12):
        tgt = TargetSet.ball(DOUB, "0", delta)
        hts = sample_hts(DOUB, tgt, 10000, seed=79)
        vals.append(ks_distance(hts, theory.theoretical_cdf("hts", 0.5)))
    assert max(vals) <= 0.025
    assert max(vals) - min(vals) <= 0.02


def test_hts_nonperiodic_anchor_is_unit_rate():
    word = str(champernowne_bits(24))
    tgt = TargetSet.ball(DOUB, word, 2.0**-10)
    hts = sample_hts(DOUB, tgt, 15000, seed=83)
    assert ks_distance(hts, theory.theoretical_cdf("hts", 1.0)) <= 0.02


def test_rts_law_periodic_anchor():
    spec = ProcessSpec.bernoulli_doubling(0.3)
    tgt = TargetSet.ball(spec, "01", 2.0**-10)
    rts = sample_rts(spec, tgt, 15000, seed=89)
    unc = ~rts.censored
    # returns at exactly p = 2 raw steps carry the capture mass 1 - theta
    raw = np.round(rts.times / tgt.measure).astype(int)
    at_p = float(((raw == 2) & unc).mean())
    assert abs(at_p - 0.21) <= 0.03
    atom = float(((rts.times <= 0.01) & unc).mean())
    assert abs(atom - 0.21) <= 0.03


def test_iid_control_rts_equals_hts_exponential():
    spec = ProcessSpec.iid_uniform()
    tgt = TargetSet.ball(spec, None, 2.0**-9)
    hts = sample_hts(spec, tgt, 15000, seed=97)
    rts = sample_rts(spec, tgt, 15000, seed=98)
    F = theory.theoretical_cdf("hts", 1.0)
    assert ks_distance(hts, F) <= 0.02
    assert ks_distance(rts, F) <= 0.02


def test_censoring_mass_matches_survival():
    tgt = TargetSet.ball(DOUB, "0", 2.0**-9)
    hts = sample_hts(DOUB, tgt, 50000, seed=91, horizon_factor=10)
    expect = math.exp(-0.5 * 10.0)
    se = math.sqrt(expect * (1 - expect) / 50000)
    assert abs(hts.censored.mean() - expect) <= 3 * se + 1e-3
    with pytest.raises(ValueError):
        sample_hts(DOUB, tgt, 100, seed=91, horizon_factor=3)


def test_ks_distance_quantile_construction():
    n = 1000
    q = (np.arange(1, n + 1) - 0.5) / n
    times = -np.log(1.0 - q)  # exact Exp(1) quantiles
    s = TimeSampleSet(times, np.zeros(n, dtype=bool), "hts", 50.0, 1e-3)
    assert ks_distance(s, lambda t: 1.0 - np.exp(-np.asarray(t))) <= 0.5 / n + 1e-12


def test_ks_distance_single_sample_at_median():
    s = TimeSampleSet(np.array([math.log(2.0)]), np.array([False]), "hts", 50.0, 1e-3)
    assert ks_distance(s, lambda t: 1.0 - np.exp(-np.asarray(t))) == pytest.approx(0.5)


def test_ks_distance_inverse_cdf_draws():
    from evl_lab import rng

    u = rng.uniforms(3, 3, [9], 0, 100000)[0]
    times = -np.log(1.0 - u) / 0.5
    s = TimeSampleSet(times, np.zeros_like(times, dtype=bool), "hts", 1e9, 1e-3)
    assert ks_distance(s, theory.theoretical_cdf("hts", 0.5)) <= 0.006


def test_ks_distance_empty_error():
    s = TimeSampleSet(np.array([1.0]), np.array([True]), "hts", 1.0, 1e-3)
    with pytest.raises(ValueError):
        ks_distance(s, lambda t: np.asarray(t))


def test_integral_relation_closed_forms_zero():
    # with exact quantile samples of both laws the relation closes to O(1/n)
    n = 20000
    q = (np.arange(1, n + 1) - 0.5) / n
    theta = 0.75
    g = theory.theoretical_cdf("hts", theta)
    hts_times = -np.log(1.0 - q) / theta
    rts_times = np.array([rts_quantile(theta, x) for x in q])
    hts = TimeSampleSet(hts_times, np.zeros(n, dtype=bool), "hts", 1e9, 1e-4)
    rts = TimeSampleSet(rts_times, np.zeros(n, dtype=bool), "rts", 1e9, 1e-4)
    dev = check_integral_relation(hts, rts, np.linspace(0.1, 6.0, 30))
    assert dev <= 2e-3


def test_integral_relation_monte_carlo_pair():
    tgt = TargetSet.ball(DOUB, "0", 2.0**-10)
    hts = sample_hts(DOUB, tgt, 20000, seed=73)
    rts = sample_rts(DOUB, tgt, 20000, seed=74)
    dev = check_integral_relation(hts, rts, np.linspace(0.1, 5.0, 25))
    assert dev <= 0.03


def test_integral_relation_mismatched_pair_detected():
    # negative control: HTS from the unit-rate law against RTS from a
    # clustered law; closed forms give sup_t |e^{-3t/4} - e^{-t}| ~ 0.1055
    n = 20000
    q = (np.arange(1, n + 1) - 0.5) / n
    hts_times = -np.log(1.0 - q)  # theta = 1
    rts_times = np.array([rts_quantile(0.75, x) for x in q])
    hts = TimeSampleSet(hts_times, np.zeros(n, dtype=bool), "hts", 1e9, 1e-4)
    rts = TimeSampleSet(rts_times, np.zeros(n, dtype=bool), "rts", 1e9, 1e-4)
    dev = check_integral_relation(hts, rts, np.linspace(0.1, 6.0, 40))
    assert dev >= 0.10


def test_integral_relation_grid_out_of_range():
    s = TimeSampleSet(np.array([0.5]), np.array([False]), "hts", 2.0, 1e-3)
    with pytest.raises(ValueError):
        check_integral_relation(s, s, np.array([5.0]))


def test_moving_max_start_law(ks):
    # starts conditioned on X_0 > u: window maximum M on its tail law, the
    # other window slots uniform below M, the free slots Uniform(0, 1)
    import evl_lab.hts_rts as H

    trials = 200_000
    bound = 1.63 / math.sqrt(trials)
    end = ObservableSpec(family="distance", form="weibull", anchor=None)
    uniform = lambda x: np.clip(x, 0.0, 1.0)
    for spec, slots in ((ProcessSpec.mma2(), [1, 3]), (ProcessSpec.mma13(), [0, 1, 3])):
        tgt = TargetSet.ball_of_measure(spec, end, 2.0**-3)
        u, k = tgt.event.arcs[0][0], len(slots)
        prefix = H._rts_prefix(spec, tgt, np.arange(trials), seed=5)
        window = prefix[:, slots]
        top = window.max(axis=1)
        assert (top > u).all()
        assert ks(top, lambda x: (x**k - u**k) / (1.0 - u**k)) <= bound, spec.label
        is_top = window == top[:, None]
        for j in range(k):
            rest = window[~is_top[:, j], j] / top[~is_top[:, j]]
            assert ks(rest, uniform) <= 1.63 / math.sqrt(rest.size), (spec.label, slots[j])
        for j in sorted(set(range(4)) - set(slots)):
            assert ks(prefix[:, j], uniform) <= bound, (spec.label, j)
        unreachable = TargetSet(spec, "ball", None, 0.0, 1e-9, ExceedanceEvent(((1.5, math.inf),)))
        with pytest.raises(H.ConditionalStartError):
            H._rts_prefix(spec, unreachable, np.arange(10), seed=5)


def test_first_hits_engine_matches_scalar_cylinder_and_jump():
    from evl_lab import rng
    from evl_lab.hts_rts import _first_hits_engine

    jump = ProcessSpec.dyadic_jump()
    for spec, tgt, horizon in (
        (DOUB, TargetSet.cylinder(DOUB, "0110"), 300),
        (jump, TargetSet.ball(jump, "01", 2.0**-5), 300),
        (jump, TargetSet.cylinder(jump, "0110"), 300),
        (jump, TargetSet.cylinder(jump, "0100"), 300),  # r = 2 trailing zeros
        (jump, TargetSet.cylinder(jump, "000"), 300),  # no 1: the gap exceeds 3
        # hits in later windows, after select has dropped the paths that hit
        (jump, TargetSet.ball(jump, "01", 2.0**-12), 3 * TIME_BLOCK),
        (jump, TargetSet.cylinder(jump, "01101011010"), 3 * TIME_BLOCK),
    ):
        steps = _first_hits_engine(spec, tgt, 8, 57, horizon, rng.CH_ORBIT)
        assert (steps <= horizon).sum() >= 4
        for trial in range(8):
            hit = hitting_time(tgt, path(spec, 57, trial, horizon + 1 + PRECISION), 0, horizon)
            assert (horizon + 1 if hit is None else hit) == int(steps[trial]), (spec.label, trial)


def test_iid_start_law(ks, monkeypatch):
    # starts conditioned on X_0 > u are uniform on (u, 1], never at u itself
    import evl_lab.hts_rts as H

    spec = ProcessSpec.iid_uniform()
    trials = 200_000
    end = ObservableSpec(family="distance", form="weibull", anchor=None)
    tgt = TargetSet.ball_of_measure(spec, end, 2.0**-3)
    u = tgt.event.arcs[0][0]
    start = H._rts_prefix(spec, tgt, np.arange(trials), seed=5)[:, 0]
    assert (start > u).all() and (start <= 1.0).all()
    assert ks(start, lambda x: np.clip((x - u) / (1.0 - u), 0.0, 1.0)) <= 1.63 / math.sqrt(trials)
    unreachable = TargetSet(spec, "ball", None, 0.0, 1e-9, ExceedanceEvent(((1.5, math.inf),)))
    with pytest.raises(H.ConditionalStartError):
        H._rts_prefix(spec, unreachable, np.arange(10), seed=5)
    # a zero uniform draw maps to the top of the target, not to its open end u
    monkeypatch.setattr(H.rng, "uniforms", lambda seed, ch, ids, lo, hi: np.zeros((ids.size, hi - lo)))
    assert (H._rts_prefix(spec, tgt, np.arange(4), seed=5)[:, 0] == 1.0).all()


# sha256 of the series kinds' return-time starts at 1,000 trials, seed 2024,
# inside the endpoint ball of measure 2**-7
RTS_PREFIX_KAT = {
    "iid_uniform": "e04a7facd10312f1f0eb4e9c33577ec8c024ce1f2896956658671a9404b9e014",
    "mma2": "c542d1024b982b0db108ab7e9da65161c076fbf9848b9b2d70e2a1f31bca4518",
    "mma13": "144096dccd76c13953266960afd6bdfbcae4cad7efa2336538975b05b1a44aa8",
}


@pytest.mark.parametrize(
    "spec", [ProcessSpec.iid_uniform(), ProcessSpec.mma2(), ProcessSpec.mma13()], ids=lambda s: s.label
)
def test_series_rts_prefix_known_answer_digest(spec):
    from evl_lab.observables import ObservableSpec

    end = ObservableSpec(family="distance", form="weibull", anchor=None)
    prefix = _rts_prefix(spec, TargetSet.ball_of_measure(spec, end, 2.0**-7), np.arange(1000), 2024)
    assert prefix.shape == (1000, 1 if spec.kind == "iid_uniform" else 4)
    assert hashlib.sha256(prefix.tobytes()).hexdigest() == RTS_PREFIX_KAT[spec.label]


@pytest.mark.parametrize(
    "spec, anchor, delta",
    [(DOUB, "0", 0.5), (DOUB, "0", 0.7), (ProcessSpec.chebyshev(), "0", 2.0), (ProcessSpec.ar1(2), None, 1.5)],
    ids=lambda v: v.label if isinstance(v, ProcessSpec) else None,
)
def test_whole_space_target_returns_at_step_one(spec, anchor, delta):
    # a ball covering the space has measure 1: starts are unconditional and
    # every path is back in the target at step 1
    tgt = TargetSet.ball(spec, anchor, delta)
    assert tgt.measure == 1.0
    assert _rts_prefix(spec, tgt, np.arange(8), 5) is None
    rts = sample_rts(spec, tgt, 200, 5)
    assert not rts.censored.any() and np.all(rts.times == 1.0)


def _map_rts_targets():
    end = ObservableSpec(family="distance", form="weibull", anchor=None)
    bern = ProcessSpec.bernoulli_doubling(0.3)
    tern = ProcessSpec.m_ary(3, (0.2, 0.3, 0.5))
    return {
        "doubling@0": TargetSet.ball(DOUB, "0", 2.0**-10),
        "bernoulli(0.3)@01": TargetSet.ball(bern, "01", 2.0**-10),
        "bernoulli(0.3)@0": TargetSet.ball(bern, "0", 2.0**-8),
        "m_ary(3)@12": TargetSet.ball(tern, "12", 0.003),
        "chebyshev@0": TargetSet.ball(ProcessSpec.chebyshev(), "0", 2.0**-14),
        "dyadic_jump@01": TargetSet.ball(ProcessSpec.dyadic_jump(), "01", 0.01),
        "ar1(2)": TargetSet.ball_of_measure(ProcessSpec.ar1(2), end, 2.0**-7),
        "ar1(3)": TargetSet.ball_of_measure(ProcessSpec.ar1(3), end, 2.0**-7),
    }


# sha256 of the digit kinds' return-time starts at 1,000 trials, seed 2024:
# wrapped and plain arcs, uniform and weighted digits, and the ar1 endpoint
# balls of measure 2**-7
MAP_RTS_PREFIX_KAT = {
    "doubling@0": "fad2ea8361fd9c8b61b88c53aa91047e7572de4591a5c2a21f6f7b5adf50cec4",
    "bernoulli(0.3)@01": "a2b13dabb878573f878562f16d852aa62c12a423d07f263a1d5b2598ef8a15ab",
    "bernoulli(0.3)@0": "2b8901e388c88848f7a49c576051b12e74fa18dd9f74c0bb310d40a9d5c08dad",
    "m_ary(3)@12": "56a9c9436303710f751b97a6ff887e25ad7acb88bdd3208ab619f83b6c8ec28c",
    "chebyshev@0": "adfbdb2ac7c915c556364a2056e1ba1447ba2d450e565b740f86c573221dac30",
    "dyadic_jump@01": "d9ceff27b923ebc88d9b4466271fca139a65aa27aa256ad8249437e5bec735ec",
    "ar1(2)": "c9781ea18f2aa67bae9a80c0c915cf144231e9b00bc3b244406d7e0a07117e0e",
    "ar1(3)": "f8764b537586da5daa450dfcd387ca88ddb97a8c683cf0b5b2d1e59f05636f84",
}


@pytest.mark.parametrize("name", sorted(MAP_RTS_PREFIX_KAT))
def test_map_rts_prefix_known_answer_digest(name):
    tgt = _map_rts_targets()[name]
    prefix = _rts_prefix(tgt.spec, tgt, np.arange(1000), 2024)
    assert prefix.dtype == (np.int16 if tgt.spec.kind == "dyadic_jump" else np.uint8) and prefix.shape[0] == 1000
    assert hashlib.sha256(prefix.tobytes()).hexdigest() == MAP_RTS_PREFIX_KAT[name]


def test_arcs_ending_at_one_draw_no_side_uniform(monkeypatch):
    # the ar1 starts and a jump-map arc clipped at 1 end at the top of the
    # circle and do not wrap through 0: no CH_INIT uniform at position 0
    # picks a side of them, and the starts are as pinned
    import evl_lab.hts_rts as H

    calls = []
    uniforms = H.rng.uniforms
    monkeypatch.setattr(
        H.rng, "uniforms", lambda seed, ch, ids, lo, hi: calls.append((ch, lo)) or uniforms(seed, ch, ids, lo, hi)
    )
    jump = ProcessSpec.dyadic_jump()
    tgt = TargetSet.ball(jump, "10", 0.4)  # (2/3 - 0.4, 2/3 + 0.4)
    assert tgt.event.arcs[0][1] > 1.0
    _rts_prefix(jump, tgt, np.arange(100), 2024)
    for name in ("ar1(2)", "ar1(3)"):
        tgt = _map_rts_targets()[name]
        prefix = _rts_prefix(tgt.spec, tgt, np.arange(1000), 2024)
        assert hashlib.sha256(prefix.tobytes()).hexdigest() == MAP_RTS_PREFIX_KAT[name]
    assert (rng.CH_INIT, 1) in calls and (rng.CH_INIT, 0) not in calls


def test_forced_descent_depths_draw_no_uniform(monkeypatch):
    # the 11 descent depths of a doubling@0 start of measure 2**-10 each have
    # one child of positive mass: the digits are read off the table, and the
    # one CH_INIT draw is the position-0 arc pick; the starts are as pinned
    import evl_lab.hts_rts as H

    calls = []
    uniforms = H.rng.uniforms
    monkeypatch.setattr(
        H.rng, "uniforms", lambda seed, ch, ids, lo, hi: calls.append((ch, lo, hi)) or uniforms(seed, ch, ids, lo, hi)
    )
    tgt = _map_rts_targets()["doubling@0"]
    prefix = _rts_prefix(DOUB, tgt, np.arange(1000), 2024)
    assert hashlib.sha256(prefix.tobytes()).hexdigest() == MAP_RTS_PREFIX_KAT["doubling@0"]
    assert [c for c in calls if c[0] == rng.CH_INIT] == [(rng.CH_INIT, 0, 1)]


def _two_arc_target():
    """A Bernoulli(0.3) target made of two arcs that do not wrap."""
    spec = ProcessSpec.bernoulli_doubling(0.3)
    event = ExceedanceEvent(((0.1, 0.25), (0.6, 0.7)))
    mu = sum(np.diff(bernoulli_cdf(np.array(event.arcs), spec.digit_weights), axis=1)[:, 0])
    return TargetSet(spec, "ball", None, 0.0, float(mu), event)


@pytest.mark.parametrize("name", ["bernoulli(0.3)@01", "bernoulli(0.3)@0", "m_ary(3)@12", "bernoulli(0.3)@two arcs"])
def test_weighted_arc_start_law(ks, name):
    # starts read from their first 60 digits lie in the arcs and follow the
    # invariant measure conditioned on them, along the arcs in their order
    trials = 20_000
    tgt = {**_map_rts_targets(), "bernoulli(0.3)@two arcs": _two_arc_target()}[name]
    spec, ev = tgt.spec, tgt.event
    m = spec.base
    x = np.zeros(trials)
    for d in _rts_prefix(spec, tgt, np.arange(trials), seed=5)[:, 59::-1].T:
        x = (x + d) / m
    assert ev.mask_native(x).all()
    F = lambda t: bernoulli_cdf(t, spec.digit_weights)
    arcs = np.clip(np.array(ev.arcs), 0.0, 1.0)
    along = sum(F(np.clip(x, a, b)) - F(a) for a, b in arcs)  # the mass of the arcs left of x
    assert ks(along / sum(F(b) - F(a) for a, b in arcs), lambda p: p) <= 1.63 / math.sqrt(trials)


def _interval_prefix_by_loops(spec, arcs, trials, seed, depth=PRECISION + 16):
    """Conditional-start digits one trial at a time: each trial picks its arc
    by its position-0 uniform against the arcs' cumulative masses, then
    carries its own (rel_lo, rel_hi) and sums its m conditional digit masses
    in a plain loop over the digits."""
    w = spec.digit_weights.tolist()
    m = len(w)
    F = (lambda t: t) if spec.is_uniform else (lambda t: bernoulli_cdf(t, spec.digit_weights))
    clip = lambda t: min(max(t, 0.0), 1.0)
    arcs = [(clip(a), clip(b)) for a, b in arcs]
    cum_mass = [0.0]
    for a, b in arcs:
        cum_mass.append(cum_mass[-1] + (F(b) - F(a)))
    u = rng.uniforms(seed, rng.CH_INIT, np.arange(trials, dtype=np.uint64), 0, depth + 1).tolist()
    out = []
    for trial in range(trials):
        digits = path(spec, seed, trial, depth).tolist()
        a, b = arcs[sum(u[trial][0] * cum_mass[-1] >= c for c in cum_mass[1:-1])]
        for k in range(depth):
            if (a, b) == (0.0, 1.0):  # the cell lies inside: stream digits from here
                break
            cum = [0.0]
            for d in range(m):
                cum.append(cum[-1] + w[d] * (F(clip(m * b - d)) - F(clip(m * a - d))))
            target = u[trial][k + 1] * cum[-1]
            d = min(sum(target >= c for c in cum[1:]), m - 1)
            digits[k] = d
            a, b = clip(m * a - d), clip(m * b - d)
        out.append(digits)
    return np.array(out, dtype=np.uint8)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(data=st.data())
def test_interval_descent_matches_per_trial_loops(data):
    import evl_lab.hts_rts as H

    m = data.draw(st.sampled_from([2, 3, 5]), label="m")
    raw = data.draw(st.lists(st.integers(1, 9), min_size=m, max_size=m), label="weights")
    spec = ProcessSpec.m_ary(m, [x / sum(raw) for x in raw] if data.draw(st.booleans()) else None)

    def endpoint():
        k = data.draw(st.integers(1, 12))
        if data.draw(st.booleans()):
            # on a digit boundary: an arc between two close ones starts with
            # a run of forced digits, up to 12 long, across a draw block
            # (_DRAW_DEPTHS = 8)
            return data.draw(st.integers(0, m**k)) / m**k
        return data.draw(st.floats(0.0, 1.0))

    # 1 to 3 sorted disjoint arcs; with ends at -inf and inf, the first and
    # last make an arc wrapped through 0
    ends = sorted({endpoint() for _ in range(2 * data.draw(st.integers(1, 3), label="arcs"))})
    assume(len(ends) >= 2)
    if data.draw(st.booleans(), label="wrapped"):
        ends = [-math.inf, *ends, math.inf]
    arcs = tuple(zip(ends[::2], ends[1::2]))
    sizes = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(H, "bernoulli_cdf", lambda t, w: sizes.append(np.size(t)) or bernoulli_cdf(t, w))
        prefix = H._interval_digit_prefix(spec, arcs, np.arange(20_000), seed=3)
    assert max(sizes, default=0) <= 2 * len(arcs) * m, (spec.label, arcs)
    want = _interval_prefix_by_loops(spec, arcs, 20, seed=3)
    assert np.array_equal(prefix[:20], want), (spec.label, arcs)


def test_collapsed_ball_is_a_named_error():
    # 2/3 +- 1e-17 rounds to 2/3: no float lies inside this ball, whose mask
    # would never fire, whether its measure reads 2e-17 (uniform) or 0 (Bernoulli)
    for spec in (DOUB, ProcessSpec.bernoulli_doubling(0.3)):
        with pytest.raises(ValueError, match=r"radius 1e-17 around 0\.666.*is empty"):
            TargetSet.ball(spec, "10", 1e-17)
