import math
import tracemalloc

import numpy as np
import pytest

from evl_lab import rng
from evl_lab.escapes import EscapeOffsets, _ratio, escape_statistics, periodicity_report
from evl_lab.estimators import (
    ATOM_EPS,
    EIEstimate,
    ball_annulus_gap,
    cylinder_ei,
    ei_from_max,
    ei_rts_atom,
    ei_runs_nested,
    estimate_ei_bundle,
    estimate_escape_law,
    survey_max_and_escapes,
)
from evl_lab.hts_rts import TargetSet, TimeSampleSet, _first_hits_engine, _time_samples, sample_rts
from evl_lab.observables import (
    ExceedanceEvent,
    LevelSchedule,
    ObservableSpec,
    exceedance_event,
    level_for_tau,
    omega_for_cylinder,
)
from evl_lab.processes import TIME_BLOCK, Ensemble, ProcessSpec
from evl_lab.symbolic import SymbolicWord, cylinder_measure
from tests.oracles import dense_mask_chunks, rts_quantile

END_OBS = ObservableSpec(family="distance", form="weibull", anchor=None)
BALL0 = ObservableSpec(family="ball_measure", form="gumbel", anchor="0")


def _max_law(spec, obs, tau, n, trials, seed):
    """(P(max of n steps <= u_n), stderr) from the order-1 survey."""
    s = survey_max_and_escapes(spec, obs, 1, tau, n, trials, seed)
    return s["p_max"], s["se_max"]


def test_ei_from_max_examples():
    assert ei_from_max(math.exp(-0.75), 1.0).theta == pytest.approx(0.75, abs=1e-12)
    assert ei_from_max(0.6065, 1.0).theta == pytest.approx(0.500, abs=1e-3)
    assert ei_from_max(1.0, 2.0).theta == 0.0
    with pytest.raises(ValueError):
        ei_from_max(0.0, 1.0)
    with pytest.raises(ValueError):
        ei_from_max(0.5, 0.0)


def test_clamping_flags_out_of_range():
    e = EIEstimate.clamp(1.2, 0.01, "MaxLaw")
    assert e.theta == 1.0 and e.clamped


@pytest.mark.parametrize("trials", [0, 1])
def test_fewer_than_two_trials_is_a_named_error(trials):
    spec, n, offs = ProcessSpec.ar1(2), 100, EscapeOffsets((1,))
    levels = LevelSchedule(spec, END_OBS, tau=1.0)
    calls = [
        lambda: estimate_escape_law(spec, END_OBS, offs, 1.0, n, trials, 1),
        lambda: estimate_escape_law(spec, END_OBS, offs, 0.0, n, trials, 1),
        lambda: survey_max_and_escapes(spec, END_OBS, offs, 1.0, n, trials, 1),
        lambda: ball_annulus_gap(spec, END_OBS, offs, 1.0, n, trials, 1),
        lambda: estimate_ei_bundle(spec, END_OBS, offs, 1.0, n, trials, 1),
        lambda: cylinder_ei(ProcessSpec.doubling(), "01", 1.0, trials, 1),
        lambda: periodicity_report(Ensemble(spec, 1, trials, n, obs=END_OBS), offs, 0.5, levels, n),
        lambda: escape_statistics(Ensemble(spec, 1, trials, n, obs=END_OBS), offs, n, levels),
    ]
    for call in calls:
        with pytest.raises(ValueError, match="need at least 2 trials"):
            call()


@pytest.mark.parametrize(
    "spec, obs",
    [
        (ProcessSpec.mma13(), END_OBS),
        (ProcessSpec.ar1(2), END_OBS),
        (ProcessSpec.dyadic_jump(), ObservableSpec(family="ball_measure", form="gumbel", anchor="01")),
    ],
    ids=["mma13", "ar1_2", "dyadic_jump"],
)
def test_max_law_memory_flat_in_n(spec, obs):
    """A sweep holds one TIME_BLOCK window of each path at a time, so the
    peak allocation barely moves from 2 to 32 windows of horizon."""

    def peak(n):
        tracemalloc.start()
        try:
            _max_law(spec, obs, 1.0, n, 256, seed=5)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    small, large = peak(2 * TIME_BLOCK), peak(32 * TIME_BLOCK)
    assert large <= 1.5 * small, (small, large)


def test_max_law_doubling():
    p, se = _max_law(ProcessSpec.doubling(), BALL0, 1.0, 5000, 20000, seed=101)
    assert abs(p - math.exp(-0.5)) <= 3 * se + 0.005


def test_max_law_ar1():
    p, se = _max_law(ProcessSpec.ar1(2), END_OBS, 1.0, 5000, 20000, seed=103)
    assert abs(p - math.exp(-0.5)) <= 3 * se + 0.005


def test_max_law_iid_control():
    p, se = _max_law(ProcessSpec.iid_uniform(), END_OBS, 1.0, 5000, 20000, seed=105)
    assert abs(p - math.exp(-1.0)) <= 3 * se + 0.005


def test_escape_law_tau_zero_is_one():
    p, se = estimate_escape_law(ProcessSpec.doubling(), BALL0, 1, 0.0, 100, 100, seed=1)
    assert p == 1.0 and se == 0.0


def test_escape_law_mma13_order2():
    p, se = estimate_escape_law(
        ProcessSpec.mma13(), END_OBS, EscapeOffsets((1, 3)), 1.0, 8000, 30000, seed=107
    )
    assert abs(p - math.exp(-1.0 / 3.0)) <= 3 * se + 0.01


def test_runs_ar1_r3():
    spec = ProcessSpec.ar1(3)
    ens = Ensemble(spec, 109, 20000, 2000, obs=END_OBS)
    est = ei_runs_nested(ens, 1, 0.99)[-1]
    assert abs(est.theta - 2.0 / 3.0) <= 0.02


def test_runs_mma2():
    spec = ProcessSpec.mma2()
    ens = Ensemble(spec, 111, 20000, 2000, obs=END_OBS)
    u = level_for_tau(spec, END_OBS, 2000, 1.0)
    est = ei_runs_nested(ens, 2, u)[-1]
    assert abs(est.theta - 0.5) <= 0.02


def test_runs_bernoulli_periodic_point():
    spec = ProcessSpec.bernoulli_doubling(0.3)
    obs = ObservableSpec(family="ball_measure", form="gumbel", anchor="01")
    ens = Ensemble(spec, 113, 20000, 2000, obs=obs)
    u = level_for_tau(spec, obs, 2000, 1.0)
    est = ei_runs_nested(ens, 2, u)[-1]
    assert abs(est.theta - 0.79) <= 0.03


def test_runs_requires_conditioning_events():
    spec = ProcessSpec.doubling()
    ens = Ensemble(spec, 1, 50, 50, obs=BALL0)
    with pytest.raises(ValueError):
        ei_runs_nested(ens, 1, 30.0)  # level far above anything observable


def test_rts_atom_synthetic_mixture():
    # inverse-CDF oracle draws from the return-time mixture law itself
    theta = 0.6
    rng = np.random.default_rng(7)
    q = rng.random(40000)
    times = np.array([rts_quantile(theta, x) for x in q])
    samples = TimeSampleSet(times, np.zeros_like(times, dtype=bool), "rts", 50.0, 1e-3)
    est = ei_rts_atom(samples)
    assert abs(est.theta - theta) <= 0.02


def test_rts_atom_empty_error():
    s = TimeSampleSet(np.array([]), np.array([], dtype=bool), "rts", 1.0, 1e-3)
    with pytest.raises(ValueError):
        ei_rts_atom(s)


def test_bundle_cross_estimator_agreement_true_three_quarters():
    # the jump-map branch-2 fixed point genuinely carries index 3/4
    spec = ProcessSpec.dyadic_jump()
    obs = ObservableSpec(family="distance", form="weibull", anchor="01")
    ests = estimate_ei_bundle(spec, obs, 1, 1.0, 1500, 12000, seed=115, rts_measure=2.0**-8)
    for e in ests:
        assert abs(e.theta - 0.75) <= 3 * e.stderr + 0.02, (e.method, e.theta)


@pytest.mark.parametrize(
    "spec, anchor",
    [
        (ProcessSpec.doubling(), "0"),
        (ProcessSpec.bernoulli_doubling(0.3), "01"),
        (ProcessSpec.chebyshev(), "0"),
        (ProcessSpec.ar1(3), None),
        (ProcessSpec.mma2(), None),
        (ProcessSpec.dyadic_jump(), "01"),
    ],
    ids=lambda x: getattr(x, "label", x),
)
def test_bundle_rts_atom_equals_full_horizon_estimate(spec, anchor):
    # the bundle sweeps returns only to ATOM_EPS; the full-horizon sample
    # gives the same atom, so the same floats
    obs = ObservableSpec(family="distance", form="weibull", anchor=anchor)
    trials, seed = 3000, 23
    got = estimate_ei_bundle(spec, obs, 1, 1.0, 300, trials, seed)[3]
    target = TargetSet.ball_of_measure(spec, obs, 2.0**-10)
    want = ei_rts_atom(sample_rts(spec, target, trials, seed + 1))
    assert got.method == "RtsAtom"
    assert (got.theta, got.stderr) == (want.theta, want.stderr)


def test_rts_atom_counts_returns_at_the_atom_edge():
    # mu = ATOM_EPS / 32 exactly, so a return at step 32 has normalized time
    # ATOM_EPS: it lies in the atom and inside the short sweep's horizon
    spec = ProcessSpec.doubling()
    target = TargetSet.ball(spec, "0", ATOM_EPS / 64)
    assert ATOM_EPS / target.measure == 32.0
    steps_h = math.ceil(ATOM_EPS / target.measure)
    steps = _first_hits_engine(spec, target, 4000, 3, steps_h, rng.CH_ORBIT, starts=True)
    short = _time_samples(steps, steps_h, "rts", target.measure)
    full = sample_rts(spec, target, 4000, 3)
    assert short.horizon == ATOM_EPS
    edge = (full.times == ATOM_EPS) & ~full.censored
    assert edge.any()
    assert not short.censored[edge].any()
    unc = ~short.censored
    assert np.array_equal(short.times[unc], full.times[unc])
    assert np.array_equal(unc, (full.times <= ATOM_EPS) & ~full.censored)
    assert ei_rts_atom(short) == ei_rts_atom(full)


def test_bundle_iid_control_all_methods_near_one():
    ests = estimate_ei_bundle(
        ProcessSpec.iid_uniform(), END_OBS, 1, 1.0, 3000, 15000, seed=117, rts_measure=2.0**-8
    )
    for e in ests:
        assert abs(e.theta - 1.0) <= 3 * e.stderr + 0.02, (e.method, e.theta)


def test_tau_invariance_of_max_law():
    spec = ProcessSpec.doubling()
    thetas = []
    for tau in (0.5, 1.0, 2.0):
        p, se = _max_law(spec, BALL0, tau, 4000, 15000, seed=119)
        est = ei_from_max(p, tau, se)
        thetas.append((est.theta, est.stderr))
    for (t1, s1), (t2, s2) in zip(thetas, thetas[1:]):
        assert abs(t1 - t2) <= 3 * math.hypot(s1, s2) + 0.01


def test_monotone_consistency_in_n():
    spec = ProcessSpec.doubling()
    errs = {}
    for n in (1000, 10000, 100000):
        p, se = _max_law(spec, BALL0, 1.0, n, 8000, seed=121)
        est = ei_from_max(p, 1.0, se)
        errs[n] = (abs(est.theta - 0.5), est.stderr)
    assert errs[100000][0] <= errs[1000][0] + 3 * math.hypot(errs[1000][1], errs[100000][1])


def test_ball_annulus_gap_small():
    gap, s = ball_annulus_gap(ProcessSpec.ar1(2), END_OBS, 1, 1.0, 4000, 20000, seed=123)
    assert gap <= 0.01


def test_max_hitting_duality_bookkeeping():
    # the no-exceedance event of the maximum equals "first exceedance index
    # >= n" on the same trajectories: cross-check two independent code paths.
    from evl_lab.hts_rts import TargetSet, _first_hits_engine
    from evl_lab.observables import exceedance_event
    from evl_lab import rng as _rng

    spec = ProcessSpec.doubling()
    n, trials = 400, 3000
    u = level_for_tau(spec, BALL0, n, 1.0)
    ev = exceedance_event(spec, BALL0, u)
    ens = Ensemble(spec, 87, trials, n)
    chunks = [m for _, m in dense_mask_chunks(ens, ev)]
    E = np.concatenate(chunks)[:, :n]
    quiet = ~E.any(axis=1)
    # the exceedance set {X_0 > u_n} as a hitting target of the same measure
    target = TargetSet.ball_of_measure(spec, BALL0, BALL0.g_inverse(u))
    assert target.event == ev
    steps = _first_hits_engine(spec, target, trials, 87, n + 10, _rng.CH_ORBIT)
    # hits count from step 1; adding back the step-0 exceedance closes the identity
    assert np.array_equal(quiet, (steps >= n) & ~E[:, 0])


def test_cylinder_ei_periodic_word():
    spec = ProcessSpec.bernoulli_doubling(0.3)
    est = cylinder_ei(spec, "0101010101", 1.0, 20000, seed=125)
    assert abs(est.theta - 0.79) <= 3 * est.stderr + 0.02


def test_survey_exceedance_count_scale():
    s = survey_max_and_escapes(ProcessSpec.ar1(2), END_OBS, 1, 1.0, 2000, 5000, seed=127)
    # about tau exceedances per path
    assert abs(s["exceedances"] / 5000 - 1.0) <= 0.1


def _survey_by_loops(ens, event, offs):
    """Shares of paths with no exceedance and with no last-order escape in
    [0, n), and per order the runs (ratio, stderr, events), by plain loops
    over the dense exceedance masks, one path at a time."""
    n = ens.length
    quiet_max = quiet_esc = 0
    escapes, events = [[] for _ in offs], [[] for _ in offs]
    for _, e in dense_mask_chunks(ens, event, extra=sum(offs)):
        for row in e.tolist():
            quiet_max += not any(row[:n])
            level = row
            for k, p in enumerate(offs):
                child = [level[j] and not level[j + p] for j in range(len(level) - p)]
                escapes[k].append(sum(child[:n]))
                events[k].append(sum(level[:n]))
                level = child
            quiet_esc += not any(level[:n])
    runs = [(*_ratio(a, b), float(sum(b))) for a, b in zip(escapes, events)]
    return quiet_max / ens.trials, quiet_esc / ens.trials, runs


def test_survey_views_match_plain_loops():
    n, trials, tau, seed = 100, 300, 4.0, 21

    def se(p):
        return math.sqrt(max(p * (1.0 - p), 1e-12) / trials)

    for spec, obs, offs in (
        (ProcessSpec.doubling(), BALL0, (1,)),
        (ProcessSpec.mma13(), END_OBS, (1, 3)),
    ):
        offsets = EscapeOffsets(offs)
        u = level_for_tau(spec, obs, n, tau)
        ens = Ensemble(spec, seed, trials, n, obs=obs)
        p_max, p_esc, runs = _survey_by_loops(ens, exceedance_event(spec, obs, u), offs)
        theta, se_runs, events = runs[-1]
        assert 0 < p_max <= p_esc < 1 and events >= 100
        assert estimate_escape_law(spec, obs, offsets, tau, n, trials, seed) == (p_esc, se(p_esc))
        nested = ei_runs_nested(ens, offsets, u)
        assert [(r.theta, r.stderr) for r in nested] == [run[:2] for run in runs]
        assert survey_max_and_escapes(spec, obs, offsets, tau, n, trials, seed) == {
            "u": u,
            "p_max": p_max,
            "se_max": se(p_max),
            "p_escape": p_esc,
            "se_escape": se(p_esc),
            "runs_theta": theta,
            "runs_se": se_runs,
            "exceedances": events,
        }
    spec = ProcessSpec.bernoulli_doubling(0.3)
    word = SymbolicWord.parse("0110", 2)
    omega = omega_for_cylinder(spec, word, tau)
    ens = Ensemble(spec, seed, trials, omega)
    p, _, _ = _survey_by_loops(ens, ExceedanceEvent(word=tuple(word.digits)), (1,))
    tau_eff = omega * cylinder_measure(word, spec.digit_weights)
    want = ei_from_max(p, tau_eff, se(p), "MaxLaw", n=omega, trials=trials)
    assert 0 < p < 1
    assert cylinder_ei(spec, "0110", tau, trials, seed) == want
