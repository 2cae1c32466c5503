import hashlib
import math

import numpy as np
import pytest

from evl_lab.observables import (
    LevelSchedule,
    ObservableSpec,
    ball_measure,
    ball_radius_for_measure,
    bernoulli_cdf,
    exceedance_event,
    level_for_tau,
    marginal_cdf,
    omega_for_cylinder,
    tail_probability,
)
from evl_lab.processes import Ensemble, PathEngine, ProcessSpec, point_values_at
from tests.conftest import ks_against

CHEB = ProcessSpec.chebyshev()
DOUB = ProcessSpec.doubling()
CHEB_OBS = ObservableSpec(family="distance", form="weibull", anchor="0", alpha=1.0, d=1.0)
BALL_G1 = ObservableSpec(family="ball_measure", form="gumbel", anchor="0")


def test_chebyshev_tail_square_root_scaling():
    s = 1e-4
    assert tail_probability(CHEB, CHEB_OBS, 1.0 - s) == pytest.approx(4.502e-3, rel=1e-3)
    assert tail_probability(CHEB, CHEB_OBS, 1.0 - s) == pytest.approx(
        math.sqrt(2 * s) / math.pi, rel=1e-2
    )


def test_measure_ball_tail_is_exponential_for_gumbel():
    for u in (0.5, 2.0, 5.0):
        assert tail_probability(DOUB, BALL_G1, u) == pytest.approx(math.exp(-u), rel=1e-12)


def test_doubling_distance_tail():
    obs = ObservableSpec(family="distance", form="gumbel", anchor="0")
    u = math.log(100.0)
    assert tail_probability(DOUB, obs, u) == pytest.approx(0.02, rel=1e-12)


def test_tail_above_essential_sup_is_zero():
    assert tail_probability(CHEB, CHEB_OBS, 1.5) == 0.0
    assert CHEB_OBS.top == 1.0


def test_level_chebyshev_quadratic_approximation():
    u = level_for_tau(CHEB, CHEB_OBS, 100, 1.0)
    assert u == pytest.approx(math.cos(math.pi / 100), abs=1e-12)
    assert u == pytest.approx(1 - math.pi**2 / 2e4, abs=1e-6)


def test_level_gumbel_ball_closed_form():
    for n, tau in ((1000, 1.0), (50, 2.0)):
        assert level_for_tau(DOUB, BALL_G1, n, tau) == pytest.approx(math.log(n / tau), rel=1e-12)


def test_level_mma2_quadratic_inversion():
    spec = ProcessSpec.mma2()
    obs = ObservableSpec(family="distance", form="weibull", anchor=None)
    u = level_for_tau(spec, obs, 1000, 1.0)
    # 1 - u**2 = 1/1000
    assert 1.0 - u == pytest.approx(5.0012e-4, rel=1e-3)
    assert u == pytest.approx(math.sqrt(1 - 1e-3), abs=1e-9)


def test_level_errors():
    with pytest.raises(ValueError):
        level_for_tau(DOUB, BALL_G1, 1, 2.0)  # tau/n > 1


def test_levels_nondecreasing_in_n():
    sched = LevelSchedule(DOUB, BALL_G1, tau=1.0)
    us = [sched.u(n) for n in (10, 100, 1000, 10000)]
    assert all(a <= b for a, b in zip(us, us[1:]))


def test_omega_for_cylinder():
    assert omega_for_cylinder(DOUB, "0" * 10, 1.0) == 1024
    bern = ProcessSpec.bernoulli_doubling(0.3)
    assert omega_for_cylinder(bern, "01", 2.0) == 9
    assert omega_for_cylinder(DOUB, "0101", 1e-9) == 0
    with pytest.raises(ValueError):
        omega_for_cylinder(DOUB, "", 1.0)


def test_g_form_scaling_identities():
    g2 = ObservableSpec(family="distance", form="frechet", anchor="0", alpha=2.5)
    for s, y in ((10.0, 3.0), (100.0, 0.5)):
        assert g2.g_inverse(s * y) / g2.g_inverse(s) == pytest.approx(y**-2.5, rel=1e-12)
    g1 = ObservableSpec(family="distance", form="gumbel", anchor="0")
    for s, y in ((3.0, 1.0), (8.0, -2.0)):
        assert g1.g_inverse(s + y) / g1.g_inverse(s) == pytest.approx(math.exp(-y), rel=1e-12)
    g3 = ObservableSpec(family="distance", form="weibull", anchor="0", alpha=2.0, d=1.0)
    for s, y in ((0.01, 2.0), (0.001, 0.25)):
        assert g3.g_inverse(1.0 - s * y) / g3.g_inverse(1.0 - s) == pytest.approx(y**2.0, rel=1e-12)


def test_g_strictly_decreasing_near_zero():
    grid = np.linspace(1e-6, 0.2, 50)
    for obs in (
        ObservableSpec(family="distance", form="gumbel", anchor="0"),
        ObservableSpec(family="distance", form="frechet", anchor="0", alpha=1.5),
        ObservableSpec(family="distance", form="weibull", anchor="0", alpha=2.0, d=3.0),
    ):
        vals = obs.g(grid)
        assert np.all(np.diff(vals) < 0)


def test_bernoulli_cdf_self_consistency():
    # F(x) = alpha * F(2x) for x < 1/2 and alpha + (1-alpha) F(2x-1) above
    a = 0.3
    w = (a, 1 - a)
    for x in (0.1, 0.3, 0.7, 0.9, 1 / 3):
        if x < 0.5:
            assert bernoulli_cdf(x, w) == pytest.approx(a * bernoulli_cdf(2 * x, w), abs=1e-12)
        else:
            assert bernoulli_cdf(x, w) == pytest.approx(
                a + (1 - a) * bernoulli_cdf(2 * x - 1, w), abs=1e-12
            )
    assert bernoulli_cdf(1.0, w) == 1.0
    assert bernoulli_cdf(0.5, w) == pytest.approx(a, abs=1e-12)


def test_bernoulli_cdf_array_matches_scalar():
    grid = np.concatenate([[-0.5, 0.0, 1.0, 1.5], np.linspace(0.0, 1.0, 257)[1:-1], [1 / 3]])
    for w in ((0.3, 0.7), (0.2, 0.3, 0.5)):
        arr = bernoulli_cdf(grid, w)
        scalars = [bernoulli_cdf(float(t), w) for t in grid]
        assert all(type(v) is float for v in scalars)
        assert np.array_equal(arr, np.array(scalars))
        assert arr[0] == 0.0 and arr[1] == 0.0 and arr[2] == 1.0 and arr[3] == 1.0


def _bernoulli_cdf_by_loop(x, weights):
    """Reference: 64 steps of x *= m, d = min(int(x), m - 1), x -= d, with the
    weight of the cell of the digits so far carried along."""
    w = np.asarray(weights, dtype=np.float64)
    m = w.size
    cum = np.concatenate([[0.0], np.cumsum(w)])
    x0 = np.asarray(x, dtype=np.float64)
    x = np.clip(x0, 0.0, 1.0)
    acc = (x0 >= 1.0).astype(np.float64)
    prod = ((x0 > 0.0) & (x0 < 1.0)).astype(np.float64)
    for _ in range(64):
        x *= m
        d = np.minimum(x.astype(np.int64), m - 1)
        x -= d
        acc += prod * cum[d]
        prod *= w[d]
    out = acc + 0.5 * prod
    return float(out) if out.ndim == 0 else out


@pytest.mark.parametrize("weights", [(0.3, 0.7), (0.5, 0.5), (0.1, 0.9), (0.2, 0.3, 0.5)])
def test_bernoulli_cdf_matches_per_digit_loop(weights):
    # float64 bytes equal to the per-digit loop, for every shape, at the
    # edges of [0, 1], at dyadic offsets from 1/3 and at seeded randoms
    third = 1 / 3
    edges = [0.0, -0.0, 1.0, 1.0 - 2.0**-53, 2.0**-60, math.inf, -math.inf, -0.5, 1.5, third]
    offsets = [third + s * 2.0**-k for k in range(1, 64) for s in (1.0, -1.0)]
    x = np.concatenate([edges, offsets, np.random.default_rng(17).random(1000)])
    for t in edges:
        got = bernoulli_cdf(t, weights)
        want = _bernoulli_cdf_by_loop(t, weights)
        assert type(got) is float and np.float64(got).tobytes() == np.float64(want).tobytes()
    for shaped in (np.asarray(third), x, x[:126].reshape(2, 63)):
        got, want = bernoulli_cdf(shaped, weights), _bernoulli_cdf_by_loop(shaped, weights)
        assert np.shape(got) == np.shape(shaped) and np.asarray(got).tobytes() == np.asarray(want).tobytes()


def test_bernoulli_cdf_rejects_nan_by_name():
    # a NaN x is named, not cast to a digit index out of bounds; a weighted
    # ball of NaN radius meets the same error
    w = (0.3, 0.7)
    for x in (math.nan, np.array([[0.2, math.nan, 0.7]])):
        with pytest.raises(ValueError, match="x is NaN"):
            bernoulli_cdf(x, w)
    obs = ObservableSpec(family="distance", form="weibull", anchor="01")
    with pytest.raises(ValueError, match="x is NaN"):
        ball_measure(ProcessSpec.bernoulli_doubling(0.3), obs, math.nan)


def test_word_anchors_are_floats():
    # a Fraction anchor would turn ball and distance arithmetic on point
    # arrays into object-dtype arrays
    for spec in (ProcessSpec.bernoulli_doubling(0.3), ProcessSpec.m_ary(3), ProcessSpec.dyadic_jump(), CHEB):
        obs = ObservableSpec(family="distance", form="weibull", anchor="01")
        assert type(obs.anchor_point(spec)) is float


def test_bernoulli_ball_measure_against_monte_carlo():
    spec = ProcessSpec.bernoulli_doubling(0.3)
    obs = ObservableSpec(family="distance", form="weibull", anchor="01")
    delta = 2.0**-6
    mu = ball_measure(spec, obs, delta)
    pts = point_values_at(spec, 3, np.arange(100000), [0])[:, 0]
    z = obs.anchor_point(spec)
    d = np.abs(pts - z)
    emp = (np.minimum(d, 1 - d) < delta).mean()
    assert abs(emp - mu) < 4 * math.sqrt(mu * (1 - mu) / 1e5)


def _radius_by_bisection(spec, obs, target):
    """Radius with mu(ball) = target by 80 sequential bisection steps, one
    scalar ball_measure call per step."""
    if target <= 0.0:
        return 0.0
    lo, hi = 0.0, 2.0 if spec.kind == "chebyshev" else 1.0
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if ball_measure(spec, obs, mid) < target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


RADIUS_CASES = {
    "bernoulli(0.3)@01": (ProcessSpec.bernoulli_doubling(0.3), "01"),
    "bernoulli(0.3)@0": (ProcessSpec.bernoulli_doubling(0.3), "0"),
    "m_ary(3)@12": (ProcessSpec.m_ary(3, (0.2, 0.3, 0.5)), "12"),
    "doubling@01": (DOUB, "01"),
    "chebyshev@0": (CHEB, "0"),
    "dyadic_jump@01": (ProcessSpec.dyadic_jump(), "01"),
    "ar1(2)": (ProcessSpec.ar1(2), None),
    "mma2": (ProcessSpec.mma2(), None),
    "mma13": (ProcessSpec.mma13(), None),
}

#: dyadic targets, the quick profile's tau/n and 2**-10, seeded random
#: targets in (2**-30, 1), and the targets of measure >= 1
RADIUS_TARGETS = (
    [2.0**-k for k in range(1, 30)]
    + [0.001, 0.0025, 0.002, 0.005, 2.0**-10]
    + (2.0 ** -np.random.default_rng(16).uniform(0.0, 30.0, 20)).tolist()
    + [1.0, 1.5]
)

# sha256 of the radii of RADIUS_TARGETS as float64 bytes: pins them apart
# from the reference, whose scalar arcsin could agree with the vectorized
# one on this CPU and not on another
RADIUS_KAT = {
    "ar1(2)": "454ad9b93bf0c206c2427af0a536081055f9ab0a5843df38b52b4401cdf58b7f",
    "bernoulli(0.3)@0": "cf4b409ae2a1089f9046d5cde6fe6cf992ebdc707a4ac2aa1107e2bd8d93ca8b",
    "bernoulli(0.3)@01": "7a55dc240ae948dfece302f52ed39b3a47fbc4c4b0335095d50b063c73c44eb9",
    "chebyshev@0": "40201c336ec83ff0d27b7e8c2dbd866ead0c967e8a28c36641c91a72d82a273e",
    "doubling@01": "fe85038443f4e3f4ce14f3e90ee646730386d6e74443a0b2daa68d1bf93456d1",
    "dyadic_jump@01": "6498f6cd09e349fcdf3220e740feae1e0b46c33d40bbd233039e12c4ab152874",
    "m_ary(3)@12": "b2ca1ecde3a076bf189fd79aaf2054736d55a7018d3286b0f41e297809ab39af",
    "mma13": "e5cfeb35faecfddb583cc977ba673115700dcac2560ee9bcf2a2c987fc7fc0ad",
    "mma2": "ed2ed19a36270262e9c0c8b6adc88f44bff0f4b4090baf581307b44177ec9c50",
}


@pytest.mark.parametrize("name", sorted(RADIUS_CASES))
def test_ball_radius_matches_sequential_bisection(name):
    spec, anchor = RADIUS_CASES[name]
    obs = ObservableSpec(family="distance", form="weibull", anchor=anchor, alpha=1.0, d=1.0)
    radii = np.array([ball_radius_for_measure(spec, obs, t) for t in RADIUS_TARGETS])
    want = np.array([_radius_by_bisection(spec, obs, t) for t in RADIUS_TARGETS])
    assert radii.tobytes() == want.tobytes(), name
    assert hashlib.sha256(radii.tobytes()).hexdigest() == RADIUS_KAT[name]


def test_nan_target_measure_is_a_named_error():
    # a NaN target is rejected by name, not bisected to a radius near 0 whose
    # ball would be an arc with lo == hi
    from evl_lab.hts_rts import TargetSet

    with pytest.raises(ValueError, match="target measure is NaN"):
        ball_radius_for_measure(DOUB, CHEB_OBS, math.nan)
    with pytest.raises(ValueError, match="target measure is NaN"):
        TargetSet.ball_of_measure(DOUB, BALL_G1, float("nan"))


def test_measure_ball_uniformisation():
    # mu(B_dist(X, anchor)) is Uniform(0,1) for non-atomic invariant measures
    for spec, word in ((DOUB, "0"), (ProcessSpec.bernoulli_doubling(0.3), "01"), (CHEB, "0")):
        obs = ObservableSpec(family="distance", form="weibull", anchor=word)
        pts = point_values_at(spec, 8, np.arange(20000), [0])[:, 0]
        z = obs.anchor_point(spec)
        d = np.abs(pts - z)
        if spec.kind == "m_ary":
            d = np.minimum(d, 1 - d)
        v = ball_measure(spec, obs, d)
        assert ks_against(v, lambda x: np.clip(x, 0, 1)) <= 0.015


def test_level_consistency_mean_exceedances():
    # mean exceedance count of u_n over paths of length n is tau within 3 se
    cases = [
        (DOUB, BALL_G1, 1.0),
        (ProcessSpec.ar1(2), ObservableSpec(family="distance", form="weibull", anchor=None), 1.0),
        (ProcessSpec.mma13(), ObservableSpec(family="distance", form="weibull", anchor=None), 2.0),
    ]
    trials = 4000
    for spec, obs, tau in cases:
        for n in (1000, 10000):
            u = level_for_tau(spec, obs, n, tau)
            ev = exceedance_event(spec, obs, u)
            ens = Ensemble(spec, 91, trials, n)
            counts = np.concatenate(
                [np.bincount(k % ids.size, minlength=ids.size) for ids, k in ens.mask_chunks(ev)]
            )
            se = counts.std(ddof=1) / math.sqrt(trials)
            assert abs(counts.mean() - tau) <= 3 * se + 0.01, (spec.label, n)


def test_marginal_cdfs_normalised():
    for spec, (lo, hi) in ((DOUB, (0.0, 1.0)), (CHEB, (-1.0, 1.0)), (ProcessSpec.mma2(), (0.0, 1.0)),
                           (ProcessSpec.mma13(), (0.0, 1.0))):
        assert marginal_cdf(spec, lo) == pytest.approx(0.0, abs=1e-12)
        assert marginal_cdf(spec, hi) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize(
    "spec, anchor, radii",
    [
        (DOUB, "0", [0.1, 0.3, 0.45, 0.5, 0.7, 1.0]),
        (ProcessSpec.bernoulli_doubling(0.3), "01", [0.1, 0.3, 0.5, 0.8]),
        (ProcessSpec.m_ary(3), "1", [0.2, 0.5, 0.9]),
        (CHEB, "0", [0.3, 1.0, 1.9, 2.0, 3.0]),
        (CHEB, "01", [1.5, 2.0]),
        (ProcessSpec.dyadic_jump(), "1", [0.3, 0.6, 1.2]),
        (ProcessSpec.ar1(2), None, [0.3, 1.0, 1.5]),
        (ProcessSpec.mma2(), None, [0.3, 1.0, 1.5]),
        (ProcessSpec.iid_uniform(), None, [0.3, 1.5]),
    ],
    ids=lambda v: v.label if isinstance(v, ProcessSpec) else None,
)
def test_ball_event_mask_share_matches_tail_up_to_whole_space(spec, anchor, radii):
    # the engine mask of every ball agrees with its measure, also for balls
    # that cover the whole space (a wrapped arc with lo == hi is empty), and
    # the level at tau = n is the whole space
    trials = np.arange(20000, dtype=np.uint64)
    dist = ObservableSpec(family="distance", form="weibull", anchor=anchor, alpha=1.0, d=1.0)
    ball = ObservableSpec(family="ball_measure", form="gumbel", anchor=anchor)
    cases = [(dist, 1.0 - r) for r in radii] + [(ball, level_for_tau(spec, ball, 10, 10.0))]
    for obs, u in cases:
        share = PathEngine(spec, 3, trials).masks(0, 1, exceedance_event(spec, obs, u)).mean()
        assert abs(share - tail_probability(spec, obs, u)) <= 0.02, (obs.family, u, share)
    assert tail_probability(spec, ball, cases[-1][1]) == 1.0
