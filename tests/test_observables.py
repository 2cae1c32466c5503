import hashlib
import math

import numpy as np
import pytest

from evl_lab.observables import (
    WHOLE_SPACE,
    ExceedanceEvent,
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
from tests.oracles import ks_against

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
    # below the essential sup, a level whose ball has radius 0 in floats is the empty event
    gumbel = ObservableSpec(family="distance", form="gumbel", anchor="0")
    for spec in (DOUB, CHEB, ProcessSpec.dyadic_jump()):
        assert tail_probability(spec, gumbel, 800.0) == 0.0
        assert exceedance_event(spec, gumbel, 800.0) == ExceedanceEvent()


@pytest.mark.parametrize("alpha", [1.0, 0.5])
@pytest.mark.parametrize("u", [-2.0, 0.0])
def test_frechet_level_at_or_below_zero_is_the_whole_space(alpha, u):
    # X = s**(-1/alpha) > 0, so {X > u} holds everywhere; u**(-alpha) is
    # negative, a ZeroDivisionError or complex there
    for family in ("distance", "ball_measure"):
        obs = ObservableSpec(family=family, form="frechet", anchor="0", alpha=alpha)
        for spec in (DOUB, ProcessSpec.bernoulli_doubling(0.3), ProcessSpec.dyadic_jump()):
            assert tail_probability(spec, obs, u) == 1.0, (family, spec.label)
            assert exceedance_event(spec, obs, u) == WHOLE_SPACE, (family, spec.label)


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


@pytest.mark.parametrize("obs", [BALL_G1, CHEB_OBS], ids=["ball_measure", "distance"])
def test_nan_tau_is_a_named_error(obs):
    # tau < 0 is False for NaN: the level would read NaN, and a later step
    # would fail on a NaN measure instead of naming tau
    for tau in (math.nan, -1.0):
        with pytest.raises(ValueError, match=f"tau = {tau}"):
            level_for_tau(DOUB, obs, 1000, tau)


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
#: targets in (2**-30, 1), and the whole space (a target above 1 is a named
#: error, see test_nan_target_measure_is_a_named_error)
RADIUS_TARGETS = (
    [2.0**-k for k in range(1, 30)]
    + [0.001, 0.0025, 0.002, 0.005, 2.0**-10]
    + (2.0 ** -np.random.default_rng(16).uniform(0.0, 30.0, 20)).tolist()
    + [1.0]
)

# sha256 of the radii of RADIUS_TARGETS as float64 bytes: pins them apart
# from the reference, whose scalar arcsin could agree with the vectorized
# one on this CPU and not on another
RADIUS_KAT = {
    "ar1(2)": "6dcbe6d81072fcf7a259cdfb1ba58fc671650f6ca8563f3253a9d6d16e8ddce5",
    "bernoulli(0.3)@0": "38e3ba6c4a27a19b345ddf82adfe1658c1f9dd7645642c680fa2d9da177b0d8a",
    "bernoulli(0.3)@01": "38599b49cf473dab623c4094c660e3c5bf8ef2ea458e9338fa1b53ee55f54b72",
    "chebyshev@0": "afb0cc9063b3a8c20ba3df477ba39ccd1caee7d2bd8ea84bbdc052a9756df599",
    "doubling@01": "15c2070f480c60d189d7f76490bf386014127c90208a175c74219ee55b518b90",
    "dyadic_jump@01": "b6c472d4bbd57e6298e73d6f040322ff8041c07fd4a1a73c4a4d432e59d81a8b",
    "m_ary(3)@12": "17eddd69bc688c72a5dd3104f38f0cc0e3fe9e5f4d099aaed277fd5101f28172",
    "mma13": "d7ffddebc2de033b79b913018aa01cc969d321863f100faf94707c4621216fb2",
    "mma2": "8b976c9d3b1843fcbf3e4ebe643ec0baadb185c763cf7f3eac7961ed895959fe",
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
    # a target above 1 is rejected by name, not solved to the top radius
    bern = ProcessSpec.bernoulli_doubling(0.3)
    dist = ObservableSpec(family="distance", form="weibull", anchor="0")
    with pytest.raises(ValueError, match="target measure 1.5 exceeds 1"):
        ball_radius_for_measure(bern, dist, 1.5)
    with pytest.raises(ValueError, match="target measure 1.5 exceeds 1"):
        TargetSet.ball_of_measure(bern, dist, 1.5)


@pytest.mark.parametrize(
    "arcs, word",
    [(((0.3, 0.3),), ()), (((0.5, 0.2),), ()), (((0.1, 0.5), (0.4, 0.6)), ()), (((0.6, 0.7), (0.1, 0.2)), ()),
     (((0.1, math.nan),), ()), (((0.1, 0.2),), (0, 1))],
)
def test_empty_unsorted_or_mixed_events_cannot_be_built(arcs, word):
    with pytest.raises(ValueError):
        ExceedanceEvent(arcs, word)


def test_circle_arc_reads_the_wrap():
    assert ExceedanceEvent.circle_arc(0.2, 0.4).arcs == ((0.2, 0.4),)
    assert ExceedanceEvent.circle_arc(-0.25, 0.25).arcs == ((-math.inf, 0.25), (0.75, math.inf))
    assert ExceedanceEvent.circle_arc(0.875, 1.125).arcs == ((-math.inf, 0.125), (0.875, math.inf))
    with pytest.raises(ValueError, match="empty"):
        ExceedanceEvent.circle_arc(0.5, 0.5)
    # an end at +-inf is never compared: half lines, the whole space and the empty event
    v = np.array([-5.0, 0.1, 0.5, 0.9, 5.0])
    for arcs, want in [
        (((-math.inf, 0.25), (0.75, math.inf)), [1, 1, 0, 1, 1]),
        (((0.3, math.inf),), [0, 0, 1, 1, 1]),
        (((-math.inf, math.inf),), [1, 1, 1, 1, 1]),
        ((), [0, 0, 0, 0, 0]),
        (((0.0, 0.2), (0.4, 0.6), (0.8, 1.0)), [0, 1, 1, 1, 0]),
    ]:
        ev = ExceedanceEvent(arcs)
        assert ev.mask_native(v).tolist() == [bool(x) for x in want], arcs
        out = np.ones(v.shape, dtype=bool) if not arcs else np.zeros(v.shape, dtype=bool)
        assert ev.mask_native(v, out=out) is out and out.tolist() == [bool(x) for x in want], arcs


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
