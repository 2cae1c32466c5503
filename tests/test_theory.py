import math

import numpy as np
import pytest

from evl_lab.processes import ProcessSpec
from evl_lab.theory import TheoryResult, analytic_ei, dichotomy_ei, theoretical_cdf
from tests.oracles import rts_quantile


def test_analytic_ei_closed_forms():
    assert analytic_ei(ProcessSpec.chebyshev(), "0").theta == 0.75
    assert analytic_ei(ProcessSpec.bernoulli_doubling(0.3), "01").theta == pytest.approx(0.79)
    assert analytic_ei(ProcessSpec.doubling(), "0").theta == pytest.approx(0.5)
    assert analytic_ei(ProcessSpec.doubling(), "01").theta == pytest.approx(0.75)  # 1 - 2**-2
    for r in (2, 3, 5):
        assert analytic_ei(ProcessSpec.ar1(r)).theta == pytest.approx(1 - 1 / r)
    assert analytic_ei(ProcessSpec.mma2()).theta == 0.5
    m13 = analytic_ei(ProcessSpec.mma13())
    assert m13.theta == pytest.approx(1 / 3)
    assert m13.factors == pytest.approx((2 / 3, 0.5))
    assert analytic_ei(ProcessSpec.dyadic_jump(), "01").theta == pytest.approx(0.75)
    assert analytic_ei(ProcessSpec.iid_uniform()).theta == 1.0


@pytest.mark.parametrize(
    "spec", [ProcessSpec.iid_uniform(), ProcessSpec.mma2(), ProcessSpec.mma13()], ids=lambda s: s.label
)
def test_moving_max_slots_match_closed_forms(spec):
    # each large innovation makes a cluster of one exceedance per slot: the
    # slot table that drives the engine agrees with the closed forms
    assert analytic_ei(spec).theta == 1 / len(spec.slots)


def test_analytic_ei_prime_period_from_word():
    res = analytic_ei(ProcessSpec.doubling(), "0101")
    assert res.prime_period == 2 and res.theta == pytest.approx(0.75)


def test_dichotomy_result():
    assert dichotomy_ei().theta == 1.0
    assert dichotomy_ei().derivation == "dichotomy"


def test_theoretical_cdf_values():
    assert theoretical_cdf("hts", 0.75)(1.0) == pytest.approx(1 - math.exp(-0.75), abs=1e-12)
    for theta in (0.25, 0.6, 1.0):
        assert theoretical_cdf("rts", theta)(0.0) == pytest.approx(1 - theta, abs=1e-12)
    assert theoretical_cdf("hts", 1.0)(1.0) == pytest.approx(1 - math.exp(-1), abs=1e-12)
    assert theoretical_cdf("max_law", 0.5)(2.0) == pytest.approx(math.exp(-1), abs=1e-12)
    with pytest.raises(ValueError):
        theoretical_cdf("hts", 1.5)
    with pytest.raises(ValueError):
        theoretical_cdf("nope", 0.5)


def _simpson(f, a, b, n=4000):
    x = np.linspace(a, b, 2 * n + 1)
    y = f(x)
    h = (b - a) / (2 * n)
    return h / 3 * (y[0] + y[-1] + 4 * y[1:-1:2].sum() + 2 * y[2:-2:2].sum())


def test_hitting_law_integrates_return_survival():
    # G(t) = int_0^t (1 - Gtilde(s)) ds, verified by quadrature to 1e-10
    for theta in (0.25, 0.5, 0.75, 1.0):
        G = theoretical_cdf("hts", theta)
        Gt = theoretical_cdf("rts", theta)
        for t in (0.3, 1.0, 2.5, 6.0):
            integral = _simpson(lambda s: 1.0 - Gt(s), 0.0, t)
            assert abs(float(G(t)) - integral) <= 1e-10


def test_rts_quantile_named_errors():
    for theta, q in [(0.6, 1.0), (0.0, 1.0), (0.6, -0.1), (0.6, math.nan)]:
        with pytest.raises(ValueError, match="q must lie in"):
            rts_quantile(theta, q)
    for theta in (-0.1, 1.5, math.nan):
        with pytest.raises(ValueError, match="theta must lie in"):
            rts_quantile(theta, 0.5)
    assert rts_quantile(0.0, 0.0) == rts_quantile(0.0, 0.999) == 0.0  # all mass in the atom
    assert rts_quantile(1.0, 0.0) == 0.0


def test_rts_quantile_round_trip():
    Gt = theoretical_cdf("rts", 0.6)
    for q in (0.1, 0.39, 0.41, 0.7, 0.95):
        t = rts_quantile(0.6, q)
        if q <= 0.4:  # atom
            assert t == 0.0
        else:
            assert float(Gt(t)) == pytest.approx(q, abs=1e-12)


def test_theory_result_validation():
    with pytest.raises(ValueError):
        TheoryResult(1.4, "closed_form", 1)
