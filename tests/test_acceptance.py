"""Acceptance gate: the ten project criteria at their stated tolerances.

Each check prints one `[criterion-N] PASS/FAIL` line before asserting, so a
full run yields a per-criterion scoreboard.  Three legs are expected RED and
are isolated in their own test functions (marked `expected_red` in the line):
the quadratic-map index at the endpoint fixed point.  The documented closed
form there is 3/4 = 1 - 1/|f'(-1)|, but that derivation needs the invariant
density to be finite at the anchor, and the arcsine density diverges exactly
at the interval endpoints.  Under the invariant measure the capture ratio is
mu(ball/4)/mu(ball) = sqrt(1/4) = 1/2 (exactly computable from the arccos
tail, and exact by the conjugacy x = -cos(2 pi theta) to the doubling map at
its fixed point), so every honest estimator returns 1/2.  The assertions
below keep the documented value, as required, and fail.
"""

import json
import math
from pathlib import Path

import numpy as np
import pytest

import evl_lab as ev
from evl_lab import cli, escapes, estimators, hts_rts, symbolic, theory
from evl_lab.observables import LevelSchedule, ObservableSpec, level_for_tau, marginal_cdf
from evl_lab.processes import Ensemble, ProcessSpec, point_values_at
from tests.oracles import ks_against

END = ObservableSpec(family="distance", form="weibull", anchor=None)
BALL0 = ObservableSpec(family="ball_measure", form="gumbel", anchor="0")
BALL01 = ObservableSpec(family="ball_measure", form="gumbel", anchor="01")
CHEB_OBS = ObservableSpec(family="distance", form="weibull", anchor="0")


def _report(criterion, ok, detail):
    print(f"\n[{criterion}] {'PASS' if ok else 'FAIL'}: {detail}")
    return ok


# -- criterion 1 -------------------------------------------------------------


@pytest.mark.parametrize("r", [2, 3, 5])
def test_criterion_1_ar1_all_estimators(r):
    theta = 1.0 - 1.0 / r
    ests = estimators.estimate_ei_bundle(
        ProcessSpec.ar1(r), END, 1, 1.0, 10000, 100000, seed=910 + r
    )
    errs = {e.method: abs(e.theta - theta) for e in ests}
    ok = all(v <= 0.02 for v in errs.values())
    detail = f"ar1(r={r}) vs {theta:.4f}: " + ", ".join(
        f"{m}={v:.4f}" for m, v in errs.items()
    )
    assert _report("criterion-1", ok, detail)


# -- criterion 2 -------------------------------------------------------------


def test_criterion_2_mma2():
    ests = estimators.estimate_ei_bundle(
        ProcessSpec.mma2(), END, 2, 1.0, 6000, 60000, seed=920, rts_measure=2.0**-8
    )
    errs = {e.method: abs(e.theta - 0.5) for e in ests}
    ok = all(v <= 0.02 for v in errs.values())
    assert _report("criterion-2", ok, "mma2 vs 0.500: " + ", ".join(f"{m}={v:.4f}" for m, v in errs.items()))


def test_criterion_2_mma13_factorisation():
    spec = ProcessSpec.mma13()
    n = 10000
    p, se = estimators.estimate_escape_law(
        spec, END, ev.EscapeOffsets((1, 3)), 1.0, n, 60000, seed=921
    )
    order2 = estimators.ei_from_max(p, 1.0, se, "EscapeLaw")
    ens = Ensemble(spec, 922, 60000, n, obs=END)
    u = level_for_tau(spec, END, n, 1.0)
    th1, th2 = estimators.ei_runs_nested(ens, ev.EscapeOffsets((1, 3)), u)
    ok = (
        abs(order2.theta - 1.0 / 3.0) <= 0.02
        and abs(th1.theta - 2.0 / 3.0) <= 0.02
        and abs(th2.theta - 0.5) <= 0.02
    )
    assert _report(
        "criterion-2",
        ok,
        f"mma13 order-2 escape-law={order2.theta:.4f} (1/3), "
        f"factors theta1={th1.theta:.4f} (2/3) theta2={th2.theta:.4f} (1/2), "
        f"product={th1.theta * th2.theta:.4f}",
    )


# -- criterion 3 -------------------------------------------------------------


def test_criterion_3_chebyshev_level_formula():
    spec = ProcessSpec.chebyshev()
    worst = 0.0
    for n in (100, 1000, 5000):
        exact = level_for_tau(spec, CHEB_OBS, n, 1.0)  # cos(pi tau / n)
        approx = 1.0 - math.pi**2 / (2.0 * n**2)
        worst = max(worst, abs(approx - exact) / abs(exact))
    ok = worst <= 1e-3
    assert _report("criterion-3", ok, f"level formula relative error {worst:.2e} <= 1e-3")


def test_criterion_3_chebyshev_ei_documented_value():
    # expected_red: the honest Monte Carlo answer is 1/2, not the documented
    # 3/4 (see the module docstring); the stated tolerance is asserted as is.
    spec = ProcessSpec.chebyshev()
    s = estimators.survey_max_and_escapes(spec, CHEB_OBS, 1, 1.0, 5000, 100000, seed=930)
    maxlaw = estimators.ei_from_max(s["p_max"], 1.0, s["se_max"])
    runs = s["runs_theta"]
    ok = abs(maxlaw.theta - 0.75) <= 0.05 and abs(runs - 0.75) <= 0.05
    assert _report(
        "criterion-3",
        ok,
        f"expected_red chebyshev MaxLaw={maxlaw.theta:.4f}, Runs={runs:.4f} vs documented 0.75+-0.05 "
        f"(measured values sit at the singular-density truth 0.5)",
    )


# -- criterion 4 -------------------------------------------------------------


def test_criterion_4_doubling_lebesgue():
    s = estimators.survey_max_and_escapes(
        ProcessSpec.doubling(), BALL0, 1, 1.0, 5000, 60000, seed=940
    )
    maxlaw = estimators.ei_from_max(s["p_max"], 1.0, s["se_max"])
    ok = abs(maxlaw.theta - 0.5) <= 0.03 and abs(s["runs_theta"] - 0.5) <= 0.03
    assert _report(
        "criterion-4",
        ok,
        f"doubling MaxLaw={maxlaw.theta:.4f}, Runs={s['runs_theta']:.4f} vs 0.50+-0.03",
    )


def test_criterion_4_bernoulli_periodic_point():
    spec = ProcessSpec.bernoulli_doubling(0.3)
    s = estimators.survey_max_and_escapes(spec, BALL01, 2, 1.0, 5000, 60000, seed=941)
    maxlaw = estimators.ei_from_max(s["p_max"], 1.0, s["se_max"])
    ok = abs(maxlaw.theta - 0.79) <= 0.03 and abs(s["runs_theta"] - 0.79) <= 0.03
    assert _report(
        "criterion-4",
        ok,
        f"bernoulli(0.3)@01 MaxLaw={maxlaw.theta:.4f}, Runs={s['runs_theta']:.4f} vs 0.79+-0.03",
    )


# -- criterion 5 -------------------------------------------------------------


def test_criterion_5_ball_annulus_equivalence():
    gaps = {}
    gaps["chebyshev"], _ = estimators.ball_annulus_gap(
        ProcessSpec.chebyshev(), CHEB_OBS, 1, 1.0, 10000, 100000, seed=950
    )
    gaps["ar1(2)"], _ = estimators.ball_annulus_gap(
        ProcessSpec.ar1(2), END, 1, 1.0, 10000, 100000, seed=951
    )
    ok = all(g <= 0.01 for g in gaps.values())
    assert _report(
        "criterion-5",
        ok,
        "max-vs-no-escape survival gap on shared paths: "
        + ", ".join(f"{k}={v:.5f}" for k, v in gaps.items()),
    )


# -- criteria 6 and 7 --------------------------------------------------------

HTS_SYSTEMS = [
    ("ar1(2)", ProcessSpec.ar1(2), None, 0.5),
    ("ar1(3)", ProcessSpec.ar1(3), None, 2 / 3),
    ("ar1(5)", ProcessSpec.ar1(5), None, 0.8),
    ("doubling@0", ProcessSpec.doubling(), "0", 0.5),
    ("bernoulli@01", ProcessSpec.bernoulli_doubling(0.3), "01", 0.79),
]


@pytest.mark.parametrize("name,spec,zeta,theta", HTS_SYSTEMS, ids=[s[0] for s in HTS_SYSTEMS])
def test_criterion_6_hts_law(name, spec, zeta, theta):
    tgt = hts_rts.TargetSet.ball(spec, zeta, 2.0**-10)
    hts = hts_rts.sample_hts(spec, tgt, 100000, seed=960)
    d = hts_rts.ks_distance(hts, theory.theoretical_cdf("hts", theta))
    ok = d <= 0.02
    assert _report("criterion-6", ok, f"{name} HTS KS={d:.4f} vs Exp({theta:.3f}), tol 0.02")


def test_criterion_6_hts_chebyshev_documented_value():
    # expected_red: the sampled law is Exp(1/2); the documented 3/4 is asserted.
    # The square-root measure scaling at the endpoint makes mu(ball) ~ sqrt(delta),
    # so the radius is taken smaller than for the interior-anchor systems.
    spec = ProcessSpec.chebyshev()
    tgt = hts_rts.TargetSet.ball(spec, "0", 2.0**-14)
    hts = hts_rts.sample_hts(spec, tgt, 100000, seed=961)
    d_doc = hts_rts.ks_distance(hts, theory.theoretical_cdf("hts", 0.75))
    d_half = hts_rts.ks_distance(hts, theory.theoretical_cdf("hts", 0.5))
    ok = d_doc <= 0.02
    assert _report(
        "criterion-6",
        ok,
        f"expected_red chebyshev HTS KS={d_doc:.4f} vs Exp(0.75), tol 0.02 "
        f"(against Exp(0.5) the same sample gives KS={d_half:.4f})",
    )


def _rts_checks(spec, zeta, theta, seed, trials=100000, delta=2.0**-10):
    tgt = hts_rts.TargetSet.ball(spec, zeta, delta)
    rts = hts_rts.sample_rts(spec, tgt, trials, seed)
    hts = hts_rts.sample_hts(spec, tgt, trials, seed + 1)
    unc = ~rts.censored
    atom = float(((rts.times <= 0.01) & unc).mean())
    cont = np.sort(rts.times[(rts.times > 0.01) & unc])
    base = theory.theoretical_cdf("hts", theta)
    f0 = float(base(0.01))
    ks = ks_against(cont, lambda t: (np.asarray(base(t)) - f0) / (1.0 - f0))
    dev = hts_rts.check_integral_relation(hts, rts, np.linspace(0.1, 5.0, 25))
    return atom, ks, dev


@pytest.mark.parametrize(
    "name,spec,zeta,theta",
    [s for s in HTS_SYSTEMS if s[0] in ("ar1(2)", "ar1(3)", "doubling@0", "bernoulli@01")],
    ids=["ar1(2)", "ar1(3)", "doubling@0", "bernoulli@01"],
)
def test_criterion_7_rts_law(name, spec, zeta, theta):
    atom, ks, dev = _rts_checks(spec, zeta, theta, seed=970)
    ok = abs(atom - (1.0 - theta)) <= 0.03 and ks <= 0.03 and dev <= 0.03
    assert _report(
        "criterion-7",
        ok,
        f"{name} atom={atom:.4f} vs {1-theta:.3f}+-0.03, continuous KS={ks:.4f}, "
        f"integral-relation dev={dev:.4f}",
    )


def test_criterion_7_rts_chebyshev_documented_value():
    # expected_red: atom and conditional law sit at theta = 1/2, not 3/4; the
    # smaller radius keeps the one-step return inside the atom window despite
    # the square-root measure scaling at the endpoint.
    atom, ks, dev = _rts_checks(ProcessSpec.chebyshev(), "0", 0.75, seed=971, delta=2.0**-14)
    ok = abs(atom - 0.25) <= 0.03 and ks <= 0.03 and dev <= 0.03
    assert _report(
        "criterion-7",
        ok,
        f"expected_red chebyshev atom={atom:.4f} vs 0.25+-0.03, continuous KS={ks:.4f} "
        f"vs Exp(0.75), integral-relation dev={dev:.4f}",
    )


# -- criterion 8 -------------------------------------------------------------


def test_criterion_8_ar1_condition_diagnostics():
    spec = ProcessSpec.ar1(2)
    levels = LevelSchedule(spec, END, tau=1.0)
    n = 10000
    ens = Ensemble(spec, 980, 100000, n, obs=END)
    rep = escapes.periodicity_report(ens, 1, 0.5, levels, n, ratio_cutoff=10)
    ratio_ok = all(abs(r - 1.0) <= 3 * se for _, r, se in rep.run_ratios)
    sums = {}
    for m, trials in ((1000, 100000), (10000, 100000)):
        e2 = Ensemble(spec, 981, trials, m, obs=END)
        v, se, _ = escapes.escape_statistics(e2, 1, m, levels)[1]
        sums[m] = v
    sum_ok = sums[10000] < 0.05 and sums[10000] <= sums[1000]
    ok = ratio_ok and sum_ok
    worst = max(abs(r - 1.0) for _, r, _ in rep.run_ratios)
    assert _report(
        "criterion-8",
        ok,
        f"ar1(2) capture-chain ratios i<=10 within 3se of 1 (worst |r-1|={worst:.3f}); "
        f"escape-pair sum {sums[1000]:.4f} -> {sums[10000]:.4f} (<0.05 at n=1e4)",
    )


def test_criterion_8_mma13_degradation():
    spec = ProcessSpec.mma13()
    tau = 1.0
    levels = LevelSchedule(spec, END, tau=tau)
    n = 10000
    ens = Ensemble(spec, 982, 50000, n, obs=END)
    v1, se1, _ = escapes.escape_statistics(ens, 1, n, levels)[1]
    v2, _, _ = escapes.escape_statistics(ens, ev.EscapeOffsets((1, 3)), n, levels)[1]
    ok = abs(v1 - tau / 3.0) <= 0.03 and v2 < 0.05
    assert _report(
        "criterion-8",
        ok,
        f"mma13 order-1 escape-pair sum={v1:.4f} vs tau/3={tau/3:.4f}+-0.03; order-2 sum={v2:.4f} < 0.05",
    )


# -- criterion 9 -------------------------------------------------------------


def test_criterion_9_dichotomy_aperiodic():
    word = symbolic.champernowne_bits(10)
    est = estimators.cylinder_ei(ProcessSpec.doubling(), word, 1.0, 100000, seed=990)
    ok = abs(est.theta - 1.0) <= 0.03
    assert _report(
        "criterion-9", ok, f"cylinder EI at champernowne prefix = {est.theta:.4f} vs 1.00+-0.03"
    )


def test_criterion_9_dichotomy_periodic():
    spec = ProcessSpec.bernoulli_doubling(0.3)
    est = estimators.cylinder_ei(spec, "01" * 5, 1.0, 100000, seed=991)
    ok = abs(est.theta - 0.79) <= 0.03
    assert _report(
        "criterion-9", ok, f"cylinder EI at periodic 01 = {est.theta:.4f} vs 0.79+-0.03"
    )


def test_criterion_9_block_word_periods():
    word = ("0" * 14 + "1") * 10 + "001"
    ps = symbolic.period_sequence(symbolic.SymbolicWord.parse(word))
    ok = ps.values == (1, 15, 153)
    assert _report("criterion-9", ok, f"block word return times {ps.values} == (1, 15, 153)")


def test_criterion_9_lemma_brute_force():
    # Return structure depends only on the n-prefix, so enumerating all 2**n
    # prefixes for n <= 8 covers every word of length <= 12.  Uniqueness holds
    # for every admissible lag; divisibility by the minimal repetition period
    # holds on the overlap range j <= n - p where it is provable (two periods
    # j, p with j + p <= n force their gcd; boundary lags j > n - p can repeat
    # without dividing p and are reported with their boundary flag).
    checked = 0
    for n in range(1, 9):
        for bits in range(2**n):
            word = symbolic.SymbolicWord(tuple((bits >> k) & 1 for k in range(n)), 2)
            rs = symbolic.return_structure(word, n, n)
            for r in rs.returns:
                assert r.unique
                if r.j <= n - rs.p:
                    assert r.j % rs.p == 0
                checked += 1
    assert _report(
        "criterion-9",
        True,
        f"lemma brute force over all prefixes n<=8 (covers words <=12): "
        f"{checked} returning cylinders, unique witnesses, divisibility on the provable range",
    )


# -- criterion 10 ------------------------------------------------------------


def test_criterion_10_stationarity():
    worst = {}
    for spec in (
        ProcessSpec.doubling(),
        ProcessSpec.bernoulli_doubling(0.3),
        ProcessSpec.dyadic_jump(),
        ProcessSpec.chebyshev(),
        ProcessSpec.ar1(2),
        ProcessSpec.mma2(),
        ProcessSpec.mma13(),
        ProcessSpec.iid_uniform(),
    ):
        pts = point_values_at(spec, 1000, np.arange(100000), [0, 10, 100])
        worst[spec.label] = max(
            ks_against(pts[:, j], lambda x: marginal_cdf(spec, x)) for j in range(3)
        )
    ok = all(v <= 0.015 for v in worst.values())
    detail = "stationarity KS at steps {0,10,100}: " + ", ".join(
        f"{k}={v:.4f}" for k, v in worst.items()
    )
    assert _report("criterion-10", ok, detail)


def test_criterion_10_kac():
    tgt = hts_rts.TargetSet.ball(ProcessSpec.doubling(), "0", 2.0**-10)
    rts = hts_rts.sample_rts(ProcessSpec.doubling(), tgt, 30000, seed=1010, horizon_factor=60)
    mean = float(rts.times.mean()) / tgt.measure
    se = float(rts.times.std(ddof=1)) / tgt.measure / math.sqrt(rts.times.size)
    ok = abs(mean - 1.0 / tgt.measure) <= 3 * se
    assert _report(
        "criterion-10",
        ok,
        f"Kac mean return {mean:.1f} vs 1/mu(U)={1/tgt.measure:.0f} within 3se ({3*se:.1f})",
    )


def test_criterion_10_reproduce_paper_determinism(tmp_path):
    cli.run_reproduce_paper(tmp_path / "run1", seed=77, profile="quick")
    cli.run_reproduce_paper(tmp_path / "run2", seed=77, profile="quick")
    mism = []
    for f1 in sorted((tmp_path / "run1").rglob("*")):
        if f1.is_dir():
            continue
        f2 = tmp_path / "run2" / f1.relative_to(tmp_path / "run1")
        if f1.name == "provenance.json":
            a = json.loads(f1.read_text())
            b = json.loads(f2.read_text())
            for d in (a, b):  # runtime and the run directory itself may differ
                d.pop("wall_time_s")
                d["config"].pop("out", None)
            if a != b:
                mism.append(str(f1))
        elif f1.read_bytes() != f2.read_bytes():
            mism.append(str(f1))
    ok = not mism
    assert _report(
        "criterion-10",
        ok,
        f"two reproduce-paper runs byte-identical (provenance compared without wall time); "
        f"mismatches: {mism or 'none'}",
    )
