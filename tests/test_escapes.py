import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evl_lab import processes
from evl_lab.estimators import _survey
from evl_lab.escapes import (
    MIN_CONTINUATIONS,
    EscapeOffsets,
    _mean,
    default_block_count,
    default_gap,
    escape_statistics,
    periodicity_report,
)
from evl_lab.observables import (
    ExceedanceEvent,
    LevelSchedule,
    ObservableSpec,
    exceedance_event,
    level_for_tau,
)
from evl_lab.processes import KINDS, MAP_KINDS, Ensemble, ProcessSpec
from tests.oracles import dense_mask_chunks, escape_matrix

AR1_OBS = ObservableSpec(family="distance", form="weibull", anchor=None)
MMA_OBS = ObservableSpec(family="distance", form="weibull", anchor=None)


def _escapes(series, offsets, u):
    """Order-i escape booleans of one plain series (strict exceedance X > u),
    read off ``_escape_keys``; the last span entries cannot be read."""
    exceed = np.asarray(series, dtype=np.float64) > u
    return escape_matrix(exceed[None, :], EscapeOffsets.of(offsets))[0]


def test_escape_event_definition():
    assert _escapes([0.99, 0.2], 1, 0.9).tolist() == [True]
    assert _escapes([0.99, 0.95], 1, 0.9).tolist() == [False]  # capture
    assert _escapes([0.99], 1, 0.9).size == 0  # too short to read the escape


def test_escape_capture_partition():
    rng = np.random.default_rng(0)
    x = rng.random(500)
    u = 0.7
    exceed = x[:-1] > u
    esc = _escapes(x, 1, u)
    cap = exceed & (x[1:] > u)
    assert np.array_equal(exceed, esc | cap)
    assert not (esc & cap).any()


def test_no_escape_window_cases():
    assert not _escapes([0.1] * 20, 1, 0.9)[0:10].any()
    x = [0.1] * 8 + [0.95, 0.1] + [0.1] * 5
    q = _escapes(x, 1, 0.9)
    assert np.flatnonzero(q).tolist() == [8]
    assert q[5:13].any()  # the window [5, 13) holds the escape at 8
    assert not q[0:0].any()  # empty window


def test_higher_order_escape_recursion():
    offs = EscapeOffsets((1, 3))
    x = np.array([0.99, 0.1, 0.99, 0.98, 0.1, 0.1, 0.1])
    e = x > 0.9
    q1 = escape_matrix(e[None, :], EscapeOffsets(offs.offsets[:1]))[0]
    q2 = escape_matrix(e[None, :], offs)[0]
    # q1 at 0 (exceed then drop), at 3; q2 at 0 requires q1 at 0 and not at 3
    assert bool(q1[0]) and bool(q1[3])
    assert not bool(q2[0])


@pytest.mark.parametrize("offsets", [(1.5,), (True,), (2, 0), (), ("2",)])
def test_offsets_not_positive_integers_are_a_named_error(offsets):
    with pytest.raises(ValueError, match="offsets must be positive integers"):
        EscapeOffsets(offsets)


def test_offsets_of_integers_and_offsets_only():
    assert EscapeOffsets.of(np.int64(2)) == EscapeOffsets.of(2) == EscapeOffsets((2,))
    assert EscapeOffsets((np.int64(1), 3.0)).offsets == (1, 3)
    offs = EscapeOffsets((1, 3))
    assert EscapeOffsets.of(offs) is offs
    for bad in ([1], (1, 3), 2.0, "1", None):
        with pytest.raises(TypeError, match="offsets must be an EscapeOffsets or an integer"):
            EscapeOffsets.of(bad)


def test_bundle_rejects_offsets_of_another_type():
    from evl_lab.estimators import estimate_ei_bundle

    doub = ProcessSpec.doubling()
    ball = ObservableSpec(family="distance", form="weibull", anchor="0")
    for bad in ([1], (1, 3)):
        with pytest.raises(TypeError, match="offsets"):
            estimate_ei_bundle(doub, ball, bad, 1.0, 100, 50, seed=1)
    assert estimate_ei_bundle(doub, ball, np.int64(1), 1.0, 100, 50, seed=1) == estimate_ei_bundle(
        doub, ball, EscapeOffsets((1,)), 1.0, 100, 50, seed=1
    )


def test_ar1_periodicity_report_matches_exact_law():
    spec = ProcessSpec.ar1(2)
    levels = LevelSchedule(spec, AR1_OBS, tau=1.0)
    n = 2000
    ens = Ensemble(spec, 11, 30000, n, obs=AR1_OBS)
    rep = periodicity_report(ens, 1, 0.5, levels, n)
    p, se = rep.continuation
    assert abs(p - 0.5) <= max(3 * se, 0.01)
    for i, ratio, rse in rep.run_ratios[:8]:
        assert abs(ratio - 1.0) <= 4 * max(rse, 0.02), (i, ratio, rse)
    sums = [v for _, v in rep.chain_partial_sums]
    assert all(a <= b + 1e-12 for a, b in zip(sums, sums[1:]))


def test_mma2_periodicity_report():
    spec = ProcessSpec.mma2()
    levels = LevelSchedule(spec, MMA_OBS, tau=1.0)
    n = 2000
    ens = Ensemble(spec, 13, 30000, n, obs=MMA_OBS)
    rep = periodicity_report(ens, 2, 0.5, levels, n)
    p, se = rep.continuation
    assert abs(p - 0.5) <= 0.02
    (j1, sub1, sub_se) = rep.sub_period[0]
    assert j1 == 1 and sub1 <= 0.02


def test_doubling_continuation_probability():
    spec = ProcessSpec.doubling()
    obs = ObservableSpec(family="ball_measure", form="gumbel", anchor="0")
    levels = LevelSchedule(spec, obs, tau=1.0)
    n = 2000
    ens = Ensemble(spec, 29, 30000, n, obs=obs)
    rep = periodicity_report(ens, 1, 0.5, levels, n)
    p, se = rep.continuation
    assert abs(p - 0.5) <= 0.02


def test_default_ratio_cutoff_drops_unsupported_rows():
    # ar1(2), n=1e4, T=5000: the formula cutoff 14 outruns the ensemble
    spec = ProcessSpec.ar1(2)
    levels = LevelSchedule(spec, AR1_OBS, tau=1.0)
    n = 10000
    ens = Ensemble(spec, 7, 5000, n, obs=AR1_OBS)
    rows = len(periodicity_report(ens, 1, 0.5, levels, n).run_ratios)
    assert len(periodicity_report(ens, 1, 0.5, levels, n, ratio_cutoff=10).run_ratios) == 10
    # continuations of each chain length, counted on the masks
    event = exceedance_event(spec, AR1_OBS, levels.u(n))
    counts = np.zeros(rows + 2, dtype=np.int64)
    for _, e in dense_mask_chunks(ens, event, extra=rows + 1):
        run = e[:, :n].copy()
        for i in range(1, rows + 2):
            run &= e[:, i : n + i]
            counts[i] += run.sum()
    assert 0 < rows < 14
    assert counts[rows] >= MIN_CONTINUATIONS > counts[rows + 1]


@pytest.mark.parametrize("cutoff", [0, -1])
def test_ratio_cutoff_below_one_is_a_named_error(cutoff):
    spec = ProcessSpec.ar1(2)
    levels = LevelSchedule(spec, AR1_OBS, tau=1.0)
    ens = Ensemble(spec, 7, 100, 100, obs=AR1_OBS)
    with pytest.raises(ValueError, match="ratio_cutoff"):
        periodicity_report(ens, 1, 0.5, levels, 100, ratio_cutoff=cutoff)
    assert len(periodicity_report(ens, 1, 0.5, levels, 100, ratio_cutoff=1).run_ratios) == 1


def test_annulus_rate_law():
    # n P(escape at a fixed index) -> theta tau for each built-in
    cases = [
        (ProcessSpec.doubling(), ObservableSpec(family="ball_measure", form="gumbel", anchor="0"), 1, 0.5),
        (ProcessSpec.ar1(2), AR1_OBS, 1, 0.5),
        (ProcessSpec.mma2(), MMA_OBS, 2, 0.5),
    ]
    tau = 1.0
    for spec, obs, p, theta in cases:
        levels = LevelSchedule(spec, obs, tau=tau)
        ens = Ensemble(spec, 37, 20000, 3000, obs=obs)
        rate, se = escape_statistics(ens, p, 3000, levels)[0]
        assert abs(rate - theta * tau) <= 3 * se + 0.01, spec.label


def test_mma13_order2_rate_and_degradation():
    spec = ProcessSpec.mma13()
    tau = 1.0
    levels = LevelSchedule(spec, MMA_OBS, tau=tau)
    n = 3000
    ens = Ensemble(spec, 41, 30000, n, obs=MMA_OBS)
    (rate2, se2), (v2, _, _), _ = escape_statistics(ens, EscapeOffsets((1, 3)), n, levels)
    assert abs(rate2 - tau / 3.0) <= 3 * se2 + 0.01
    # order-1 escape pairs do NOT vanish: the sum detects the lag-3 structure
    v1, se1, lags = escape_statistics(ens, 1, n, levels)[1]
    assert v1 > 0.2
    assert abs(v1 - tau / 3.0) <= 3 * se1 + 0.03
    # the lag-3 term carries it
    assert n * lags[3] > 0.2
    # order-2 escape pairs vanish
    assert v2 < 0.05


def test_mma2_joint_escape_closed_form():
    # P(escape at 0 and j) = (1-a)^2 a^4 except j in {2, 4} where it is 0
    spec = ProcessSpec.mma2()
    tau = 2.0
    n = 500
    levels = LevelSchedule(spec, MMA_OBS, tau=tau)
    u = levels.u(n)
    a = u  # P(Y <= u)
    ens = Ensemble(spec, 43, 60000, n, obs=MMA_OBS)
    _, _, lags = escape_statistics(ens, 2, n, levels, k_n=n // 25)[1]
    expect = (1 - a) ** 2 * a**4
    for j in range(1, len(lags)):
        se = math.sqrt(expect / (60000 * n))
        if j in (2, 4):
            assert lags[j] <= 3 * se
        else:
            assert abs(lags[j] - expect) <= 4 * se, j


def test_ar1_clustering_sum_decreases():
    spec = ProcessSpec.ar1(2)
    tau = 1.0
    levels = LevelSchedule(spec, AR1_OBS, tau=tau)
    vals = {}
    for n, trials in ((1000, 30000), (10000, 30000)):
        ens = Ensemble(spec, 47, trials, n, obs=AR1_OBS)
        v, se, _ = escape_statistics(ens, 1, n, levels)[1]
        vals[n] = v
    assert vals[10000] < 0.05
    assert vals[10000] <= vals[1000] + 0.01


def test_mixing_gap_degenerate_window():
    spec = ProcessSpec.ar1(2)
    levels = LevelSchedule(spec, AR1_OBS, tau=1.0)
    ens = Ensemble(spec, 53, 1000, 500, obs=AR1_OBS)
    g, se = escape_statistics(ens, 1, 500, levels, t=10, ell=0)[2]
    assert g == 0.0 and se == 0.0


def test_mixing_gap_mma2_independent_beyond_window():
    spec = ProcessSpec.mma2()
    levels = LevelSchedule(spec, MMA_OBS, tau=1.0)
    n = 1000
    ens = Ensemble(spec, 59, 40000, n, obs=MMA_OBS)
    g, se = escape_statistics(ens, 2, n, levels, t=5, ell=n // default_block_count(n))[2]
    assert g <= 3 * se + 1e-4


def test_mixing_gap_ar1_below_noise():
    spec = ProcessSpec.ar1(2)
    levels = LevelSchedule(spec, AR1_OBS, tau=1.0)
    n = 2000
    ens = Ensemble(spec, 61, 30000, n, obs=AR1_OBS)
    g, se = escape_statistics(ens, 1, n, levels, t=40, ell=n // default_block_count(n))[2]
    assert g <= 3 * se + 1e-4


def test_default_parameters():
    assert default_block_count(10000) == 100
    assert default_gap(10000) == 10


def _escapes_by_definition(exceed, offsets):
    """Order-i escape booleans of one path, entry by entry from the recursion
    Q_0(j) = X_j > u, Q_k(j) = Q_{k-1}(j) and not Q_{k-1}(j + p_k)."""

    def q(k, j):
        if k == 0:
            return bool(exceed[j])
        return q(k - 1, j) and not q(k - 1, j + offsets[k - 1])

    width = len(exceed) - sum(offsets)
    return [q(len(offsets), j) for j in range(width)]


@settings(max_examples=60, deadline=None, derandomize=True)
@given(data=st.data())
def test_escape_matrix_matches_recursive_definition(data):
    offs = data.draw(st.lists(st.integers(1, 4), min_size=1, max_size=3), label="offsets")
    rows = data.draw(st.integers(1, 4), label="rows")
    width = data.draw(st.integers(sum(offs) + 1, sum(offs) + 16), label="width")
    bits = data.draw(st.lists(st.booleans(), min_size=rows * width, max_size=rows * width))
    exceed = np.array(bits, dtype=bool).reshape(rows, width)
    for depth in range(1, len(offs) + 1):
        got = escape_matrix(exceed, EscapeOffsets(tuple(offs[:depth])))
        want = [_escapes_by_definition(row, offs[:depth]) for row in exceed]
        assert got.tolist() == want, depth


def _pair_statistics_by_loops(ens, offsets, n, jmax, t, ell, event):
    """The pair sum, mixing gap and escape rate of ``escape_statistics`` by
    plain loops over the dense exceedance masks, one path and one start index at a
    time."""
    pairs, lags = [], np.zeros(jmax + 1)
    w_joint, w_lone, w_clean = [], [], []
    for _, e in dense_mask_chunks(ens, event, extra=max(jmax, t + ell) + offsets.span):
        for row in e:
            q = _escapes_by_definition(row, offsets.offsets)
            total = 0
            for s in range(n):
                for j in range(1, jmax + 1):
                    if q[s] and q[s + j]:
                        lags[j] += 1
                        total += 1
            pairs.append(total)
            w_lone.append(sum(q[:n]))
            w_joint.append(sum(q[s] and not any(q[s + t : s + t + ell]) for s in range(n)))
            w_clean.append(sum(not any(q[s : s + ell]) for s in range(n)))
    rate, joint, clean = _mean(w_lone), _mean(w_joint), _mean(w_clean)
    cluster = (*_mean(pairs), lags / (ens.trials * n))
    # shares per start are the per-path counts over n
    gap = abs(joint[0] - rate[0] * clean[0] / n) / n
    se = math.sqrt(joint[1] ** 2 + (clean[0] * rate[1] / n) ** 2 + (rate[0] * clean[1] / n) ** 2) / n
    return cluster, (gap, se), rate


@pytest.mark.parametrize(
    "spec, obs, offs",
    [
        (ProcessSpec.ar1(2), AR1_OBS, (1,)),
        (ProcessSpec.mma13(), MMA_OBS, (1, 3)),
        (ProcessSpec.doubling(), ObservableSpec(family="ball_measure", form="gumbel", anchor="0"), (1,)),
    ],
    ids=["ar1_2", "mma13", "doubling_ball"],
)
def test_escape_pair_statistics_match_brute_force(spec, obs, offs):
    n, trials = 60, 40
    offsets = EscapeOffsets(offs)
    levels = LevelSchedule(spec, obs, tau=6.0)  # P(X_0 > u) = 0.1: many escapes per path
    event = exceedance_event(spec, obs, levels.u(n))
    ens = Ensemble(spec, 17, trials, n, obs=obs)
    assert len(list(ens.mask_chunks(event))) == 1  # one chunk: the sums see the same rows
    k_n = 8
    jmax = n // k_n
    # windows ending inside the span, at the right edge, and longer than n
    for t, ell in ((1, jmax), (3, 5), (0, 1), (2, n + 3)):
        (value, se, lags), gap, rate = _pair_statistics_by_loops(ens, offsets, n, jmax, t, ell, event)
        assert value > 0 and gap[1] > 0
        got_rate, (got_value, got_se, got_lags), got_gap = escape_statistics(
            ens, offsets, n, levels, k_n=k_n, t=t, ell=ell
        )
        assert (got_value, got_se) == (value, se)
        assert got_lags.tolist() == lags.tolist()
        assert got_gap == gap, (t, ell)
        assert got_rate == rate


def _survey_repr(ens, event, offsets):
    return repr(_survey(ens, event, offsets))


def test_escape_statistics_independent_of_chunk_size(monkeypatch):
    """The three key sweeps (estimator survey, periodicity report, escape
    statistics) sum integer per-path counts, so splitting the trials into
    more chunks leaves every float unchanged."""
    spec = ProcessSpec.mma13()
    levels = LevelSchedule(spec, MMA_OBS, tau=6.0)
    n = 60
    ens = Ensemble(spec, 6, 700, n, obs=MMA_OBS)
    offsets = EscapeOffsets((1, 3))
    event = exceedance_event(spec, MMA_OBS, levels.u(n))
    # the sweep widths of the calls below; the default cutoff of the
    # report at theta = 1/3 is ceil(log 60 / log 1.5) = 11 chains of 3 steps
    extras = (offsets.span, 3 * 11, max(n // 8, 3 + 7) + offsets.span)

    def sweeps():
        return (
            _survey_repr(ens, event, offsets),
            repr(list(periodicity_report(ens, 3, 1.0 / 3.0, levels, n).rows())),
            repr(escape_statistics(ens, offsets, n, levels, k_n=8, t=3, ell=7)),
        )

    assert [len(list(ens.mask_chunks(event, extra=e))) for e in extras] == [1, 1, 1]
    whole = sweeps()
    monkeypatch.setattr(processes, "CHUNK_BUDGET", 1)  # 256-trial chunks
    assert [len(list(ens.mask_chunks(event, extra=e))) for e in extras] == [3, 3, 3]
    split = sweeps()
    assert split == whole


BALL0 = ObservableSpec(family="ball_measure", form="gumbel", anchor="0")


@pytest.mark.parametrize(
    "spec, obs, offs",
    [
        (ProcessSpec.ar1(2), AR1_OBS, (1,)),
        (ProcessSpec.mma13(), MMA_OBS, (1, 3)),
        (ProcessSpec.doubling(), BALL0, (1,)),
        (ProcessSpec.bernoulli_doubling(0.3), None, (1, 2)),
    ],
    ids=["ar1_2", "mma13", "doubling_ball", "cylinder"],
)
def test_statistic_sweeps_independent_of_time_window(spec, obs, offs, monkeypatch):
    """The sweeps read exceedance keys built one engine window at a time and
    sum integer counts, so shorter windows leave every float unchanged; ar1
    carries its state across the windows."""
    n, trials = 300, 400
    offsets = EscapeOffsets(offs)
    ens = Ensemble(spec, 19, trials, n, obs=obs)
    if obs is None:
        event = ExceedanceEvent(word=(0, 1, 1, 0))

        def sweeps():
            return _survey_repr(ens, event, offsets)

    else:
        levels = LevelSchedule(spec, obs, tau=6.0)
        event = exceedance_event(spec, obs, levels.u(n))

        def sweeps():
            stats = escape_statistics(ens, offsets, n, levels, k_n=8, t=3, ell=7)
            rows = list(periodicity_report(ens, offsets, 0.5, levels, n, ratio_cutoff=4).rows())
            return _survey_repr(ens, event, offsets), repr(stats), repr(rows)

    whole = sweeps()
    for block in (7, 64):
        monkeypatch.setattr(processes, "TIME_BLOCK", block)
        assert sweeps() == whole, block


@pytest.mark.parametrize("kind", KINDS)
def test_mask_chunk_keys_match_one_shot_masks(kind, monkeypatch):
    spec = ProcessSpec(kind)
    obs = BALL0 if kind in MAP_KINDS else MMA_OBS
    n, extra = 150, 5
    event = exceedance_event(spec, obs, level_for_tau(spec, obs, n, 6.0))
    ens = Ensemble(spec, 23, 50, n)
    (_, dense), = dense_mask_chunks(ens, event, extra=extra)
    monkeypatch.setattr(processes, "TIME_BLOCK", 7)
    (ids, keys), = ens.mask_chunks(event, extra=extra)
    assert dense.shape == (ids.size, n + extra) and dense.any()
    assert np.array_equal(keys, np.flatnonzero(dense.T))
