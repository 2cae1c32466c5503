"""Hitting- and return-time sampling to shrinking targets, with fit checks.

Hitting counts from step 1, so the Kac normalisation E[r | start in U] =
1/mu(U) holds exactly.  Return starts are drawn from the invariant measure
conditioned on the target, exactly: by digit construction for cylinder and
interval targets of the symbolic kinds, and through the law of the window
maximum for the moving-maximum models.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import rng, symbolic
from .observables import (
    ExceedanceEvent,
    ObservableSpec,
    ball_event,
    ball_measure,
    ball_radius_for_measure,
    bernoulli_cdf,
)
from .processes import (
    PRECISION,
    PathEngine,
    _chunk_trials,
    _digit_block,
    evaluate_point,
)


class ConditionalStartError(RuntimeError):
    """A drawn return-time start lies outside its target."""


@dataclass(frozen=True)
class TargetSet:
    """Shrinking target: a metric ball around an anchor, or a cylinder."""

    spec: object
    kind: str                    # "ball" | "cylinder"
    anchor: str | None
    delta: float
    measure: float
    event: ExceedanceEvent

    @staticmethod
    def ball(spec, anchor, delta):
        obs = ObservableSpec(family="distance", form="weibull", anchor=anchor, alpha=1.0, d=1.0)
        mu = float(ball_measure(spec, obs, delta))
        if mu <= 0.0:
            raise ValueError("target has measure zero")
        ev = ball_event(spec, obs.anchor_point(spec), delta)
        return TargetSet(spec, "ball", anchor, delta, mu, ev)

    @staticmethod
    def ball_of_measure(spec, obs, measure):
        anchor = obs.anchor
        probe = ObservableSpec(family="distance", form="weibull", anchor=anchor, alpha=1.0, d=1.0)
        delta = ball_radius_for_measure(spec, probe, measure)
        return TargetSet.ball(spec, anchor, delta)

    @staticmethod
    def cylinder(spec, word):
        w = symbolic.SymbolicWord.parse(word, spec.base)
        mu = symbolic.cylinder_measure(w, spec.digit_weights)
        ev = ExceedanceEvent("cylinder", word=tuple(w.digits))
        return TargetSet(spec, "cylinder", str(w), 0.0, mu, ev)

    def contains_state(self, state):
        if self.kind == "cylinder":
            got = state.stream.block(state.cursor, state.cursor + len(self.event.word))
            return all(int(a) == b for a, b in zip(got, self.event.word))
        x = evaluate_point(self.spec, state)
        if self.spec.kind == "chebyshev":
            theta = sum(
                int(d) * 0.5 ** (i + 1)
                for i, d in enumerate(state.stream.block(state.cursor, state.cursor + PRECISION))
            )
            return bool(self.event.mask_native(np.asarray(theta)))
        return bool(self.event.mask_native(np.asarray(x)))


@dataclass
class TimeSampleSet:
    """Normalized hitting/return times (raw steps times mu(U)); censored
    entries are flagged and pinned at the horizon, never dropped."""

    times: np.ndarray
    censored: np.ndarray
    mode: str                    # "hts" | "rts"
    horizon: float               # normalized censoring horizon
    target_measure: float

    def tsv_rows(self):
        for t, c in zip(self.times, self.censored):
            yield f"{float(t)!r}\t{int(c)}"


def hitting_time(spec, target, state, horizon):
    """Least j in 1..horizon with the orbit in the target at step j, else None."""
    from .processes import step

    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    s = state
    for j in range(1, horizon + 1):
        s = step(spec, s)
        if target.contains_state(s):
            return j
    return None


def _first_hits_engine(spec, target, trials, seed, horizon, channel, prefix=None):
    """Vectorized first-hit steps (>= 1): trial-chunked, windowed alive sweep."""
    steps = np.full(trials, horizon + 1, dtype=np.int64)
    stop = horizon + 1
    chunk = _chunk_trials(spec, stop)
    for lo in range(0, trials, chunk):
        ids = np.arange(lo, min(lo + chunk, trials), dtype=np.uint64)
        sub_prefix = None if prefix is None else prefix[lo : lo + ids.size]
        eng = PathEngine(spec, seed, ids, channel, sub_prefix)
        alive_rows = np.arange(lo, lo + ids.size)
        for t, m in eng.windows(stop, target.event):
            if t == 0:
                m[0] = False
            # hits listed step-major: unique's first entry per trial is its earliest
            at, rows = np.divmod(np.flatnonzero(m), m.shape[1])
            rows, first = np.unique(rows, return_index=True)
            steps[alive_rows[rows]] = t + at[first]
            keep = np.ones(alive_rows.size, dtype=bool)
            keep[rows] = False
            eng.select(keep)
            alive_rows = alive_rows[keep]
    return steps


def _time_samples(steps, horizon, mode, measure):
    """Normalized times of first-hit steps, censored past ``horizon`` steps."""
    censored = steps > horizon
    times = np.where(censored, horizon, steps).astype(np.float64) * measure
    return TimeSampleSet(times, censored, mode, horizon * measure, measure)


def sample_hts(spec, target, trials, seed, horizon_factor=20):
    """Normalized first hitting times from stationary starts."""
    if horizon_factor < 10:
        raise ValueError("horizon_factor must be >= 10 (truncation bias)")
    horizon = int(math.ceil(horizon_factor / target.measure))
    steps = _first_hits_engine(spec, target, trials, seed, horizon, rng.CH_HTS)
    return _time_samples(steps, horizon, "hts", target.measure)


# ---------------------------------------------------------------------------
# conditional starts
# ---------------------------------------------------------------------------


def _interval_digit_prefix(spec, lo, hi, trials, seed, depth=PRECISION + 16):
    """Digits of points drawn from the invariant measure conditioned on the
    (possibly wrapped) open interval (lo, hi).

    Digit-by-digit conditional descent: each digit is drawn with its exact
    conditional mass given the interval (fresh entropy per digit); once a
    trial's cell lies inside the interval the conditional law coincides with
    the unconditional one, and the remaining digits are exactly the path's
    own unconditional stream digits.
    """
    w = spec.digit_weights
    m = w.size
    ids = np.arange(trials, dtype=np.uint64)
    F = (lambda t: np.clip(t, 0.0, 1.0)) if spec.is_uniform else (
        lambda t: bernoulli_cdf(t, w)
    )
    lo_m, hi_m = lo % 1.0, hi % 1.0
    rel_lo = np.empty(trials)
    rel_hi = np.empty(trials)
    if lo_m < hi_m:
        rel_lo.fill(lo_m)
        rel_hi.fill(hi_m)
    else:  # wrapped through 0: segment [0, hi_m) or [lo_m, 1)
        u_side = rng.uniforms(seed, rng.CH_INIT, ids, 0, 1)[:, 0]
        mass_hi = float(F(np.asarray([hi_m]))[0])
        mass_lo = 1.0 - float(F(np.asarray([lo_m]))[0])
        take_hi = u_side * (mass_lo + mass_hi) < mass_hi
        rel_lo[:] = np.where(take_hi, 0.0, lo_m)
        rel_hi[:] = np.where(take_hi, hi_m, 1.0)
    prefix = _digit_block(spec, seed, ids, 0, depth, rng.CH_ORBIT)
    active = np.flatnonzero((rel_lo > 0.0) | (rel_hi < 1.0))
    for k in range(depth):
        if active.size == 0:
            break
        rlo = m * rel_lo[active]
        rhi = m * rel_hi[active]
        cum_mass = np.zeros((active.size, m + 1))
        for d in range(m):
            a = F(np.clip(rlo - d, 0.0, 1.0))
            b = F(np.clip(rhi - d, 0.0, 1.0))
            cum_mass[:, d + 1] = cum_mass[:, d] + w[d] * (b - a)
        u = rng.uniforms(seed, rng.CH_INIT, ids[active], k + 1, k + 2)[:, 0]
        target = (u * cum_mass[:, m])[:, None]
        d_sel = (target >= cum_mass[:, 1:]).sum(axis=1).astype(np.int64)
        d_sel = np.minimum(d_sel, m - 1)
        prefix[active, k] = d_sel.astype(np.uint8)
        rel_lo[active] = np.clip(rlo - d_sel, 0.0, 1.0)
        rel_hi[active] = np.clip(rhi - d_sel, 0.0, 1.0)
        keep = (rel_lo[active] > 0.0) | (rel_hi[active] < 1.0)
        active = active[keep]
    return prefix


def _rts_prefix(spec, target, trials, seed):
    """Per-trial stream prefix realizing a start inside the target (None for
    a target of measure 1: the starts are unconditional)."""
    if target.measure >= 1.0:
        return None
    if target.kind == "cylinder":
        word = np.asarray(target.event.word, dtype=np.uint8)
        return np.tile(word, (trials, 1))
    ev = target.event
    if spec.kind in ("m_ary", "chebyshev"):
        return _interval_digit_prefix(spec, ev.lo, ev.hi, trials, seed)
    if spec.kind == "dyadic_jump":
        return _interval_digit_prefix(spec, max(ev.lo, 0.0), min(ev.hi, 1.0), trials, seed)
    if spec.kind == "ar1":
        # X_0 uniform conditioned on (u, 1]; engine stores its most
        # significant digit at position 63, so the descent is reversed.
        msb_first = _interval_digit_prefix(spec, ev.u, 1.0, trials, seed, depth=PRECISION)
        return msb_first[:, ::-1].copy()
    if spec.kind == "iid_uniform":
        r = rng.uniforms(seed, rng.CH_INIT, np.arange(trials, dtype=np.uint64), 0, 1)[:, 0]
        u0 = ev.u + (1.0 - r) * (1.0 - ev.u)  # 1 - r in (0, 1]: u0 > u
        if not ev.mask_native(u0).all():
            raise ConditionalStartError("an i.i.d. start lies outside the target")
        return u0[:, None]
    # moving-maximum kinds: X_0 is the maximum M of the k window slots, so
    # given M > u it has the tail law (x^k - u^k) / (1 - u^k) on (u, 1]; M
    # sits in a uniformly chosen slot, the other slots of the window are
    # uniform below it, and the slots outside the window stay Uniform(0, 1).
    slots = np.array([1, 3] if spec.kind == "mma2" else [0, 1, 3])
    k = slots.size
    r = rng.uniforms(seed, rng.CH_INIT, np.arange(trials, dtype=np.uint64), 0, 6)
    uk = max(ev.u, 0.0) ** k
    top = (uk + (1.0 - r[:, 0]) * (1.0 - uk)) ** (1.0 / k)  # 1 - r in (0, 1]: top > u
    prefix = r[:, 2:6].copy()
    prefix[:, slots] *= top[:, None]
    prefix[np.arange(trials), slots[(r[:, 1] * k).astype(np.int64)]] = top
    if not ev.mask_native(prefix[:, slots].max(axis=1)).all():
        raise ConditionalStartError("a moving-maximum start lies outside the target")
    return prefix


def sample_rts(spec, target, trials, seed, horizon_factor=20):
    """Normalized return times: starts drawn from mu conditioned on the target."""
    if horizon_factor < 10:
        raise ValueError("horizon_factor must be >= 10 (truncation bias)")
    return _return_times(spec, target, trials, seed, horizon_factor)


def _return_times(spec, target, trials, seed, horizon):
    """Return times censored at the normalized ``horizon``, without the
    truncation-bias check of ``sample_rts``: a caller that reads only the
    times up to ``horizon`` (the RtsAtom estimator) sweeps no further.

    A return at step j <= ceil(horizon / mu) has the time j * mu, as in any
    longer sample (a map kind's mask can differ only where a value lies
    within an ulp of the target's edge, see processes)."""
    steps_h = int(math.ceil(horizon / target.measure))
    prefix = _rts_prefix(spec, target, trials, seed)
    steps = _first_hits_engine(spec, target, trials, seed, steps_h, rng.CH_ORBIT, prefix=prefix)
    return _time_samples(steps, steps_h, "rts", target.measure)


# ---------------------------------------------------------------------------
# goodness of fit
# ---------------------------------------------------------------------------


def ks_distance(samples, cdf):
    """sup_t |empirical CDF - cdf(t)| up to the censoring horizon."""
    t = np.asarray(samples.times, dtype=np.float64)
    unc = ~np.asarray(samples.censored, dtype=bool)
    if not unc.any():
        raise ValueError("no uncensored samples")
    n = t.size
    x = np.sort(t[unc])
    fx = np.asarray(cdf(x), dtype=np.float64)
    hi = np.arange(1, x.size + 1) / n
    lo = np.arange(0, x.size) / n
    d = max(np.abs(hi - fx).max(), np.abs(lo - fx).max())
    return float(max(d, abs(x.size / n - float(cdf(samples.horizon)))))


def empirical_cdf(samples):
    t = np.asarray(samples.times, dtype=np.float64)
    unc = ~np.asarray(samples.censored, dtype=bool)
    x = np.sort(t[unc])
    n = t.size

    def F(grid):
        return np.searchsorted(x, np.asarray(grid, dtype=np.float64), side="right") / n

    return F


def check_integral_relation(hts, rts, grid):
    """sup over the grid of |G_hat(t) - integral_0^t (1 - Gtilde_hat)(s) ds|.

    The integral of the empirical survival is computed exactly (the survival
    is a step function); censored return times contribute their full sojourn.
    """
    grid = np.asarray(grid, dtype=np.float64)
    if grid.max() > min(hts.horizon, rts.horizon) + 1e-12:
        raise ValueError("grid exceeds the observed horizon")
    G = empirical_cdf(hts)
    s = np.asarray(rts.times, dtype=np.float64)
    n = s.size
    dev = 0.0
    for t in grid:
        integral = np.minimum(s, t).sum() / n  # = int_0^t (1 - Gtilde) exactly
        dev = max(dev, abs(float(G(t)) - integral))
    return dev
