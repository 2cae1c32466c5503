"""Hitting- and return-time sampling to shrinking targets, with fit checks.

Hitting counts from step 1, so the Kac normalisation E[r | start in U] =
1/mu(U) holds exactly.  Return starts are drawn from the invariant measure
conditioned on the target, exactly: by digit construction for cylinder and
arc targets of the symbolic kinds, and through the law of the window maximum
for the moving-maximum models, the i.i.d. control being the one-slot case.
A union of arcs has its digits drawn depth by depth from an unsorted table of
at most two boundary states per arc (an arc seen from a trial's cell), so the
conditional digit masses are computed once per state, never once per trial.
A trial's start is a function of its id alone, so starts are drawn per trial
chunk, by the same function that sweeps the chunk to its returns
(``_first_hits``): in the forked workers of a large sample, and in those of
the estimator bundle's survey chunks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import processes, rng, symbolic
from .observables import (
    ExceedanceEvent,
    ObservableSpec,
    ball_event,
    ball_measure,
    ball_radius_for_measure,
    bernoulli_cdf,
)
from .processes import (
    MAP_KINDS,
    PRECISION,
    PathEngine,
    _chunk_trials,
    _digit_block,
    _fork_map,
    _gap_prefix,
)

_DRAW_DEPTHS = 8  #: descent depths per CH_INIT uniforms call, made at a block's first drawn depth


class ConditionalStartError(RuntimeError):
    """A drawn return-time start lies outside its target."""


@dataclass(frozen=True)
class TargetSet:
    """Shrinking target of measure ``measure``: the ``event`` of a metric ball
    around an anchor, or a cylinder, whose event is its word."""

    spec: object
    measure: float
    event: ExceedanceEvent

    @staticmethod
    def ball(spec, anchor, delta):
        obs = ObservableSpec(family="distance", form="weibull", anchor=anchor, alpha=1.0, d=1.0)
        ev = ball_event(spec, obs.anchor_point(spec), delta)  # names a ball too small for a float
        mu = float(ball_measure(spec, obs, delta))
        if mu <= 0.0:
            raise ValueError("target has measure zero")
        return TargetSet(spec, mu, ev)

    @staticmethod
    def ball_of_measure(spec, obs, measure):
        # ball_measure reads only the anchor of obs
        return TargetSet.ball(spec, obs.anchor, ball_radius_for_measure(spec, obs, measure))

    @staticmethod
    def cylinder(spec, word):
        w = symbolic.SymbolicWord.parse(word, spec.base)
        mu = symbolic.cylinder_measure(w, spec.digit_weights)
        return TargetSet(spec, mu, ExceedanceEvent(word=tuple(w.digits)))


@dataclass
class TimeSampleSet:
    """Normalized hitting/return times (raw steps times mu(U)); censored
    entries are flagged and pinned at the horizon, never dropped."""

    times: np.ndarray
    censored: np.ndarray
    mode: str                    # "hts" | "rts"
    horizon: float               # normalized censoring horizon
    target_measure: float


def _first_hits(spec, target, seed, horizon, channel, ids, starts=False):
    """First-hit steps (>= 1; horizon + 1 if none) of the paths ``ids``, from
    return starts drawn for these ids (``_rts_prefix``) if ``starts``: a
    windowed alive sweep from step 1.  Each window's keys are step-major, so
    a path's first key is its first hit; the paths that hit leave the sweep
    (``PathEngine.select``) while windows are left."""
    stop = horizon + 1
    steps = np.full(ids.size, stop, dtype=np.int64)
    alive = np.arange(ids.size)
    eng = PathEngine(spec, seed, ids, channel, _rts_prefix(spec, target, ids, seed) if starts else None)
    for t, keys in eng.windows(stop, target.event, start=1):
        # keys are step-major: unique's first entry per trial is its earliest
        at, rows = np.divmod(keys, alive.size)
        rows, first = np.unique(rows, return_index=True)
        steps[alive[rows]] = t + at[first]
        if t + processes.TIME_BLOCK < stop:
            keep = np.ones(alive.size, dtype=bool)
            keep[rows] = False
            eng.select(keep)
            alive = alive[keep]
    return steps


def _first_hits_engine(spec, target, trials, seed, horizon, channel, starts=False):
    """``_first_hits`` of trials 0, ..., trials - 1 per trial chunk, a large
    sweep's chunks in forked workers, joined in trial order."""
    hits = lambda ids: _first_hits(spec, target, seed, horizon, channel, ids, starts)
    return np.concatenate(_fork_map(hits, _chunk_trials(spec, trials, horizon + 1)))


def _time_samples(steps, horizon, mode, measure):
    """Normalized times of first-hit steps, censored past ``horizon`` steps."""
    censored = steps > horizon
    times = np.where(censored, horizon, steps).astype(np.float64) * measure
    return TimeSampleSet(times, censored, mode, horizon * measure, measure)


def _sample(spec, target, trials, seed, horizon_factor, mode):
    """Normalized first-hit times of ``trials`` paths, censored past
    ``horizon_factor / mu(U)`` steps: hitting times ("hts") or return times
    from starts drawn from mu conditioned on the target ("rts")."""
    processes._check_integer(trials, "trials")
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials!r}")
    if horizon_factor < 10:
        raise ValueError("horizon_factor must be >= 10 (truncation bias)")
    horizon = int(math.ceil(horizon_factor / target.measure))
    rts = mode == "rts"
    steps = _first_hits_engine(spec, target, trials, seed, horizon, rng.CH_ORBIT if rts else rng.CH_HTS, rts)
    return _time_samples(steps, horizon, mode, target.measure)


def sample_hts(spec, target, trials, seed, horizon_factor=20):
    """Normalized first hitting times from stationary starts."""
    return _sample(spec, target, trials, seed, horizon_factor, "hts")


# ---------------------------------------------------------------------------
# conditional starts
# ---------------------------------------------------------------------------


def _interval_digit_prefix(spec, arcs, ids, seed, depth=PRECISION + 16):
    """Digits of points drawn from the invariant measure conditioned on the
    union of the sorted disjoint open ``arcs``, clipped to [0, 1], one row per
    trial of ``ids``.

    Digit-by-digit conditional descent, each digit drawn with its exact
    conditional mass (fresh entropy per digit).  A trial carries only its row
    in a per-depth table of states (rel_lo, rel_hi), an arc seen from a cell;
    row r also carries ``path[r]``, the digits that lead to it.  The first
    rows are the arcs, a trial's picked when there are several by its
    position-0 uniform against their cumulative masses.  The m digit masses
    are computed once per row; digit d leads to the child
    (clip(m rel_lo - d), clip(m rel_hi - d)).  Where each row has one child of
    positive mass, its digit is read off the table whatever the uniform, none
    is drawn, and row r's child is row r (all 11 depths of a doubling@0 start
    of measure 2**-10 are such; its one draw picks the arc).  Otherwise each
    trial draws its digit and the children inherit their parent's path plus
    the digit.  A trial is written once, with its row's path: when the row
    reaches (0, 1), where its cell lies inside the arc, the conditional law is
    the unconditional one and its remaining digits are its own stream digits
    (the jump map's bits, whose orbit words are its gaps, on ``rng.CH_BITS``);
    or at the last depth.  The table keeps only the rows that trials reach.
    Each draw is positional, depth k reading position k + 1, and a row's
    floats follow from its parent row's, whichever trials reached it, so a
    trial's digits do not depend on the other ids.
    """
    w = spec.digit_weights
    m = w.size
    F = (lambda t: np.clip(t, 0.0, 1.0)) if spec.is_uniform else (lambda t: bernoulli_cdf(t, w))
    table = np.clip(np.array(arcs, dtype=np.float64), 0.0, 1.0)
    row = np.zeros(ids.size, dtype=np.intp)
    if len(table) > 1:
        mass = np.cumsum(np.diff(F(table), axis=1)[:, 0])
        u_arc = rng.uniforms(seed, rng.CH_INIT, ids, 0, 1)
        row = ((u_arc * mass[-1]) >= mass[:-1]).sum(axis=1)
    if spec.kind == "dyadic_jump":
        prefix = rng.bits(seed, rng.CH_BITS, ids, 0, depth)
    else:
        prefix = _digit_block(spec, seed, ids, 0, depth, rng.CH_ORBIT)
    inner = lambda t: (t[:, 0] > 0.0) | (t[:, 1] < 1.0)  # not (0, 1): the cell still meets an edge
    active = np.flatnonzero(inner(table)[row])
    row, path = row[active], np.empty((len(table), depth), dtype=prefix.dtype)
    reached = np.bincount(row, minlength=len(table)) > 0  # the table keeps only the rows trials reach
    table, path, row = table[reached], path[reached], (np.cumsum(reached) - 1)[row]
    for k in range(depth):
        if active.size == 0:
            break
        if k % _DRAW_DEPTHS == 0:
            u_ahead = None  # this block's draws are not made yet
        child = np.clip(m * table[:, None, :] - np.arange(m)[:, None], 0.0, 1.0).reshape(-1, 2)
        mass = w * (F(child[:, 1]) - F(child[:, 0])).reshape(-1, m)
        if (mass >= 0.0).all() and (np.count_nonzero(mass, axis=1) == 1).all():  # one child per row: u picks no digit
            path[:, k] = np.argmax(mass, axis=1)
            table = child[np.arange(len(table)) * m + path[:, k]]  # row r's child is row r
            if inner(table).all():
                continue
        else:
            if u_ahead is None:  # positional draws: the block's later depths are drawn ahead
                k0 = k - k % _DRAW_DEPTHS
                u_ahead = rng.uniforms(seed, rng.CH_INIT, ids[active], k0 + 1, k0 + 1 + _DRAW_DEPTHS)
            cum = np.cumsum(mass, axis=1)[row]
            u = u_ahead[:, k % _DRAW_DEPTHS]
            row = row * m + np.minimum(((u * cum[:, -1])[:, None] >= cum).sum(axis=1), m - 1)
            table, path = child, np.repeat(path, m, axis=0)
            path[:, k] = np.arange(len(path)) % m
        # trials at (0, 1) take their row's digits and leave; the table keeps the rows still reached
        keep = inner(table)[row]
        prefix[active[~keep], : k + 1] = path[row[~keep], : k + 1]
        active, row = active[keep], row[keep]
        if u_ahead is not None:
            u_ahead = u_ahead[keep]
        reached = np.bincount(row, minlength=len(table)) > 0
        table, path, row = table[reached], path[reached], (np.cumsum(reached) - 1)[row]
    prefix[active] = path[row]
    return prefix


def _rts_prefix(spec, target, ids, seed):
    """Stream prefix realizing a start inside the target, one row per trial of
    ``ids`` and a function of that trial alone (None for a target of measure
    1: the starts are unconditional).  The jump map's start bits become its
    gaps here, once."""
    if target.measure >= 1.0:
        return None
    if target.event.word or spec.kind in MAP_KINDS:
        if target.event.word:
            prefix = np.tile(np.asarray(target.event.word, dtype=np.uint8), (ids.size, 1))
        else:
            prefix = _interval_digit_prefix(spec, target.event.arcs, ids, seed)
        if spec.kind == "dyadic_jump":
            return _gap_prefix(prefix, seed, ids)
        return prefix
    if spec.kind == "ar1":
        # X_0 uniform conditioned on (u, 1]; engine stores its most
        # significant digit at position 63, so the descent is reversed.
        msb_first = _interval_digit_prefix(spec, target.event.arcs, ids, seed, depth=PRECISION)
        return msb_first[:, ::-1].copy()
    # moving-maximum kinds: X_0 is the maximum M of the k window slots, so
    # given M > u it has the tail law (x^k - u^k) / (1 - u^k) on (u, 1]; M
    # sits in a uniformly chosen slot, the other slots of the window are
    # uniform below it, and the slots outside the window stay Uniform(0, 1).
    # For the i.i.d. control (k = 1) the powers are exact: M = u + (1 - r)(1 - u).
    slots = np.array(spec.slots)
    k = slots.size
    r = rng.uniforms(seed, rng.CH_INIT, ids, 0, 3 + spec.slots[-1])
    uk = max(target.event.arcs[0][0], 0.0) ** k  # the event is the half line (u, inf)
    top = (uk + (1.0 - r[:, 0]) * (1.0 - uk)) ** (1.0 / k)  # 1 - r in (0, 1]: top > u
    prefix = r[:, 2:].copy()
    prefix[:, slots] *= top[:, None]
    prefix[np.arange(ids.size), slots[(r[:, 1] * k).astype(np.int64)]] = top
    if not target.event.mask_native(prefix[:, slots].max(axis=1)).all():
        raise ConditionalStartError("a moving-maximum start lies outside the target")
    return prefix


def sample_rts(spec, target, trials, seed, horizon_factor=20):
    """Normalized return times: starts drawn from mu conditioned on the target."""
    return _sample(spec, target, trials, seed, horizon_factor, "rts")


# ---------------------------------------------------------------------------
# goodness of fit
# ---------------------------------------------------------------------------


def ks_sup(fx, n):
    """sup |empirical CDF - F| over the jumps of the empirical CDF of n
    samples, given F at its sorted first ``len(fx)`` samples."""
    fx = np.asarray(fx, dtype=np.float64)
    return max(np.abs(np.arange(1, fx.size + 1) / n - fx).max(), np.abs(np.arange(0, fx.size) / n - fx).max())


def ks_distance(samples, cdf):
    """sup_t |empirical CDF - cdf(t)| up to the censoring horizon."""
    t = np.asarray(samples.times, dtype=np.float64)
    unc = ~np.asarray(samples.censored, dtype=bool)
    if not unc.any():
        raise ValueError("no uncensored samples")
    x = np.sort(t[unc])
    d = ks_sup(cdf(x), t.size)
    return float(max(d, abs(x.size / t.size - float(cdf(samples.horizon)))))


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
