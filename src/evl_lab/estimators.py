"""Four independent extremal-index estimators.

MaxLaw inverts the limiting survival of the running maximum, EscapeLaw does
the same for the no-escape event (the two agree asymptotically around
repelling periodic structure), Runs reads the conditional non-continuation
probability at the period, and RtsAtom reads the weight of the at-zero atom
of the normalized return-time law.

MaxLaw, EscapeLaw and Runs, and the cylinder-mode MaxLaw, all read one sweep
of the exceedance keys of ``Ensemble.mask_chunks``, ``_survey``: per path it
notes whether any exceedance and any last-order escape occurs in [0, n), and
per escape order it counts the escapes and the events they condition on; the
runs ratios are reduced once from those counts over all trials, so the trial
chunking cannot move a float, nor can the CPU count that a large sweep's
chunks are split over (``processes._fork_map``).  ``estimate_ei_bundle`` runs
its RtsAtom leg in the survey's trial chunks: each chunk draws its own return
starts and sweeps them beside its survey paths, so one pool splits both legs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import hts_rts, rng
from .escapes import EscapeOffsets, _escape_keys, _per_path, _ratio
from .observables import exceedance_event, level_for_tau, omega_for_cylinder
from .processes import Ensemble, _chunk_trials, _fork_map

#: return times at most ATOM_EPS (normalized) count toward the atom at zero
ATOM_EPS = 0.01


@dataclass(frozen=True)
class EIEstimate:
    """Extremal-index point estimate with its Monte Carlo standard error."""

    theta: float
    stderr: float
    method: str
    n: int = 0
    tau: float = 0.0
    trials: int = 0
    clamped: bool = False

    @staticmethod
    def clamp(theta, stderr, method, **kw):
        theta = float(theta)
        clipped = min(max(theta, 0.0), 1.0)
        return EIEstimate(clipped, float(stderr), method, clamped=clipped != theta, **kw)


def _binomial_se(p, trials):
    return math.sqrt(max(p * (1.0 - p), 1e-12) / trials)


def _survey(ensemble, event, offsets, chunks=None):
    """The one sweep of the estimator family over [0, n) of every path, read
    from the (trial ids, keys) ``chunks`` (those of ``Ensemble.mask_chunks``
    with the offsets' span unless given).

    Returns (share of paths with no exceedance, share of paths with no
    last-order escape, per escape order k the runs (ratio, stderr, events)
    of order-k escapes over order-(k-1) events, stepped through one offset
    at a time).
    """
    n = ensemble.length
    if chunks is None:
        chunks = ensemble.mask_chunks(event, extra=offsets.span)
    per_chunk = []
    for ids, keys in chunks:
        paths = ids.size
        levels = _escape_keys(keys, paths, offsets)  # exact at steps below n at every order
        per_chunk.append([np.bincount(k[k < n * paths] % paths, minlength=paths) for k in levels])
    counts = _per_path(per_chunk)
    quiet_max, quiet_esc = (int((c == 0).sum()) / ensemble.trials for c in (counts[0], counts[-1]))
    runs = [(*_ratio(a, b), b.sum(dtype=np.float64)) for b, a in zip(counts, counts[1:])]
    return quiet_max, quiet_esc, runs


def estimate_escape_law(spec, obs, offsets, tau, n, trials, seed):
    """(P(no order-i escape in [0, n)), stderr); tau = 0 gives exactly 1."""
    offsets = EscapeOffsets.of(offsets)
    ens = Ensemble(spec, seed, trials, n)
    u = level_for_tau(spec, obs, n, tau)
    if tau == 0.0:
        return 1.0, 0.0
    _, p, _ = _survey(ens, exceedance_event(spec, obs, u), offsets)
    return p, _binomial_se(p, trials)


def ei_from_max(p_hat, tau, se=0.0, method="MaxLaw", **meta):
    """Invert exp(-theta * tau): theta = -log(p_hat)/tau, delta-method stderr."""
    if not 0.0 < p_hat <= 1.0:
        raise ValueError("survival probability must lie in (0, 1]")
    if tau <= 0:
        raise ValueError("tau must be positive")
    theta = -math.log(p_hat) / tau
    stderr = se / (p_hat * tau)
    return EIEstimate.clamp(theta, stderr, method, tau=tau, **meta)


def ei_runs_nested(ensemble, offsets, u):
    """Runs estimates for every escape order 1..i in one ensemble sweep.

    Element k estimates theta_{k+1} = P(no continuation at lag p_{k+1} given
    an order-k event); their product estimates the full extremal index.
    """
    offsets = EscapeOffsets.of(offsets)
    if ensemble.obs is None:
        raise ValueError("the ensemble must carry the observable defining exceedances")
    event = exceedance_event(ensemble.spec, ensemble.obs, u)
    _, _, runs = _survey(ensemble, event, offsets)
    out = []
    for k, (theta, se, events) in enumerate(runs):
        if events < 100:
            raise ValueError(f"too few order-{k} conditioning events ({int(events)})")
        out.append(EIEstimate.clamp(theta, se, "Runs", n=ensemble.length, trials=ensemble.trials))
    return out


def ei_rts_atom(samples):
    """Extremal index from the atom at zero of normalized return times.

    theta = 1 - mass(atom); the continuous part contributes
    theta * (1 - exp(-theta * eps)) inside [0, eps], eps = ATOM_EPS, removed
    by one fixed-point pass (bias below theta * eps).  Only the uncensored
    times up to ATOM_EPS are read, over all ``times.size`` trials, so a
    sample censored at the horizon ATOM_EPS gives the same estimate as a
    longer one.
    """
    times = np.asarray(samples.times, dtype=np.float64)
    if times.size == 0:
        raise ValueError("empty sample set")
    uncensored = ~np.asarray(samples.censored, dtype=bool)
    a = float(((times <= ATOM_EPS) & uncensored).sum()) / times.size
    theta0 = 1.0 - a
    theta1 = 1.0 - a + theta0 * (1.0 - math.exp(-theta0 * ATOM_EPS))
    se = _binomial_se(a, times.size)
    return EIEstimate.clamp(theta1, se, "RtsAtom", trials=times.size)


def survey_max_and_escapes(spec, obs, offsets, tau, n, trials, seed):
    """One pass over a shared ensemble: survival of the maximum, survival of
    the no-escape event, and the runs ratio, all on identical trajectories."""
    offsets = EscapeOffsets.of(offsets)
    u = level_for_tau(spec, obs, n, tau)
    ens = Ensemble(spec, seed, trials, n)
    p_max, p_esc, runs = _survey(ens, exceedance_event(spec, obs, u), offsets)
    theta, se, events = runs[-1]
    return {
        "u": u,
        "p_max": p_max,
        "se_max": _binomial_se(p_max, trials),
        "p_escape": p_esc,
        "se_escape": _binomial_se(p_esc, trials),
        "runs_theta": theta,
        "runs_se": se,
        "exceedances": events,
    }


def ball_annulus_gap(spec, obs, offsets, tau, n, trials, seed):
    """|P(M_n <= u_n) - P(no escape in [0,n))| on shared trajectories."""
    s = survey_max_and_escapes(spec, obs, offsets, tau, n, trials, seed)
    return abs(s["p_max"] - s["p_escape"]), s


def cylinder_ei(spec, word, tau, trials, seed):
    """Cylinder-mode extremal index: survival of the maximum over the horizon
    floor(tau / mu(Z_n)) with exceedance set the anchor cylinder itself."""
    omega = omega_for_cylinder(spec, word, tau)
    if omega < 1:
        raise ValueError("tau too small: empty observation window")
    target = hts_rts.TargetSet.cylinder(spec, word)
    p, _, _ = _survey(Ensemble(spec, seed, trials, omega), target.event, EscapeOffsets((1,)))
    return ei_from_max(p, omega * target.measure, _binomial_se(p, trials), "MaxLaw", n=omega, trials=trials)


def estimate_ei_bundle(spec, obs, offsets, tau, n, trials, seed, rts_measure=2.0**-10):
    """All four estimators on one configuration; MaxLaw, EscapeLaw and Runs
    share a single simulated ensemble, RtsAtom samples its own returns at a
    target of measure ``rts_measure``, swept only to the normalized horizon
    ATOM_EPS (ceil(ATOM_EPS / mu) steps), the part of the return-time law it
    reads.

    Both legs run per trial chunk, in one pass of the worker pool
    (``processes._fork_map``) over the chunks of the longer sweep: a chunk
    returns its survey keys and the return steps of its own starts
    (``hts_rts._first_hits``), and the parent joins them in trial order."""
    offsets = EscapeOffsets.of(offsets)
    u = level_for_tau(spec, obs, n, tau)
    ens = Ensemble(spec, seed, trials, n)
    event = exceedance_event(spec, obs, u)
    target = hts_rts.TargetSet.ball_of_measure(spec, obs, rts_measure)
    steps_h = int(math.ceil(ATOM_EPS / target.measure))

    def legs(ids):
        returns = hts_rts._first_hits(spec, target, seed + 1, steps_h, rng.CH_ORBIT, ids, starts=True)
        return ens._keys(event, offsets.span, ids), returns

    chunks = list(_chunk_trials(spec, trials, max(n + offsets.span, steps_h + 1)))
    keys, steps = zip(*_fork_map(legs, chunks))
    p_max, p_esc, runs = _survey(ens, event, offsets, zip(chunks, keys))
    theta, se, _ = runs[-1]
    return [
        ei_from_max(p_max, tau, _binomial_se(p_max, trials), "MaxLaw", n=n, trials=trials),
        ei_from_max(p_esc, tau, _binomial_se(p_esc, trials), "EscapeLaw", n=n, trials=trials),
        EIEstimate.clamp(theta, se, "Runs", n=n, tau=tau, trials=trials),
        ei_rts_atom(hts_rts._time_samples(np.concatenate(steps), steps_h, "rts", target.measure)),
    ]
