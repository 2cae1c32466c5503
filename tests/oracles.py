"""Plain references that the tests compare the vectorized code against.

Each one reads a single path or a dense matrix, step by step or in exact
arithmetic, so that it is easy to check by eye; none of them is on a path
the lab runs.
"""

import math
from fractions import Fraction

import numpy as np

from evl_lab.escapes import _escape_keys
from evl_lab.processes import PRECISION, PathEngine, evaluate_point, step


def ks_against(values, cdf):
    """One-sample Kolmogorov-Smirnov distance of `values` against `cdf`."""
    x = np.sort(np.asarray(values, dtype=np.float64))
    n = x.size
    fx = np.asarray(cdf(x), dtype=np.float64)
    return float(
        max(
            np.abs(np.arange(1, n + 1) / n - fx).max(),
            np.abs(np.arange(0, n) / n - fx).max(),
        )
    )


def dense_mask_chunks(ens, event, extra=0, chunk=256):
    """(trial ids, dense (trials, length + extra) exceedance mask) per chunk of
    ``chunk`` trials, each from one whole-horizon engine sweep: the plain
    reference of the keys that ``Ensemble.mask_chunks`` builds window by window."""
    L = ens.length + extra
    for lo in range(0, ens.trials, chunk):
        ids = np.arange(lo, min(lo + chunk, ens.trials), dtype=np.uint64)
        yield ids, PathEngine(ens.spec, ens.seed, ids).masks(0, L, event)


def escape_matrix(exceed, offsets):
    """Order-i escape booleans from an exceedance matrix (columns shrink by span),
    read off the escape keys of ``escapes._escape_keys``."""
    paths, width = exceed.shape
    q = np.zeros((width - offsets.span, paths), dtype=bool)  # time-major, like the masks
    keys = _escape_keys(np.flatnonzero(exceed.T), paths, offsets)[-1]
    q.flat[keys[keys < q.size]] = True
    return q.T


def jump_bits(state, n):
    """The first n bits of a jump-map state's point: 0^(g-1)1 for each gap g."""
    bits, c = [], state.cursor
    while len(bits) < n:
        bits += [0] * (int(state.stream[c]) - 1) + [1]
        c += 1
    return bits[:n]


def exact_point(spec, state, K=PRECISION):
    """Exact rational projection of a digit state (for exactness checks); K
    gaps of a jump-map state."""
    if not spec.uses_digits or spec.kind == "chebyshev":
        raise ValueError("exact_point requires a plain digit-stream kind")
    c = state.cursor
    if spec.kind == "dyadic_jump":
        ends = np.cumsum(state.stream.block(c, c + K))
        return sum(Fraction(1, 2 ** int(e)) for e in ends)
    if spec.kind == "ar1":
        digits = state.stream.block(c, c + 64)[::-1][:K]
    else:
        digits = state.stream.block(c, c + K)
    b = spec.base
    num = 0
    for d in digits:
        num = num * b + int(d)
    return Fraction(num, b ** len(digits))


def contains_state(target, state):
    """Whether the lazy ``state`` lies in the ``TargetSet``'s event."""
    if target.kind == "cylinder":
        n = len(target.event.word)
        if target.spec.kind == "dyadic_jump":
            got = jump_bits(state, n)
        else:
            got = state.stream.block(state.cursor, state.cursor + n)
        return all(int(a) == b for a, b in zip(got, target.event.word))
    if target.spec.kind == "chebyshev":  # the event lies on the doubling coordinate theta
        digits = state.stream.block(state.cursor, state.cursor + PRECISION)
        x = sum(int(d) * 0.5 ** (i + 1) for i, d in enumerate(digits))
    else:
        x = evaluate_point(target.spec, state)
    return bool(target.event.mask_native(np.asarray(x)))


def hitting_time(spec, target, state, horizon):
    """Least j in 1..horizon with the orbit in the target at step j, else None."""
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    s = state
    for j in range(1, horizon + 1):
        s = step(spec, s)
        if contains_state(target, s):
            return j
    return None


def rts_quantile(theta, q):
    """Inverse CDF of the return-time law (atom at 0 plus theta-exponential)
    at q in [0, 1); theta = 0 puts all mass in the atom."""
    if not 0.0 <= theta <= 1.0:
        raise ValueError("theta must lie in [0, 1]")
    if not 0.0 <= q < 1.0:
        raise ValueError("q must lie in [0, 1)")
    if q < 1.0 - theta:
        return 0.0
    return -math.log(1.0 - (q - (1.0 - theta)) / theta) / theta
