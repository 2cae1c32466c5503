"""Plain references that the tests compare the vectorized code against.

Each one reads a single path or a dense matrix, step by step or in exact
arithmetic, so that it is easy to check by eye; none of them is on a path
the lab runs.
"""

import math
from fractions import Fraction

import numpy as np

from evl_lab import rng
from evl_lab.escapes import _escape_keys
from evl_lab.processes import PRECISION, PathEngine, _digit_block


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


def path(spec, seed, trial, n):
    """Positions [0, n) of one path, drawn through the engine's own stream:
    its digits (the jump map's gaps) or its innovations."""
    if spec.uses_digits:
        return _digit_block(spec, seed, [trial], 0, n, rng.CH_ORBIT)[0]
    return rng.uniforms(seed, rng.CH_ORBIT, [trial], 0, n)[0]


def _window(seq, t, width):
    """Positions [t, t + width) of the path ``seq``: a ValueError, not a short
    slice, where the path ends before them."""
    if len(seq) < t + width:
        raise ValueError(f"step {t} reads {t + width} positions; the path holds {len(seq)}")
    return np.asarray(seq[t : t + width])


def point(spec, seq, t, K=PRECISION):
    """Float projection of the path ``seq`` at step t; error at most base**-K
    (float64 capped).  Map kinds read the digit (jump map: gap) tail from t;
    ar1 reads 64 digits most-significant-last; moving-maximum kinds read
    their innovation window from t."""
    if K < 1:
        raise ValueError("K must be >= 1")
    if spec.kind == "dyadic_jump":  # the bits 0^(g-1)1 of each gap g
        return float(np.ldexp(1.0, -np.cumsum(_window(seq, t, K), dtype=np.int64)).sum())
    if not spec.uses_digits:
        return float(_window(seq, t, spec.slots[-1] + 1)[list(spec.slots)].max())
    digits = _window(seq, t, 64)[::-1][:K] if spec.kind == "ar1" else _window(seq, t, K)
    x = float(digits.astype(np.float64) @ (float(spec.base) ** -np.arange(1, digits.size + 1, dtype=np.float64)))
    return float(-np.cos(2.0 * np.pi * x)) if spec.kind == "chebyshev" else x


def jump_bits(seq, t, n):
    """The first n bits of the jump map's point at step t of the gaps ``seq``:
    0^(g-1)1 for each gap g."""
    bits = []
    while len(bits) < n:
        bits += [0] * (int(seq[t]) - 1) + [1]
        t += 1
    return bits[:n]


def exact_point(spec, seq, t, K=PRECISION):
    """Exact rational projection of the path ``seq`` at step t (for
    exactness checks); K gaps of a jump-map path."""
    if not spec.uses_digits or spec.kind == "chebyshev":
        raise ValueError("exact_point requires a plain digit-stream kind")
    if spec.kind == "dyadic_jump":
        ends = np.cumsum(_window(seq, t, K))
        return sum(Fraction(1, 2 ** int(e)) for e in ends)
    if spec.kind == "ar1":
        digits = _window(seq, t, 64)[::-1][:K]
    else:
        digits = _window(seq, t, K)
    b = spec.base
    num = 0
    for d in digits:
        num = num * b + int(d)
    return Fraction(num, b ** len(digits))


def contains_state(target, seq, t):
    """Whether step t of the path ``seq`` lies in the ``TargetSet``'s event."""
    if target.event.word:
        n = len(target.event.word)
        if target.spec.kind == "dyadic_jump":
            got = jump_bits(seq, t, n)
        else:
            got = _window(seq, t, n)
        return all(int(a) == b for a, b in zip(got, target.event.word))
    if target.spec.kind == "chebyshev":  # the event lies on the doubling coordinate theta
        digits = _window(seq, t, PRECISION)
        x = sum(int(d) * 0.5 ** (i + 1) for i, d in enumerate(digits))
    else:
        x = point(target.spec, seq, t)
    return bool(target.event.mask_native(np.asarray(x)))


def hitting_time(target, seq, t, horizon):
    """Least j in 1..horizon with step t + j of the path ``seq`` in the
    target, else None."""
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    for j in range(1, horizon + 1):
        if contains_state(target, seq, t + j):
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
