"""Escape ("annulus") events, no-escape windows, and clustering diagnostics.

An exceedance at time j that is not followed by one at j+p escapes the
periodic capture; nesting the construction over offsets (p_1, ..., p_i) gives
escapes of order i, reading only X_j, X_{j+p_1}, ..., X_{j+p_1+...+p_i}.
The report operations estimate the short-range conditional structure, the
summability of capture chains, the clustering of escapes over the first
n/k_n lags, and the long-range independence gap between an escape and a
later no-escape window.

Two sweeps of the exceedance keys serve all of them.  Exceedances are
sparse (about tau per path), so the sweeps read them as the sorted
time-major keys step * paths + path of ``Ensemble.mask_chunks``.
``periodicity_report`` reads the exceedances themselves: the sub-period and
capture-chain conditionals count the keys whose key j steps on is present.
``escape_statistics`` reads the escapes: the escape rate, the pair sum
behind D'_p and the mixing gap behind D_p, all from one set of escape keys
per chunk.  ``escape_statistics``, ``escape_matrix`` and the estimator
survey build escapes on the keys (``_escape_keys``): an escape is a key
whose key p steps on is absent.  ``escape_statistics`` re-sorts them by row
as row * width + col; a search on those keys finds every later escape of
the same path, and ``bincount`` sums per path and per lag.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .observables import exceedance_event

#: continuations (exceedances whose capture chain reaches length i) below
#: which the default cutoff of ``periodicity_report`` drops the row of length
#: i: its ratio would rest on a handful of paths, relative stderr above 1/3
MIN_CONTINUATIONS = 10


@dataclass(frozen=True)
class EscapeOffsets:
    """Nested escape offsets (p_1, ..., p_i); order 1 is a single period p."""

    offsets: tuple[int, ...]

    def __post_init__(self):
        if len(self.offsets) == 0 or any(p < 1 for p in self.offsets):
            raise ValueError("offsets must be positive integers")
        object.__setattr__(self, "offsets", tuple(int(p) for p in self.offsets))

    @staticmethod
    def single(p):
        return EscapeOffsets((p,))

    @staticmethod
    def of(offsets):
        """The offsets themselves, or order 1 at period p for an int p."""
        return EscapeOffsets.single(offsets) if isinstance(offsets, int) else offsets

    @property
    def order(self):
        return len(self.offsets)

    @property
    def period(self):
        return self.offsets[0]

    @property
    def span(self):
        return sum(self.offsets)

    def __str__(self):
        return "p=" + ",".join(str(p) for p in self.offsets)


def _escape_keys(keys, paths, offsets):
    """Sorted time-major exceedance keys step * paths + path over steps
    [0, width), and their escapes of orders 1..i as keys.  Order-k keys are
    exact at steps below width - (p_1 + ... + p_k); later ones read past it."""
    levels = [keys]
    for p in offsets.offsets:
        k = levels[-1]
        levels.append(k[~np.isin(k + p * paths, k, assume_unique=True)])
    return levels


def escape_matrix(exceed, offsets):
    """Order-i escape booleans from an exceedance matrix (columns shrink by span)."""
    paths, width = exceed.shape
    q = np.zeros((width - offsets.span, paths), dtype=bool)  # time-major, like the masks
    keys = _escape_keys(np.flatnonzero(exceed.T), paths, offsets)[-1]
    q.flat[keys[keys < q.size]] = True
    return q.T


def escape_event(series, j, offsets, u):
    """Order-i escape at index j of a plain series (strict exceedance X > u)."""
    offsets = EscapeOffsets.of(offsets)
    x = np.asarray(series, dtype=np.float64)
    if j < 0 or j + offsets.span >= x.size:
        raise IndexError("series too short to read the escape at this index")
    e = x > u
    return bool(escape_matrix(e[None, :], offsets)[0, j])


def no_escape_window(series, s, length, offsets, u):
    """True iff no order-i escape occurs at any index in [s, s+length)."""
    offsets = EscapeOffsets.of(offsets)
    if length == 0:
        return True
    x = np.asarray(series, dtype=np.float64)
    if s < 0 or s + length - 1 + offsets.span >= x.size:
        raise IndexError("window out of range")
    q = escape_matrix((x > u)[None, :], offsets)[0]
    return not q[s : s + length].any()


# ---------------------------------------------------------------------------
# streaming accumulators
# ---------------------------------------------------------------------------


class _RatioAcc:
    """Ratio-of-sums accumulator with path-level (cluster-robust) stderr."""

    def __init__(self):
        self.a = self.b = 0.0
        self.aa = self.bb = self.ab = 0.0
        self.paths = 0

    def add(self, a_rows, b_rows):
        a = np.asarray(a_rows, dtype=np.float64)
        b = np.asarray(b_rows, dtype=np.float64)
        self.a += a.sum()
        self.b += b.sum()
        self.aa += (a * a).sum()
        self.bb += (b * b).sum()
        self.ab += (a * b).sum()
        self.paths += a.size

    @property
    def ratio(self):
        return self.a / self.b if self.b > 0 else math.nan

    @property
    def stderr(self):
        if self.b <= 0:
            return math.inf
        r = self.ratio
        v = self.aa - 2.0 * r * self.ab + r * r * self.bb
        return math.sqrt(max(v, 0.0)) / self.b


class _MeanAcc:
    def __init__(self):
        self.s = self.ss = 0.0
        self.n = 0

    def add(self, rows):
        rows = np.asarray(rows, dtype=np.float64)
        self.s += rows.sum()
        self.ss += (rows * rows).sum()
        self.n += rows.size

    @property
    def mean(self):
        return self.s / self.n if self.n else math.nan

    @property
    def stderr(self):
        if self.n < 2:
            return math.inf
        v = (self.ss - self.s * self.s / self.n) / (self.n - 1)
        return math.sqrt(max(v, 0.0) / self.n)


# ---------------------------------------------------------------------------
# condition diagnostics
# ---------------------------------------------------------------------------


@dataclass
class ConditionReport:
    """Short-range periodicity and capture-chain diagnostics at level u_n."""

    n: int
    offsets: EscapeOffsets
    exceedances: int = 0
    sub_period: list = field(default_factory=list)      # (j, prob, se)
    continuation: tuple = (math.nan, math.nan)          # (prob, se) at lag p
    run_ratios: list = field(default_factory=list)      # (i, ratio/(1-theta)^i, se)
    chain_partial_sums: list = field(default_factory=list)  # (i, n * sum_{k<=i} P_k)

    def rows(self):
        yield ("exceedances", self.n, 0, float(self.exceedances), 0.0)
        for j, v, se in self.sub_period:
            yield ("sub_period_prob", self.n, j, v, se)
        yield ("continuation_prob", self.n, self.offsets.period, *self.continuation)
        for i, v, se in self.run_ratios:
            yield ("run_ratio", self.n, i, v, se)
        for i, v in self.chain_partial_sums:
            yield ("chain_partial_sum", self.n, i, v, 0.0)


def periodicity_report(ensemble, offsets, theta, levels, n, ratio_cutoff=None):
    """Estimate the conditional escape structure at level u_n.

    Fills the sub-period conditional probabilities P(X_j>u | X_0>u) for
    0 < j < p, the continuation probability at lag p, the capture-chain
    ratios P(X_p,...,X_ip > u | X_0>u) / (1-theta)^i, and the n-scaled
    partial sums of the chain probabilities.  The default ``ratio_cutoff``
    sweeps chains up to ceil(log n / |log(1 - theta)|) (10 outside (0, 1))
    and reports them up to the last length with ``MIN_CONTINUATIONS``
    continuations; an explicit cutoff reports every length up to it.
    """
    offsets = EscapeOffsets.of(offsets)
    p = offsets.period
    u = levels.u(n)
    default_cutoff = ratio_cutoff is None
    if default_cutoff:
        ratio_cutoff = max(1, math.ceil(math.log(n) / abs(math.log1p(-theta)))) if 0 < theta < 1 else 10
    event = exceedance_event(ensemble.spec, levels.obs, u)
    extra = max(p * ratio_cutoff, p)
    sub = [_RatioAcc() for _ in range(p)]      # sub[0] unused
    chain = [_RatioAcc() for _ in range(ratio_cutoff + 1)]
    n_exc = 0
    for ids, keys in ensemble.mask_chunks(event, extra=extra):
        paths = ids.size
        base = keys[keys < n * paths]  # the exceedances in [0, n)
        base_rows = np.bincount(base % paths, minlength=paths)
        n_exc += int(base_rows.sum())
        for j in range(1, p):
            hit = base[np.isin(base + j * paths, keys, assume_unique=True)]
            sub[j].add(np.bincount(hit % paths, minlength=paths), base_rows)
        run = base
        for i in range(1, ratio_cutoff + 1):  # chain i: exceedances at +p, ..., +i*p
            run = run[np.isin(run + i * p * paths, keys, assume_unique=True)]
            chain[i].add(np.bincount(run % paths, minlength=paths), base_rows)
    if default_cutoff:  # continuation counts fall with the chain length
        ratio_cutoff = sum(c.a >= MIN_CONTINUATIONS for c in chain[1:])
    rep = ConditionReport(n=n, offsets=offsets, exceedances=n_exc)
    rep.sub_period = [(j, sub[j].ratio, sub[j].stderr) for j in range(1, p)]
    rep.continuation = (chain[1].ratio, chain[1].stderr)
    rep.run_ratios = [
        (i, chain[i].ratio / (1.0 - theta) ** i, chain[i].stderr / (1.0 - theta) ** i)
        for i in range(1, ratio_cutoff + 1)
        if 0 < theta < 1
    ]
    total = ensemble.trials * n
    acc = n_exc / total  # i = 0 term of the chain
    sums = [(0, n * acc)]
    for i in range(1, ratio_cutoff + 1):
        acc += chain[i].a / total
        sums.append((i, n * acc))
    rep.chain_partial_sums = sums
    return rep


def default_block_count(n):
    """k_n = floor(sqrt(n)): blocks grow, block length n/k_n = o(n)."""
    return max(2, int(math.isqrt(n)))


def default_gap(n):
    """t_n = floor(n**0.25): the time gap separating escape from window."""
    return max(1, int(n**0.25))


def escape_statistics(ensemble, offsets, n, levels, k_n=None, t=None, ell=None):
    """The escape-pair statistics at level u_n from one ensemble sweep.

    Returns three results, all averaged over the start indices in [0, n)
    and over paths:

    - the escape rate (n * P(order-i escape at a fixed index), stderr);
    - the pair sum n * sum_{j=1..n/k_n} P(escape at 0 and at j), with its
      stderr and the per-lag probabilities;
    - the mixing gap |P(escape at 0 and no escape in [t, t+ell)) -
      P(escape) P(no escape in [0, ell))|, with the stderr of its terms.

    The defaults are k_n = ``default_block_count(n)``, t = ``default_gap(n)``
    and ell = n // k_n; ell = 0 gives a mixing gap of exactly (0, 0).
    """
    offsets = EscapeOffsets.of(offsets)
    k_n = default_block_count(n) if k_n is None else k_n
    jmax = n // k_n
    t = default_gap(n) if t is None else t
    ell = jmax if ell is None else ell
    event = exceedance_event(ensemble.spec, levels.obs, levels.u(n))
    per_path = _MeanAcc()  # escape pairs of each path
    lag_counts = np.zeros(jmax + 1)
    # per-path counts over the starts s in [0, n), as integers: chunk-invariant
    rate = _MeanAcc()    # escapes at s
    joint = _MeanAcc()   # escape at s and no escape in [s+t, s+t+ell)
    clean = _MeanAcc()   # no escape in [s, s+ell)
    width = n + max(jmax, t + ell)  # the steps at which the escapes are exact
    for ids, exc in ensemble.mask_chunks(event, extra=width - n + offsets.span):
        paths = ids.size
        # the escapes as keys row * width + col, sorted by row and then by column
        tm = _escape_keys(exc, paths, offsets)[-1]
        cols, rows = np.divmod(tm[tm < width * paths], paths)
        keys = np.sort(rows * width + cols)
        rows, cols = np.divmod(keys, width)
        # escape a at col < n pairs with the escapes at keys (a, a + jmax],
        # and its window [a+t, a+t+ell) ends in a's row: both end below width
        a = np.flatnonzero(cols < n)
        escapes = np.bincount(rows[a], minlength=paths)
        rate.add(escapes)
        counts = np.searchsorted(keys, keys[a] + jmax, side="right") - (a + 1)
        per_path.add(np.bincount(rows[a], weights=counts, minlength=paths))
        # pair k of escape a is the escape at sorted index a + 1 + k
        b = np.repeat(a + 1 - (np.cumsum(counts) - counts), counts) + np.arange(counts.sum())
        lag_counts += np.bincount(cols[b] - np.repeat(cols[a], counts), minlength=jmax + 1)
        quiet = np.searchsorted(keys, keys[a] + t) == np.searchsorted(keys, keys[a] + t + ell)
        # starts s in [0, n) whose window [s, s+ell) holds escape c and no
        # earlier escape: [max(0, c-ell+1, min(n-1, c_prev)+1), min(n-1, c)]
        prev = np.full(cols.size, -1)
        same = rows[1:] == rows[:-1]
        prev[1:][same] = np.minimum(n - 1, cols[:-1][same])
        lo = np.maximum(np.maximum(0, cols - ell + 1), prev + 1)
        covered = np.maximum(np.minimum(n - 1, cols) - lo + 1, 0)
        joint.add(np.bincount(rows[a], weights=quiet, minlength=paths))
        clean.add(n - np.bincount(rows, weights=covered, minlength=paths))
    pair_sum = per_path.s / ensemble.trials
    pair_se = per_path.stderr * per_path.n / ensemble.trials
    pairs = (pair_sum, pair_se, lag_counts / (ensemble.trials * n))
    if ell == 0:
        return (rate.mean, rate.stderr), pairs, (0.0, 0.0)
    # the per-start shares are the per-path counts over n
    gap = abs(joint.mean - rate.mean * clean.mean / n) / n
    se = math.sqrt(
        joint.stderr**2 + (clean.mean * rate.stderr / n) ** 2 + (rate.mean * clean.stderr / n) ** 2
    ) / n
    return (rate.mean, rate.stderr), pairs, (gap, se)
