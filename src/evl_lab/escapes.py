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
per chunk.  ``escape_statistics`` and the estimator survey build escapes
on the keys (``_escape_keys``): an escape is a key whose key p steps on is
absent.  ``escape_statistics`` re-sorts them by row as row * width + col; a
search on those keys finds every later escape of the same path, and
``bincount`` sums per path and per lag.

Every statistic is a function of integer counts per path.  A sweep keeps
each chunk's count arrays, ``_per_path`` joins them over all trials in
trial order, and ``_ratio`` and ``_mean`` reduce them once, so the trial
chunking cannot move a float, nor can the CPU count: a large sweep's chunk
keys are built in forked workers and come back in trial order.
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


# ---------------------------------------------------------------------------
# statistics of per-path counts
# ---------------------------------------------------------------------------


def _per_path(chunks):
    """Each quantity's counts per path over all trials from a sweep's chunks."""
    return [np.concatenate(q) for q in zip(*chunks)]


def _ratio(a, b):
    """(sum a / sum b, path-level cluster-robust stderr) of per-path counts."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    sb = b.sum()
    if sb <= 0:
        return math.nan, math.inf
    r = a.sum() / sb
    v = (a * a).sum() - 2.0 * r * (a * b).sum() + r * r * (b * b).sum()
    return r, math.sqrt(max(v, 0.0)) / sb


def _mean(x):
    """(mean, stderr of the mean) of per-path counts; an ensemble has >= 2 paths."""
    x = np.asarray(x, dtype=np.float64)
    n, s = x.size, x.sum()
    v = ((x * x).sum() - s * s / n) / (n - 1)
    return s / n, math.sqrt(max(v, 0.0) / n)


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
    elif ratio_cutoff < 1:
        raise ValueError("ratio_cutoff must be >= 1")
    event = exceedance_event(ensemble.spec, levels.obs, u)
    chunks = []
    for ids, keys in ensemble.mask_chunks(event, extra=max(p * ratio_cutoff, p)):
        paths = ids.size
        base = keys[keys < n * paths]  # the exceedances in [0, n)
        # j = 0 keeps every exceedance, 0 < j < p counts the sub-period hits
        found = [base[np.isin(base + j * paths, keys, assume_unique=True)] for j in range(p)]
        run = base
        for i in range(1, ratio_cutoff + 1):  # chain i: exceedances at +p, ..., +i*p
            run = run[np.isin(run + i * p * paths, keys, assume_unique=True)]
            found.append(run)
        chunks.append([np.bincount(k % paths, minlength=paths) for k in found])
    base_rows, *counts = _per_path(chunks)
    sub, chain = counts[: p - 1], counts[p - 1 :]
    if default_cutoff:  # continuation counts fall with the chain length
        ratio_cutoff = sum(c.sum() >= MIN_CONTINUATIONS for c in chain)
    rep = ConditionReport(n=n, offsets=offsets, exceedances=int(base_rows.sum()))
    rep.sub_period = [(j, *_ratio(hit, base_rows)) for j, hit in enumerate(sub, 1)]
    ratios = [_ratio(c, base_rows) for c in chain]
    rep.continuation = ratios[0]
    if 0 < theta < 1:
        rep.run_ratios = [
            (i, r / (1.0 - theta) ** i, se / (1.0 - theta) ** i)
            for i, (r, se) in enumerate(ratios[:ratio_cutoff], 1)
        ]
    total = ensemble.trials * n
    acc = rep.exceedances / total  # i = 0 term of the chain
    sums = [(0, n * acc)]
    for i, c in enumerate(chain[:ratio_cutoff], 1):
        acc += c.sum() / total
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
    chunks, lag_counts = [], np.zeros(jmax + 1)
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
        counts = np.searchsorted(keys, keys[a] + jmax, side="right") - (a + 1)
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
        # per path, over the starts s in [0, n): escapes at s, their pairs,
        # escapes at s and no escape in [s+t, s+t+ell), no escape in [s, s+ell)
        chunks.append([
            np.bincount(rows[a], minlength=paths),
            np.bincount(rows[a], weights=counts, minlength=paths),
            np.bincount(rows[a], weights=quiet, minlength=paths),
            n - np.bincount(rows, weights=covered, minlength=paths),
        ])
    rate, pairs, joint, clean = (_mean(x) for x in _per_path(chunks))
    pairs = (*pairs, lag_counts / (ensemble.trials * n))
    if ell == 0:
        return rate, pairs, (0.0, 0.0)
    # the per-start shares are the per-path counts over n
    (r, r_se), (j, j_se), (c, c_se) = rate, joint, clean
    gap = abs(j - r * c / n) / n
    se = math.sqrt(j_se**2 + (c * r_se / n) ** 2 + (r * c_se / n) ** 2) / n
    return rate, pairs, (gap, se)
