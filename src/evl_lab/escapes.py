"""Escape ("annulus") events, no-escape windows, and clustering diagnostics.

An exceedance at time j that is not followed by one at j+p escapes the
periodic capture; nesting the construction over offsets (p_1, ..., p_i) gives
escapes of order i, reading only X_j, X_{j+p_1}, ..., X_{j+p_1+...+p_i}.
The report operations estimate the short-range conditional structure, the
summability of capture chains, the clustering of escapes over the first
n/k_n lags, and the long-range independence gap between an escape and a
later no-escape window.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .observables import exceedance_event


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


def escape_matrix(exceed, offsets, depth=None):
    """Order-i escape booleans from an exceedance matrix (columns shrink by span).

    depth < order gives the intermediate escape levels (depth 0 returns the
    exceedances themselves).
    """
    q = exceed
    for p in offsets.offsets[: depth if depth is not None else offsets.order]:
        q = q[..., :-p] & ~q[..., p:]
    return q


def escape_event(series, j, offsets, u):
    """Order-i escape at index j of a plain series (strict exceedance X > u)."""
    if isinstance(offsets, int):
        offsets = EscapeOffsets.single(offsets)
    x = np.asarray(series, dtype=np.float64)
    if j < 0 or j + offsets.span >= x.size:
        raise IndexError("series too short to read the escape at this index")
    e = x > u
    return bool(escape_matrix(e[None, :], offsets)[0, j])


def no_escape_window(series, s, length, offsets, u):
    """True iff no order-i escape occurs at any index in [s, s+length)."""
    if isinstance(offsets, int):
        offsets = EscapeOffsets.single(offsets)
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


def _sparse_cols(q):
    """Per-row sorted column indices of True entries, as a list of arrays."""
    # column-major scan: q.T is C-contiguous for the engine's time-major masks
    cols, rows = np.divmod(np.flatnonzero(q.T), q.shape[0])
    cols = cols[np.argsort(rows, kind="stable")]
    counts = np.bincount(rows, minlength=q.shape[0])
    out = []
    pos = 0
    for c in counts:
        out.append(cols[pos : pos + c])
        pos += c
    return out


# ---------------------------------------------------------------------------
# condition diagnostics
# ---------------------------------------------------------------------------


@dataclass
class ConditionReport:
    """Short-range periodicity and capture-chain diagnostics at level u_n."""

    n: int
    u: float
    offsets: EscapeOffsets
    theta_ref: float
    exceedances: int = 0
    widened_ci: bool = False
    sub_period: list = field(default_factory=list)      # (j, prob, se)
    continuation: tuple = (math.nan, math.nan)          # (prob, se) at lag p
    run_ratios: list = field(default_factory=list)      # (i, ratio/(1-theta)^i, se)
    chain_partial_sums: list = field(default_factory=list)  # (i, n * sum_{k<=i} P_k)
    params: dict = field(default_factory=dict)

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
    partial sums of the chain probabilities.
    """
    if isinstance(offsets, int):
        offsets = EscapeOffsets.single(offsets)
    p = offsets.period
    u = levels.u(n)
    if ratio_cutoff is None:
        ratio_cutoff = max(1, math.ceil(math.log(n) / abs(math.log1p(-theta)))) if 0 < theta < 1 else 10
    event = exceedance_event(ensemble.spec, levels.obs, u)
    extra = max(p * ratio_cutoff, p)
    sub = [_RatioAcc() for _ in range(p)]      # sub[0] unused
    chain = [_RatioAcc() for _ in range(ratio_cutoff + 1)]
    n_exc = 0
    for _, e in ensemble.mask_chunks(event, extra=extra):
        base = e[:, :n]
        base_rows = base.sum(axis=1)
        n_exc += int(base_rows.sum())
        for j in range(1, p):
            sub[j].add((base & e[:, j : n + j]).sum(axis=1), base_rows)
        run = base.copy()
        for i in range(1, ratio_cutoff + 1):
            run &= e[:, i * p : n + i * p]
            chain[i].add(run.sum(axis=1), base_rows)
    rep = ConditionReport(n=n, u=u, offsets=offsets, theta_ref=theta, exceedances=n_exc)
    rep.widened_ci = n_exc < 100
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
    rep.params = {"ratio_cutoff": ratio_cutoff}
    return rep


def annulus_rate(ensemble, offsets, n, levels):
    """(n * P(order-i escape at a fixed index), stderr): the escape-rate law."""
    if isinstance(offsets, int):
        offsets = EscapeOffsets.single(offsets)
    u = levels.u(n)
    event = exceedance_event(ensemble.spec, levels.obs, u)
    acc = _MeanAcc()
    for _, e in ensemble.mask_chunks(event, extra=offsets.span):
        q = escape_matrix(e, offsets)
        acc.add(q[:, :n].sum(axis=1))
    return acc.mean, acc.stderr


def default_block_count(n):
    """k_n = floor(sqrt(n)): blocks grow, block length n/k_n = o(n)."""
    return max(2, int(math.isqrt(n)))


def default_gap(n):
    """t_n = floor(n**0.25): the time gap separating escape from window."""
    return max(1, int(n**0.25))


def escape_clustering_sum(ensemble, offsets, n, k_n, levels):
    """n * sum_{j=1..n/k_n} P(escape at 0 and at j), with Monte Carlo stderr.

    Joint escape probabilities are averaged over all start indices in [0, n)
    and over paths; escapes are sparse (mean theta*tau per path) so pairs are
    counted from per-path escape indices.
    """
    if isinstance(offsets, int):
        offsets = EscapeOffsets.single(offsets)
    jmax = n // k_n
    u = levels.u(n)
    event = exceedance_event(ensemble.spec, levels.obs, u)
    per_path = _MeanAcc()
    lag_counts = np.zeros(jmax + 1)
    for _, e in ensemble.mask_chunks(event, extra=jmax + offsets.span):
        q = escape_matrix(e, offsets)
        w = np.zeros(q.shape[0])
        for row, cols in enumerate(_sparse_cols(q)):
            cols_a = cols[cols < n]
            if cols_a.size == 0 or cols.size < 2:
                continue
            total = 0
            for a in cols_a:
                hi = np.searchsorted(cols, a + jmax, side="right")
                lo = np.searchsorted(cols, a, side="right")
                for b in cols[lo:hi]:
                    lag_counts[b - a] += 1
                    total += 1
            w[row] = total
        per_path.add(w)
    value = per_path.s / ensemble.trials
    se = per_path.stderr * per_path.n / ensemble.trials
    return value, se, lag_counts / (ensemble.trials * n)


def escape_mixing_gap(ensemble, offsets, n, t, ell, levels):
    """|P(escape at 0 and no escape in [t, t+ell)) - P(escape) P(no-escape window)|.

    All three probabilities are averaged over start indices in [0, n); returns
    (gap, stderr of the joint term).
    """
    if isinstance(offsets, int):
        offsets = EscapeOffsets.single(offsets)
    if ell == 0:
        return 0.0, 0.0
    u = levels.u(n)
    event = exceedance_event(ensemble.spec, levels.obs, u)
    joint = _MeanAcc()   # per start: escape at s and clean window at s+t
    lone = _MeanAcc()    # per start: escape at s
    clean = _MeanAcc()   # per start: no escape in [s, s+ell)
    for _, e in ensemble.mask_chunks(event, extra=t + ell + offsets.span):
        q = escape_matrix(e, offsets)
        rows = q.shape[0]
        w_joint = np.zeros(rows)
        w_clean = np.full(rows, float(n))
        w_lone = np.zeros(rows)
        for row, cols in enumerate(_sparse_cols(q)):
            cols_a = cols[cols < n]
            w_lone[row] = cols_a.size
            for a in cols_a:
                lo = np.searchsorted(cols, a + t)
                hi = np.searchsorted(cols, a + t + ell)
                if hi == lo:
                    w_joint[row] += 1
            covered = 0
            last = -1
            for c in cols:
                s_lo = max(0, c - ell + 1, last + 1)
                s_hi = min(n - 1, c)
                if s_hi >= s_lo:
                    covered += s_hi - s_lo + 1
                    last = s_hi
            w_clean[row] = n - covered
        joint.add(w_joint / n)
        lone.add(w_lone / n)
        clean.add(w_clean / n)
    gap = abs(joint.mean - lone.mean * clean.mean)
    se = math.sqrt(
        joint.stderr**2 + (clean.mean * lone.stderr) ** 2 + (lone.mean * clean.stderr) ** 2
    )
    return gap, se
