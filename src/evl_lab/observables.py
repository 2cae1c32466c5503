"""Observables anchored at a point, exceedance geometry, and level schedules.

Three scaling families cover the classical max-domains of attraction:
``gumbel`` g(s) = -log s, ``frechet`` g(s) = s**(-1/alpha) and ``weibull``
g(s) = d - s**(1/alpha).  Each family can read the plain distance to the
anchor, the invariant measure of the ball of that radius (which uniformises
the tail), or the cylinder depth of the anchor word.  Levels u_n are solved
so that n * P(X_0 > u_n) = tau, analytically for every built-in pairing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .processes import MAP_KINDS, ProcessSpec
from . import symbolic

G_FORMS = ("gumbel", "frechet", "weibull")
FAMILIES = ("distance", "ball_measure", "cylinder")
#: bisection levels per ball_measure call in ball_radius_for_measure: at 6 (63 midpoints) a
#: Bernoulli(0.3)@01 solve at 2**-10 took 17 ms against 67 ms at 1; 4 to 6 were about equal, 12 slower
_TREE_LEVELS = 6
_CDF_BLOCK = 1024  #: values per bernoulli_cdf block (its tables: 1.5 KiB a value); 512 to 2048 ran alike


def _g_apply(form, alpha, d, s):
    s = np.asarray(s, dtype=np.float64)
    with np.errstate(divide="ignore"):
        if form == "gumbel":
            return -np.log(s)
        if form == "frechet":
            return s ** (-1.0 / alpha)
        return d - s ** (1.0 / alpha)


def _g_inverse(form, alpha, d, u):
    if form == "gumbel":
        return math.exp(-u)
    if form == "frechet":
        return u ** (-alpha)
    return (d - u) ** alpha


@dataclass(frozen=True)
class ObservableSpec:
    """g-family observable anchored at ``anchor`` (a symbolic word, or None
    for the upper-endpoint anchor of the series models)."""

    family: str = "ball_measure"
    form: str = "gumbel"
    anchor: str | None = None
    alpha: float = 1.0
    d: float = 1.0

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown observable family {self.family!r}")
        if self.form not in G_FORMS:
            raise ValueError(f"unknown g form {self.form!r}")
        if self.alpha <= 0:
            raise ValueError("alpha must be > 0")

    def g(self, s):
        return _g_apply(self.form, self.alpha, self.d, s)

    def g_inverse(self, u):
        return _g_inverse(self.form, self.alpha, self.d, u)

    @property
    def top(self):
        """Essential sup of the observable (value of g at argument 0+)."""
        return self.d if self.form == "weibull" else math.inf

    @property
    def bottom(self):
        """A level below every value of the observable (frechet values are > 0)."""
        return 0.0 if self.form == "frechet" else -math.inf

    def anchor_point(self, spec):
        """Exposed-space anchor point; None-anchored series sit at the endpoint."""
        if self.anchor is None:
            if spec.kind in MAP_KINDS:
                raise ValueError("map kinds need a word anchor")
            return 1.0
        word = symbolic.SymbolicWord.parse(self.anchor, spec.base)
        y = float(word.periodic_value())  # a Fraction would turn point arrays into object arrays
        if spec.kind == "chebyshev":
            return -math.cos(2.0 * math.pi * y)
        return y

    def apply(self, spec, points):
        """Observable values at exposed process points."""
        pts = np.asarray(points, dtype=np.float64)
        z = self.anchor_point(spec)
        if spec.kind == "m_ary":
            d = np.abs(pts - z)
            dist = np.minimum(d, 1.0 - d)  # circle metric
        else:
            dist = np.abs(pts - z)
        if self.family == "distance":
            return self.g(dist)
        if self.family == "ball_measure":
            return self.g(ball_measure(spec, self, dist))
        raise ValueError("cylinder observables are evaluated on digit states")


# ---------------------------------------------------------------------------
# measures of balls and marginals
# ---------------------------------------------------------------------------


def bernoulli_cdf(x, weights):
    """CDF at x of the product measure with the given digit weights (base m).

    Vectorized in x (a float for a scalar x); exactly 0 at x <= 0 and exactly
    1 at x >= 1; a NaN x is a ValueError.
    """
    w = np.asarray(weights, dtype=np.float64)
    m = w.size
    cum = np.concatenate([[0.0], np.cumsum(w)])
    x0 = np.asarray(x, dtype=np.float64)
    if np.isnan(x0).any():
        raise ValueError("bernoulli_cdf: x is NaN")
    flat, out = x0.ravel(), np.empty(x0.size)
    x = np.clip(flat, 0.0, 1.0)
    if m == 2:  # the digit loop below is exact: its digits are the bits of floor(x * 2**64) (0s at x = 1)
        t = x * 2.0**32
        v = np.floor(t).astype(np.uint64) << np.uint64(32) | ((t - np.floor(t)) * 2.0**32).astype(np.uint64)
        digits = np.unpackbits(v.astype(">u8").view(np.uint8).reshape(-1, 8).T.copy(), axis=0)
    else:  # 64 base-m digits, past float64 precision, by x *= m, d = min(int(x), m - 1), x -= d
        digits = np.empty((64, x.size), dtype=np.uint8)
        for row in digits:
            x *= m
            row[...] = d = np.minimum(x.astype(np.int64), m - 1)
            x -= d
    buf = np.empty(193 * min(flat.size, _CDF_BLOCK))  # a block's 64 digit, 65 + 64 weight rows, reused
    for s in range(0, flat.size, _CDF_BLOCK):
        xs = flat[s : s + _CDF_BLOCK]
        idx, prod, tab = np.split(buf[: 193 * xs.size].reshape(193, xs.size), [64, 129])
        idx = idx.view(np.int64)
        idx[...] = digits[:, s : s + _CDF_BLOCK]
        prod[0] = (xs > 0.0) & (xs < 1.0)  # prod[k]: weight of x's cell after k digits
        for p, f, q in zip(prod, w.take(idx, out=tab, mode="clip"), prod[1:]):
            np.multiply(p, f, out=q)
        cum.take(idx, out=tab, mode="clip")
        tab *= prod[:-1]  # weight of the cells left of x's, digit by digit
        acc = sum(tab, (xs >= 1.0).astype(np.float64))  # row by row, in the loop's order
        out[s : s + _CDF_BLOCK] = acc + 0.5 * prod[-1]  # midpoint of the residual cell
    out = out.reshape(x0.shape)
    return float(out) if out.ndim == 0 else out


def ball_measure(spec, obs, radius):
    """mu(ball of the given radius around the anchor), vectorized in radius."""
    z = obs.anchor_point(spec)
    r = np.asarray(radius, dtype=np.float64)
    scalar = r.ndim == 0
    r = np.atleast_1d(r)
    if spec.kind == "m_ary":
        if spec.is_uniform:
            out = np.minimum(2.0 * r, 1.0)
        else:  # circle interval (lo, hi), wrapped through 0 when lo > hi
            lo, hi = (z - r) % 1.0, (z + r) % 1.0
            f_lo, f_hi = bernoulli_cdf(np.stack([lo, hi]), spec.digit_weights)
            wrapped = (1.0 - f_lo) + f_hi
            out = np.where(r >= 0.5, 1.0, np.where(lo <= hi, f_hi - f_lo, wrapped))
    elif spec.kind == "dyadic_jump":
        out = np.clip(np.minimum(z + r, 1.0) - np.maximum(z - r, 0.0), 0.0, 1.0)
    elif spec.kind == "chebyshev":
        a = np.clip(np.maximum(z - r, -1.0), -1.0, 1.0)
        b = np.clip(np.minimum(z + r, 1.0), -1.0, 1.0)
        out = (np.arcsin(b) - np.arcsin(a)) / math.pi
    else:
        # series kinds anchored at the endpoint 1: ball = {X > 1 - r}
        out = marginal_tail(spec, 1.0 - r)
    return float(out[0]) if scalar else out


def ball_radius_for_measure(spec, obs, target):
    """Inverse of ball_measure: radius with mu(ball) = target, by 80 bisection steps run
    _TREE_LEVELS at a time: the levels' midpoints are the same 0.5 * (lo + hi) floats as in a
    one-step loop, measured in one call and walked taking that loop's branch at every node,
    so the radius is the loop's bit for bit, also where ball_measure is not monotone in ulps."""
    if math.isnan(target):
        raise ValueError("ball target measure is NaN")
    if target > 1.0:
        raise ValueError(f"ball target measure {target!r} exceeds 1")
    if target <= 0.0:
        return 0.0
    lo, hi = 0.0, {"chebyshev": 2.0}.get(spec.kind, 1.0)
    for done in range(0, 80, _TREE_LEVELS):
        widths = 2 ** np.arange(min(_TREE_LEVELS, 80 - done), 0, -1)  # cell widths per level, in leaves
        edges = np.r_[lo, np.full(widths[0], hi)]  # the tree's edges in order
        for w in widths:  # split every cell of width w at its middle
            edges[w // 2 :: w] = 0.5 * (edges[:-1:w] + edges[w::w])
        below = ball_measure(spec, obs, edges[1:-1]) < target
        a = 0
        for w in widths:  # the loop's branch: the right half of [a, a + w] if its middle is below
            a += w // 2 * below[a + w // 2 - 1]
        lo, hi = float(edges[a]), float(edges[a + 1])
    return 0.5 * (lo + hi)


def marginal_cdf(spec, x):
    """CDF of the exposed stationary point of ``spec`` (for KS checks)."""
    x = np.asarray(x, dtype=np.float64)
    if spec.kind == "m_ary":
        if spec.is_uniform:
            return np.clip(x, 0.0, 1.0)
        return bernoulli_cdf(x, spec.digit_weights)
    if spec.kind == "chebyshev":
        return 0.5 + np.arcsin(np.clip(x, -1.0, 1.0)) / math.pi
    # a moving maximum of k uniform slots has CDF x^k; dyadic_jump and ar1 are uniform
    return np.clip(x, 0.0, 1.0) ** max(len(spec.slots), 1)


def marginal_tail(spec, u):
    return 1.0 - marginal_cdf(spec, u)


# ---------------------------------------------------------------------------
# exceedance geometry and tail probabilities
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ExceedanceEvent:
    """Exceedance set {X_0 > u} in the engine's native coordinate: a ``word``'s
    cylinder, or the union of sorted disjoint open intervals ``arcs`` (lo, hi)
    whose ends at +-inf are never compared: {X > u} is ((u, inf),), a circle arc
    wrapped through 0 ((-inf, hi), (lo, inf)), the whole space ((-inf, inf),)."""

    arcs: tuple = ()
    word: tuple = ()

    def __post_init__(self):
        ends = [end for arc in self.arcs for end in arc]
        if self.word and self.arcs or not all(lo < hi for lo, hi in self.arcs) or ends != sorted(ends):
            raise ValueError(f"an event is a word or sorted disjoint nonempty arcs, not {self}")

    @classmethod
    def circle_arc(cls, lo, hi):
        """The open arc from lo to hi (lo < hi) of the circle R/Z, as arcs of [0, 1)."""
        if not lo < hi:
            raise ValueError(f"circle arc ({lo}, {hi}) is empty")
        lo, hi = lo % 1.0, hi % 1.0
        return cls(((lo, hi),) if lo < hi else ((-math.inf, hi), (lo, math.inf)))

    def mask_native(self, values, out=None):
        if self.word:
            raise ValueError("cylinder events match digits, not points")
        res = np.empty(np.shape(values), dtype=bool) if out is None else out
        if not self.arcs:
            res[...] = False
        for i, (lo, hi) in enumerate(self.arcs):
            arc = np.empty_like(res) if i else res
            if hi < math.inf:
                np.less(values, hi, out=arc)
                if lo > -math.inf:
                    arc &= values > lo
            elif lo > -math.inf:
                np.greater(values, lo, out=arc)
            else:
                arc[...] = True
            if i:
                res |= arc
        return res


#: the event that holds everywhere (a ball covering the state space)
WHOLE_SPACE = ExceedanceEvent(((-math.inf, math.inf),))


def ball_event(spec, anchor_point, radius):
    """Native-coordinate realization of the open metric ball around an anchor."""
    z = anchor_point
    if radius == 0.0:  # empty, unlike a ball too small to hold a float (a ValueError)
        return ExceedanceEvent()
    try:
        if spec.kind == "m_ary":
            if radius >= 0.5:  # the circle metric never exceeds 1/2
                return WHOLE_SPACE
            return ExceedanceEvent.circle_arc(z - radius, z + radius)
        if spec.kind == "dyadic_jump":
            return ExceedanceEvent(((z - radius, z + radius),))
        if spec.kind == "chebyshev":
            # x-ball (z-radius, z+radius) pulled back through x = -cos(2 pi theta):
            # theta in (t_lo, t_hi) on [0, 1/2], mirrored at 1 - theta.
            a, b = max(z - radius, -1.0), min(z + radius, 1.0)
            if a == -1.0 and b == 1.0:
                return WHOLE_SPACE
            t_lo = math.acos(-a) / (2.0 * math.pi)
            t_hi = math.acos(-b) / (2.0 * math.pi)  # >= t_lo, as a <= b
            if t_lo <= 1e-15:  # anchor at x=-1: wrapped symmetric ball
                return ExceedanceEvent.circle_arc(-t_hi, t_hi)
            if t_hi >= 0.5 - 1e-15:  # anchor at x=1: interval around theta=1/2
                return ExceedanceEvent(((t_lo, 1.0 - t_lo),))
            raise ValueError("chebyshev exceedance sets are supported at the endpoints")
        return ExceedanceEvent(((1.0 - radius, math.inf),))
    except ValueError as e:
        raise ValueError(f"ball of radius {radius!r} around {z!r}: {e}") from None


def exceedance_event(spec, obs, u):
    """Native-coordinate realization of {X_0 > u} for the engine."""
    if obs.family == "cylinder":
        word = symbolic.SymbolicWord.parse(obs.anchor, spec.base)
        return ExceedanceEvent(word=tuple(word.digits))
    if u >= obs.top:  # above the essential sup: empty event
        return ExceedanceEvent()
    if u <= obs.bottom:  # below every value: the whole space
        return WHOLE_SPACE
    v = obs.g_inverse(u)
    radius = v if obs.family == "distance" else ball_radius_for_measure(spec, obs, min(v, 1.0))
    return ball_event(spec, obs.anchor_point(spec), radius)


def tail_probability(spec, obs, u):
    """P(X_0 > u), analytic for every built-in pairing.

    Above the essential sup the probability is exactly 0 (use
    ``obs.top`` to detect that regime), and at or below ``obs.bottom`` it is 1.
    """
    if obs.family == "cylinder":
        word = symbolic.SymbolicWord.parse(obs.anchor, spec.base)
        return symbolic.cylinder_measure(word, spec.digit_weights)
    if u >= obs.top:
        return 0.0
    if u <= obs.bottom:
        return 1.0
    if obs.family == "ball_measure":
        return min(obs.g_inverse(u), 1.0)  # ball-measure variable is Uniform(0,1)
    return float(ball_measure(spec, obs, obs.g_inverse(u)))


def level_for_tau(spec, obs, n, tau):
    """u_n with n * P(X_0 > u_n) = tau (exact analytic inversion)."""
    if n < 1 or tau < 0:
        raise ValueError("need n >= 1 and tau >= 0")
    p = tau / n
    if p > 1.0:
        raise ValueError(f"tau/n = {p} > 1: no valid level")
    if tau == 0.0:
        return obs.top
    if obs.family == "ball_measure":
        return float(obs.g(p))
    # distance family: radius with mu(ball) = p, then u = g(radius)
    radius = ball_radius_for_measure(spec, obs, p)
    return float(obs.g(radius))


@dataclass
class LevelSchedule:
    """Cached map n -> u_n at fixed tau (write-once per n)."""

    spec: ProcessSpec
    obs: ObservableSpec
    tau: float
    _cache: dict = field(default_factory=dict)

    def u(self, n):
        if n not in self._cache:
            self._cache[n] = level_for_tau(self.spec, self.obs, n, self.tau)
        return self._cache[n]


def omega_for_cylinder(spec, word, tau):
    """Time horizon matched to the cylinder {X_0 > u_n} = Z_n[anchor]."""
    if isinstance(word, str):
        word = symbolic.SymbolicWord.parse(word, spec.base)
    if len(word.digits) == 0:
        raise ValueError("empty word")
    mu = symbolic.cylinder_measure(word, spec.digit_weights)
    return int(math.floor(tau / mu))
