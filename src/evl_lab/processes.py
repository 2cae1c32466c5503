"""Exact, reproducible simulation of the built-in stationary processes.

Interval maps are simulated symbolically on digit streams (naive floating-point
iteration of an expanding map destroys randomness after ~53 steps); the
quadratic map runs on its conjugate doubling coordinate theta with the point
exposed as x = -cos(2*pi*theta).  The AR(1) model is the same shift structure
read in reverse: each step prepends one base-r digit.  Moving-maximum models
keep a short window of i.i.d. innovations.

Every path's digits and innovations are a pure function of (seed, trial
index, position) through the counter-based generator in :mod:`evl_lab.rng`,
so the series values, the AR(1) values (carried forward from step 0) and the
cylinder masks are bit-identical under any trial chunking and windowing, and
sweeps over the same windows are bit-identical under any trial chunking.  A
map point, though, is a backward scan from the end of its window: points of
one step from windows that end at different steps agree only to a few ulps,
so their exceedance masks agree unless a value lies within an ulp of an
event edge.

Sweeps are time-major.  The generator builds every draw as the ``.T`` view of
a (positions, trials) buffer.  The digit scans (backward for the maps, forward
for AR(1)) read one contiguous row of digits per step into a
``(SCAN_BLOCK, trials)`` block of values, and each block is handed on whole:
one exceedance-mask call, or one copy, per block into ``(steps, trials)``
buffers.  Their public shape stays ``(trials, steps)``: the engine returns the
``.T`` views.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction

import numpy as np

from . import rng

MAP_KINDS = ("m_ary", "dyadic_jump", "chebyshev")
SERIES_KINDS = ("ar1", "mma2", "mma13", "iid_uniform")
KINDS = MAP_KINDS + SERIES_KINDS

#: digits kept when projecting a digit state to a float
PRECISION = 64

#: fixed time-block length for open-horizon sweeps; a constant (never adapted
#: to runtime conditions) so that blocked results are reproducible
TIME_BLOCK = 2048

#: steps per block of the digit scans: one exceedance-mask call per block
#: (8 and 16 measured alike, 32 and 64 slower at 10,000 trials)
SCAN_BLOCK = 16

#: tolerance of the weight checks: the weights sum to 1, and are uniform
WEIGHT_TOL = 1e-12

#: memory budget of one trial chunk of a sweep
CHUNK_BUDGET = 192 << 20


@dataclass(frozen=True)
class ProcessSpec:
    """Which stationary process to simulate, with its parameters."""

    kind: str
    m: int = 2
    weights: tuple[float, ...] = ()
    r: int = 2
    label: str = ""

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown process kind {self.kind!r}")
        if self.kind == "m_ary":
            if self.m < 2:
                raise ValueError("m must be >= 2")
            w = self.weights or tuple([1.0 / self.m] * self.m)
            if len(w) != self.m:
                raise ValueError("weights length must equal m")
            if abs(sum(w) - 1.0) > WEIGHT_TOL or any(not 0.0 < x < 1.0 for x in w):
                raise ValueError("weights must lie in (0,1) and sum to 1")
            object.__setattr__(self, "weights", tuple(float(x) for x in w))
        if self.kind == "ar1" and self.r < 2:
            raise ValueError("r must be >= 2")
        if not self.label:
            object.__setattr__(self, "label", self._default_label())

    def _default_label(self):
        if self.kind == "m_ary":
            if self.is_uniform:
                return f"m_ary(m={self.m},uniform)"
            return f"m_ary(m={self.m},weights={','.join(f'{w:g}' for w in self.weights)})"
        if self.kind == "ar1":
            return f"ar1(r={self.r})"
        return self.kind

    # -- constructors -------------------------------------------------------
    @staticmethod
    def m_ary(m, weights=None):
        return ProcessSpec("m_ary", m=m, weights=tuple(weights) if weights else ())

    @staticmethod
    def doubling():
        return ProcessSpec.m_ary(2)

    @staticmethod
    def bernoulli_doubling(alpha):
        return ProcessSpec.m_ary(2, (alpha, 1.0 - alpha))

    @staticmethod
    def dyadic_jump():
        return ProcessSpec("dyadic_jump")

    @staticmethod
    def chebyshev():
        return ProcessSpec("chebyshev")

    @staticmethod
    def ar1(r):
        return ProcessSpec("ar1", r=r)

    @staticmethod
    def mma2():
        return ProcessSpec("mma2")

    @staticmethod
    def mma13():
        return ProcessSpec("mma13")

    @staticmethod
    def iid_uniform():
        return ProcessSpec("iid_uniform")

    # -- structure ----------------------------------------------------------
    @property
    def base(self):
        """Digit base of the symbolic representation (map kinds and ar1)."""
        if self.kind == "m_ary":
            return self.m
        if self.kind in ("dyadic_jump", "chebyshev"):
            return 2
        if self.kind == "ar1":
            return self.r
        raise ValueError(f"{self.kind} has no digit representation")

    @property
    def digit_weights(self):
        if self.kind == "m_ary":
            return np.asarray(self.weights)
        return np.full(self.base, 1.0 / self.base)

    @property
    def is_uniform(self):
        """Whether the digit weights are uniform (digit kinds only)."""
        w = self.digit_weights
        return bool(np.all(np.abs(w - 1.0 / w.size) <= WEIGHT_TOL))

    @property
    def uses_digits(self):
        return self.kind in ("m_ary", "dyadic_jump", "chebyshev", "ar1")

    @property
    def state_space(self):
        return {"m_ary": (0.0, 1.0), "dyadic_jump": (0.0, 1.0), "chebyshev": (-1.0, 1.0)}.get(
            self.kind, (0.0, 1.0)
        )


# ---------------------------------------------------------------------------
# lazy deterministic streams (single-path API)
# ---------------------------------------------------------------------------


class _Stream:
    """Append-only lazily extended sequence; re-reading an index is stable."""

    def __init__(self, source, dtype):
        self._source = source
        self._buf = np.empty(0, dtype=dtype)

    def _ensure(self, n):
        if n > self._buf.size:
            grow = max(n, 2 * self._buf.size, 256)
            self._buf = np.concatenate([self._buf, self._source(self._buf.size, grow)])

    def block(self, lo, hi):
        self._ensure(hi)
        return self._buf[lo:hi].copy()

    def __getitem__(self, i):
        self._ensure(i + 1)
        return self._buf[i]


class DigitStream(_Stream):
    """Exact symbolic state: digits over {0..m-1}, immutable once generated."""

    def __init__(self, base, source):
        super().__init__(source, np.uint8)
        self.base = base

    @staticmethod
    def random(spec, seed, trial=0):
        src = lambda lo, hi: _digit_block(spec, seed, [trial], lo, hi, rng.CH_ORBIT)[0]
        return DigitStream(spec.base, src)

    @staticmethod
    def periodic(base, word_digits):
        w = np.asarray(word_digits, dtype=np.uint8)
        src = lambda lo, hi: w[np.arange(lo, hi) % w.size]
        return DigitStream(base, src)

    @staticmethod
    def with_prefix(base, prefix, tail_stream):
        p = np.asarray(prefix, dtype=np.uint8)[None]
        return DigitStream(base, lambda lo, hi: _with_prefix(tail_stream.block(lo, hi)[None], lo, p)[0])


class UniformStream(_Stream):
    """Lazily extended i.i.d. Uniform(0,1) innovations."""

    def __init__(self, source):
        super().__init__(source, np.float64)

    @staticmethod
    def random(seed, trial=0):
        return UniformStream(lambda lo, hi: rng.uniforms(seed, rng.CH_ORBIT, [trial], lo, hi)[0])


@dataclass
class ProcessState:
    """Current simulation state: a stream plus a read cursor.

    Map kinds expose the orbit point as the digit tail at the cursor; ar1
    reads 64 digits most-significant-last; moving-maximum kinds read their
    innovation window from the cursor.
    """

    spec: ProcessSpec
    stream: object
    cursor: int = 0


def sample_initial(spec, seed, trial=0):
    """State drawn from the invariant/stationary law of ``spec``."""
    if spec.uses_digits:
        return ProcessState(spec, DigitStream.random(spec, seed, trial), 0)
    return ProcessState(spec, UniformStream.random(seed, trial), 0)


def step(spec, state):
    """Advance one time step (pure: returns a new state on the same stream)."""
    if spec.kind == "dyadic_jump":
        c = state.cursor
        while state.stream[c] != 1:
            c += 1
        return replace(state, cursor=c + 1)
    return replace(state, cursor=state.cursor + 1)


def _digit_value(digits, base, K):
    digits = np.asarray(digits[:K], dtype=np.float64)
    return float(digits @ (float(base) ** -(np.arange(1, digits.size + 1, dtype=np.float64))))


def evaluate_point(spec, state, K=PRECISION):
    """Float projection of the state; error at most base**-K (float64 capped)."""
    if K < 1:
        raise ValueError("K must be >= 1")
    c = state.cursor
    if spec.kind in ("m_ary", "dyadic_jump"):
        return _digit_value(state.stream.block(c, c + K), spec.base, K)
    if spec.kind == "chebyshev":
        theta = _digit_value(state.stream.block(c, c + K), 2, K)
        return float(-np.cos(2.0 * np.pi * theta))
    if spec.kind == "ar1":
        msb_first = state.stream.block(c, c + 64)[::-1]
        return _digit_value(msb_first, spec.r, K)
    if spec.kind == "mma2":
        return float(max(state.stream[c + 1], state.stream[c + 3]))
    if spec.kind == "mma13":
        return float(max(state.stream[c], state.stream[c + 1], state.stream[c + 3]))
    return float(state.stream[state.cursor])


def exact_point(spec, state, K=PRECISION):
    """Exact rational projection of a digit state (for exactness checks)."""
    if not spec.uses_digits or spec.kind == "chebyshev":
        raise ValueError("exact_point requires a plain digit-stream kind")
    c = state.cursor
    if spec.kind == "ar1":
        digits = state.stream.block(c, c + 64)[::-1][:K]
    else:
        digits = state.stream.block(c, c + K)
    b = spec.base
    num = 0
    for d in digits:
        num = num * b + int(d)
    return Fraction(num, b ** len(digits))


def observe_path(spec, observable, seed, n, trial=0):
    """Series (X_0, ..., X_{n-1}) of the observable along one stationary path."""
    if n < 1:
        raise ValueError("n must be >= 1")
    pts = point_values_range(spec, seed, [trial], 0, n)[0]
    return observable.apply(spec, pts)


# ---------------------------------------------------------------------------
# vectorized ensemble engine
# ---------------------------------------------------------------------------


def _digit_block(spec, seed, trials, lo, hi, channel):
    """Digits at positions [lo, hi) for many trials."""
    if not spec.is_uniform:
        return rng.digits(seed, channel, trials, lo, hi, np.cumsum(spec.digit_weights))
    if spec.base == 2:
        return rng.bits(seed, channel, trials, lo, hi)
    return rng.uniform_digits(seed, channel, trials, lo, hi, spec.base)


def _with_prefix(out, lo, prefix):
    """Lay a fixed per-trial prefix (trials, k) over draws (trials, width) at
    positions [lo, lo + width)."""
    if prefix is not None and lo < prefix.shape[1]:
        k = min(lo + out.shape[1], prefix.shape[1])
        out[:, : k - lo] = prefix[:, lo:k]
    return out


def _chunk_trials(spec, stop):
    """Trials per chunk of a sweep to ``stop``, sized so that one window of
    each trial fits ``CHUNK_BUDGET``.

    Bytes per trial-step: 4 for base-2 digit scans, 12 for other digit
    bases, 36 where the sweep holds float values (series innovations with
    their shifted-max temporaries, the jump map's bit-tail values).
    """
    steps = stop if spec.kind == "dyadic_jump" else min(TIME_BLOCK, stop)
    if spec.kind in ("dyadic_jump", "mma2", "mma13", "iid_uniform"):
        per_step = 36
    else:
        per_step = 4 if spec.base == 2 else 12
    return max(256, CHUNK_BUDGET // (per_step * (steps + 1)))


class PathEngine:
    """Sweep over an ensemble of paths of one process: the one entry point for
    exceedance masks and exposed points, for every process and event kind.

    ``masks``/``points`` take increasing windows [t0, t1); steps skipped
    between windows are scanned through where state is carried (ar1).  The
    digit kinds scan ``SCAN_BLOCK`` steps at a time (see ``_scan``) and
    call ``mask_native`` once per block; results do not depend on the
    block length.
    ``windows`` loops over ``TIME_BLOCK`` windows, so a sweep holds one window
    of each path at any length.  The jump map consumes a variable number of
    digits per step, so it is the exception: one whole window from step 0,
    with memory that grows with the length.  ``select`` compacts the ensemble
    to the paths where ``keep`` is True, preserving per-path streams.
    """

    def __init__(self, spec, seed, trials, channel=rng.CH_ORBIT, prefix=None):
        self.spec = spec
        self.seed = seed
        self.trials = np.atleast_1d(np.asarray(trials, dtype=np.uint64))
        self.channel = channel
        self.prefix = prefix
        self._t = 0
        self._carry = None  # ar1 value at step self._t - 1

    def _check_window(self, t0):
        if t0 < self._t:
            raise ValueError("engine windows must be increasing")

    def _digits(self, lo, hi):
        d = _digit_block(self.spec, self.seed, self.trials, lo, hi, self.channel)
        return _with_prefix(d, lo, self.prefix)

    def _uniforms(self, lo, hi):
        return _with_prefix(rng.uniforms(self.seed, self.channel, self.trials, lo, hi), lo, self.prefix)

    def select(self, keep):
        self.trials = self.trials[keep]
        if self.prefix is not None:
            self.prefix = self.prefix[keep]
        if self._carry is not None:
            self._carry = self._carry[keep]

    # -- digit kinds: blocked scans ------------------------------------------
    def _scan(self, d, x, lo, consume):
        """Carried recursion x_j = (x_{j-1} + d_j) / base over the rows j of
        the time-major digits ``d``, in order, from the carry ``x``; hands
        ``consume(j - lo, values of rows [j, j + L))`` for the rows j >= lo,
        up to ``SCAN_BLOCK`` rows at a time.  Returns the last value.

        The block's digits are cast to floats in one call, then each row
        takes one in-place add and one multiply by 1/base, as in a plain
        per-step scan, so the values do not depend on the block length.
        (In-place ops on a row just written are about twice as fast as a
        mixed uint8/float add into a fresh row.)
        """
        inv = 1.0 / self.spec.base
        block = np.empty((min(SCAN_BLOCK, d.shape[0]), x.size))
        z = list(block)  # row views, indexed once
        for a in range(0, d.shape[0], len(z)):
            rows = d[a : a + len(z)]
            np.copyto(block[: len(rows)], rows)
            for j in range(len(rows)):
                np.add(z[j], x, z[j])
                np.multiply(z[j], inv, z[j])
                x = z[j]
            x = x.copy()  # the next block's cast overwrites this row
            if a + len(rows) > lo:
                k = max(lo - a, 0)
                consume(a + k - lo, block[k : len(rows)])
        return x

    def _map_theta_columns(self, t0, t1, consume):
        # x_t = (d_t + x_{t+1}) / base, scanned backward from 0 through the
        # PRECISION lookahead digits: scan row PRECISION + j is step t1 - 1 - j.
        n = t1 - t0
        d = self._digits(t0, t1 + PRECISION).T[::-1]
        x = np.zeros(self.trials.size)
        self._scan(d, x, PRECISION, lambda j, v: consume(n - j - len(v), v[::-1]))

    def _ar1_columns(self, t0, t1, consume):
        # X_t = (X_{t-1} + d_{t+63}) / r; X_0 built from digits [0, 64) with
        # the most significant digit at position 63.  The division contracts,
        # so float error stays bounded by ~2eps * r/(r-1).
        r = float(self.spec.r)
        lo = self._t
        if self._carry is None:
            d0 = self._digits(0, PRECISION).T
            x = np.zeros(self.trials.size)
            for j in range(PRECISION):
                x = (x + d0[j]) / r
            self._carry = x
            if t0 == 0:
                consume(0, x[None])
            lo = 1
        if lo >= t1:
            return
        d = self._digits(lo + PRECISION - 1, t1 + PRECISION - 1).T
        self._carry = self._scan(d, self._carry, t0 - lo, consume)

    def _columns(self, t0, t1, consume):
        """Scan values of the digit kinds at steps [t0, t1), handed to
        ``consume(t - t0, time-major block of steps [t, t + L))``."""
        columns = self._ar1_columns if self.spec.kind == "ar1" else self._map_theta_columns
        columns(t0, t1, consume)

    def _jump_window(self, t0, t1):
        if t0 != 0:
            raise ValueError("jump-map sweeps cover one whole window from step 0")
        return _jump_bits(self.seed, self.trials, t1, self.channel, self.prefix)

    def _values(self, t0, t1):
        """Float values of the series kinds and the jump map at steps [t0, t1)."""
        spec = self.spec
        if spec.kind == "dyadic_jump":
            return _jump_values(*self._jump_window(t0, t1))
        if spec.kind == "iid_uniform":
            return self._uniforms(t0, t1)
        u = self._uniforms(t0, t1 + 3)
        n = t1 - t0
        out = np.maximum(u[:, 1 : n + 1], u[:, 3 : n + 3])
        if spec.kind == "mma13":
            np.maximum(out, u[:, :n], out=out)
        return out

    def _cylinder_rows(self, t0, t1, word):
        """Time-major word matches at each step's orbit point: digit t, or
        for the jump map the bit after each consumed 0^(k-1)1 block."""
        word = np.asarray(word, dtype=np.uint8)
        if self.spec.kind == "dyadic_jump":
            d, pos = self._jump_window(t0, t1)
        else:
            d = self._digits(t0, t1 + word.size - 1).T
            pos = None
        match = np.ones((d.shape[0] - word.size + 1, self.trials.size), dtype=bool)
        for i, digit in enumerate(word):
            match &= d[i : i + match.shape[0]] == digit
        return match if pos is None else np.take_along_axis(match, pos, axis=0)

    def masks(self, t0, t1, event):
        """Boolean exceedance matrix for steps [t0, t1); cylinder events match
        their word on the digits, every other event reads the exposed values."""
        self._check_window(t0)
        if event.is_cylinder:
            out = self._cylinder_rows(t0, t1, event.word)
        else:
            out = np.empty((t1 - t0, self.trials.size), dtype=bool)  # time-major
            if self.spec.kind in ("m_ary", "chebyshev", "ar1"):
                self._columns(t0, t1, lambda t, v: event.mask_native(v, out=out[t : t + len(v)]))
            else:
                event.mask_native(self._values(t0, t1), out=out.T)
        self._t = t1
        return out.T

    def points(self, t0, t1):
        """Exposed process points at steps [t0, t1) (x-space for chebyshev)."""
        self._check_window(t0)
        if self.spec.kind in ("m_ary", "chebyshev", "ar1"):
            out = np.empty((t1 - t0, self.trials.size))  # time-major
            self._columns(t0, t1, lambda t, v: np.copyto(out[t : t + len(v)], v))
            if self.spec.kind == "chebyshev":
                out = -np.cos(2.0 * np.pi * out)
            out = out.T
        else:
            out = self._values(t0, t1)
        self._t = t1
        return out

    def digit_matrix(self, t0, t1, lookahead=0):
        """Raw digits at [t0, t1+lookahead); the sweep cursor advances to t1
        (digit positions are stateless, overlap is fine)."""
        self._check_window(t0)
        d = self._digits(t0, t1 + lookahead)
        self._t = t1
        return d

    def windows(self, stop, event):
        """Yield (t, time-major exceedance mask of steps [t, t1)) for the
        windows covering [0, stop): ``TIME_BLOCK`` blocks, or the jump map's
        one whole window.  Stops once ``select`` has dropped every path."""
        block = stop if self.spec.kind == "dyadic_jump" else TIME_BLOCK
        for t in range(0, stop, block):
            if not self.trials.size:
                return
            yield t, self.masks(t, min(t + block, stop), event).T


def _jump_bits(seed, trials, n_steps, channel, prefix):
    """Bits of jump-map paths, time-major (positions, trials), and the bit
    position of each step's orbit point, (steps, trials): 0, then one past
    the 1 that closes each consumed 0^(k-1)1 block."""
    need = int(2 * n_steps + 8 * np.sqrt(n_steps) + PRECISION + 64)
    while True:
        b = _with_prefix(rng.bits(seed, channel, trials, 0, need), 0, prefix)
        if (b.sum(axis=1) - b[:, -PRECISION:].sum(axis=1)).min() >= n_steps:
            break
        need *= 2  # astronomically rare top-up, keeps positional determinism
    rows = np.ascontiguousarray(b[:, : need - PRECISION])  # trial-major, for the per-path search
    pos = np.zeros((trials.size, n_steps), dtype=np.int32)
    for i in range(trials.size):
        pos[i, 1:] = np.flatnonzero(rows[i])[: n_steps - 1] + 1
    return b.T, pos.T


def _jump_values(b, pos):
    """Orbit points at the step positions: the bit tails, by a backward scan."""
    vals = np.empty(b.shape)
    x = np.zeros(b.shape[1])
    for t in range(b.shape[0] - 1, -1, -1):
        x = (b[t] + x) * 0.5
        vals[t] = x
    return np.take_along_axis(vals, pos, axis=0).T


def point_values_range(spec, seed, trials, t0, t1):
    """Exposed points at steps [t0, t1) for many trials (one-shot sweep)."""
    return PathEngine(spec, seed, trials).points(t0, t1)


def point_values_at(spec, seed, trials, steps):
    """Exposed points at the given steps only, in increasing step order, from
    one engine: one-step windows (ar1 scans through the skipped steps), or
    the jump map's one whole window."""
    steps = sorted(set(int(s) for s in steps))
    eng = PathEngine(spec, seed, trials)
    if spec.kind == "dyadic_jump":
        return eng.points(0, steps[-1] + 1)[:, steps]
    return np.stack([eng.points(s, s + 1)[:, 0] for s in steps], axis=1)


@dataclass(frozen=True)
class Ensemble:
    """Descriptor of `trials` independent stationary paths of length `length`.

    ``obs`` names the observable whose exceedances the consumer studies; it is
    carried here so estimator signatures can take the ensemble alone.
    """

    spec: ProcessSpec
    seed: int
    trials: int
    length: int
    obs: object = None

    def __post_init__(self):
        if self.trials < 2:
            raise ValueError("need at least 2 trials")

    def mask_chunks(self, event, extra=0):
        """Yield (trial ids, sorted keys step * ids.size + i of the exceedances
        of path ids[i] in [0, length + extra)) per trial chunk, built one
        engine window at a time: memory is flat in the length (jump map aside)."""
        L = self.length + extra
        step = _chunk_trials(self.spec, L)
        for lo in range(0, self.trials, step):
            ids = np.arange(lo, min(lo + step, self.trials), dtype=np.uint64)
            windows = PathEngine(self.spec, self.seed, ids).windows(L, event)
            yield ids, np.concatenate([np.flatnonzero(m) + t * ids.size for t, m in windows])
