"""Exact, reproducible simulation of the built-in stationary processes.

Interval maps are simulated symbolically on digit streams (naive floating-point
iteration of an expanding map destroys randomness after ~53 steps); the
quadratic map runs on its conjugate doubling coordinate theta with the point
exposed as x = -cos(2*pi*theta).  The AR(1) model is the same shift structure
read in reverse: each step prepends one base-r digit.  The moving-maximum
models read X_t = max of the i.i.d. uniform innovations Y_{t+s} at the fixed
slots s of ``ProcessSpec.slots``; the i.i.d. control is the one-slot case.

Every path's digits and innovations are a pure function of (seed, trial
index, position) through the counter-based generator in :mod:`evl_lab.rng`,
so the series values, the AR(1) values (carried forward from step 0) and the
cylinder masks are bit-identical under any trial chunking and windowing, and
sweeps over the same windows are bit-identical under any trial chunking.  A
map point, though, is a backward scan from the end of its window: points of
one step from windows that end at different steps agree only to a few ulps,
so their exceedance masks agree unless a value lies within an ulp of an
event edge.  The jump map's digits are its gaps g_t (the point at step t has
the bits 0^(g_t - 1)1 0^(g_{t+1} - 1)1 ...), each one plus the trailing zeros
of one generator word (``rng.gaps``): Geom(1/2), exact up to 64, with the
word 0 read as 65.  So the map carries no bit position.

Sweeps are time-major.  The generator builds every draw as the ``.T`` view of
a (positions, trials) buffer.  The digit scans (backward for the maps, forward
for AR(1)) read one contiguous row of digits per step into a
``(SCAN_BLOCK, trials)`` block of values, and each block is handed on whole:
one exceedance-mask call, or one copy, per block into ``(steps, trials)``
buffers.  Their public shape stays ``(trials, steps)``: the engine returns the
``.T`` views.

Large sweeps run their trial chunks in one pool of forked workers
(``_fork_map``), which ``reproduce-paper`` also runs its experiments in.  A
chunk's result is a pure function of its trial ids, and the chunks are joined
in trial order, so the pool changes no result.
"""

from __future__ import annotations

import os
import pickle
import select
import sys
from dataclasses import dataclass, replace

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

#: memory budget of the trial chunks of a sweep that are in flight at once
CHUNK_BUDGET = 192 << 20

#: trial-steps from which a sweep splits its trials between the pool's
#: workers (see ``_chunk_trials``): on two CPUs, surveys of 2,048 steps broke
#: even there for ar1 and doubling (2^22 was up to 1.5x slower) and gained
#: 25-40% at 2^25
POOL_TRIAL_STEPS = 1 << 23

#: innovation slots of the moving-maximum kinds: X_t = max(Y_{t+s} for s in slots)
SLOTS = {"iid_uniform": (0,), "mma2": (1, 3), "mma13": (0, 1, 3)}


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
    def slots(self):
        """Innovation slots of a moving-maximum kind (X_t is the maximum of
        Y_{t+s} over them, so its extremal index is 1 / len(slots)); () for
        the digit kinds."""
        return SLOTS.get(self.kind, ())

    @property
    def uses_digits(self):
        return not self.slots


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
    """Exact symbolic state: digits (jump map: gaps), immutable once generated."""

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
        p = np.asarray(prefix)[None]
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

    Map kinds expose the orbit point as the digit (jump map: gap) tail at the
    cursor; ar1 reads 64 digits most-significant-last; moving-maximum kinds
    read their innovation window from the cursor.
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
    return replace(state, cursor=state.cursor + 1)


def _digit_value(digits, base, K):
    digits = np.asarray(digits[:K], dtype=np.float64)
    return float(digits @ (float(base) ** -(np.arange(1, digits.size + 1, dtype=np.float64))))


def evaluate_point(spec, state, K=PRECISION):
    """Float projection of the state; error at most base**-K (float64 capped)."""
    if K < 1:
        raise ValueError("K must be >= 1")
    c = state.cursor
    if spec.kind == "m_ary":
        return _digit_value(state.stream.block(c, c + K), spec.base, K)
    if spec.kind == "dyadic_jump":  # the bits 0^(g-1)1 of each gap g
        return float(np.ldexp(1.0, -np.cumsum(state.stream.block(c, c + K), dtype=np.int64)).sum())
    if spec.kind == "chebyshev":
        theta = _digit_value(state.stream.block(c, c + K), 2, K)
        return float(-np.cos(2.0 * np.pi * theta))
    if spec.kind == "ar1":
        msb_first = state.stream.block(c, c + 64)[::-1]
        return _digit_value(msb_first, spec.r, K)
    return float(max(state.stream[c + s] for s in spec.slots))


# ---------------------------------------------------------------------------
# vectorized ensemble engine
# ---------------------------------------------------------------------------


def _digit_block(spec, seed, trials, lo, hi, channel):
    """Digits at positions [lo, hi) for many trials (the jump map's gaps)."""
    if spec.kind == "dyadic_jump":
        return rng.gaps(seed, channel, trials, lo, hi)
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


def _gap_prefix(bits, seed, trials):
    """The jump map's prefix of gaps for start bits (trials, K) on the orbit
    channel: the k gaps that the bits' 1s end, then r + the trial's own gap
    k, where r counts the trailing zeros (a gap is memoryless: given that it
    exceeds r, it is r plus a fresh Geom(1/2) gap), then the trial's own gaps."""
    n, K = bits.shape
    at = np.cumsum(bits, axis=1, dtype=np.intp) - bits  # the gap that each bit lies in
    at += np.arange(n)[:, None] * (K + 1)
    g = np.bincount(at.ravel(), minlength=n * (K + 1)).reshape(n, K + 1)  # row: a_1..a_k, r, 0, ...
    own = rng.gaps(seed, rng.CH_ORBIT, trials, 0, K + 1)
    return np.where(np.arange(K + 1) >= np.count_nonzero(bits, axis=1)[:, None], g + own, g).astype(own.dtype)


# ---------------------------------------------------------------------------
# forked worker pool
# ---------------------------------------------------------------------------

#: set in a pool worker only (a forked process of its own), so that a pool
#: run there runs serially: one pool level
_IN_WORKER = False


def _cpus():
    """CPUs a pool may use, read at call time: 1 inside a pool worker, or
    without ``sched_getaffinity`` (it exists only where ``fork`` does)."""
    if _IN_WORKER or not hasattr(os, "sched_getaffinity"):
        return 1
    return len(os.sched_getaffinity(0))


def _serve(fn, items, tasks, results):
    """A pool worker's loop: read an item index from ``tasks``, send back the
    pickled (True, fn(item)) or (False, its exception) on ``results``, and
    stop when the parent closes ``tasks``."""
    with open(results, "wb") as out:
        while head := os.read(tasks, 8):  # 8 bytes < PIPE_BUF: written whole
            try:
                msg = pickle.dumps((True, fn(items[int.from_bytes(head, "little")])))
            except Exception as e:  # the item's failure, raised in the parent
                try:
                    msg = pickle.dumps((False, e))
                    pickle.loads(msg)
                except Exception:
                    msg = pickle.dumps((False, RuntimeError(repr(e))))
            out.write(len(msg).to_bytes(8, "little") + msg)
            out.flush()


def _fork_map(fn, items):
    """``[fn(x) for x in items]``, in item order, from one persistent forked
    worker per CPU (at most one per item; the plain loop on one CPU or inside
    a worker).

    The workers inherit ``fn`` and ``items`` through the fork; item indices go
    out over pipes as workers become free, and each result, or its exception,
    comes back pickled.  Once an item fails, no further item is handed out,
    and the first failure in item order is raised when the running items end.
    A worker that dies is a ``RuntimeError`` naming its item, and an exception
    that cannot be pickled comes back as a ``RuntimeError`` with its repr.
    Every worker is reaped before this returns or raises.
    """
    global _IN_WORKER
    items = list(items)
    workers = min(_cpus(), len(items))
    if workers < 2:
        return [fn(x) for x in items]
    sys.stdout.flush()  # buffered output would be written again by each worker
    sys.stderr.flush()
    pool = {}  # result pipe -> (worker pid, task pipe)
    results, failed, busy = [None] * len(items), {}, {}
    todo = iter(range(len(items)))

    def hand_out(f):
        i = None if failed else next(todo, None)
        if i is not None:
            busy[f] = i
            try:
                os.write(pool[f][1], i.to_bytes(8, "little"))
            except BrokenPipeError:  # the worker is gone: its result pipe says so
                pass

    try:
        for _ in range(workers):
            tasks_r, tasks_w = os.pipe()
            results_r, results_w = os.pipe()
            pid = os.fork()
            if pid == 0:
                code = 1
                try:
                    _IN_WORKER = True
                    for f, (_, w) in pool.items():  # a sibling's task pipe must close with the parent's end
                        f.close()
                        os.close(w)
                    os.close(tasks_w)
                    os.close(results_r)
                    _serve(fn, items, tasks_r, results_w)
                    sys.stdout.flush()
                    code = 0
                finally:
                    os._exit(code)  # never return into the caller's code
            os.close(tasks_r)
            os.close(results_w)
            pool[open(results_r, "rb")] = (pid, tasks_w)
        for f in list(pool):
            hand_out(f)
        while busy:
            for f in select.select(list(busy), [], [])[0]:
                i = busy.pop(f)
                n = int.from_bytes(f.read(8), "little")
                msg = f.read(n)
                if not msg or len(msg) < n:  # end of file: the worker has exited
                    pid, tasks_w = pool.pop(f)
                    f.close()
                    os.close(tasks_w)
                    code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
                    failed[i] = RuntimeError(f"a pool worker died (exit code {code}) running item {i}")
                    continue
                ok, value = pickle.loads(msg)
                (results if ok else failed)[i] = value
                hand_out(f)
    finally:
        for f, (pid, tasks_w) in pool.items():
            f.close()
            os.close(tasks_w)  # end of file: the worker exits
            os.waitpid(pid, 0)
    if failed:
        raise failed[min(failed)]
    return results


def _chunk_trials(spec, trials, stop):
    """Yield the trial ids 0, ..., trials - 1 of a sweep to ``stop`` in
    chunks sized so that one window of each trial fits ``CHUNK_BUDGET``.

    Bytes per trial-step: 4 for base-2 digit scans, 12 for other digit
    bases, 36 for the jump map's gap sweep (a word per step, its trailing
    zeros, the gaps and their float scale factors: 28 measured for a window
    of points) and for the moving maxima's float innovations with their
    slot-max temporaries.

    A sweep of at least ``POOL_TRIAL_STEPS`` trial-steps runs its chunks in
    the w workers of ``_fork_map`` (w = ``_cpus()``): its chunks then hold at
    most ceil(trials / w) trials and fit ``CHUNK_BUDGET`` / w each.  So the
    chunk windows in flight at once take at most ``CHUNK_BUDGET`` bytes at any
    n, with one exception: no chunk is cut below 256 trials, a window of
    19 MB at 36 bytes per step, which exceeds ``CHUNK_BUDGET`` / w only for
    w > 10.  A smaller sweep (w = 1) is chunked as on one CPU.
    """
    if spec.kind == "dyadic_jump" or spec.slots:
        per_step = 36
    else:
        per_step = 4 if spec.base == 2 else 12
    w = _cpus() if trials * stop >= POOL_TRIAL_STEPS else 1
    if w > 1:  # rng's generator module loads on the first draw: once here, not in each worker
        import numpy.random  # noqa: F401
    fit = CHUNK_BUDGET // w // (per_step * (min(TIME_BLOCK, stop) + 1))
    step = max(256, min(fit, -(-trials // w)))
    for lo in range(0, trials, step):
        yield np.arange(lo, min(lo + step, trials), dtype=np.uint64)


class PathEngine:
    """Sweep over an ensemble of paths of one process: the one entry point for
    exceedance masks and exposed points, for every process and event kind.

    ``masks``/``points`` take increasing windows [t0, t1); ar1 steps through
    the steps skipped between windows, carrying its value.  The digit kinds
    scan ``SCAN_BLOCK`` steps at a time (see ``_scan``) and call
    ``mask_native`` once per block; results do not depend on the block length.
    ``windows`` loops over ``TIME_BLOCK`` windows, so a sweep holds one window
    of each path at any length.  ``select`` compacts the ensemble, carried
    state included, to the paths where ``keep`` is True, preserving per-path
    streams.
    """

    def __init__(self, spec, seed, trials, channel=rng.CH_ORBIT, prefix=None):
        self.spec = spec
        self.seed = seed
        self.trials = np.atleast_1d(np.asarray(trials, dtype=np.uint64))
        self.channel = channel
        self.prefix = prefix
        self._t = 0
        self._carry = None  # ar1: the value at step self._t - 1

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
    def _scan(self, d, scale, x, lo, consume):
        """Carried recursion x_j = (x_{j-1} + d_j) * scale[j] over the rows j
        of the time-major digits ``d``, in order, from the carry ``x``; hands
        ``consume(j - lo, values of rows [j, j + L))`` for the rows j >= lo,
        up to ``SCAN_BLOCK`` rows at a time.  Returns the last value.

        The block's digits are cast to floats in one call, then each row
        takes one in-place add and one in-place multiply, as in a plain
        per-step scan, so the values do not depend on the block length.
        (In-place ops on a row just written are about twice as fast as a
        mixed uint8/float add into a fresh row.)  A constant base passes its
        factor as a list of Python floats, the cheapest row-by-row lookup.
        """
        block = np.empty((min(SCAN_BLOCK, d.shape[0]), x.size))
        z = list(block)  # row views, indexed once
        for a in range(0, d.shape[0], len(z)):
            rows = d[a : a + len(z)]
            np.copyto(block[: len(rows)], rows)
            for j in range(len(rows)):
                np.add(z[j], x, z[j])
                np.multiply(z[j], scale[a + j], z[j])
                x = z[j]
            x = x.copy()  # the next block's cast overwrites this row
            if a + len(rows) > lo:
                k = max(lo - a, 0)
                consume(a + k - lo, block[k : len(rows)])
        return x

    def _map_columns(self, t0, t1, consume):
        # x_t = (d_t + x_{t+1}) / base, or for the jump map, whose step t
        # consumes the block 0^(g_t - 1)1, x_t = (1 + x_{t+1}) * 2^-g_t:
        # scanned backward from 0 through PRECISION lookahead digits, the
        # floats of a digitwise scan.  Scan row PRECISION + j is step t1 - 1 - j.
        d = self._digits(t0, t1 + PRECISION).T[::-1]
        if self.spec.kind == "dyadic_jump":
            d, scale = np.broadcast_to(np.uint8(1), d.shape), np.ldexp(1.0, -d)
        else:
            scale = [1.0 / self.spec.base] * len(d)
        n, x = t1 - t0, np.zeros(self.trials.size)
        self._scan(d, scale, x, PRECISION, lambda j, v: consume(n - j - len(v), v[::-1]))

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
        self._carry = self._scan(d, [1.0 / r] * len(d), self._carry, t0 - lo, consume)

    def _columns(self, t0, t1, consume):
        """Values at steps [t0, t1), handed to ``consume(t - t0, time-major
        block of steps [t, t + L))``: the digit scans' blocks, or one block of
        the moving maxima X_t = max(Y_{t+s} for s in slots)."""
        if self.spec.kind == "ar1":
            return self._ar1_columns(t0, t1, consume)
        slots = self.spec.slots
        if not slots:
            return self._map_columns(t0, t1, consume)
        u = self._uniforms(t0, t1 + slots[-1]).T
        y = [u[s : s + t1 - t0] for s in slots]
        x = y[0] if len(y) == 1 else np.maximum(y[0], y[1])
        for z in y[2:]:
            np.maximum(x, z, out=x)  # max is exact: the slot order does not matter
        consume(0, x)

    def _cylinder_rows(self, t0, t1, word):
        """Time-major word matches at each step's orbit point: digits t, t + 1,
        ... equal the word.  The jump map's digits are gaps: the word's 1s end
        the gaps a and r zeros trail them, so gaps t, ... equal a and the next
        gap exceeds r."""
        word = np.asarray(word, dtype=np.uint8)
        jump = self.spec.kind == "dyadic_jump"
        if jump:
            ends = np.r_[-1, np.flatnonzero(word)]
            word, r = np.diff(ends), word.size - 1 - ends[-1]
        n = t1 - t0
        d = self._digits(t0, t1 + word.size - 1 + jump).T  # the jump map also reads the gap after a
        match = np.ones((n, self.trials.size), dtype=bool)
        for i, digit in enumerate(word):
            match &= d[i : i + n] == digit
        if jump:
            match &= d[word.size : word.size + n] > r
        return match

    def masks(self, t0, t1, event):
        """Boolean exceedance matrix for steps [t0, t1); cylinder events match
        their word on the digits, every other event reads the exposed values."""
        self._check_window(t0)
        if event.word:
            out = self._cylinder_rows(t0, t1, event.word)
        else:
            out = np.empty((t1 - t0, self.trials.size), dtype=bool)  # time-major
            self._columns(t0, t1, lambda t, v: event.mask_native(v, out=out[t : t + len(v)]))
        self._t = t1
        return out.T

    def points(self, t0, t1):
        """Exposed process points at steps [t0, t1) (x-space for chebyshev)."""
        self._check_window(t0)
        out = np.empty((t1 - t0, self.trials.size))  # time-major
        self._columns(t0, t1, lambda t, v: np.copyto(out[t : t + len(v)], v))
        if self.spec.kind == "chebyshev":
            out = -np.cos(2.0 * np.pi * out)
        self._t = t1
        return out.T

    def digit_matrix(self, t0, t1):
        """Raw digits at positions [t0, t1), ``(trials, t1 - t0)``: a pure
        read that neither checks nor moves the sweep's window or carry."""
        return self._digits(t0, t1)

    def windows(self, stop, event):
        """Yield (t, time-major exceedance mask of steps [t, t1)) for the
        ``TIME_BLOCK`` windows covering [0, stop).  Stops once ``select`` has
        dropped every path."""
        for t in range(0, stop, TIME_BLOCK):
            if not self.trials.size:
                return
            yield t, self.masks(t, min(t + TIME_BLOCK, stop), event).T


def point_values_at(spec, seed, trials, steps):
    """Exposed points at the given steps only, in increasing step order, from
    one engine: one-step windows (ar1 steps through the skipped steps)."""
    steps = sorted(set(int(s) for s in steps))
    eng = PathEngine(spec, seed, trials)
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
        of path ids[i] in [0, length + extra)) per trial chunk, in trial order,
        built one engine window at a time: memory is flat in the length.  The
        keys of a large sweep's chunks are built in the forked workers of
        ``_fork_map`` (see ``_chunk_trials``); exceedances are rare, so the
        keys that come back are small."""
        L = self.length + extra

        def keys(ids):
            windows = PathEngine(self.spec, self.seed, ids).windows(L, event)
            return np.concatenate([np.flatnonzero(m) + t * ids.size for t, m in windows])

        chunks = list(_chunk_trials(self.spec, self.trials, L))
        yield from zip(chunks, _fork_map(keys, chunks))
