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
``.T`` views.  A sweep (``PathEngine.windows``) hands on only the sorted keys
of each window's exceedances.  Narrow arcs of the base-2 maps skip the scan
and its mask calls: their keys are read off the digits packed 64 to a word,
and equal the scan's mask bit for bit (``PathEngine._packed_keys``).

Large sweeps run their trial chunks in one pool of forked workers
(``_fork_map``), which ``reproduce-paper`` also runs its experiments in.  A
chunk's result is a pure function of its trial ids, and the chunks are joined
in trial order, so the pool changes no result.  Return-time starts are drawn
in their chunk too, and the estimator bundle's chunks run its survey and its
return-time leg together (``Ensemble._keys``, ``hts_rts._first_hits``).
"""

from __future__ import annotations

import math
import os
import pickle
import select
import sys
from dataclasses import dataclass

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

#: an event of the base-2 maps whose arcs have widths below 2**-PACKED_DEPTH
#: is found on packed digit words (``PathEngine._packed_keys``); a wider arc's
#: candidates are dense (at width 2**-6 both sweeps took the same time)
PACKED_DEPTH = 7

#: most prefix digits matched per candidate cell: a digit costs a shifted
#: word per 64 steps, a candidate its 52-digit bracket (fair bits were
#: fastest at 13-14, Bernoulli(0.3) at 18-20; 16 is within 20% of both)
MATCH_DIGITS = 16

#: paths per block of the prefix match, so that its words stay in cache
#: (512 ran 2x as fast as one block of 10,000 paths)
MATCH_BLOCK = 512

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


def _pack(d):
    """Time-major 0/1 digits (64 k, paths) as (k, paths) words: bit j of word
    w is row 64 w + j.  (Shifted ORs of byte rows: ``np.packbits`` along
    time took 5x as long on 10,000 paths.)"""
    k, n = d.shape[0] // 64, d.shape[1]
    rows = d.reshape(8 * k, 8, n)
    by, spill = rows[:, 0].copy(), np.empty_like(rows[:, 0])
    for j in range(1, 8):
        by |= np.left_shift(rows[:, j], np.uint8(j), out=spill)
    return by.reshape(k, 8, n).transpose(0, 2, 1).copy().view("<u8")[..., 0]


def _match(words, cells):
    """Words whose bit j is set where the digits from bit j of a row of
    ``words`` on (running into the next row) begin with one of the (L, cell)
    ``cells``, one row fewer than ``words``.  A run (a cell of L equal
    digits) is matched by doubling: x holds the digits, or their complements,
    and x &= x shifted by s (carrying in from the next row) extends the run
    found at each bit from a to a + s digits, s = min(a, L - a); a run of 13
    takes 4 steps.  Per other cell, the AND of the digit streams shifted by
    its 1s, less the OR of those shifted by its 0s; each shift is made once
    for all of those cells."""
    now, nxt = words[:-1], words[1:]
    hit = np.zeros_like(now)
    spill, carry = np.empty_like(words), np.empty_like(now)
    for L, c in cells:
        if c in (0, 2**L - 1):
            x = words.copy() if c else ~words
            a = 1
            while a < L:
                s = min(a, L - a)
                np.right_shift(x, np.uint64(s), out=spill)
                # the last row shifts in 0s: a row above reads only its first L - 1 bits
                spill[:-1] |= np.left_shift(x[1:], np.uint64(64 - s), out=carry)
                x &= spill
                a += s
            hit |= x[:-1]
    other = [(L, c) for L, c in cells if c not in (0, 2**L - 1)]
    ones = [np.full_like(now, np.uint64(2**64 - 1)) for _ in other]
    zeros = [np.zeros_like(now) for _ in other]
    shifted = spill[:-1]
    for i in range(max((L for L, _ in other), default=0)):
        s = now  # the digits from offset i: bit j is digit j + i
        if i:
            np.right_shift(now, np.uint64(i), out=shifted)
            s = np.bitwise_or(shifted, np.left_shift(nxt, np.uint64(64 - i), out=carry), out=shifted)
        for (L, c), one, zero in zip(other, ones, zeros):
            if i < L and c >> (L - 1 - i) & 1:
                one &= s
            elif i < L:
                zero |= s
    for one, zero in zip(ones, zeros):
        hit |= one & ~zero
    return hit


def _set_bits(words):
    """(flat index, bit number) of every set bit of a uint64 array."""
    at = np.flatnonzero(words)
    x = words.ravel()[at]
    where, bits = [at[:0]], [np.empty(0, dtype=np.uint8)]
    while x.size:
        low = x & (np.uint64(0) - x)
        where.append(at)
        bits.append(np.bitwise_count(low - np.uint64(1)))
        x ^= low
        at, x = at[x != 0], x[x != 0]
    return np.concatenate(where), np.concatenate(bits)


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
    Narrow arcs of the base-2 maps are matched on packed digit words
    instead (``_packed_keys``), with the same mask.  ``windows`` yields the
    exceedance keys of ``TIME_BLOCK`` windows, so a sweep holds one window
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
        their word on the digits, narrow base-2 arcs are found on packed
        words, every other event reads the exposed values."""
        cells = self._cells(event)
        if cells is not None:
            out = np.zeros((t1 - t0) * self.trials.size, dtype=bool)
            out[self._packed_keys(t0, t1, event, cells)] = True
            return out.reshape(t1 - t0, self.trials.size).T
        self._check_window(t0)
        if event.word:
            out = self._cylinder_rows(t0, t1, event.word)
        else:
            out = np.empty((t1 - t0, self.trials.size), dtype=bool)  # time-major
            self._columns(t0, t1, lambda t, v: event.mask_native(v, out=out[t : t + len(v)]))
        self._t = t1
        return out.T

    def _values(self, t0, t1):
        """Time-major values at steps [t0, t1) in the events' coordinate
        (theta for chebyshev): the float scans."""
        self._check_window(t0)
        out = np.empty((t1 - t0, self.trials.size))
        self._columns(t0, t1, lambda t, v: np.copyto(out[t : t + len(v)], v))
        self._t = t1
        return out

    def points(self, t0, t1):
        """Exposed process points at steps [t0, t1) (x-space for chebyshev)."""
        out = self._values(t0, t1)
        if self.spec.kind == "chebyshev":
            out = -np.cos(2.0 * np.pi * out)
        return out.T

    def digit_matrix(self, t0, t1):
        """Raw digits at positions [t0, t1), ``(trials, t1 - t0)``: a pure
        read that neither checks nor moves the sweep's window or carry."""
        return self._digits(t0, t1)

    # -- narrow arcs of the base-2 maps: keys from packed digit words ----------
    def _cells(self, event):
        """(L, cell) for the level-L dyadic cells (as L-digit integers) that
        the arcs of ``event`` meet: an arc clipped to [0, 1], of width in
        [2**-(D + 1), 2**-D), meets at most two, L = min(D, MATCH_DIGITS).
        None unless the digits are base 2 (``m_ary`` with m = 2,
        ``chebyshev``'s theta) and D >= PACKED_DEPTH for every arc."""
        if event.word or self.spec.kind not in ("m_ary", "chebyshev") or self.spec.base != 2:
            return None
        cells = []
        for lo, hi in event.arcs:
            lo, hi = min(max(lo, 0.0), 1.0), min(max(hi, 0.0), 1.0)
            if lo >= hi:
                continue  # no value of [0, 1] lies in it
            D = -math.frexp(hi - lo)[1]
            if D < PACKED_DEPTH:
                return None
            L = min(D, MATCH_DIGITS)
            cells += [(L, c) for c in range(math.floor(math.ldexp(lo, L)), math.ceil(math.ldexp(hi, L)))]
        return cells

    def _words(self, w0, w1):
        """Digits [64 w0, 64 w1) packed along time, time-major ``(w1 - w0,
        paths)``: bit j of word w is digit 64 w + j, as in ``rng.bits``.
        Fair bits are the generator's words as they come; weighted digits,
        and the words under a start prefix, are packed from ``_digits``."""
        k = w1 if not self.spec.is_uniform else 0 if self.prefix is None else -(-self.prefix.shape[1] // 64)
        k = min(max(k, w0), w1)  # words [w0, k) are packed from digits
        words = np.empty((w1 - w0, self.trials.size), dtype=np.uint64)
        words[: k - w0] = _pack(self._digits(64 * w0, 64 * k).T)
        words[k - w0 :] = rng.raw_words(self.seed, self.channel, self.trials, k, w1).T
        return words

    def _packed_keys(self, t0, t1, event, cells):
        """Sorted keys (t - t0) * paths + i of the exceedances of path i at
        the steps t of [t0, t1), from packed digit words: the float scan's
        mask, bit for bit.

        Each scan step x_t = fl((x_{t+1} + d_t) / 2) is monotone in x_{t+1},
        and every value lies in [0, 1].  So x_t lies between the scans of the
        digits d_t ... d_{t+51} started from 0 and from 1, which are exact:
        P * 2**-52 and (P + 1) * 2**-52, where P is the 52-digit integer
        d_t ... d_{t+51}.  A step is a candidate iff its first L digits spell
        one of ``cells`` (matched at all 64 offsets of a word at once), so a
        step whose value lies in an arc is a candidate.  A candidate is in the
        mask if its closed bracket lies inside an arc and out of it if the
        bracket lies outside every arc; the rare one whose bracket holds an
        arc end is decided by the float scan of its path (``_scan_mask_at``).
        """
        self._check_window(t0)
        n = self.trials.size
        w0, w1 = t0 >> 6, (t1 + 63) >> 6
        words = self._words(w0, w1 + 1)
        hit = np.empty_like(words[:-1])
        for a in range(0, n, MATCH_BLOCK):
            hit[:, a : a + MATCH_BLOCK] = _match(words[:, a : a + MATCH_BLOCK], cells)
        hit[0] &= np.uint64(2**64 - 2 ** (t0 - 64 * w0))  # no steps before t0
        hit[-1] &= np.uint64(2 ** (t1 - 64 * w1 + 64) - 1)  # nor from t1 on
        f, p = _set_bits(hit)
        # the 52 digits from each candidate's step, from its word pair, then
        # bit-reversed (d_t most significant): the integer x of its bracket
        x = words.ravel()[f] >> p | words.ravel()[f + n] << np.uint64(1) << np.uint64(63) - p
        for k, mask in ((1, 0x5555555555555555), (2, 0x3333333333333333), (4, 0x0F0F0F0F0F0F0F0F)):
            x = x >> np.uint64(k) & np.uint64(mask) | (x & np.uint64(mask)) << np.uint64(k)
        x = (x.byteswap() >> np.uint64(12)).astype(np.float64)
        yes, no = np.zeros(x.size, dtype=bool), np.ones(x.size, dtype=bool)
        for lo, hi in event.arcs:  # the ends scaled by 2**52, exactly: the bracket is [x, x + 1]
            lo, hi = lo * 2.0**52, hi * 2.0**52
            yes |= (lo < x) & (x + 1.0 < hi)
            no &= (x + 1.0 <= lo) | (x >= hi)
        t, r = (f // n + w0) * 64 + p, f % n
        open_ = ~(yes | no)
        if open_.any():
            yes[open_] = self._scan_mask_at(t0, t1, event, t[open_] - t0, r[open_])
        self._t = t1
        return np.sort((t - t0)[yes] * n + r[yes])

    def _scan_mask_at(self, t0, t1, event, s, r):
        """The float scan's mask at steps t0 + s of paths r: the scan of those
        paths alone over the window [t0, t1), whose values are the full
        scan's bit for bit."""
        rows, col = np.unique(r, return_inverse=True)
        prefix = None if self.prefix is None else self.prefix[rows]
        values = PathEngine(self.spec, self.seed, self.trials[rows], self.channel, prefix)._values(t0, t1)
        return event.mask_native(values[s, col])

    def windows(self, stop, event):
        """Yield (t, sorted keys (s - t) * paths + i of the exceedances of path
        i at the steps s of [t, t1)), the flat indices of the time-major mask,
        for the ``TIME_BLOCK`` windows [t, t1) covering [0, stop).  Stops once
        ``select`` has dropped every path."""
        cells = self._cells(event)
        for t in range(0, stop, TIME_BLOCK):
            if not self.trials.size:
                return
            t1 = min(t + TIME_BLOCK, stop)
            if cells is None:
                yield t, np.flatnonzero(self.masks(t, t1, event).T)
            else:
                yield t, self._packed_keys(t, t1, event, cells)


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

    def _keys(self, event, extra, ids):
        """Sorted keys step * ids.size + i of the exceedances of path ids[i] in
        [0, length + extra), joined from the keys of the engine's windows
        (``PathEngine.windows``): memory is flat in the length."""
        windows = PathEngine(self.spec, self.seed, ids).windows(self.length + extra, event)
        return np.concatenate([k + t * ids.size for t, k in windows])

    def mask_chunks(self, event, extra=0):
        """Yield (trial ids, ``_keys`` of those ids) per trial chunk, in trial
        order.  The keys of a large sweep's chunks are built in the forked
        workers of ``_fork_map`` (see ``_chunk_trials``); exceedances are
        rare, so the keys that come back are small."""
        chunks = list(_chunk_trials(self.spec, self.trials, self.length + extra))
        yield from zip(chunks, _fork_map(lambda ids: self._keys(event, extra, ids), chunks))
