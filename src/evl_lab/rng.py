"""Counter-based random words: every variate is a pure function of (seed, stream, position).

The generator is Philox-2x64 with 10 rounds.  A stream is identified by a
64-bit counter word combining a channel tag (top byte) with a trial index, so
independent trials, independent channels within one experiment, and arbitrary
position ranges can all be generated out of order, in chunks, or in parallel
with bit-identical results.

Every draw has the public shape (trials, positions) but is built time-major:
the array is the ``.T`` view of a C-contiguous (positions, trials) buffer, so
one position of all trials is one contiguous row.  The sweeps in
:mod:`evl_lab.processes` read those rows with ``draw.T[t]``.
"""

from __future__ import annotations

import math

import numpy as np

_M = np.uint64(0xD2B74407B1CE6E93)  # Philox 2x64 multiplier
_W = np.uint64(0x9E3779B97F4A7C15)  # Weyl key increment
_MASK32 = np.uint64(0xFFFFFFFF)
_ROUNDS = 10

# Channel tags (top byte of the stream counter).  Operations that must be
# independent of each other under the same user seed use distinct channels.
CH_ORBIT = 0      # main digit / innovation stream of a path
CH_INIT = 1       # conditional-start entropy (hitting/return experiments)
CH_HTS = 2        # stationary starts for hitting-time sampling
CH_AUX = 3        # auxiliary draws (empirical quantile levels)


_CHUNK = 1 << 22  # elements per chunk of a draw; bounds its transient buffers
_KERNEL_BLOCK = 1 << 14  # elements per Philox pass: its six buffers stay in L2 cache


def _philox_flat(x0, x1, key):
    """In-place Philox-2x64-10 on contiguous uint64 arrays (preallocated scratch)."""
    ml = _M & _MASK32
    mh = _M >> np.uint64(32)
    c32 = np.uint64(32)
    lo = np.empty_like(x0)
    a = np.empty_like(x0)
    b = np.empty_like(x0)
    t = np.empty_like(x0)
    k = np.uint64(key)
    with np.errstate(over="ignore"):
        for _ in range(_ROUNDS):
            np.bitwise_and(x0, _MASK32, out=a)   # a = lo32(x0)
            np.right_shift(x0, c32, out=b)       # b = hi32(x0)
            np.multiply(x0, _M, out=lo)          # lo64(M * x0)
            np.multiply(a, ml, out=t)
            np.right_shift(t, c32, out=t)
            np.multiply(a, mh, out=a)
            np.add(a, t, out=a)                  # a = carry column 1
            np.multiply(b, ml, out=t)
            np.bitwise_and(a, _MASK32, out=x0)   # x0 free: reuse as scratch
            np.add(t, x0, out=t)                 # t = carry column 2
            np.right_shift(a, c32, out=a)
            np.right_shift(t, c32, out=t)
            np.multiply(b, mh, out=b)
            np.add(b, a, out=b)
            np.add(b, t, out=b)                  # b = hi64(M * x0)
            np.bitwise_xor(b, k, out=b)
            np.bitwise_xor(b, x1, out=x0)        # new x0
            x1, lo = lo, x1                      # new x1 = lo (buffer swap)
            k = k + _W
    return x0, x1


def philox2x64(c0, c1, key):
    """Philox-2x64-10 block: two uint64 outputs per (counter0, counter1, key)."""
    x0b, x1b = np.broadcast_arrays(
        np.asarray(c0, dtype=np.uint64), np.asarray(c1, dtype=np.uint64)
    )
    shape = x0b.shape
    o0 = np.empty(shape, dtype=np.uint64).reshape(-1)
    o1 = np.empty(shape, dtype=np.uint64).reshape(-1)
    f0, f1 = x0b.reshape(-1), x1b.reshape(-1)
    n = f0.size
    for s in range(0, max(n, 1), _KERNEL_BLOCK):
        e = min(s + _KERNEL_BLOCK, n)
        r0, r1 = _philox_flat(f0[s:e].copy(), f1[s:e].copy(), key)
        o0[s:e] = r0
        o1[s:e] = r1
    return o0.reshape(shape), o1.reshape(shape)


def _stream_counter(channel, trials):
    trials = np.asarray(trials, dtype=np.uint64)
    if trials.size and int(trials.max(initial=0)) >= 1 << 56:
        raise ValueError("trial index must fit in 56 bits")
    return (np.uint64(channel) << np.uint64(56)) | trials


def raw_words(seed, channel, trials, lo, hi):
    """uint64 words at positions [lo, hi) for each trial, shape (len(trials), hi-lo).

    Word w of a stream is lane (w & 1) of the Philox block with counter
    (stream, w >> 1); the mapping is positional, so overlapping ranges agree.
    The words are built time-major, in chunks of blocks so transient buffers
    stay bounded.
    """
    trials = np.atleast_1d(np.asarray(trials, dtype=np.uint64))
    if hi <= lo:
        return np.empty((trials.size, 0), dtype=np.uint64)
    b0, b1 = lo >> 1, (hi + 1) >> 1
    nb = b1 - b0
    blocks = np.arange(b0, b1, dtype=np.uint64)[:, None]
    counters = _stream_counter(channel, trials)[None, :]
    key = np.uint64(seed & 0xFFFFFFFFFFFFFFFF)
    words = np.empty((nb, 2, trials.size), dtype=np.uint64)
    bc = max(1, _CHUNK // max(trials.size, 1))
    for s in range(0, nb, bc):
        words[s : s + bc, 0], words[s : s + bc, 1] = philox2x64(counters, blocks[s : s + bc], key)
    return words.reshape(2 * nb, trials.size)[lo - 2 * b0 : hi - 2 * b0].T


def _lanes(seed, channel, trials, w0, w1, lane):
    """Words [w0, w1) split into little-endian lanes of dtype ``lane``:
    a strided (words, lanes per word, trials) view of the time-major words."""
    words = raw_words(seed, channel, trials, w0, w1).T
    per_word = 8 // np.dtype(lane).itemsize
    lanes = words.astype("<u8", copy=False).view(lane)
    return lanes.reshape(words.shape[0], words.shape[1], per_word).transpose(0, 2, 1)


def _rows(a):
    """Merge the first two axes of a (words, per word, trials) array: one row per position."""
    return a.reshape(a.shape[0] * a.shape[1], a.shape[2])


def bits(seed, channel, trials, lo, hi):
    """Fair bits at positions [lo, hi): bit j is bit (j mod 64) of word (j // 64)."""
    w0, w1 = lo >> 6, (hi + 63) >> 6
    by = _rows(np.ascontiguousarray(_lanes(seed, channel, trials, w0, w1, np.uint8)))
    b = np.empty((by.shape[0], 8, by.shape[1]), dtype=np.uint8)  # row 8w + k: byte k of word w
    for k in range(8):
        np.bitwise_and(by, 1, out=b[:, k])
        by >>= 1
    return _rows(b)[lo - 64 * w0 : hi - 64 * w0].T


def uniform_digits(seed, channel, trials, lo, hi, m):
    """Uniform base-m digits, k = floor(32/log2 m) per word via mod-unpacking.

    Taking word mod m**k leaves a relative bias below m**k / 2**64 <= 2**-32.
    """
    k = int(32 // math.log2(m))
    M = np.uint64(m**k)
    w0, w1 = lo // k, (hi + k - 1) // k
    words = raw_words(seed, channel, trials, w0, w1).T
    out = np.empty((words.shape[0], k, words.shape[1]), dtype=np.uint8)
    v = (words % M).astype(np.uint32)  # m**k <= 2**32
    r = np.empty_like(v)
    for slot in range(k):
        np.divmod(v, np.uint32(m), out=(v, r))
        out[:, slot] = r
    return _rows(out)[lo - k * w0 : hi - k * w0].T


def digits(seed, channel, trials, lo, hi, cum_weights):
    """Digits with the given cumulative weights at positions [lo, hi).

    16-bit threshold lanes: quantization 2^-16, at least three orders of
    magnitude below any tolerance used in this package.  Uniform weights
    have the exact-to-2^-32 ``uniform_digits``.
    """
    cw = np.asarray(cum_weights, dtype=np.float64)
    thresholds = np.ceil(cw[:-1] * 65536.0).astype(np.uint32)
    w0, w1 = lo >> 2, (hi + 3) >> 2
    lanes = _lanes(seed, channel, trials, w0, w1, "<u2")
    out = np.empty(lanes.shape, dtype=np.uint8)
    rows = max(1, _CHUNK // max(lanes.shape[1] * lanes.shape[2], 1))
    for s in range(0, lanes.shape[0], rows):
        if cw.size == 2:
            np.greater_equal(lanes[s : s + rows], thresholds[0], out=out[s : s + rows])
        else:
            out[s : s + rows] = np.searchsorted(thresholds, lanes[s : s + rows], side="right")
    return _rows(out)[lo - 4 * w0 : hi - 4 * w0].T


def uniforms(seed, channel, trials, lo, hi):
    """float64 uniforms on [0,1) at positions [lo, hi), from 32-bit lanes."""
    w0, w1 = lo >> 1, (hi + 1) >> 1
    lanes = _lanes(seed, channel, trials, w0, w1, "<u4")  # lane 2w is the low half of word w
    out = np.empty(lanes.shape)
    np.multiply(lanes, 2.0**-32, out=out)
    return _rows(out)[lo - 2 * w0 : hi - 2 * w0].T
