"""Counter-based random words: every variate is a pure function of (seed, stream, position).

The generator is numpy's compiled Philox-4x64-10 (``np.random.Philox``; Salmon,
Moraes, Dror & Shaw, "Parallel random numbers: as easy as 1, 2, 3", SC'11).
Word w of trial t on a channel is word ``w & 3`` of the Philox block with key
(seed mod 2**64, 0) and counter (t + 1, w >> 2, channel, 0).  numpy increments
counter word 0 before each block, so one generator set to counter
(t, b, channel, 0) returns block b of trials t, t+1, ... in one call: one
position block of a run of consecutive trials.  Trial sets are sorted and
split into such runs wherever consecutive ids lie more than ``RUN_GAP`` apart
(and into runs of bounded width); each run's hull is generated and its ids'
columns gathered.  Independent trials, channels and position ranges can
therefore be generated out of order, in chunks or in parallel with
bit-identical results.

Every draw has the public shape (trials, positions) but is built time-major:
the array is the ``.T`` view of a C-contiguous (positions, trials) buffer, so
one position of all trials is one contiguous row.  The sweeps in
:mod:`evl_lab.processes` read those rows with ``draw.T[t]``.
"""

from __future__ import annotations

import math

import numpy as np

# Channel tags (counter word 2).  Operations that must be independent of each
# other under the same user seed use distinct channels.
CH_ORBIT = 0      # main digit / innovation stream of a path
CH_INIT = 1       # conditional-start entropy (hitting/return experiments)
CH_HTS = 2        # stationary starts for hitting-time sampling
CH_BITS = 3       # own bits of a jump-map start (the map's orbit words are its gaps)

#: trial ids further apart than this start a new run: one generator reset and
#: call (about 6 µs) costs about as much as one block for 150-250 trials, and
#: 256 was the fastest of 64-1024 on thinned trial sets
RUN_GAP = 256

_CHUNK = 1 << 22  # elements per chunk of a draw; bounds its transient buffers


def _runs(ids):
    """(start, end) index ranges of the runs of sorted unique ids: split at
    gaps wider than ``RUN_GAP``, and so that no run spans more than
    ``_CHUNK // 4`` ids (one block of a run is generated whole)."""
    bounds = np.r_[0, np.flatnonzero(np.diff(ids) > RUN_GAP) + 1, ids.size]
    for s, e in zip(bounds[:-1], bounds[1:]):
        while s < e:
            cut = s + int(np.searchsorted(ids[s:e], ids[s] + _CHUNK // 4))
            yield s, cut
            s = cut


def trial_ids(trials):
    """Trial ids as uint64: integers in [0, 2**56); any other id is a ValueError."""
    ids = np.atleast_1d(np.asarray(trials))
    if ids.size and (ids.dtype.kind not in "iu" or ids.min() < 0 or ids.max() >= 1 << 56):
        raise ValueError(f"trial ids must be integers that fit in 56 bits, got {trials!r}")
    return ids.astype(np.uint64, copy=False)


def raw_words(seed, channel, trials, lo, hi):
    """uint64 words at positions [lo, hi) for each trial, shape (len(trials), hi-lo).

    The mapping is positional (see the module docstring), so overlapping
    ranges and overlapping trial sets agree.  Ids that are not strictly
    increasing (the engine's always are) are generated sorted and unique.
    """
    trials = trial_ids(trials)
    if hi <= lo:
        return np.empty((trials.size, 0), dtype=np.uint64)
    ids, inv = (trials, None) if (trials[1:] > trials[:-1]).all() else np.unique(trials, return_inverse=True)
    b0, b1 = lo >> 2, (hi + 3) >> 2
    words = np.empty((4 * (b1 - b0), ids.size), dtype=np.uint64)
    gen = np.random.Philox(key=np.array([int(seed) & 0xFFFFFFFFFFFFFFFF, 0], dtype=np.uint64))
    state = gen.state
    counter = state["state"]["counter"]
    for s, e in _runs(ids):
        first = int(ids[s])
        span = int(ids[e - 1]) - first + 1
        cols = None if span == e - s else (ids[s:e] - ids[s]).astype(np.intp)
        for b in range(b0, b1):
            counter[:] = (first, b, channel, 0)
            gen.state = state
            block = gen.random_raw(4 * span).reshape(span, 4)
            words[4 * (b - b0) : 4 * (b - b0 + 1), s:e] = (block if cols is None else block[cols]).T
    words = words[lo - 4 * b0 : hi - 4 * b0]
    if inv is not None:
        words = np.take(words, inv, axis=1)
    return words.T


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


def gaps(seed, channel, trials, lo, hi):
    """Geom(1/2) gaps on {1, 2, ...} at positions [lo, hi), as int16: one plus
    the trailing zeros of one word per position, so P(g = j) = 2**-j exactly
    for j <= 64.  The word 0 reads 65, so gaps of 65 or more (probability
    2**-64) read 65."""
    w = raw_words(seed, channel, trials, lo, hi)
    below = w - np.uint64(1)
    below &= np.invert(w, out=w)  # ones at w's trailing zeros: all 64 for w = 0
    return np.add(np.bitwise_count(below), 1, dtype=np.int16)


def uniform_digits(seed, channel, trials, lo, hi, m):
    """Uniform base-m digits, k = floor(32/log2 m) per word via mod-unpacking.

    Taking word mod m**k leaves a relative bias below m**k / 2**64 <= 2**-32.
    """
    k = int(32 // math.log2(m))
    M = np.uint64(m**k)
    w0, w1 = lo // k, (hi + k - 1) // k
    words = raw_words(seed, channel, trials, w0, w1).T
    out = np.empty((words.shape[0], k, words.shape[1]), dtype=np.uint8)
    q = words // M  # words % M as words - q * M, in place; m**k <= 2**32 fits uint32
    v = np.subtract(words, np.multiply(q, M, out=q), out=words).astype(np.uint32)
    for slot in range(k):  # remainders via floor_divide, numpy's one fast path for a scalar divisor
        q = v // np.uint32(m)
        v -= q * np.uint32(m)
        out[:, slot] = v
        v = q
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
