"""Symbolic coding: words, cylinders, repetition structure and periodic points.

Words are the source of truth for anchor points; real values are derived from
words, never the reverse.  All structure functions work on truncated prefixes
and report explicitly when the available symbols cannot decide an answer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np


@dataclass(frozen=True)
class SymbolicWord:
    """Finite digit sequence over {0..m-1}; serialises as an ASCII digit string."""

    digits: tuple[int, ...]
    base: int = 2

    def __post_init__(self):
        if len(self.digits) == 0:
            raise ValueError("empty word")
        if self.base < 2 or self.base > 10:
            raise ValueError("word base must be in 2..10")
        if any(not 0 <= d < self.base for d in self.digits):
            raise ValueError("symbol out of range for base")

    @staticmethod
    def parse(text, base=2):
        if isinstance(text, SymbolicWord):
            return text
        return SymbolicWord(tuple(int(c) for c in str(text)), base)

    def __str__(self):
        return "".join(str(d) for d in self.digits)

    def __len__(self):
        return len(self.digits)

    def periodic_value(self):
        """Exact value of the point with expansion word^infinity."""
        v = Fraction(int(str(self), self.base), self.base ** len(self.digits) - 1)
        return v % 1  # the all-max word gives 1, identified with 0 on the circle

    def primitive_root(self):
        """Shortest word w with self = w^k."""
        n = len(self.digits)
        for p in range(1, n + 1):
            if n % p == 0 and self.digits == self.digits[:p] * (n // p):
                return SymbolicWord(self.digits[:p], self.base)
        return self


def cylinder_measure(word, weights):
    """Product-measure mass of the cylinder of ``word``."""
    w = np.asarray(weights, dtype=np.float64)
    out = 1.0
    for d in word.digits:
        out *= w[d]
    return float(out)


def min_weak_period(word, n=None):
    """Smallest j >= 1 with word[k] == word[k+j] for all k < n-j.

    This is the repetition period intrinsic to the n-prefix: exactly the
    smallest j such that the n-cylinder contains the j-periodic point.
    j = n always qualifies (vacuous overlap).
    """
    d = word.digits[:n]
    return _first_return(d, len(d))[0]


@dataclass(frozen=True)
class PeriodRecord:
    n: int
    r: int
    decided: bool
    i: int
    a: int
    q: int


@dataclass(frozen=True)
class PeriodSequence:
    """First-return times r(n) of the shifted code to its n-cylinders.

    values holds the distinct r(n) in increasing order; records carry, per n,
    the return time, whether the prefix length could fully verify it, the
    index i with values[i] <= n < values[i+1], and the block decomposition
    n = a * values[i] + q.
    """

    word: SymbolicWord
    values: tuple[int, ...]
    records: tuple[PeriodRecord, ...]


def _first_return(digits, n, start=1):
    """min j >= start not contradicted by known symbols: digits[k+j] == digits[k]
    for all k < n with k + j < len(digits); decided iff j + n <= len."""
    L = len(digits)
    arr = np.frombuffer(bytes(digits), dtype=np.uint8)
    for j in range(start, L + 1):
        k_max = min(n, L - j)
        if k_max <= 0 or np.array_equal(arr[j : j + k_max], arr[:k_max]):
            return j, (j + n <= L)
    return L + 1, False


def period_sequence(word):
    """Return-time structure (p_i) of a coded point from its known prefix."""
    d = word.digits
    values: list[int] = []
    records = []
    r = 1
    for n in range(1, len(d) + 1):
        # a longer prefix constrains every lag more, so r(n) >= r(n - 1)
        r, decided = _first_return(d, n, r)
        if not values or r > values[-1]:
            values.append(r)
        i = max(k for k, p in enumerate(values) if p <= n) if values[0] <= n else 0
        p = values[i]
        a = n // p
        records.append(PeriodRecord(n, r, decided, i, a, n - a * p))
    return PeriodSequence(word, tuple(values), tuple(records))


@dataclass(frozen=True)
class CylinderReturn:
    j: int
    witness: SymbolicWord
    unique: bool
    boundary: bool  # j > n - p: divisibility by p is not forced here


@dataclass(frozen=True)
class ReturnStructure:
    word: SymbolicWord
    n: int
    p: int  # minimal repetition period of the n-prefix
    returns: tuple[CylinderReturn, ...]


def return_structure(word, n, j_max):
    """(n+j)-cylinders inside Z_n[word] mapping back into Z_n[word] at time j.

    A return at lag j exists iff the n-prefix repeats with period j; the
    witness is then unique with code word[:j] + word[:n].  For j at most
    n - p (p the minimal repetition period) every admissible j is a multiple
    of p; lags in the final window (n-p, n] may repeat without dividing p
    (overlap too short for the two periods to interact).  Small cases are
    verified by exhaustive enumeration of all base**j extensions (at most 2**20).
    """
    if j_max > n:
        raise ValueError("j_max must be <= n")
    d = word.digits[:n]
    if len(d) < n:
        raise ValueError("word shorter than n")
    base = word.base
    p = min_weak_period(word, n)
    out = []
    for j in range(1, j_max + 1):
        periodic = all(d[k] == d[k + j] for k in range(n - j))
        witnesses = []
        if base**j <= 1 << 20:
            ext = np.arange(base**j)
            alpha = np.empty((ext.size, j), dtype=np.uint8)  # row e: the j digits of e
            for i in range(j):
                alpha[:, i] = ext // base ** (j - 1 - i) % base
            match = np.ones(ext.size, dtype=bool)
            for k in range(n):  # digit j + k of d + alpha is digit k of d
                match &= (d[j + k] if j + k < n else alpha[:, j + k - n]) == d[k]
            witnesses = [SymbolicWord(d + tuple(alpha[e].tolist()), base) for e in np.flatnonzero(match)]
            if periodic != (len(witnesses) == 1) or len(witnesses) > 1:
                raise AssertionError("enumeration disagrees with the construction")
        if periodic:
            constructed = SymbolicWord(d[:j] + d, base)
            if witnesses and witnesses[0] != constructed:
                raise AssertionError("witness differs from the constructed code")
            out.append(CylinderReturn(j, constructed, True, j > n - p))
    return ReturnStructure(word, n, p, tuple(out))


# ---------------------------------------------------------------------------
# non-periodic test words
# ---------------------------------------------------------------------------


def champernowne_bits(n):
    """First n symbols of 0 1 10 11 100 101 ... (a verifiably aperiodic word)."""
    out = []
    k = 0
    while len(out) < n:
        out.extend(int(c) for c in bin(k)[2:])
        k += 1
    return SymbolicWord(tuple(out[:n]), 2)


def sqrt2_minus1_bits(n):
    """First n binary digits of sqrt(2) - 1 (exact integer square root)."""
    s = math.isqrt(2 << (2 * n))
    bits = bin(s)[2:][1 : n + 1]
    return SymbolicWord(tuple(int(c) for c in bits), 2)
