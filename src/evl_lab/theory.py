"""Closed-form ground truth: extremal indices and the theoretical
hitting/return/max limit laws."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import symbolic


@dataclass(frozen=True)
class TheoryResult:
    theta: float
    derivation: str           # "derivative" | "potential" | "bernoulli_word" | "closed_form" | "dichotomy"
    prime_period: int | None
    factors: tuple[float, ...] = ()

    def __post_init__(self):
        if not 0.0 <= self.theta <= 1.0:
            raise ValueError("extremal index must lie in [0, 1]")


def analytic_ei(spec, anchor=None):
    """Closed-form extremal index for a built-in (process, anchor) pairing.

    Map kinds need a word anchor marking a repelling periodic point; the
    anchored index is 1 - product of digit weights over the prime-period
    word (uniform weights give 1 - m**-p).  Series models carry fixed
    closed forms.  Non-periodic anchors are rejected: for them the index is
    1 by the periodic/non-periodic dichotomy (see ``dichotomy_ei``).
    """
    kind = spec.kind
    if kind == "m_ary":
        word = symbolic.SymbolicWord.parse(anchor, spec.base)
        root = word.primitive_root()
        theta = 1.0 - symbolic.cylinder_measure(root, spec.digit_weights)
        return TheoryResult(theta, "bernoulli_word", len(root))
    if kind == "chebyshev":
        # fixed point x = -1 of the full quadratic map: |f'(-1)| = 4
        return TheoryResult(0.75, "derivative", 1)
    if kind == "dyadic_jump":
        word = symbolic.SymbolicWord.parse(anchor, 2)
        k = len(word.primitive_root())  # branch index: word 0^(k-1) 1
        if any(d != 0 for d in word.primitive_root().digits[:-1]) or word.primitive_root().digits[-1] != 1:
            raise ValueError("jump-map anchors are the branch fixed points 0^(k-1)1")
        return TheoryResult(1.0 - 2.0**-k, "potential", 1)
    if kind == "ar1":
        return TheoryResult(1.0 - 1.0 / spec.r, "closed_form", 1)
    if kind == "mma2":
        return TheoryResult(0.5, "closed_form", 2)
    if kind == "mma13":
        return TheoryResult(1.0 / 3.0, "closed_form", 1, factors=(2.0 / 3.0, 0.5))
    if kind == "iid_uniform":
        return TheoryResult(1.0, "closed_form", 1)
    raise ValueError(f"no closed form for {kind}")


def dichotomy_ei():
    """Index at a non-periodic anchor of the full shift: always 1."""
    return TheoryResult(1.0, "dichotomy", None)


def theoretical_cdf(kind, theta):
    """Named closed-form law as a vectorized callable.

    "hts": t -> 1 - exp(-theta t); "rts": the convex mix of an atom at zero
    (weight 1-theta) with the theta-exponential; "max_law": the survival
    tau -> exp(-theta tau).
    """
    if not 0.0 <= theta <= 1.0:
        raise ValueError("theta must lie in [0, 1]")
    if kind == "hts":
        return lambda t: 1.0 - np.exp(-theta * np.asarray(t, dtype=np.float64))
    if kind == "rts":
        return lambda t: (1.0 - theta) + theta * (
            1.0 - np.exp(-theta * np.asarray(t, dtype=np.float64))
        )
    if kind == "max_law":
        return lambda tau: np.exp(-theta * np.asarray(tau, dtype=np.float64))
    raise ValueError(f"unknown law kind {kind!r}")
