from fractions import Fraction

import numpy as np
import pytest

from evl_lab.symbolic import (
    SymbolicWord,
    champernowne_bits,
    cylinder_measure,
    min_weak_period,
    period_sequence,
    return_structure,
    sqrt2_minus1_bits,
)

BLOCK_WORD = ("0" * 14 + "1") * 10 + "001"  # 153 symbols


def test_cylinder_measures():
    assert cylinder_measure(SymbolicWord.parse("0110"), [0.5, 0.5]) == pytest.approx(1 / 16)
    assert cylinder_measure(SymbolicWord.parse("01"), [0.3, 0.7]) == pytest.approx(0.21)
    # additivity over children
    w = SymbolicWord.parse("011")
    parent = cylinder_measure(w, [0.3, 0.7])
    kids = sum(
        cylinder_measure(SymbolicWord(w.digits + (d,), 2), [0.3, 0.7]) for d in (0, 1)
    )
    assert parent == pytest.approx(kids)


def test_period_sequence_block_word():
    ps = period_sequence(SymbolicWord.parse(BLOCK_WORD))
    assert ps.values == (1, 15, 153)
    rs = [rec.r for rec in ps.records]
    assert all(a <= b for a, b in zip(rs, rs[1:]))  # r(n) nondecreasing
    assert ps.records[12].r == 1  # n = 13
    assert ps.records[13].r == 15  # n = 14
    assert ps.records[152].r == 153
    assert not ps.records[152].decided  # needs symbols beyond the prefix


def test_period_sequence_simple_words():
    assert period_sequence(SymbolicWord.parse("010101")).values == (2,)
    assert period_sequence(SymbolicWord.parse("000000")).values == (1,)


def test_period_sequence_matches_per_n_search():
    # r(n) from a search over every lag j >= 1 at each n, on random words
    # with and without repeated blocks
    g = np.random.default_rng(11)
    for _ in range(200):
        base = int(g.integers(2, 4))
        block = tuple(int(x) for x in g.integers(0, base, int(g.integers(1, 8))))
        d = (block * 12)[: int(g.integers(1, 48))]
        if g.random() < 0.5:
            d = tuple(int(x) for x in g.integers(0, base, len(d)))
        L = len(d)
        want = []
        for n in range(1, L + 1):
            r = min(j for j in range(1, L + 1) if all(d[k + j] == d[k] for k in range(min(n, L - j))))
            want.append((r, r + n <= L))
        assert [(rec.r, rec.decided) for rec in period_sequence(SymbolicWord(d, base)).records] == want


def test_period_sequence_block_decomposition():
    ps = period_sequence(SymbolicWord.parse(BLOCK_WORD))
    rec = ps.records[19]  # n = 20
    assert (rec.i, rec.a, rec.q) == (1, 1, 5)  # 20 = 1*15 + 5


def test_return_structure_block_word_n20():
    # brute-force truth: the 20-prefix repeats at every lag in 15..20 (the
    # overlaps compare zeros with zeros), each with the unique witness
    # word[:j] + word[:20]; lags 1..14 are excluded by the '1' at index 14.
    rs = return_structure(SymbolicWord.parse(BLOCK_WORD), 20, 20)
    assert rs.p == 15
    assert [r.j for r in rs.returns] == [15, 16, 17, 18, 19, 20]
    for r in rs.returns:
        assert r.unique
        assert str(r.witness) == BLOCK_WORD[: r.j] + BLOCK_WORD[:20]
    # within the provable range j <= n - p there are no admissible lags here
    assert [r.j for r in rs.returns if r.j <= 20 - rs.p] == []


def test_return_structure_fixed_point_word():
    rs = return_structure(SymbolicWord.parse("00000"), 5, 5)
    assert rs.p == 1
    assert [r.j for r in rs.returns] == [1, 2, 3, 4, 5]
    for r in rs.returns:
        assert r.unique and str(r.witness) == "0" * (5 + r.j)


def test_return_structure_divisibility_in_provable_range():
    # Exhaustive check over all binary prefixes: every admissible lag
    # j <= n - p is a multiple of the minimal repetition period p.
    for n in range(1, 9):
        for bits in range(2**n):
            word = SymbolicWord(tuple((bits >> k) & 1 for k in range(n)), 2)
            rs = return_structure(word, n, n)
            p = rs.p
            for r in rs.returns:
                assert r.unique
                if r.j <= n - p:
                    assert r.j % p == 0, (str(word), r.j, p)
                assert r.boundary == (r.j > n - p)


def test_return_structure_boundary_counterexample():
    # weak period 5 of '000100' is admissible but not a multiple of p=4:
    # the divisibility law genuinely stops at n - p.
    rs = return_structure(SymbolicWord.parse("000100"), 6, 6)
    assert rs.p == 4
    js = [r.j for r in rs.returns]
    assert 5 in js and 5 % rs.p != 0
    assert all(r.j > 6 - rs.p for r in rs.returns if r.j % rs.p != 0)


def test_measure_growth_bound_for_returning_cylinders():
    # mu(Z_{n+j}) <= mu(Z_n) * max(alpha, 1-alpha)**j for returning cylinders
    alpha = 0.3
    theta = max(alpha, 1 - alpha)
    w = SymbolicWord.parse("0101010")
    for n in range(2, 7):
        rs = return_structure(w, n, n)
        mu_n = cylinder_measure(SymbolicWord(w.digits[:n]), [alpha, 1 - alpha])
        for r in rs.returns:
            mu_nj = cylinder_measure(r.witness, [alpha, 1 - alpha])
            assert mu_nj <= mu_n * theta**r.j + 1e-15


def test_periodic_points():
    w = SymbolicWord.parse("01")
    assert w.periodic_value() == Fraction(1, 3) and len(w.primitive_root()) == 2
    w = SymbolicWord.parse("001")
    assert w.periodic_value() == Fraction(1, 7) and len(w.primitive_root()) == 3
    assert SymbolicWord.parse("1").periodic_value() == 0  # 1 identified with 0 on the circle
    root = SymbolicWord.parse("0101").primitive_root()
    assert len(root) == 2 and root.digits == (0, 1)  # the primitive root


def test_min_weak_period():
    assert min_weak_period(SymbolicWord.parse("00010"), 5) == 4
    assert min_weak_period(SymbolicWord.parse("0101"), 4) == 2
    assert min_weak_period(SymbolicWord.parse("0110"), 4) == 3  # 0??0 overlap


def test_aperiodic_words_have_growing_periods():
    for w in (champernowne_bits(400), sqrt2_minus1_bits(400)):
        ps = period_sequence(w)
        assert len(ps.values) >= 3
        assert list(ps.values) == sorted(ps.values)
        assert ps.values[-1] > 40  # repetition period grows along the prefix


def test_champernowne_prefix():
    assert str(champernowne_bits(10)) == "0110111001"


def test_sqrt2_bits():
    # sqrt(2) - 1 = 0.0110101000001...
    assert str(sqrt2_minus1_bits(13)) == "0110101000001"


def test_word_round_trip_and_validation():
    w = SymbolicWord.parse("0212", 3)
    assert str(w) == "0212"
    with pytest.raises(ValueError):
        SymbolicWord.parse("021", 2)
    with pytest.raises(ValueError):
        SymbolicWord((), 2)
