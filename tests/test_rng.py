import hashlib

import numpy as np
import pytest

from evl_lab import rng
from tests.conftest import ks_against


def test_words_are_positionally_keyed():
    w = rng.raw_words(42, 0, [0, 1, 5], 0, 32)
    assert np.array_equal(rng.raw_words(42, 0, [0, 1, 5], 10, 20), w[:, 10:20])
    assert np.array_equal(rng.raw_words(42, 0, [1], 0, 32)[0], w[1])


def test_streams_do_not_collide():
    a = rng.raw_words(7, 0, [3], 0, 64)[0]
    assert not np.array_equal(a, rng.raw_words(7, 1, [3], 0, 64)[0])  # channel
    assert not np.array_equal(a, rng.raw_words(7, 0, [4], 0, 64)[0])  # trial
    assert not np.array_equal(a, rng.raw_words(8, 0, [3], 0, 64)[0])  # seed


def test_uniforms_pass_ks():
    u = rng.uniforms(11, 0, np.arange(100), 0, 2000).ravel()
    assert 0.0 <= u.min() and u.max() < 1.0
    assert ks_against(u, lambda x: x) < 1.63 / np.sqrt(u.size) * 1.2


def test_bits_are_balanced_and_pairwise_clean():
    b = rng.bits(3, 0, np.arange(64), 0, 4096).ravel().astype(np.float64)
    n = b.size
    assert abs(b.mean() - 0.5) < 4 * 0.5 / np.sqrt(n)
    lag1 = np.corrcoef(b[:-1], b[1:])[0, 1]
    assert abs(lag1) < 5 / np.sqrt(n)


@pytest.mark.parametrize("weights", [[0.3, 0.7], [1 / 3, 1 / 3, 1 / 3], [0.1, 0.2, 0.3, 0.4]])
def test_digit_frequencies(weights):
    d = rng.digits(5, 0, np.arange(50), 0, 4000, np.cumsum(weights))
    freq = np.bincount(d.ravel(), minlength=len(weights)) / d.size
    for f, w in zip(freq, weights):
        assert abs(f - w) < 4 * np.sqrt(w * (1 - w) / d.size)


def test_digit_lanes_positional():
    d = rng.digits(5, 0, [0, 1], 0, 100, np.cumsum([0.3, 0.7]))
    d2 = rng.digits(5, 0, [0, 1], 37, 61, np.cumsum([0.3, 0.7]))
    assert np.array_equal(d[:, 37:61], d2)


def test_kolmogorov_quantile_simulation_oracle():
    # 99th percentile of the KS statistic of n uniforms is ~1.628/sqrt(n);
    # checked by simulation, then reused as the bound in test_uniforms_pass_ks.
    n, reps = 4000, 300
    stats = []
    for i in range(reps):
        u = rng.uniforms(99, 3, [i], 0, n)[0]
        stats.append(ks_against(u, lambda x: x))
    q99 = float(np.quantile(stats, 0.99))
    ref = 1.628 / np.sqrt(n)
    assert 0.75 * ref < q99 < 1.35 * ref


# sha256 of each generator's output over KAT_WINDOWS (concatenated row-major
# (trials, hi-lo) bytes), pinned when the words were still built trial-major:
# the time-major layout must reproduce every value.
KAT_TRIALS = [0, 3, 17, 1 << 40]
KAT_WINDOWS = [(0, 1), (1, 2), (5, 70), (63, 130), (131, 260), (999, 1003)]
KAT = {
    "raw_words": (
        lambda lo, hi: rng.raw_words(2024, 0, KAT_TRIALS, lo, hi),
        np.uint64,
        "a641cc92f49581f702c9cbc894fc4082be9c29e7683e0f0c98a9daa3c208ba54",
    ),
    "bits": (
        lambda lo, hi: rng.bits(2024, 1, KAT_TRIALS, lo, hi),
        np.uint8,
        "1eeb968c1baa15dcc76a25429e4c1794a3df3ce5cc283ddd54bf3a91eb87465f",
    ),
    "uniform_digits_m3": (
        lambda lo, hi: rng.uniform_digits(2024, 0, KAT_TRIALS, lo, hi, 3),
        np.uint8,
        "d7662180dd5bda44256898b53f48f91071f8d6e11bd0b3065cee70002d09b12a",
    ),
    "uniform_digits_m5": (
        lambda lo, hi: rng.uniform_digits(2024, 2, KAT_TRIALS, lo, hi, 5),
        np.uint8,
        "a86a61f21613a8b61b973bb2f4d3388963d0421c1ea0cac8681aac3fbf93929e",
    ),
    "digits_bernoulli": (
        lambda lo, hi: rng.digits(2024, 0, KAT_TRIALS, lo, hi, np.cumsum([0.3, 0.7])),
        np.uint8,
        "38dd8a517ab79c3a2c1f99777e7a7262599f876b339eaf40d7700f56b0b572df",
    ),
    "digits_m4": (
        lambda lo, hi: rng.digits(2024, 0, KAT_TRIALS, lo, hi, np.cumsum([0.1, 0.2, 0.3, 0.4])),
        np.uint8,
        "12071e9cfc1b4133970e5c23d7b2865954e38624bd1080e65a4f87eac4ca40d1",
    ),
    "uniforms": (
        lambda lo, hi: rng.uniforms(2024, 3, KAT_TRIALS, lo, hi),
        np.float64,
        "1c335e7866c9da3213084b8dadba6b89b94f9629bb6c763c908f243963ae0a8b",
    ),
}


@pytest.mark.parametrize("name", sorted(KAT))
def test_generator_known_answers(name):
    draw, dtype, expected = KAT[name]
    h = hashlib.sha256()
    for lo, hi in KAT_WINDOWS:
        a = draw(lo, hi)
        assert a.shape == (len(KAT_TRIALS), hi - lo) and a.dtype == dtype
        h.update(np.ascontiguousarray(a).tobytes())
    assert h.hexdigest() == expected


def test_words_are_built_time_major():
    w = rng.raw_words(2024, 0, KAT_TRIALS, 5, 70)
    assert w.T.flags.c_contiguous
    assert rng.raw_words(1, 0, [0, 1], 3, 3).shape == (2, 0)
