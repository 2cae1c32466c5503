import hashlib

import numpy as np
import pytest

from evl_lab import rng
from tests.oracles import ks_against


def test_words_are_positionally_keyed():
    w = rng.raw_words(42, 0, [0, 1, 5], 0, 32)
    assert np.array_equal(rng.raw_words(42, 0, [0, 1, 5], 10, 20), w[:, 10:20])
    assert np.array_equal(rng.raw_words(42, 0, [1], 0, 32)[0], w[1])


def test_streams_do_not_collide():
    a = rng.raw_words(7, 0, [3], 0, 64)[0]
    assert not np.array_equal(a, rng.raw_words(7, 1, [3], 0, 64)[0])  # channel
    assert not np.array_equal(a, rng.raw_words(7, 0, [4], 0, 64)[0])  # trial
    assert not np.array_equal(a, rng.raw_words(8, 0, [3], 0, 64)[0])  # seed


ALL_ONES = 2**64 - 1


@pytest.mark.parametrize(
    "key, counter, expected",
    [
        # Random123 philox4x64-10 known answers; numpy increments the counter
        # before each block, so each is read with the counter one below it
        ((0, 0), (ALL_ONES,) * 4,
         (0x16554D9ECA36314C, 0xDB20FE9D672D0FDC, 0xD7E772CEE186176B, 0x7E68B68AEC7BA23B)),
        ((ALL_ONES,) * 2, (ALL_ONES - 1,) + (ALL_ONES,) * 3,
         (0x87B092C3013FE90B, 0x438C3C67BE8D0224, 0x9CC7D7C69CD777B6, 0xA09CAEBF594F0BA0)),
    ],
)
def test_numpy_philox_known_answers(key, counter, expected):
    gen = np.random.Philox(key=np.array(key, dtype=np.uint64), counter=np.array(counter, dtype=np.uint64))
    got = gen.random_raw(4)
    assert [int(x) for x in got] == list(expected)


@pytest.mark.parametrize(
    "seed, channel, trial, block", [(0, 0, 0, 0), (2024, 1, 17, 3), (-1, 2, (1 << 56) - 1, 250)]
)
def test_word_layout(seed, channel, trial, block):
    got = rng.raw_words(seed, channel, [trial], 4 * block, 4 * block + 4)[0]
    key = np.array([seed % 2**64, 0], dtype=np.uint64)
    gen = np.random.Philox(key=key, counter=np.array([trial, block, channel, 0], dtype=np.uint64))
    assert np.array_equal(got, gen.random_raw(4))


def test_gathered_trials_match_per_trial_draws():
    g = rng.RUN_GAP
    # unsorted and repeated ids; gaps just inside and just past the run split
    ids = [5 + 2 * g, 5, 1 << 40, 6, 5 + g, 5, 6 + 2 * g + g, 3 + (1 << 40)]
    w = rng.raw_words(99, 1, ids, 3, 30)
    assert w.shape == (len(ids), 27) and w.T.flags.c_contiguous
    for row, t in zip(w, ids):
        assert np.array_equal(row, rng.raw_words(99, 1, [t], 3, 30)[0])


def test_increasing_ids_are_drawn_as_given(monkeypatch):
    # strictly increasing ids (contiguous, or with gaps on either side of
    # RUN_GAP) skip the sort; a sorted set that repeats an id takes it
    g = rng.RUN_GAP
    sorts = []
    unique = np.unique
    monkeypatch.setattr(np, "unique", lambda *a, **k: sorts.append(1) or unique(*a, **k))
    cases = {
        "contiguous": (np.arange(40, 90), 0),
        "gapped": (np.array([0, 1, 1 + g, 2 + 2 * g, 3 + 3 * g, 4 + 3 * g, 1 << 40]), 0),
        "repeated": (np.array([2, 2, 7, 7 + g, 8 + 3 * g, 8 + 3 * g]), 1),
    }
    for name, (ids, calls) in cases.items():
        sorts.clear()
        w = rng.raw_words(99, 1, ids, 5, 19)
        assert len(sorts) == calls, name
        for row, t in zip(w, ids):
            assert np.array_equal(row, rng.raw_words(99, 1, [t], 5, 19)[0]), name


def test_long_sparse_run_is_cut():
    # gaps within RUN_GAP, spanning more ids than one generator call holds;
    # rows ids.size // 3 and the next lie on either side of the first cut
    ids = np.arange(0, 3 * (rng._CHUNK // 4), 97)
    w = rng.raw_words(5, 0, ids, 0, 4)
    for i in (0, 1, ids.size // 3, ids.size // 3 + 1, ids.size - 1):
        assert np.array_equal(w[i], rng.raw_words(5, 0, [ids[i]], 0, 4)[0])


def test_trial_id_beyond_56_bits_is_rejected():
    rng.raw_words(1, 0, [(1 << 56) - 1], 0, 4)
    with pytest.raises(ValueError, match="56 bits"):
        rng.raw_words(1, 0, [0, 1 << 56], 0, 4)


@pytest.mark.parametrize("ids", [[1.5], np.array([1.0]), [True], np.array([0, 1], dtype=bool), [2**70], [-1]])
def test_non_integer_trial_ids_are_rejected(ids):
    # a float id was once cast to uint64: [1.5] drew trial 1's words
    with pytest.raises(ValueError, match="trial ids must be integers"):
        rng.raw_words(1, 0, ids, 0, 2)


def test_integer_trial_ids_draw_alike():
    want = rng.raw_words(1, 0, np.array([1, 4], dtype=np.uint64), 0, 2)
    for ids in ([1, 4], np.array([1, 4], dtype=np.int32), (np.int64(1), np.uint8(4))):
        assert rng.raw_words(1, 0, ids, 0, 2).tobytes() == want.tobytes()
    assert rng.raw_words(1, 0, 4, 0, 2).tobytes() == want[1:].tobytes()
    assert rng.raw_words(1, 0, [], 0, 2).shape == (0, 2)


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


def test_gaps_are_one_plus_trailing_zeros(monkeypatch):
    g = rng.gaps(3, 0, np.arange(64), 0, 4096)
    freq = np.bincount(g.ravel())[1:9] / g.size
    p = 0.5 ** np.arange(1, 9)
    assert np.all(np.abs(freq - p) < 4 * np.sqrt(p * (1 - p) / g.size))
    # the rule on hand-picked words: the word 0 reads 65
    words = np.array([[1, 2, 2**63, 0, 12]], dtype=np.uint64)
    monkeypatch.setattr(rng, "raw_words", lambda seed, channel, trials, lo, hi: words[:, lo:hi])
    assert rng.gaps(0, 0, [0], 0, 5).tolist() == [[1, 2, 64, 65, 3]]


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
# (trials, hi-lo) bytes), pinned on the numpy Philox-4x64 stream: any change
# of layout, lane split or digit unpacking changes a digest.
KAT_TRIALS = [0, 3, 17, 1 << 40]
KAT_WINDOWS = [(0, 1), (1, 2), (5, 70), (63, 130), (131, 260), (999, 1003)]
KAT = {
    "raw_words": (
        lambda lo, hi: rng.raw_words(2024, 0, KAT_TRIALS, lo, hi),
        np.uint64,
        "62ff9f8cabdf4694889fc41cacb2f294083b8aa3a3937dd8f7ca634d0ac18470",
    ),
    "bits": (
        lambda lo, hi: rng.bits(2024, 1, KAT_TRIALS, lo, hi),
        np.uint8,
        "041e05b8968097b3004f6aff5fa6c92c3400fdd7d966edf4a962c423f29db852",
    ),
    "uniform_digits_m3": (
        lambda lo, hi: rng.uniform_digits(2024, 0, KAT_TRIALS, lo, hi, 3),
        np.uint8,
        "60573f7a048259bf74dd0ba098d3dc1aa17da85f25a998a7600ecd9135d94f29",
    ),
    "uniform_digits_m5": (
        lambda lo, hi: rng.uniform_digits(2024, 2, KAT_TRIALS, lo, hi, 5),
        np.uint8,
        "a01ca22d20d495f5f672934623dbf429836900e7925c83bb05b241b2b03b1c96",
    ),
    "digits_bernoulli": (
        lambda lo, hi: rng.digits(2024, 0, KAT_TRIALS, lo, hi, np.cumsum([0.3, 0.7])),
        np.uint8,
        "03d86f5e43767df6dba1dd8d6f36eda291d71a321dbd31801b1acaac44c29e11",
    ),
    "digits_m4": (
        lambda lo, hi: rng.digits(2024, 0, KAT_TRIALS, lo, hi, np.cumsum([0.1, 0.2, 0.3, 0.4])),
        np.uint8,
        "6bb6dd9be4c02bbf87cede0fdef1da72e3ed8c97d92d6c1606b7fe85b9db7e6d",
    ),
    "uniforms": (
        lambda lo, hi: rng.uniforms(2024, 3, KAT_TRIALS, lo, hi),
        np.float64,
        "48f725c5ec678872b3e699c7d2ed22ae0612617c929a65eb9dd0c5b6b4c8d93a",
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


@pytest.mark.parametrize("m", [3, 5, 7, 10])
def test_uniform_digits_match_divmod_unpacking(m):
    # word mod m**k, then k digits least significant first, each by divmod
    k = int(32 // np.log2(m))
    for lo, hi in [(0, 1), (1, 2 * k + 3), (k - 1, 5 * k + 1), (7, 7)]:
        w0 = lo // k
        words = rng.raw_words(11, 2, KAT_TRIALS, w0, (hi + k - 1) // k)
        v = words % np.uint64(m**k)
        want = np.empty((len(KAT_TRIALS), words.shape[1], k), dtype=np.uint8)
        for slot in range(k):
            v, want[:, :, slot] = np.divmod(v, np.uint64(m))
        got = rng.uniform_digits(11, 2, KAT_TRIALS, lo, hi, m)
        assert np.array_equal(got, want.reshape(len(KAT_TRIALS), -1)[:, lo - k * w0 : hi - k * w0])


def test_words_are_built_time_major():
    w = rng.raw_words(2024, 0, KAT_TRIALS, 5, 70)
    assert w.T.flags.c_contiguous
    assert rng.raw_words(1, 0, [0, 1], 3, 3).shape == (2, 0)
