"""Exceedances of narrow arcs and of words on base-2 digits, read off packed
digit words.

``PathEngine`` finds them from a prefix match and, for arcs, an exact
52-digit bracket (``_packed_keys``); every key must equal the float scan's
mask, which ``mask_native`` reads from the scanned values (``_values``: theta
for chebyshev) of the same window, and every word's keys the digit match
(``_cylinder_rows``).  ar1(2) reads the same words: its value's leading
digits are its newest.  The route table pins which route ``_window_keys``
takes for the production sweeps.
"""

import math
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evl_lab import cli, escapes, estimators, processes, symbolic
from evl_lab.hts_rts import TargetSet, _rts_prefix, sample_hts, sample_rts
from evl_lab.escapes import EscapeOffsets
from evl_lab.observables import ExceedanceEvent, LevelSchedule, ObservableSpec
from evl_lab.processes import Ensemble, PathEngine, ProcessSpec

SPECS = [ProcessSpec.doubling(), ProcessSpec.bernoulli_doubling(0.3), ProcessSpec.chebyshev(), ProcessSpec.ar1(2)]

#: an arc of width just below 2**-PACKED_DEPTH is packed, one just above is scanned
_CUT = 2.0**-processes.PACKED_DEPTH

EVENTS = {
    "ball at 0": ExceedanceEvent.circle_arc(-1e-3, 1e-3),
    "ball at 1/3": ExceedanceEvent(((1 / 3 - 2e-3, 1 / 3 + 2e-3),)),
    "across 1/2": ExceedanceEvent(((0.5 - 3e-3, 0.5 + 1e-3),)),
    "edges at 2**-10": ExceedanceEvent.circle_arc(-(2.0**-10), 2.0**-10),
    "two arcs": ExceedanceEvent(((0.1, 0.1 + 2.0**-9), (0.7 - 1e-4, 0.7 + 2.0**-12))),
    "arcs at 0 and 0.3": ExceedanceEvent(((0.0, 1.5e-3), (0.3 - 1e-3, 0.3 + 1e-3))),  # a run cell and others
    "below the cut": ExceedanceEvent(((0.2, 0.2 + 0.99 * _CUT),)),
    "above the cut": ExceedanceEvent(((0.2, 0.2 + 1.01 * _CUT),)),
}

WINDOWS = [(0, 300), (5, 90), (60, 141)]


def _scan_keys(spec, seed, ids, t0, t1, event, prefix=None):
    """Flat indices of the float scan's time-major mask over [t0, t1)."""
    values = PathEngine(spec, seed, ids, prefix=prefix)._values(t0, t1)
    return np.flatnonzero(event.mask_native(values))


def _dense(keys, steps, paths):
    out = np.zeros(steps * paths, dtype=bool)
    out[keys] = True
    return out.reshape(steps, paths).T


def test_events_fall_on_their_side_of_the_cut():
    eng = PathEngine(ProcessSpec.doubling(), 1, [0])
    for name, event in EVENTS.items():
        assert (eng._cells(event) is None) == (name == "above the cut"), name
    assert PathEngine(ProcessSpec.m_ary(3), 1, [0])._cells(EVENTS["ball at 0"]) is None
    assert PathEngine(ProcessSpec.dyadic_jump(), 1, [0])._cells(EVENTS["ball at 0"]) is None
    assert PathEngine(ProcessSpec.ar1(3), 1, [0])._cells(EVENTS["ball at 0"]) is None
    # words: one exact cell of at most 64 digits, on base-2 digits other than the jump map's gaps
    assert eng._cells(ExceedanceEvent(word=(0, 1, 1))) == [(3, 3)]
    assert eng._cells(ExceedanceEvent(word=(1,) * 64)) == [(64, 2**64 - 1)]
    assert eng._cells(ExceedanceEvent(word=(1,) * 65)) is None
    assert PathEngine(ProcessSpec.m_ary(3), 1, [0])._cells(ExceedanceEvent(word=(0, 1))) is None
    assert PathEngine(ProcessSpec.dyadic_jump(), 1, [0])._cells(ExceedanceEvent(word=(0, 1))) is None
    # ar1's leading digits are its newest: its cells are read reversed
    assert PathEngine(ProcessSpec.ar1(2), 1, [0])._cells(ExceedanceEvent(((0.75, 0.75 + 2.0**-9),))) == [(8, 3)]


@pytest.mark.parametrize("name", list(EVENTS))
@pytest.mark.parametrize("spec", SPECS, ids=lambda s: s.label)
def test_keys_and_masks_equal_the_float_scan(spec, name):
    event = EVENTS[name]
    ids = np.arange(400, dtype=np.uint64)
    cells = PathEngine(spec, 7, ids)._cells(event)
    for t0, t1 in WINDOWS:
        want = _scan_keys(spec, 7, ids, t0, t1, event)
        assert want.size  # the window holds exceedances
        got = PathEngine(spec, 7, ids).masks(t0, t1, event)
        assert got.tobytes() == _dense(want, t1 - t0, ids.size).tobytes(), (t0, t1)
        if cells is not None:
            keys = PathEngine(spec, 7, ids)._packed_keys(t0, t1, event, cells)
            assert keys.tolist() == want.tolist(), (t0, t1)


@pytest.mark.parametrize("spec", SPECS, ids=lambda s: s.label)
def test_windows_skipped_between_reads(spec, monkeypatch):
    # one engine reads (5, 90), skips to (141, 300) and (433, 560); the
    # windows of a sweep start off the 64-step grid
    event = EVENTS["ball at 1/3"]
    ids = np.array([0, 3, 4, 9, 300, 301, 1000], dtype=np.uint64)
    eng = PathEngine(spec, 11, ids)
    for t0, t1 in [(5, 90), (141, 300), (433, 560)]:
        want = _scan_keys(spec, 11, ids, t0, t1, event)
        assert eng.masks(t0, t1, event).tobytes() == _dense(want, t1 - t0, ids.size).tobytes()
    monkeypatch.setattr(processes, "TIME_BLOCK", 93)
    for t, keys in PathEngine(spec, 11, ids).windows(700, event):
        assert keys.tolist() == _scan_keys(spec, 11, ids, t, min(t + 93, 700), event).tolist(), t


@pytest.mark.parametrize("spec", SPECS, ids=lambda s: s.label)
def test_start_prefix_and_select(spec, monkeypatch):
    # return-time starts: an 80-digit prefix inside the ball, laid over the
    # first two words (ar1: the 64 digits of X_0, newest last, over the
    # first); select keeps the prefix rows of the paths it keeps
    target = TargetSet.ball(spec, None if spec.kind == "ar1" else "0", 2.0**-12)
    ids = np.arange(300, dtype=np.uint64)
    prefix = _rts_prefix(spec, target, ids, 5)
    assert prefix.shape[1] == (64 if spec.kind == "ar1" else 80)
    event = target.event
    want = _scan_keys(spec, 5, ids, 0, 200, event, prefix)
    assert want[: ids.size].tolist() == list(range(ids.size))  # every start lies in the ball
    assert PathEngine(spec, 5, ids, prefix=prefix).masks(0, 200, event).tobytes() == (
        _dense(want, 200, ids.size).tobytes()
    )
    keep = ids % 3 != 1
    eng = PathEngine(spec, 5, ids, prefix=prefix)
    eng.masks(0, 30, event)
    eng.select(keep)
    want = _scan_keys(spec, 5, ids[keep], 30, 150, event, prefix[keep])
    assert eng.masks(30, 150, event).tobytes() == _dense(want, 120, int(keep.sum())).tobytes()
    monkeypatch.setattr(processes, "TIME_BLOCK", 70)
    for t, keys in PathEngine(spec, 5, ids[keep], prefix=prefix[keep]).windows(200, event):
        assert keys.tolist() == _scan_keys(spec, 5, ids[keep], t, min(t + 70, 200), event, prefix[keep]).tolist()


def test_undecided_bracket_runs_the_float_scan(monkeypatch):
    # an arc end equal to a scanned value lies inside that step's bracket:
    # only the float scan can decide it, and it must have run
    spec = ProcessSpec.doubling()
    ids = np.arange(50, dtype=np.uint64)
    values = PathEngine(spec, 3, ids)._values(10, 200)
    x = values[100, 7]
    calls = []
    scan = PathEngine._scan_mask_at

    def counted(self, t0, t1, event, s, r):
        calls.append(s.size)
        return scan(self, t0, t1, event, s, r)

    monkeypatch.setattr(PathEngine, "_scan_mask_at", counted)
    for event in (ExceedanceEvent(((x, x + 2.0**-20),)), ExceedanceEvent(((x - 2.0**-20, x),))):
        assert PathEngine(spec, 3, ids)._cells(event) is not None
        got = PathEngine(spec, 3, ids).masks(10, 200, event)
        assert got.tobytes() == event.mask_native(values).T.tobytes()
        assert not got[7, 100]  # open arcs: the end itself is out
    assert len(calls) == 2 and min(calls) >= 1


def _match_by_offsets(digits, cells):
    """``_match`` of the packed 0/1 ``digits`` (paths, 64 (k + 1)), one offset
    at a time: bit j of word row w is set iff the L digits from 64 w + j spell
    one of the (L, cell) ``cells``."""
    paths, n = digits.shape
    hit = np.zeros((paths, n - 64), dtype=bool)
    for t in range(n - 64):
        for L, c in cells:
            hit[:, t] |= (digits[:, t : t + L] == [c >> (L - 1 - i) & 1 for i in range(L)]).all(axis=1)
    return np.packbits(hit, axis=1, bitorder="little").view("<u8").T


@pytest.mark.parametrize("L", range(processes.PACKED_DEPTH, processes.MATCH_DIGITS + 1))
def test_runs_match_by_doubling(L):
    # runs of random lengths, and a run of L 1s and one of L 0s laid across
    # each word boundary: 0**L and 1**L (matched by doubling), alone and with
    # a cell that is no run (matched by shifts), equal the per-offset match
    rs = np.random.default_rng(L)
    runs = np.repeat(np.arange(60) % 2, rs.integers(1, 2 * L, size=60))
    digits = np.array([np.roll(runs, -s)[: 64 * 4] for s in rs.integers(0, runs.size, size=40)], dtype=np.uint8)
    for b in (64, 128, 192):
        at = b - 1 - L // 2
        digits[0, at - 1 : at + L + 1] = [0] + [1] * L + [0]
        digits[1, at - 1 : at + L + 1] = [1] + [0] * L + [1]
    words = np.packbits(digits, axis=1, bitorder="little").view("<u8").T.copy()
    M = processes.MATCH_DIGITS
    for cells in (
        [(L, 0)],
        [(L, 2**L - 1)],
        [(L, 0), (L, 2**L - 1), (L, 2**L // 3), (L - 3, 1)],
        # both runs at one length and one at another (one pass serves a pair)
        [(L, 0), (L, 2**L - 1), (L - 2, 0)],
        [(L - 1, 2 ** (L - 1) - 1), (L, 2**L - 1), (L, 0), (L - 2, 5)],
        [(M, 0)],  # a lone run of MATCH_DIGITS
        [(M, 2**M - 1), (L, 0)],
    ):
        got = processes._match(words, cells)
        want = _match_by_offsets(digits, cells)
        assert got.tobytes() == want.tobytes(), cells
    assert processes._match(words, [(L, 2**L - 1)])[:, 0].all()  # the laid runs are found


@pytest.mark.parametrize("spec", SPECS, ids=lambda s: s.label)
@settings(max_examples=40, deadline=None, derandomize=True)
@given(data=st.data())
def test_random_narrow_arcs(spec, data):
    # narrow arcs of width 2**-k, anywhere on the circle, around a scanned
    # value (wrapped through 0 or not) or from 0 or to 1 (runs of 0s or 1s:
    # see _match), random trial chunks and random windows
    k = data.draw(st.integers(6, 30))
    seed = data.draw(st.integers(0, 2**32))
    first = data.draw(st.integers(0, 5000))
    ids = np.arange(first, first + data.draw(st.integers(1, 200)), dtype=np.uint64)
    t0 = data.draw(st.integers(0, 300))
    t1 = t0 + data.draw(st.integers(1, 400))
    values = PathEngine(spec, seed, ids)._values(t0, t1)
    where = data.draw(st.sampled_from(["anywhere", "around a value", "at an end", "half line"]))
    lo = data.draw(st.floats(0.0, 1.0, exclude_max=True))
    if where == "around a value":
        x = values[data.draw(st.integers(0, t1 - t0 - 1)), data.draw(st.integers(0, ids.size - 1))]
        lo = x - data.draw(st.floats(0.0, 1.0)) * 2.0**-k
    elif where in ("at an end", "half line"):
        lo = data.draw(st.sampled_from([0.0, 1.0 - 2.0**-k]))
    event = ExceedanceEvent.circle_arc(lo, lo + 2.0**-k)
    if where == "half line":  # ar1's {X > u}
        event = ExceedanceEvent(((1.0 - 2.0**-k, math.inf),))
    if k > processes.PACKED_DEPTH + 1:  # width 2**-k, or one ulp more
        assert PathEngine(spec, seed, ids)._cells(event) is not None
    want = np.flatnonzero(event.mask_native(values))
    assert PathEngine(spec, seed, ids).masks(t0, t1, event).tobytes() == _dense(want, t1 - t0, ids.size).tobytes()


@pytest.mark.parametrize("spec", SPECS, ids=lambda s: s.label)
@settings(max_examples=30, deadline=None, derandomize=True)
@given(data=st.data())
def test_random_words(spec, data):
    # words of 1 to 64 digits read off a path (so that they occur), under a
    # random prefix, on random trial chunks and windows, and after select:
    # the keys of the digit match
    seed = data.draw(st.integers(0, 2**32))
    first = data.draw(st.integers(0, 5000))
    ids = np.arange(first, first + data.draw(st.integers(1, 100)), dtype=np.uint64)
    prefix = None
    if data.draw(st.booleans()):
        prefix = np.random.default_rng(seed).integers(0, 2, (ids.size, data.draw(st.integers(1, 150))), dtype=np.uint8)
    t0 = data.draw(st.integers(0, 300))
    t1 = t0 + data.draw(st.integers(1, 300))
    t2 = t1 + data.draw(st.integers(1, 300))
    L = data.draw(st.integers(1, 64))
    digits = PathEngine(spec, seed, ids, prefix=prefix).digit_matrix(0, t1 + L)
    at, path = data.draw(st.integers(t0, t1 - 1)), data.draw(st.integers(0, ids.size - 1))
    word = tuple(int(d) for d in digits[path, at : at + L])
    event = ExceedanceEvent(word=word)
    eng = PathEngine(spec, seed, ids, prefix=prefix)
    assert eng._cells(event) == [(L, int("".join(map(str, word)), 2))]
    want = np.flatnonzero(PathEngine(spec, seed, ids, prefix=prefix)._cylinder_rows(t0, t1, word))
    assert want.size
    assert eng._window_keys(t0, t1, event).tolist() == want.tolist()
    keep = np.array(data.draw(st.lists(st.booleans(), min_size=ids.size, max_size=ids.size)))
    eng.select(keep)
    kept = None if prefix is None else prefix[keep]
    want = np.flatnonzero(PathEngine(spec, seed, ids[keep], prefix=kept)._cylinder_rows(t1, t2, word))
    assert eng._window_keys(t1, t2, event).tolist() == want.tolist()


def test_ar1_undecided_bracket_scans_from_step_0(monkeypatch):
    # an arc end equal to a scanned ar1 value lies inside that step's
    # bracket: its path is scanned again from step 0 (ar1 carries its value
    # forward), on a window after packed ones; the packed windows scan nothing
    spec = ProcessSpec.ar1(2)
    ids = np.arange(50, dtype=np.uint64)
    values = PathEngine(spec, 3, ids)._values(0, 400)
    x = values[300:].max()
    s, i = np.argwhere(values[300:] == x)[0]
    calls, fresh = [], []
    scan, columns = PathEngine._scan_mask_at, PathEngine._ar1_columns

    def counted(self, t0, t1, event, s, r):
        calls.append(s.size)
        return scan(self, t0, t1, event, s, r)

    def from_step_0(self, t0, t1, consume):
        fresh.append(self._t == 0 and self._carry is None)
        return columns(self, t0, t1, consume)

    monkeypatch.setattr(PathEngine, "_scan_mask_at", counted)
    monkeypatch.setattr(PathEngine, "_ar1_columns", from_step_0)
    for event in (ExceedanceEvent(((x, math.inf),)), ExceedanceEvent(((x - 2.0**-20, x),))):
        eng = PathEngine(spec, 3, ids)
        assert eng._cells(event) is not None
        for t0, t1 in ((0, 150), (150, 300), (300, 400)):
            got = eng.masks(t0, t1, event)
            assert got.tobytes() == event.mask_native(values[t0:t1]).T.tobytes(), t0
        assert not got[i, s]  # open arcs: the end itself is out
    assert len(calls) == 2 and min(calls) >= 1 and fresh == [True, True]


def test_points_after_a_packed_ar1_window():
    # a packed window drops ar1's carried value: a later float read rebuilds
    # it from step 0, so the points equal a fresh engine's
    spec = ProcessSpec.ar1(2)
    ids = np.arange(40, dtype=np.uint64)
    event = ExceedanceEvent(((1.0 - 2.0**-9, math.inf),))
    full = PathEngine(spec, 5, ids).points(0, 400)
    eng = PathEngine(spec, 5, ids)
    assert eng.points(0, 50).tobytes() == full[:, :50].tobytes()
    eng.masks(50, 200, event)
    assert eng._carry is None
    assert eng.points(200, 260).tobytes() == full[:, 200:260].tobytes()
    eng.masks(270, 300, event)
    keep = ids % 3 != 0
    eng.select(keep)
    assert eng.points(330, 400).tobytes() == full[keep, 330:400].tobytes()


# -- the route table -----------------------------------------------------------

END = ObservableSpec(family="distance", form="weibull", anchor=None)
BALL0 = ObservableSpec(family="ball_measure", form="gumbel", anchor="0")
BALL01 = ObservableSpec(family="ball_measure", form="gumbel", anchor="01")
CHEB = ObservableSpec(family="distance", form="weibull", anchor="0")


def _routes(monkeypatch, run):
    """{(process label, route)} of the windows that ``run()`` sweeps, with the
    pool run serially here: route "packed" (``_packed_keys``), "cylinder"
    (``_cylinder_rows``) or "scan" (``_columns``) as ``_window_keys`` takes it."""
    monkeypatch.setattr(processes, "_cpus", lambda: 1)
    seen = set()
    window_keys = PathEngine._window_keys

    def spied(self, t0, t1, event):
        self.route = None
        keys = window_keys(self, t0, t1, event)
        seen.add((self.spec.label, self.route))
        del self.route
        return keys

    def tagged(inner, route):
        def method(self, *args):
            if getattr(self, "route", "") is None:  # the first inside a window of this engine
                self.route = route
            return inner(self, *args)

        return method

    monkeypatch.setattr(PathEngine, "_window_keys", spied)
    for name, route in (("_packed_keys", "packed"), ("_cylinder_rows", "cylinder"), ("_columns", "scan")):
        monkeypatch.setattr(PathEngine, name, tagged(getattr(PathEngine, name), route))
    try:
        run()
    finally:
        monkeypatch.undo()
    return seen


AR1_2, AR1_3, AR1_5 = "ar1(r=2)", "ar1(r=3)", "ar1(r=5)"
DOUBLING, BERNOULLI = "m_ary(m=2,uniform)", "m_ary(m=2,weights=0.3,0.7)"

#: the routes of the quick profile's experiments (seed 7)
QUICK_ROUTES = {
    "ar1_r2": {(AR1_2, "packed")},
    "ar1_r3": {(AR1_3, "scan")},
    "ar1_r5": {(AR1_5, "scan")},
    "mma2": {("mma2", "scan")},
    "mma13": {("mma13", "scan")},
    "chebyshev": {("chebyshev", "packed")},
    "doubling": {(DOUBLING, "packed")},
    "bernoulli01": {(BERNOULLI, "packed")},
    "hts_doubling": {(DOUBLING, "packed")},
    "rts_doubling": {(DOUBLING, "packed")},
    "conditions_ar1": {(AR1_2, "packed")},
    "dichotomy_champernowne": {(DOUBLING, "packed")},
    "symbolic_blocks": set(),
}


def test_quick_profile_routes(monkeypatch):
    configs = cli.reproduce_paper_configs("quick")
    assert set(configs) == set(QUICK_ROUTES)
    with tempfile.TemporaryDirectory() as out:
        for name, cfg in configs.items():
            run = lambda: cli.run_experiment({**cfg, "seed": 7, "out": f"{out}/{name}"})  # noqa: E731
            assert _routes(monkeypatch, run) == QUICK_ROUTES[name], name


def _hts_rts(spec, zeta, delta, rts, horizon_factor=20):
    target = TargetSet.ball(spec, zeta, delta)
    sample_hts(spec, target, 100, 960)
    if rts:
        sample_rts(spec, target, 100, 970, horizon_factor)


def _ar1_conditions():
    levels = LevelSchedule(ProcessSpec.ar1(2), END, tau=1.0)
    escapes.periodicity_report(Ensemble(ProcessSpec.ar1(2), 980, 100, 10000, obs=END), 1, 0.5, levels, 10000, 10)
    for m in (1000, 10000):
        escapes.escape_statistics(Ensemble(ProcessSpec.ar1(2), 981, 100, m, obs=END), 1, m, levels)


#: the routes of the acceptance legs' sweeps: each leg's processes, levels,
#: targets and words, on 100 paths
LEG_ROUTES = {
    "criterion-1 ar1": (
        lambda: [
            estimators.estimate_ei_bundle(ProcessSpec.ar1(r), END, 1, 1.0, 10000, 100, 910 + r) for r in (2, 3, 5)
        ],
        {(AR1_2, "packed"), (AR1_3, "scan"), (AR1_5, "scan")},
    ),
    "criterion-2 mma2": (
        lambda: estimators.estimate_ei_bundle(ProcessSpec.mma2(), END, 2, 1.0, 6000, 100, 920, rts_measure=2.0**-8),
        {("mma2", "scan")},
    ),
    "criteria-2/8 mma13": (
        lambda: [
            estimators.estimate_escape_law(ProcessSpec.mma13(), END, EscapeOffsets((1, 3)), 1.0, 10000, 100, 921),
            escapes.escape_statistics(
                Ensemble(ProcessSpec.mma13(), 982, 100, 10000, obs=END),
                EscapeOffsets((1, 3)),
                10000,
                LevelSchedule(ProcessSpec.mma13(), END, tau=1.0),
            ),
        ],
        {("mma13", "scan")},
    ),
    "criterion-3 chebyshev": (
        lambda: estimators.survey_max_and_escapes(ProcessSpec.chebyshev(), CHEB, 1, 1.0, 5000, 100, 930),
        {("chebyshev", "packed")},
    ),
    "criterion-4": (
        lambda: [
            estimators.survey_max_and_escapes(ProcessSpec.doubling(), BALL0, 1, 1.0, 5000, 100, 940),
            estimators.survey_max_and_escapes(ProcessSpec.bernoulli_doubling(0.3), BALL01, 2, 1.0, 5000, 100, 941),
        ],
        {(DOUBLING, "packed"), (BERNOULLI, "packed")},
    ),
    "criterion-5": (
        lambda: [
            estimators.ball_annulus_gap(ProcessSpec.chebyshev(), CHEB, 1, 1.0, 10000, 100, 950),
            estimators.ball_annulus_gap(ProcessSpec.ar1(2), END, 1, 1.0, 10000, 100, 951),
        ],
        {("chebyshev", "packed"), (AR1_2, "packed")},
    ),
    "criteria-6/7": (
        lambda: [
            _hts_rts(ProcessSpec.ar1(2), None, 2.0**-10, True),
            _hts_rts(ProcessSpec.ar1(3), None, 2.0**-10, True),
            _hts_rts(ProcessSpec.ar1(5), None, 2.0**-10, False),
            _hts_rts(ProcessSpec.doubling(), "0", 2.0**-10, True),
            _hts_rts(ProcessSpec.bernoulli_doubling(0.3), "01", 2.0**-10, True),
            _hts_rts(ProcessSpec.chebyshev(), "0", 2.0**-14, True),
        ],
        {
            (AR1_2, "packed"),
            (AR1_3, "scan"),
            (AR1_5, "scan"),
            (DOUBLING, "packed"),
            (BERNOULLI, "packed"),
            ("chebyshev", "packed"),
        },
    ),
    "criterion-8 ar1": (_ar1_conditions, {(AR1_2, "packed")}),
    "criterion-9": (
        lambda: [
            estimators.cylinder_ei(ProcessSpec.doubling(), symbolic.champernowne_bits(10), 1.0, 100, 990),
            estimators.cylinder_ei(ProcessSpec.bernoulli_doubling(0.3), "01" * 5, 1.0, 100, 991),
        ],
        {(DOUBLING, "packed"), (BERNOULLI, "packed")},
    ),
    "criterion-10 Kac": (
        lambda: _hts_rts(ProcessSpec.doubling(), "0", 2.0**-10, True, horizon_factor=60),
        {(DOUBLING, "packed")},
    ),
}


@pytest.mark.parametrize("leg", list(LEG_ROUTES))
def test_acceptance_leg_routes(leg, monkeypatch):
    run, want = LEG_ROUTES[leg]
    assert _routes(monkeypatch, run) == want
