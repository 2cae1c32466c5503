"""Exceedances of narrow arcs on the base-2 maps, read off packed digit words.

``PathEngine`` finds them from a prefix match and an exact 52-digit bracket
(``_packed_keys``); every key must equal the float scan's mask, which
``mask_native`` reads from the scanned values (``_values``: theta for
chebyshev) of the same window.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evl_lab import processes
from evl_lab.hts_rts import TargetSet, _rts_prefix
from evl_lab.observables import ExceedanceEvent
from evl_lab.processes import PathEngine, ProcessSpec

SPECS = [ProcessSpec.doubling(), ProcessSpec.bernoulli_doubling(0.3), ProcessSpec.chebyshev()]

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
    # first two words; select keeps the prefix rows of the paths it keeps
    target = TargetSet.ball(spec, "0", 2.0**-12)
    ids = np.arange(300, dtype=np.uint64)
    prefix = _rts_prefix(spec, target, ids, 5)
    assert prefix.shape[1] > 64
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
    for cells in ([(L, 0)], [(L, 2**L - 1)], [(L, 0), (L, 2**L - 1), (L, 2**L // 3), (L - 3, 1)]):
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
    where = data.draw(st.sampled_from(["anywhere", "around a value", "at an end"]))
    lo = data.draw(st.floats(0.0, 1.0, exclude_max=True))
    if where == "around a value":
        x = values[data.draw(st.integers(0, t1 - t0 - 1)), data.draw(st.integers(0, ids.size - 1))]
        lo = x - data.draw(st.floats(0.0, 1.0)) * 2.0**-k
    elif where == "at an end":
        lo = data.draw(st.sampled_from([0.0, 1.0 - 2.0**-k]))
    event = ExceedanceEvent.circle_arc(lo, lo + 2.0**-k)
    if k > processes.PACKED_DEPTH + 1:  # width 2**-k, or one ulp more
        assert PathEngine(spec, seed, ids)._cells(event) is not None
    want = np.flatnonzero(event.mask_native(values))
    assert PathEngine(spec, seed, ids).masks(t0, t1, event).tobytes() == _dense(want, t1 - t0, ids.size).tobytes()
