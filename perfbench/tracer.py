"""In-memory span recorder wrapped around the public entry points of each evl_lab module.

Only the traced run installs it.  Every wrapped call records one span (name,
start, end, parent); a layer's self time is the duration of its spans minus
the time covered by their direct children, and its busy time is the duration
of its outermost spans (those whose parent belongs to another layer).  A few
wrappers also count work where it happens: generator words and channels,
engine trial-steps, sweeps and chunks, and return-time samples.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from collections import Counter

import numpy as np

LAYERS = ("rng", "processes", "observables", "escapes", "estimators", "hts_rts", "symbolic", "theory", "cli")

#: class methods traced in addition to every public module-level function
METHODS = {
    "processes": {"PathEngine": ("masks", "points", "digit_matrix"), "Ensemble": ("mask_chunks",)},
    "observables": {"ExceedanceEvent": ("mask_native",), "LevelSchedule": ("u",)},
    "hts_rts": {"TargetSet": ("ball", "ball_of_measure", "cylinder")},
    "symbolic": {"SymbolicWord": ("parse",)},
}

#: level and exceedance-geometry solving (observables.level_s)
LEVEL_SPANS = frozenset(
    "observables." + n
    for n in ("level_for_tau", "LevelSchedule.u", "ball_radius_for_measure", "exceedance_event")
)
MASK_SPAN = "observables.ExceedanceEvent.mask_native"
ESCAPE_MATRIX_SPAN = "escapes.escape_matrix"
SAMPLE_RTS_SPAN = "hts_rts.sample_rts"
CH_INIT = 1  # evl_lab.rng.CH_INIT, the conditional-start channel


class Recorder:
    """Spans held in parallel lists; parents always precede their children."""

    def __init__(self):
        self.names, self.starts, self.ends, self.parents = [], [], [], []
        self.stack = []
        self.counts = Counter()

    def open(self, name):
        i = len(self.names)
        self.names.append(name)
        self.parents.append(self.stack[-1] if self.stack else -1)
        self.ends.append(0.0)
        self.stack.append(i)
        self.starts.append(time.perf_counter())
        return i

    def close(self, i):
        self.ends[i] = time.perf_counter()
        self.stack.pop()

    def inside(self, name):
        return any(self.names[j] == name for j in self.stack)

    def write_tsv(self, path):
        with open(path, "w", encoding="utf-8") as f:
            f.write("id\tname\tstart\tend\tparent\n")
            for i, (n, s, e, p) in enumerate(zip(self.names, self.starts, self.ends, self.parents)):
                f.write(f"{i}\t{n}\t{s!r}\t{e!r}\t{p}\n")


# ---------------------------------------------------------------------------
# counters evaluated after a wrapped call returns
# ---------------------------------------------------------------------------


def _count_words(rec, bound, out):
    rows = np.atleast_1d(bound["trials"]).size
    words = rows * max(bound["hi"] - bound["lo"], 0)
    rec.counts["rng.words"] += words
    if bound["channel"] == CH_INIT:
        rec.counts["rng.init_words"] += words
        rec.counts["init_rows"] += rows


def _add_trial_steps(rec, steps):
    rec.counts["processes.trial_steps"] += steps
    if rec.inside(SAMPLE_RTS_SPAN):
        rec.counts["rts_trial_steps"] += steps


def _count_block(rec, bound, out):
    _add_trial_steps(rec, out.shape[0] * (bound["t1"] - bound["t0"]))


def _count_jump_paths(rec, bound, out):
    _add_trial_steps(rec, out.size)


def _count_samples(rec, bound, out, rts):
    rec.counts["samples"] += out.times.size
    rec.counts["censored"] += int(out.censored.sum())
    if rts:
        rec.counts["rts_samples"] += out.times.size
        rec.counts["rts_hit_steps"] += int(np.rint(out.times / out.target_measure).sum())


COUNTERS = {
    "rng.raw_words": _count_words,
    "processes.PathEngine.masks": _count_block,
    "processes.PathEngine.points": _count_block,
    "processes.PathEngine.digit_matrix": _count_block,
    "processes.dyadic_jump_paths": _count_jump_paths,
    "hts_rts.sample_rts": functools.partial(_count_samples, rts=True),
    "hts_rts.sample_hts": functools.partial(_count_samples, rts=False),
}


# ---------------------------------------------------------------------------
# wrappers
# ---------------------------------------------------------------------------


def _wrap(rec, name, fn):
    count = COUNTERS.get(name)
    sig = inspect.signature(fn) if count else None

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        i = rec.open(name)
        try:
            out = fn(*args, **kwargs)
        finally:
            rec.close(i)
        if count:
            bound = sig.bind(*args, **kwargs)
            bound.apply_defaults()
            count(rec, bound.arguments, out)
        return out

    return traced


def _wrap_generator(rec, name, fn):
    """Time a generator per ``next()``; the consumer's work between items is not in the span."""

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        rec.counts["processes.sweeps"] += 1
        return _timed(fn(*args, **kwargs))

    def _timed(gen):
        while True:
            i = rec.open(name)
            try:
                item = next(gen)
            except StopIteration:
                return
            finally:
                rec.close(i)
            rec.counts["processes.chunks"] += 1
            yield item

    return traced


def install(rec):
    """Wrap every public function of each layer at every evl_lab import site,
    and the listed class methods on their classes."""
    wrapped = {}
    for layer in LAYERS:
        mod = importlib.import_module(f"evl_lab.{layer}")
        for attr, fn in vars(mod).items():
            if inspect.isfunction(fn) and fn.__module__ == mod.__name__ and not attr.startswith("_"):
                wrapped[fn] = _wrap(rec, f"{layer}.{attr}", fn)
        for cls_name, methods in METHODS.get(layer, {}).items():
            cls = getattr(mod, cls_name)
            for m in methods:
                raw = cls.__dict__[m]
                name = f"{layer}.{cls_name}.{m}"
                if isinstance(raw, staticmethod):
                    setattr(cls, m, staticmethod(_wrap(rec, name, raw.__func__)))
                elif inspect.isgeneratorfunction(raw):
                    setattr(cls, m, _wrap_generator(rec, name, raw))
                else:
                    setattr(cls, m, _wrap(rec, name, raw))
    for mod_name, mod in list(sys.modules.items()):
        if mod_name == "evl_lab" or mod_name.startswith("evl_lab."):
            for attr, value in list(vars(mod).items()):
                if inspect.isfunction(value) and value in wrapped:
                    setattr(mod, attr, wrapped[value])


# ---------------------------------------------------------------------------
# roll-up
# ---------------------------------------------------------------------------


def per_layer_metrics(rec):
    """Per-layer numbers of one traced operation (seconds, counts and ratios)."""
    n = len(rec.names)
    dur = np.asarray(rec.ends) - np.asarray(rec.starts)
    parents = np.asarray(rec.parents, dtype=np.int64)
    layer = [name.partition(".")[0] for name in rec.names]
    child = np.zeros(n)
    has_parent = parents >= 0
    np.add.at(child, parents[has_parent], dur[has_parent])
    self_time = dur - child
    self_s, busy_s = Counter(), Counter()
    in_level = [False] * n  # span or an ancestor is a level solve
    level_s = mask_s = escape_matrix_s = 0.0
    mask_calls = rng_calls = 0
    for i, name in enumerate(rec.names):
        p = parents[i]
        lay = layer[i]
        self_s[lay] += self_time[i]
        outer = p < 0 or layer[p] != lay
        if outer:
            busy_s[lay] += dur[i]
            rng_calls += lay == "rng"
        is_level = name in LEVEL_SPANS
        in_level[i] = is_level or (p >= 0 and in_level[p])
        if is_level and not (p >= 0 and in_level[p]):
            level_s += dur[i]
        if name == MASK_SPAN:
            mask_calls += 1
            mask_s += dur[i]
        elif name == ESCAPE_MATRIX_SPAN:
            escape_matrix_s += dur[i]
    c = rec.counts

    def ratio(a, b):
        return a / b if b else 0.0

    return {
        "rng.calls": rng_calls,
        "rng.words": c["rng.words"],
        "rng.busy_s": busy_s["rng"],
        "rng.words_per_s": ratio(c["rng.words"], busy_s["rng"]),
        "rng.init_words": c["rng.init_words"],
        "processes.sweeps": c["processes.sweeps"],
        "processes.chunks": c["processes.chunks"],
        "processes.trial_steps": c["processes.trial_steps"],
        "processes.self_s": self_s["processes"],
        "processes.steps_per_s": ratio(c["processes.trial_steps"], busy_s["processes"]),
        "observables.mask_calls": mask_calls,
        "observables.mask_s": mask_s,
        "observables.level_s": level_s,
        "escapes.self_s": self_s["escapes"],
        "escapes.escape_matrix_s": escape_matrix_s,
        "estimators.self_s": self_s["estimators"],
        "hts_rts.self_s": self_s["hts_rts"],
        "hts_rts.start_draws_per_trial": ratio(c["init_rows"], c["rts_samples"]),
        "hts_rts.sweep_useful_ratio": ratio(c["rts_hit_steps"], c["rts_trial_steps"]),
        "hts_rts.censored_frac": ratio(c["censored"], c["samples"]),
        "symbolic.busy_s": busy_s["symbolic"],
        "theory.busy_s": busy_s["theory"],
        "cli.self_s": self_s["cli"],
    }
