"""Batch experiment runner.

Configuration is JSON (flags override keys); results land in ``results.csv``
plus optional ``plotdata.tsv`` and a ``provenance.json`` echoing the exact
configuration, so every row is independently re-derivable from (seed, trials,
n, tau).  Rerunning a configuration byte-reproduces the result files.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import __version__, escapes, estimators, hts_rts, symbolic, theory
from .observables import LevelSchedule, ObservableSpec, level_for_tau, tail_probability
from .processes import MAP_KINDS, Ensemble, ProcessSpec, _fork_map, point_values_at
from .escapes import EscapeOffsets

EXPERIMENTS = (
    "estimate-ei",
    "hts",
    "rts",
    "conditions",
    "dichotomy",
    "symbolic",
    "tail-check",
    "reproduce-paper",
)


class ConfigError(ValueError):
    pass


#: ProcessSpec kind and parameters of each compact process name; a parameter
#: whose default is None is required
_COMPACT = {
    "doubling": ("m_ary", {}),
    "bernoulli": ("m_ary", {"alpha": None}),
    "bernoulli_doubling": ("m_ary", {"alpha": None}),
    "m_ary": ("m_ary", {"m": None, "weights": ()}),
    "ar1": ("ar1", {"r": None}),
    "iid": ("iid_uniform", {}),
    **{kind: (kind, {}) for kind in ("dyadic_jump", "chebyshev", "mma2", "mma13", "iid_uniform")},
}
_PARAMS = {"alpha": float, "m": int, "r": int, "weights": lambda w: [float(x) for x in w.split("|")]}


def parse_process(value):
    """Process spec from a dict, or from a compact string like 'ar1:r=2' that
    stands for the dict ``_COMPACT`` gives its name."""
    if not isinstance(value, dict):
        name, _, args = str(value).partition(":")
        if name not in _COMPACT:
            raise ConfigError(f"process: unknown kind {name!r}")
        kind, params = _COMPACT[name]
        value = {"kind": kind, **params}
        for part in filter(None, args.split(",")):
            k, _, v = part.partition("=")
            if k not in params:
                raise ConfigError(f"process: unexpected parameter {k!r} for {name}")
            value[k] = _convert("process", _PARAMS[k], v)
        for k in params:
            if value[k] is None:
                raise ConfigError(f"process: {name} is missing parameter {k!r}")
        if "alpha" in value:
            alpha = value.pop("alpha")
            value["weights"] = (alpha, 1.0 - alpha)
    kw = dict(value)
    if "kind" not in kw:
        raise ConfigError("process: missing key 'kind'")
    try:
        if "weights" in kw:
            kw["weights"] = tuple(kw["weights"])
        return ProcessSpec(**kw)
    except (TypeError, ValueError) as e:
        raise ConfigError(f"process: {e}") from e


def parse_observable(value, zeta):
    d = dict(value) if isinstance(value, dict) else {}
    if isinstance(value, str):
        family, _, form = value.partition(":")
        d = {"family": family}
        if form:
            d["form"] = form
    d.setdefault("family", "ball_measure")
    d.setdefault("form", "gumbel")
    d.setdefault("anchor", zeta)
    try:
        return ObservableSpec(**d)
    except (TypeError, ValueError) as e:
        raise ConfigError(f"observable: {e}") from e


def _convert(key, convert, value):
    try:
        return convert(value)
    except (TypeError, ValueError, OverflowError) as e:
        raise ConfigError(f"{key}: {e}") from e


def _real(value):
    """``float(value)``, but a JSON boolean is an error, not 1.0 or 0.0."""
    if isinstance(value, bool):
        raise ValueError(f"expected a number, got {value!r}")
    return float(value)


def _integer(value):
    """``int(value)``, but a non-integral number is an error, not truncated,
    and so is a JSON boolean."""
    i = int(value)
    if isinstance(value, bool) or (not isinstance(value, str) and i != value):
        raise ValueError(f"expected an integer, got {value!r}")
    return i


def _checked(convert, holds, condition):
    """``convert``, and a ValueError unless its result ``holds``."""

    def checked(value):
        x = convert(value)
        if not holds(x):
            raise ValueError(f"must be {condition}, got {value!r}")
        return x

    return checked


def _one_of(*choices):
    return _checked(lambda v: v, lambda v: v in choices, f"one of {choices}")


def _each(convert):
    return lambda values: [convert(v) for v in values]


def _word(key, text, spec):
    """``text`` parsed as a word over ``spec``'s digits."""
    try:
        return symbolic.SymbolicWord.parse(text, spec.base)
    except ValueError as e:
        raise ConfigError(f"{key}: {e}") from e


#: every config key: the converter to its JSON value and the value it takes
#: when absent; a list default marks a list key (comma separated as a flag)
_KEYS = {
    "experiment": (_one_of(*EXPERIMENTS), None),
    "process": (lambda v: v, "doubling"),
    "observable": (lambda v: v, {}),
    "zeta": (lambda v: v if v is None else str(v), None),
    # a scalar is one offset
    "offsets": (lambda v: [_integer(p) for p in (v if isinstance(v, (list, tuple)) else [v])], [1]),
    "tau": (_each(_checked(_real, lambda x: 0.0 <= x < math.inf, "finite and >= 0")), [1.0]),
    "n": (_each(_checked(_integer, lambda i: i >= 1, ">= 1")), [10000]),
    "trials": (_checked(_integer, lambda i: i >= 2, ">= 2"), 10000),
    "seed": (_integer, None),
    "out": (_checked(lambda v: v, lambda v: isinstance(v, str), "a string"), "evl-results"),
    "emit_plot_data": (_checked(lambda v: v, lambda v: isinstance(v, bool), "true or false"), False),
    "delta": (_checked(_real, lambda x: 0.0 < x < math.inf, "finite and > 0"), 2.0**-10),
    "horizon_factor": (_checked(_integer, lambda i: i >= 10, ">= 10 (truncation bias)"), 20),
    "cylinder_n": (_checked(_integer, lambda i: i >= 1, ">= 1"), 10),
    "word": (str, None),
    "profile": (_one_of("full", "quick"), "full"),
}
#: experiments that read the observable's anchor (hts and rts aim at zeta)
_ANCHORED = ("estimate-ei", "hts", "rts", "conditions", "tail-check")
#: the aperiodic words a dichotomy run may name, by their first n symbols
_APERIODIC = {"champernowne": symbolic.champernowne_bits, "sqrt2": symbolic.sqrt2_minus1_bits}


@dataclass
class ExperimentConfig:
    """Validated experiment description; ``raw`` echoes the normalized JSON."""

    kind: str
    spec: ProcessSpec
    obs: ObservableSpec
    zeta: str | None
    offsets: EscapeOffsets
    tau: list
    n: list
    trials: int
    seed: int
    out: Path
    emit_plot_data: bool
    extras: dict
    raw: dict

    @staticmethod
    def from_dict(d):
        unknown = set(d) - set(_KEYS)
        if unknown:
            raise ConfigError(f"unknown config key(s): {sorted(unknown)}")
        for key in ("experiment", "seed"):
            if key not in d:
                raise ConfigError(f"{key}: required key is missing")
        v = {k: _convert(k, convert, d[k]) if k in d else default for k, (convert, default) in _KEYS.items()}
        kind = v["experiment"]
        if kind in ("estimate-ei", "dichotomy") and 0.0 in v["tau"]:  # no maximum law to invert
            raise ConfigError(f"tau: must be > 0 for {kind}, got 0.0")
        offsets = _convert("offsets", EscapeOffsets, tuple(v["offsets"]))
        zeta = None if v["zeta"] in ("", "endpoint") else v["zeta"]
        spec = parse_process(v["process"])
        obs = parse_observable(v["observable"], zeta)
        extras = {k: v[k] for k in ("delta", "horizon_factor", "cylinder_n", "word", "profile")}
        anchor = zeta if kind in ("hts", "rts") else obs.anchor
        if kind in _ANCHORED and anchor is not None:
            _word("zeta", anchor, spec)
        elif kind in _ANCHORED and spec.kind in MAP_KINDS:
            raise ConfigError("zeta: map kinds need a word anchor")
        word, key = (v["word"], "word") if v["word"] else (zeta, "zeta")
        if kind == "dichotomy" and word in (None, *_APERIODIC):
            _convert("process", lambda s: s.base, spec)  # a cylinder needs digits
            extras["word"] = word or "champernowne"
        elif kind in ("dichotomy", "symbolic"):
            if word is None:
                raise ConfigError("word: symbolic needs a word or zeta")
            extras["word"] = _word(key, word, spec)
            if kind == "dichotomy":  # a jump-map cylinder must be a branch word
                _convert(key, lambda w: theory.analytic_ei(spec, w), extras["word"])
        return ExperimentConfig(
            kind=kind, spec=spec, obs=obs, zeta=zeta, offsets=offsets, tau=v["tau"], n=v["n"],
            trials=v["trials"], seed=v["seed"], out=Path(v["out"]), emit_plot_data=v["emit_plot_data"],
            extras=extras, raw={"process": spec.label, **d},
        )


@dataclass
class ExperimentReport:
    header: list
    rows: list = field(default_factory=list)
    plot_header: list = field(default_factory=lambda: ["t", "F_empirical", "F_theory"])
    plot_rows: list = field(default_factory=list)
    provenance: dict = field(default_factory=dict)


def _fmt(x):
    if isinstance(x, (float, np.floating)):
        return repr(float(x))
    return str(x)


def _analytic_theta(cfg):
    try:  # series kinds ignore the anchor
        return theory.analytic_ei(cfg.spec, cfg.zeta).theta
    except (ValueError, TypeError):
        return math.nan


# ---------------------------------------------------------------------------
# experiment implementations
# ---------------------------------------------------------------------------


def _run_estimate_ei(cfg):
    rep = ExperimentReport(
        header=[
            "process", "observable", "zeta", "p_or_offsets", "n", "tau", "method",
            "theta_hat", "stderr", "theta_analytic", "trials", "seed",
        ]
    )
    th = _analytic_theta(cfg)
    for n in cfg.n:
        for tau in cfg.tau:
            ests = estimators.estimate_ei_bundle(
                cfg.spec, cfg.obs, cfg.offsets, tau, n, cfg.trials, cfg.seed
            )
            for e in ests:
                rep.rows.append(
                    [
                        cfg.spec.label,
                        f"{cfg.obs.family}:{cfg.obs.form}",
                        cfg.zeta or "endpoint",
                        str(cfg.offsets),
                        n,
                        tau,
                        e.method,
                        e.theta,
                        e.stderr,
                        th,
                        cfg.trials,
                        cfg.seed,
                    ]
                )
    return rep


def _run_hts_rts(cfg, mode):
    rep = ExperimentReport(
        header=[
            "process", "target", "mode", "theta_theory", "ks", "atom_mass",
            "mean_normalized", "censored_frac", "n_samples", "seed",
        ]
    )
    delta = cfg.extras["delta"]
    hf = cfg.extras["horizon_factor"]
    target = hts_rts.TargetSet.ball(cfg.spec, cfg.zeta, delta)
    th = _analytic_theta(cfg)
    th_law = th if not math.isnan(th) else 1.0  # no analytic index: compare with the unit-rate law
    sampler = hts_rts.sample_hts if mode == "hts" else hts_rts.sample_rts
    samples = sampler(cfg.spec, target, cfg.trials, cfg.seed, horizon_factor=hf)
    cdf = theory.theoretical_cdf(mode, th_law)
    if mode == "rts":
        unc = ~samples.censored
        eps = estimators.ATOM_EPS
        atom = float(((samples.times <= eps) & unc).mean())
        cont = np.sort(samples.times[(samples.times > eps) & unc])
        if cont.size == 0:
            raise ValueError(f"no uncensored return time past the atom (normalized time > {eps:g})")
        base = theory.theoretical_cdf("hts", th_law)
        f0 = float(base(eps))
        ks = float(hts_rts.ks_sup((np.asarray(base(cont)) - f0) / (1.0 - f0), cont.size))
    else:
        atom = math.nan
        ks = hts_rts.ks_distance(samples, cdf)
    rep.rows.append(
        [
            cfg.spec.label,
            f"ball({cfg.zeta or 'endpoint'},{delta!r})",
            mode,
            th,
            ks,
            atom,
            float(samples.times.mean()),
            float(samples.censored.mean()),
            cfg.trials,
            cfg.seed,
        ]
    )
    if cfg.emit_plot_data:
        grid = np.linspace(0.0, min(samples.horizon, 6.0), 121)
        F = hts_rts.empirical_cdf(samples)
        for t in grid:
            rep.plot_rows.append([float(t), float(F(t)), float(cdf(t))])
    return rep


def _run_conditions(cfg):
    rep = ExperimentReport(header=["name", "n", "t_or_j", "value", "stderr"])
    th = _analytic_theta(cfg)
    for tau in cfg.tau:
        levels = LevelSchedule(cfg.spec, cfg.obs, tau)
        for n in cfg.n:
            ens = Ensemble(cfg.spec, cfg.seed, cfg.trials, n, obs=cfg.obs)
            report = escapes.periodicity_report(
                ens, cfg.offsets, th if not math.isnan(th) else 0.5, levels, n
            )
            rep.rows.extend(list(report.rows()))
            rate, (v, se, _), gap = escapes.escape_statistics(ens, cfg.offsets, n, levels)
            rep.rows.append(["escape_pair_sum", n, n // escapes.default_block_count(n), v, se])
            rep.rows.append(["mixing_gap", n, escapes.default_gap(n), *gap])
            rep.rows.append(["escape_rate", n, 0, *rate])
    return rep


def _run_dichotomy(cfg):
    rep = ExperimentReport(
        header=["word", "cylinder_n", "tau", "theta_hat", "stderr", "theta_theory", "trials", "seed"]
    )
    k = cfg.extras["cylinder_n"]
    root = cfg.extras["word"]
    if root in _APERIODIC:
        w, th = _APERIODIC[root](k), 1.0
    else:
        reps = -(-k // len(root))
        w = symbolic.SymbolicWord((root.digits * reps)[:k], cfg.spec.base)
        # 1 - mu(cylinder of the prime root); chebyshev cylinders lie on the
        # doubling coordinate, where analytic_ei's x-ball value does not hold
        th = 1.0 - symbolic.cylinder_measure(root.primitive_root(), cfg.spec.digit_weights)
    for tau in cfg.tau:
        est = estimators.cylinder_ei(cfg.spec, w, tau, cfg.trials, cfg.seed)
        rep.rows.append([str(w), k, tau, est.theta, est.stderr, th, cfg.trials, cfg.seed])
    return rep


def _run_symbolic(cfg):
    rep = ExperimentReport(header=["word_len", "n", "r_n", "decided", "i_n", "a_n", "q_n"])
    word = cfg.extras["word"]
    ps = symbolic.period_sequence(word)
    for rec in ps.records:
        rep.rows.append([len(word), rec.n, rec.r, int(rec.decided), rec.i, rec.a, rec.q])
    rep.provenance["p_values"] = list(ps.values)
    return rep


def _run_tail_check(cfg):
    rep = ExperimentReport(
        header=["process", "observable", "u", "tail_analytic", "tail_empirical", "stderr", "samples"]
    )
    pts = point_values_at(cfg.spec, cfg.seed, np.arange(cfg.trials), [0])[:, 0]
    xs = cfg.obs.apply(cfg.spec, pts)
    for n in cfg.n:
        for tau in cfg.tau:
            u = level_for_tau(cfg.spec, cfg.obs, n, tau)
            p = tail_probability(cfg.spec, cfg.obs, u)
            emp = float((xs > u).mean())
            se = estimators._binomial_se(p, cfg.trials)
            rep.rows.append(
                [cfg.spec.label, f"{cfg.obs.family}:{cfg.obs.form}", u, p, emp, se, cfg.trials]
            )
    return rep


_RUNNERS = {
    "estimate-ei": _run_estimate_ei,
    "hts": lambda cfg: _run_hts_rts(cfg, "hts"),
    "rts": lambda cfg: _run_hts_rts(cfg, "rts"),
    "conditions": _run_conditions,
    "dichotomy": _run_dichotomy,
    "symbolic": _run_symbolic,
    "tail-check": _run_tail_check,
}


# ---------------------------------------------------------------------------
# bundled meta-configuration reproducing the acceptance experiments
# ---------------------------------------------------------------------------

_FULL = {
    "ar1_r2": {"experiment": "estimate-ei", "process": "ar1:r=2", "observable": "distance:weibull",
               "zeta": None, "offsets": [1], "tau": [1.0], "n": [10000], "trials": 100000},
    "ar1_r3": {"experiment": "estimate-ei", "process": "ar1:r=3", "observable": "distance:weibull",
               "zeta": None, "offsets": [1], "tau": [1.0], "n": [10000], "trials": 100000},
    "ar1_r5": {"experiment": "estimate-ei", "process": "ar1:r=5", "observable": "distance:weibull",
               "zeta": None, "offsets": [1], "tau": [1.0], "n": [10000], "trials": 100000},
    "mma2": {"experiment": "estimate-ei", "process": "mma2", "observable": "distance:weibull",
             "zeta": None, "offsets": [2], "tau": [1.0], "n": [4000], "trials": 60000},
    "mma13": {"experiment": "estimate-ei", "process": "mma13", "observable": "distance:weibull",
              "zeta": None, "offsets": [1, 3], "tau": [1.0], "n": [4000], "trials": 60000},
    "chebyshev": {"experiment": "estimate-ei", "process": "chebyshev", "observable": "distance:weibull",
                  "zeta": "0", "offsets": [1], "tau": [1.0], "n": [5000], "trials": 100000},
    "doubling": {"experiment": "estimate-ei", "process": "doubling", "observable": "ball_measure:gumbel",
                 "zeta": "0", "offsets": [1], "tau": [1.0], "n": [5000], "trials": 100000},
    "bernoulli01": {"experiment": "estimate-ei", "process": "bernoulli:alpha=0.3",
                    "observable": "ball_measure:gumbel", "zeta": "01", "offsets": [2],
                    "tau": [1.0], "n": [5000], "trials": 60000},
    "hts_doubling": {"experiment": "hts", "process": "doubling", "zeta": "0",
                     "trials": 100000, "delta": 2.0**-10, "emit_plot_data": True},
    "rts_doubling": {"experiment": "rts", "process": "doubling", "zeta": "0",
                     "trials": 100000, "delta": 2.0**-10, "emit_plot_data": True},
    "conditions_ar1": {"experiment": "conditions", "process": "ar1:r=2",
                       "observable": "distance:weibull", "zeta": None, "offsets": [1],
                       "tau": [1.0], "n": [1000, 10000], "trials": 50000},
    "dichotomy_champernowne": {"experiment": "dichotomy", "process": "doubling",
                               "word": "champernowne", "cylinder_n": 10, "tau": [1.0],
                               "trials": 100000},
    # the 153-symbol block word: 10 blocks of 0^14 1, then 001
    "symbolic_blocks": {"experiment": "symbolic", "process": "doubling",
                        "word": ("0" * 14 + "1") * 10 + "001", "trials": 2},
}

_QUICK_SCALE = {"trials": 50, "n": 10}


def reproduce_paper_configs(profile="full"):
    out = {}
    for name, cfg in _FULL.items():
        c = dict(cfg)
        if profile == "quick":
            c["trials"] = max(2000, c.get("trials", 10000) // _QUICK_SCALE["trials"])
            if "n" in c:
                c["n"] = [max(200, x // _QUICK_SCALE["n"]) for x in c["n"]]
            if c["experiment"] == "dichotomy":
                c["trials"] = 5000
        out[name] = c
    return out


# ---------------------------------------------------------------------------
# orchestration
# ---------------------------------------------------------------------------


def run_experiment(config):
    """Dispatch one validated configuration and write its result files."""
    cfg = config if isinstance(config, ExperimentConfig) else ExperimentConfig.from_dict(config)
    if cfg.kind == "reproduce-paper":
        return run_reproduce_paper(cfg.out, cfg.seed, cfg.extras["profile"])
    t0 = time.time()
    rep = _RUNNERS[cfg.kind](cfg)
    rep.provenance = {
        "config": cfg.raw,
        "seed": cfg.seed,
        "version": __version__,
        "wall_time_s": round(time.time() - t0, 3),
        **rep.provenance,
    }
    _write_report(cfg, rep)
    return rep


def _write_report(cfg, rep):
    cfg.out.mkdir(parents=True, exist_ok=True)
    with open(cfg.out / "results.csv", "w", encoding="utf-8", newline="") as f:
        writer = csv.writer(f, lineterminator="\n")
        writer.writerow(rep.header)
        writer.writerows([_fmt(x) for x in row] for row in rep.rows)
    if cfg.emit_plot_data:
        plines = ["\t".join(rep.plot_header)]
        plines += ["\t".join(_fmt(x) for x in row) for row in rep.plot_rows]
        (cfg.out / "plotdata.tsv").write_text("\n".join(plines) + "\n", encoding="utf-8")
    (cfg.out / "provenance.json").write_text(
        json.dumps(rep.provenance, indent=2, sort_keys=True, default=str) + "\n",
        encoding="utf-8",
    )


def run_reproduce_paper(out_dir, seed, profile="full"):
    """Run the bundled acceptance experiments in the forked worker pool of
    ``processes._fork_map``: one worker per CPU, in sequence on one CPU.  Each
    experiment is a pure function of its config, so either way writes the same
    files.  The first failure in config order is raised once the running
    experiments end; a sweep inside an experiment runs its chunks serially."""
    out = Path(out_dir)
    cfgs = [
        ExperimentConfig.from_dict({**sub, "seed": seed, "out": str(out / name)})
        for name, sub in reproduce_paper_configs(profile).items()
    ]

    def run(cfg):
        run_experiment(cfg)  # the report stays in the worker: its files are the result

    _fork_map(run, cfgs)
    return out


def main(argv=None):
    ap = argparse.ArgumentParser(prog="evl-lab", description=__doc__)
    ap.add_argument("experiment", choices=EXPERIMENTS)
    ap.add_argument("--config", type=Path, help="JSON configuration file")
    for key, (_, default) in _KEYS.items():
        flag = "--" + key.replace("_", "-")
        if key == "emit_plot_data":
            ap.add_argument(flag, action="store_true", default=None)
        elif key != "experiment":
            ap.add_argument(flag, help="comma separated" if isinstance(default, list) else None)
    args = ap.parse_args(argv)

    d = {}
    if args.config:
        try:
            d = json.loads(args.config.read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError) as e:
            print(f"error: cannot read config: {e}", file=sys.stderr)
            return 2
    try:
        if not isinstance(d, dict):
            raise ConfigError(f"config: {args.config} holds JSON that is not an object")
        for k, v in vars(args).items():
            if v is not None and k in _KEYS:
                convert, default = _KEYS[k]
                d[k] = _convert(k, convert, v.split(",") if isinstance(default, list) else v)
        run_experiment(d)
        return 0
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    except (ValueError, RuntimeError) as e:
        out = Path(d.get("out", "evl-results"))
        out.mkdir(parents=True, exist_ok=True)
        (out / "results.csv").write_text(f"error\n{e}\n", encoding="utf-8")
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
