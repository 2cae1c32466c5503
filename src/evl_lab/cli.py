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
from .observables import LevelSchedule, ObservableSpec, tail_probability
from .processes import Ensemble, ProcessSpec, point_values_at
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


def parse_process(value):
    """Process spec from a dict or a compact string like 'ar1:r=2'."""
    if isinstance(value, ProcessSpec):
        return value
    if isinstance(value, dict):
        kind = value.get("kind")
        if kind is None:
            raise ConfigError("process: missing key 'kind'")
        kw = {k: v for k, v in value.items() if k != "kind"}
        if "weights" in kw:
            kw["weights"] = tuple(kw["weights"])
        try:
            return ProcessSpec(kind, **kw)
        except (TypeError, ValueError) as e:
            raise ConfigError(f"process: {e}") from e
    name, _, args = str(value).partition(":")
    kv = {}
    for part in filter(None, args.split(",")):
        k, _, v = part.partition("=")
        kv[k] = v
    try:
        if name in ("doubling",):
            return ProcessSpec.doubling()
        if name in ("bernoulli", "bernoulli_doubling"):
            return ProcessSpec.bernoulli_doubling(float(kv["alpha"]))
        if name == "m_ary":
            w = tuple(float(x) for x in kv["weights"].split("|")) if "weights" in kv else None
            return ProcessSpec.m_ary(int(kv["m"]), w)
        if name == "dyadic_jump":
            return ProcessSpec.dyadic_jump()
        if name == "chebyshev":
            return ProcessSpec.chebyshev()
        if name == "ar1":
            return ProcessSpec.ar1(int(kv["r"]))
        if name == "mma2":
            return ProcessSpec.mma2()
        if name == "mma13":
            return ProcessSpec.mma13()
        if name in ("iid", "iid_uniform"):
            return ProcessSpec.iid_uniform()
    except KeyError as e:
        raise ConfigError(f"process {name!r}: missing parameter {e}") from e
    raise ConfigError(f"process: unknown kind {name!r}")


def _convert(key, convert, value):
    try:
        return convert(value)
    except (TypeError, ValueError, OverflowError) as e:
        raise ConfigError(f"{key}: {e}") from e


def _integer(value):
    """``int(value)``, but a non-integral number is an error, not truncated."""
    i = int(value)
    if not isinstance(value, str) and i != value:
        raise ValueError(f"expected an integer, got {value!r}")
    return i


def _positive(value):
    x = float(value)
    if not (math.isfinite(x) and x > 0.0):
        raise ValueError(f"must be finite and > 0, got {value!r}")
    return x


def parse_observable(value, zeta):
    if isinstance(value, ObservableSpec):
        return value
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
        kind = d.get("experiment")
        if kind not in EXPERIMENTS:
            raise ConfigError(f"experiment: expected one of {EXPERIMENTS}, got {kind!r}")
        if "seed" not in d:
            raise ConfigError("seed: required key is missing")
        zeta = d.get("zeta")
        zeta = None if zeta in (None, "", "endpoint") else str(zeta)
        spec = parse_process(d.get("process", "doubling"))
        obs = parse_observable(d.get("observable", {}), zeta)
        offs = d.get("offsets", [1])
        offs = offs if isinstance(offs, (list, tuple)) else [offs]
        offsets = _convert("offsets", lambda v: EscapeOffsets(tuple(_integer(p) for p in v)), offs)
        tau = _convert("tau", lambda v: [float(t) for t in v], d.get("tau", [1.0]))
        n = _convert("n", lambda v: [_integer(x) for x in v], d.get("n", [10000]))
        trials = _convert("trials", _integer, d.get("trials", 10000))
        seed = _convert("seed", _integer, d["seed"])
        extras = {k: d[k] for k in ("word", "profile") if k in d}
        for key, convert in (("delta", _positive), ("horizon_factor", _integer), ("cylinder_n", _integer)):
            if key in d:
                extras[key] = _convert(key, convert, d[key])
        if trials < 2:
            raise ConfigError("trials: must be >= 2")
        if any(x < 1 for x in n):
            raise ConfigError("n: entries must be >= 1")
        if not all(0.0 <= t < math.inf for t in tau):
            raise ConfigError("tau: entries must be finite and >= 0")
        if extras.get("cylinder_n", 1) < 1:
            raise ConfigError("cylinder_n: must be >= 1")
        known = {
            "experiment", "process", "observable", "zeta", "offsets", "tau", "n",
            "trials", "seed", "out", "emit_plot_data", "delta", "horizon_factor",
            "cylinder_n", "word", "profile",
        }
        unknown = set(d) - known
        if unknown:
            raise ConfigError(f"unknown config key(s): {sorted(unknown)}")
        raw = dict(d)
        raw.setdefault("process", spec.label)
        return ExperimentConfig(
            kind=kind,
            spec=spec,
            obs=obs,
            zeta=zeta,
            offsets=offsets,
            tau=tau,
            n=n,
            trials=trials,
            seed=seed,
            out=Path(d.get("out", "evl-results")),
            emit_plot_data=bool(d.get("emit_plot_data", False)),
            extras=extras,
            raw=raw,
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
    try:
        if cfg.spec.kind in ("m_ary", "dyadic_jump", "chebyshev"):
            return theory.analytic_ei(cfg.spec, cfg.zeta).theta
        return theory.analytic_ei(cfg.spec).theta
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
    delta = cfg.extras.get("delta", 2.0**-10)
    hf = cfg.extras.get("horizon_factor", 20)
    target = hts_rts.TargetSet.ball(cfg.spec, cfg.zeta, delta)
    th = _analytic_theta(cfg)
    sampler = hts_rts.sample_hts if mode == "hts" else hts_rts.sample_rts
    samples = sampler(cfg.spec, target, cfg.trials, cfg.seed, horizon_factor=hf)
    cdf = theory.theoretical_cdf(mode, th if not math.isnan(th) else 1.0)
    if mode == "rts":
        unc = ~samples.censored
        eps = estimators.ATOM_EPS
        atom = float(((samples.times <= eps) & unc).mean())
        cont = np.sort(samples.times[(samples.times > eps) & unc])
        base = theory.theoretical_cdf("hts", th if not math.isnan(th) else 1.0)
        f0 = float(base(eps))
        fx = (np.asarray(base(cont)) - f0) / (1.0 - f0)
        k = cont.size
        ks = float(
            max(
                np.abs(np.arange(1, k + 1) / k - fx).max(),
                np.abs(np.arange(0, k) / k - fx).max(),
            )
        )
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
    k = cfg.extras.get("cylinder_n", 10)
    word = cfg.extras.get("word", cfg.zeta or "champernowne")
    if word == "champernowne":
        w = symbolic.champernowne_bits(k)
        th = 1.0
    elif word == "sqrt2":
        w = symbolic.sqrt2_minus1_bits(k)
        th = 1.0
    else:
        root = symbolic.SymbolicWord.parse(word, cfg.spec.base)
        reps = -(-k // len(root))
        w = symbolic.SymbolicWord((root.digits * reps)[:k], cfg.spec.base)
        th = theory.analytic_ei(cfg.spec, root).theta
    for tau in cfg.tau:
        est = estimators.cylinder_ei(cfg.spec, w, tau, cfg.trials, cfg.seed)
        rep.rows.append([str(w), k, tau, est.theta, est.stderr, th, cfg.trials, cfg.seed])
    return rep


def _run_symbolic(cfg):
    rep = ExperimentReport(header=["word_len", "n", "r_n", "decided", "i_n", "a_n", "q_n"])
    word = symbolic.SymbolicWord.parse(cfg.extras.get("word", cfg.zeta), cfg.spec.base)
    ps = symbolic.period_sequence(word)
    for rec in ps.records:
        rep.rows.append([len(word), rec.n, rec.r, int(rec.decided), rec.i, rec.a, rec.q])
    rep.provenance["p_values"] = list(ps.values)
    return rep


def _run_tail_check(cfg):
    rep = ExperimentReport(
        header=["process", "observable", "u", "tail_analytic", "tail_empirical", "stderr", "samples"]
    )
    from .observables import level_for_tau

    pts = point_values_at(cfg.spec, cfg.seed, np.arange(cfg.trials), [0])[:, 0]
    xs = cfg.obs.apply(cfg.spec, pts)
    for n in cfg.n:
        for tau in cfg.tau:
            u = level_for_tau(cfg.spec, cfg.obs, n, tau)
            p = tail_probability(cfg.spec, cfg.obs, u)
            emp = float((xs > u).mean())
            se = math.sqrt(max(p * (1 - p), 1e-12) / cfg.trials)
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
    t0 = time.time()
    if cfg.kind not in _RUNNERS:
        raise ConfigError(f"experiment {cfg.kind!r} is not directly runnable")
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
    """Run the bundled acceptance experiments in sequence."""
    out = Path(out_dir)
    for name, sub in reproduce_paper_configs(profile).items():
        sub = dict(sub)
        sub["seed"] = seed
        sub["out"] = str(out / name)
        run_experiment(sub)
    return out


def main(argv=None):
    ap = argparse.ArgumentParser(prog="evl-lab", description=__doc__)
    ap.add_argument("experiment", choices=EXPERIMENTS)
    ap.add_argument("--config", type=Path, help="JSON configuration file")
    ap.add_argument("--process")
    ap.add_argument("--observable")
    ap.add_argument("--zeta")
    ap.add_argument("--offsets", help="comma separated, e.g. 1,3")
    ap.add_argument("--tau", help="comma separated")
    ap.add_argument("--n", help="comma separated")
    ap.add_argument("--trials", type=int)
    ap.add_argument("--seed", type=int)
    ap.add_argument("--out")
    ap.add_argument("--emit-plot-data", action="store_true", default=None)
    ap.add_argument("--delta", type=float)
    ap.add_argument("--horizon-factor", type=int)
    ap.add_argument("--cylinder-n", type=int)
    ap.add_argument("--word")
    ap.add_argument("--profile", choices=("full", "quick"), default=None)
    args = ap.parse_args(argv)

    d = {}
    if args.config:
        try:
            d = json.loads(args.config.read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError) as e:
            print(f"error: cannot read config: {e}", file=sys.stderr)
            return 2
    d["experiment"] = args.experiment
    overrides = {
        "process": args.process,
        "observable": args.observable,
        "zeta": args.zeta,
        "trials": args.trials,
        "seed": args.seed,
        "out": args.out,
        "emit_plot_data": args.emit_plot_data,
        "delta": args.delta,
        "horizon_factor": args.horizon_factor,
        "cylinder_n": args.cylinder_n,
        "word": args.word,
        "profile": args.profile,
    }
    for k, v in overrides.items():
        if v is not None:
            d[k] = v
    try:
        for k, conv in (("offsets", int), ("tau", float), ("n", int)):
            v = getattr(args, k)
            if v is not None:
                d[k] = [_convert(k, conv, x) for x in str(v).split(",")]
        if args.experiment == "reproduce-paper":
            if "seed" not in d:
                raise ConfigError("seed: required key is missing")
            seed = _convert("seed", _integer, d["seed"])
            run_reproduce_paper(d.get("out", "evl-results"), seed, d.get("profile", "full"))
            return 0
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
