"""The benchmark's workloads: how each is set up and run, and how its output is checked.

``setup`` and ``run`` execute in a fresh worker process (they import
``evl_lab``); ``check`` executes in the parent and sees only the JSON outputs
that ``run`` returned, so a reference value can be changed without touching
the program.  Sizes keep the horizons ``n`` of the profiles behind the
workload choice and scale the trial counts ``T`` down so that one operation
takes a few seconds and a run holds several of them.
"""

from __future__ import annotations

import hashlib
import json
import math
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

#: estimator checks: |theta - ref| <= max(THETA_TOL, SE_MULT * stderr).
#: THETA_TOL is the acceptance suite's; that suite checks one fixed seed at 3
#: stderr, but a benchmark pass checks hundreds of seeds, where 3 stderr would
#: fail one seed in 370 by chance and 5 stderr fails fewer than one in a million.
THETA_TOL = 0.03
SE_MULT = 5.0


@dataclass
class Workload:
    name: str
    definition: str
    sizes: dict
    refs: dict
    setup: Callable  # (sizes, seed, scratch_dir) -> context      [worker]
    run: Callable    # context -> JSON-able outputs                [worker]
    check: Callable  # (outputs, refs, first_outputs) -> [problem]  [parent]


# ---------------------------------------------------------------------------
# checks (parent side)
# ---------------------------------------------------------------------------


def _theta_problems(label, theta, se, ref):
    if not (math.isfinite(theta) and math.isfinite(se)):
        return [f"{label}: non-finite estimate {theta!r} +- {se!r}"]
    tol = max(THETA_TOL, SE_MULT * se)
    if abs(theta - ref) > tol:
        return [f"{label}: {theta:.4f} vs {ref:.4f} +- {tol:.4f}"]
    return []


def _repeat_problems(outputs, first):
    if first is not None and outputs != first:
        return ["outputs differ from an earlier operation at the same seed"]
    return []


def check_bundle(outputs, refs, first=None):
    got = {e["method"]: e for e in outputs["estimates"]}
    problems = _repeat_problems(outputs, first)
    for method, ref in refs.items():
        if method not in got:
            problems.append(f"{method}: missing")
            continue
        problems += _theta_problems(method, got[method]["theta"], got[method]["stderr"], ref)
    return problems


_ESTIMATE_COLUMNS = ("theta_hat", "stderr", "ks", "atom_mass", "mean_normalized", "censored_frac", "value")
_NP_SCALAR = re.compile(r"^np\.float64\((.*)\)$")


def _cell_float(text):
    m = _NP_SCALAR.match(text)
    return float(m.group(1) if m else text)


def _csv_rows(text):
    """Rows of a results.csv as dicts, fields aligned from the right.

    Process and target labels such as ``m_ary(m=2,uniform)`` are written
    unquoted, so a row can hold more fields than the header; the estimate
    columns all sit to the right of those labels.
    """
    lines = text.splitlines()
    header = lines[0].split(",")
    return [dict(zip(header, line.split(",")[-len(header):])) for line in lines[1:] if line]


def check_reproduce(outputs, refs, first=None):
    """Every experiment wrote results.csv and provenance.json with finite
    estimates, and results.csv is byte-identical to an earlier operation at
    the same seed (provenance.json holds a wall time, so it is not compared)."""
    problems = []
    exps = outputs["experiments"]
    missing = sorted(set(refs["experiments"]) - set(exps))
    if missing:
        problems.append(f"experiments missing: {missing}")
    for name, e in sorted(exps.items()):
        if e["results_csv"] is None or e["provenance"] is None:
            problems.append(f"{name}: results.csv or provenance.json not written")
            continue
        prov = json.loads(e["provenance"])
        if prov.get("seed") != outputs["seed"] or "config" not in prov:
            problems.append(f"{name}: provenance.json lacks the config or seed")
        rows = _csv_rows(e["results_csv"])
        if not rows:
            problems.append(f"{name}: results.csv has no rows")
        for i, row in enumerate(rows):
            for col in _ESTIMATE_COLUMNS:
                if col not in row or (col == "atom_mass" and row.get("mode") == "hts"):
                    continue  # hitting-time rows carry no atom by design
                try:
                    ok = math.isfinite(_cell_float(row[col]))
                except ValueError:
                    ok = False
                if not ok:
                    problems.append(f"{name}: row {i} {col}={row[col]!r} is not finite")
        if first is not None:
            ref_digest = first["experiments"].get(name, {}).get("digest")
            if e["digest"] != ref_digest:
                problems.append(f"{name}: results.csv differs from an earlier operation at the same seed")
    return problems


# ---------------------------------------------------------------------------
# set-up and run (worker side)
# ---------------------------------------------------------------------------


def setup_doubling(sizes, seed, scratch):
    from evl_lab import hts_rts
    from evl_lab.escapes import EscapeOffsets
    from evl_lab.observables import ObservableSpec, level_for_tau
    from evl_lab.processes import ProcessSpec

    spec = ProcessSpec.doubling()
    obs = ObservableSpec(family="ball_measure", form="gumbel", anchor="0")
    level_for_tau(spec, obs, sizes["n"], sizes["tau"])
    hts_rts.TargetSet.ball_of_measure(spec, obs, sizes["rts_measure"])
    return dict(spec=spec, obs=obs, offsets=EscapeOffsets((1,)), seed=seed, **sizes)


def run_bundle(ctx):
    from evl_lab import estimators

    ests = estimators.estimate_ei_bundle(
        ctx["spec"], ctx["obs"], ctx["offsets"], ctx["tau"], ctx["n"], ctx["trials"], ctx["seed"],
        rts_measure=ctx["rts_measure"],
    )
    return {"estimates": [{"method": e.method, "theta": e.theta, "stderr": e.stderr} for e in ests]}


def setup_reproduce(sizes, seed, scratch):
    from evl_lab import cli

    out = Path(scratch) / "reproduce"
    for name, cfg in cli.reproduce_paper_configs(sizes["profile"]).items():
        cli.ExperimentConfig.from_dict({**cfg, "seed": seed, "out": str(out / name)})
    return dict(cli=cli, out=out, seed=seed, profile=sizes["profile"])


def run_reproduce(ctx):
    rc = ctx["cli"].main(
        ["reproduce-paper", "--profile", ctx["profile"], "--seed", str(ctx["seed"]), "--out", str(ctx["out"])]
    )
    if rc != 0:
        raise RuntimeError(f"evl-lab reproduce-paper exited with {rc}")
    return collect_reproduce(ctx["out"], ctx["seed"])


def collect_reproduce(out, seed):
    exps = {}
    for d in sorted(p for p in Path(out).iterdir() if p.is_dir()):
        res, prov = d / "results.csv", d / "provenance.json"
        data = res.read_bytes() if res.exists() else None
        exps[d.name] = {
            "results_csv": data.decode("utf-8") if data is not None else None,
            "digest": hashlib.sha256(data).hexdigest() if data is not None else None,
            "provenance": prov.read_text(encoding="utf-8") if prov.exists() else None,
        }
    nbytes = sum(p.stat().st_size for p in Path(out).rglob("*") if p.is_file())
    return {"seed": seed, "experiments": exps, "bytes_written": nbytes}


_REPRODUCE_EXPERIMENTS = (
    "ar1_r2", "ar1_r3", "ar1_r5", "mma2", "mma13", "chebyshev", "doubling", "bernoulli01",
    "hts_doubling", "rts_doubling", "conditions_ar1", "dichotomy_champernowne", "symbolic_blocks",
)

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="ei_doubling",
            definition="estimate_ei_bundle on doubling, ball_measure:gumbel at zeta=0, offsets (1), tau=1",
            sizes={"n": 5000, "trials": 10000, "tau": 1.0, "rts_measure": 2.0**-10},
            refs={"MaxLaw": 0.5, "EscapeLaw": 0.5, "Runs": 0.5, "RtsAtom": 0.5},
            setup=setup_doubling,
            run=run_bundle,
            check=check_bundle,
        ),
        Workload(
            name="reproduce_quick",
            definition="evl-lab reproduce-paper --profile quick into a scratch directory",
            sizes={"profile": "quick"},
            refs={"experiments": _REPRODUCE_EXPERIMENTS},
            setup=setup_reproduce,
            run=run_reproduce,
            check=check_reproduce,
        ),
    )
}
