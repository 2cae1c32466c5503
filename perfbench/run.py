"""evl-lab benchmark: run one workload repeatedly in fresh processes and report metrics.

    python3 perfbench/run.py --workload ei_doubling --seed 7 --seconds 60 --trace 0

Operations (one workload run each, in a fresh interpreter) run one after
another for about ``--seconds``, each at its own program seed derived from
``--seed``: the Monte Carlo cost of a workload depends on the seed (the mma
rejection loop draws the maximum of T geometric attempt counts), so a run
averages over several seeds.  Each operation's output is checked; one that
raises or misses its check counts as failed.  ``--trace 0`` reports the
end-to-end metrics (medians over the operations); ``--trace 1`` runs an
untraced and a traced operation at each seed and reports the per-layer
metrics of the traced ones.  The last line of standard output is the
result object; the line before it records the environment.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

#: fewest distinct program seeds per run
MIN_SEEDS = 2
#: program seed of operation i; a stride this large keeps runs at nearby
#: --seed values from sharing program seeds
SEED_STRIDE = 1_000_003
#: set-up-only processes started before the operations; they also compile bytecode
SETUP_PROBES = 3
#: no operation starts after this many seconds, and none may outlast it
DEADLINE_S = 150.0

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MiB"}


def _git_commit():
    """HEAD of the checkout's git directory, read from files; 'unknown' outside git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _spawn(workload, seed, trace, setup_only, timeout):
    """Run one worker process; returns its JSON record (or an error record)."""
    cmd = [
        sys.executable,
        str(HERE / "worker.py"),
        "--workload", workload.name,
        "--seed", str(seed),
        "--sizes", json.dumps(workload.sizes),
        "--trace", str(trace),
    ]
    if setup_only:
        cmd.append("--setup-only")
    launch = time.monotonic()
    cmd += ["--launch", repr(launch)]
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    try:
        out, err = proc.communicate(timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        return {"error": f"operation killed after {timeout:.0f} s"}
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"error": f"worker exited with {proc.returncode}: {err.strip()[-2000:]}"}
    return json.loads(lines[-1])


def program_seed(seed, i):
    return seed + SEED_STRIDE * i


def _median(xs):
    return statistics.median(xs) if xs else float("nan")


def run(workload_name, seed, seconds, trace):
    """Run the benchmark and return (result, environment) dictionaries."""
    w = workloads.WORKLOADS[workload_name]
    env = {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "git_commit": _git_commit(),
        "workload": w.name,
        "definition": w.definition,
        "sizes": w.sizes,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "loadavg_before": os.getloadavg(),
    }
    t_start = time.monotonic()

    def remaining():
        return DEADLINE_S - (time.monotonic() - t_start)

    setups = []
    for _ in range(SETUP_PROBES):
        rec = _spawn(w, seed, 0, True, remaining())
        if "setup_s" in rec:
            setups.append(rec["setup_s"])
    ops = []
    outputs_by_seed = {}

    def operation(i, traced):
        op_seed = program_seed(seed, i)
        t0 = time.monotonic()
        rec = _spawn(w, op_seed, int(traced), False, remaining())
        rec.update(traced=traced, seed=op_seed, elapsed=time.monotonic() - t0)
        problems = [rec["error"]] if "error" in rec else []
        if not problems:
            try:
                problems = w.check(rec["outputs"], w.refs, outputs_by_seed.get(op_seed))
            except (KeyError, TypeError, ValueError) as e:
                problems = [f"malformed output: {e!r}"]
            outputs_by_seed.setdefault(op_seed, rec["outputs"])
        rec["problems"] = problems
        if "setup_s" in rec and not traced:
            setups.append(rec["setup_s"])
        ops.append(rec)
        print(
            f"[{w.name}] op {len(ops)} seed {op_seed}{' traced' if traced else ''}: "
            f"wall={rec.get('wall_s', float('nan')):.3f}s setup={rec.get('setup_s', float('nan')):.3f}s "
            f"rss={rec.get('peak_rss_mb', float('nan')):.1f}MiB cpu={rec.get('cpu_s', float('nan')):.2f}s "
            + ("OK" if not problems else "FAILED: " + "; ".join(problems)),
            file=sys.stderr,
        )

    # One operation per program seed while the next one is expected to end
    # by --seconds plus half an operation, so that a run lasts --seconds on
    # average.  A traced run adds a traced twin at each seed, whose outputs
    # must match the untraced operation's exactly: that checks both that the
    # program is deterministic and that the tracer does not change results.
    group = 2 if trace else 1
    i = 0
    while remaining() > 0:
        typical = _median([r["elapsed"] for r in ops]) if ops else 0.0
        if i >= MIN_SEEDS and time.monotonic() - t_start + group * typical / 2 > seconds:
            break
        operation(i, False)
        if trace:
            operation(i, True)
        i += 1
    env["loadavg_after"] = os.getloadavg()
    env["numpy"] = next((r["numpy"] for r in ops if "numpy" in r), "unknown")
    failed = sum(1 for r in ops if r["problems"])
    plain = [r for r in ops if not r["traced"] and "wall_s" in r]
    walls = sorted(r["wall_s"] for r in plain)
    env["operations"] = [
        {k: r.get(k) for k in ("seed", "traced", "wall_s", "setup_s", "peak_rss_mb", "cpu_s", "problems")}
        for r in ops
    ]
    env["wall_s_samples"] = len(walls)
    env["wall_s_max"] = walls[-1] if walls else None
    env["setup_s_samples"] = len(setups)
    if trace:
        layer_ops = [r["layers"] for r in ops if r["traced"] and "layers" in r]
        untraced_wall = {r["seed"]: r["wall_s"] for r in plain}
        overheads = [
            r["wall_s"] - untraced_wall[r["seed"]]
            for r in ops
            if r["traced"] and "wall_s" in r and r["seed"] in untraced_wall
        ]
        metrics = {}
        for name, unit in _per_layer_units():
            if name == "trace.overhead_s":
                value = _median(overheads)
            else:
                value = _median([lay[name] for lay in layer_ops])
            metrics[name] = {"value": value, "unit": unit}
    else:
        values = {
            "wall_s": _median(walls),
            "setup_s": _median(setups),
            "peak_rss_mb": _median([r["peak_rss_mb"] for r in plain]),
        }
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
    result = {"correct": failed == 0 and bool(ops), "attempted": len(ops), "failed": failed, "metrics": metrics}
    return result, env


def _per_layer_units():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return [(m["name"], m["unit"]) for m in spec["per_layer"]]


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "evl_lab" / "__init__.py").is_file():
        print(f"error: evl_lab sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    result, env = run(args.workload, args.seed, args.seconds, args.trace)
    values = [m["value"] for m in result["metrics"].values()]
    if any(v != v for v in values):  # NaN: no operation produced a measurement
        print("error: no operation produced a measurement", file=sys.stderr)
        return 1
    print(json.dumps({"environment": env}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
