"""One benchmark operation in a fresh interpreter: set up, run, report one JSON line.

Started by ``run.py`` (never by hand); ``--launch`` is the parent's
``time.monotonic()`` just before it started this process, so ``setup_s``
covers interpreter start, importing evl_lab and building the workload's
specs, levels and targets.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: scratch space inside the checkout (results of reproduce-paper, span dumps)
OUT = ROOT / ".perfbench_out"


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--sizes", required=True, help="JSON object of workload sizes")
    ap.add_argument("--launch", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    import evl_lab  # noqa: F401  (part of set-up)
    import numpy
    import workloads

    w = workloads.WORKLOADS[args.workload]
    scratch = OUT / f"op-{os.getpid()}"
    result = {"pid": os.getpid(), "numpy": numpy.__version__}
    rec = None
    t0 = None
    try:
        if args.trace:
            import tracer

            rec = tracer.Recorder()
            tracer.install(rec)
        ctx = w.setup(json.loads(args.sizes), args.seed, scratch)
        result["setup_s"] = time.monotonic() - args.launch
        if not args.setup_only:
            t0 = time.perf_counter()
            outputs = w.run(ctx)
            result["wall_s"] = time.perf_counter() - t0
            result["outputs"] = outputs
    except Exception:
        result["error"] = traceback.format_exc()
        if t0 is not None:
            result["wall_s"] = time.perf_counter() - t0
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    t = os.times()
    result["cpu_s"] = t.user + t.system
    if rec is not None and "outputs" in result:
        layers = tracer.per_layer_metrics(rec)
        layers["cli.bytes_written"] = result["outputs"].get("bytes_written", 0)
        result["layers"] = layers
        OUT.mkdir(exist_ok=True)
        rec.write_tsv(OUT / f"spans-{args.workload}-seed{args.seed}.tsv")
    print(json.dumps(result))


if __name__ == "__main__":
    main()
