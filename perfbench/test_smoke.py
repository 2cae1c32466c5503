"""Smoke test of the benchmark at toy sizes (about a minute):

    python3 -m pytest perfbench/test_smoke.py -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))

TOY_SIZES = {
    "ei_doubling": {"n": 500, "trials": 1000, "tau": 1.0, "rts_measure": 2.0**-7},
    "reproduce_quick": {"profile": "quick"},
}


@pytest.fixture
def toy(monkeypatch):
    for name, sizes in TOY_SIZES.items():
        monkeypatch.setattr(workloads.WORKLOADS[name], "sizes", sizes)
    monkeypatch.setattr(run, "SETUP_PROBES", 1)
    monkeypatch.setattr(run, "MIN_SEEDS", 1)
    return monkeypatch


def _result(capsys, *argv):
    assert run.main(list(argv)) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    env, result = json.loads(lines[-2]), json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    return env["environment"], result


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("name", list(TOY_SIZES))
def test_every_end_to_end_metric_printed(toy, capsys, name):
    env, result = _result(capsys, "--workload", name, "--seed", "3", "--seconds", "0", "--trace", "0")
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {m: v["unit"] for m, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in SPEC["end_to_end"]
    }
    assert all(v["value"] > 0 for v in result["metrics"].values())
    for key in ("nproc", "python", "numpy", "git_commit", "seed", "sizes", "loadavg_before", "loadavg_after"):
        assert key in env
    assert all("cpu_s" in op for op in env["operations"])


@pytest.mark.parametrize("name", list(TOY_SIZES))
def test_every_per_layer_metric_printed(toy, capsys, name):
    _, result = _result(capsys, "--workload", name, "--seed", "3", "--seconds", "0", "--trace", "1")
    assert result["correct"] and result["attempted"] == 2
    assert {m: v["unit"] for m, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in SPEC["per_layer"]
    }
    assert result["metrics"]["processes.trial_steps"]["value"] > 0
    assert result["metrics"]["rng.words"]["value"] > 0


def test_wrong_reference_counts_as_failed(toy, capsys):
    w = workloads.WORKLOADS["ei_doubling"]
    toy.setattr(w, "refs", {**w.refs, "MaxLaw": 0.9})
    _, result = _result(capsys, "--workload", "ei_doubling", "--seed", "3", "--seconds", "0", "--trace", "0")
    assert (result["correct"], result["attempted"], result["failed"]) == (False, 1, 1)


def test_changed_digest_counts_as_failed():
    out = {"seed": 1, "experiments": {"x": {"results_csv": "a,value\n1,0.5\n", "digest": "d1", "provenance": '{"seed": 1, "config": {}}'}}}
    first = {"experiments": {"x": {"digest": "d0"}}}
    refs = {"experiments": ("x",)}
    assert workloads.check_reproduce(out, refs) == []
    assert workloads.check_reproduce(out, refs, first)


def test_fails_without_the_program(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "ei_doubling", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0 and proc.stdout.strip() == ""
