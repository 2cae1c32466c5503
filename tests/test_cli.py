import csv
import json
from pathlib import Path

import pytest

from evl_lab.cli import (
    ConfigError,
    ExperimentConfig,
    main,
    parse_process,
    reproduce_paper_configs,
    run_experiment,
    run_reproduce_paper,
)
from evl_lab.processes import Ensemble


def test_parse_process_variants():
    assert parse_process("ar1:r=3").r == 3
    assert parse_process("bernoulli:alpha=0.3").weights == (0.3, 0.7)
    assert parse_process({"kind": "m_ary", "m": 3}).m == 3
    assert parse_process("m_ary:m=3,weights=0.2|0.3|0.5").weights == (0.2, 0.3, 0.5)
    with pytest.raises(ConfigError):
        parse_process("warp_drive")
    with pytest.raises(ConfigError):
        parse_process({"weights": [0.5, 0.5]})  # no kind


def test_config_validation_names_offending_key(tmp_path):
    with pytest.raises(ConfigError, match="seed"):
        ExperimentConfig.from_dict({"experiment": "estimate-ei"})
    with pytest.raises(ConfigError, match="experiment"):
        ExperimentConfig.from_dict({"experiment": "nope", "seed": 1})
    with pytest.raises(ConfigError, match="trials"):
        ExperimentConfig.from_dict({"experiment": "estimate-ei", "seed": 1, "trials": 1})
    with pytest.raises(ConfigError, match="banana"):
        ExperimentConfig.from_dict({"experiment": "estimate-ei", "seed": 1, "banana": 2})
    for key in ("trials_scale", "n_scale"):
        with pytest.raises(ConfigError, match=key):
            ExperimentConfig.from_dict({"experiment": "estimate-ei", "seed": 1, key: 2})
    bad = [("offsets", 0), ("offsets", [1, -3]), ("offsets", "x"), ("tau", ["x"]), ("tau", 1.0),
           ("n", ["x"]), ("trials", "x"), ("trials", None), ("seed", "x")]
    for key, value in bad:
        with pytest.raises(ConfigError, match=f"^{key}: "):
            ExperimentConfig.from_dict({"experiment": "estimate-ei", "seed": 1, key: value})
    # on the command line they exit 2 and write no results
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"trials": "x", "seed": 1}')
    for argv in (["--offsets", "0", "--seed", "1"], ["--offsets", "x", "--seed", "1"], ["--config", str(cfg)]):
        out = tmp_path / "out"
        assert main(["estimate-ei", *argv, "--out", str(out)]) == 2, argv
        assert not out.exists()
    cfg.write_text('{"seed": "x"}')
    assert main(["reproduce-paper", "--config", str(cfg), "--out", str(tmp_path / "r")]) == 2


def test_config_rejects_fractional_integers_and_bad_delta(tmp_path):
    # integer keys are not truncated, delta must be a positive finite radius
    # and tau finite
    base = {"experiment": "rts", "seed": 1}
    bad = [("trials", 2000.5), ("n", [500.5]), ("seed", 7.5), ("offsets", [1.5]),
           ("horizon_factor", 12.7), ("horizon_factor", "x"), ("horizon_factor", float("inf")),
           ("cylinder_n", 10.5), ("cylinder_n", 0), ("trials", float("nan")),
           ("delta", "abc"), ("delta", -0.01), ("delta", 0.0), ("delta", float("nan")),
           ("delta", float("inf")), ("tau", [float("nan")]), ("tau", [float("inf")])]
    for key, value in bad:
        with pytest.raises(ConfigError, match=f"^{key}: "):
            ExperimentConfig.from_dict({**base, key: value})
    cfg = ExperimentConfig.from_dict(
        {**base, "trials": 2000.0, "n": [500.0], "horizon_factor": 12.0, "delta": "0.001"}
    )
    assert (cfg.trials, cfg.n, cfg.extras["horizon_factor"], cfg.extras["delta"]) == (2000, [500], 12, 0.001)
    # on the command line they exit 2 and write no results
    for key, value in (("horizon_factor", 12.7), ("delta", -0.01), ("trials", 2000.5)):
        out = tmp_path / key
        cfg_file = tmp_path / f"{key}.json"
        cfg_file.write_text(json.dumps({"seed": 1, "trials": 100, "out": str(out), key: value}))
        assert main(["rts", "--config", str(cfg_file)]) == 2, key
        assert not out.exists()
    cfg_file.write_text('{"seed": 7.5}')
    assert main(["reproduce-paper", "--config", str(cfg_file), "--out", str(tmp_path / "r")]) == 2


def _ei_config(out, trials=4000, n=500):
    return {
        "experiment": "estimate-ei",
        "process": "ar1:r=2",
        "observable": "distance:weibull",
        "zeta": None,
        "offsets": [1],
        "tau": [1.0],
        "n": [n],
        "trials": trials,
        "seed": 42,
        "out": str(out),
    }


def test_estimate_ei_writes_expected_rows(tmp_path):
    rep = run_experiment(_ei_config(tmp_path / "r1"))
    text = (tmp_path / "r1" / "results.csv").read_text()
    lines = text.strip().split("\n")
    assert lines[0].split(",")[:7] == [
        "process", "observable", "zeta", "p_or_offsets", "n", "tau", "method",
    ]
    methods = [ln.split(",")[6] for ln in lines[1:]]
    assert methods == ["MaxLaw", "EscapeLaw", "Runs", "RtsAtom"]
    for ln in lines[1:]:
        assert ln.split(",")[9] == "0.5"  # theta_analytic column


def test_rerun_is_byte_identical(tmp_path):
    run_experiment(_ei_config(tmp_path / "a"))
    run_experiment(_ei_config(tmp_path / "b"))
    a = (tmp_path / "a" / "results.csv").read_bytes()
    b = (tmp_path / "b" / "results.csv").read_bytes()
    assert a == b


def test_provenance_round_trips(tmp_path):
    run_experiment(_ei_config(tmp_path / "p"))
    prov = json.loads((tmp_path / "p" / "provenance.json").read_text())
    assert prov["seed"] == 42
    cfg2 = ExperimentConfig.from_dict(prov["config"])
    assert cfg2.spec.label == "ar1(r=2)"
    assert cfg2.trials == 4000 and cfg2.n == [500]
    assert "wall_time_s" in prov


def test_symbolic_experiment(tmp_path):
    word = ("0" * 14 + "1") * 10 + "001"
    rc = main(["symbolic", "--word", word, "--seed", "1", "--out", str(tmp_path / "s")])
    assert rc == 0
    prov = json.loads((tmp_path / "s" / "provenance.json").read_text())
    assert prov["p_values"] == [1, 15, 153]
    rows = (tmp_path / "s" / "results.csv").read_text().strip().split("\n")
    assert len(rows) == 154  # header + one row per n


def test_tail_check_experiment(tmp_path):
    rc = main(
        [
            "tail-check", "--process", "chebyshev", "--observable", "distance:weibull",
            "--zeta", "0", "--tau", "1", "--n", "100,1000", "--trials", "20000",
            "--seed", "3", "--out", str(tmp_path / "t"),
        ]
    )
    assert rc == 0
    lines = (tmp_path / "t" / "results.csv").read_text().strip().split("\n")
    assert len(lines) == 3
    for ln in lines[1:]:
        parts = ln.split(",")
        ana, emp, se = float(parts[3]), float(parts[4]), float(parts[5])
        assert abs(ana - emp) <= 4 * se + 1e-4


def test_hts_experiment_with_plot_data(tmp_path):
    rc = main(
        [
            "hts", "--process", "doubling", "--zeta", "0", "--trials", "4000",
            "--seed", "9", "--delta", "0.001", "--out", str(tmp_path / "h"),
            "--emit-plot-data",
        ]
    )
    assert rc == 0
    plot = (tmp_path / "h" / "plotdata.tsv").read_text().strip().split("\n")
    assert plot[0] == "t\tF_empirical\tF_theory"
    assert len(plot) > 100
    row = plot[50].split("\t")
    assert abs(float(row[1]) - float(row[2])) < 0.05


def test_invalid_config_exit_code(tmp_path):
    rc = main(["estimate-ei", "--process", "nonsense", "--seed", "1", "--out", str(tmp_path)])
    assert rc == 2


def test_numeric_failure_writes_error_row(tmp_path):
    # tau/n > 1 has no valid level: machine-readable error row, nonzero exit
    rc = main(
        [
            "estimate-ei", "--process", "ar1:r=2", "--observable", "distance:weibull",
            "--tau", "5", "--n", "2", "--trials", "100", "--seed", "1",
            "--out", str(tmp_path / "e"),
        ]
    )
    assert rc == 1
    text = (tmp_path / "e" / "results.csv").read_text()
    assert text.startswith("error")


def test_reproduce_paper_quick_profile_is_scaled():
    cfgs = reproduce_paper_configs("quick")
    assert all(c["trials"] <= 5000 for c in cfgs.values())
    full = reproduce_paper_configs("full")
    assert full["ar1_r2"]["trials"] == 100000
    assert set(cfgs) == set(full)


#: results.csv columns that hold labels; every other column is numeric
LABEL_COLUMNS = {"process", "observable", "zeta", "p_or_offsets", "method", "target", "mode", "name", "word"}


def test_quick_profile_results_csv_parses(tmp_path):
    # labels such as m_ary(m=2,weights=0.3,0.7) and p=1,3 hold commas
    run_reproduce_paper(tmp_path, 7, "quick")
    files = sorted(tmp_path.glob("*/results.csv"))
    assert len(files) == len(reproduce_paper_configs("quick"))
    for path in files:
        with open(path, newline="", encoding="utf-8") as f:
            header, *rows = list(csv.reader(f))
        assert rows, path
        for row in rows:
            assert len(row) == len(header), (path, row)
            for col, cell in zip(header, row):
                if col not in LABEL_COLUMNS:
                    float(cell)


def test_dichotomy_requires_word_or_zeta(tmp_path):
    rc = main(
        [
            "dichotomy", "--process", "doubling", "--word", "champernowne",
            "--cylinder-n", "8", "--trials", "3000", "--seed", "4",
            "--out", str(tmp_path / "d"),
        ]
    )
    assert rc == 0
    lines = (tmp_path / "d" / "results.csv").read_text().strip().split("\n")
    assert len(lines) == 2
    theta = float(lines[1].split(",")[3])
    assert abs(theta - 1.0) < 0.1


def test_conditions_sweeps_each_ensemble_twice(tmp_path, monkeypatch):
    # periodicity_report reads the exceedances, escape_statistics the escapes
    extras = []
    sweep = Ensemble.mask_chunks

    def counted(self, event, extra=0):
        extras.append(extra)
        return sweep(self, event, extra)

    monkeypatch.setattr(Ensemble, "mask_chunks", counted)
    rep = run_experiment(
        {
            "experiment": "conditions", "process": "ar1:r=2", "observable": "distance:weibull",
            "offsets": [1], "tau": [1.0], "n": [400], "trials": 2000, "seed": 3,
            "out": str(tmp_path / "c"),
        }
    )
    assert len(extras) == 2
    names = [row[0] for row in rep.rows]
    assert names[-3:] == ["escape_pair_sum", "mixing_gap", "escape_rate"]
