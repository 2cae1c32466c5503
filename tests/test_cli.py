import csv
import hashlib
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
    for text in ("ar1", "m_ary", "bernoulli", "m_ary:weights=0.5|0.5"):
        with pytest.raises(ConfigError, match="^process: .* missing parameter"):
            parse_process(text)
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


def test_config_rejects_fractional_integers_and_bad_delta(tmp_path, capsys):
    # integer keys are not truncated nor read from JSON booleans, delta must
    # be a positive finite radius and tau finite
    base = {"experiment": "rts", "seed": 1, "zeta": "0"}
    bad = [("trials", 2000.5), ("n", [500.5]), ("seed", 7.5), ("seed", True), ("offsets", [1.5]),
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
    # on the command line they exit 2 with the key named and write no results
    for key, value in (
        ("horizon_factor", 12.7), ("delta", -0.01), ("trials", 2000.5), ("seed", True), ("trials", True),
    ):
        out = tmp_path / key
        cfg_file = tmp_path / f"{key}.json"
        cfg_file.write_text(json.dumps({"seed": 1, "trials": 100, "zeta": "0", "out": str(out), key: value}))
        assert main(["rts", "--config", str(cfg_file)]) == 2, key
        assert capsys.readouterr().err.startswith(f"config error: {key}: "), key
        assert not out.exists()
    cfg_file.write_text('{"seed": 7.5}')
    assert main(["reproduce-paper", "--config", str(cfg_file), "--out", str(tmp_path / "r")]) == 2


def test_hts_rts_config_errors_exit_before_running(tmp_path):
    # a horizon below the truncation-bias bound and a map kind without a word
    # anchor are named config errors: exit 2, no output directory
    for mode in ("hts", "rts"):
        for key, extra in (("horizon_factor", {"zeta": "0", "horizon_factor": 5}), ("zeta", {})):
            with pytest.raises(ConfigError, match=f"^{key}: "):
                ExperimentConfig.from_dict({"experiment": mode, "seed": 1, **extra})
            out = tmp_path / f"{mode}-{key}"
            cfg_file = tmp_path / "cfg.json"
            cfg_file.write_text(json.dumps({"seed": 1, "trials": 100, "out": str(out), **extra}))
            assert main([mode, "--config", str(cfg_file)]) == 2, (mode, key)
            assert not out.exists()
    # series kinds sit at the endpoint anchor without a zeta
    assert ExperimentConfig.from_dict({"experiment": "rts", "seed": 1, "process": "ar1:r=2"}).zeta is None


@pytest.mark.parametrize(
    "argv, config, key",
    [
        (["estimate-ei", "--process", "ar1:r=x"], {}, "process"),
        (["estimate-ei", "--process", "ar1:r=1"], {}, "process"),
        (["estimate-ei", "--process", "bernoulli:alpha=1.5", "--zeta", "0"], {}, "process"),
        (["estimate-ei", "--process", "m_ary:m=3,weights=0.2|0.3", "--zeta", "0"], {}, "process"),
        (["estimate-ei", "--process", "doubling:m=3", "--zeta", "0"], {}, "process"),
        (["estimate-ei", "--process", "ar1:r=3,foo=1"], {}, "process"),
        (["estimate-ei", "--process", "mma2", "--zeta", "0"], {}, "zeta"),
        (["estimate-ei", "--process", "doubling", "--zeta", "2"], {}, "zeta"),
        (["estimate-ei", "--process", "doubling"], {}, "zeta"),
        (["conditions", "--process", "chebyshev"], {}, "zeta"),
        (["tail-check", "--process", "dyadic_jump"], {}, "zeta"),
        (["symbolic"], {}, "word"),
        (["dichotomy", "--process", "doubling", "--word", "012"], {}, "word"),
        (["hts", "--zeta", "0"], {"emit_plot_data": "false"}, "emit_plot_data"),
        (["reproduce-paper"], {"profile": "fast"}, "profile"),
        (["estimate-ei"], [1], "config"),
        (["dichotomy", "--process", "mma2"], {}, "process"),
        (["dichotomy", "--process", "dyadic_jump", "--word", "011"], {}, "word"),
        # JSON booleans are not numbers (the flags above override seed and trials)
        (["estimate-ei", "--process", "ar1:r=2"], {"n": [True]}, "n"),
        (["estimate-ei", "--process", "ar1:r=2"], {"offsets": True}, "offsets"),
        (["estimate-ei", "--process", "ar1:r=2"], {"tau": [True]}, "tau"),
        (["rts", "--zeta", "0"], {"delta": True}, "delta"),
        (["rts", "--zeta", "0"], {"horizon_factor": True}, "horizon_factor"),
        (["dichotomy"], {"cylinder_n": True}, "cylinder_n"),
        # tau = 0 leaves no maximum law to invert (conditions and tail-check accept it)
        (["estimate-ei", "--process", "ar1:r=2", "--tau", "0"], {}, "tau"),
        (["estimate-ei", "--process", "ar1:r=2"], {"tau": [1.0, 0]}, "tau"),
        (["dichotomy", "--tau", "0"], {}, "tau"),
    ],
)
def test_bad_input_is_a_named_config_error(argv, config, key, tmp_path, capsys):
    # each exits 2 before running anything, so no output directory appears
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps(config))
    out = tmp_path / "out"
    assert main([*argv, "--config", str(cfg_file), "--seed", "1", "--trials", "100", "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith(f"config error: {key}: ")
    assert not out.exists()


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


def test_rts_without_returns_past_the_atom_writes_error_row(tmp_path):
    # at seed 4 neither return lies past the atom, so there is no continuous
    # part to compare: a named error row, not a numpy reduction error
    rc = main(
        [
            "rts", "--process", "doubling", "--zeta", "0", "--delta", "1e-6",
            "--trials", "2", "--seed", "4", "--out", str(tmp_path / "r"),
        ]
    )
    assert rc == 1
    assert (tmp_path / "r" / "results.csv").read_text().startswith("error\nno uncensored return time past the atom")


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


@pytest.mark.parametrize("word, theta", [("0", 0.5), ("01", 0.75)])
def test_dichotomy_chebyshev_theory_is_the_cylinder_index(word, theta, tmp_path):
    # chebyshev cylinders lie on the doubling coordinate: 1 - 2**-p at prime period p
    rc = main(
        [
            "dichotomy", "--process", "chebyshev", "--word", word, "--cylinder-n", "10",
            "--trials", "3000", "--seed", "3", "--out", str(tmp_path / "d"),
        ]
    )
    assert rc == 0
    with open(tmp_path / "d" / "results.csv", newline="", encoding="utf-8") as f:
        (row,) = csv.DictReader(f)
    assert float(row["theta_theory"]) == theta
    assert abs(float(row["theta_hat"]) - theta) <= 4 * float(row["stderr"]) + 0.02


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


# sha256 of the output files of small runs through main, each run in its own
# working directory with "--out r" so that the echoed config is the same on
# every host; provenance.json is hashed without its wall_time_s line.  Each
# process is given once as a compact string and once as the equivalent dict
# (the "-dict" runs read it from a config file), and both give one results.csv.
CLI_KAT_RUNS = {
    "estimate-ei": ("estimate-ei", None, [
        "--process", "bernoulli:alpha=0.3", "--zeta", "01", "--offsets", "2", "--tau", "1",
        "--n", "300", "--trials", "2000", "--seed", "7"]),
    "estimate-ei-dict": ("estimate-ei", {
        "process": {"kind": "m_ary", "m": 2, "weights": [0.3, 0.7]}, "zeta": "01", "offsets": [2],
        "n": [300], "trials": 2000}, ["--seed", "7"]),
    "hts": ("hts", None, [
        "--process", "doubling", "--zeta", "0", "--trials", "2000", "--seed", "9", "--delta", "0.001",
        "--horizon-factor", "12", "--emit-plot-data"]),
    "rts": ("rts", None, ["--process", "ar1:r=2", "--trials", "2000", "--seed", "5", "--emit-plot-data"]),
    "rts-dict": ("rts", {"process": {"kind": "ar1", "r": 2}, "emit_plot_data": True}, [
        "--trials", "2000", "--seed", "5"]),
    "conditions": ("conditions", None, [
        "--process", "mma2", "--observable", "distance:weibull", "--offsets", "2", "--n", "300",
        "--trials", "1000", "--seed", "3"]),
    "dichotomy": ("dichotomy", None, [
        "--process", "m_ary:m=3", "--word", "12", "--cylinder-n", "6", "--tau", "1,2",
        "--trials", "2000", "--seed", "4"]),
    "dichotomy-dict": ("dichotomy", {
        "process": {"kind": "m_ary", "m": 3}, "word": "12", "cylinder_n": 6, "tau": [1.0, 2.0]}, [
        "--trials", "2000", "--seed", "4"]),
    "dichotomy-sqrt2": ("dichotomy", None, [
        "--word", "sqrt2", "--cylinder-n", "8", "--trials", "2000", "--seed", "4"]),
    "symbolic": ("symbolic", None, ["--zeta", "00100100", "--seed", "1"]),
    "tail-check": ("tail-check", None, [
        "--process", "chebyshev", "--observable", "distance:weibull", "--zeta", "0", "--n", "100,1000",
        "--trials", "2000", "--seed", "3"]),
}
CLI_KAT = {
    "estimate-ei": {
        "results.csv": "1f19b420a9077ca040e539aa915a72cd3c48fa128dcb37e2889c8b2efc5e18cc",
        "provenance.json": "ed0ae8efd870c27110e1d9377f453276fd15804f2aab2d70587a9699697a9ab1",
    },
    "estimate-ei-dict": {
        "results.csv": "1f19b420a9077ca040e539aa915a72cd3c48fa128dcb37e2889c8b2efc5e18cc",
        "provenance.json": "43a2ef6950134ac9edce01297b2be0a018cfad010b4de9a544028ef19ebdce3a",
    },
    "hts": {
        "results.csv": "598b3b8698e76b14bd19f7469bf98227f9f827d9a0be4ac904a1aad6197e67de",
        "plotdata.tsv": "30c1d236006b6807e2dec87bb1cb62aaf004e679f15c1b5f9f0bdd76c5240813",
        "provenance.json": "b4ffeea7b2192aabecbac2c623ec866a01773154c84014f571d1ac7dce87116e",
    },
    "rts": {
        "results.csv": "67abddd34de89ecc92bc3ddff14b5cefa5428abdd578230aecf4f42b7f174cb8",
        "plotdata.tsv": "12e4c4998f4d7e28f08a4198a070da94ef9ef1f40ad8317017d5291d2efdade3",
        "provenance.json": "0e125ef337ec7d052164ef29551c3cf2a6d0f024a1ae1832a187efbb818f5f70",
    },
    "rts-dict": {
        "results.csv": "67abddd34de89ecc92bc3ddff14b5cefa5428abdd578230aecf4f42b7f174cb8",
        "plotdata.tsv": "12e4c4998f4d7e28f08a4198a070da94ef9ef1f40ad8317017d5291d2efdade3",
        "provenance.json": "70ecd51b09bc594b0932facee929995f971a849b04efb2ec1fa808a3d567bc0c",
    },
    "conditions": {
        "results.csv": "2558e58e2334223988c9fa0271537cb4e8c4b22e2c800d89454760f7d8746f9a",
        "provenance.json": "b56422d65d678e87c66941488a506f8031399db0cc661a3bee12f8e178ca2135",
    },
    "dichotomy": {
        "results.csv": "4f217f13511d217225b7f6b9e04fb04da0106b189fa40a603a69c9f7d7d06620",
        "provenance.json": "c21900bbc030fff860c497196a1b27206e697628e230ee54e49aa787037e849d",
    },
    "dichotomy-dict": {
        "results.csv": "4f217f13511d217225b7f6b9e04fb04da0106b189fa40a603a69c9f7d7d06620",
        "provenance.json": "655067e32fbc7f4271b70e2608fe8976586eace137505a72a74c35084e0756be",
    },
    "dichotomy-sqrt2": {
        "results.csv": "136b2e3c22c97f87d30e3f6ef9714ac519888561e3a6b2bc4521d4b13de617f6",
        "provenance.json": "28210ddec0f060d05d267a25252a91d59a936259b24e8db4958162bccb35404b",
    },
    "symbolic": {
        "results.csv": "eb510da9e26851229a23c58396441c2d94db869eb43129dcadd008cf5a7950e8",
        "provenance.json": "d8ca32b41cb9dda35285a312de0ea375169406ebe4fe5eff27ab96f72091f10f",
    },
    "tail-check": {
        "results.csv": "c719a069e07b98e010e71533925a862d00dff25d645ee3f8dc4162b759a1c213",
        "provenance.json": "b74c1070e19c6d60c6a5f88e0d761377e46303ee8478402df5e1e05353c3c2a5",
    },
}


@pytest.mark.parametrize("run", list(CLI_KAT_RUNS))
def test_cli_known_answer_digests(run, tmp_path, monkeypatch):
    experiment, config, argv = CLI_KAT_RUNS[run]
    monkeypatch.chdir(tmp_path)
    if config is not None:
        Path("cfg.json").write_text(json.dumps(config))
        argv = ["--config", "cfg.json", *argv]
    assert main([experiment, *argv, "--out", "r"]) == 0
    got = {}
    for path in sorted(Path("r").iterdir()):
        lines = path.read_bytes().splitlines(keepends=True)
        got[path.name] = hashlib.sha256(b"".join(ln for ln in lines if b'"wall_time_s"' not in ln)).hexdigest()
    assert got == CLI_KAT[run]
