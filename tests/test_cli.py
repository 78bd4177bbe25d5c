import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from bnsjump import cli, labeling, subordinators, synthetic, tables
from bnsjump.classifiers import ALGORITHM_IDS, DEFAULT_HYPERPARAMS, resolve_hyperparams
from bnsjump.cli import EXIT_CONFIG, EXIT_INTERNAL, EXIT_IO, EXIT_OK, main
from bnsjump.errors import NumericOverflowError
from bnsjump.labeling import (
    LabelingConfig,
    build_dataset,
    index_series,
    mark_big_jumps,
    read_dataset_csv,
)
from bnsjump.market_data import load_bars, pct_change, preprocess, resample, write_bars_csv
from bnsjump.synthetic import synthetic_bars

from brute_force import assert_same_text, brute_force_write_bars_csv, brute_force_write_dataset_csv


def tree_bytes(root: Path) -> dict[str, bytes]:
    return {str(p.relative_to(root)): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


@pytest.fixture(scope="module")
def bars_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "bars.csv"
    bars = synthetic_bars(days=6, seed=7)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        write_bars_csv(fh, bars)
    return path


PIPELINE_FLAGS = ["--interval", "1", "--window", "8", "--lookahead", "8",
                  "--min-jumps", "1", "--algorithms", "knn,naive_bayes_gaussian,decision_tree",
                  "--split", "T1=7:700/701:900", "--split", "T2=7:900/901:1100",
                  "--seed", "3"]

# the flags each data subcommand is run with where only its exit code matters
DATA_FLAGS = {
    "ingest": [],
    "stats": ["--interval", "1", "--group-by", "month"],
    "label": ["--interval", "1", "--min-jumps", "1"],
    "pipeline": PIPELINE_FLAGS,
}

# one value outside the domain of each option of cli.OPTIONS that has a domain
OUT_OF_DOMAIN = {
    "paths": "0", "seed": "-1", "mu": "inf", "beta": "nan", "rho": "0.5", "lam": "0",
    "theta": "1.5", "sigma0_sq": "-inf", "nu_base": "-1", "a_base": "0", "nu_strong": "nan",
    "a_strong": "inf", "t_end": "0", "dt": "-0.01", "noise_std": "-1", "threads": "0",
    "trim_minutes": "-1", "interval": "0", "window": "0", "lookahead": "-3",
    "threshold_pct": "nan", "min_jumps": "0", "stride": "0", "algorithms": "knn,bogus",
    "calendar": "bogus", "outlier_sigma": "0", "group_by": "sideways", "direction": "sideways",
    "algorithm": "knearest",
}

# (reading stage, option, config section, subcommand, flag or config) for each
# option with a domain and each subcommand whose stages read it
DOMAIN_CASES = [
    pytest.param(stage, name, section, subcommand, via, id=f"{subcommand}-{name}-{via}")
    for stage, table in cli.OPTIONS.items()
    for name, (section, _, _, domain) in table.items() if domain is not None
    for subcommand, (_, stages, _) in cli.DATA_COMMANDS.items() if stage in stages
    for via in ("flag", "config")
]

# the same for each number or boolean option and the first subcommand that
# reads it, with the word its text must be; a boolean flag takes no text
TYPE_CASES = [
    pytest.param(stage, name, section, subcommand, via, kind, id=f"{subcommand}-{name}-{via}")
    for stage, table in cli.OPTIONS.items()
    for name, (section, typ, _, _) in table.items()
    if typ is not str
    for subcommand in [next(c for c, (_, stages, _) in cli.DATA_COMMANDS.items() if stage in stages)]
    for via in (("config",) if typ is bool else ("flag", "config"))
    for kind in [{int: "an integer", float: "a number", bool: "true or false"}[typ]]
]


# every hyperparameter with each text of a fixed pool, and the small sizes the
# swept algorithm's other keys run at
HP_TEXTS = ("0", "-1", "1", "2.5", ".5", "+3", "1e3", "NaN", "Infinity", "true", "yes", "x")
HP_CASES = [pytest.param(alg, key, text, id=f"{alg}.{key}={text}")
            for alg, defaults in DEFAULT_HYPERPARAMS.items() for key in defaults for text in HP_TEXTS]
HP_SMOKE = {"logistic_regression": {"epochs": 5}, "svm_linear": {"epochs": 5},
            "kmeans": {"iterations": 5, "restarts": 1}, "gradient_boost": {"rounds": 3},
            "random_forest": {"trees": 3}, "neural_net": {"hidden_width": 4, "epochs": 5}}


def hp_accepted(default, key: str, text: str) -> bool:
    """The rule, stated here: a switch takes configparser's words; a number
    takes Python's text of its default's type, finite and above 0, and
    ``l2``, ``max_depth`` and ``min_leaf`` take 0."""
    if isinstance(default, bool):
        return text.lower() in ("true", "false", "yes", "no", "on", "off", "1", "0")
    try:
        value = type(default)(text)
    except ValueError:
        return False
    return 0 <= value < math.inf if key in ("l2", "max_depth", "min_leaf") else 0 < value < math.inf


@pytest.fixture(scope="module")
def labeled_csv(tmp_path_factory, bars_csv):
    """The 6-day seed-7 labels: the first anchor is 9, and none lies in 218..236."""
    out = tmp_path_factory.mktemp("lb")
    assert main(["label", "--input", str(bars_csv), "--out", str(out),
                 "--interval", "1", "--min-jumps", "1"]) == EXIT_OK
    return out / "labeled.csv"


@pytest.fixture(scope="module")
def small_labeled_csv(tmp_path_factory):
    """80 labeled rows of three features, both classes in every split part."""
    rng = np.random.default_rng(4)
    path = tmp_path_factory.mktemp("labeled") / "labeled.csv"
    path.write_text("index,f1,f2,f3,theta\n" + "".join(
        f"{i},{a:.4f},{b:.4f},{c:.4f},{int(a + b > 0)}\n"
        for i, (a, b, c) in enumerate(rng.normal(size=(80, 3)))), encoding="utf-8")
    return path


def refused_argv(tmp_path, subcommand: str, name: str, section: str, via: str, text: str) -> list[str]:
    """A run of ``subcommand`` whose option ``name`` is ``text``, given as a
    flag or in a config file, and whose input does not exist."""
    missing = str(tmp_path / "missing.csv")
    argv = {"simulate": [],
            "train": ["--dataset", missing, "--train", "0:5"]
            + ([] if name == "algorithm" else ["--algorithm", "knn"]),
            "report": ["--dataset", missing, "--split", "T=0:5/6:10"]}.get(
        subcommand, ["--input", missing])
    if via == "flag":
        return argv + [f"{cli._flag(name)}={text}"]  # '=' so that argparse takes '-inf' as a value
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(f"[{section}]\n{name} = {text}\n", encoding="utf-8")
    return argv + ["--config", str(cfg)]


class TestSimulate:
    def test_poisson_mean_over_numpy_limit(self, tmp_path, capsys):
        """lam * nu * t_end = 1e20 is past numpy's Poisson limit; the error names that count."""
        assert main(["simulate", "--out", str(tmp_path / "sim"), "--nu-base", "1e10",
                     "--nu-strong", "1e10", "--lam", "1e10", "--paths", "1", "--t-end", "1",
                     "--dt", "0.1"]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("error: stage 'simulate': expected event count 1e+20 "), err
        assert err.count("\n") == 1

    def test_overflowing_summary_is_strict_json(self, tmp_path, capsys, recwarn):
        """A terminal-price variance that overflows is written as null, with no warning."""
        out = tmp_path / "sim"
        assert main(["simulate", "--out", str(out), "--paths", "3", "--beta", "1e200",
                     "--t-end", "1", "--dt", "0.5"]) == EXIT_OK

        def refuse(constant):
            raise ValueError(f"{constant} is not JSON")

        summary = json.loads((out / "summary.json").read_text(), parse_constant=refuse)
        assert summary["paths"]["x_terminal_var"] is None
        assert capsys.readouterr().err == "" and not recwarn.list

    def test_runs_and_reports_floor(self, tmp_path):
        out = tmp_path / "sim"
        code = main(["simulate", "--out", str(out), "--paths", "3", "--seed", "1",
                     "--dt", "0.01", "--t-end", "1"])
        assert code == EXIT_OK
        summary = json.loads((out / "summary.json").read_text())
        assert summary["paths"]["variance_floor_satisfied"] is True
        assert (out / "paths" / "path_00000.csv").exists()
        assert (out / "config_used.cfg").exists()

    def test_byte_identical_reruns_and_threads(self, tmp_path):
        runs = {}
        for name, threads in (("a", "1"), ("b", "1"), ("c", "3")):
            out = tmp_path / name
            code = main(["simulate", "--out", str(out), "--paths", "6", "--seed", "9",
                         "--threads", threads, "--noise-std", "0.01"])
            assert code == EXIT_OK
            runs[name] = tree_bytes(out)
        assert runs["a"] == runs["b"]
        assert runs["a"] == runs["c"]

    def test_theta_swap_changes_only_jump_driven_fields(self, tmp_path):
        summaries = {}
        for theta in ("0.0", "1.0"):
            out = tmp_path / f"theta{theta}"
            assert main(["simulate", "--out", str(out), "--paths", "40", "--seed", "4",
                         "--theta", theta]) == EXIT_OK
            summaries[theta] = json.loads((out / "summary.json").read_text())
        assert summaries["0.0"]["subordinator_mc"] == summaries["1.0"]["subordinator_mc"]
        assert (summaries["0.0"]["paths"]["x_terminal_mean"]
                != summaries["1.0"]["paths"]["x_terminal_mean"])

    def test_config_file_roundtrip(self, tmp_path):
        out1 = tmp_path / "r1"
        assert main(["simulate", "--out", str(out1), "--paths", "2", "--seed", "11",
                     "--theta", "0.25"]) == EXIT_OK
        out2 = tmp_path / "r2"
        assert main(["simulate", "--out", str(out2), "--config",
                     str(out1 / "config_used.cfg")]) == EXIT_OK
        t1, t2 = tree_bytes(out1), tree_bytes(out2)
        assert t1 == t2

    def test_config_with_byte_order_mark_reruns_identically(self, tmp_path):
        out1 = tmp_path / "r1"
        assert main(["simulate", "--out", str(out1), "--paths", "2", "--seed", "11",
                     "--noise-std", "0.01"]) == EXIT_OK
        cfg = tmp_path / "bom.cfg"
        cfg.write_bytes(b"\xef\xbb\xbf" + (out1 / "config_used.cfg").read_bytes())
        out2 = tmp_path / "r2"
        assert main(["simulate", "--out", str(out2), "--config", str(cfg)]) == EXIT_OK
        assert tree_bytes(out1) == tree_bytes(out2)

    @pytest.mark.parametrize("text", [None, b"paths = 2\n", b"[simulate]\npaths = 2\npaths = 3\n",
                                      b"[simulate]\npaths = \xff2\n"],
                             ids=["directory", "no-section", "duplicate-key", "not-utf8"])
    def test_unreadable_config_is_config_error(self, tmp_path, capsys, text):
        cfg = tmp_path / "run.cfg"
        if text is None:
            cfg.mkdir()
        else:
            cfg.write_bytes(text)
        out = tmp_path / "sim"
        assert main(["simulate", "--out", str(out), "--config", str(cfg)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(cfg) in err
        assert err.count("\n") == 1 and "Traceback" not in err
        assert not out.exists()

    def test_each_path_is_written_before_the_next_is_simulated(self, tmp_path, monkeypatch):
        out = tmp_path / "sim"
        seen = []
        sample = subordinators.sample_subordinator_path

        def recording(spec, rate, grid, seed):
            _, i, stream = seed
            if stream == 0:
                seen.append((i, (out / "paths" / f"path_{i - 1:05d}.csv").exists()))
            return sample(spec, rate, grid, seed=seed)

        monkeypatch.setattr(subordinators, "sample_subordinator_path", recording)
        assert main(["simulate", "--out", str(out), "--paths", "3", "--threads", "1"]) == EXIT_OK
        assert seen == [(0, False), (1, True), (2, True)]

    @pytest.mark.parametrize("flags", [
        ["--paths", "0"],
        ["--paths", "-1"],
        ["--t-end", "1", "--dt", "0.3"],
        ["--t-end", "0.001", "--dt", "0.01"],
    ], ids=["no-paths", "negative-paths", "partial-last-step", "shorter-than-one-step"])
    def test_bad_sizes_are_config_errors(self, tmp_path, capsys, flags):
        code = main(["simulate", "--out", str(tmp_path / "sim")] + flags)
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("error: stage 'simulate': ")
        assert "Traceback" not in err
        assert not (tmp_path / "sim").exists()

    @pytest.mark.parametrize("dt,n_steps", [("0.0002", 5000), ("0.005", 200), ("0.001", 1000),
                                            ("0.01", 100)])
    def test_whole_step_grids_are_accepted(self, tmp_path, dt, n_steps):
        out = tmp_path / "sim"
        assert main(["simulate", "--out", str(out), "--paths", "1", "--t-end", "1",
                     "--dt", dt]) == EXIT_OK
        grid = json.loads((out / "summary.json").read_text())["grid"]
        assert grid == {"dt": float(dt), "n_steps": n_steps, "t_end": 1.0}

    @pytest.mark.parametrize("flags,message", [
        (["--noise-std", "-1"], "noise_std must be at least 0, got -1"),
        (["--noise-std", "nan"], "noise_std must be finite, got nan"),
        (["--noise-std", "inf"], "noise_std must be finite, got inf"),
        (["--dt", "nan"], "dt must be finite, got nan"),
        (["--t-end", "inf"], "t_end must be finite, got inf"),
        (["--threads", "-2"], "threads must be at least 1, got -2"),
        (["--threads", "0"], "threads must be at least 1, got 0"),
    ], ids=["negative-noise", "nan-noise", "inf-noise", "nan-dt", "inf-t-end",
            "negative-threads", "zero-threads"])
    def test_bad_values_are_config_errors(self, tmp_path, capsys, flags, message):
        out = tmp_path / "sim"
        assert main(["simulate", "--out", str(out), "--paths", "1"] + flags) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err == f"error: stage 'simulate': {message}\n"
        assert not (out / "paths").exists()


    def test_s0_is_not_an_option(self, tmp_path):
        """Paths hold log prices from 0 and the summary has no price, so there is no s0."""
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--out", str(tmp_path / "sim"), "--paths", "1", "--s0", "5"])
        assert exc.value.code == 2
        assert "s0" not in cli.OPTIONS["simulate"]


class TestDataCommands:
    def test_ingest(self, tmp_path, bars_csv):
        out = tmp_path / "ing"
        assert main(["ingest", "--input", str(bars_csv), "--out", str(out)]) == EXIT_OK
        info = json.loads((out / "ingest.json").read_text())
        assert info["rows_after_preprocess"] > 0
        assert (out / "bars_clean.csv").exists()

    def test_stats(self, tmp_path, bars_csv):
        out = tmp_path / "st"
        assert main(["stats", "--input", str(bars_csv), "--out", str(out),
                     "--interval", "5", "--group-by", "month"]) == EXIT_OK
        stats = json.loads((out / "stats.json").read_text())
        assert "2021-01" in stats
        assert main(["stats", "--input", str(bars_csv), "--out", str(out)]) == EXIT_OK
        assert list(json.loads((out / "stats.json").read_text())) == ["overall"]

    def test_stats_config_roundtrip(self, tmp_path, bars_csv):
        """`stats` reads every option it echoes, `group_by` from [benchmark]."""
        first, second = tmp_path / "s1", tmp_path / "s2"
        assert main(["stats", "--input", str(bars_csv), "--out", str(first), "--interval", "1",
                     "--trim-minutes", "0", "--group-by", "month"]) == EXIT_OK
        assert main(["stats", "--input", str(bars_csv), "--out", str(second),
                     "--config", str(first / "config_used.cfg")]) == EXIT_OK
        assert (first / "stats.csv").read_text().splitlines()[1].startswith("2021-01,1440,")
        assert tree_bytes(first) == tree_bytes(second)

    def test_percent_in_config_values_is_literal(self, tmp_path, bars_csv):
        """A '%' in an echoed value or a hand-written [external] path is not
        interpolation syntax."""
        source = tmp_path / "bars%6.csv"
        source.write_bytes(bars_csv.read_bytes())
        first, second = tmp_path / "i1", tmp_path / "i2"
        assert main(["ingest", "--input", str(source), "--out", str(first)]) == EXIT_OK
        assert main(["ingest", "--input", str(source), "--out", str(second),
                     "--config", str(first / "config_used.cfg")]) == EXIT_OK
        assert (first / "bars_clean.csv").read_bytes() == (second / "bars_clean.csv").read_bytes()

        ext = tmp_path / "ext%20.csv"
        ext.write_text("index,predicted_theta\n" + "".join(f"{i},{i % 2}\n" for i in range(1400)))
        cfg = tmp_path / "external.cfg"
        cfg.write_text(f"[external]\next = {ext}\n", encoding="utf-8")
        out = tmp_path / "p"
        assert main(["pipeline", "--input", str(bars_csv), "--out", str(out), "--config", str(cfg)]
                    + PIPELINE_FLAGS + ["--algorithms", "knn"]) == EXIT_OK
        assert "external:ext" in (out / "reports.csv").read_text()
        assert f"ext = {ext}" in (out / "config_used.cfg").read_text()

    def test_ingest_has_no_interval_flag(self, tmp_path, bars_csv):
        with pytest.raises(SystemExit) as exc:
            main(["ingest", "--input", str(bars_csv), "--out", str(tmp_path / "o"),
                  "--interval", "7"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("stamps,line", [
        (["2021-01-04T09:45:00+08:00", "2021-01-04T09:46:00+08:00"], 2),
        (["2021-01-04 09:45:00", "2021-01-04T09:46:00Z"], 3),
    ], ids=["aware", "mixed"])
    def test_timezone_aware_input_is_io_error(self, tmp_path, capsys, stamps, line):
        """numpy would read an aware stamp in UTC and move it between sessions."""
        source = tmp_path / "aware.csv"
        source.write_text("timestamp,close\n" + "".join(f"{ts},5000.0\n" for ts in stamps))
        assert main(["ingest", "--input", str(source), "--out", str(tmp_path / "o")]) == EXIT_IO
        assert f"line {line}: timezone-aware timestamp" in capsys.readouterr().err

    def test_each_subcommand_writes_its_files(self, tmp_path, bars_csv):
        lb = tmp_path / "label"
        runs = {
            "ingest": ["ingest", "--input", str(bars_csv)],
            "stats": ["stats", "--input", str(bars_csv)],
            "label": ["label", "--input", str(bars_csv), "--interval", "1", "--min-jumps", "1"],
            "train": ["train", "--dataset", str(lb / "labeled.csv"), "--algorithm", "knn",
                      "--train", "7:800", "--test", "801:1000"],
            "report": ["report", "--dataset", str(lb / "labeled.csv"), "--algorithms", "knn",
                       "--split", "T1=7:800/801:1000"],
            "pipeline": ["pipeline", "--input", str(bars_csv)] + PIPELINE_FLAGS,
        }
        expected = {
            "ingest": {"bars_clean.csv", "ingest.json"},
            "stats": {"stats.csv", "stats.json", "ingest.json"},
            "label": {"labeled.csv", "label.json"},
            "train": {"train_report.json"},
            "report": {"reports.csv", "reports.txt", "hyperparams_used.json"},
            "pipeline": {"stats.csv", "stats.json", "rv_day.csv", "rv_day.json", "labeled.csv",
                         "reports.csv", "reports.txt", "hyperparams_used.json", "summary.json"},
        }
        for name, argv in runs.items():
            assert main(argv + ["--out", str(tmp_path / name)]) == EXIT_OK, name
            assert set(tree_bytes(tmp_path / name)) == expected[name] | {"config_used.cfg"}, name

    def test_label(self, tmp_path, bars_csv):
        out = tmp_path / "lb"
        assert main(["label", "--input", str(bars_csv), "--out", str(out),
                     "--interval", "1", "--min-jumps", "1"]) == EXIT_OK
        info = json.loads((out / "label.json").read_text())
        assert info["n_anchors"] > 0
        assert info["theta1"] > 0
        header = (out / "labeled.csv").read_text().splitlines()[0]
        assert header.startswith("index,f1,")

    def test_label_of_a_series_shorter_than_a_window_is_quiet(self, tmp_path, bars_csv):
        """No anchors is a result that ``label.json`` records, not a warning;
        run as a script, so that nothing the test harness installs catches
        what the run prints."""
        out = tmp_path / "lb"
        src = str(Path(cli.__file__).resolve().parent.parent)
        proc = subprocess.run(
            [sys.executable, "-m", "bnsjump", "label", "--input", str(bars_csv), "--out", str(out),
             "--interval", "1", "--min-jumps", "1", "--window", "2000"],
            capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src})
        assert (proc.returncode, proc.stderr) == (EXIT_OK, "")
        assert '"n_anchors": 0' in (out / "label.json").read_text()

    def test_train_subcommand(self, tmp_path, bars_csv):
        lb = tmp_path / "lb"
        assert main(["label", "--input", str(bars_csv), "--out", str(lb),
                     "--interval", "1", "--min-jumps", "1"]) == EXIT_OK
        out = tmp_path / "tr"
        assert main(["train", "--dataset", str(lb / "labeled.csv"), "--out", str(out),
                     "--algorithm", "knn", "--train", "7:800", "--test", "801:1000",
                     "--hp", "knn.k=3"]) == EXIT_OK
        payload = json.loads((out / "train_report.json").read_text())
        assert payload["test"]["n"] > 0
        assert payload["hyperparams"]["k"] == 3

    @pytest.mark.parametrize("algorithm", ["decision_tree", "knn"])
    def test_train_scores_a_cell_like_report(self, tmp_path, labeled_csv, algorithm):
        """Learners whose fit takes no seed score the same in ``train`` as in
        the ``report`` row of the same split."""
        tr, rp = tmp_path / "tr", tmp_path / "rp"
        assert main(["train", "--dataset", str(labeled_csv), "--out", str(tr), "--algorithm", algorithm,
                     "--train", "7:800", "--test", "801:1000"]) == EXIT_OK
        assert main(["report", "--dataset", str(labeled_csv), "--out", str(rp), "--algorithms", algorithm,
                     "--split", "T=7:800/801:1000"]) == EXIT_OK
        test = json.loads((tr / "train_report.json").read_text())["test"]
        header, row = (line.split(",") for line in (rp / "reports.csv").read_text().splitlines())
        written = dict(zip(header, row))
        assert written["algorithm"] == algorithm
        for c in (0, 1):
            want = test[f"class{c}"]
            assert [float(written[f"precision{c}"]), float(written[f"recall{c}"]),
                    float(written[f"f1_{c}"]), int(written[f"support{c}"])] == [
                want["precision"], want["recall"], want["f1"], want["support"]]

    def test_train_flags_a_single_class_range_degenerate(self, tmp_path, labeled_csv):
        """Anchors 10..29 are all class 0 in the 6-day seed-7 labels."""
        out = tmp_path / "tr"
        with pytest.warns(UserWarning, match="contains only class 0"):
            assert main(["train", "--dataset", str(labeled_csv), "--out", str(out), "--algorithm", "knn",
                         "--train", "10:29", "--test", "30:900"]) == EXIT_OK
        payload = json.loads((out / "train_report.json").read_text())
        assert payload["degenerate"] is True
        assert payload["test"]["class1"]["recall"] == 0.0

    @pytest.mark.parametrize("argv,line", [
        (["train", "--algorithm", "knn", "--train", "0:200", "--test", "219:225"],
         "stage 'fit': test range 219..225 selects no anchors"),
        (["train", "--algorithm", "knn", "--train", "0:8", "--test", "9:900"],
         "stage 'fit': train range 0..8 selects no anchors"),
        (["train", "--algorithm", "knn", "--train", "218:236"],
         "stage 'fit': train range 218..236 selects no anchors"),
        (["report", "--split", "T=0:200/219:225"],
         "stage 'benchmark': split T: test range 219..225 selects no anchors"),
        (["report", "--split", "T=0:8/9:900"],
         "stage 'benchmark': split T: train range 0..8 selects no anchors"),
        (["report", "--split", "T=0:900"], "stage 'benchmark': split T has no test range"),
        (["report", "--split", "A=0:200/201:300", "--split", "B=0:300/301:99999"],
         "stage 'benchmark': split B: test range 301..99999 outside index bounds 0..1367"),
    ], ids=["train-test", "train-train", "train-only", "report-test", "report-train",
            "report-no-test", "report-second-split"])
    def test_range_without_anchors_is_refused(self, tmp_path, capsys, labeled_csv, argv, line):
        """``train`` and ``report`` refuse a range with no anchors alike: exit
        2, one line naming the range, and no --out."""
        out = tmp_path / "o"
        assert main(argv + ["--dataset", str(labeled_csv), "--out", str(out)]) == EXIT_CONFIG
        assert capsys.readouterr().err == f"error: {line}\n"
        assert not out.exists()

    def test_report_subcommand(self, tmp_path, bars_csv):
        lb = tmp_path / "lb"
        assert main(["label", "--input", str(bars_csv), "--out", str(lb),
                     "--interval", "1", "--min-jumps", "1"]) == EXIT_OK
        out = tmp_path / "rp"
        assert main(["report", "--dataset", str(lb / "labeled.csv"), "--out", str(out),
                     "--algorithms", "knn,decision_tree",
                     "--split", "T1=7:800/801:1000"]) == EXIT_OK
        lines = (out / "reports.csv").read_text().splitlines()
        assert len(lines) == 3

    @pytest.mark.parametrize("subcommand", ["report", "pipeline"])
    def test_no_algorithms_and_no_external_is_config_error(self, tmp_path, capsys, bars_csv,
                                                           subcommand):
        """An empty algorithm list scores nothing unless --external gives rows,
        so it fails as stage 'benchmark' and writes no reports.csv."""
        lb = tmp_path / "lb"
        assert main(["label", "--input", str(bars_csv), "--out", str(lb),
                     "--interval", "1", "--min-jumps", "1"]) == EXIT_OK
        source = (["--dataset", str(lb / "labeled.csv")] if subcommand == "report"
                  else ["--input", str(bars_csv), "--interval", "1", "--min-jumps", "1"])
        out = tmp_path / "o"
        assert main([subcommand, "--out", str(out), "--algorithms", ",",
                     "--split", "T1=7:800/801:1000"] + source) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err == "error: stage 'benchmark': no algorithms and no external predictions to score\n"
        assert not (out / "reports.csv").exists()

    def test_label_at_year_scale(self, tmp_path, monkeypatch):
        """``label`` on 250 days of minute bars: labeled.csv reads back in
        bulk bit for bit as the dataset the library builds from the same bars,
        and holds the bytes the row-by-row writer makes of it; label.json
        counts it; the bars file holds the row-by-row writer's bytes and reads
        in bulk as row by row."""
        bars = synthetic_bars(days=250, seed=7)
        source = tmp_path / "year.csv"
        with open(source, "w", encoding="utf-8", newline="") as fh:
            write_bars_csv(fh, bars)
        out = tmp_path / "lab"
        assert main(["label", "--input", str(source), "--out", str(out),
                     "--interval", "1", "--min-jumps", "1"]) == EXIT_OK

        clean, _ = preprocess(bars)
        returns = pct_change(resample(clean, 1))
        indexed = index_series(returns)
        config = LabelingConfig(min_jumps=1)
        marks = mark_big_jumps(indexed, config)
        want = build_dataset(indexed, marks, config)

        def no_row_loop(*args, **kwargs):
            raise AssertionError("read row by row")

        with monkeypatch.context() as patch:
            patch.setattr(tables, "csv_rows", no_row_loop)
            got = read_dataset_csv(out / "labeled.csv")
            in_bulk, rejected = load_bars(source)
        for name in ("anchor_index", "features", "theta"):
            a, b = getattr(got, name), getattr(want, name)
            assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes(), name
        for path, writer, value in ((out / "labeled.csv", brute_force_write_dataset_csv, want),
                                    (source, brute_force_write_bars_csv, bars)):
            text = io.StringIO()
            writer(text, value)
            assert_same_text(path.read_text(encoding="utf-8"), text.getvalue())
        zeros, ones = want.class_counts()
        info = json.loads((out / "label.json").read_text(encoding="utf-8"))
        assert info["rows_loaded"] == len(bars) and info["rows_after_preprocess"] == len(clean)
        assert (info["n_returns"], info["n_marks"], info["n_anchors"], info["theta0"], info["theta1"]) \
            == (len(returns), int(marks.sum()), len(want), zeros, ones)
        with open(source, encoding="utf-8", newline="") as fh:
            by_row, rejected_by_row = load_bars(fh)
        assert rejected == rejected_by_row == 0
        for name in ("stamps", "closes", "session"):
            assert getattr(in_bulk, name).tobytes() == getattr(by_row, name).tobytes(), name

    def test_label_then_report_matches_pipeline(self, tmp_path, bars_csv):
        """The test range ends past the last anchor but inside the return
        series; both paths accept it and write the same reports."""
        flags = ["--interval", "1", "--min-jumps", "1", "--split", "T=0:700/701:1367",
                 "--algorithms", "knn,decision_tree,naive_bayes_gaussian"]
        pipe, lb, rp, st = tmp_path / "pipe", tmp_path / "lb", tmp_path / "rp", tmp_path / "st"
        assert main(["pipeline", "--input", str(bars_csv), "--out", str(pipe)] + flags) == EXIT_OK
        assert main(["stats", "--input", str(bars_csv), "--out", str(st),
                     "--interval", "1", "--group-by", "month"]) == EXIT_OK
        assert main(["stats", "--input", str(bars_csv), "--out", str(tmp_path / "st_cfg"),
                     "--config", str(pipe / "config_used.cfg")]) == EXIT_OK
        for name in ("stats.csv", "stats.json"):
            assert (st / name).read_bytes() == (pipe / name).read_bytes(), name
            assert (tmp_path / "st_cfg" / name).read_bytes() == (pipe / name).read_bytes(), name
        assert main(["label", "--input", str(bars_csv), "--out", str(lb),
                     "--interval", "1", "--min-jumps", "1"]) == EXIT_OK
        assert main(["report", "--dataset", str(lb / "labeled.csv"), "--out", str(rp)]
                    + flags[4:]) == EXIT_OK
        assert (rp / "reports.csv").read_bytes() == (pipe / "reports.csv").read_bytes()
        assert (lb / "labeled.csv").read_bytes() == (pipe / "labeled.csv").read_bytes()
        assert main(["train", "--dataset", str(lb / "labeled.csv"), "--out", str(tmp_path / "tr"),
                     "--algorithm", "knn", "--train", "0:700", "--test", "701:1367"]) == EXIT_OK
        (lb / "label.json").write_text("{}")
        assert main(["report", "--dataset", str(lb / "labeled.csv"), "--out", str(rp)]
                    + flags[4:]) == EXIT_IO


    def test_train_config_roundtrip(self, tmp_path, bars_csv):
        """`train` reads back its echoed [train] and [hyperparams] sections."""
        lb = tmp_path / "lb"
        assert main(["label", "--input", str(bars_csv), "--out", str(lb),
                     "--interval", "1", "--min-jumps", "1"]) == EXIT_OK
        dataset = str(lb / "labeled.csv")
        for name, flags in (("test", ["--test", "801:1000"]), ("no_test", [])):
            first, second = tmp_path / f"{name}1", tmp_path / f"{name}2"
            assert main(["train", "--dataset", dataset, "--out", str(first), "--algorithm",
                         "decision_tree", "--train", "7:800", "--seed", "5",
                         "--hp", "decision_tree.max_depth=2"] + flags) == EXIT_OK
            assert main(["train", "--dataset", dataset, "--out", str(second),
                         "--config", str(first / "config_used.cfg")]) == EXIT_OK
            assert tree_bytes(first) == tree_bytes(second), name
            assert "[splits]" not in (first / "config_used.cfg").read_text()

    def test_every_subcommand_runs_through_the_stage_table(self):
        choices = cli.build_parser()._subparsers._group_actions[0].choices
        assert set(choices) == set(cli.DATA_COMMANDS)
        assert all(stage in cli.STAGES for _, stages, _ in cli.DATA_COMMANDS.values()
                   for stage in stages)

    def test_parser_for_one_subcommand(self):
        """`main` builds flags only for the subcommand it runs; every
        subcommand is still offered, and a simulate line parses as it does
        with every subcommand's flags built."""
        one = cli.build_parser("simulate")
        choices = one._subparsers._group_actions[0].choices
        assert set(choices) == set(cli.DATA_COMMANDS)
        assert all(len(p._actions) == 1 for name, p in choices.items() if name != "simulate")
        line = ["simulate", "--out", "o", "--paths", "3", "--dt", "0.001", "--seed", "2",
                "--theta", "0.4", "--rho", "-0.5", "--noise-std", "0.01", "--threads", "2"]
        assert vars(one.parse_args(line)) == vars(cli.build_parser().parse_args(line))

    def test_option_flags_are_read_as_text(self):
        """argparse converts no option; `_resolve` reads each text as its type."""
        for p in cli.build_parser()._subparsers._group_actions[0].choices.values():
            assert all(action.type is None for action in p._actions)

    def test_train_flags_come_from_its_option_table(self):
        train = cli.build_parser()._subparsers._group_actions[0].choices["train"]
        flags = {flag for action in train._actions for flag in action.option_strings}
        assert flags == {"-h", "--help", "--out", "--config", "--dataset", "--hp",
                         "--algorithm", "--train", "--test", "--seed"}

    @pytest.mark.parametrize("config,line", [
        ("[train]\nalgorithm = knn\n", "--train or [train] train is required"),
        ("[train]\nalgorithm = knearest\ntrain = 7:800\n",
         "stage 'fit': algorithm must be one of " + ", ".join(ALGORITHM_IDS) + ", got knearest"),
        ("[train]\nalgorithm = knn\ntrain = 7:800\nseed = x\n",
         "stage 'fit': seed must be an integer, got x"),
    ], ids=["missing-train", "unknown-algorithm", "bad-seed"])
    def test_bad_train_options_are_config_errors(self, tmp_path, capsys, config, line):
        cfg = tmp_path / "train.cfg"
        cfg.write_text(config, encoding="utf-8")
        code = main(["train", "--dataset", str(tmp_path / "unread.csv"), "--out", str(tmp_path / "o"),
                     "--config", str(cfg)])
        assert code == EXIT_CONFIG
        assert capsys.readouterr().err == f"error: {line}\n"

    @pytest.mark.parametrize("text,line", [
        ("", 1),
        ("index,f1,theta\n9,0.5,1\n10,0.5\n", 3),
        ("index,f1,theta\n9,nope,1\n", 2),
    ], ids=["empty", "short-row", "non-numeric"])
    @pytest.mark.parametrize("subcommand", ["train", "report"])
    def test_malformed_labeled_csv_is_io_error(self, tmp_path, capsys, subcommand, text, line):
        dataset = tmp_path / "labeled.csv"
        dataset.write_text(text, encoding="utf-8")
        flags = {"train": ["--algorithm", "knn", "--train", "0:10"],
                 "report": ["--split", "T=0:5/6:10"]}[subcommand]
        code = main([subcommand, "--dataset", str(dataset), "--out", str(tmp_path / "o")] + flags)
        assert code == EXIT_IO
        assert f"stage 'load_labeled': line {line}: " in capsys.readouterr().err

    @pytest.mark.parametrize("text,line", [
        ("", 1),
        ("index,predicted_theta\n5\n", 2),
        ("index,predicted_theta\n5,x\n", 2),
        ("index,predicted_theta\n4,1\n5,2\n", 3),
        ("index,theta\n5,1\n", 1),
        ("index,predicted_theta\n5,1\n5,0\n", 3),
    ], ids=["empty", "one-field", "non-integer", "label-2", "header", "repeated-index"])
    @pytest.mark.parametrize("subcommand", ["report", "pipeline"])
    def test_malformed_external_predictions_is_io_error(self, tmp_path, capsys, bars_csv,
                                                         subcommand, text, line):
        external = tmp_path / "ext.csv"
        external.write_text(text, encoding="utf-8")
        dataset = tmp_path / "labeled.csv"
        dataset.write_text("index,f1,theta\n" + "".join(f"{i},0.{i},{i % 2}\n" for i in range(11)),
                           encoding="utf-8")
        argv = {"report": ["--dataset", str(dataset), "--split", "T=0:5/6:10"],
                "pipeline": ["--input", str(bars_csv)] + PIPELINE_FLAGS}[subcommand]
        code = main([subcommand, "--out", str(tmp_path / "o"), "--algorithms", "knn",
                     "--external", f"ext={external}"] + argv)
        assert code == EXIT_IO
        assert f"stage 'benchmark': ext={external}: line {line}: " in capsys.readouterr().err

    def test_bad_external_among_several_is_named(self, tmp_path, capsys):
        """With several --external files, the error names the bad one, which
        is read after a good one."""
        good = tmp_path / "good.csv"
        good.write_text("index,predicted_theta\n" + "".join(f"{i},1\n" for i in range(11)),
                        encoding="utf-8")
        bad = tmp_path / "one_field.csv"
        bad.write_text("index,predicted_theta\n5\n", encoding="utf-8")
        dataset = tmp_path / "labeled.csv"
        dataset.write_text("index,f1,theta\n" + "".join(f"{i},0.{i},{i % 2}\n" for i in range(11)),
                           encoding="utf-8")
        code = main(["report", "--dataset", str(dataset), "--out", str(tmp_path / "o"),
                     "--split", "T=0:5/6:10", "--algorithms", "knn",
                     "--external", f"second={bad}", "--external", f"first={good}"])
        assert code == EXIT_IO
        err = capsys.readouterr().err
        assert f"stage 'benchmark': second={bad}: line 2: expected 2 fields, got 1" in err
        assert "first=" not in err

    @pytest.mark.parametrize("subcommand", ["report", "pipeline"])
    def test_threads_below_one_is_config_error(self, tmp_path, capsys, bars_csv, subcommand):
        dataset = tmp_path / "labeled.csv"
        dataset.write_text("index,f1,theta\n" + "".join(f"{i},0.{i},{i % 2}\n" for i in range(11)),
                           encoding="utf-8")
        argv = {"report": ["--dataset", str(dataset), "--split", "T=0:5/6:10", "--algorithms", "knn"],
                "pipeline": ["--input", str(bars_csv)] + PIPELINE_FLAGS}[subcommand]
        out = tmp_path / "o"
        assert main([subcommand, "--out", str(out), "--threads", "-2"] + argv) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err == "error: stage 'benchmark': threads must be at least 1, got -2\n"
        assert not (out / "reports.csv").exists()

    def test_threads_checked_before_any_stage(self, tmp_path, capsys):
        """A bad --threads fails before ingest would fail on the missing input."""
        out = tmp_path / "o"
        assert main(["pipeline", "--input", str(tmp_path / "missing.csv"), "--out", str(out),
                     "--threads", "0"] + PIPELINE_FLAGS) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err == "error: stage 'benchmark': threads must be at least 1, got 0\n"
        assert not out.exists()

    @pytest.mark.parametrize("subcommand,stage", [("simulate", "simulate"), ("report", "benchmark"),
                                                  ("pipeline", "benchmark"), ("train", "fit")])
    def test_negative_seed_checked_before_any_stage(self, tmp_path, capsys, subcommand, stage):
        """A negative --seed fails as the stage that reads it, before a
        missing input would, and although naive Bayes never draws from it."""
        missing = str(tmp_path / "missing.csv")
        argv = {"simulate": [],
                "report": ["--dataset", missing, "--split", "T=0:5/6:10"],
                "pipeline": ["--input", missing] + PIPELINE_FLAGS,
                "train": ["--dataset", missing, "--train", "0:5"]}[subcommand]
        learner = {"simulate": [], "train": ["--algorithm", "naive_bayes_gaussian"]}.get(
            subcommand, ["--algorithms", "naive_bayes_gaussian"])
        out = tmp_path / "o"
        assert main([subcommand, "--out", str(out)] + argv + learner + ["--seed", "-1"]) == EXIT_CONFIG
        assert capsys.readouterr().err == f"error: stage '{stage}': seed must be at least 0, got -1\n"
        assert not out.exists()

    def test_negative_seed_fails_where_no_learner_draws_from_it(self, tmp_path, capsys, bars_csv):
        out = tmp_path / "o"
        assert main(["pipeline", "--input", str(bars_csv), "--out", str(out)] + PIPELINE_FLAGS
                    + ["--algorithms", "naive_bayes_gaussian", "--seed", "-1"]) == EXIT_CONFIG
        assert capsys.readouterr().err == "error: stage 'benchmark': seed must be at least 0, got -1\n"
        assert not out.exists()

    @pytest.mark.parametrize("subcommand", ["stats", "label", "pipeline"])
    @pytest.mark.parametrize("present", [False, True], ids=["missing-input", "input"])
    def test_interval_checked_before_any_stage(self, tmp_path, capsys, bars_csv, subcommand, present):
        """--interval 0 fails as stage resample before ingest loads the bars,
        or fails on a missing input."""
        source = str(bars_csv) if present else str(tmp_path / "missing.csv")
        out = tmp_path / "o"
        assert main([subcommand, "--input", source, "--out", str(out)] + DATA_FLAGS[subcommand]
                    + ["--interval", "0"]) == EXIT_CONFIG
        assert capsys.readouterr().err == "error: stage 'resample': interval must be at least 1, got 0\n"
        assert not out.exists()

    @pytest.mark.parametrize("subcommand", ["label", "pipeline"])
    @pytest.mark.parametrize("flag", ["--window", "--lookahead", "--min-jumps", "--stride",
                                      "--threshold-pct"])
    def test_labeling_checked_before_any_stage(self, tmp_path, capsys, subcommand, flag):
        """A bad labeling option fails before ingest would fail on the missing input."""
        out = tmp_path / "o"
        assert main([subcommand, "--input", str(tmp_path / "missing.csv"), "--out", str(out)]
                    + DATA_FLAGS[subcommand] + [flag, "0"]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("error: stage 'mark': ") and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("sigma", ["nan", "0", "-1", "inf", "Infinity", "1e999"])
    def test_outlier_sigma_must_be_finite_and_positive(self, tmp_path, capsys, bars_csv, sigma):
        out = tmp_path / "o"
        assert main(["pipeline", "--input", str(bars_csv), "--out", str(out),
                     "--outlier-sigma", sigma] + PIPELINE_FLAGS) == EXIT_CONFIG
        reason = "must be finite" if sigma in ("nan", "inf", "Infinity", "1e999") else "must be positive"
        err = capsys.readouterr().err
        assert err == f"error: stage 'ingest': outlier_sigma {reason}, got {sigma}\n"
        assert not out.exists()

    def test_outlier_sigma_checked_with_no_outliers(self, tmp_path, capsys, bars_csv):
        """--no-outliers does not use the sigma, but a bad one is still refused
        rather than echoed into config_used.cfg."""
        out = tmp_path / "o"
        assert main(["ingest", "--input", str(bars_csv), "--out", str(out), "--no-outliers",
                     "--outlier-sigma", "nan"]) == EXIT_CONFIG
        assert capsys.readouterr().err == "error: stage 'ingest': outlier_sigma must be finite, got nan\n"
        assert not out.exists()

    @pytest.mark.parametrize("hp", ["knn.k=0", "knn.k=-3", "knn.k=2.5", "random_forest.trees=0",
                                    "kmeans.restarts=0", "kmeans.k=0", "neural_net.hidden_width=0",
                                    "neural_net.epochs=1.5"])
    def test_count_hyperparams_below_one_are_config_errors(self, tmp_path, capsys, hp):
        """Checked with the other hyperparameters, before any stage runs: an
        integer one must be an integer, and a count at least 1."""
        dataset = tmp_path / "labeled.csv"
        dataset.write_text("index,f1,theta\n" + "".join(f"{i},0.{i},{i % 2}\n" for i in range(11)),
                           encoding="utf-8")
        out = tmp_path / "o"
        assert main(["report", "--dataset", str(dataset), "--out", str(out), "--split", "T=0:5/6:10",
                     "--algorithms", "knn,random_forest", "--hp", hp]) == EXIT_CONFIG
        key, value = hp.split("=")
        assert capsys.readouterr().err == f"error: {key} must be an integer >= 1, got {value}\n"
        assert not out.exists()

    @pytest.mark.parametrize("hp,message", [
        ("svm_linear.c=Infinity", "svm_linear.c must be a finite number > 0, got Infinity"),
        ("neural_net.threshold=1E400", "neural_net.threshold must be a finite number > 0, got 1E400"),
        ("bogus.k=1", "unknown algorithm bogus; expected one of " + ", ".join(ALGORITHM_IDS)),
        ("knn.kk=1", "unknown hyperparameter kk for knn"),
        ("knn=1", "hyperparameter knn must be algorithm.name"),
    ], ids=["inf-text", "overflow-text", "unknown-algorithm", "unknown-key", "no-dot"])
    def test_hyperparameter_refusals_quote_the_text_given(self, small_labeled_csv, tmp_path, capsys,
                                                          hp, message):
        out = tmp_path / "o"
        assert main(["report", "--dataset", str(small_labeled_csv), "--out", str(out),
                     "--split", "T=0:59/60:79", "--hp", hp]) == EXIT_CONFIG
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    def test_hyperparameter_kept_as_its_default_type(self, small_labeled_csv, tmp_path):
        """A float hyperparameter given as integer text is stored as a float;
        config_used.cfg echoes the text, and a rerun from it writes the same bytes."""
        assert type(resolve_hyperparams("svm_linear", {"c": 1})["c"]) is float
        first, second = tmp_path / "a", tmp_path / "b"
        common = ["report", "--dataset", str(small_labeled_csv), "--algorithms", "svm_linear"]
        assert main(common + ["--out", str(first), "--split", "T=0:59/60:79",
                              "--hp", "svm_linear.c=1", "--hp", "svm_linear.epochs=5"]) == EXIT_OK
        assert '"c": 1.0,' in (first / "hyperparams_used.json").read_text(encoding="utf-8")
        assert "svm_linear.c = 1\n" in (first / "config_used.cfg").read_text(encoding="utf-8")
        assert main(common + ["--out", str(second), "--config", str(first / "config_used.cfg")]) == EXIT_OK
        assert tree_bytes(first) == tree_bytes(second)

    @pytest.mark.parametrize("alg,key,text", HP_CASES)
    def test_every_hyperparameter_text_trains_or_is_refused(self, small_labeled_csv, tmp_path,
                                                            capsys, alg, key, text):
        """Each text either trains a model that gets its row, or is refused
        with one line before any stage runs, leaving no --out."""
        out = tmp_path / "o"
        hp = [f"{alg}.{name}={value}" for name, value in HP_SMOKE.get(alg, {}).items() if name != key]
        argv = ["report", "--dataset", str(small_labeled_csv), "--out", str(out),
                "--split", "T=0:59/60:79", "--algorithms", alg]
        for item in hp + [f"{alg}.{key}={text}"]:
            argv += ["--hp", item]
        code = main(argv)
        err = capsys.readouterr().err
        if hp_accepted(DEFAULT_HYPERPARAMS[alg][key], key, text):
            assert code == EXIT_OK, err
            assert len((out / "reports.csv").read_text(encoding="utf-8").splitlines()) == 2
        else:
            assert code == EXIT_CONFIG
            assert err.startswith(f"error: {alg}.{key} must be ") and err.endswith(f", got {text}\n"), err
            assert err.count("\n") == 1, err
            assert not out.exists()

    @pytest.mark.parametrize("stage,name,section,subcommand,via", DOMAIN_CASES)
    def test_every_domain_checked_before_any_stage(self, tmp_path, capsys, stage, name, section,
                                                   subcommand, via):
        """Each option with a domain, out of it as a flag or as a config value,
        fails as the stage that reads it, before a missing input is found."""
        out = tmp_path / "o"
        argv = refused_argv(tmp_path, subcommand, name, section, via, OUT_OF_DOMAIN[name])
        assert main([subcommand, "--out", str(out)] + argv) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith(f"error: stage '{stage}': {name} ") and err.count("\n") == 1, err
        assert err.endswith(f", got {OUT_OF_DOMAIN[name]}\n"), err
        assert not out.exists()

    @pytest.mark.parametrize("stage,name,section,subcommand,via,kind", TYPE_CASES)
    def test_every_text_read_as_its_type(self, tmp_path, capsys, stage, name, section, subcommand,
                                         via, kind):
        """A text that is not of its option's type fails as the stage that
        reads it, with one line, as a flag and as a config value alike."""
        out = tmp_path / "o"
        argv = refused_argv(tmp_path, subcommand, name, section, via, "x")
        assert main([subcommand, "--out", str(out)] + argv) == EXIT_CONFIG
        assert capsys.readouterr().err == f"error: stage '{stage}': {name} must be {kind}, got x\n"
        assert not out.exists()

    @pytest.mark.parametrize("argv,code", [
        (["simulate", "--t-end", "1", "--dt", "0.3"], EXIT_CONFIG),
        (["simulate", "--nu-base", "3", "--nu-strong", "2"], EXIT_CONFIG),
        (["simulate", "--nu-base", "1e10", "--nu-strong", "1e10", "--lam", "1e10", "--paths", "1",
          "--t-end", "1", "--dt", "0.1"], EXIT_CONFIG),
        (["report", "--split", "T1=bogus"], EXIT_CONFIG),
        (["train", "--algorithm", "knn", "--train", "5"], EXIT_CONFIG),
        (["report", "--split", "T1=0:5/6:10", "--algorithms", "knn", "--external", "e=missing.csv"],
         EXIT_IO),
    ], ids=["partial-last-step", "strong-below-base", "poisson-limit", "bad-split", "bad-train-range",
            "missing-external"])
    def test_refused_run_leaves_no_out(self, tmp_path, capsys, argv, code):
        """A run refused inside a stage, before it writes a file, makes no --out."""
        dataset = tmp_path / "labeled.csv"
        dataset.write_text("index,f1,theta\n" + "".join(f"{i},0.{i},{i % 2}\n" for i in range(11)),
                           encoding="utf-8")
        source = [] if argv[0] == "simulate" else ["--dataset", str(dataset)]
        out = tmp_path / "o"
        assert main(argv + source + ["--out", str(out)]) == code
        assert capsys.readouterr().err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("subcommand", ["simulate", "ingest"])
    def test_unwritable_out_is_io_error(self, tmp_path, capsys, bars_csv, subcommand):
        """An --out under a file fails when the run first writes."""
        (tmp_path / "file").write_text("", encoding="utf-8")
        source = ["--paths", "1"] if subcommand == "simulate" else ["--input", str(bars_csv)]
        assert main([subcommand, "--out", str(tmp_path / "file" / "o")] + source) == EXIT_IO
        assert "Not a directory" in capsys.readouterr().err

    @pytest.mark.parametrize("argv,line", [
        (["ingest", "--trim-minutes", "-1"], "stage 'ingest': trim_minutes must be at least 0, got -1"),
        (["label", "--threshold-pct", "nan"], "stage 'mark': threshold_pct must be finite, got nan"),
        (["simulate", "--rho", "nan"], "stage 'simulate': rho must be finite, got nan"),
        (["simulate", "--rho", "0.5"], "stage 'simulate': rho must be at most 0, got 0.5"),
        (["simulate", "--mu", "inf"], "stage 'simulate': mu must be finite, got inf"),
        (["simulate", "--beta", "nan"], "stage 'simulate': beta must be finite, got nan"),
        (["pipeline", "--algorithms", "bogus"],
         "stage 'benchmark': algorithms must be a comma list of " + ", ".join(ALGORITHM_IDS)
         + ", got bogus"),
        (["ingest", "--calendar", "09:30-08:00"],
         "stage 'ingest': calendar must be sessions like 09:30-11:30,13:00-15:00 "
         "(session close 08:00:00 not after open 09:30:00), got 09:30-08:00"),
        (["ingest", "--calendar", "bogus"],
         "stage 'ingest': calendar must be sessions like 09:30-11:30,13:00-15:00 "
         "(session 'bogus' is not HH:MM-HH:MM), got bogus"),
        (["ingest", "--calendar", "09:30-11:30-12:00"],
         "stage 'ingest': calendar must be sessions like 09:30-11:30,13:00-15:00 "
         "(session '09:30-11:30-12:00' is not HH:MM-HH:MM), got 09:30-11:30-12:00"),
    ], ids=["trim-minutes", "threshold-pct", "rho-nan", "rho-positive", "mu", "beta", "algorithms",
            "calendar", "calendar-shape", "calendar-three-times"])
    def test_domain_error_lines(self, tmp_path, capsys, argv, line):
        source = [] if argv[0] == "simulate" else ["--input", str(tmp_path / "missing.csv")]
        assert main(argv + source + ["--out", str(tmp_path / "o")]) == EXIT_CONFIG
        assert capsys.readouterr().err == f"error: {line}\n"
        assert not (tmp_path / "o").exists()

    def test_stats_json_is_strict(self, tmp_path):
        """A month of two daily closes has no skewness or kurtosis; both are written as null."""
        bars = tmp_path / "edge.csv"
        assert synthetic.main(["--out", str(bars), "--days", "4", "--start", "2021-01-30"]) == 0
        out = tmp_path / "st"
        assert main(["stats", "--input", str(bars), "--out", str(out), "--interval", "240",
                     "--group-by", "month"]) == EXIT_OK

        def refuse(constant):
            raise ValueError(f"{constant} is not JSON")

        stats = json.loads((out / "stats.json").read_text(), parse_constant=refuse)
        assert {month: stats[month]["skewness"] for month in stats} == {"2021-01": None, "2021-02": None}


class TestPipeline:
    def test_end_to_end(self, tmp_path, bars_csv):
        out = tmp_path / "pipe"
        code = main(["pipeline", "--input", str(bars_csv), "--out", str(out)] + PIPELINE_FLAGS)
        assert code == EXIT_OK
        for name in ("config_used.cfg", "stats.csv", "stats.json", "rv_day.csv",
                     "rv_day.json", "labeled.csv", "reports.csv", "reports.txt",
                     "summary.json"):
            assert (out / name).exists(), name
        summary = json.loads((out / "summary.json").read_text())
        assert summary["n_anchors"] > 0
        assert set(summary["supports_per_split"]) == {"T1", "T2"}

    def test_reruns_byte_identical_across_threads(self, tmp_path, bars_csv):
        trees = {}
        for name, threads in (("p1", "1"), ("p2", "2")):
            out = tmp_path / name
            code = main(["pipeline", "--input", str(bars_csv), "--out", str(out),
                         "--threads", threads] + PIPELINE_FLAGS)
            assert code == EXIT_OK
            trees[name] = tree_bytes(out)
        assert trees["p1"] == trees["p2"]

    def test_config_roundtrip_keeps_hyperparams_and_external(self, tmp_path, bars_csv):
        ext = tmp_path / "ext.csv"
        ext.write_text("index,predicted_theta\n" + "".join(f"{i},{i % 2}\n" for i in range(1400)))
        first, second = tmp_path / "p1", tmp_path / "p2"
        assert main(["pipeline", "--input", str(bars_csv), "--out", str(first)] + PIPELINE_FLAGS
                    + ["--algorithms", "knn", "--hp", "knn.k=1", "--external", f"ext={ext}"]) == EXIT_OK
        assert main(["pipeline", "--input", str(bars_csv), "--out", str(second),
                     "--config", str(first / "config_used.cfg")]) == EXIT_OK
        assert "external:ext" in (first / "reports.csv").read_text()
        assert tree_bytes(first) == tree_bytes(second)

    @pytest.mark.parametrize("subcommand", list(DATA_FLAGS))
    def test_missing_input_is_io_error(self, tmp_path, subcommand):
        code = main([subcommand, "--input", str(tmp_path / "nope.csv"),
                     "--out", str(tmp_path / "o")] + DATA_FLAGS[subcommand])
        assert code == EXIT_IO

    @pytest.mark.parametrize("subcommand", list(DATA_FLAGS))
    def test_bad_calendar_is_config_error(self, tmp_path, bars_csv, subcommand):
        code = main([subcommand, "--input", str(bars_csv), "--out", str(tmp_path / "o"),
                     "--calendar", "15:00-09:30"] + DATA_FLAGS[subcommand])
        assert code == EXIT_CONFIG

    def test_overflow_inside_stage_is_internal_error(self, tmp_path, bars_csv, monkeypatch):
        def overflow(*args, **kwargs):
            raise NumericOverflowError("non-finite value")

        monkeypatch.setattr(labeling, "build_dataset", overflow)
        code = main(["pipeline", "--input", str(bars_csv), "--out", str(tmp_path / "o")]
                    + PIPELINE_FLAGS)
        assert code == EXIT_INTERNAL

    def test_other_failure_inside_stage_is_config_error(self, tmp_path, bars_csv, monkeypatch):
        def fail(*args, **kwargs):
            raise ValueError("unusable labeling choice")

        monkeypatch.setattr(labeling, "build_dataset", fail)
        code = main(["pipeline", "--input", str(bars_csv), "--out", str(tmp_path / "o")]
                    + PIPELINE_FLAGS)
        assert code == EXIT_CONFIG

    def test_missing_config_file_is_config_error(self, tmp_path, bars_csv):
        code = main(["pipeline", "--input", str(bars_csv), "--out", str(tmp_path / "o"),
                     "--config", str(tmp_path / "none.cfg")] + PIPELINE_FLAGS)
        assert code == EXIT_CONFIG

    def test_overlapping_split_is_config_error(self, tmp_path, bars_csv):
        code = main(["pipeline", "--input", str(bars_csv), "--out", str(tmp_path / "o"),
                     "--interval", "1", "--split", "T1=7:800/700:900"])
        assert code == EXIT_CONFIG

    def test_no_splits_is_config_error(self, tmp_path, bars_csv):
        code = main(["pipeline", "--input", str(bars_csv), "--out", str(tmp_path / "o"),
                     "--interval", "1"])
        assert code == EXIT_CONFIG

    def test_console_entry_point(self, tmp_path, bars_csv):
        out = tmp_path / "sub"
        proc = subprocess.run(
            [sys.executable, "-m", "bnsjump", "ingest", "--input", str(bars_csv),
             "--out", str(out)],
            capture_output=True, text=True)
        assert proc.returncode == EXIT_OK, proc.stderr
        assert (out / "bars_clean.csv").exists()

    def test_env_var_output_root(self, tmp_path, bars_csv, monkeypatch):
        monkeypatch.setenv("BNSJUMP_OUT", str(tmp_path / "root"))
        assert main(["ingest", "--input", str(bars_csv)]) == EXIT_OK
        assert (tmp_path / "root" / "ingest" / "bars_clean.csv").exists()

    def test_four_split_config_yields_four_blocks(self, tmp_path, bars_csv):
        cfg = tmp_path / "table.cfg"
        cfg.write_text(
            "[splits]\n"
            "T1 = 7:500/501:700\n"
            "T2 = 7:700/701:900\n"
            "T3 = 7:900/901:1100\n"
            "T4 = 7:1100/1101:1300\n"
            "[benchmark]\n"
            "algorithms = knn,decision_tree\n",
            encoding="utf-8")
        out = tmp_path / "four"
        code = main(["pipeline", "--input", str(bars_csv), "--out", str(out),
                     "--config", str(cfg), "--interval", "1", "--window", "8",
                     "--lookahead", "8", "--min-jumps", "1", "--seed", "3"])
        assert code == EXIT_OK
        text = (out / "reports.txt").read_text()
        for name in ("T1", "T2", "T3", "T4"):
            assert f"== split {name} ==" in text

    def test_date_based_split_points(self, tmp_path, bars_csv):
        out = tmp_path / "dates"
        code = main(["pipeline", "--input", str(bars_csv), "--out", str(out),
                     "--interval", "1", "--window", "8", "--lookahead", "8",
                     "--min-jumps", "1", "--algorithms", "knn", "--seed", "3",
                     "--split", "T1=2021-01-04T09:42:00..2021-01-07T15:00:00/"
                                "2021-01-08T09:42:00..2021-01-09T15:00:00"])
        assert code == EXIT_OK
        summary = json.loads((out / "summary.json").read_text())
        assert "T1" in summary["supports_per_split"]


class TestSyntheticScript:
    @pytest.mark.parametrize("flags,line", [
        (["--days", "0"], "argument --days: must be an integer >= 1, got '0'"),
        (["--days", "-3"], "argument --days: must be an integer >= 1, got '-3'"),
        (["--start", "2021-13-01"], "argument --start: must be an ISO date like 2021-01-04, got '2021-13-01'"),
        (["--seed", "-1"], "argument --seed: must be an integer >= 0, got '-1'"),
    ], ids=["no-days", "negative-days", "bad-start", "negative-seed"])
    def test_bad_arguments_are_refused(self, tmp_path, capsys, flags, line):
        out = tmp_path / "bars.csv"
        with pytest.raises(SystemExit) as exited:
            synthetic.main(["--out", str(out)] + flags)
        assert exited.value.code == 2
        errors = [text for text in capsys.readouterr().err.splitlines() if "error:" in text]
        assert errors == [f"bnsjump.synthetic: error: {line}"]
        assert not out.exists()
