import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from bnsjump import cli
from bnsjump.cli import EXIT_CONFIG, EXIT_INTERNAL, EXIT_IO, EXIT_OK, main
from bnsjump.errors import NumericOverflowError
from bnsjump.market_data import write_bars_csv
from bnsjump.synthetic import synthetic_bars


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


class TestSimulate:
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

    def test_label(self, tmp_path, bars_csv):
        out = tmp_path / "lb"
        assert main(["label", "--input", str(bars_csv), "--out", str(out),
                     "--interval", "1", "--min-jumps", "1"]) == EXIT_OK
        info = json.loads((out / "label.json").read_text())
        assert info["n_anchors"] > 0
        assert info["theta1"] > 0
        header = (out / "labeled.csv").read_text().splitlines()[0]
        assert header.startswith("index,f1,")

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

    def test_missing_input_is_io_error(self, tmp_path):
        code = main(["pipeline", "--input", str(tmp_path / "nope.csv"),
                     "--out", str(tmp_path / "o")] + PIPELINE_FLAGS)
        assert code == EXIT_IO

    def test_overflow_inside_stage_is_internal_error(self, tmp_path, bars_csv, monkeypatch):
        def overflow(*args, **kwargs):
            raise NumericOverflowError("non-finite value")

        monkeypatch.setattr(cli, "build_dataset", overflow)
        code = main(["pipeline", "--input", str(bars_csv), "--out", str(tmp_path / "o")]
                    + PIPELINE_FLAGS)
        assert code == EXIT_INTERNAL

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
