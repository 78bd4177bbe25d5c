"""``import bnsjump`` loads a submodule only when one of its names is used,
and ``bnsjump.cli`` loads the data stages' modules only when they run.

Each check runs in a fresh interpreter, since this test process has long
since imported every module.
"""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import bnsjump
from bnsjump.market_data import write_bars_csv
from bnsjump.synthetic import synthetic_bars

SRC = str(Path(bnsjump.__file__).resolve().parent.parent)

# Every name ``bnsjump`` exports, by the module that defines it.
EXPORTS = {
    "dynamics": ["LogPricePath", "ModelParams", "NoiseSpec", "VariancePath", "apply_noise",
                 "correlation_classical", "correlation_generalized", "euler_variance_path",
                 "instantaneous_variance_rate", "price_series", "simulate_log_price",
                 "simulate_log_price_classical", "simulate_variance_path",
                 "simulate_variance_path_classical"],
    "labeling": ["IndexedReturns", "LabeledDataset", "LabelingConfig", "SplitSpec", "build_dataset",
                 "index_series", "mark_big_jumps", "split"],
    "market_data": ["BarSeries", "ReturnSeries", "RVSeries", "SessionCalendar", "StatsReport",
                    "descriptive_stats", "load_bars", "pct_change", "preprocess",
                    "realized_measures", "resample"],
    "subordinators": ["JumpPath", "SubordinatorSpec", "TimeGrid", "combine_paths",
                      "realized_jump_energy", "sample_ensemble", "sample_subordinator_path",
                      "subordinator_moments", "terminal_samples"],
}


def run(code: str, *flags: str) -> subprocess.CompletedProcess:
    """Run ``code`` in a new interpreter, given ``flags``, that imports this
    checkout's ``bnsjump``."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([SRC, os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run([sys.executable, *flags, "-c", textwrap.dedent(code)], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    return done


def fresh(code: str):
    """Run ``code`` in a new interpreter that imports this checkout's
    ``bnsjump``; returns the JSON it prints last."""
    return json.loads(run(code).stdout.splitlines()[-1])


def test_import_loads_no_submodule():
    loaded = fresh("""
        import json, sys
        import bnsjump
        print(json.dumps(sorted(m for m in sys.modules if m.startswith("bnsjump."))))
    """)
    assert loaded == []


def test_a_name_imports_its_module_where_importtime_sees_it():
    """The first use of an exported name imports its module through the
    import statement's machinery, so ``-X importtime`` lists it."""
    err = run("import bnsjump; bnsjump.simulate_log_price", "-X", "importtime").stderr
    listed = {line.rsplit("|", 1)[-1].strip() for line in err.splitlines() if line.startswith("import time:")}
    assert {"bnsjump", "bnsjump.dynamics", "bnsjump.subordinators"} <= listed, err


def test_a_correlation_pair_loads_only_the_simulation_modules():
    """One C05 pair, as the corr_mc workload runs it, loads neither the
    file writers, the market-data stack, the learners, the CLI nor a pool."""
    loaded = fresh("""
        import json, sys
        from bnsjump import dynamics, subordinators

        spec1 = subordinators.SubordinatorSpec(4.0, 8.0)
        spec2 = subordinators.SubordinatorSpec(8.0, 8.0)
        grid = subordinators.TimeGrid(0.0, 0.02, 100)
        params = dynamics.ModelParams(mu=0.0, beta=0.0, rho=-0.3, lam=1.0, theta=0.5,
                                      sigma0_sq=1.0, spec_base=spec1, spec_strong=spec2)
        z = subordinators.sample_subordinator_path(spec1, params.lam, grid, seed=(7, 0, 0))
        zb = subordinators.sample_subordinator_path(spec2, params.lam, grid, seed=(7, 0, 1))
        vp = dynamics.simulate_variance_path(params, z, zb)
        lp = dynamics.simulate_log_price(params, vp, z, zb, seed=(7, 0, 2))
        dynamics.correlation_generalized(vp, z, zb, params, t=2.0, s=1.0)
        print(json.dumps(sorted(sys.modules)))
    """)
    for module in ("bnsjump.tables", "bnsjump.market_data", "bnsjump.labeling",
                   "bnsjump.classifiers", "bnsjump.cli", "concurrent.futures"):
        assert module not in loaded, module
    assert {"bnsjump.dynamics", "bnsjump.subordinators"} <= set(loaded)


# what a `simulate` run and the command's help never load
NOT_FOR_SIMULATE = ("bnsjump.classifiers", "bnsjump.labeling", "bnsjump.market_data", "logging",
                    "concurrent.futures")


@pytest.mark.parametrize("threads", ["1", "2"])
def test_simulate_and_help_load_no_data_stage_module(tmp_path, threads):
    """No ``--threads`` starts a pool.  numpy itself loads ``inspect``, so it
    is not among the checked modules."""
    loaded = fresh(f"""
        import json, sys
        from contextlib import redirect_stdout
        from io import StringIO

        def unwanted():
            return [m for m in {NOT_FOR_SIMULATE!r} if m in sys.modules]

        from bnsjump import cli
        after = {{"import": unwanted()}}
        try:
            with redirect_stdout(StringIO()):
                cli.main(["--help"])
        except SystemExit as exc:
            after["help"] = unwanted()
            after["help_exit"] = exc.code
        with redirect_stdout(StringIO()):
            after["simulate_exit"] = cli.main(["simulate", "--paths", "2", "--dt", "0.01",
                                               "--threads", {threads!r}, "--out", {str(tmp_path / "sim")!r}])
        after["simulate"] = unwanted()
        print(json.dumps(after))
    """)
    assert loaded == {"import": [], "help": [], "help_exit": 0, "simulate": [], "simulate_exit": 0}


@pytest.mark.parametrize("threads", ["1", "2"])
def test_pipeline_in_a_fresh_interpreter(tmp_path, threads):
    """The data stages import their modules when they first run, and no
    ``--threads`` starts a pool or loads ``logging``."""
    bars = tmp_path / "bars.csv"
    with open(bars, "w", encoding="utf-8", newline="") as fh:
        write_bars_csv(fh, synthetic_bars(days=3, seed=7))
    result = fresh(f"""
        import json, sys
        from contextlib import redirect_stdout
        from io import StringIO

        from bnsjump import cli

        with redirect_stdout(StringIO()):
            code = cli.main(["pipeline", "--input", {str(bars)!r}, "--out", {str(tmp_path / "pipe")!r},
                             "--interval", "1", "--min-jumps", "1",
                             "--algorithms", "naive_bayes_gaussian,decision_tree",
                             "--split", "T1=0:400/401:600", "--threads", {threads!r}])
        print(json.dumps({{"code": code, "loaded": [m for m in {NOT_FOR_SIMULATE[:3]!r}
                                                    if m in sys.modules],
                          "logging": "logging" in sys.modules,
                          "pool": "concurrent.futures" in sys.modules}}))
    """)
    assert result == {"code": 0, "loaded": list(NOT_FOR_SIMULATE[:3]), "logging": False, "pool": False}
    assert (tmp_path / "pipe" / "reports.csv").is_file()


def test_every_exported_name_is_its_modules_object():
    checked = fresh(f"""
        import importlib, json
        import bnsjump

        exports = {EXPORTS!r}
        same = {{name: getattr(bnsjump, name) is getattr(importlib.import_module("bnsjump." + module), name)
                for module, names in exports.items() for name in names}}
        print(json.dumps({{"all": bnsjump.__all__, "same": same}}))
    """)
    names = [name for group in EXPORTS.values() for name in group]
    assert len(names) == 42
    assert sorted(checked["all"]) == sorted(names)
    assert all(checked["same"].values()) and sorted(checked["same"]) == sorted(names)


def test_star_import_and_an_unknown_name():
    result = fresh("""
        import json
        import bnsjump
        from bnsjump import *
        from bnsjump import ModelParams, load_bars

        try:
            bnsjump.no_such_name
        except AttributeError as exc:
            unknown = str(exc)
        print(json.dumps({"star": sorted(n for n in bnsjump.__all__ if n in globals()),
                          "unknown": unknown, "in_dir": "split" in dir(bnsjump)}))
    """)
    assert result["star"] == sorted(name for group in EXPORTS.values() for name in group)
    assert result["unknown"] == "module 'bnsjump' has no attribute 'no_such_name'"
    assert result["in_dir"]


SIMULATOR = ("bnsjump.dynamics", "bnsjump.subordinators")


def test_data_commands_load_no_simulator_module(tmp_path):
    """``pipeline``, ``ingest``, ``label`` and ``report`` never import the
    simulator's modules; ``simulate`` in the same interpreter then does."""
    bars = tmp_path / "bars.csv"
    with open(bars, "w", encoding="utf-8", newline="") as fh:
        write_bars_csv(fh, synthetic_bars(days=3, seed=7))
    data = ["--interval", "1", "--min-jumps", "1"]
    learn = ["--algorithms", "naive_bayes_gaussian", "--split", "T1=0:400/401:600", "--threads", "1"]
    runs = {
        "pipeline": ["pipeline", "--input", str(bars), "--out", str(tmp_path / "pipe"), *data, *learn],
        "ingest": ["ingest", "--input", str(bars), "--out", str(tmp_path / "ing")],
        "label": ["label", "--input", str(bars), "--out", str(tmp_path / "lab"), *data],
        "report": ["report", "--dataset", str(tmp_path / "lab" / "labeled.csv"),
                   "--out", str(tmp_path / "rep"), *learn],
        "simulate": ["simulate", "--paths", "2", "--dt", "0.01", "--threads", "1",
                     "--out", str(tmp_path / "sim")],
    }
    result = fresh(f"""
        import json, sys
        from contextlib import redirect_stdout
        from io import StringIO

        from bnsjump import cli

        after = {{}}
        for name, argv in {runs!r}.items():
            with redirect_stdout(StringIO()):
                code = cli.main(argv)
            after[name] = [code, [m for m in {SIMULATOR!r} if m in sys.modules]]
        print(json.dumps(after))
    """)
    assert result == {"pipeline": [0, []], "ingest": [0, []], "label": [0, []], "report": [0, []],
                      "simulate": [0, list(SIMULATOR)]}


def test_pipeline_loads_no_masked_arrays(tmp_path):
    """``pipeline`` leaves ``numpy.ma`` unloaded (``np.median``'s NaN check
    imports it, 16 ms of a run's start)."""
    bars = tmp_path / "bars.csv"
    with open(bars, "w", encoding="utf-8", newline="") as fh:
        write_bars_csv(fh, synthetic_bars(days=3, seed=7))
    argv = ["pipeline", "--input", str(bars), "--out", str(tmp_path / "pipe"), "--interval", "1",
            "--min-jumps", "1", "--algorithms", "naive_bayes_gaussian", "--split", "T1=0:400/401:600",
            "--threads", "1"]
    result = fresh(f"""
        import json, sys
        from contextlib import redirect_stdout
        from io import StringIO

        from bnsjump import cli

        with redirect_stdout(StringIO()):
            code = cli.main({argv!r})
        print(json.dumps([code, "numpy.ma" in sys.modules]))
    """)
    assert result == [0, False]
