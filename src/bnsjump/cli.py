"""Command-line entry point wiring the pipeline end-to-end.

Subcommands: simulate, ingest, stats, label, train, report, pipeline.
All seven run through one runner and one ordered stage list (``STAGES``):
load and clean, resample, pct_change, stats, realized_measures, index,
mark, label, splits, benchmark, summarize.  Each names the stages it runs
and the files it writes (``DATA_COMMANDS``); ``report`` and ``train``
start from a labeled CSV instead, and ``simulate`` runs its own one stage,
which writes the path CSVs as they are ready.

Options resolve as flags > config file > defaults.  Each subcommand takes
one flag per option of its option tables, plus the flags its stages read
(``STAGE_FLAGS``).  Every run echoes the options it resolved to
``config_used.cfg`` in the output directory, each under the section it is
read from; re-running from that file (with the same ``--input`` or
``--dataset``) reproduces the outputs byte for byte, regardless of
``--threads``: the number of threads that run a command's independent
seeded units (simulated paths, benchmark cells) through
``seeding.ordered_map``.

Exit codes (``EXIT_CODES``): 0 success, 2 configuration/usage error,
3 I/O or input-data error, 4 internal consistency failure.
"""

from __future__ import annotations

import argparse
import configparser
import json
import math
import os
import sys
from dataclasses import asdict, replace
from datetime import datetime
from functools import partial
from io import StringIO
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from . import dynamics, market_data
from .classifiers import (
    ALGORITHM_IDS,
    format_benchmark_text,
    load_external_predictions,
    run_benchmark,
    write_benchmark_csv,
)
from .classifiers.api import predict, resolve_hyperparams, train as train_model
from .classifiers.metrics import evaluate
from .errors import InvalidParameterError, NumericOverflowError, ParseError
from .labeling import (
    DIRECTIONS,
    LabeledDataset,
    LabelingConfig,
    SplitSpec,
    build_dataset,
    index_for_timestamp,
    index_series,
    mark_big_jumps,
    read_dataset_csv,
    split,
    write_dataset_csv,
)
from .market_data import SessionCalendar
from .seeding import ordered_map
from .subordinators import SubordinatorSpec, TimeGrid, sample_subordinator_path, subordinator_moments
from .tables import dumps

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_IO = 3
EXIT_INTERNAL = 4

OUTPUT_ROOT_ENV = "BNSJUMP_OUT"


class ConfigError(Exception):
    pass


class StageError(Exception):
    """Wraps a pipeline stage failure with the stage name; keeps the cause."""

    def __init__(self, stage: str, cause: Exception):
        super().__init__(f"stage '{stage}': {cause}")
        self.stage = stage
        self.cause = cause


# Exception types -> exit code, first match wins.  A StageError is judged by
# its cause, and a stage failing for any other reason is a configuration error.
EXIT_CODES = (
    ((ConfigError, InvalidParameterError), EXIT_CONFIG),
    ((OSError, ParseError), EXIT_IO),  # OrderingError is a ParseError
    ((AssertionError, NumericOverflowError), EXIT_INTERNAL),
)


# ---------------------------------------------------------------------------
# option resolution: flags > config file > defaults

def _one_of(*values: str):
    """Option type: a text that must be one of ``values``; it checks flags
    and config values alike."""
    def choice(text: str) -> str:
        if text not in values:
            raise argparse.ArgumentTypeError(f"{text!r} is not one of {', '.join(values)}")
        return text
    return choice


SIMULATE_OPTIONS = {
    # name: (section, type, default); the default None marks a required option
    "paths": ("simulate", int, 4),
    "seed": ("simulate", int, 0),
    "mu": ("simulate", float, 0.0),
    "beta": ("simulate", float, 0.0),
    "rho": ("simulate", float, -0.3),
    "lam": ("simulate", float, 1.0),
    "theta": ("simulate", float, 0.5),
    "sigma0_sq": ("simulate", float, 1.0),
    "nu_base": ("simulate", float, 1.0),
    "a_base": ("simulate", float, 2.0),
    "nu_strong": ("simulate", float, 2.0),
    "a_strong": ("simulate", float, 2.0),
    "t_end": ("simulate", float, 1.0),
    "dt": ("simulate", float, 0.01),
    "noise_std": ("simulate", float, 0.0),
    "threads": ("simulate", int, 1),
}

CLEAN_OPTIONS = {
    "calendar": ("calendar", str, SessionCalendar().to_spec()),
    "trim_minutes": ("preprocess", int, 10),
    "trim_reopen": ("preprocess", bool, False),
    "outlier_sigma": ("preprocess", float, 10.0),
    "no_outliers": ("preprocess", bool, False),
}

DATA_OPTIONS = CLEAN_OPTIONS | {"interval": ("preprocess", int, 5)}

LABEL_OPTIONS = {
    "window": ("labeling", int, 10),
    "lookahead": ("labeling", int, 10),
    "threshold_pct": ("labeling", float, 0.1),
    "min_jumps": ("labeling", int, 2),
    "direction": ("labeling", _one_of(*DIRECTIONS), "down"),
    "stride": ("labeling", int, 1),
}

REPORT_OPTIONS = {
    "algorithms": ("benchmark", str, ",".join(ALGORITHM_IDS)),
    "seed": ("benchmark", int, 0),
    "threads": ("benchmark", int, 1),
}

# `stats` groups its statistics overall unless told otherwise, `pipeline` by month
_group_by = _one_of(*market_data.STATS_GROUPINGS)
STATS_OPTIONS = {"group_by": ("benchmark", _group_by, "overall")}
BENCH_OPTIONS = REPORT_OPTIONS | {"group_by": ("benchmark", _group_by, "month")}

TRAIN_OPTIONS = {
    "algorithm": ("train", _one_of(*ALGORITHM_IDS), None),
    "train": ("train", str, None),  # a:b
    "test": ("train", str, ""),  # c:d, or none
    "seed": ("train", int, 0),
}


def _flag(name: str) -> str:
    return "--" + name.replace("_", "-")


def _read_config(path: str | None) -> configparser.ConfigParser:
    cfg = configparser.ConfigParser(interpolation=None)  # values are literal, '%' included
    cfg.optionxform = str  # keep split and external-prediction names case-sensitive
    if path:
        if not Path(path).exists():
            raise ConfigError(f"config file not found: {path}")
        if not Path(path).is_file():
            raise ConfigError(f"config file is not a file: {path}")
        try:
            with open(path, encoding="utf-8-sig") as fh:
                cfg.read_file(fh)
        except (configparser.Error, UnicodeDecodeError) as exc:
            reason = " ".join(str(exc).split())  # configparser's messages span lines
            raise ConfigError(f"bad config file {path}: {reason}") from None
    return cfg


def _resolve(args, cfg: configparser.ConfigParser, *tables: dict) -> dict:
    out = {}
    for name, (section, typ, default) in (item for table in tables for item in table.items()):
        flag_val = getattr(args, name, None)
        if flag_val is not None:
            out[name] = flag_val
        elif cfg.has_option(section, name):
            try:
                if typ is bool:
                    out[name] = cfg.getboolean(section, name)
                else:
                    out[name] = typ(cfg.get(section, name))
            except (ValueError, argparse.ArgumentTypeError) as exc:
                raise ConfigError(f"bad config value for [{section}] {name}: {exc}") from None
        elif default is None:
            raise ConfigError(f"{_flag(name)} or [{section}] {name} is required")
        else:
            out[name] = default
    return out


def _named_items(args, cfg: configparser.ConfigParser, section: str, flag: str) -> dict[str, str]:
    """The ``NAME = value`` pairs of a config section; each ``--flag NAME=value``
    replaces its namesake and moves it to the end."""
    items = dict(cfg.items(section)) if cfg.has_section(section) else {}
    for item in getattr(args, flag, None) or []:
        if "=" not in item:
            raise ConfigError(f"--{flag} expects NAME=VALUE, got {item!r}")
        name, value = item.split("=", 1)
        items.pop(name, None)
        items[name] = value
    return items


def _parse_split_token(token: str, indexed=None) -> int:
    token = token.strip()
    try:
        return int(token)
    except ValueError:
        pass
    if indexed is None:
        raise ConfigError(f"date-based split point {token!r} requires return data")
    try:
        ts = datetime.fromisoformat(token)
    except ValueError:
        raise ConfigError(f"split point {token!r} is neither an index nor an ISO datetime") from None
    return index_for_timestamp(indexed, ts)


def _parse_split(name: str, text: str, indexed=None) -> SplitSpec:
    """Parse 'a:b/c:d' (inclusive index ranges) or 'a..b/c..d'.

    The '..' form is required for ISO-datetime endpoints, which are
    resolved to indices through the return series.
    """
    parts = text.split("/")
    if len(parts) not in (1, 2):
        raise ConfigError(f"split {name!r}: expected 'a:b' or 'a:b/c:d', got {text!r}")
    ranges = []
    for part in parts:
        bits = part.split("..") if ".." in part else part.split(":")
        if len(bits) != 2:
            raise ConfigError(f"split {name!r}: bad range {part!r}")
        ranges.append((_parse_split_token(bits[0], indexed), _parse_split_token(bits[1], indexed)))
    return SplitSpec(train=ranges[0], test=ranges[1] if len(ranges) == 2 else None, name=name)


def _collect_splits(args, cfg: configparser.ConfigParser, indexed=None) -> list[SplitSpec]:
    raw = _named_items(args, cfg, "splits", "split")
    if not raw:
        raise ConfigError("no splits given; use --split NAME=a:b/c:d or a [splits] config section")
    return [_parse_split(name, text, indexed) for name, text in raw.items()]


def _split_text(s: SplitSpec) -> str:
    text = f"{s.train[0]}:{s.train[1]}"
    if s.test is not None:
        text += f"/{s.test[0]}:{s.test[1]}"
    return text


def _hyperparams(items: dict[str, str]) -> dict[str, dict]:
    """Parse and validate ``algorithm.name = value`` pairs (values as JSON where they parse)."""
    bank: dict[str, dict] = {}
    for key, value in items.items():
        if "." not in key:
            raise ConfigError(f"hyperparameter {key!r} must be algorithm.name")
        algorithm, hp_name = key.split(".", 1)
        try:
            parsed = json.loads(value)
        except json.JSONDecodeError:
            parsed = value
        bank.setdefault(algorithm, {})[hp_name] = parsed
    for algorithm, overrides in bank.items():
        resolve_hyperparams(algorithm, overrides)  # validates names
    return bank


def _out_dir(args, subcommand: str) -> Path:
    if args.out:
        path = Path(args.out)
    else:
        root = os.environ.get(OUTPUT_ROOT_ENV, "bnsjump_out")
        path = Path(root) / subcommand
    path.mkdir(parents=True, exist_ok=True)
    return path


def _echo_config(out_dir: Path, opts: dict, tables, **extra: dict) -> None:
    """Write the effective config: each option of ``tables`` under its own
    section, plus the ``extra`` sections that are not empty.  `threads` is
    an execution knob that does not affect results and is deliberately not
    part of it."""
    sections = {name: values for name, values in extra.items() if values}
    for table in tables:
        for name, (section, _, _) in table.items():
            if name != "threads":
                sections.setdefault(section, {})[name] = opts[name]
    cfg = configparser.ConfigParser(interpolation=None)
    cfg.optionxform = str
    for section in sorted(sections):
        cfg[section] = {key: str(sections[section][key]) for key in sorted(sections[section])}
    buf = StringIO()
    cfg.write(buf)
    (out_dir / "config_used.cfg").write_text(buf.getvalue(), encoding="utf-8")


# option -> (its least value, the stages that read it).  Each is checked
# before any stage runs, as the stage that reads it, so that a bad value
# fails before ingest loads every bar or fails on a missing input.
LEAST_VALUES = {
    "threads": (1, ("simulate", "benchmark")),  # the stages that run seeded units on threads
    "seed": (0, ("simulate", "benchmark", "fit")),
    "interval": (1, ("resample",)),
}


def _check_least(opts: dict, name: str, least: int) -> None:
    if opts[name] < least:
        raise ConfigError(f"{name} must be at least {least}, got {opts[name]}")


# ---------------------------------------------------------------------------
# simulate

def _simulate_one(opts: dict, grid: TimeGrid, params, i: int):
    seed = opts["seed"]
    z = sample_subordinator_path(params.spec_base, params.lam, grid, seed=(seed, i, 0))
    zb = sample_subordinator_path(params.spec_strong, params.lam, grid, seed=(seed, i, 1))
    var_path = dynamics.simulate_variance_path(params, z, zb)
    price = dynamics.simulate_log_price(params, var_path, z, zb, seed=(seed, i, 2))
    if opts["noise_std"] > 0:
        price = dynamics.apply_noise(price, dynamics.NoiseSpec(std=opts["noise_std"]), seed=(seed, i, 3))
    csv_text = dynamics.dumps_path_csv(var_path, price)  # through the module: tracers patch it
    floor = np.exp(-params.lam * (grid.times() - grid.t0)) * params.sigma0_sq
    stats = {
        "z_total": z.total(),
        "zb_total": zb.total(),
        "floor_slack": float(np.min(var_path.values - floor)),
        "x_terminal": float(price.x_true[-1]),
    }
    return csv_text, stats


def _simulate(run) -> dict:
    """Simulate the paths, writing each one's CSV under ``paths/`` as it is
    ready; returns the payload of ``summary.json``."""
    opts = run.opts
    if opts["paths"] < 1:
        raise ConfigError("paths must be at least 1")
    for name in ("dt", "t_end", "noise_std"):
        if not math.isfinite(opts[name]):
            raise ConfigError(f"{name} must be finite, got {opts[name]}")
    if opts["dt"] <= 0 or opts["t_end"] <= 0:
        raise ConfigError("dt and t_end must be positive")
    if opts["noise_std"] < 0:
        raise ConfigError(f"noise_std must be at least 0, got {opts['noise_std']}")
    n_steps = round(opts["t_end"] / opts["dt"])
    if abs(n_steps * opts["dt"] - opts["t_end"]) > 1e-9 * opts["t_end"]:
        raise ConfigError(f"t_end {opts['t_end']} is not a whole number of dt {opts['dt']} steps")
    params = dynamics.ModelParams(
        mu=opts["mu"], beta=opts["beta"], rho=opts["rho"], lam=opts["lam"],
        theta=opts["theta"], sigma0_sq=opts["sigma0_sq"],
        spec_base=SubordinatorSpec(opts["nu_base"], opts["a_base"]),
        spec_strong=SubordinatorSpec(opts["nu_strong"], opts["a_strong"]),
    )
    grid = TimeGrid(t0=0.0, dt=opts["dt"], n_steps=n_steps)

    paths_dir = run.out_dir / "paths"
    paths_dir.mkdir(exist_ok=True)
    results = []  # each path's stats; its CSV text is written as it arrives and dropped
    one = partial(_simulate_one, opts, grid, params)
    for i, (csv_text, path_stats) in enumerate(ordered_map(one, range(opts["paths"]), opts["threads"])):
        (paths_dir / f"path_{i:05d}.csv").write_text(csv_text, encoding="utf-8")
        results.append(path_stats)

    n = opts["paths"]
    horizon = grid.horizon
    z_rates = np.array([s["z_total"] for s in results]) / horizon
    zb_rates = np.array([s["zb_total"] for s in results]) / horizon
    lam = params.lam

    def mc_block(samples: np.ndarray, spec: SubordinatorSpec) -> dict:
        mean_rate, var_rate = subordinator_moments(spec)
        return {
            "n_paths": n,
            "sample_mean_rate": float(samples.mean() / lam),
            "sample_var_rate": float(samples.var(ddof=1) / lam) if n > 1 else None,
            "closed_form_mean_rate": mean_rate,
            "closed_form_var_rate": var_rate,
        }

    slacks = np.array([s["floor_slack"] for s in results])
    terminals = np.array([s["x_terminal"] for s in results])
    summary = {
        "subordinator_mc": {
            "base": mc_block(z_rates, params.spec_base),
            "strong": mc_block(zb_rates, params.spec_strong),
        },
        "paths": {
            "variance_floor_min_slack": float(slacks.min()),
            "variance_floor_satisfied": bool(slacks.min() >= -1e-12),
            "x_terminal_mean": float(terminals.mean()),
            "x_terminal_var": float(terminals.var(ddof=1)) if n > 1 else None,
        },
        "grid": {"dt": opts["dt"], "n_steps": n_steps, "t_end": opts["t_end"]},
    }
    return summary


# ---------------------------------------------------------------------------
# data stages, and the runner that every subcommand goes through

def _stage(name: str, fn, *args):
    try:
        return fn(*args)
    except Exception as exc:
        raise StageError(name, exc) from exc


def _load_and_clean(run):
    """The bars inside the calendar's sessions, cleaned; records the row
    counts in ``run.info``."""
    opts = run.opts
    calendar = SessionCalendar.from_spec(opts["calendar"])
    policy = None if opts["no_outliers"] else market_data.sigma_outlier_policy(opts["outlier_sigma"])
    bars, rejected = market_data.load_bars(run.args.input, calendar)
    clean, rate = market_data.preprocess(bars, trim_minutes=opts["trim_minutes"],
                                         outlier_policy=policy, trim_reopen=opts["trim_reopen"])
    run.info = {
        "rows_loaded": len(bars) + rejected,
        "rows_in_sessions": len(bars),
        "rejected_outside_sessions": rejected,
        "rows_after_preprocess": len(clean),
        "preprocess_rejection_rate": rate,
    }
    return clean


def _label_config(opts: dict) -> LabelingConfig:
    return LabelingConfig(window_len=opts["window"], lookahead=opts["lookahead"],
                          threshold_pct=opts["threshold_pct"], min_jumps=opts["min_jumps"],
                          direction=opts["direction"], stride=opts["stride"])


def _read_labeled(path: str) -> LabeledDataset:
    """The labeled CSV, bounded like ``pipeline`` bounds its splits.

    Split ranges are checked against the length of the return series, which
    the CSV does not hold; ``label`` records it as ``n_returns`` in the
    ``label.json`` it writes beside the CSV.
    """
    dataset = read_dataset_csv(path)
    info = Path(path).with_name("label.json")
    if not info.exists():
        return dataset
    try:
        n_returns = int(json.loads(info.read_text(encoding="utf-8"))["n_returns"])
    except (ValueError, KeyError, TypeError) as exc:
        raise ParseError(f"{info}: no usable n_returns ({exc!r})") from None
    return replace(dataset, source_length=n_returns)


def _benchmark(run):
    algorithms = [a.strip() for a in run.opts["algorithms"].split(",") if a.strip()]
    external = {}
    for name, path in sorted(run.external.items()):
        try:
            external[name] = load_external_predictions(path)
        except ParseError as exc:  # name the file among several --external
            raise ParseError(f"{name}={path}: {exc}") from None
    return run_benchmark(run.dataset, run.splits, algorithms, run.bank, seed=run.opts["seed"],
                         external=external, max_workers=run.opts["threads"])


def _fit(run) -> dict:
    """One algorithm trained on the ``train`` range and scored on ``test``:
    the payload of ``train_report.json``."""
    opts = run.opts
    spec = _parse_split("cli", f"{opts['train']}/{opts['test']}" if opts["test"] else opts["train"])
    train_set, test_set = split(run.dataset, spec)
    model = train_model(opts["algorithm"], train_set, run.bank.get(opts["algorithm"]), seed=opts["seed"])
    payload = {"algorithm": opts["algorithm"], "train_rows": len(train_set),
               "hyperparams": model.metadata["hyperparams"], "degenerate": model.degenerate}
    if len(test_set):
        report = evaluate(predict(model, test_set.features), test_set.theta)
        payload["test"] = asdict(report)
    return payload


def _label_counts(run) -> dict:
    zeros, ones = run.dataset.class_counts()
    return run.info | {"n_returns": len(run.returns), "n_marks": int(run.marks.sum()),
                       "n_anchors": len(run.dataset), "theta0": zeros, "theta1": ones}


def _summary(run) -> dict:
    supports = {}
    for cell in run.cells:
        supports.setdefault(cell.split_name, list(cell.report.supports()))
    return _label_counts(run) | {"supports_per_split": supports, "n_report_cells": len(run.cells)}


# stage -> (attribute of the run it sets, function of the run so far)
STAGES = {
    "ingest": ("clean", _load_and_clean),
    "resample": ("sampled", lambda r: market_data.resample(r.clean, r.opts["interval"])),
    "pct_change": ("returns", lambda r: market_data.pct_change(r.sampled)),
    "stats": ("stats", lambda r: market_data.descriptive_stats(r.sampled, r.opts["group_by"])),
    "realized_measures": ("rv", lambda r: market_data.realized_measures(r.returns, "day")),
    "index": ("indexed", lambda r: index_series(r.returns)),
    "mark": ("marks", lambda r: mark_big_jumps(r.indexed, r.label_config)),
    "label": ("dataset", lambda r: build_dataset(r.indexed, r.marks, r.label_config)),
    "load_labeled": ("dataset", lambda r: _read_labeled(r.args.dataset)),
    "splits": ("splits", lambda r: _collect_splits(r.args, r.cfg, r.indexed)),
    "fit": ("trained", _fit),
    "benchmark": ("cells", _benchmark),
    "summarize": ("summary", _summary),
    "simulate": ("summary", _simulate),
}


# output file -> writer(text file, run)
OUTPUTS = {
    "bars_clean.csv": lambda fh, r: market_data.write_bars_csv(fh, r.clean),
    "ingest.json": lambda fh, r: fh.write(dumps(r.info)),
    "stats.csv": lambda fh, r: market_data.write_stats_csv(fh, r.stats),
    "stats.json": lambda fh, r: fh.write(market_data.stats_to_json(r.stats)),
    "rv_day.csv": lambda fh, r: market_data.write_rv_csv(fh, r.rv),
    "rv_day.json": lambda fh, r: fh.write(market_data.rv_to_json(r.rv)),
    "labeled.csv": lambda fh, r: write_dataset_csv(fh, r.dataset),
    "label.json": lambda fh, r: fh.write(dumps(_label_counts(r))),
    "reports.csv": lambda fh, r: write_benchmark_csv(fh, r.cells),
    "reports.txt": lambda fh, r: fh.write(format_benchmark_text(r.cells)),
    "hyperparams_used.json": lambda fh, r: fh.write(
        dumps({c.algorithm: c.hyperparams for c in r.cells if c.hyperparams})),
    "summary.json": lambda fh, r: fh.write(dumps(r.summary)),
    "train_report.json": lambda fh, r: fh.write(dumps(r.trained)),
}

LABEL_STAGES = ("ingest", "resample", "pct_change", "index", "mark", "label")
REPORT_FILES = ("reports.csv", "reports.txt", "hyperparams_used.json")

# subcommand -> (option tables, stages in order, files written besides config_used.cfg)
DATA_COMMANDS = {
    "simulate": ((SIMULATE_OPTIONS,), ("simulate",), ("summary.json",)),
    "ingest": ((CLEAN_OPTIONS,), ("ingest",), ("bars_clean.csv", "ingest.json")),
    "stats": ((DATA_OPTIONS, STATS_OPTIONS), ("ingest", "resample", "stats"),
              ("stats.csv", "stats.json", "ingest.json")),
    "label": ((DATA_OPTIONS, LABEL_OPTIONS), LABEL_STAGES, ("labeled.csv", "label.json")),
    "train": ((TRAIN_OPTIONS,), ("load_labeled", "fit"), ("train_report.json",)),
    "report": ((REPORT_OPTIONS,), ("load_labeled", "splits", "benchmark"), REPORT_FILES),
    "pipeline": ((DATA_OPTIONS, LABEL_OPTIONS, BENCH_OPTIONS),
                 ("ingest", "resample", "pct_change", "stats", "realized_measures", "index", "mark",
                  "label", "splits", "benchmark", "summarize"),
                 ("stats.csv", "stats.json", "rv_day.csv", "rv_day.json", "labeled.csv")
                 + REPORT_FILES + ("summary.json",)),
}


def run_data_command(args) -> int:
    """Run the stages a subcommand names, then write its files."""
    tables, stages, files = DATA_COMMANDS[args.subcommand]
    cfg = _read_config(args.config)
    run = SimpleNamespace(args=args, cfg=cfg, opts=_resolve(args, cfg, *tables), indexed=None,
                          splits=(), hp={}, external={})
    for option, (least, readers) in LEAST_VALUES.items():
        for name in readers:
            if name in stages:
                _stage(name, _check_least, run.opts, option, least)
    if "mark" in stages:
        run.label_config = _stage("mark", _label_config, run.opts)
    if hasattr(args, "hp"):  # the subcommands whose stages fit; see STAGE_FLAGS
        run.hp = _named_items(args, cfg, "hyperparams", "hp")
        run.bank = _hyperparams(run.hp)
    if hasattr(args, "external"):
        run.external = _named_items(args, cfg, "external", "external")
    out_dir = run.out_dir = _out_dir(args, args.subcommand)
    for name in stages:
        attr, fn = STAGES[name]
        setattr(run, attr, _stage(name, fn, run))
    _echo_config(out_dir, run.opts, tables, hyperparams=run.hp, external=run.external,
                 run={"subcommand": args.subcommand, "input": args.input} if "ingest" in stages else {},
                 splits={s.name: _split_text(s) for s in run.splits})
    for name in files:
        with open(out_dir / name, "w", encoding="utf-8", newline="") as fh:
            OUTPUTS[name](fh, run)
    print(f"{args.subcommand}: wrote {', '.join(files)} to {out_dir}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser

# flags that are not options -> (the stages that read them, argparse keywords)
STAGE_FLAGS = {
    "--input": (("ingest",), {"required": True, "help": "minute-bar CSV with header 'timestamp,close'"}),
    "--dataset": (("load_labeled",), {"required": True, "help": "labeled CSV from the label step"}),
    "--split": (("splits",), {"action": "append", "metavar": "NAME=a:b/c:d",
                              "help": "inclusive train/test index ranges (or ISO datetimes); repeatable"}),
    "--hp": (("fit", "benchmark"), {"action": "append", "metavar": "ALGORITHM.NAME=VALUE",
                                   "help": "hyperparameter override; repeatable"}),
    "--external": (("benchmark",), {"action": "append", "metavar": "NAME=PATH",
                                    "help": "external predictions CSV 'index,predicted_theta'; repeatable"}),
}


def build_parser() -> argparse.ArgumentParser:
    """One subparser per subcommand: ``--out``, ``--config``, the flags its
    stages read and one flag per option of its tables."""
    parser = argparse.ArgumentParser(prog="bnsjump",
                                     description="BN-S simulation and jump-prediction pipeline")
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name, (tables, stages, files) in DATA_COMMANDS.items():
        p = sub.add_parser(name, help=f"{' > '.join(stages)}; writes {', '.join(files)}")
        p.add_argument("--out", help=f"output directory (default ${OUTPUT_ROOT_ENV}/<subcommand>)")
        p.add_argument("--config", help="INI config file; flags override its values")
        for flag, (readers, kwargs) in STAGE_FLAGS.items():
            if set(readers) & set(stages):
                p.add_argument(flag, **kwargs)
        for option, (section, typ, _) in (item for table in tables for item in table.items()):
            kwargs = {"action": "store_const", "const": True} if typ is bool else {"type": typ}
            p.add_argument(_flag(option), dest=option, help=f"config: [{section}] {option}", **kwargs)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return run_data_command(args)
    except Exception as exc:
        cause = exc.cause if isinstance(exc, StageError) else exc
        code = next((code for types, code in EXIT_CODES if isinstance(cause, types)),
                    EXIT_CONFIG if cause is not exc else None)
        if code is None:
            raise
        print(f"{'internal error' if code == EXIT_INTERNAL else 'error'}: {exc}", file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
