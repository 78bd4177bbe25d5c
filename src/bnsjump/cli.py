"""Command-line entry point wiring the pipeline end-to-end.

Subcommands: simulate, ingest, stats, label, train, report, pipeline.
All seven run through one runner and one ordered stage list (``STAGES``):
load and clean, resample, pct_change, stats, realized_measures, index,
mark, label, splits, benchmark, summarize.  Each names the stages it runs
and the files it writes (``DATA_COMMANDS``); ``report`` and ``train``
start from a labeled CSV instead, and ``simulate`` runs its own one stage,
which writes the path CSVs as they are ready.

Options resolve as flags > config file > defaults.  ``OPTIONS`` lists the
options each stage reads, with each one's type and domain; a subcommand
takes one flag per option of its stages, plus the flags its stages read
(``STAGE_FLAGS``), reads a flag's text and a config value's text alike as
the option's type, and checks every option against its domain before any
stage runs.  Every run echoes the options it resolved to
``config_used.cfg`` in the output directory, each under the section it is
read from; re-running from that file (with the same ``--input`` or
``--dataset``) reproduces the outputs byte for byte.  A command's
independent seeded units (simulated paths, benchmark cells) run one by one
on the calling thread, in order; ``--threads`` is still accepted and
checked, but changes nothing and is not echoed.

Every stage's module is imported when a run first reads one of its names:
``--help`` loads only ``tables`` and ``errors``, ``simulate`` adds
``dynamics``, ``subordinators`` and ``seeding``, and the data commands load
no simulator module.

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
from contextlib import suppress
from dataclasses import asdict, replace
from datetime import datetime
from io import StringIO
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from .errors import InvalidParameterError, NumericOverflowError, ParseError
from .tables import dumps


class _OnUse:
    """A module of this package, imported when one of its names is first
    read; every read goes to the module, so a name replaced there is what
    the caller gets."""

    def __init__(self, name: str):
        self._name = name

    def __getattr__(self, attr: str):
        # through the import statement's machinery, so that -X importtime
        # lists the module, as it does not for importlib.import_module
        name = f"{__package__}.{self._name}"
        __import__(name)
        return getattr(sys.modules[name], attr)


# the data stages' modules, which a `simulate` run and `--help` never import
classifiers = _OnUse("classifiers")
labeling = _OnUse("labeling")
market_data = _OnUse("market_data")
# the simulator's, which only `simulate` imports
dynamics = _OnUse("dynamics")
subordinators = _OnUse("subordinators")

# bench/tracer.py patches these names on this module as well as on the modules
# that define them, where they are called from; ROADMAP item 11 deletes this table.
_TRACED = {
    "sample_subordinator_path": ("subordinators", "sample_subordinator_path"),
    "index_series": ("labeling", "index_series"),
    "mark_big_jumps": ("labeling", "mark_big_jumps"),
    "build_dataset": ("labeling", "build_dataset"),
    "write_dataset_csv": ("labeling", "write_dataset_csv"),
    "split": ("labeling", "split"),
    "train_model": ("classifiers.api", "train"),
    "predict": ("classifiers.api", "predict"),
    "evaluate": ("classifiers.metrics", "evaluate"),
    "run_benchmark": ("classifiers.benchmark", "run_benchmark"),
}


def __getattr__(name: str):
    try:
        module, attr = _TRACED[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    return getattr(_OnUse(module), attr)


EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_IO = 3
EXIT_INTERNAL = 4

OUTPUT_ROOT_ENV = "BNSJUMP_OUT"


class StageError(Exception):
    """Wraps a pipeline stage failure with the stage name; keeps the cause."""

    def __init__(self, stage: str, cause: Exception):
        super().__init__(f"stage '{stage}': {cause}")
        self.cause = cause


# Exception types -> exit code, first match wins.  A StageError is judged by
# its cause, and a stage failing for any other reason is a configuration error.
EXIT_CODES = (
    (InvalidParameterError, EXIT_CONFIG),
    ((OSError, ParseError), EXIT_IO),  # OrderingError is a ParseError
    ((AssertionError, NumericOverflowError), EXIT_INTERNAL),
)


# ---------------------------------------------------------------------------
# option resolution: flags > config file > defaults

def _one_of(values):
    """Domain: one of the texts that ``values()`` returns."""
    def check(text: str) -> str | None:
        allowed = values()
        return None if text in allowed else f"must be one of {', '.join(allowed)}"
    return check


def _number(least=-math.inf, most=math.inf):
    """Domain: a finite number from ``least`` to ``most``."""
    def check(value) -> str | None:
        if not math.isfinite(value):
            return "must be finite"
        if value < least:
            return f"must be at least {least}"
        return f"must be at most {most}" if value > most else None
    return check


def _positive(value) -> str | None:
    """Domain: a finite number above 0."""
    return _number()(value) or ("must be positive" if value <= 0 else None)


def _calendar(spec: str) -> str | None:
    """Domain: a session calendar spec that ``SessionCalendar.from_spec`` reads."""
    try:
        market_data.SessionCalendar.from_spec(spec)
    except InvalidParameterError as exc:
        return f"must be sessions like 09:30-11:30,13:00-15:00 ({exc})"
    return None


def _algorithm_list(text: str) -> str | None:
    """Domain: a comma list of algorithm ids."""
    ids = classifiers.api.ALGORITHM_IDS
    unknown = {a.strip() for a in text.split(",")} - set(ids) - {""}
    return f"must be a comma list of {', '.join(ids)}" if unknown else None


# stage -> the options it reads: name -> (section, type, default, domain).  A
# flag's or config value's text is read as the type (a bool as configparser
# reads one); the default None marks a required option, and a default that is
# a function is called for the value.  A domain says what is wrong with a
# value, or returns None.  A text not of the type, or a value outside the
# domain, fails as the stage that reads it, before any stage runs.  Defaults
# and domains taken from the data stages' modules read them only when called.
OPTIONS = {
    "simulate": {
        "paths": ("simulate", int, 4, _number(1)),
        "seed": ("simulate", int, 0, _number(0)),
        "mu": ("simulate", float, 0.0, _number()),
        "beta": ("simulate", float, 0.0, _number()),
        "rho": ("simulate", float, -0.3, _number(most=0)),
        "lam": ("simulate", float, 1.0, _positive),
        "theta": ("simulate", float, 0.5, _number(0, 1)),
        "sigma0_sq": ("simulate", float, 1.0, _positive),
        "nu_base": ("simulate", float, 1.0, _number(0)),
        "a_base": ("simulate", float, 2.0, _positive),
        "nu_strong": ("simulate", float, 2.0, _number(0)),
        "a_strong": ("simulate", float, 2.0, _positive),
        "t_end": ("simulate", float, 1.0, _positive),
        "dt": ("simulate", float, 0.01, _positive),
        "noise_std": ("simulate", float, 0.0, _number(0)),
        "threads": ("simulate", int, 1, _number(1)),  # checked, but changes nothing (module docstring)
    },
    "ingest": {
        "calendar": ("calendar", str, lambda: market_data.SessionCalendar().to_spec(), _calendar),
        "trim_minutes": ("preprocess", int, 10, _number(0)),
        "trim_reopen": ("preprocess", bool, False, None),
        "outlier_sigma": ("preprocess", float, 10.0, _positive),
        "no_outliers": ("preprocess", bool, False, None),
    },
    "resample": {"interval": ("preprocess", int, 5, _number(1))},
    "stats": {"group_by": ("benchmark", str, "overall", _one_of(lambda: market_data.STATS_GROUPINGS))},
    "mark": {
        "window": ("labeling", int, 10, _number(1)),
        "lookahead": ("labeling", int, 10, _number(1)),
        "threshold_pct": ("labeling", float, 0.1, _positive),
        "min_jumps": ("labeling", int, 2, _number(1)),
        "direction": ("labeling", str, "down", _one_of(lambda: labeling.DIRECTIONS)),
        "stride": ("labeling", int, 1, _number(1)),
    },
    "fit": {
        "algorithm": ("train", str, None, _one_of(lambda: classifiers.api.ALGORITHM_IDS)),
        "train": ("train", str, None, None),  # a:b
        "test": ("train", str, "", None),  # c:d, or none
        "seed": ("train", int, 0, _number(0)),
    },
    "benchmark": {
        "algorithms": ("benchmark", str, lambda: ",".join(classifiers.api.ALGORITHM_IDS), _algorithm_list),
        "seed": ("benchmark", int, 0, _number(0)),
        "threads": ("benchmark", int, 1, _number(1)),  # as simulate's
    },
}


def _options(stages):
    """(reading stage, name, table entry) of each option that ``stages`` read."""
    return [(stage, name, entry) for stage in stages for name, entry in OPTIONS.get(stage, {}).items()]


def _flag(name: str) -> str:
    return "--" + name.replace("_", "-")


def _read_config(path: str | None) -> configparser.ConfigParser:
    cfg = configparser.ConfigParser(interpolation=None)  # values are literal, '%' included
    cfg.optionxform = str  # keep split and external-prediction names case-sensitive
    if path:
        if not Path(path).exists():
            raise InvalidParameterError(f"config file not found: {path}")
        if not Path(path).is_file():
            raise InvalidParameterError(f"config file is not a file: {path}")
        try:
            with open(path, encoding="utf-8-sig") as fh:
                cfg.read_file(fh)
        except (configparser.Error, UnicodeDecodeError) as exc:
            reason = " ".join(str(exc).split())  # configparser's messages span lines
            raise InvalidParameterError(f"bad config file {path}: {reason}") from None
    return cfg


def _read(typ, text: str):
    """``text`` read as ``typ``, a bool as configparser reads one; KeyError or ValueError if it is not one."""
    return configparser.ConfigParser.BOOLEAN_STATES[text.strip().lower()] if typ is bool else typ(text)


def _resolve(args, cfg: configparser.ConfigParser, stages, defaults: dict) -> dict:
    """Each option of ``stages``: the text of its flag, or else of its config
    value, read as the option's type, or else its default (``defaults``
    overrides the table's); every value is checked against its domain."""
    out = {}
    for stage, name, (section, typ, default, domain) in _options(stages):
        default = defaults.get(name, default)
        text = getattr(args, name, None)
        if text is None:
            text = cfg.get(section, name, fallback=None)
        if text is not None:
            try:
                out[name] = _read(typ, text)
            except (KeyError, ValueError):
                kind = {int: "an integer", float: "a number", bool: "true or false"}[typ]
                raise StageError(stage, InvalidParameterError(f"{name} must be {kind}, got {text}")) from None
        elif default is None:
            raise InvalidParameterError(f"{_flag(name)} or [{section}] {name} is required")
        else:
            out[name] = default() if callable(default) else default
        reason = domain and domain(out[name])
        if reason:
            given = out[name] if text is None else text
            raise StageError(stage, InvalidParameterError(f"{name} {reason}, got {given}"))
    return out


def _named_items(args, cfg: configparser.ConfigParser, section: str, flag: str) -> dict[str, str]:
    """The ``NAME = value`` pairs of a config section; each ``--flag NAME=value``
    replaces its namesake and moves it to the end."""
    items = dict(cfg.items(section)) if cfg.has_section(section) else {}
    for item in getattr(args, flag, None) or []:
        if "=" not in item:
            raise InvalidParameterError(f"--{flag} expects NAME=VALUE, got {item!r}")
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
        raise InvalidParameterError(f"date-based split point {token!r} requires return data")
    try:
        ts = datetime.fromisoformat(token)
    except ValueError:
        raise InvalidParameterError(f"split point {token!r} is neither an index nor an ISO datetime") from None
    return labeling.index_for_timestamp(indexed, ts)


def _parse_split(name: str, text: str, indexed=None) -> labeling.SplitSpec:
    """Parse 'a:b/c:d' (inclusive index ranges) or 'a..b/c..d'.

    The '..' form is required for ISO-datetime endpoints, which are
    resolved to indices through the return series.
    """
    parts = text.split("/")
    if len(parts) not in (1, 2):
        raise InvalidParameterError(f"split {name!r}: expected 'a:b' or 'a:b/c:d', got {text!r}")
    ranges = []
    for part in parts:
        bits = part.split("..") if ".." in part else part.split(":")
        if len(bits) != 2:
            raise InvalidParameterError(f"split {name!r}: bad range {part!r}")
        ranges.append((_parse_split_token(bits[0], indexed), _parse_split_token(bits[1], indexed)))
    return labeling.SplitSpec(train=ranges[0], test=ranges[1] if len(ranges) == 2 else None, name=name)


def _collect_splits(args, cfg: configparser.ConfigParser, indexed=None) -> list[labeling.SplitSpec]:
    raw = _named_items(args, cfg, "splits", "split")
    if not raw:
        raise InvalidParameterError("no splits given; use --split NAME=a:b/c:d or a [splits] config section")
    return [_parse_split(name, text, indexed) for name, text in raw.items()]


def _split_text(s: labeling.SplitSpec) -> str:
    text = f"{s.train[0]}:{s.train[1]}"
    if s.test is not None:
        text += f"/{s.test[0]}:{s.test[1]}"
    return text


def _hyperparams(items: dict[str, str]) -> dict[str, dict]:
    """Read and validate ``algorithm.name = text`` pairs: each text read as its
    default's type, if that value is accepted, or else kept as text, which
    ``resolve_hyperparams`` refuses, quoting it."""
    api = classifiers.api
    bank: dict[str, dict] = {}
    for key, value in items.items():
        if "." not in key:
            raise InvalidParameterError(f"hyperparameter {key} must be algorithm.name")
        algorithm, hp_name = key.split(".", 1)
        with suppress(KeyError, ValueError, InvalidParameterError):
            read = _read(type(api.DEFAULT_HYPERPARAMS[algorithm][hp_name]), value)
            value = api.resolve_hyperparams(algorithm, {hp_name: read})[hp_name]
        bank.setdefault(algorithm, {})[hp_name] = value
    for algorithm, overrides in bank.items():
        api.resolve_hyperparams(algorithm, overrides)
    return bank


def _out_dir(args, subcommand: str) -> Path:
    """The output directory; it is made only when a run first writes, so a
    refused run leaves none."""
    if args.out:
        return Path(args.out)
    return Path(os.environ.get(OUTPUT_ROOT_ENV, "bnsjump_out")) / subcommand


def _echo_config(out_dir: Path, opts: dict, stages, **extra: dict) -> None:
    """Write the effective config: each option of ``stages`` under its own
    section, plus the ``extra`` sections that are not empty.  `threads`
    changes nothing a run does, so it is not part of it."""
    sections = {name: values for name, values in extra.items() if values}
    for _, name, (section, *_) in _options(stages):
        if name != "threads":
            sections.setdefault(section, {})[name] = opts[name]
    cfg = configparser.ConfigParser(interpolation=None)
    cfg.optionxform = str
    for section in sorted(sections):
        cfg[section] = {key: str(sections[section][key]) for key in sorted(sections[section])}
    buf = StringIO()
    cfg.write(buf)
    (out_dir / "config_used.cfg").write_text(buf.getvalue(), encoding="utf-8")


# ---------------------------------------------------------------------------
# simulate

def _simulate_one(opts: dict, grid, params, i: int):
    seed = opts["seed"]
    z = subordinators.sample_subordinator_path(params.spec_base, params.lam, grid, seed=(seed, i, 0))
    zb = subordinators.sample_subordinator_path(params.spec_strong, params.lam, grid, seed=(seed, i, 1))
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
    n_steps = round(opts["t_end"] / opts["dt"])
    if abs(n_steps * opts["dt"] - opts["t_end"]) > 1e-9 * opts["t_end"]:
        raise InvalidParameterError(f"t_end {opts['t_end']} is not a whole number of dt {opts['dt']} steps")
    params = dynamics.ModelParams(
        mu=opts["mu"], beta=opts["beta"], rho=opts["rho"], lam=opts["lam"],
        theta=opts["theta"], sigma0_sq=opts["sigma0_sq"],
        spec_base=subordinators.SubordinatorSpec(opts["nu_base"], opts["a_base"]),
        spec_strong=subordinators.SubordinatorSpec(opts["nu_strong"], opts["a_strong"]),
    )
    grid = subordinators.TimeGrid(t0=0.0, dt=opts["dt"], n_steps=n_steps)

    paths_dir = run.out_dir / "paths"
    results = []  # each path's stats; its CSV is written before the next path is simulated
    for i in range(opts["paths"]):
        csv_text, path_stats = _simulate_one(opts, grid, params, i)
        if not i:
            paths_dir.mkdir(parents=True, exist_ok=True)
        (paths_dir / f"path_{i:05d}.csv").write_text(csv_text, encoding="utf-8")
        results.append(path_stats)

    n = opts["paths"]
    horizon = grid.horizon
    z_rates = np.array([s["z_total"] for s in results]) / horizon
    zb_rates = np.array([s["zb_total"] for s in results]) / horizon
    lam = params.lam

    def mc_block(samples: np.ndarray, spec) -> dict:
        mean_rate, var_rate = subordinators.subordinator_moments(spec)
        return {
            "n_paths": n,
            "sample_mean_rate": float(samples.mean() / lam),
            "sample_var_rate": float(samples.var(ddof=1) / lam) if n > 1 else None,
            "closed_form_mean_rate": mean_rate,
            "closed_form_var_rate": var_rate,
        }

    slacks = np.array([s["floor_slack"] for s in results])
    terminals = np.array([s["x_terminal"] for s in results])
    # an overflowing statistic is written as null, without numpy's warning
    with np.errstate(over="ignore", invalid="ignore"):
        return {
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
    calendar = market_data.SessionCalendar.from_spec(opts["calendar"])
    sigma = None if opts["no_outliers"] else opts["outlier_sigma"]
    bars, rejected = market_data.load_bars(run.args.input, calendar)
    clean, rate = market_data.preprocess(bars, trim_minutes=opts["trim_minutes"],
                                         outlier_sigma=sigma, trim_reopen=opts["trim_reopen"])
    run.info = {
        "rows_loaded": len(bars) + rejected,
        "rows_in_sessions": len(bars),
        "rejected_outside_sessions": rejected,
        "rows_after_preprocess": len(clean),
        "preprocess_rejection_rate": rate,
    }
    return clean


def _label_config(opts: dict) -> labeling.LabelingConfig:
    return labeling.LabelingConfig(window_len=opts["window"], lookahead=opts["lookahead"],
                                   threshold_pct=opts["threshold_pct"], min_jumps=opts["min_jumps"],
                                   direction=opts["direction"], stride=opts["stride"])


def _read_labeled(path: str) -> labeling.LabeledDataset:
    """The labeled CSV, bounded like ``pipeline`` bounds its splits.

    Split ranges are checked against the length of the return series, which
    the CSV does not hold; ``label`` records it as ``n_returns`` in the
    ``label.json`` it writes beside the CSV.
    """
    dataset = labeling.read_dataset_csv(path)
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
            external[name] = classifiers.benchmark.load_external_predictions(path)
        except ParseError as exc:  # name the file among several --external
            raise ParseError(f"{name}={path}: {exc}") from None
    return classifiers.benchmark.run_benchmark(run.dataset, run.splits, algorithms, run.bank,
                                               seed=run.opts["seed"], external=external)


def _fit(run) -> dict:
    """One algorithm trained on the ``train`` range and scored on ``test``:
    the payload of ``train_report.json``."""
    opts = run.opts
    spec = _parse_split("cli", f"{opts['train']}/{opts['test']}" if opts["test"] else opts["train"])
    train_set, test_set = labeling.split(run.dataset, spec)
    cell = classifiers.benchmark.fit_and_score(spec.name, opts["algorithm"], train_set, test_set,
                                               run.bank.get(opts["algorithm"]), opts["seed"])
    payload = {"algorithm": cell.algorithm, "train_rows": len(train_set),
               "hyperparams": cell.hyperparams, "degenerate": cell.degenerate}
    if cell.report is not None:
        payload["test"] = asdict(cell.report)
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
    "index": ("indexed", lambda r: labeling.index_series(r.returns)),
    "mark": ("marks", lambda r: labeling.mark_big_jumps(r.indexed, _label_config(r.opts))),
    "label": ("dataset", lambda r: labeling.build_dataset(r.indexed, r.marks, _label_config(r.opts))),
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
    "labeled.csv": lambda fh, r: labeling.write_dataset_csv(fh, r.dataset),
    "label.json": lambda fh, r: fh.write(dumps(_label_counts(r))),
    "reports.csv": lambda fh, r: classifiers.benchmark.write_benchmark_csv(fh, r.cells),
    "reports.txt": lambda fh, r: fh.write(classifiers.benchmark.format_benchmark_text(r.cells)),
    "hyperparams_used.json": lambda fh, r: fh.write(
        dumps({c.algorithm: c.hyperparams for c in r.cells if c.hyperparams})),
    "summary.json": lambda fh, r: fh.write(dumps(r.summary)),
    "train_report.json": lambda fh, r: fh.write(dumps(r.trained)),
}

LABEL_STAGES = ("ingest", "resample", "pct_change", "index", "mark", "label")
REPORT_FILES = ("reports.csv", "reports.txt", "hyperparams_used.json")

# subcommand -> (its defaults in place of OPTIONS', stages in order, files
# written besides config_used.cfg); it reads the options of its stages.
# `stats` groups its statistics overall unless told otherwise, `pipeline` by month.
DATA_COMMANDS = {
    "simulate": ({}, ("simulate",), ("summary.json",)),
    "ingest": ({}, ("ingest",), ("bars_clean.csv", "ingest.json")),
    "stats": ({}, ("ingest", "resample", "stats"), ("stats.csv", "stats.json", "ingest.json")),
    "label": ({}, LABEL_STAGES, ("labeled.csv", "label.json")),
    "train": ({}, ("load_labeled", "fit"), ("train_report.json",)),
    "report": ({}, ("load_labeled", "splits", "benchmark"), REPORT_FILES),
    "pipeline": ({"group_by": "month"},
                 ("ingest", "resample", "pct_change", "stats", "realized_measures", "index", "mark",
                  "label", "splits", "benchmark", "summarize"),
                 ("stats.csv", "stats.json", "rv_day.csv", "rv_day.json", "labeled.csv")
                 + REPORT_FILES + ("summary.json",)),
}


def run_data_command(args) -> int:
    """Run the stages a subcommand names, then write its files."""
    defaults, stages, files = DATA_COMMANDS[args.subcommand]
    cfg = _read_config(args.config)
    run = SimpleNamespace(args=args, cfg=cfg, opts=_resolve(args, cfg, stages, defaults), indexed=None,
                          splits=(), hp={}, external={})
    if hasattr(args, "hp"):  # the subcommands whose stages fit; see STAGE_FLAGS
        run.hp = _named_items(args, cfg, "hyperparams", "hp")
        run.bank = _hyperparams(run.hp)
    if hasattr(args, "external"):
        run.external = _named_items(args, cfg, "external", "external")
    out_dir = run.out_dir = _out_dir(args, args.subcommand)
    for name in stages:
        attr, fn = STAGES[name]
        setattr(run, attr, _stage(name, fn, run))
    out_dir.mkdir(parents=True, exist_ok=True)
    _echo_config(out_dir, run.opts, stages, hyperparams=run.hp, external=run.external,
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


def build_parser(subcommand: str | None = None) -> argparse.ArgumentParser:
    """One subparser per subcommand: ``--out``, ``--config``, the flags its
    stages read and one flag per option of its stages.  Given a
    ``subcommand``, only that one gets its flags; every subcommand is still
    offered, so the help and the error for an unknown one do not change."""
    parser = argparse.ArgumentParser(prog="bnsjump",
                                     description="BN-S simulation and jump-prediction pipeline")
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name, (_, stages, files) in DATA_COMMANDS.items():
        p = sub.add_parser(name, help=f"{' > '.join(stages)}; writes {', '.join(files)}")
        if subcommand not in (None, name):
            continue
        p.add_argument("--out", help=f"output directory (default ${OUTPUT_ROOT_ENV}/<subcommand>)")
        p.add_argument("--config", help="INI config file; flags override its values")
        for flag, (readers, kwargs) in STAGE_FLAGS.items():
            if set(readers) & set(stages):
                p.add_argument(flag, **kwargs)
        for _, option, (section, typ, *_) in _options(stages):
            kwargs = {"action": "store_const", "const": "true"} if typ is bool else {}
            p.add_argument(_flag(option), dest=option, help=f"config: [{section}] {option}", **kwargs)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    # the top-level parser takes no option but --help, so a subcommand comes first
    args = build_parser(argv[0] if argv else None).parse_args(argv)
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
