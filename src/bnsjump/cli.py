"""Command-line entry point wiring the pipeline end-to-end.

Subcommands: simulate, ingest, stats, label, train, report, pipeline.
Options resolve as flags > config file > defaults, and every run echoes
its effective configuration to ``config_used.cfg`` in the output
directory; re-running from that file reproduces the outputs byte for
byte, regardless of ``--threads``.

Exit codes: 0 success, 2 configuration/usage error, 3 I/O or input-data
error, 4 internal consistency failure.
"""

from __future__ import annotations

import argparse
import configparser
import json
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace
from datetime import datetime
from io import StringIO
from pathlib import Path

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
from .errors import (
    InvalidParameterError,
    MissingSeriesError,
    NumericOverflowError,
    OrderingError,
    ParseError,
)
from .labeling import (
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
from .subordinators import SubordinatorSpec, TimeGrid, sample_subordinator_path, subordinator_moments

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


# ---------------------------------------------------------------------------
# option resolution: flags > config file > defaults

SIMULATE_OPTIONS = {
    # name: (section, type, default)
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
    "s0": ("simulate", float, 100.0),
    "threads": ("simulate", int, 1),
}

DATA_OPTIONS = {
    "calendar": ("calendar", str, SessionCalendar().to_spec()),
    "trim_minutes": ("preprocess", int, 10),
    "trim_reopen": ("preprocess", bool, False),
    "outlier_sigma": ("preprocess", float, 10.0),
    "no_outliers": ("preprocess", bool, False),
    "interval": ("preprocess", int, 5),
}

LABEL_OPTIONS = {
    "window": ("labeling", int, 10),
    "lookahead": ("labeling", int, 10),
    "threshold_pct": ("labeling", float, 0.1),
    "min_jumps": ("labeling", int, 2),
    "direction": ("labeling", str, "down"),
    "stride": ("labeling", int, 1),
}

BENCH_OPTIONS = {
    "algorithms": ("benchmark", str, ",".join(ALGORITHM_IDS)),
    "seed": ("benchmark", int, 0),
    "threads": ("benchmark", int, 1),
    "group_by": ("benchmark", str, "month"),
}


def _read_config(path: str | None) -> configparser.ConfigParser:
    cfg = configparser.ConfigParser()
    cfg.optionxform = str  # keep split and external-prediction names case-sensitive
    if path:
        if not Path(path).exists():
            raise ConfigError(f"config file not found: {path}")
        cfg.read(path, encoding="utf-8")
    return cfg


def _resolve(args, cfg: configparser.ConfigParser, table: dict) -> dict:
    out = {}
    for name, (section, typ, default) in table.items():
        flag_val = getattr(args, name, None)
        if flag_val is not None:
            out[name] = flag_val
            continue
        if cfg.has_option(section, name):
            try:
                if typ is bool:
                    out[name] = cfg.getboolean(section, name)
                else:
                    out[name] = typ(cfg.get(section, name))
            except ValueError as exc:
                raise ConfigError(f"bad config value for [{section}] {name}: {exc}") from None
            continue
        out[name] = default
    return out


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
    raw: list[tuple[str, str]] = []
    if cfg.has_section("splits"):
        raw.extend(cfg.items("splits"))
    for item in getattr(args, "split", None) or []:
        if "=" not in item:
            raise ConfigError(f"--split expects NAME=a:b/c:d, got {item!r}")
        name, text = item.split("=", 1)
        raw = [(n, t) for n, t in raw if n != name]
        raw.append((name, text))
    return [_parse_split(name, text, indexed) for name, text in raw]


def _collect_hyperparams(args, cfg: configparser.ConfigParser) -> dict[str, dict]:
    bank: dict[str, dict] = {}

    def add(key: str, value: str):
        if "." not in key:
            raise ConfigError(f"hyperparameter {key!r} must be algorithm.name")
        algorithm, hp_name = key.split(".", 1)
        try:
            parsed = json.loads(value)
        except json.JSONDecodeError:
            parsed = value
        bank.setdefault(algorithm, {})[hp_name] = parsed

    if cfg.has_section("hyperparams"):
        for key, value in cfg.items("hyperparams"):
            add(key, value)
    for item in getattr(args, "hp", None) or []:
        if "=" not in item:
            raise ConfigError(f"--hp expects algorithm.name=value, got {item!r}")
        key, value = item.split("=", 1)
        add(key, value)
    for algorithm, overrides in bank.items():
        resolve_hyperparams(algorithm, overrides)  # validates names
    return bank


def _split_text(s: SplitSpec) -> str:
    text = f"{s.train[0]}:{s.train[1]}"
    if s.test is not None:
        text += f"/{s.test[0]}:{s.test[1]}"
    return text


def _collect_external(args, cfg: configparser.ConfigParser) -> dict[str, dict[int, int]]:
    sources: dict[str, str] = {}
    if cfg.has_section("external"):
        sources.update(cfg.items("external"))
    for item in getattr(args, "external", None) or []:
        if "=" not in item:
            raise ConfigError(f"--external expects NAME=path, got {item!r}")
        name, path = item.split("=", 1)
        sources[name] = path
    return {name: load_external_predictions(path) for name, path in sorted(sources.items())}


def _out_dir(args, subcommand: str) -> Path:
    if getattr(args, "out", None):
        path = Path(args.out)
    else:
        root = os.environ.get(OUTPUT_ROOT_ENV, "bnsjump_out")
        path = Path(root) / subcommand
    path.mkdir(parents=True, exist_ok=True)
    return path


def _echo_config(out_dir: Path, sections: dict[str, dict]) -> None:
    """Write the effective config; `threads` is an execution knob that does
    not affect results and is deliberately not part of it."""
    cfg = configparser.ConfigParser()
    cfg.optionxform = str
    for section in sorted(sections):
        cfg[section] = {}
        for key in sorted(sections[section]):
            if key == "threads":
                continue
            value = sections[section][key]
            cfg[section][key] = str(value)
    buf = StringIO()
    cfg.write(buf)
    (out_dir / "config_used.cfg").write_text(buf.getvalue(), encoding="utf-8")


def _write_json(path: Path, payload) -> None:
    path.write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n", encoding="utf-8")


# ---------------------------------------------------------------------------
# simulate

def _simulate_one(opts: dict, grid: TimeGrid, params, i: int):
    seed = opts["seed"]
    z = sample_subordinator_path(params.spec_base, params.lam, grid, seed=(seed, i, 0))
    zb = sample_subordinator_path(params.spec_strong, params.lam, grid, seed=(seed, i, 1))
    var_path = dynamics.simulate_variance_path(params, z, zb)
    price = dynamics.simulate_log_price(params, var_path, z, zb, seed=(seed, i, 2), s0=opts["s0"])
    if opts["noise_std"] > 0:
        price = dynamics.apply_noise(price, dynamics.NoiseSpec(std=opts["noise_std"]), seed=(seed, i, 3))
    csv_text = dynamics.dumps_path_csv(var_path, price)
    floor = np.exp(-params.lam * (grid.times() - grid.t0)) * params.sigma0_sq
    stats = {
        "z_total": z.total(),
        "zb_total": zb.total(),
        "floor_slack": float(np.min(var_path.values - floor)),
        "x_terminal": float(price.x_true[-1]),
    }
    return csv_text, stats


def cmd_simulate(args) -> int:
    cfg = _read_config(getattr(args, "config", None))
    opts = _resolve(args, cfg, SIMULATE_OPTIONS)
    out_dir = _out_dir(args, "simulate")
    params = dynamics.ModelParams(
        mu=opts["mu"], beta=opts["beta"], rho=opts["rho"], lam=opts["lam"],
        theta=opts["theta"], sigma0_sq=opts["sigma0_sq"],
        spec_base=SubordinatorSpec(opts["nu_base"], opts["a_base"]),
        spec_strong=SubordinatorSpec(opts["nu_strong"], opts["a_strong"]),
    )
    if opts["dt"] <= 0 or opts["t_end"] <= 0:
        raise ConfigError("dt and t_end must be positive")
    n_steps = max(1, int(round(opts["t_end"] / opts["dt"])))
    grid = TimeGrid(t0=0.0, dt=opts["dt"], n_steps=n_steps)
    _echo_config(out_dir, {"simulate": opts})

    n = opts["paths"]
    indices = range(n)
    if opts["threads"] > 1:
        with ThreadPoolExecutor(max_workers=opts["threads"]) as pool:
            results = list(pool.map(lambda i: _simulate_one(opts, grid, params, i), indices))
    else:
        results = [_simulate_one(opts, grid, params, i) for i in indices]

    paths_dir = out_dir / "paths"
    paths_dir.mkdir(exist_ok=True)
    for i, (csv_text, _) in enumerate(results):
        (paths_dir / f"path_{i:05d}.csv").write_text(csv_text, encoding="utf-8")

    horizon = grid.horizon
    z_rates = np.array([s["z_total"] for _, s in results]) / horizon
    zb_rates = np.array([s["zb_total"] for _, s in results]) / horizon
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

    slacks = np.array([s["floor_slack"] for _, s in results])
    terminals = np.array([s["x_terminal"] for _, s in results])
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
    _write_json(out_dir / "summary.json", summary)
    print(f"simulate: wrote {n} paths to {paths_dir}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# data subcommands

def _load_and_clean(args, opts: dict):
    calendar = SessionCalendar.from_spec(opts["calendar"])
    bars, rejected = market_data.load_bars(args.input, calendar)
    policy = None if opts["no_outliers"] else market_data.sigma_outlier_policy(opts["outlier_sigma"])
    clean, rate = market_data.preprocess(bars, trim_minutes=opts["trim_minutes"],
                                         outlier_policy=policy, trim_reopen=opts["trim_reopen"])
    info = {
        "rows_loaded": len(bars) + rejected,
        "rows_in_sessions": len(bars),
        "rejected_outside_sessions": rejected,
        "rows_after_preprocess": len(clean),
        "preprocess_rejection_rate": rate,
    }
    return clean, info


def cmd_ingest(args) -> int:
    cfg = _read_config(getattr(args, "config", None))
    opts = _resolve(args, cfg, DATA_OPTIONS)
    out_dir = _out_dir(args, "ingest")
    clean, info = _load_and_clean(args, opts)
    _echo_config(out_dir, {"run": {"subcommand": "ingest", "input": args.input},
                           "calendar": {"calendar": opts["calendar"]},
                           "preprocess": {k: opts[k] for k in
                                          ("trim_minutes", "trim_reopen", "outlier_sigma", "no_outliers")}})
    with open(out_dir / "bars_clean.csv", "w", encoding="utf-8", newline="") as fh:
        market_data.write_bars_csv(fh, clean)
    _write_json(out_dir / "ingest.json", info)
    print(f"ingest: {info['rows_after_preprocess']} bars retained "
          f"(rate {info['preprocess_rejection_rate']:.4f})")
    return EXIT_OK


def cmd_stats(args) -> int:
    cfg = _read_config(getattr(args, "config", None))
    opts = _resolve(args, cfg, DATA_OPTIONS)
    group_by = args.group_by or "overall"
    out_dir = _out_dir(args, "stats")
    clean, info = _load_and_clean(args, opts)
    sampled = market_data.resample(clean, opts["interval"])
    reports = market_data.descriptive_stats(sampled, group_by=group_by)
    _echo_config(out_dir, {"run": {"subcommand": "stats", "input": args.input},
                           "calendar": {"calendar": opts["calendar"]},
                           "stats": {"interval": opts["interval"], "group_by": group_by}})
    with open(out_dir / "stats.csv", "w", encoding="utf-8", newline="") as fh:
        market_data.write_stats_csv(fh, reports)
    (out_dir / "stats.json").write_text(market_data.stats_to_json(reports), encoding="utf-8")
    _write_json(out_dir / "ingest.json", info)
    print(f"stats: {len(reports)} group(s) written to {out_dir}")
    return EXIT_OK


def _label_config(opts: dict) -> LabelingConfig:
    return LabelingConfig(window_len=opts["window"], lookahead=opts["lookahead"],
                          threshold_pct=opts["threshold_pct"], min_jumps=opts["min_jumps"],
                          direction=opts["direction"], stride=opts["stride"])


def cmd_label(args) -> int:
    cfg = _read_config(getattr(args, "config", None))
    opts = _resolve(args, cfg, DATA_OPTIONS) | _resolve(args, cfg, LABEL_OPTIONS)
    out_dir = _out_dir(args, "label")
    clean, info = _load_and_clean(args, opts)
    sampled = market_data.resample(clean, opts["interval"])
    returns = market_data.pct_change(sampled)
    indexed = index_series(returns)
    label_cfg = _label_config(opts)
    marks = mark_big_jumps(indexed, label_cfg)
    dataset = build_dataset(indexed, marks, label_cfg)
    _echo_config(out_dir, {
        "run": {"subcommand": "label", "input": args.input},
        "calendar": {"calendar": opts["calendar"]},
        "preprocess": {k: opts[k] for k in ("trim_minutes", "trim_reopen", "outlier_sigma",
                                            "no_outliers", "interval")},
        "labeling": {k: opts[k] for k in LABEL_OPTIONS},
    })
    with open(out_dir / "labeled.csv", "w", encoding="utf-8", newline="") as fh:
        write_dataset_csv(fh, dataset)
    zeros, ones = dataset.class_counts()
    info.update({"n_returns": len(returns), "n_marks": int(marks.sum()),
                 "n_anchors": len(dataset), "theta0": zeros, "theta1": ones})
    _write_json(out_dir / "label.json", info)
    print(f"label: {len(dataset)} anchors ({ones} positive) written to {out_dir}")
    return EXIT_OK


def _read_labeled(path: str) -> LabeledDataset:
    """The labeled CSV, bounded like ``pipeline`` bounds its splits.

    Split ranges are checked against the length of the return series, which
    the CSV does not hold; ``label`` records it as ``n_returns`` in the
    ``label.json`` it writes beside the CSV.
    """
    with open(path, "r", encoding="utf-8", newline="") as fh:
        dataset = read_dataset_csv(fh)
    info = Path(path).with_name("label.json")
    if not info.exists():
        return dataset
    try:
        n_returns = int(json.loads(info.read_text(encoding="utf-8"))["n_returns"])
    except (ValueError, KeyError, TypeError) as exc:
        raise ParseError(f"{info}: no usable n_returns ({exc!r})") from None
    return replace(dataset, source_length=n_returns)


def cmd_train(args) -> int:
    cfg = _read_config(getattr(args, "config", None))
    out_dir = _out_dir(args, "train")
    dataset = _read_labeled(args.dataset)
    spec = _parse_split("cli", f"{args.train}/{args.test}" if args.test else args.train)
    train_set, test_set = split(dataset, spec)
    bank = _collect_hyperparams(args, cfg)
    model = train_model(args.algorithm, train_set, bank.get(args.algorithm), seed=args.seed or 0)
    payload = {"algorithm": args.algorithm, "train_rows": len(train_set),
               "hyperparams": model.metadata["hyperparams"], "degenerate": model.degenerate}
    if len(test_set):
        report = evaluate(predict(model, test_set.features), test_set.theta)
        payload["test"] = {
            "n": report.n, "accuracy": report.accuracy,
            "class0": report.class0.__dict__ | {"zero_division": list(report.class0.zero_division)},
            "class1": report.class1.__dict__ | {"zero_division": list(report.class1.zero_division)},
        }
    _echo_config(out_dir, {"train": {"algorithm": args.algorithm, "train": args.train,
                                     "test": args.test or "", "seed": args.seed or 0}})
    _write_json(out_dir / "train_report.json", payload)
    print(f"train: {args.algorithm} on {len(train_set)} rows"
          + (f", test accuracy {payload['test']['accuracy']:.3f}" if "test" in payload else ""))
    return EXIT_OK


def _run_reports(dataset, splits, algorithms, bank, seed, external, threads, out_dir):
    cells = run_benchmark(dataset, splits, algorithms, bank, seed=seed,
                          external=external, max_workers=threads)
    with open(out_dir / "reports.csv", "w", encoding="utf-8", newline="") as fh:
        write_benchmark_csv(fh, cells)
    (out_dir / "reports.txt").write_text(format_benchmark_text(cells), encoding="utf-8")
    used = {c.algorithm: c.hyperparams for c in cells if c.hyperparams}
    _write_json(out_dir / "hyperparams_used.json", used)
    return cells


def cmd_report(args) -> int:
    cfg = _read_config(getattr(args, "config", None))
    opts = _resolve(args, cfg, BENCH_OPTIONS)
    out_dir = _out_dir(args, "report")
    dataset = _read_labeled(args.dataset)
    splits = _collect_splits(args, cfg)
    if not splits:
        raise ConfigError("no splits given; use --split NAME=a:b/c:d")
    algorithms = [a.strip() for a in opts["algorithms"].split(",") if a.strip()]
    bank = _collect_hyperparams(args, cfg)
    external = _collect_external(args, cfg)
    _echo_config(out_dir, {"benchmark": {"algorithms": opts["algorithms"], "seed": opts["seed"],
                                         "threads": opts["threads"]},
                           "splits": {s.name: _split_text(s) for s in splits}})
    cells = _run_reports(dataset, splits, algorithms, bank, opts["seed"], external,
                         opts["threads"], out_dir)
    print(f"report: {len(cells)} report cells written to {out_dir}")
    return EXIT_OK


def cmd_pipeline(args) -> int:
    cfg = _read_config(getattr(args, "config", None))
    opts = (_resolve(args, cfg, DATA_OPTIONS) | _resolve(args, cfg, LABEL_OPTIONS)
            | _resolve(args, cfg, BENCH_OPTIONS))
    out_dir = _out_dir(args, "pipeline")

    def stage(name, fn, *fn_args, **kw):
        try:
            return fn(*fn_args, **kw)
        except StageError:
            raise
        except Exception as exc:
            raise StageError(name, exc) from exc

    if not Path(args.input).exists():
        raise FileNotFoundError(f"input file not found: {args.input}")

    clean, info = stage("ingest", _load_and_clean, args, opts)
    sampled = stage("resample", market_data.resample, clean, opts["interval"])
    returns = stage("pct_change", market_data.pct_change, sampled)
    stats_reports = stage("stats", market_data.descriptive_stats, sampled, opts["group_by"])
    rv = stage("realized_measures", market_data.realized_measures, returns, "day")
    indexed = stage("index", index_series, returns)
    label_cfg = _label_config(opts)
    marks = stage("mark", mark_big_jumps, indexed, label_cfg)
    dataset = stage("label", build_dataset, indexed, marks, label_cfg)
    splits = stage("splits", _collect_splits, args, cfg, indexed)
    if not splits:
        raise ConfigError("no splits given; use --split NAME=a:b/c:d or a [splits] config section")
    algorithms = [a.strip() for a in opts["algorithms"].split(",") if a.strip()]
    bank = stage("hyperparams", _collect_hyperparams, args, cfg)
    external = stage("external", _collect_external, args, cfg)

    _echo_config(out_dir, {
        "run": {"subcommand": "pipeline", "input": args.input},
        "calendar": {"calendar": opts["calendar"]},
        "preprocess": {k: opts[k] for k in ("trim_minutes", "trim_reopen", "outlier_sigma",
                                            "no_outliers", "interval")},
        "labeling": {k: opts[k] for k in LABEL_OPTIONS},
        "benchmark": {"algorithms": opts["algorithms"], "seed": opts["seed"],
                      "group_by": opts["group_by"]},
        "splits": {s.name: _split_text(s) for s in splits},
    })

    with open(out_dir / "stats.csv", "w", encoding="utf-8", newline="") as fh:
        market_data.write_stats_csv(fh, stats_reports)
    (out_dir / "stats.json").write_text(market_data.stats_to_json(stats_reports), encoding="utf-8")
    with open(out_dir / "rv_day.csv", "w", encoding="utf-8", newline="") as fh:
        market_data.write_rv_csv(fh, rv)
    (out_dir / "rv_day.json").write_text(market_data.rv_to_json(rv), encoding="utf-8")
    with open(out_dir / "labeled.csv", "w", encoding="utf-8", newline="") as fh:
        write_dataset_csv(fh, dataset)

    cells = stage("benchmark", _run_reports, dataset, splits, algorithms, bank,
                  opts["seed"], external, opts["threads"], out_dir)

    zeros, ones = dataset.class_counts()
    supports = {}
    for cell in cells:
        supports.setdefault(cell.split_name, list(cell.report.supports()))
    summary = dict(info)
    summary.update({
        "n_returns": len(returns), "n_marks": int(marks.sum()),
        "n_anchors": len(dataset), "theta0": zeros, "theta1": ones,
        "supports_per_split": supports,
        "n_report_cells": len(cells),
    })
    _write_json(out_dir / "summary.json", summary)
    print(f"pipeline: complete, outputs in {out_dir}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser

def _add_common(p: argparse.ArgumentParser):
    p.add_argument("--out", help=f"output directory (default ${OUTPUT_ROOT_ENV}/<subcommand>)")
    p.add_argument("--config", help="INI config file; flags override its values")


def _add_data_flags(p: argparse.ArgumentParser):
    p.add_argument("--input", required=True, help="minute-bar CSV with header 'timestamp,close'")
    p.add_argument("--calendar", help="sessions, e.g. '09:30-11:30,13:00-15:00'")
    p.add_argument("--trim-minutes", dest="trim_minutes", type=int)
    p.add_argument("--trim-reopen", dest="trim_reopen", action="store_const", const=True)
    p.add_argument("--outlier-sigma", dest="outlier_sigma", type=float)
    p.add_argument("--no-outliers", dest="no_outliers", action="store_const", const=True)
    p.add_argument("--interval", type=int, help="resample interval in trading minutes")


def _add_label_flags(p: argparse.ArgumentParser):
    p.add_argument("--window", type=int)
    p.add_argument("--lookahead", type=int)
    p.add_argument("--threshold-pct", dest="threshold_pct", type=float)
    p.add_argument("--min-jumps", dest="min_jumps", type=int)
    p.add_argument("--direction", choices=["down", "up", "both"])
    p.add_argument("--stride", type=int)


def _add_bench_flags(p: argparse.ArgumentParser):
    p.add_argument("--split", action="append", metavar="NAME=a:b/c:d",
                   help="inclusive train/test index ranges (or ISO datetimes); repeatable")
    p.add_argument("--algorithms", help="comma-separated algorithm ids")
    p.add_argument("--seed", type=int)
    p.add_argument("--threads", type=int)
    p.add_argument("--hp", action="append", metavar="ALGORITHM.NAME=VALUE",
                   help="hyperparameter override; repeatable")
    p.add_argument("--external", action="append", metavar="NAME=PATH",
                   help="external predictions CSV 'index,predicted_theta'; repeatable")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="bnsjump",
                                     description="BN-S simulation and jump-prediction pipeline")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("simulate", help="simulate model paths and write CSVs + summary")
    _add_common(p)
    for name in SIMULATE_OPTIONS:
        flag = "--" + name.replace("_", "-")
        p.add_argument(flag, dest=name, type=float if SIMULATE_OPTIONS[name][1] is float else int)

    p = sub.add_parser("ingest", help="load, filter and write clean bars")
    _add_common(p)
    _add_data_flags(p)

    p = sub.add_parser("stats", help="descriptive statistics of (resampled) closes")
    _add_common(p)
    _add_data_flags(p)
    p.add_argument("--group-by", dest="group_by", choices=["overall", "month"])

    p = sub.add_parser("label", help="build the windowed labeled dataset")
    _add_common(p)
    _add_data_flags(p)
    _add_label_flags(p)

    p = sub.add_parser("train", help="train one algorithm on an index split")
    _add_common(p)
    p.add_argument("--dataset", required=True, help="labeled CSV from the label step")
    p.add_argument("--algorithm", required=True, choices=list(ALGORITHM_IDS))
    p.add_argument("--train", required=True, metavar="a:b")
    p.add_argument("--test", metavar="c:d")
    p.add_argument("--seed", type=int)
    p.add_argument("--hp", action="append", metavar="ALGORITHM.NAME=VALUE")

    p = sub.add_parser("report", help="benchmark algorithms over splits")
    _add_common(p)
    p.add_argument("--dataset", required=True)
    _add_bench_flags(p)

    p = sub.add_parser("pipeline", help="end-to-end: ingest .. benchmark")
    _add_common(p)
    _add_data_flags(p)
    _add_label_flags(p)
    _add_bench_flags(p)
    p.add_argument("--group-by", dest="group_by", choices=["overall", "month"])

    return parser


COMMANDS = {
    "simulate": cmd_simulate,
    "ingest": cmd_ingest,
    "stats": cmd_stats,
    "label": cmd_label,
    "train": cmd_train,
    "report": cmd_report,
    "pipeline": cmd_pipeline,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return COMMANDS[args.subcommand](args)
    except StageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        cause = exc.cause
        if isinstance(cause, (OSError, ParseError, OrderingError)):
            return EXIT_IO
        if isinstance(cause, (AssertionError, NumericOverflowError)):
            return EXIT_INTERNAL
        return EXIT_CONFIG
    except (ConfigError, InvalidParameterError, MissingSeriesError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (OSError, ParseError, OrderingError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except (AssertionError, NumericOverflowError) as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
