"""Synthetic minute-bar fixtures.

Real vendor data cannot be bundled, so tests and demos run on generated
two-session days: a small Gaussian percent-change walk with occasional
clustered down-moves large enough to cross the default 0.1% jump
threshold.  Deterministic for a fixed seed.

Stamps are laid out as one ``datetime64[us]`` column, every day at once, and
stay a column until ``market_data``'s one stamp formatter writes them.
"""

from __future__ import annotations

import argparse
import sys
from contextlib import suppress
from datetime import date

import numpy as np

from .market_data import BarSeries, SessionCalendar, write_bars_csv
from .seeding import substream

BASE_PRICE = 5000.0  # the first bar's close moves from here
NOISE_PCT = 0.05  # standard deviation of a quiet minute's percent change
BURST_PROB = 0.01  # chance per quiet minute that a cluster of drops begins


def session_minutes(calendar: SessionCalendar, day: date) -> np.ndarray:
    """Bar timestamps of one trading day, datetime64[us]: every minute after
    each session open through the session close (the open minute itself has
    no bar)."""
    minute = np.timedelta64(1, "m")
    return np.datetime64(day, "D") + np.concatenate(
        [np.arange(open_ + minute, close + minute, minute) for open_, close in calendar.bounds()])


def synthetic_bars(
    days: int = 5,
    seed: int = 7,
    start: date = date(2021, 1, 4),
    calendar: SessionCalendar | None = None,
) -> BarSeries:
    """Minute bars over ``days`` consecutive synthetic trading days.

    With probability ``BURST_PROB`` per minute a cluster of 2-4 consecutive
    drops of 0.1%-0.3% begins, seeding windows where the jump labeler finds
    the positive class.
    """
    calendar = calendar or SessionCalendar()
    day_offsets = np.arange(days).astype("timedelta64[D]")[:, None]
    stamps = (session_minutes(calendar, start) + day_offsets).ravel()
    rng = substream(seed)
    # One draw at a time from one stream: whether a burst starts depends on
    # earlier draws.  Each is numpy's own formula for the call it stands for,
    # loc + scale * standard_normal() and low + (high - low) * random(), so
    # every close keeps its bits, without the broadcasting scalar paths.
    normal, uniform, integers = rng.standard_normal, rng.random, rng.integers
    closes: list[float] = []
    price = BASE_PRICE
    burst_left = 0
    for _ in range(len(stamps)):
        if burst_left > 0:
            change = -(0.1 + (0.3 - 0.1) * uniform())
            burst_left -= 1
        else:
            change = 0.0 + NOISE_PCT * normal()
            if uniform() < BURST_PROB:
                burst_left = int(integers(2, 5))
        price *= 1.0 + change / 100.0
        closes.append(price)
    return BarSeries.build(stamps, closes, calendar)


def _at_least(least: int):
    """An argparse type: an integer of at least ``least``."""
    def parse(text: str) -> int:
        with suppress(ValueError):
            if int(text) >= least:
                return int(text)
        raise argparse.ArgumentTypeError(f"must be an integer >= {least}, got {text!r}")
    return parse


def _iso_date(text: str) -> date:
    try:
        return date.fromisoformat(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"must be an ISO date like 2021-01-04, got {text!r}") from None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="bnsjump.synthetic",
                                     description="write a synthetic minute-bar CSV fixture")
    parser.add_argument("--out", required=True, help="output CSV path")
    parser.add_argument("--days", type=_at_least(1), default=5)
    parser.add_argument("--seed", type=_at_least(0), default=7)
    parser.add_argument("--start", type=_iso_date, default=date(2021, 1, 4), help="first day, ISO date")
    args = parser.parse_args(argv)
    bars = synthetic_bars(days=args.days, seed=args.seed, start=args.start)
    with open(args.out, "w", encoding="utf-8", newline="") as fh:
        write_bars_csv(fh, bars)
    print(f"wrote {len(bars)} bars to {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
