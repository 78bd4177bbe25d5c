import sys
from datetime import date, datetime, timedelta
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

from bnsjump.labeling import LabeledDataset
from bnsjump.market_data import BarSeries, ReturnSeries, SessionCalendar
from bnsjump.synthetic import session_minutes, synthetic_bars


def single_day_bars(closes=None, day=date(2021, 1, 4)):
    """One full 240-bar day (09:31-11:30 and 13:01-15:00) under the default
    calendar, with constant closes unless a 240-vector is supplied."""
    stamps = session_minutes(SessionCalendar(), day)
    return BarSeries.build(stamps, [5000.0] * len(stamps) if closes is None else closes,
                           SessionCalendar())


@pytest.fixture(scope="session")
def calendar():
    return SessionCalendar()


@pytest.fixture()
def fixture_day():
    """One synthetic 240-bar day: 09:31-11:30 and 13:01-15:00."""
    return single_day_bars()


@pytest.fixture(scope="session")
def small_market():
    """Five synthetic days of minute bars with jump bursts."""
    return synthetic_bars(days=5, seed=7)


def make_returns(values, day=date(2021, 1, 4), session=0, start_minute=0):
    """ReturnSeries with the given values inside one morning session (<= 120 rows)."""
    base = datetime(day.year, day.month, day.day, 9, 31) + timedelta(minutes=start_minute)
    stamps = np.array([base + timedelta(minutes=i) for i in range(len(values))], dtype="datetime64[us]")
    return ReturnSeries(stamps=stamps, values=np.asarray(values, dtype=float),
                        session=np.full(len(values), session, dtype=int))


def separable_blobs(n_per_class=100, seed=3, spread=0.35, gap=4.0):
    """2-D linearly separable blobs aligned with the x-axis (margin >= 1)."""
    rng = np.random.default_rng(seed)
    a = rng.normal(0.0, spread, size=(n_per_class, 2)) + np.array([-gap / 2, 0.0])
    b = rng.normal(0.0, spread, size=(n_per_class, 2)) + np.array([+gap / 2, 0.0])
    X = np.vstack([a, b])
    y = np.concatenate([np.zeros(n_per_class, dtype=int), np.ones(n_per_class, dtype=int)])
    order = rng.permutation(len(y))
    return X[order], y[order]


def as_dataset(X, y):
    return LabeledDataset(anchor_index=np.arange(len(y)), features=np.asarray(X, dtype=float),
                          theta=np.asarray(y, dtype=int))
