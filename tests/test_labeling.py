import io
import math
from datetime import date, datetime, timezone

import numpy as np
import pytest

from bnsjump.errors import InvalidParameterError, ParseError
from bnsjump.labeling import (
    IndexedReturns,
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
from bnsjump.market_data import ReturnSeries

from brute_force import brute_force_dataset, brute_force_marks
from conftest import make_returns


def indexed_from_values(values, session_keys=None):
    n = len(values)
    keys = np.zeros(n, dtype=int) if session_keys is None else np.asarray(session_keys)
    stamps = np.full(n, np.datetime64("2021-01-04T09:31", "us"))
    return IndexedReturns(values=np.asarray(values, dtype=float), stamps=stamps, session_key=keys)


def random_indexed(rng, max_len=200):
    """Random multi-session return series for oracle comparisons."""
    n = int(rng.integers(5, max_len + 1))
    values = rng.normal(0.0, 0.12, n).round(4)
    keys = np.zeros(n, dtype=int)
    key = 0
    for i in range(1, n):
        if rng.uniform() < 0.03:
            key += 1
        keys[i] = key
    return indexed_from_values(values, keys)


class TestIndexSeries:
    def test_empty(self):
        out = index_series(make_returns([]))
        assert len(out) == 0

    def test_three_rows(self):
        out = index_series(make_returns([0.1, -0.2, 0.3]))
        assert len(out) == 3
        assert np.array_equal(out.session_key, [0, 0, 0])

    def test_session_keys_change_on_boundaries(self):
        stamps = np.array(["2021-01-04T09:32", "2021-01-04T09:33", "2021-01-04T13:02",
                           "2021-01-05T09:32"], dtype="datetime64[us]")
        rs = ReturnSeries(stamps=stamps, values=np.zeros(4),
                          session=np.array([0, 0, 1, 0]))
        out = index_series(rs)
        assert list(out.session_key) == [0, 0, 1, 2]

    def test_index_for_timestamp(self):
        returns = make_returns([0.1, 0.2, 0.3])
        indexed = index_series(returns)
        assert index_for_timestamp(indexed, returns.stamps[1].item()) == 1
        with pytest.raises(InvalidParameterError):
            index_for_timestamp(indexed, datetime(1999, 1, 1))
        with pytest.raises(InvalidParameterError):
            index_for_timestamp(indexed, returns.stamps[1].item().replace(tzinfo=timezone.utc))


class TestMarks:
    @pytest.mark.parametrize("kwargs", [
        {"threshold_pct": 0.0}, {"threshold_pct": -0.1}, {"threshold_pct": math.nan},
        {"threshold_pct": math.inf}, {"window_len": 0}, {"stride": 0}, {"direction": "sideways"},
    ], ids=repr)
    def test_bad_config_rejected(self, kwargs):
        with pytest.raises(InvalidParameterError):
            LabelingConfig(**kwargs)

    def test_downward_threshold_inclusive(self):
        indexed = indexed_from_values([-0.05, -0.10, -0.15])
        marks = mark_big_jumps(indexed, LabelingConfig(threshold_pct=0.1, direction="down"))
        assert list(marks) == [False, True, True]

    def test_all_positive_no_marks(self):
        indexed = indexed_from_values([0.05, 0.2, 0.4])
        marks = mark_big_jumps(indexed, LabelingConfig(threshold_pct=0.1, direction="down"))
        assert not marks.any()

    def test_both_directions_magnitude(self):
        indexed = indexed_from_values([0.2, -0.2])
        marks = mark_big_jumps(indexed, LabelingConfig(threshold_pct=0.1, direction="both"))
        assert list(marks) == [True, True]

    def test_threshold_is_inclusive(self):
        indexed = indexed_from_values([-0.1])
        assert mark_big_jumps(indexed, LabelingConfig(threshold_pct=0.1))[0]

    def test_oracle_agreement(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            indexed = random_indexed(rng, 60)
            for direction in ("down", "up", "both"):
                cfg = LabelingConfig(threshold_pct=0.1, direction=direction)
                got = mark_big_jumps(indexed, cfg)
                want = brute_force_marks(indexed.values, 0.1, direction)
                assert list(got) == want


class TestBuildDataset:
    def test_hand_example_marks_at_12_and_15(self):
        values = np.zeros(30)
        values[12] = -0.5
        values[15] = -0.5
        indexed = indexed_from_values(values)
        cfg = LabelingConfig(window_len=10, lookahead=10, threshold_pct=0.1, min_jumps=2)
        ds = build_dataset(indexed, mark_big_jumps(indexed, cfg), cfg)
        by_anchor = dict(zip(ds.anchor_index.tolist(), ds.theta.tolist()))
        assert by_anchor[10] == 1  # lookahead 11..20 holds both marks
        assert by_anchor[16] == 0  # lookahead 17..26 holds none

    def test_min_jumps_one_single_mark(self):
        values = np.zeros(20)
        values[5] = -1.0
        indexed = indexed_from_values(values)
        cfg = LabelingConfig(window_len=5, lookahead=10, threshold_pct=0.1, min_jumps=1)
        ds = build_dataset(indexed, mark_big_jumps(indexed, cfg), cfg)
        by_anchor = dict(zip(ds.anchor_index.tolist(), ds.theta.tolist()))
        assert by_anchor[4] == 1

    def test_no_marks_all_zero(self):
        indexed = indexed_from_values(np.zeros(50))
        cfg = LabelingConfig()
        ds = build_dataset(indexed, mark_big_jumps(indexed, cfg), cfg)
        assert len(ds) > 0
        assert not ds.theta.any()

    def test_features_are_trailing_window(self):
        values = np.arange(30, dtype=float)
        indexed = indexed_from_values(values)
        cfg = LabelingConfig(window_len=10, lookahead=10)
        ds = build_dataset(indexed, np.zeros(30, dtype=bool), cfg)
        row = list(ds.anchor_index).index(12)
        assert list(ds.features[row]) == list(values[3:13])

    def test_too_short_series_is_empty(self, caplog):
        indexed = indexed_from_values(np.zeros(5))
        cfg = LabelingConfig(window_len=10, lookahead=10)
        with caplog.at_level("WARNING", logger="bnsjump.labeling"):
            ds = build_dataset(indexed, np.zeros(5, dtype=bool), cfg)
        assert len(ds) == 0
        assert any("shorter than" in rec.message for rec in caplog.records)

    def test_anchors_never_cross_sessions(self):
        rng = np.random.default_rng(11)
        for _ in range(30):
            indexed = random_indexed(rng, 120)
            cfg = LabelingConfig(window_len=4, lookahead=5, min_jumps=1)
            marks = mark_big_jumps(indexed, cfg)
            ds = build_dataset(indexed, marks, cfg)
            for anchor in ds.anchor_index:
                lo = anchor - cfg.window_len + 1
                hi = anchor + cfg.lookahead
                assert len(set(indexed.session_key[lo:hi + 1])) == 1

    def test_oracle_equivalence(self):
        rng = np.random.default_rng(77)
        for _ in range(200):
            indexed = random_indexed(rng)
            cfg = LabelingConfig(window_len=int(rng.integers(2, 12)),
                                 lookahead=int(rng.integers(1, 12)),
                                 threshold_pct=0.1,
                                 min_jumps=int(rng.integers(1, 4)))
            marks = mark_big_jumps(indexed, cfg)
            ds = build_dataset(indexed, marks, cfg)
            anchors, feats, thetas = brute_force_dataset(
                indexed.values, indexed.session_key, list(marks),
                cfg.window_len, cfg.lookahead, cfg.min_jumps)
            assert list(ds.anchor_index) == anchors
            assert list(ds.theta) == thetas
            for got_row, want_row in zip(ds.features, feats):
                assert list(got_row) == want_row

    def test_stride_config(self):
        indexed = indexed_from_values(np.zeros(60))
        cfg = LabelingConfig(window_len=10, lookahead=10, stride=5)
        ds = build_dataset(indexed, np.zeros(60, dtype=bool), cfg)
        assert list(ds.anchor_index) == [9, 14, 19, 24, 29, 34, 39, 44, 49]

    def test_monotone_in_threshold(self):
        rng = np.random.default_rng(13)
        for _ in range(50):
            indexed = random_indexed(rng, 100)
            lo = LabelingConfig(threshold_pct=0.05, window_len=3, lookahead=5, min_jumps=1)
            hi = LabelingConfig(threshold_pct=0.15, window_len=3, lookahead=5, min_jumps=1)
            marks_lo = mark_big_jumps(indexed, lo)
            marks_hi = mark_big_jumps(indexed, hi)
            assert not (marks_hi & ~marks_lo).any()  # raising K only turns marks off
            ones_lo = build_dataset(indexed, marks_lo, lo).theta.sum()
            ones_hi = build_dataset(indexed, marks_hi, hi).theta.sum()
            assert ones_hi <= ones_lo

    def test_monotone_in_min_jumps(self):
        rng = np.random.default_rng(29)
        for _ in range(50):
            indexed = random_indexed(rng, 100)
            counts = []
            marks = mark_big_jumps(indexed, LabelingConfig(threshold_pct=0.08))
            for mj in (1, 2, 3):
                cfg = LabelingConfig(threshold_pct=0.08, window_len=3, lookahead=6, min_jumps=mj)
                counts.append(build_dataset(indexed, marks, cfg).theta.sum())
            assert counts[0] >= counts[1] >= counts[2]


class TestSplit:
    def _dataset(self, n=100):
        return LabeledDataset(anchor_index=np.arange(n),
                              features=np.zeros((n, 3)),
                              theta=np.zeros(n, dtype=int))

    def test_all_train_empty_test(self):
        ds = self._dataset()
        train, test = split(ds, SplitSpec(train=(0, 99), test=None))
        assert len(train) == 100
        assert len(test) == 0

    def test_eighty_twenty(self):
        ds = self._dataset()
        train, test = split(ds, SplitSpec(train=(0, 79), test=(80, 99)))
        assert len(train) == 80
        assert len(test) == 20

    def test_overlap_rejected(self):
        with pytest.raises(InvalidParameterError):
            split(self._dataset(), SplitSpec(train=(0, 50), test=(50, 99)))

    def test_out_of_bounds_rejected(self):
        with pytest.raises(InvalidParameterError):
            split(self._dataset(), SplitSpec(train=(0, 120), test=None))

    @pytest.mark.parametrize("spec,line", [
        (SplitSpec(train=(0, 49), test=(60, 69)), "test range 60..69 selects no anchors"),
        (SplitSpec(train=(50, 59), test=(70, 99)), "train range 50..59 selects no anchors"),
        (SplitSpec(train=(55, 59)), "train range 55..59 selects no anchors"),
    ], ids=["test", "train", "train-only"])
    def test_range_without_anchors_rejected(self, spec, line):
        """A given range inside the bounds that holds no anchor is refused;
        only an absent test range gives an empty test set."""
        ds = self._dataset()
        keep = (ds.anchor_index < 50) | (ds.anchor_index >= 70)
        gapped = LabeledDataset(anchor_index=ds.anchor_index[keep], features=ds.features[keep],
                                theta=ds.theta[keep], source_length=100)
        with pytest.raises(InvalidParameterError, match=f"^{line}$"):
            split(gapped, spec)

    def test_ranges_inclusive(self):
        ds = self._dataset(10)
        train, test = split(ds, SplitSpec(train=(2, 4), test=(5, 5)))
        assert list(train.anchor_index) == [2, 3, 4]
        assert list(test.anchor_index) == [5]


class TestDatasetCsv:
    def test_roundtrip(self):
        rng = np.random.default_rng(3)
        ds = LabeledDataset(anchor_index=np.arange(5) + 9,
                            features=rng.normal(size=(5, 10)),
                            theta=np.array([0, 1, 0, 0, 1]))
        buf = io.StringIO()
        write_dataset_csv(buf, ds)
        text = buf.getvalue()
        assert text.splitlines()[0] == "index," + ",".join(f"f{i+1}" for i in range(10)) + ",theta"
        back = read_dataset_csv(io.StringIO(text))
        assert np.array_equal(back.anchor_index, ds.anchor_index)
        assert np.array_equal(back.features, ds.features)
        assert np.array_equal(back.theta, ds.theta)

    @pytest.mark.parametrize("text,line", [
        ("", 1),
        ("index,f1,f2\n9,0.5,0.25\n", 1),
        ("index,f1,f2,theta\n9,0.5,0.25,1\n10,0.5,1\n", 3),
        ("index,f1,f2,theta\n9,0.5,x,1\n", 2),
        ("index,f1,f2,theta\n9.5,0.5,0.25,1\n", 2),
    ], ids=["empty", "header", "short-row", "non-numeric", "fractional-index"])
    def test_malformed_file_names_its_line(self, text, line):
        with pytest.raises(ParseError) as exc:
            read_dataset_csv(io.StringIO(text))
        assert exc.value.line_number == line
        assert str(exc.value).startswith(f"line {line}: ")
