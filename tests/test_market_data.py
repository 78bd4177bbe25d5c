import io
import json
import math
from datetime import date, datetime, timedelta, timezone

import numpy as np
import pytest

from bnsjump.errors import InvalidParameterError, OrderingError, ParseError
from bnsjump.market_data import (
    BarSeries,
    SessionCalendar,
    descriptive_stats,
    load_bars,
    pct_change,
    preprocess,
    realized_measures,
    resample,
    rv_to_json,
    sigma_outlier_policy,
    write_bars_csv,
    write_rv_csv,
    write_stats_csv,
)
from bnsjump.synthetic import single_day_bars, synthetic_bars

from conftest import make_returns


def csv_of(*rows):
    return io.StringIO("timestamp,close\n" + "".join(r + "\n" for r in rows))


class TestLoadBars:
    def test_empty_body(self):
        series, rejected = load_bars(csv_of())
        assert len(series) == 0
        assert rejected == 0

    def test_single_morning_bar(self):
        series, rejected = load_bars(csv_of("2021-01-04 09:31:00,5000"))
        assert len(series) == 1
        assert rejected == 0
        assert series.session[0] == 0
        assert series.closes[0] == 5000.0

    def test_lunch_break_rejected(self):
        series, rejected = load_bars(csv_of("2021-01-04 09:31:00,5000",
                                            "2021-01-04 12:00:00,5001"))
        assert len(series) == 1
        assert rejected == 1

    def test_afternoon_session_tag(self):
        series, _ = load_bars(csv_of("2021-01-04 13:05:00,5000"))
        assert series.session[0] == 1

    def test_malformed_close_reports_line(self):
        with pytest.raises(ParseError) as err:
            load_bars(csv_of("2021-01-04 09:31:00,5000", "2021-01-04 09:32:00,oops"))
        assert err.value.line_number == 3

    def test_malformed_timestamp(self):
        with pytest.raises(ParseError):
            load_bars(csv_of("not-a-time,5000"))

    def test_timezone_aware_row_reports_line(self):
        with pytest.raises(ParseError) as err:
            load_bars(csv_of("2021-01-04 09:31:00,5000", "2021-01-04 09:32:00+08:00,5001"))
        assert err.value.line_number == 3

    def test_build_rejects_timezone_aware_stamps(self):
        aware = datetime(2021, 1, 4, 9, 31, tzinfo=timezone(timedelta(hours=8)))
        with pytest.raises(InvalidParameterError):
            BarSeries.build([aware], [5000.0], SessionCalendar())

    def test_build_rejects_repeated_stamp(self):
        ts = datetime(2021, 1, 4, 9, 31)
        with pytest.raises(OrderingError):
            BarSeries.build([ts, ts], [5000.0, 5001.0], SessionCalendar())

    def test_wrong_field_count(self):
        with pytest.raises(ParseError):
            load_bars(csv_of("2021-01-04 09:31:00,5000,extra"))

    def test_bad_header(self):
        with pytest.raises(ParseError):
            load_bars(io.StringIO("time,price\n"))

    def test_non_monotone_rejected(self):
        with pytest.raises(OrderingError):
            load_bars(csv_of("2021-01-04 09:32:00,5000", "2021-01-04 09:31:00,5001"))

    def test_bytes_source(self):
        text = "timestamp,close\n2021-01-04 09:31:00,5000\n"
        series, _ = load_bars(text.encode("utf-8"))
        assert len(series) == 1

    def test_roundtrip_via_writer(self, small_market):
        buf = io.StringIO()
        write_bars_csv(buf, small_market)
        back, rejected = load_bars(io.StringIO(buf.getvalue()))
        assert rejected == 0
        assert len(back) == len(small_market)
        assert np.array_equal(back.closes, small_market.closes)


class TestPreprocess:
    def test_fixture_day_trim(self, fixture_day):
        assert len(fixture_day) == 240
        cleaned, rate = preprocess(fixture_day)
        assert len(cleaned) == 230
        assert rate == pytest.approx(10.0 / 240.0)
        # morning rows now start at 09:41; afternoon reopen untouched
        assert cleaned.timestamps[0].strftime("%H:%M") == "09:41"
        afternoon = [ts for ts in cleaned.timestamps if ts.hour >= 13]
        assert afternoon[0].strftime("%H:%M") == "13:01"

    def test_idempotent_on_fixture(self, fixture_day):
        once, _ = preprocess(fixture_day)
        twice, rate2 = preprocess(once)
        assert rate2 == 0.0
        assert len(twice) == len(once)
        assert np.array_equal(twice.closes, once.closes)

    def test_trim_reopen_flag(self, fixture_day):
        cleaned, _ = preprocess(fixture_day, trim_reopen=True)
        assert len(cleaned) == 220

    def test_zero_value_rule(self):
        # 101 bars clear of the opening window; one zero close
        base = datetime(2021, 1, 4, 9, 50)
        stamps = [base + timedelta(minutes=i) for i in range(101)]
        closes = [5000.0] * 101
        closes[40] = 0.0
        series = BarSeries.build(stamps, closes, SessionCalendar())
        cleaned, rate = preprocess(series)
        assert len(cleaned) == 100
        assert rate == pytest.approx(1.0 / 101.0)

    def test_outlier_policy_flags_spike(self):
        # a +50% one-minute move inside an otherwise flat full day
        closes = [5000.0] * 240
        closes[60] = 7500.0
        series = single_day_bars(closes=closes)
        flagged = sigma_outlier_policy(10.0)(series)
        assert flagged[60]
        assert flagged.sum() <= 2  # the spike and possibly the snap-back
        cleaned, _ = preprocess(series)
        assert len(cleaned) < 230  # trim plus the flagged bar

    def test_negative_trim_rejected(self, fixture_day):
        with pytest.raises(InvalidParameterError):
            preprocess(fixture_day, trim_minutes=-1)


class TestResample:
    def test_identity_interval(self, fixture_day):
        out = resample(fixture_day, 1)
        assert len(out) == len(fixture_day)

    def test_thirty_minute_buckets(self):
        # one 120-bar morning session
        base = datetime(2021, 1, 4, 9, 31)
        stamps = [base + timedelta(minutes=i) for i in range(120)]
        closes = [float(i + 1) for i in range(120)]
        series = BarSeries.build(stamps, closes, SessionCalendar())
        out = resample(series, 30)
        assert len(out) == 4
        assert list(out.closes) == [30.0, 60.0, 90.0, 120.0]
        assert [ts.strftime("%H:%M") for ts in out.timestamps] == \
            ["10:00", "10:30", "11:00", "11:30"]

    def test_full_day_interval_gives_daily_close(self, fixture_day):
        out = resample(fixture_day, 240)
        assert len(out) == 1
        assert out.closes[0] == fixture_day.closes[-1]
        assert out.timestamps[0] == fixture_day.timestamps[-1]

    def test_composition(self, small_market):
        direct = resample(small_market, 30)
        nested = resample(resample(small_market, 5), 30)
        assert len(direct) == len(nested)
        assert np.array_equal(direct.closes, nested.closes)
        assert direct.timestamps == nested.timestamps

    def test_bad_interval(self, fixture_day):
        with pytest.raises(InvalidParameterError):
            resample(fixture_day, 0)


class TestPctChange:
    def test_simple_changes(self):
        series = single_day_bars()
        base = datetime(2021, 1, 4, 9, 31)
        stamps = [base + timedelta(minutes=i) for i in range(3)]
        series = BarSeries.build(stamps, [100.0, 101.0, 99.9 * 1.01], SessionCalendar())
        out = pct_change(series)
        assert len(out) == 2
        assert out.values[0] == pytest.approx(1.0)

    def test_downward_tick_is_threshold_candidate(self):
        base = datetime(2021, 1, 4, 9, 31)
        series = BarSeries.build([base, base + timedelta(minutes=1)], [100.0, 99.9],
                                 SessionCalendar())
        out = pct_change(series)
        assert out.values[0] == pytest.approx(-0.1)

    def test_no_return_across_lunch(self):
        stamps = [datetime(2021, 1, 4, 11, 29), datetime(2021, 1, 4, 11, 30),
                  datetime(2021, 1, 4, 13, 1), datetime(2021, 1, 4, 13, 2)]
        series = BarSeries.build(stamps, [100.0, 101.0, 150.0, 151.5], SessionCalendar())
        out = pct_change(series)
        assert len(out) == 2  # one per session; no 101 -> 150 return
        assert out.values[0] == pytest.approx(1.0)
        assert out.values[1] == pytest.approx(1.0)

    def test_no_overnight_return(self):
        stamps = [datetime(2021, 1, 4, 15, 0), datetime(2021, 1, 5, 13, 1)]
        series = BarSeries.build(stamps, [100.0, 120.0], SessionCalendar())
        assert len(pct_change(series)) == 0

    def test_every_return_in_one_session(self, small_market):
        out = pct_change(small_market)
        keys = out.session_keys()
        for i in range(1, len(out)):
            if keys[i] == keys[i - 1]:
                assert out.timestamps[i].date() == out.timestamps[i - 1].date()
                assert out.session[i] == out.session[i - 1]


class TestDescriptiveStats:
    def _bars(self, closes):
        base = datetime(2021, 1, 4, 10, 0)
        stamps = [base + timedelta(minutes=i) for i in range(len(closes))]
        return BarSeries.build(stamps, closes, SessionCalendar())

    def test_symmetric_hand_example(self):
        report = descriptive_stats(self._bars([1.0, 2.0, 3.0, 4.0, 5.0]))["overall"]
        assert report.count == 5
        assert report.mean == 3.0
        assert report.median == 3.0
        assert report.minimum == 1.0
        assert report.maximum == 5.0
        assert report.skewness == pytest.approx(0.0, abs=1e-12)

    def test_constant_series_conventions(self):
        report = descriptive_stats(self._bars([5.0, 5.0, 5.0, 5.0]))["overall"]
        assert report.mean == 5.0
        assert report.skewness == 0.0
        assert math.isnan(report.excess_kurtosis)

    def test_excess_kurtosis_of_normal_sample(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=5000)
        base = datetime(2021, 1, 4, 9, 31)
        # spread across many days to stay inside sessions
        stamps = []
        day = 0
        minute = 0
        for _ in range(len(x)):
            stamps.append(base + timedelta(days=day, minutes=minute))
            minute += 1
            if minute >= 119:
                minute = 0
                day += 1
        series = BarSeries.build(stamps, list(x), SessionCalendar())
        report = descriptive_stats(series)["overall"]
        assert abs(report.excess_kurtosis) < 0.3
        assert abs(report.skewness) < 0.2

    def test_month_grouping(self):
        stamps = [datetime(2021, 1, 4, 10, 0), datetime(2021, 1, 4, 10, 1),
                  datetime(2021, 2, 3, 10, 0), datetime(2021, 2, 3, 10, 1)]
        series = BarSeries.build(stamps, [1.0, 2.0, 3.0, 4.0], SessionCalendar())
        reports = descriptive_stats(series, group_by="month")
        assert sorted(reports) == ["2021-01", "2021-02"]
        assert reports["2021-01"].count == 2
        assert reports["2021-02"].mean == 3.5

    def test_bad_group_by(self):
        with pytest.raises(InvalidParameterError):
            descriptive_stats(self._bars([1.0]), group_by="week")

    def test_csv_writer_shape(self):
        reports = descriptive_stats(self._bars([1.0, 2.0, 3.0]))
        buf = io.StringIO()
        write_stats_csv(buf, reports)
        lines = buf.getvalue().strip().split("\n")
        assert lines[0] == "group,count,mean,median,minimum,maximum,skewness,excess_kurtosis"
        assert len(lines) == 2


class TestRealizedMeasures:
    def test_hand_example_alternating(self):
        rv = realized_measures(make_returns([1.0, -1.0, 1.0]))
        assert rv.realized_volatility[0] == pytest.approx(3.0)
        assert rv.bipower_variation[0] == pytest.approx(math.pi)
        assert rv.jump_component[0] == 0.0

    def test_hand_example_pure_jump(self):
        rv = realized_measures(make_returns([0.0, 0.0, 10.0, 0.0]))
        assert rv.realized_volatility[0] == pytest.approx(100.0)
        assert rv.bipower_variation[0] == pytest.approx(0.0)
        assert rv.jump_component[0] == pytest.approx(100.0)

    def test_all_zero(self):
        rv = realized_measures(make_returns([0.0, 0.0, 0.0]))
        assert rv.realized_volatility[0] == 0.0
        assert rv.bipower_variation[0] == 0.0
        assert rv.jump_component[0] == 0.0

    def test_single_return_flags_bv_absent(self):
        rv = realized_measures(make_returns([0.5]))
        assert rv.realized_volatility[0] == pytest.approx(0.25)
        assert math.isnan(rv.bipower_variation[0])
        assert math.isnan(rv.jump_component[0])

    def test_day_windows(self, small_market):
        returns = pct_change(resample(small_market, 5))
        rv = realized_measures(returns, window="day")
        assert len(rv) == 5
        assert np.all(rv.realized_volatility >= 0.0)
        finite_bv = rv.bipower_variation[np.isfinite(rv.bipower_variation)]
        assert np.all(finite_bv >= 0.0)

    def test_month_window(self, small_market):
        returns = pct_change(small_market)
        rv = realized_measures(returns, window="month")
        assert len(rv) == 1
        assert rv.labels[0] == "2021-01"

    def test_csv_writer(self, small_market):
        rv = realized_measures(pct_change(small_market))
        buf = io.StringIO()
        write_rv_csv(buf, rv)
        header = buf.getvalue().split("\n", 1)[0]
        assert header == "window,window_end,realized_volatility,bipower_variation,jump_component"

    def test_json_variant_mirrors_csv_fields(self):
        rv = realized_measures(make_returns([0.5]))  # NaN bv -> null
        payload = json.loads(rv_to_json(rv))
        entry = payload["2021-01-04"]
        assert entry["realized_volatility"] == pytest.approx(0.25)
        assert entry["bipower_variation"] is None
        assert entry["jump_component"] is None

    def test_diffusion_only_jump_component_reported(self):
        # small-sample bias of max(RV - BV, 0) on jump-free returns is
        # reported for visibility, not asserted beyond nonnegativity
        rng = np.random.default_rng(8)
        stamps = []
        values = []
        day0 = datetime(2021, 1, 4, 9, 32)
        for d in range(100):
            base = day0 + timedelta(days=d)
            r = rng.normal(0.0, 0.05, 100)
            stamps.extend(base + timedelta(minutes=j) for j in range(100))
            values.extend(r)
        from bnsjump.market_data import ReturnSeries
        returns = ReturnSeries(stamps=np.array(stamps, dtype="datetime64[us]"),
                               values=np.array(values), session=np.zeros(len(values), dtype=int))
        rv = realized_measures(returns, window="day")
        assert np.all(rv.jump_component >= 0.0)
        print(f"diffusion-only mean jump component: {rv.jump_component.mean():.6f} "
              f"(mean RV {rv.realized_volatility.mean():.4f})")
