import datetime as dt
import math

import numpy as np
import pytest

from tailscope.errors import (
    DuplicateDateError,
    EmptySeriesError,
    InvalidParameterError,
    MissingColumnError,
    NonPositivePriceError,
    TooShortError,
    UnparsableRowError,
)
from tailscope import series as series_module
from tailscope.series import (
    Frequency,
    PriceSeries,
    ReturnKind,
    fill_weekend,
    ingest_csv,
    log_returns,
    resample,
)

from conftest import daily_dates

D = dt.date


def make_series(closes, start=D(2020, 1, 1), frequency=Frequency.DAILY, step=1):
    return PriceSeries("test", frequency, daily_dates(start, len(closes), step), closes)


class TestIngest:
    def test_three_row_csv(self, write_yahoo_csv):
        path = write_yahoo_csv(
            "a.csv",
            [(D(2020, 1, 1), 100), (D(2020, 1, 2), 105), (D(2020, 1, 3), 103)],
        )
        series = ingest_csv(path, "a")
        assert len(series) == 3
        assert series.asset_id == "a"
        assert series.frequency is Frequency.DAILY
        np.testing.assert_array_equal(series.closes, [100.0, 105.0, 103.0])
        assert series.dropped_rows == 0

    def test_null_close_rows_dropped_and_counted(self, write_yahoo_csv):
        rows = [
            (D(2020, 1, 1), 100),
            (D(2020, 1, 2), "null"),
            (D(2020, 1, 3), 101),
            (D(2020, 1, 4), 102),
            (D(2020, 1, 5), 103),
        ]
        series = ingest_csv(write_yahoo_csv("a.csv", rows), "a")
        assert len(series) == 4
        assert series.dropped_rows == 1

    def test_empty_close_dropped(self, write_yahoo_csv):
        series = ingest_csv(
            write_yahoo_csv("a.csv", [(D(2020, 1, 1), 100), (D(2020, 1, 2), "")]), "a"
        )
        assert len(series) == 1
        assert series.dropped_rows == 1

    def test_negative_close_names_date(self, write_yahoo_csv):
        path = write_yahoo_csv("a.csv", [(D(2020, 1, 1), 100), (D(2020, 1, 2), -3)])
        with pytest.raises(NonPositivePriceError, match="2020-01-02"):
            ingest_csv(path, "a")

    def test_missing_column(self, write_yahoo_csv):
        path = write_yahoo_csv("a.csv", [(D(2020, 1, 1), 100)], header=("Date", "Open"))
        with pytest.raises(MissingColumnError):
            ingest_csv(path, "a")

    def test_unparsable_date_reports_row(self, write_yahoo_csv):
        path = write_yahoo_csv("a.csv", [(D(2020, 1, 1), 100), ("01/02/2020", 101)])
        with pytest.raises(UnparsableRowError, match="row 3"):
            ingest_csv(path, "a")

    def test_unparsable_close_reports_row(self, write_yahoo_csv):
        path = write_yahoo_csv("a.csv", [(D(2020, 1, 1), "abc")])
        with pytest.raises(UnparsableRowError, match="row 2"):
            ingest_csv(path, "a")

    def test_duplicate_date(self, write_yahoo_csv):
        path = write_yahoo_csv("a.csv", [(D(2020, 1, 1), 100), (D(2020, 1, 1), 101)])
        with pytest.raises(DuplicateDateError):
            ingest_csv(path, "a")

    def test_rows_sorted_by_date(self, write_yahoo_csv):
        path = write_yahoo_csv(
            "a.csv",
            [(D(2020, 1, 3), 103), (D(2020, 1, 1), 100), (D(2020, 1, 2), 105)],
        )
        series = ingest_csv(path, "a")
        assert series.dates == daily_dates(D(2020, 1, 1), 3)
        np.testing.assert_array_equal(series.closes, [100.0, 105.0, 103.0])

    def test_header_case_insensitive(self, tmp_path):
        path = tmp_path / "a.csv"
        path.write_text("date,close\n2020-01-01,100\n2020-01-02,101\n")
        assert len(ingest_csv(path, "a")) == 2

    def test_error_names_the_line_after_a_blank_line(self, tmp_path):
        path = tmp_path / "a.csv"
        path.write_text("Date,Close\n2020-01-01,100\n\n2020-01-02,abc\n")
        with pytest.raises(UnparsableRowError, match="row 4"):
            ingest_csv(path, "a")

    def test_blank_lines_are_not_dropped_rows(self, tmp_path):
        path = tmp_path / "a.csv"
        path.write_text("Date,Close\n\n2020-01-01,100\n\n2020-01-02,101\n\n")
        series = ingest_csv(path, "a")
        assert len(series) == 2
        assert series.dropped_rows == 0

    def test_row_short_of_the_close_column_is_dropped(self, tmp_path):
        path = tmp_path / "a.csv"
        path.write_text("Date,Open,Close\n2020-01-01,1,100\n2020-01-02,1\n2020-01-03,1,102\n")
        series = ingest_csv(path, "a")
        np.testing.assert_array_equal(series.closes, [100.0, 102.0])
        assert series.dropped_rows == 1

    def test_last_of_two_matching_headers_is_read(self, tmp_path):
        path = tmp_path / "a.csv"
        path.write_text("Date,close,Close\n2020-01-01,1,100\n")
        np.testing.assert_array_equal(ingest_csv(path, "a").closes, [100.0])

    def test_bare_file_is_rejected_at_its_header(self, tmp_path, monkeypatch):
        path = tmp_path / "a.csv"
        path.write_text("value\n1.5\nabc\n2.5\n")
        cells = []
        finite_cell = series_module._finite_cell

        def counting_cell(*args):
            cells.append(args)
            return finite_cell(*args)

        monkeypatch.setattr(series_module, "_finite_cell", counting_cell)
        with pytest.raises(MissingColumnError, match="header must contain Date and Close"):
            ingest_csv(path, "a")
        assert cells == []


class TestPriceSeries:
    def test_rejects_nonpositive_close(self):
        with pytest.raises(NonPositivePriceError):
            make_series([100.0, 0.0])

    def test_rejects_unsorted_dates(self):
        dates = (D(2020, 1, 2), D(2020, 1, 1))
        with pytest.raises(InvalidParameterError):
            PriceSeries("x", Frequency.DAILY, dates, [1.0, 2.0])

    def test_closes_are_read_only(self):
        series = make_series([1.0, 2.0])
        with pytest.raises(ValueError):
            series.closes[0] = 5.0

    def test_dropped_rows_not_in_equality(self):
        a = make_series([1.0, 2.0])
        b = PriceSeries("test", Frequency.DAILY, a.dates, a.closes, dropped_rows=7)
        assert a == b


class TestFillWeekend:
    def test_friday_to_monday(self):
        dates = (D(2021, 1, 1), D(2021, 1, 4))  # Fri, Mon
        series = PriceSeries("x", Frequency.DAILY, dates, [100.0, 102.0])
        filled = fill_weekend(series)
        assert len(filled) == 4
        assert filled.dates == daily_dates(D(2021, 1, 1), 4)
        np.testing.assert_array_equal(filled.closes, [100.0, 100.0, 100.0, 102.0])

    def test_consecutive_days_unchanged(self):
        series = make_series([1.0, 2.0, 3.0])
        assert fill_weekend(series) is series

    def test_single_point_unchanged(self):
        series = make_series([1.0])
        assert fill_weekend(series) is series

    def test_idempotent(self):
        series = make_series([1.0, 2.0, 3.0], step=3)
        filled = fill_weekend(series)
        assert fill_weekend(filled) == filled

    def test_rejects_weekly(self):
        series = make_series([1.0, 2.0], frequency=Frequency.WEEKLY, step=7)
        with pytest.raises(InvalidParameterError):
            fill_weekend(series)

    def test_empty(self):
        series = PriceSeries("x", Frequency.DAILY, (), [])
        with pytest.raises(EmptySeriesError):
            fill_weekend(series)


class TestLogReturns:
    def test_single_step(self):
        returns = log_returns(make_series([100.0, 105.0]))
        assert len(returns) == 1
        assert returns.dates[0] == D(2020, 1, 2)
        assert returns.values[0] == pytest.approx(math.log(1.05), abs=1e-15)

    def test_constant_closes(self):
        returns = log_returns(make_series([50.0, 50.0, 50.0]))
        np.testing.assert_array_equal(returns.values, [0.0, 0.0])

    def test_absolute_halving(self):
        returns = log_returns(make_series([100.0, 50.0]), ReturnKind.ABSOLUTE)
        assert returns.values[0] == pytest.approx(math.log(2.0), abs=1e-15)

    def test_too_short(self):
        with pytest.raises(TooShortError):
            log_returns(make_series([100.0]))

    def test_length_is_source_minus_one(self):
        series = make_series(np.linspace(10, 20, 37))
        assert len(log_returns(series)) == 36


class TestResample:
    def test_two_full_iso_weeks(self):
        # 2023-01-02 is a Monday: days 1-7 and 8-14 are exactly two ISO weeks
        closes = [float(i) for i in range(1, 15)]
        series = make_series(closes, start=D(2023, 1, 2))
        weekly = resample(series, Frequency.WEEKLY)
        assert len(weekly) == 2
        assert weekly.frequency is Frequency.WEEKLY
        assert weekly.dates == (D(2023, 1, 8), D(2023, 1, 15))
        np.testing.assert_array_equal(weekly.closes, [7.0, 14.0])

    def test_single_month(self):
        series = make_series([5.0, 6.0, 7.0], start=D(2020, 3, 10))
        monthly = resample(series, Frequency.MONTHLY)
        assert len(monthly) == 1
        assert monthly.dates == (D(2020, 3, 12),)
        assert monthly.closes[0] == 7.0

    def test_partial_periods_kept(self):
        # Wed..Tue spans two ISO weeks, both partial
        series = make_series([1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0], start=D(2023, 1, 4))
        weekly = resample(series, Frequency.WEEKLY)
        assert len(weekly) == 2

    def test_rejects_weekly_input(self):
        series = make_series([1.0, 2.0], frequency=Frequency.WEEKLY, step=7)
        with pytest.raises(InvalidParameterError):
            resample(series, Frequency.MONTHLY)

    def test_rejects_daily_target(self):
        with pytest.raises(InvalidParameterError):
            resample(make_series([1.0, 2.0]), Frequency.DAILY)

    def test_weekly_returns_equal_within_week_sums(self):
        # brute-force check of the telescoping identity on one fixed sample
        rng = np.random.default_rng(99)
        closes = np.exp(np.cumsum(rng.normal(0.0, 0.03, 60))) * 100.0
        series = make_series(list(closes), start=D(2022, 6, 1))
        daily_ret = log_returns(series)
        weekly = resample(series, Frequency.WEEKLY)
        weekly_ret = log_returns(weekly)
        positions = {day: i for i, day in enumerate(series.dates)}
        for k in range(1, len(weekly)):
            lo, hi = positions[weekly.dates[k - 1]], positions[weekly.dates[k]]
            brute = sum(float(v) for v in daily_ret.values[lo:hi])
            assert weekly_ret.values[k - 1] == pytest.approx(brute, rel=1e-9, abs=1e-12)
