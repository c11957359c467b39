import csv
import datetime as dt
import io
import math
import random
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from tailscope.errors import (
    DuplicateDateError,
    EmptySeriesError,
    InvalidParameterError,
    MissingColumnError,
    NonPositivePriceError,
    TailscopeError,
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
from reference_read import read_csv as read_csv_reference

D = dt.date


def make_series(closes, start=D(2020, 1, 1), frequency=Frequency.DAILY, step=1):
    return PriceSeries("test", frequency, daily_dates(start, len(closes), step), closes)


def gapped_series(seed):
    """Daily prices across six new years, one of them inside ISO week 53 of
    2020, with gaps of up to ten days."""
    rng = random.Random(seed)
    dates, day = [], D(2019, 12, 20)
    while day < D(2026, 1, 10):
        dates.append(day)
        day += dt.timedelta(days=rng.choice((1, 1, 1, 2, 3, 10)))
    closes = [rng.uniform(1.0, 9.0) for _ in dates]
    return PriceSeries("x", Frequency.DAILY, dates, closes, dropped_rows=3)


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

    @pytest.mark.parametrize("header", ["value", "Date,Close"])
    def test_non_utf8_file_is_unparsable(self, tmp_path, header):
        path = tmp_path / "a.csv"
        path.write_bytes(header.encode() + b"\n2020-01-01,1\xff\n")
        with pytest.raises(UnparsableRowError, match=r"^a\.csv: not UTF-8 text \(invalid start"):
            series_module._read_csv(path, "a")

    @pytest.mark.parametrize("header, row", [("value", "1.5,{cell}"), ("Date,Close", "{cell}")])
    def test_cell_over_the_field_size_limit_is_unparsable(self, tmp_path, header, row):
        cell = "1" * (csv.field_size_limit() + 1)
        path = tmp_path / "a.csv"
        path.write_text(f"{header}\n1\n{row.format(cell=cell)}\n", encoding="utf-8")
        with pytest.raises(UnparsableRowError, match=r"^a\.csv row 3: field larger than"):
            series_module._read_csv(path, "a")


# Tokens a fuzzed input file is mutated with: what csv and float each treat
# in their own way.
NOISE = [*"0123456789.e-_ ,\"\r\n", "\x0c", "\x00", "null", "inf", "nan", "\u0661", "\ufeff"]
VALUE_HEADERS = ["value", " Value ", "VALUE", "\ufeffvalue", "value,"]
PRICE_HEADERS = ["Date,Close", "date,open,close", "Close,Date", "Date,Close,Close", "Date,Open"]


def _noisy(rng, text, rate):
    while rng.random() < rate:
        at = rng.randrange(len(text) + 1)
        text = text[:at] + rng.choice(NOISE) + text[at:]
    return text


def _fuzz_file(rng):
    """A small CSV of either header kind: valid cells, blank lines and the
    three line ends, each cell and line sometimes mutated with NOISE."""
    header = rng.choice(rng.choice((VALUE_HEADERS, PRICE_HEADERS)))
    names = [name.strip().lower() for name in header.split(",")]
    day = dt.date(2020, 1, 1).toordinal()
    lines = [_noisy(rng, header, 0.05)]
    for _ in range(rng.randrange(9)):
        day += rng.choice((1, 1, 1, 2, 0, -1))
        cells = []
        for name in names:
            if name == "date":
                cell = dt.date.fromordinal(day).isoformat()
            else:
                cell = rng.choice(
                    [repr(rng.uniform(0.5, 500.0)), str(rng.randrange(1, 999)), "1e3", ".5",
                     " 7 ", "-2", "null", ""]
                )
            cells.append(_noisy(rng, cell, 0.15))
        if rng.random() < 0.1:
            cells = cells[: rng.randrange(len(cells) + 1)]
        lines.append(_noisy(rng, ",".join(cells), 0.05))
        if rng.random() < 0.1:
            lines.append("")
    ends = rng.choice(("\n", "\r\n", "\r"))
    return ends.join(lines) + rng.choice((ends, ""))


def _outcome(read, path, dated):
    try:
        got = read(path, "a", dated=dated)
    except csv.Error:
        return ("csv.Error",)
    except TailscopeError as exc:
        return (type(exc).__name__, str(exc))
    if isinstance(got, np.ndarray):
        return ("values", got.dtype.str, got.shape, got.tobytes())
    closes = got.closes
    return ("series", got.frequency, got.dates, closes.dtype.str, closes.tobytes(),
            got.dropped_rows)


def _stops_csv(text):
    """Whether csv stops on ``text`` with an error before its end."""
    try:
        list(csv.reader(io.StringIO(text.removeprefix("\ufeff"), newline="")))
    except csv.Error:
        return True
    return False


class TestReaderEquivalence:
    """series._read_csv against the cell-by-cell reference reader."""

    @staticmethod
    def _compare(path, text, dated=False):
        """The outcome of series._read_csv on ``text``, checked against the
        reference reader's, with every warning an error."""
        path.write_bytes(text.encode("utf-8"))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            want = _outcome(read_csv_reference, path, dated)
            got = _outcome(series_module._read_csv, path, dated)
        if want == ("csv.Error",):  # the reader names the row instead
            assert got[0] == "UnparsableRowError", text
        else:
            assert got == want, text
        return got

    def test_fuzzed_files_read_as_the_reference_reads_them(self, tmp_path):
        rng = random.Random(5101)
        kinds = {}
        for _ in range(2500):
            text = _fuzz_file(rng)
            kind = self._compare(tmp_path / "a.csv", text, dated=rng.random() < 0.2)[0]
            kinds[kind] = kinds.get(kind, 0) + 1
        # Every kind of result occurs often enough for the comparison to count.
        assert min(kinds.get(kind, 0) for kind in ("values", "series", "UnparsableRowError")) > 200

    @pytest.mark.parametrize(
        "text, values",
        [
            ("value\n", []),
            ("value\n\n\r\n", []),
            ('value\n1,"a\n2\n3,"\n4\n', [1.0, 4.0]),  # a quoted field spans lines
            ("value\n1\x0c2\n", None),  # a form feed ends no line
            ("value\n1\r2\r\n3\n", [1.0, 2.0, 3.0]),
            ("value\n1\n \n,5\n2\n", [1.0, 2.0]),  # blank first cells are skipped
            ("value\n1\x85\n2\u2028\n", [1.0, 2.0]),  # Unicode spaces are not line ends
            ("value\n1,\x00\n", [1.0] if sys.version_info >= (3, 11) else None),  # csv NUL rule
            ("value\n\ufeff1\n", None),
        ],
    )
    def test_value_file_edge_cases_read_as_the_reference(self, tmp_path, text, values):
        got = self._compare(tmp_path / "a.csv", text)
        assert got[0] == ("values" if values is not None else "UnparsableRowError")
        if values is not None:
            assert series_module._read_csv(tmp_path / "a.csv", "a").tolist() == values

    # csv raises on a cell over its field size limit only when it reaches it.
    LONG_CELL = "9" * (csv.field_size_limit() + 1)

    @pytest.mark.parametrize(
        "rows",
        [
            ["value", "1", "abc", f"1,{LONG_CELL}"],
            ["Date,Close", "2020-01-01,1", "2020-01-02,abc", f"2020-01-03,1,{LONG_CELL}"],
        ],
    )
    def test_a_bad_cell_is_named_before_a_later_unreadable_line(self, tmp_path, rows):
        got = self._compare(tmp_path / "a.csv", "\n".join(rows) + "\n")
        assert got[0] == "UnparsableRowError" and "row 3: unparsable" in got[1]

    def test_a_bad_cell_is_named_before_a_later_non_utf8_byte(self, tmp_path):
        # The byte lies past the first block of text that is decoded.
        path = tmp_path / "a.csv"
        path.write_bytes(b"value\n1\nabc\n" + b"2\n" * 10_000 + b"\xff\n")
        with pytest.raises(UnparsableRowError, match=r"^a\.csv row 3: unparsable value 'abc'$"):
            series_module._read_csv(path, "a")

    # Spellings that float parses in its own way.
    SPELLINGS = ["1_000", " 1.5 ", "\u0661\u0662", "inf", "nan", "0x10", "1d5", "1e400", ""]

    @pytest.mark.parametrize("spelling", SPELLINGS)
    def test_a_cell_parses_as_float_parses_it(self, tmp_path, spelling):
        values, prices = tmp_path / "v.csv", tmp_path / "p.csv"
        values.write_text(f"value\n2\n{spelling}\n", encoding="utf-8")
        prices.write_text(f"Date,Close\n2020-01-01,2\n2020-01-02,{spelling}\n", encoding="utf-8")
        if not spelling.strip():  # a blank value is skipped; a blank close drops its row
            assert series_module._read_csv(values, "v").tolist() == [2.0]
            assert ingest_csv(prices, "p").dropped_rows == 1
            return
        try:
            number = float(spelling)
        except ValueError:
            number = None
        if number is not None and math.isfinite(number):
            assert series_module._read_csv(values, "v").tolist() == [2.0, number]
            assert ingest_csv(prices, "p").closes.tolist() == [2.0, number]
            return
        reason = "unparsable" if number is None else "non-finite"
        with pytest.raises(UnparsableRowError, match=f"row 3: {reason} value"):
            series_module._read_csv(values, "v")
        with pytest.raises(UnparsableRowError, match=f"row 3: {reason} close"):
            ingest_csv(prices, "p")

    def test_clean_files_parse_no_cell_alone(self, tmp_path, write_yahoo_csv, monkeypatch):
        calls = []
        finite_cell = series_module._finite_cell
        monkeypatch.setattr(
            series_module, "_finite_cell", lambda *args: calls.append(args) or finite_cell(*args)
        )
        rows = [(D(2020, 1, 1) + dt.timedelta(days=k), 100.0 + k) for k in range(50)]
        prices = ingest_csv(write_yahoo_csv("p.csv", rows), "p")
        values = tmp_path / "v.csv"
        values.write_text("value\n" + "".join(f"{k / 7!r}\n" for k in range(50)))
        assert series_module._read_csv(values, "v").tolist() == [k / 7 for k in range(50)]
        assert len(prices) == 50 and calls == []
        values.write_text("value\n1.5\nabc\n")
        with pytest.raises(UnparsableRowError, match="row 3: unparsable value 'abc'"):
            series_module._read_csv(values, "v")
        assert len(calls) == 2

    def test_fuzzed_read_errors_in_mid_file_read_as_the_reference(self, tmp_path):
        # Under a lowered field size limit, a run of digits put anywhere in a
        # fuzzed file stops csv there, often after a bad cell.
        rng = random.Random(5102)
        limit = csv.field_size_limit(48)
        kinds = {}
        try:
            for _ in range(1000):
                text = _fuzz_file(rng)
                if rng.random() < 0.5:
                    at = rng.randrange(len(text) + 1)
                    text = text[:at] + "9" * rng.randrange(40, 60) + text[at:]
                got = self._compare(tmp_path / "a.csv", text, dated=rng.random() < 0.2)
                if got[0] != "UnparsableRowError":
                    kind = got[0]
                elif "field larger" in got[1]:
                    kind = "read error"
                else:
                    kind = "bad cell, then a read error" if _stops_csv(text) else "bad cell"
                kinds[kind] = kinds.get(kind, 0) + 1
        finally:
            csv.field_size_limit(limit)
        assert kinds.get("read error", 0) > 100
        assert kinds.get("bad cell, then a read error", 0) > 30


class TestOneOpen:
    """series._read_csv opens its file once, whatever it finds in it."""

    LONG_LINE = "1," + "9" * (csv.field_size_limit() + 1)

    @pytest.mark.parametrize(
        "content, error",
        [
            (b"Date,Close\n2020-01-01,1.5\n2020-01-02,null\n2020-01-03,2.5\n", None),
            (b"value\n1.5\n2.5\n", None),
            (b"value\n1.5\nabc\n2.5\n", "row 3: unparsable value 'abc'"),
            (b"value\n1\nabc\n" + b"2\n" * 10_000 + b"\xff\n", "row 3: unparsable value 'abc'"),
            (f"value\n1\nabc\n{LONG_LINE}\n".encode(), "row 3: unparsable value 'abc'"),
        ],
        ids=[
            "clean prices", "clean values", "bad cell", "bad cell, then non-UTF-8",
            "bad cell, then long line",
        ],
    )
    def test_each_file_is_opened_once(self, tmp_path, monkeypatch, content, error):
        path = tmp_path / "a.csv"
        path.write_bytes(content)
        opened = []
        path_open = Path.open

        def counting_open(self, *args, **kwargs):
            opened.append(self)
            return path_open(self, *args, **kwargs)

        monkeypatch.setattr(Path, "open", counting_open)
        if error is None:
            series_module._read_csv(path, "a")
        else:
            with pytest.raises(UnparsableRowError, match=f"^a\\.csv {error}$"):
                series_module._read_csv(path, "a")
        assert opened == [path]


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

    def test_matches_a_day_by_day_fill(self):
        series = gapped_series(7)
        have = dict(zip(series.dates, series.closes.tolist()))
        dates, closes, day = [], [], series.dates[0]
        while day <= series.dates[-1]:
            dates.append(day)
            closes.append(have.get(day, closes[-1] if closes else None))
            day += dt.timedelta(days=1)
        filled = fill_weekend(series)
        assert filled.dates == tuple(dates)
        assert filled.closes.tolist() == closes
        assert filled.dropped_rows == series.dropped_rows

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

    @pytest.mark.parametrize(
        "target, period",
        [
            (Frequency.WEEKLY, lambda day: day.isocalendar()[:2]),
            (Frequency.MONTHLY, lambda day: (day.year, day.month)),
        ],
    )
    def test_matches_the_last_close_of_each_calendar_period(self, target, period):
        series = gapped_series(8)
        last = {period(day): (day, close) for day, close in zip(series.dates, series.closes)}
        resampled = resample(series, target)
        assert resampled.dates == tuple(day for day, _ in last.values())
        assert resampled.closes.tolist() == [close for _, close in last.values()]
        assert resampled.dropped_rows == series.dropped_rows

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
