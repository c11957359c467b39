"""Price series: CSV ingestion, calendar normalization, log-returns, resampling.

Input schema is the Yahoo Finance daily export
(``Date,Open,High,Low,Close,Adj Close,Volume``); only Date and Close are
consumed, and header names are matched case-insensitively. Rows whose Close
is empty or the literal ``null`` (non-trading days in some exports) are
dropped and counted in ``PriceSeries.dropped_rows``. The ``date,close``
CSV that ``tailscope ingest`` writes reads back through ``ingest_csv`` as
the same series.

Weekend filling is opt-in because assets that trade seven days a week must
not be forward-filled.
"""

from __future__ import annotations

import csv
import datetime as dt
import operator
from dataclasses import dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from .errors import (
    DuplicateDateError,
    EmptySeriesError,
    InvalidParameterError,
    MissingColumnError,
    NonPositivePriceError,
    UnparsableRowError,
    _as_finite_array,
    _Choice,
    _finite_cell,
    _freeze,
)


class Frequency(_Choice):
    DAILY = "daily"
    WEEKLY = "weekly"
    MONTHLY = "monthly"


class ReturnKind(_Choice):
    SIGNED = "signed"
    ABSOLUTE = "absolute"


def _ordinals(dates: tuple[dt.date, ...]) -> np.ndarray:
    """Day numbers of ``dates``; day 1, 0001-01-01, is a Monday."""
    return np.fromiter(map(dt.date.toordinal, dates), dtype=np.int64, count=len(dates))


class _DatedSeries:
    """What the dated series types share: their checks, ``len`` and value
    equality over the fields that compare. It declares no fields."""

    def _check(self, name: str) -> None:
        """Check, after ``_freeze`` has checked that ``dates`` and the ``name``
        array have equal lengths, that the dates are ``datetime.date`` objects
        in strictly increasing order, and that the array is finite."""
        arr, dates = getattr(self, name), self.dates
        for day in dates:
            if type(day) is not dt.date:  # a datetime's day is not a calendar day
                raise InvalidParameterError(
                    f"dates must be datetime.date objects, not {type(day).__name__}"
                )
        if not all(map(operator.lt, dates, dates[1:])):
            for prev, cur in zip(dates, dates[1:]):
                if cur == prev:
                    raise DuplicateDateError(f"duplicate date {cur.isoformat()}")
                if cur < prev:
                    raise InvalidParameterError("dates must be strictly increasing")
        _as_finite_array(arr, name=name)

    def __len__(self) -> int:
        return len(self.dates)

    def __eq__(self, other) -> bool:
        if not isinstance(other, type(self)):
            return NotImplemented
        compared = [f.name for f in fields(self) if f.compare]
        pairs = [(getattr(self, name), getattr(other, name)) for name in compared]
        return all(np.array_equal(a, b) if isinstance(a, np.ndarray) else a == b for a, b in pairs)


@dataclass(frozen=True, eq=False)
class PriceSeries(_DatedSeries):
    """Closing prices at a declared sampling frequency, strictly date-sorted."""

    asset_id: str
    frequency: Frequency
    dates: tuple[dt.date, ...]
    closes: np.ndarray
    dropped_rows: int = field(default=0, compare=False)  # ingestion metadata

    def __post_init__(self):
        _freeze(self, ("dates", "closes"), frequency=Frequency, dates=tuple, closes=np.float64)
        self._check("closes")
        bad = np.flatnonzero(self.closes <= 0.0)
        if bad.size:
            day = self.dates[int(bad[0])]
            raise NonPositivePriceError(
                f"{day.isoformat()}: close {float(self.closes[bad[0]])!r} is not positive"
            )


@dataclass(frozen=True, eq=False)
class ReturnSeries(_DatedSeries):
    """Log-returns derived from a price series, dated at the later observation."""

    asset_id: str
    frequency: Frequency
    kind: ReturnKind
    dates: tuple[dt.date, ...]
    values: np.ndarray

    def __post_init__(self):
        _freeze(self, ("dates", "values"), frequency=Frequency, kind=ReturnKind, dates=tuple,
                values=np.float64)
        self._check("values")
        if self.kind is ReturnKind.ABSOLUTE and (self.values < 0.0).any():
            raise InvalidParameterError("absolute returns cannot be negative")


def _read_csv(path: Path, asset_id: str, *, dated: bool = False) -> PriceSeries | np.ndarray:
    """Read a CSV: the float64 values of a bare sample, whose header is one
    ``value`` column (unless ``dated``), or else the date-sorted daily
    :class:`PriceSeries` of its Date and Close columns.

    Header names are stripped and matched case-insensitively, and when two
    match, the last is read. Blank lines are skipped. A price row whose close
    is empty, ``null`` or missing (the row ends before the Close column) is
    dropped and counted in ``dropped_rows``. A cell parses as Python's
    ``float`` parses it. Errors name the file's line; a file that is not
    UTF-8 text, or a cell longer than ``csv.field_size_limit()``, raises
    UnparsableRowError too.

    The file is read once, and each column is parsed in one call. Only when
    that fails, or the read stops at text it cannot read, are the cells read
    parsed one at a time, in file order and date before close, so that the
    first bad one raises, naming its line; then the read error raises.
    """
    # Each kept row's file line, its date (a price file's only), its close or value.
    lines, raw_dates, raw_cells = [], [], []
    dropped, failure = 0, None
    with path.open(newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        try:
            header = [name.strip().lower() for name in next(reader, [])]
            column = {name: i for i, name in enumerate(header)}
            bare = header == ["value"] and not dated
            if bare:
                for row in reader:
                    if row and row[0].strip():
                        raw_cells.append(row[0])
                        lines.append(reader.line_num)
            elif "date" not in column or "close" not in column:
                raise MissingColumnError(
                    f"{path.name}: header must contain Date and Close columns"
                )
            else:
                date_at, close_at = column["date"], column["close"]
                for row in reader:
                    if not row:
                        continue
                    raw_close = row[close_at].strip() if close_at < len(row) else ""
                    if raw_close == "" or raw_close.lower() == "null":
                        dropped += 1
                        continue
                    raw_dates.append(row[date_at].strip() if date_at < len(row) else "")
                    raw_cells.append(raw_close)
                    lines.append(reader.line_num)
        except UnicodeDecodeError as exc:
            failure = UnparsableRowError(f"{path.name}: not UTF-8 text ({exc.reason})")
        except csv.Error as exc:
            failure = UnparsableRowError(f"{path.name} row {reader.line_num}: {exc}")
    try:
        days = list(map(dt.date.fromisoformat, raw_dates))
        values = np.array(list(map(float, raw_cells)), dtype=np.float64)
        parsed = failure is None and np.isfinite(values).all()
    except ValueError:
        parsed = False
    if parsed:
        order = sorted(range(len(days)), key=days.__getitem__)
        return values if bare else PriceSeries(
            asset_id,
            Frequency.DAILY,
            [days[i] for i in order],
            values[order],
            dropped_rows=dropped,
        )
    # A cell the column parse rejects is rejected here too: only a read error gets past.
    for k, line in enumerate(lines):
        if raw_dates:
            try:
                dt.date.fromisoformat(raw_dates[k])
            except ValueError:
                raise UnparsableRowError(
                    f"{path.name} row {line}: unparsable date {raw_dates[k]!r}"
                ) from None
        _finite_cell(raw_cells[k], path, line, "close" if raw_dates else "value")
    raise failure


def ingest_csv(path: str | Path, asset_id: str) -> PriceSeries:
    """Parse a Yahoo-style daily CSV into a date-sorted :class:`PriceSeries`
    tagged ``Frequency.DAILY``.

    Parameters
    ----------
    path : file path
        CSV with at least Date and Close columns; dates must be ISO-8601.
    asset_id : str
        Label attached to the resulting series.

    Raises
    ------
    MissingColumnError (also for a bare one-column ``value`` file),
    UnparsableRowError, NonPositivePriceError, DuplicateDateError
    """
    return _read_csv(Path(path), asset_id, dated=True)


def fill_weekend(series: PriceSeries) -> PriceSeries:
    """Forward-fill every missing calendar day between the first and last date.

    Existing observations are unchanged; a series already on consecutive days
    is returned as-is, which also makes the operation idempotent.
    """
    if series.frequency is not Frequency.DAILY:
        raise InvalidParameterError("weekend fill applies to daily series only")
    if len(series) == 0:
        raise EmptySeriesError("cannot fill an empty series")
    days = _ordinals(series.dates)
    span = int(days[-1] - days[0]) + 1
    if span == len(series):
        return series
    # Each calendar day takes the close of the last observation on or before it.
    latest = np.searchsorted(days, np.arange(days[0], days[-1] + 1), side="right") - 1
    first, last = np.datetime64(series.dates[0], "D"), np.datetime64(series.dates[-1], "D")
    dates = np.arange(first, last + 1).tolist()
    return replace(series, dates=dates, closes=series.closes[latest])


def resample(series: PriceSeries, target: Frequency) -> PriceSeries:
    """Aggregate a daily series to the last close of each ISO week or
    calendar month, dated at that final observation.

    Partial first and last periods are kept.
    """
    if series.frequency is not Frequency.DAILY:
        raise InvalidParameterError("resampling starts from a daily series")
    target = Frequency(target)
    if target not in (Frequency.WEEKLY, Frequency.MONTHLY):
        raise InvalidParameterError("resample target must be weekly or monthly")
    if len(series) == 0:
        raise EmptySeriesError("cannot resample an empty series")
    if target is Frequency.WEEKLY:  # an ISO week runs Monday to Sunday
        period = (_ordinals(series.dates) - 1) // 7
    else:
        period = np.array([day.year * 12 + day.month for day in series.dates])
    last = np.flatnonzero(np.append(period[1:] != period[:-1], True))
    dates = [series.dates[i] for i in last.tolist()]
    return replace(series, frequency=target, dates=dates, closes=series.closes[last])


def log_returns(series: PriceSeries, kind: ReturnKind = ReturnKind.SIGNED) -> ReturnSeries:
    """ln(close[t+1] / close[t]) for each consecutive pair, dated at t+1."""
    values = np.diff(np.log(_as_finite_array(series.closes, min_n=2)))
    kind = ReturnKind(kind)
    if kind is ReturnKind.ABSOLUTE:
        values = np.abs(values)
    return ReturnSeries(series.asset_id, series.frequency, kind, series.dates[1:], values)
