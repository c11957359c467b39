"""Cell-by-cell reference reader for tailscope's input CSVs.

The oracle that ``series._read_csv`` is fuzzed against: ``csv.reader`` for
the rows and one ``float`` and ``date.fromisoformat`` call per cell, in file
order, with no column-at-once parse. It shares the error helpers and the
result type with the package, so its values and messages compare directly.
"""

import csv
import datetime as dt
from pathlib import Path

import numpy as np

from tailscope.errors import MissingColumnError, UnparsableRowError, _finite_cell
from tailscope.series import Frequency, PriceSeries


def read_csv(path: Path, asset_id: str, *, dated: bool = False) -> PriceSeries | np.ndarray:
    """Read a CSV in one pass: the float64 values of a bare sample, whose
    header is one ``value`` column (unless ``dated``), or else the
    date-sorted daily :class:`PriceSeries` of its Date and Close columns.

    Header names are stripped and matched case-insensitively, and when two
    match, the last is read. Blank lines are skipped. A price row whose close
    is empty, ``null`` or missing (the row ends before the Close column) is
    dropped and counted in ``dropped_rows``. Errors name the file's line.
    """
    with path.open(newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        header = [name.strip().lower() for name in next(reader, [])]
        if header == ["value"] and not dated:
            values = [
                _finite_cell(row[0], path, reader.line_num, "value")
                for row in reader
                if row and row[0].strip()
            ]
            return np.array(values, dtype=np.float64)
        column = {name: i for i, name in enumerate(header)}
        if "date" not in column or "close" not in column:
            raise MissingColumnError(f"{path.name}: header must contain Date and Close columns")
        date_at, close_at = column["date"], column["close"]
        rows: list[tuple[dt.date, float]] = []
        dropped = 0
        for row in reader:
            if not row:
                continue
            raw_close = row[close_at].strip() if close_at < len(row) else ""
            if raw_close == "" or raw_close.lower() == "null":
                dropped += 1
                continue
            raw_date = row[date_at].strip() if date_at < len(row) else ""
            try:
                day = dt.date.fromisoformat(raw_date)
            except ValueError:
                raise UnparsableRowError(
                    f"{path.name} row {reader.line_num}: unparsable date {raw_date!r}"
                ) from None
            rows.append((day, _finite_cell(raw_close, path, reader.line_num, "close")))
    rows.sort(key=lambda item: item[0])
    return PriceSeries(
        asset_id,
        Frequency.DAILY,
        tuple(day for day, _ in rows),
        [close for _, close in rows],
        dropped_rows=dropped,
    )

