"""Reference renderer: the CSV/JSON writer that cli._emit replaced, kept
unchanged so that tests can compare the new writer's bytes against it.

It turns every cell into a Python value (NaN as None), writes CSV rows with
csv.writer and JSON documents with json.dump(indent=2).
"""

import csv
import json

import numpy as np


def values(column) -> list:
    """A column (numpy array or list) as Python values, with NaN as None."""
    values = column.tolist() if isinstance(column, np.ndarray) else column
    return [None if value != value else value for value in values]


def records(table: dict) -> list[dict]:
    """The table's rows as JSON objects keyed by column name."""
    return [dict(zip(table, row)) for row in zip(*map(values, table.values()))]


def emit(path, fmt: str, table: dict, document=None) -> None:
    """Write ``table`` to ``path``: CSV rows, or in JSON ``document`` (the
    table's records when None)."""
    if fmt == "json":
        with path.open("w", encoding="utf-8") as fh:
            json.dump(records(table) if document is None else document, fh, indent=2)
            fh.write("\n")
        return
    with path.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(table)
        writer.writerows(zip(*map(values, table.values())))
