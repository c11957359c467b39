"""cli._emit writes the same bytes as the renderer it replaced.

``reference_emit`` is that renderer, unchanged: Python values per cell,
csv.writer and json.dump(indent=2). Each case below is written by both, in
CSV and in JSON, and the files are compared byte for byte, also with the
slice size cut to 1 and 3 rows so that rows span several slices.
"""

import argparse

import numpy as np
import pytest

import reference_emit
from tailscope import InvalidParameterError, cli

EDGE_FLOATS = np.array([-0.0, 1.0, 1e-05, 5e-324, 1.7976931348623157e308, np.nan, -2.5e-300])
DATES = np.array(["2020-01-01", "2020-01-02", "2020-02-29", "2021-12-31", "0999-01-01",
                  "9999-12-31", "2020-06-15"])

# name: (table, JSON payload for cli._emit, the same document for the reference)
CASES = {
    "floats": (
        {"x": EDGE_FLOATS, "y": EDGE_FLOATS[::-1].copy()},
        None,
        None,
    ),
    "one float column": ({"value": EDGE_FLOATS}, None, None),
    "all-NaN one column": ({"value": np.full(4, np.nan)}, None, None),
    "ints": (
        {"p": np.array([1, 1, 4, 4]), "n": np.arange(1, 5), "big": np.array([0, -7, 2**62, 3])},
        None,
        None,
    ),
    "empty": ({"threshold": np.empty(0), "exceedances": np.empty(0, dtype=np.int64)}, None, None),
    "one row": ({"threshold": np.array([0.5]), "mean_excess": np.array([np.nan])}, None, None),
    "dated points": (
        {"date": DATES, "close": EDGE_FLOATS},
        lambda: {"asset": "gold", "frequency": "daily", "dropped_rows": 3,
                 "points": cli._RECORDS},
        lambda table: {"asset": "gold", "frequency": "daily", "dropped_rows": 3,
                       "points": reference_emit.records(table)},
    ),
    "index labels": (
        {"date": np.arange(9, 16), "value": EDGE_FLOATS},
        lambda: {"asset": "s", "statistic": "std_dev", "window": 10, "points": cli._RECORDS},
        lambda table: {"asset": "s", "statistic": "std_dev", "window": 10,
                       "points": reference_emit.records(table)},
    ),
    "empty points": (
        {"threshold": np.empty(0), "mean_excess": np.empty(0)},
        lambda: {"asset": "x", "fitted_slope": None, "points": cli._RECORDS},
        lambda table: {"asset": "x", "fitted_slope": None, "points": []},
    ),
}

TEXT_ROWS = {
    "asset": ["plain", 'needs, "quoting"', "café über", "line\nbreak"],
    "target": ["prices", "returns", "values", "prices"],
    "n": [40, 39, 2, 3],
    "std_dev": [0.25, 0.0, 1e-05, 5e-324],
    "apen": [0.5, None, float("nan"), -0.0],
}


def _maxsum_case(lengths):
    rng = np.random.default_rng(7)
    traces = [(p, rng.uniform(0.0, 1.0, n)) for p, n in zip((1, 2, 3, 4), lengths)]
    table = {
        "p": np.concatenate([np.full(len(r), p) for p, r in traces]).astype(np.int64),
        "n": np.concatenate([np.arange(1, len(r) + 1) for _, r in traces]).astype(np.int64),
        "ratio": np.concatenate([r for _, r in traces]),
    }

    def payload():
        return {"asset": "café", "traces": [
            {"p": p, "verdict": "inconclusive", "ratios": r} for p, r in traces
        ]}

    def document(table):
        return {"asset": "café", "traces": [
            {"p": p, "verdict": "inconclusive", "ratios": r.tolist()} for p, r in traces
        ]}

    return table, payload, document


CASES["maxsum traces of 0, 1 and many values"] = _maxsum_case((0, 1, 9, 2))
CASES["maxsum traces of many values"] = _maxsum_case((11, 7, 5, 3))
CASES["text table"] = (TEXT_ROWS, None, None)


def _write_both(tmp_path, fmt, table, payload, document):
    args = argparse.Namespace(out=tmp_path, fmt=fmt)
    new = cli._emit(args, ("new",), table, payload)
    old = tmp_path / f"old.{fmt}"
    reference_emit.emit(old, fmt, table, None if document is None else document(table))
    return new.read_bytes(), old.read_bytes()


@pytest.mark.parametrize("slice_rows", [1, 3, cli.SLICE_ROWS])
@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("case", list(CASES))
def test_same_bytes_as_reference(tmp_path, monkeypatch, case, fmt, slice_rows):
    monkeypatch.setattr(cli, "SLICE_ROWS", slice_rows)
    new, old = _write_both(tmp_path, fmt, *CASES[case])
    assert new == old


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_one_row_text_table_as_an_object(tmp_path, fmt):
    row = {"asset": "a,b", "frequency": "na", "target": "values", "n": 2, "mean": 1e-05,
           "coeff_variation": None, "excess_kurtosis": float("nan")}
    args = argparse.Namespace(out=tmp_path, fmt=fmt)
    cli._emit_row(args, row, "stats")
    table = {column: [value] for column, value in row.items()}
    old = tmp_path / f"old.{fmt}"
    reference_emit.emit(old, fmt, table, reference_emit.records(table)[0])
    assert (tmp_path / f"a,b_na_values_stats.{fmt}").read_bytes() == old.read_bytes()


# name: (table, the column named in the error)
INFINITE = {
    "float column": ({"x": np.array([1.0, np.inf])}, "x"),
    "negative infinity": ({"x": np.array([1.0, 2.0]), "y": np.array([-np.inf, 0.0])}, "y"),
    "text table cell": ({"asset": ["a", "b"], "std_dev": [1.0, float("inf")]}, "std_dev"),
}


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("case", list(INFINITE))
def test_infinite_column_fails_before_the_file_is_opened(tmp_path, case, fmt):
    table, column = INFINITE[case]
    with pytest.raises(InvalidParameterError, match=repr(column)):
        cli._emit(argparse.Namespace(out=tmp_path, fmt=fmt), ("bad",), table)
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("slope", [float("inf"), float("-inf"), float("nan")])
def test_non_finite_json_metadata_fails_before_the_file_is_opened(tmp_path, slope):
    args = argparse.Namespace(out=tmp_path, fmt="json")
    with pytest.raises(InvalidParameterError):
        cli._emit(args, ("bad",), {"x": np.array([1.0])}, lambda: {"slope": slope})
    assert list(tmp_path.iterdir()) == []
