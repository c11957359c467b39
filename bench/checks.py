"""Output checks, computed apart from the program from the generator's own
values with numpy and scipy.

Each ``check_<workload>`` reads the files a pass wrote and returns a
:class:`Checker` holding the failures. The checker also remembers one
non-zero value it examined in every (file, column), so that ``selftest.py``
can nudge it and show that the check then fails.

scipy.spatial and scipy.stats are imported here, never before the timed
passes, so a lazy import moved into the program still shows in its timings.
"""

from __future__ import annotations

import csv
import datetime as dt
import json
import math
import zlib
from pathlib import Path

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

REL = 1e-9  # float results computed by another formula or summation order
APEN_ABS = 1e-12
WINDOW = 100  # rolling window of every rolling_daily call
SAMPLED = 32  # windows or thresholds checked by brute force per file
TRIM = 0.02
# Max-to-sum verdicts far from the verdict thresholds at the sample size in
# gen.py. On 20,000 seeds the smallest final p=4 ratio of the Pareto sample
# was 0.15 (not_converging needs > 0.10) and the largest final p=1 ratio of
# the exponential one was far below 0.02. Other verdicts came within 5% of a
# threshold on some seed, and the mean-excess shape labels also vary from
# seed to seed, so neither is checked.
VERDICTS = {
    ("exponential", 1): "converging",
    ("pareto", 4): "not_converging",
}


class Checker:
    """Collects failures, and one examined non-zero value per (file, column)."""

    def __init__(self):
        self.failures: list[str] = []
        self.examined: dict[tuple[str, str], tuple] = {}

    def expect(self, ok: bool, message: str) -> bool:
        if not ok:
            self.failures.append(message)
        return bool(ok)

    def values(self, path: Path, locate, got, want, *, rel=0.0, abs_tol=0.0) -> bool:
        """Compare output values with expected ones, exactly unless a
        tolerance is given. ``locate(i)`` names element i in the file:
        (row, column) in a CSV file, a key path such as
        ("points", 5, "mean_excess") in a JSON file. None compares as NaN."""
        got, want = np.array(got, dtype=float), np.array(want, dtype=float)
        count = f"{path.name}: {got.size} values, expected {want.size}"
        if not self.expect(got.shape == want.shape, count):
            return False
        if got.size == 0:
            return True
        first = locate(0)
        column = first[1] if isinstance(first[0], int) else ".".join(
            "*" if isinstance(part, int) else part for part in first
        )  # ("points", 5, "mean_excess") -> "points.*.mean_excess"
        nudgeable = np.flatnonzero((got != 0) & ~np.isnan(got))
        if nudgeable.size:
            self.examined.setdefault((str(path), column), locate(int(nudgeable[0])))
        if rel == 0.0 and abs_tol == 0.0:
            ok = got == want
        else:
            ok = np.abs(got - want) <= np.maximum(abs_tol, rel * np.abs(want))
        bad = np.flatnonzero(~(ok | (np.isnan(got) & np.isnan(want))))
        if bad.size == 0:
            return True
        i = int(bad[0])
        return self.expect(False, f"{path.name} {locate(i)}: {got[i]!r} != expected {want[i]!r}")

    def value(self, path: Path, locator, got, want, **tolerance) -> bool:
        return self.values(path, lambda _: locator, [got], [want], **tolerance)


def read_rows(path: Path) -> list[dict]:
    with path.open(newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def number(cell: str):
    if cell == "":
        return None
    return int(cell) if cell.lstrip("-").isdigit() else float(cell)


def sample_rows(seed: int, key: str, n: int) -> list[int]:
    """Rows checked by brute force: the same for a given seed and file."""
    rng = np.random.default_rng([seed, zlib.crc32(key.encode())])
    return sorted(rng.choice(n, min(SAMPLED, n), replace=False).tolist())


def apen(x: np.ndarray, m: int = 2) -> float:
    """ApEn by an independent neighbour count with a k-d tree."""
    from scipy.spatial import cKDTree

    r = 0.2 * float(np.std(x, ddof=1))

    def phi(length: int) -> float:
        templates = sliding_window_view(x, length)
        counts = cKDTree(templates).query_ball_point(
            templates, r, p=np.inf, return_length=True
        )
        return float(np.mean(np.log(counts / templates.shape[0])))

    return phi(m) - phi(m + 1)


def summary(x: np.ndarray) -> dict:
    from scipy.stats import kurtosis

    mean, sd = float(np.mean(x)), float(np.std(x, ddof=1))
    return {
        "n": x.size,
        "mean": mean,
        "std_dev": sd,
        "coeff_variation": sd / mean if abs(mean) >= 1e-12 else None,
        "excess_kurtosis": float(kurtosis(x, bias=False)),
    }


def _check_summary(chk: Checker, path: Path, row_index: int, row: dict, x: np.ndarray) -> None:
    for column, want in summary(x).items():
        chk.value(path, (row_index, column), number(row[column]), want, rel=REL)


def _series(inputs, name: str, target: str) -> tuple[list, np.ndarray]:
    dates, closes = inputs.assets[name].analysed()
    if target == "prices":
        return dates, closes
    returns = np.diff(np.log(closes))
    return dates[1:], np.abs(returns) if target == "abs_returns" else returns


def check_report_daily(out: Path, inputs, seed: int) -> Checker:
    chk = Checker()
    path = out / "report_daily.csv"
    rows = read_rows(path)
    expected = [(name, target) for name in inputs.assets for target in ("prices", "returns")]
    chk.expect(
        [(r["asset"], r["target"]) for r in rows] == expected, f"{path.name}: rows {rows!r}"
    )
    for i, (row, (name, target)) in enumerate(zip(rows, expected)):
        _, x = _series(inputs, name, target)
        _check_summary(chk, path, i, row, x)
        chk.value(path, (i, "apen"), number(row["apen"]), apen(x), abs_tol=APEN_ABS)
    return chk


def _check_rolling(chk, path: Path, dates: list, rows: list, want, **tolerance) -> None:
    """Point count and window-end dates, then the values of ``rows``."""
    table = read_rows(path)
    ends = [d.isoformat() for d in dates[WINDOW - 1 :]]
    chk.expect(len(table) == len(ends), f"{path.name}: {len(table)} points, expected {len(ends)}")
    chk.expect([r["date"] for r in table] == ends[: len(table)], f"{path.name}: window-end dates")
    got = [number(table[i]["value"]) if i < len(table) else None for i in rows]
    chk.values(path, lambda j: (rows[j], "value"), got, want, **tolerance)


def check_rolling_daily(out: Path, inputs, seed: int) -> Checker:
    chk = Checker()
    for name in inputs.assets:
        dates, prices = _series(inputs, name, "prices")
        windows = sliding_window_view(prices, WINDOW)
        sd = windows.std(axis=1, ddof=1)
        cv = sd / windows.mean(axis=1)
        everyone = list(range(sd.size))
        for stat, want in (("sd", sd), ("cv", cv)):
            path = out / stat / f"{name}_daily_prices_rolling.csv"
            _check_rolling(chk, path, dates, everyone, want, rel=REL)
        dates, returns = _series(inputs, name, "returns")
        path = out / "apen" / f"{name}_daily_returns_rolling.csv"
        sampled = sample_rows(seed, path.name, returns.size - WINDOW + 1)
        want = [apen(returns[i : i + WINDOW]) for i in sampled]
        _check_rolling(chk, path, dates, sampled, want, abs_tol=APEN_ABS)
    return chk


def _mef_expected(x: np.ndarray) -> tuple[int, np.ndarray]:
    n = x.size
    k = max(3, math.ceil(TRIM * n))
    ordered = np.sort(x)
    thresholds = np.unique(ordered[: n - k - 1])
    return k, thresholds[thresholds < ordered[-1]]


def _check_mef_points(chk, path, seed, x, got: dict, locate) -> None:
    """``got`` maps each mean-excess column to its values in the file."""
    _, thresholds = _mef_expected(x)
    a = got["threshold"]
    chk.expect(bool((np.diff(a) > 0).all()), f"{path.name}: thresholds not increasing")
    chk.expect(bool((a < x.max()).all()), f"{path.name}: threshold at or above the maximum")
    counts = x.size - np.searchsorted(np.sort(x), thresholds, side="right")
    chk.values(path, lambda i: locate(i, "threshold"), a, thresholds)
    chk.values(path, lambda i: locate(i, "exceedances"), got["exceedances"], counts)
    sampled = sample_rows(seed, path.name, min(a.size, thresholds.size))
    brute = [float(np.sum(x[x > t] - t) / np.count_nonzero(x > t)) for t in thresholds[sampled]]
    got_me = got["mean_excess"][sampled]
    chk.values(path, lambda j: locate(sampled[j], "mean_excess"), got_me, brute, rel=REL)


def _weighted_slope(got: dict) -> float:
    a, me = got["threshold"], got["mean_excess"]
    # np.polyfit multiplies residuals by w, so the least-squares weights are w**2.
    w = got["exceedances"].astype(float) ** 2
    a_bar, me_bar = np.average(a, weights=w), np.average(me, weights=w)
    return float(np.sum(w * (a - a_bar) * (me - me_bar)) / np.sum(w * (a - a_bar) ** 2))


def _running_ratios(x: np.ndarray, p: int) -> list[float]:
    ratios, top, total = [], 0.0, 0.0
    for v in x.tolist():
        v = v**p
        top = v if v > top else top
        total += v
        ratios.append(top / total if total > 0.0 else 1.0)
    return ratios


def _tail_inputs(inputs) -> list[tuple[str, str, np.ndarray]]:
    """(file stem, name, values) of every series the tail commands analyse."""
    series = [
        (f"{n}_daily_abs_returns", n, _series(inputs, n, "abs_returns")[1]) for n in inputs.assets
    ]
    return series + [(f"{n}_na_values", n, v) for n, (_, v) in inputs.samples.items()]


def _columns(rows: list[dict]) -> dict:
    return {key: np.array([number(r[key]) for r in rows]) for key in (rows[0] if rows else {})}


def _check_ingest(chk, out: Path, inputs) -> None:
    for name in inputs.assets:
        dates, closes = _series(inputs, name, "prices")
        weekly: dict = {}
        for day, close in zip(dates, closes.tolist()):
            weekly[day.isocalendar()[:2]] = (day, close)
        for label, want in (("daily", list(zip(dates, closes))), ("weekly", list(weekly.values()))):
            path = out / "ingest" / f"{name}_{label}_prices_ingest.csv"
            rows = read_rows(path)
            got_dates = [dt.date.fromisoformat(r["date"]) for r in rows]
            chk.expect(got_dates == [d for d, _ in want], f"{path.name}: dates")
            got = [float(r["close"]) for r in rows]
            chk.values(path, lambda i: (i, "close"), got, [c for _, c in want])


def _check_maxsum(chk, tails: Path, stem: str, name: str, x: np.ndarray) -> None:
    want = [_running_ratios(x, p) for p in (1, 2, 3, 4)]
    path = tails / f"{stem}_maxsum.csv"
    got = _columns(read_rows(path))
    if not chk.expect(set(got) == {"p", "n", "ratio"}, f"{path.name}: columns {sorted(got)}"):
        return
    chk.values(path, lambda i: (i, "p"), got["p"], np.repeat([1, 2, 3, 4], x.size))
    chk.values(path, lambda i: (i, "n"), got["n"], np.tile(np.arange(1, x.size + 1), 4))
    chk.values(path, lambda i: (i, "ratio"), got["ratio"], np.concatenate(want), rel=1e-12)
    in_range = ((got["ratio"] > 0) & (got["ratio"] <= 1)).all()
    chk.expect(bool(in_range), f"{path.name}: ratio outside (0, 1]")
    path = tails / f"{stem}_maxsum.json"
    traces = json.loads(path.read_text(encoding="utf-8"))["traces"]
    chk.expect(len(traces) == 4, f"{path.name}: {len(traces)} traces")
    for j, trace in enumerate(traces[:4]):
        chk.value(path, ("traces", j, "p"), trace["p"], j + 1)
        ratios = np.array(trace["ratios"], dtype=float)
        chk.values(path, lambda i: ("traces", j, "ratios", i), ratios, want[j], rel=1e-12)
        chk.expect(bool(((ratios > 0) & (ratios <= 1)).all()), f"{path.name}: ratio outside (0, 1]")
        verdict = VERDICTS.get((name, j + 1))
        if verdict is not None:
            chk.expect(trace["verdict"] == verdict, f"{path.name}: p={j + 1} {trace['verdict']}")


def check_tails_batch(out: Path, inputs, seed: int) -> Checker:
    chk = Checker()
    _check_ingest(chk, out, inputs)
    tails = out / "tails"
    for stem, name, x in _tail_inputs(inputs):
        path = tails / f"{stem}_mef.csv"
        _check_mef_points(chk, path, seed, x, _columns(read_rows(path)), lambda i, c: (i, c))
        path = tails / f"{stem}_mef.json"
        doc = json.loads(path.read_text(encoding="utf-8"))
        columns = ("threshold", "mean_excess", "exceedances")
        got = {k: np.array([p[k] for p in doc["points"]]) for k in columns}
        _check_mef_points(chk, path, seed, x, got, lambda i, c: ("points", i, c))
        chk.value(path, ("trimmed",), doc["trimmed"], _mef_expected(x)[0])
        chk.value(path, ("fitted_slope",), doc["fitted_slope"], _weighted_slope(got), rel=1e-8)
        _check_maxsum(chk, tails, stem, name, x)
        path = tails / f"{stem}_stats.csv"
        rows = read_rows(path)
        if chk.expect(len(rows) == 1, f"{path.name}: {len(rows)} rows"):
            _check_summary(chk, path, 0, rows[0], x)
    return chk


CHECKS = {
    "report_daily": check_report_daily,
    "rolling_daily": check_rolling_daily,
    "tails_batch": check_tails_batch,
}
