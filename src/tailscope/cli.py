"""Command-line pipeline: ingest price CSVs, normalize calendars, derive
returns, and emit diagnostics as plot-ready CSV or JSON files.

Subcommands: ingest, report, stats, apen, mef, maxsum, rolling, synth.
Inputs are Yahoo-style price CSVs (Date/Close) or bare one-column ``value``
files such as those written by ``synth``. Assets are processed
independently: one bad input never aborts the rest.

Exit codes: 0 success, 1 at least one asset or the one output of report or
synth failed, 2 configuration error.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import json
import os
import sys
from dataclasses import asdict
from functools import partial
from pathlib import Path

import numpy as np

from .apen import ApenParams, RMode, apen
from .errors import (
    InvalidParameterError, TailscopeError, TooFewPointsError, TooShortError, ZeroToleranceError,
)
from .evt import fitted_slope, max_to_sum, mean_excess
from .series import (
    Frequency, ReturnKind, _read_csv, fill_weekend, ingest_csv, log_returns, resample
)
from .stats import RollingStatistic, _min_window, rolling, summarize
from .synth import Family, GeneratorSpec, _PARAMS, generate

EXIT_OK = 0
EXIT_PARTIAL = 1
EXIT_CONFIG = 2

SEED_ENV_VAR = "TAILSCOPE_SEED"

DEFAULT_WINDOWS = {
    Frequency.DAILY: 100,
    Frequency.WEEKLY: 20,
    Frequency.MONTHLY: 3,
}

REPORT_COLUMNS = (
    "asset",
    "frequency",
    "target",
    "n",
    "mean",
    "std_dev",
    "coeff_variation",
    "apen",
    "excess_kurtosis",
)

# The series each --target analyzes: the closing prices (None) or their log-returns.
TARGETS = {"prices": None, "returns": ReturnKind.SIGNED, "abs_returns": ReturnKind.ABSOLUTE}


class ConfigError(Exception):
    """Bad flag combination or unusable configuration (exit code 2)."""


# ---------------------------------------------------------------------------
# Input loading
# ---------------------------------------------------------------------------


def _calendar(args, asset: str, series):
    """The daily prices ``series`` after --fill-weekend and --frequency."""
    if asset in args.fill:
        series = fill_weekend(series)
    if args.frequency is not Frequency.DAILY:
        series = resample(series, args.frequency)
    return series


def _load(args, asset: str, path: Path, targets: tuple):
    """Yield each of ``targets`` of one input, which is read once, as (values,
    dates, head), where head holds the asset, frequency and target labels that
    name its output file. A bare value sample is undated and has no returns:
    it cannot be filled, and it stands once for the prices, which ``targets``
    must hold, with dates None and labels na/values."""
    data = _read_csv(path, asset)
    if isinstance(data, np.ndarray):
        if asset in args.fill:
            raise InvalidParameterError("bare value samples are undated; cannot fill")
        if "prices" not in targets:
            raise InvalidParameterError("bare value samples have no prices to derive returns from")
        yield data, None, {"asset": asset, "frequency": "na", "target": "values"}
        return
    prices = _calendar(args, asset, data)
    for target in targets:
        head = {"asset": asset, "frequency": args.frequency.value, "target": target}
        if TARGETS[target] is None:
            yield prices.closes, prices.dates, head
        else:
            returns = log_returns(prices, TARGETS[target])
            yield returns.values, returns.dates, head


# ---------------------------------------------------------------------------
# Output writing
# ---------------------------------------------------------------------------

SLICE_ROWS = 4096  # rows rendered and written at a time, which bounds a table's memory

_RECORDS = object()  # stands, in a JSON payload, where the table's records go


def _values(cells: list) -> list:
    """A list column's cells, with NaN as None."""
    return [None if cell != cell else cell for cell in cells]


def _check_finite(table: dict) -> None:
    """Raise InvalidParameterError naming the first column that holds ±inf."""
    for column, cells in table.items():
        if isinstance(cells, list):
            cells = np.array([cell for cell in cells if isinstance(cell, float)])
        if cells.dtype.kind == "f" and np.isinf(cells).any():
            raise InvalidParameterError(f"column {column!r} holds an infinite value")


def _cells(column, lo: int, hi: int, null: str) -> list:
    """Rows lo:hi of a column for ``%s`` (a float's or int's repr), NaN as
    ``null``; a list's cells (a text table's, in JSON) as json.dumps text."""
    part = column[lo:hi]
    if isinstance(part, list):
        return list(map(json.dumps, _values(part)))
    cells = part.tolist()
    if part.dtype.kind == "f":
        for i in np.flatnonzero(np.isnan(part)).tolist():
            cells[i] = null
    return cells


def _write_rows(fh, template: str, columns: list, null: str, sep: str) -> None:
    """Write ``template % row`` for each row, joined by ``sep``, SLICE_ROWS at a time."""
    for lo in range(0, len(columns[0]), SLICE_ROWS):
        cells = [_cells(column, lo, lo + SLICE_ROWS, null) for column in columns]
        fh.write((sep if lo else "") + sep.join(map(template.__mod__, zip(*cells))))


def _write_json_list(fh, items, line: str) -> None:
    """Write a table's records, or an array's values, as json.dump(indent=2)
    writes a list that opens the document line ``line``."""
    columns = list(items.values()) if isinstance(items, dict) else [items]
    end = line[: len(line) - len(line.lstrip(" "))]
    pad, rows = end + "  ", len(columns[0])
    slots = ['"%s"' if isinstance(c, np.ndarray) and c.dtype.kind == "U" else "%s" for c in columns]
    template = pad + slots[0]
    if isinstance(items, dict):
        fields = ",\n".join(f"{pad}  {json.dumps(c)}: {s}" for c, s in zip(items, slots))
        template = f"{pad}{{\n{fields}\n{pad}}}"
    fh.write("[\n" if rows else "[")
    _write_rows(fh, template, columns, "null", ",\n")
    fh.write(f"\n{end}]" if rows else "]")


def _emit(args, name: tuple, table: dict, payload=None) -> Path:
    """Write ``{--out}/{name joined by _}.{--format}`` and return its path.

    ``table`` maps each column name, in output order, to a numpy array of
    floats, ints or ISO date strings (written as they are), or to a list in a
    table of text cells. NaN is written as an empty cell or null; ±inf raises
    InvalidParameterError before the file is opened. CSV is laid out as
    csv.writer and JSON as json.dump(indent=2) would: the table's records,
    or ``payload()`` (called only for JSON), finite metadata in which
    ``_RECORDS`` stands for the records and an array for its values.
    """
    _check_finite(table)
    path = args.out / f"{'_'.join(name)}.{args.fmt}"
    if args.fmt == "json":
        slots = []  # each array and _RECORDS in the payload, dumped as "\u0000"
        try:
            text = json.dumps(_RECORDS if payload is None else payload(), indent=2,
                              allow_nan=False, default=lambda slot: slots.append(slot) or "\0")
        except ValueError as exc:
            raise InvalidParameterError(f"metadata is not finite: {exc}") from None
        pieces = text.split('"\\u0000"')
        with _replacing(path, newline=None) as fh:
            fh.write(pieces[0])
            for slot, head, tail in zip(slots, pieces, pieces[1:]):
                _write_json_list(fh, table if slot is _RECORDS else slot, head.rpartition("\n")[2])
                fh.write(tail)
            fh.write("\n")
        return path
    with _replacing(path, newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(table)
        if any(isinstance(cells, list) for cells in table.values()):
            writer.writerows(zip(*map(_values, table.values())))
        else:  # csv.writer quotes a row that is one empty cell
            template = ",".join(["%s"] * len(table)) + "\r\n"
            _write_rows(fh, template, list(table.values()), '""' if len(table) == 1 else "", "")
    return path


@contextlib.contextmanager
def _replacing(path: Path, newline: str | None):
    """A text file to write that replaces ``path`` once the block ends.

    It is a temporary file beside ``path``, moved onto it by ``os.replace``.
    An error in the block removes the temporary file, so a failed write
    leaves no partial file, and any earlier file at ``path`` as it was.
    """
    temporary = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with temporary.open("w", newline=newline, encoding="utf-8") as fh:
            yield fh
        os.replace(temporary, path)
    except BaseException:
        temporary.unlink(missing_ok=True)
        raise


def _emit_row(args, row: dict, command: str) -> None:
    """One-row table in CSV; its record as a JSON object."""
    table = {column: [value] for column, value in row.items()}
    name = (row["asset"], row["frequency"], row["target"], command)
    _emit(args, name, table, lambda: dict(zip(row, _values(list(row.values())))))


# ---------------------------------------------------------------------------
# Subcommand bodies
# ---------------------------------------------------------------------------


def _each_asset(args, handle) -> int:
    failures = 0
    for asset, path in args.inputs:
        try:
            handle(args, asset, path)
        except (TailscopeError, OSError) as exc:
            print(f"{asset}: {type(exc).__name__}: {exc}", file=sys.stderr)
            failures += 1
    return EXIT_PARTIAL if failures else EXIT_OK


def _ingest(args, asset: str, path: Path) -> None:
    series = _calendar(args, asset, ingest_csv(path, asset))
    frequency = series.frequency.value
    table = {"date": np.array([day.isoformat() for day in series.dates]), "close": series.closes}
    _emit(args, (asset, frequency, "prices", "ingest"), table, lambda: {
        "asset": asset,
        "frequency": frequency,
        "dropped_rows": series.dropped_rows,
        "points": _RECORDS,
    })


def _report(args) -> int:
    table = {column: [] for column in REPORT_COLUMNS}

    def handle(args, asset: str, path: Path) -> None:
        for values, _, head in _load(args, asset, path, ("prices", "returns")):
            row = {**head, **asdict(summarize(values)), "apen": None}
            with contextlib.suppress(TooShortError, ZeroToleranceError):
                row["apen"] = apen(values, args.apen_params)
            for column, cells in table.items():
                cells.append(row[column])

    status = _each_asset(args, handle)
    _emit(args, ("report", args.frequency.value), table)
    stdout = csv.writer(sys.stdout, lineterminator="\n")  # the file's rows, quoted alike
    stdout.writerows([REPORT_COLUMNS, *zip(*map(_values, table.values()))])
    return status


def _stats(args, asset: str, path: Path) -> None:
    [(values, _, head)] = _load(args, asset, path, (args.target,))
    _emit_row(args, {**head, **asdict(summarize(values))}, "stats")


def _apen(args, asset: str, path: Path) -> None:
    [(values, _, head)] = _load(args, asset, path, (args.target,))
    params = args.apen_params
    value = apen(values, params)
    row = {
        **head,
        "m": params.m,
        "r_mode": params.r_mode.value,
        "r_value": params.r_value,
        "resolved_r": params.resolve_r(values),
        "apen": value,
    }
    _emit_row(args, row, "apen")


def _fitted_slope(curve) -> float | None:
    """The curve's fitted slope, or None where it has too few distinct thresholds."""
    try:
        return fitted_slope(curve)
    except TooFewPointsError:
        return None


def _mef(args, asset: str, path: Path) -> None:
    [(values, _, head)] = _load(args, asset, path, (args.target,))
    curve = mean_excess(values, args.trim)
    table = {
        "threshold": curve.thresholds,
        "mean_excess": curve.mean_excess,
        "exceedances": curve.exceedances,
    }
    _emit(args, (*head.values(), "mef"), table, lambda: {
        **head,
        "trimmed": curve.trimmed,
        "shape": curve.shape.value,
        "fitted_slope": _fitted_slope(curve),
        "points": _RECORDS,
    })


def _maxsum(args, asset: str, path: Path) -> None:
    [(values, _, head)] = _load(args, asset, path, (args.target,))
    traces = [max_to_sum(values, p) for p in args.orders]
    table = {
        "p": np.concatenate([np.full(len(trace), trace.p) for trace in traces]),
        "n": np.concatenate([np.arange(1, len(trace) + 1) for trace in traces]),
        "ratio": np.concatenate([trace.ratios for trace in traces]),
    }
    _emit(args, (*head.values(), "maxsum"), table, lambda: {**head, "traces": [
        {"p": trace.p, "verdict": trace.verdict.value, "ratios": trace.ratios}
        for trace in traces
    ]})


def _rolling(args, asset: str, path: Path) -> None:
    [(values, dates, head)] = _load(args, asset, path, (args.target,))
    if dates is not None:
        dates = [day.isoformat() for day in dates]
    series = rolling(values, args.window, args.statistic, dates=dates, apen_params=args.apen_params)
    table = {"date": np.asarray(series.dates), "value": series.values}
    _emit(args, (*head.values(), "rolling"), table, lambda: {
        **head,
        "statistic": series.statistic.value,
        "window": series.window,
        "points": _RECORDS,
    })


def _synth(args) -> int:
    name = (args.label or args.spec.family.value, "na", "values", "synth")
    print(_emit(args, name, {"value": args.sample}))
    return EXIT_OK


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------


def _parse_inputs(raw: list[str]) -> list[tuple[str, Path]]:
    inputs: list[tuple[str, Path]] = []
    seen: set[str] = set()
    for item in raw:
        if "=" in item:
            asset, _, path = item.partition("=")
            asset = asset.strip()
        else:
            asset, path = Path(item).stem, item
        if not asset:
            raise ConfigError(f"empty asset id in {item!r}")
        _check_name("asset id", asset, ("input", item))  # a NUL in the path too
        if asset in seen:
            raise ConfigError(f"duplicate asset id {asset!r}")
        seen.add(asset)
        inputs.append((asset, Path(path)))
    return inputs


def _check_name(what: str, name: str, source: tuple[str, str] | None = None) -> None:
    """Raise ConfigError if ``name``, which names output files, holds a path
    separator, or if a NUL byte is in it or in the ``source`` argument, a
    (what, text) pair, that it was parsed from."""
    if any(sep and sep in name for sep in (os.sep, os.altsep)):
        raise ConfigError(f"{what} {name!r} holds a path separator")
    origin, text = source or (what, name)
    if "\0" in text:
        raise ConfigError(f"{origin} {text!r} holds a NUL byte")


def _seed(flag: int | None) -> int:
    if flag is not None:
        return flag
    raw = os.environ.get(SEED_ENV_VAR, "0")
    try:
        return int(raw)
    except ValueError:
        raise ConfigError(f"{SEED_ENV_VAR}={raw!r} is not an integer") from None


def _resolve(args: argparse.Namespace) -> None:
    """Turn the parsed flags into the values the subcommands use, in place,
    then create --out. Raises ConfigError, or InvalidParameterError from the
    library constructors and ``generate``, which check the parameters."""
    if args.command == "synth":
        if args.label:
            _check_name("--label", args.label)
        args.spec = GeneratorSpec(args.family, args.n, _seed(args.seed),
                                  **{param.name: getattr(args, param.name) for param in _PARAMS})
        args.sample = generate(args.spec)
    else:
        args.inputs = _parse_inputs(args.inputs)
        args.frequency = Frequency(args.frequency)
        assets = {asset for asset, _ in args.inputs}
        fill = args.fill_weekend
        if fill.strip().lower() == "all":
            args.fill = assets
        else:
            args.fill = {name.strip() for name in fill.split(",") if name.strip()}
        if args.fill - assets:
            raise ConfigError(f"--fill-weekend names unknown assets: {sorted(args.fill - assets)}")
    # Each step below runs for the subcommands that have its flags.
    if "m" in args:
        args.apen_params = ApenParams(m=args.m, r_mode=args.r_mode, r_value=args.r)
    if "statistic" in args:
        args.statistic = RollingStatistic(args.statistic)
        if args.window is None:
            args.window = DEFAULT_WINDOWS[args.frequency]
        minimum = _min_window(args.statistic, args.apen_params)
        if args.window < minimum:
            raise ConfigError(f"--window must be >= {minimum} for {args.statistic.value}")
    if "trim" in args and not 0.0 <= args.trim < 0.5:
        raise ConfigError("--trim must lie in [0, 0.5)")
    if "p" in args:
        args.orders = (args.p,) if args.p is not None else (1, 2, 3, 4)
    args.out = Path(args.out)
    try:
        args.out.mkdir(parents=True, exist_ok=True)
    except (OSError, ValueError) as exc:  # a file in the way, say, or a NUL byte
        raise ConfigError(f"--out {str(args.out)!r} cannot be created: {exc}") from None


def _build_parser() -> argparse.ArgumentParser:
    io = argparse.ArgumentParser(add_help=False)
    io.add_argument(
        "inputs",
        nargs="+",
        metavar="ASSET=PATH",
        help="input CSV; a bare PATH uses the file stem as the asset id",
    )
    io.add_argument(
        "--frequency",
        choices=[f.value for f in Frequency],
        default="daily",
        help="analysis frequency; daily inputs are resampled for weekly/monthly",
    )
    io.add_argument(
        "--fill-weekend",
        default="",
        metavar="ASSETS",
        help="comma-separated asset ids to forward-fill over non-trading days, or 'all'",
    )
    io.add_argument("--out", default=".", help="output directory")
    io.add_argument(
        "--format", dest="fmt", choices=["csv", "json"], default="csv", help="output format"
    )
    target = argparse.ArgumentParser(add_help=False)
    target.add_argument(
        "--target",
        choices=list(TARGETS),
        default="prices",
        help="series to analyze: closing prices or (absolute) log-returns",
    )
    tolerance = argparse.ArgumentParser(add_help=False)
    tolerance.add_argument("--m", type=int, default=ApenParams.m,
                           help="pattern length (default %(default)s)")
    tolerance.add_argument("--r", type=float, default=ApenParams.r_value,
                           help="tolerance value (default %(default)s)")
    tolerance.add_argument(
        "--r-mode",
        choices=[mode.value for mode in RMode],
        default=ApenParams.r_mode.value,
        help="tolerance mode: fraction of the window SD, or absolute units",
    )

    parser = argparse.ArgumentParser(
        prog="tailscope",
        description="Volatility diagnostics for price series: descriptive statistics, "
        "approximate entropy, mean-excess curves, and max-to-sum moment traces.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    commands = {}
    for name, run, parents, text in (
        ("ingest", partial(_each_asset, handle=_ingest), [io],
         "normalize price CSVs to date,close files"),
        ("report", _report, [io, tolerance], "per-asset summary table for prices and returns"),
        ("stats", partial(_each_asset, handle=_stats), [io, target],
         "summary statistics for one target series"),
        ("apen", partial(_each_asset, handle=_apen), [io, target, tolerance],
         "approximate entropy of the target series"),
        ("mef", partial(_each_asset, handle=_mef), [io, target],
         "mean-excess curve with tail-shape label"),
        ("maxsum", partial(_each_asset, handle=_maxsum), [io, target],
         "max-to-sum moment-convergence traces"),
        ("rolling", partial(_each_asset, handle=_rolling), [io, target, tolerance],
         "rolling statistic over frequency-keyed windows"),
        ("synth", _synth, [], "write a seeded synthetic sample as a value CSV"),
    ):
        commands[name] = sub.add_parser(name, parents=parents, help=text)
        commands[name].set_defaults(run=run)

    commands["mef"].add_argument(
        "--trim",
        type=float,
        default=0.02,
        help="fraction of top order statistics to discard (default 0.02, floor 3)",
    )
    commands["maxsum"].add_argument(
        "--p", type=int, choices=[1, 2, 3, 4], help="single order (default: all of 1..4)"
    )
    p = commands["rolling"]
    p.add_argument(
        "--statistic",
        choices=[s.value for s in RollingStatistic],
        default="std_dev",
        help="windowed statistic (default std_dev)",
    )
    p.add_argument(
        "--window",
        type=int,
        help="observations per window (defaults: daily 100, weekly 20, monthly 3; "
        "apen needs at least m + 2)",
    )
    p = commands["synth"]
    p.add_argument("--family", required=True, choices=[f.value for f in Family])
    p.add_argument("--n", type=int, required=True, help="sample size")
    p.add_argument("--seed", type=int, help=f"RNG seed (default: ${SEED_ENV_VAR} or 0)")
    for param in _PARAMS:
        p.add_argument("--" + param.name.replace("_", "-"), type=float, default=param.default,
                       help=param.metadata["help"])
    p.add_argument("--label", help="output label (default: family name)")
    p.add_argument("--out", default=".", help="output directory")
    p.set_defaults(fmt="csv")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        _resolve(args)
    except (ConfigError, InvalidParameterError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        return args.run(args)
    except (TailscopeError, OSError) as exc:  # report's table or synth's sample
        print(f"{args.command}: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_PARTIAL


if __name__ == "__main__":
    sys.exit(main())
