"""Golden run of the CLI: every subcommand over small seeded fixtures, with
each output file, exit code, standard output and failing asset's error class
compared against ``golden/expected.json``.

The fixtures in ``golden/inputs`` and the expected record are written by

    PYTHONPATH=src python tests/test_golden.py

which should only be rerun when an output is meant to change.
"""

import contextlib
import csv
import datetime as dt
import hashlib
import io
import json
import os
import re
import sys
from pathlib import Path

import numpy as np

from tailscope.cli import SEED_ENV_VAR, main

GOLDEN = Path(__file__).resolve().parent / "golden"
INPUTS = GOLDEN / "inputs"
EXPECTED = GOLDEN / "expected.json"

ALL = ["five={in}/five.csv", "seven={in}/seven.csv", "flat={in}/flat.csv",
       "sample={in}/sample.csv", "bad={in}/bad.csv"]
ANALYSIS = ("stats", "apen", "mef", "maxsum", "rolling")
COMMANDS = ("ingest", "report", *ANALYSIS)


def _cases() -> list[dict]:
    cases = []

    def add(*argv, env=None):
        cases.append({"argv": list(argv), "env": env or {}})

    for command in COMMANDS:
        for frequency in ("daily", "weekly", "monthly"):
            for fmt in ("csv", "json"):
                add(command, *ALL, "--frequency", frequency, "--format", fmt)
        for fill in ("five", "all"):
            add(command, *ALL, "--fill-weekend", fill)
        add(command, *ALL, "--fill-weekend", "five,seven", "--format", "json")
    for command in ANALYSIS:
        for target in ("prices", "returns", "abs_returns"):
            for fmt in ("csv", "json"):
                add(command, *ALL, "--target", target, "--format", fmt)
        add(command, *ALL, "--target", "returns", "--frequency", "weekly")
        add(command, *ALL, "--target", "abs_returns", "--fill-weekend", "five",
            "--frequency", "monthly", "--format", "json")
    for fmt in ("csv", "json"):
        add("report", "sample={in}/sample.csv", "--fill-weekend", "sample", "--format", fmt)
        add("report", "{in}/sample.csv", "{in}/seven.csv", "--fill-weekend", "all",
            "--format", fmt)
        add("apen", *ALL, "--m", "3", "--r", "0.3", "--format", fmt)
        add("apen", *ALL, "--r-mode", "absolute", "--r", "0.5", "--target", "returns",
            "--format", fmt)
        add("report", *ALL, "--m", "1", "--r-mode", "absolute", "--r", "0.01",
            "--frequency", "weekly", "--format", fmt)
        add("rolling", *ALL, "--statistic", "apen", "--window", "10", "--format", fmt)
        add("rolling", *ALL, "--statistic", "coeff_variation", "--window", "5",
            "--target", "returns", "--format", fmt)
        add("rolling", *ALL, "--statistic", "apen", "--frequency", "weekly",
            "--r-mode", "absolute", "--r", "0.02", "--target", "abs_returns", "--format", fmt)
        add("rolling", *ALL, "--statistic", "apen", "--frequency", "monthly", "--window", "4",
            "--m", "2", "--format", fmt)
        add("rolling", *ALL, "--statistic", "std_dev", "--window", "2",
            "--frequency", "weekly", "--format", fmt)
        add("mef", *ALL, "--trim", "0.1", "--target", "abs_returns", "--format", fmt)
        add("mef", *ALL, "--trim", "0", "--format", fmt)
        add("maxsum", *ALL, "--p", "2", "--target", "abs_returns", "--format", fmt)
        add("maxsum", *ALL, "--p", "4", "--frequency", "weekly", "--format", fmt)
    # a missing file fails its asset only; a bare PATH takes the file stem as id
    add("stats", "{in}/seven.csv", "gone={in}/missing.csv", "--target", "returns")
    add("ingest", "{in}/five.csv", "gone={in}/missing.csv", "--format", "json")
    add("report", "{in}/five.csv", "gone={in}/missing.csv")
    # configuration errors exit 2 before any asset is read
    add("stats", "a={in}/five.csv", "a={in}/seven.csv")
    add("report", "={in}/five.csv")
    add("ingest", *ALL, "--fill-weekend", "five,gold")
    add("mef", *ALL, "--trim", "0.5")
    add("mef", *ALL, "--trim", "-0.1")
    add("rolling", *ALL, "--statistic", "apen", "--window", "3")
    add("rolling", *ALL, "--statistic", "apen", "--m", "3", "--window", "4")
    add("rolling", *ALL, "--window", "1")
    add("apen", *ALL, "--m", "0")
    add("report", *ALL, "--r", "-1")
    add("rolling", *ALL, "--r", "0")
    # flags each subcommand does not have, and bad choices, are usage errors
    add("ingest", *ALL, "--target", "prices")
    add("report", *ALL, "--target", "prices")
    add("stats", *ALL, "--m", "2")
    add("mef", *ALL, "--window", "5")
    add("rolling", *ALL, "--trim", "0.1")
    add("maxsum", *ALL, "--p", "5")
    add("stats", *ALL, "--format", "xml")
    add("apen", *ALL, "--frequency", "yearly")
    add("synth", "--family", "gaussian", "--n", "5", "--target", "prices")
    # synth
    for family, params in (
        ("gaussian", ["--mu", "1", "--sigma", "2"]),
        ("exponential", ["--lam", "1.5"]),
        ("gpd", ["--xi", "0.5", "--beta", "2"]),
        ("gpd", ["--xi", "0", "--label", "gpd0"]),
        ("lognormal", ["--mu", "0.1", "--sigma", "0.5"]),
        ("pareto", ["--alpha", "1.5", "--x-min", "2"]),
    ):
        add("synth", "--family", family, "--n", "25", "--seed", "7", *params)
    add("synth", "--family", "exponential", "--n", "10", env={SEED_ENV_VAR: "5"})
    add("synth", "--family", "exponential", "--n", "10")
    add("synth", "--family", "exponential", "--n", "10", env={SEED_ENV_VAR: "x"})
    add("synth", "--family", "gpd", "--beta", "0", "--n", "10", "--seed", "1")
    add("synth", "--family", "pareto", "--alpha", "-1", "--n", "10", "--seed", "1")
    add("synth", "--family", "gaussian", "--n", "0", "--seed", "1")
    add("synth", "--family", "gaussian", "--n", "5", "--seed", "-3")
    return cases


_FAILED_ASSET = re.compile(r"^(\S+): (\w+Error): ", re.MULTILINE)


def _run_case(case: dict, out: Path) -> dict:
    argv = [arg.replace("{in}", str(INPUTS)) for arg in case["argv"]]
    argv += ["--out", str(out)]
    stdout, stderr = io.StringIO(), io.StringIO()
    saved = os.environ.pop(SEED_ENV_VAR, None)
    os.environ.update(case["env"])
    try:
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
    finally:
        os.environ.pop(SEED_ENV_VAR, None)
        if saved is not None:
            os.environ[SEED_ENV_VAR] = saved
    files = {}
    if out.is_dir():
        for path in sorted(out.rglob("*")):
            if path.is_file():
                files[path.relative_to(out).as_posix()] = hashlib.sha256(
                    path.read_bytes()
                ).hexdigest()
    return {
        "argv": case["argv"],
        "env": case["env"],
        "exit": code,
        "stdout": stdout.getvalue().replace(str(out), "{out}"),
        "errors": dict(_FAILED_ASSET.findall(stderr.getvalue())),
        "files": files,
    }


def run_all(root: Path) -> list[dict]:
    return [_run_case(case, root / f"case{i:03d}") for i, case in enumerate(_cases())]


def test_cli_outputs_match_golden_run(tmp_path):
    expected = json.loads(EXPECTED.read_text(encoding="utf-8"))
    actual = run_all(tmp_path)
    assert [case["argv"] for case in actual] == [case["argv"] for case in expected]
    mismatches = [
        f"{' '.join(want['argv'])}: {key}: expected {want[key]!r}, got {got[key]!r}"
        for want, got in zip(expected, actual)
        for key in ("exit", "stdout", "errors", "files")
        if want[key] != got[key]
    ]
    assert not mismatches, "\n".join(mismatches)


# ---------------------------------------------------------------------------
# Fixture and expectation writer
# ---------------------------------------------------------------------------


def _write_fixtures() -> None:
    rng = np.random.default_rng(20210117)
    INPUTS.mkdir(parents=True, exist_ok=True)

    def walk(n: int) -> list[float]:
        return [round(float(c), 4) for c in 100.0 * np.exp(np.cumsum(rng.normal(0, 0.02, n)))]

    days = [dt.date(2021, 1, 4) + dt.timedelta(days=i) for i in range(144)]
    weekdays = [day for day in days if day.weekday() < 5]
    with (INPUTS / "five.csv").open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(("Date", "Open", "High", "Low", "Close", "Adj Close", "Volume"))
        for i, (day, close) in enumerate(zip(weekdays, walk(len(weekdays)))):
            shown = "null" if i == 11 else close
            writer.writerow((day.isoformat(), 1, 1, 1, shown, shown, 0))
    seven = [dt.date(2021, 1, 1) + dt.timedelta(days=i) for i in range(151)]
    with (INPUTS / "seven.csv").open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(("Date", "Close"))
        writer.writerows((day.isoformat(), close) for day, close in zip(seven, walk(151)))
    with (INPUTS / "flat.csv").open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(("Date", "Close"))
        writer.writerows((seven[i].isoformat(), 50.0) for i in range(40))
    with (INPUTS / "sample.csv").open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(("value",))
        writer.writerows((round(float(v), 6),) for v in rng.exponential(1.0, 60))
    with (INPUTS / "bad.csv").open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(("Day", "Price"))
        writer.writerows((seven[i].isoformat(), 10.0 + i) for i in range(12))


if __name__ == "__main__":
    import tempfile

    _write_fixtures()
    with tempfile.TemporaryDirectory() as scratch:
        record = run_all(Path(scratch))
    EXPECTED.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(f"{len(record)} cases, {sum(len(c['files']) for c in record)} files", file=sys.stderr)
