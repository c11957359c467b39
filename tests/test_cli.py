import argparse
import csv
import datetime as dt
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import tailscope.cli as cli
from tailscope.cli import EXIT_CONFIG, EXIT_OK, EXIT_PARTIAL, main
from tailscope.evt import max_to_sum
from tailscope.series import fill_weekend, ingest_csv
from tailscope.stats import summarize

D = dt.date


def write_prices(tmp_path, name, rows):
    path = tmp_path / name
    with path.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(("Date", "Close"))
        for day, close in rows:
            writer.writerow((day.isoformat(), close))
    return path


@pytest.fixture
def price_file(tmp_path):
    rng = np.random.default_rng(10)
    closes = 100.0 * np.exp(np.cumsum(rng.normal(0, 0.02, 40)))
    rows = [(D(2020, 1, 1) + dt.timedelta(days=i), float(c)) for i, c in enumerate(closes)]
    return write_prices(tmp_path, "btc.csv", rows)


COMMANDS = ["ingest", "report", "stats", "apen", "mef", "maxsum", "rolling", "synth"]


def command_argv(command, price_file):
    """A valid argv for ``command`` without --out; synth reads no input."""
    if command == "synth":
        return ["synth", "--family", "exponential", "--n", "5", "--seed", "1"]
    return [command, f"btc={price_file}"]


def read_rows(path):
    with path.open(newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


class TestReport:
    def test_prices_and_returns_rows(self, tmp_path, price_file, capsys):
        assert main(["report", f"btc={price_file}", "--out", str(tmp_path)]) == EXIT_OK
        rows = read_rows(tmp_path / "report_daily.csv")
        assert [(r["asset"], r["target"]) for r in rows] == [("btc", "prices"), ("btc", "returns")]
        assert rows[0]["n"] == "40"
        assert rows[1]["n"] == "39"

    def test_constant_prices_flag_cv(self, tmp_path):
        rows = [(D(2020, 1, 1) + dt.timedelta(days=i), 50.0) for i in range(12)]
        path = write_prices(tmp_path, "flat.csv", rows)
        assert main(["report", f"flat={path}", "--out", str(tmp_path)]) == EXIT_OK
        report = read_rows(tmp_path / "report_daily.csv")
        returns_row = report[1]
        assert float(returns_row["mean"]) == 0.0
        assert float(returns_row["std_dev"]) == 0.0
        assert returns_row["coeff_variation"] == ""  # flagged undefined
        assert returns_row["apen"] == ""  # zero tolerance on a constant window

    def test_report_on_synth_sample_matches_library(self, tmp_path):
        assert (
            main(
                [
                    "synth", "--family", "exponential", "--lam", "1.5",
                    "--n", "500", "--seed", "42", "--out", str(tmp_path),
                ]
            )
            == EXIT_OK
        )
        sample = tmp_path / "exponential_na_values_synth.csv"
        assert main(["report", f"exp={sample}", "--out", str(tmp_path)]) == EXIT_OK
        row = read_rows(tmp_path / "report_daily.csv")[0]
        values = np.loadtxt(sample, skiprows=1)
        summary = summarize(values)
        assert float(row["mean"]) == summary.mean
        assert float(row["std_dev"]) == summary.std_dev
        assert float(row["excess_kurtosis"]) == summary.excess_kurtosis

    def test_partial_failure_isolates_assets(self, tmp_path, price_file, capsys):
        missing = tmp_path / "nope.csv"
        code = main(["report", f"btc={price_file}", f"gone={missing}", "--out", str(tmp_path)])
        assert code == EXIT_PARTIAL
        err = capsys.readouterr().err
        assert "gone" in err
        rows = read_rows(tmp_path / "report_daily.csv")
        assert {r["asset"] for r in rows} == {"btc"}

    def test_stdout_rows_are_the_file_rows(self, tmp_path, price_file, capsys):
        assert main(["report", f"a,b={price_file}", "--out", str(tmp_path)]) == EXIT_OK
        printed = list(csv.reader(capsys.readouterr().out.splitlines()))
        with (tmp_path / "report_daily.csv").open(newline="", encoding="utf-8") as fh:
            written = list(csv.reader(fh))
        assert [len(row) for row in printed] == [9, 9, 9]
        assert printed == written
        assert printed[1][0] == "a,b"


class TestSubcommands:
    def test_ingest_writes_normalized_csv(self, tmp_path):
        rows = [
            (D(2021, 1, 1), 100.0),  # Friday
            (D(2021, 1, 4), 102.0),  # Monday
        ]
        path = write_prices(tmp_path, "gold.csv", rows)
        code = main(
            ["ingest", f"gold={path}", "--fill-weekend", "gold", "--out", str(tmp_path),
             "--format", "json"]
        )
        assert code == EXIT_OK
        payload = json.loads((tmp_path / "gold_daily_prices_ingest.json").read_text())
        assert payload["dropped_rows"] == 0
        assert [p["close"] for p in payload["points"]] == [100.0, 100.0, 100.0, 102.0]
        # The CSV form reads back through ingest_csv as the same series.
        rows = [(D(2021, 1, 1), 100.125), (D(2021, 1, 4), 1 / 3), (D(2021, 1, 5), 99.3333)]
        path = write_prices(tmp_path, "silver.csv", rows)
        code = main(["ingest", f"silver={path}", "--fill-weekend", "silver", "--out", str(tmp_path)])
        assert code == EXIT_OK
        again = ingest_csv(tmp_path / "silver_daily_prices_ingest.csv", "silver")
        assert again == fill_weekend(ingest_csv(path, "silver"))

    def test_stats_file(self, tmp_path, price_file):
        assert main(["stats", f"btc={price_file}", "--out", str(tmp_path)]) == EXIT_OK
        row = read_rows(tmp_path / "btc_daily_prices_stats.csv")[0]
        assert row["n"] == "40"
        assert float(row["std_dev"]) > 0

    def test_apen_file_includes_resolved_r(self, tmp_path, price_file):
        code = main(
            ["apen", f"btc={price_file}", "--target", "returns", "--format", "json",
             "--out", str(tmp_path)]
        )
        assert code == EXIT_OK
        payload = json.loads((tmp_path / "btc_daily_returns_apen.json").read_text())
        assert payload["m"] == 2
        assert payload["r_mode"] == "relative"
        assert payload["resolved_r"] > 0
        assert isinstance(payload["apen"], float)

    def test_maxsum_emits_four_traces(self, tmp_path, price_file):
        assert main(["maxsum", f"btc={price_file}", "--out", str(tmp_path)]) == EXIT_OK
        rows = read_rows(tmp_path / "btc_daily_prices_maxsum.csv")
        assert sorted({r["p"] for r in rows}) == ["1", "2", "3", "4"]
        assert len(rows) == 4 * 40

    def test_maxsum_single_order(self, tmp_path, price_file):
        code = main(["maxsum", f"btc={price_file}", "--p", "2", "--out", str(tmp_path)])
        assert code == EXIT_OK
        rows = read_rows(tmp_path / "btc_daily_prices_maxsum.csv")
        assert {r["p"] for r in rows} == {"2"}

    def test_mef_rejects_signed_returns(self, tmp_path, price_file, capsys):
        code = main(
            ["mef", f"btc={price_file}", "--target", "returns", "--out", str(tmp_path)]
        )
        assert code == EXIT_PARTIAL
        assert not (tmp_path / "btc_daily_returns_mef.csv").exists()
        assert "NegativeValue" in capsys.readouterr().err

    def test_mef_on_abs_returns(self, tmp_path, price_file):
        code = main(
            ["mef", f"btc={price_file}", "--target", "abs_returns", "--out", str(tmp_path)]
        )
        assert code == EXIT_OK
        rows = read_rows(tmp_path / "btc_daily_abs_returns_mef.csv")
        assert len(rows) > 5

    def test_rolling_window_default_and_dates(self, tmp_path, price_file):
        code = main(
            ["rolling", f"btc={price_file}", "--window", "10", "--out", str(tmp_path)]
        )
        assert code == EXIT_OK
        rows = read_rows(tmp_path / "btc_daily_prices_rolling.csv")
        assert len(rows) == 31  # 40 - 10 + 1
        assert rows[0]["date"] == "2020-01-10"

    def test_rolling_window_too_large_fails_per_asset(self, tmp_path, price_file, capsys):
        code = main(
            ["rolling", f"btc={price_file}", "--window", "41", "--out", str(tmp_path)]
        )
        assert code == EXIT_PARTIAL
        assert not (tmp_path / "btc_daily_prices_rolling.csv").exists()

    def test_synth_to_mef_oracle_chain(self, tmp_path):
        code = main(
            ["synth", "--family", "gpd", "--xi", "0.5", "--beta", "1", "--n", "100000",
             "--seed", "1234", "--out", str(tmp_path)]
        )
        assert code == EXIT_OK
        sample = tmp_path / "gpd_na_values_synth.csv"
        code = main(["mef", f"gpd={sample}", "--format", "json", "--out", str(tmp_path)])
        assert code == EXIT_OK
        payload = json.loads((tmp_path / "gpd_na_values_mef.json").read_text())
        assert payload["shape"] == "increasing_linear"


class TestConfigErrors:
    def test_unknown_fill_asset(self, tmp_path, price_file):
        code = main(
            ["report", f"btc={price_file}", "--fill-weekend", "gold", "--out", str(tmp_path)]
        )
        assert code == EXIT_CONFIG

    def test_duplicate_asset_ids(self, tmp_path, price_file):
        code = main(["stats", f"a={price_file}", f"a={price_file}", "--out", str(tmp_path)])
        assert code == EXIT_CONFIG

    def test_bad_trim(self, tmp_path, price_file):
        code = main(["mef", f"btc={price_file}", "--trim", "0.9", "--out", str(tmp_path)])
        assert code == EXIT_CONFIG

    def test_window_below_minimum(self, tmp_path, price_file):
        code = main(
            ["rolling", f"btc={price_file}", "--statistic", "apen", "--window", "3",
             "--out", str(tmp_path)]
        )
        assert code == EXIT_CONFIG

    @pytest.mark.parametrize("flags", [
        ["--family", "pareto", "--alpha", "0.001"],
        ["--family", "gaussian", "--mu", "1e308", "--sigma", "1e308"],
        ["--family", "exponential", "--lam", "1e-308"],
        ["--family", "lognormal", "--sigma", "400"],
    ], ids=lambda flags: flags[1])
    def test_synth_beyond_float64_exits_two_and_writes_nothing(self, tmp_path, capsys, flags):
        out = tmp_path / "out"
        assert main(["synth", *flags, "--n", "50", "--seed", "0", "--out", str(out)]) == EXIT_CONFIG
        assert capsys.readouterr().err.startswith(f"error: {flags[1]} draws exceed the float64")
        assert not out.exists()

    def test_bad_format_exits_two(self, tmp_path, price_file):
        with pytest.raises(SystemExit) as info:
            main(["stats", f"btc={price_file}", "--format", "xml"])
        assert info.value.code == 2

    @pytest.mark.parametrize("asset", ["../escaped", "sub/x"])
    def test_asset_id_with_a_path_separator_exits_two_and_writes_nothing(
        self, tmp_path, price_file, capsys, asset
    ):
        out = tmp_path / "out"
        assert main(["stats", f"{asset}={price_file}", "--out", str(out)]) == EXIT_CONFIG
        assert capsys.readouterr().err == f"error: asset id {asset!r} holds a path separator\n"
        assert [path.name for path in tmp_path.iterdir()] == ["btc.csv"]

    def test_asset_id_with_the_alternative_separator_exits_two(
        self, tmp_path, price_file, monkeypatch
    ):
        monkeypatch.setattr(os, "altsep", "\\")
        out = tmp_path / "out"
        assert main(["stats", f"a\\b={price_file}", "--out", str(out)]) == EXIT_CONFIG
        assert not out.exists()

    @pytest.mark.parametrize("label", ["../x", "sub/x"])
    def test_synth_label_with_a_path_separator_exits_two_and_writes_nothing(
        self, tmp_path, capsys, label
    ):
        out = tmp_path / "out"
        argv = ["synth", "--family", "exponential", "--n", "5", "--seed", "1", "--label", label,
                "--out", str(out)]
        assert main(argv) == EXIT_CONFIG
        assert capsys.readouterr() == ("", f"error: --label {label!r} holds a path separator\n")
        assert list(tmp_path.iterdir()) == []

    def test_asset_id_with_a_nul_exits_two_and_writes_nothing(self, tmp_path, price_file, capsys):
        out = tmp_path / "out"
        item = f"a\0b={price_file}"
        assert main(["stats", item, f"ok={price_file}", "--out", str(out)]) == EXIT_CONFIG
        assert capsys.readouterr() == ("", f"error: input {item!r} holds a NUL byte\n")
        assert [path.name for path in tmp_path.iterdir()] == ["btc.csv"]

    def test_input_path_with_a_nul_exits_two_and_writes_nothing(self, tmp_path, price_file, capsys):
        out = tmp_path / "out"
        item = f"x={price_file}\0.csv"
        assert main(["stats", item, "--out", str(out)]) == EXIT_CONFIG
        assert capsys.readouterr() == ("", f"error: input {item!r} holds a NUL byte\n")
        assert [path.name for path in tmp_path.iterdir()] == ["btc.csv"]

    def test_synth_label_with_a_nul_exits_two_and_writes_nothing(self, tmp_path, capsys):
        out = tmp_path / "out"
        argv = ["synth", "--family", "exponential", "--n", "5", "--seed", "1", "--label", "a\0b",
                "--out", str(out)]
        assert main(argv) == EXIT_CONFIG
        assert capsys.readouterr() == ("", "error: --label 'a\\x00b' holds a NUL byte\n")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("command", COMMANDS)
    def test_out_with_a_nul_exits_two_and_writes_nothing(
        self, tmp_path, price_file, capsys, command
    ):
        out = tmp_path / "o\0ut"
        assert main([*command_argv(command, price_file), "--out", str(out)]) == EXIT_CONFIG
        message = f"error: --out {str(out)!r} cannot be created: embedded null byte\n"
        assert capsys.readouterr() == ("", message)
        assert [path.name for path in tmp_path.iterdir()] == ["btc.csv"]

    @pytest.mark.parametrize("command", COMMANDS)
    def test_out_naming_a_file_exits_two_and_writes_nothing(
        self, tmp_path, price_file, capsys, command
    ):
        out = tmp_path / "taken"
        out.write_text("kept")
        assert main([*command_argv(command, price_file), "--out", str(out)]) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: --out {str(out)!r} cannot be created: ")
        assert captured.err.count("\n") == 1
        assert sorted(path.name for path in tmp_path.iterdir()) == ["btc.csv", "taken"]
        assert out.read_text() == "kept"

    @pytest.mark.parametrize("command", COMMANDS)
    def test_out_under_a_file_exits_two_and_writes_nothing(
        self, tmp_path, price_file, capsys, command
    ):
        (tmp_path / "taken").write_text("kept")
        out = tmp_path / "taken" / "sub"
        assert main([*command_argv(command, price_file), "--out", str(out)]) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: --out {str(out)!r} cannot be created: ")
        assert captured.err.count("\n") == 1
        assert sorted(path.name for path in tmp_path.iterdir()) == ["btc.csv", "taken"]
        assert (tmp_path / "taken").read_text() == "kept"

    def test_returns_from_bare_sample_fails(self, tmp_path):
        main(["synth", "--family", "gaussian", "--n", "50", "--seed", "1", "--out", str(tmp_path)])
        sample = tmp_path / "gaussian_na_values_synth.csv"
        code = main(["stats", f"g={sample}", "--target", "returns", "--out", str(tmp_path)])
        assert code == EXIT_PARTIAL


class TestDeterminism:
    def test_byte_identical_reruns(self, tmp_path, price_file):
        out1, out2 = tmp_path / "run1", tmp_path / "run2"
        for out in (out1, out2):
            assert main(["report", f"btc={price_file}", "--out", str(out)]) == EXIT_OK
            assert (
                main(["maxsum", f"btc={price_file}", "--format", "json", "--out", str(out)])
                == EXIT_OK
            )
        for name in ("report_daily.csv", "btc_daily_prices_maxsum.json"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_seed_env_var_default(self, tmp_path, monkeypatch):
        monkeypatch.setenv("TAILSCOPE_SEED", "123")
        out_env = tmp_path / "env"
        assert main(["synth", "--family", "pareto", "--alpha", "2", "--n", "100",
                     "--out", str(out_env)]) == EXIT_OK
        out_flag = tmp_path / "flag"
        assert main(["synth", "--family", "pareto", "--alpha", "2", "--n", "100",
                     "--seed", "123", "--out", str(out_flag)]) == EXIT_OK
        assert (
            (out_env / "pareto_na_values_synth.csv").read_bytes()
            == (out_flag / "pareto_na_values_synth.csv").read_bytes()
        )


class TestEntryPoint:
    def test_module_help(self):
        result = subprocess.run(
            [sys.executable, "-m", "tailscope.cli", "--help"],
            capture_output=True,
            text=True,
        )
        assert result.returncode == 0
        assert "maxsum" in result.stdout


IO_DEFAULTS = {"inputs": ["btc.csv"], "frequency": "daily", "fill_weekend": "", "out": ".",
               "fmt": "csv"}
APEN_DEFAULTS = {"m": 2, "r": 0.2, "r_mode": "relative"}
PARSED_DEFAULTS = {
    "ingest": IO_DEFAULTS,
    "report": {**IO_DEFAULTS, **APEN_DEFAULTS},
    "stats": {**IO_DEFAULTS, "target": "prices"},
    "apen": {**IO_DEFAULTS, "target": "prices", **APEN_DEFAULTS},
    "mef": {**IO_DEFAULTS, "target": "prices", "trim": 0.02},
    "maxsum": {**IO_DEFAULTS, "target": "prices", "p": None},
    "rolling": {**IO_DEFAULTS, "target": "prices", **APEN_DEFAULTS, "statistic": "std_dev",
                "window": None},
    "synth": {"family": "exponential", "n": 5, "seed": None, "mu": 0.0, "sigma": 1.0,
              "lam": 1.0, "xi": 0.0, "beta": 1.0, "alpha": 1.0, "x_min": 1.0, "label": None,
              "out": ".", "fmt": "csv"},
}


class TestParser:
    @pytest.mark.parametrize("command", COMMANDS)
    def test_defaults(self, command):
        argv = ["synth", "--family", "exponential", "--n", "5"] if command == "synth" else [
            command, "btc.csv"
        ]
        parsed = vars(cli._build_parser().parse_args(argv))
        parsed.pop("run")
        expected = {"command": command, **PARSED_DEFAULTS[command]}
        assert parsed == expected
        assert {key: type(value) for key, value in parsed.items()} == {
            key: type(value) for key, value in expected.items()
        }

    @pytest.mark.parametrize("command", COMMANDS)
    def test_every_flag_help_is_shown(self, command):
        parser = cli._build_parser()
        [sub] = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
        page = "".join(sub.choices[command].format_help().split())  # wrapped anywhere
        helps = [action.help % {"default": action.default}
                 for action in sub.choices[command]._actions if action.help]
        assert len(helps) >= 3
        for text in helps:
            assert "".join(text.split()) in page, text


class TestResolvedWindow:
    def test_default_window_below_apen_minimum_is_config_error(self, tmp_path, price_file, capsys):
        out = tmp_path / "out"
        code = main(
            ["rolling", f"btc={price_file}", "--statistic", "apen", "--frequency", "monthly",
             "--out", str(out)]
        )
        assert code == EXIT_CONFIG
        assert "--window" in capsys.readouterr().err
        assert not out.exists()


class TestBareValues:
    @pytest.mark.parametrize("bad", ["nan", "inf", "-Infinity"])
    def test_non_finite_value_fails_asset(self, tmp_path, capsys, bad):
        path = tmp_path / "sample.csv"
        path.write_text(f"value\n1.5\n2.5\n{bad}\n3.5\n", encoding="utf-8")
        out = tmp_path / "out"
        assert main(["stats", f"s={path}", "--out", str(out)]) == EXIT_PARTIAL
        err = capsys.readouterr().err
        assert "UnparsableRowError" in err
        assert "row 4" in err
        assert list(out.iterdir()) == []


class TestOneReader:
    def test_bad_header_gets_one_message(self, tmp_path, capsys):
        bad = Path(__file__).resolve().parent / "golden" / "inputs" / "bad.csv"
        errors = []
        for command in ("ingest", "stats", "report"):
            assert main([command, f"bad={bad}", "--out", str(tmp_path / command)]) == EXIT_PARTIAL
            errors.append(capsys.readouterr().err)
        assert errors[0].startswith("bad: MissingColumnError: bad.csv: ")
        assert errors == [errors[0]] * 3

    @pytest.mark.parametrize(
        "content", [b"value\n1.5\n\xff\n", b"value\n1.5,%s\n" % (b"9" * 200_000)]
    )
    def test_unreadable_input_fails_only_its_asset(self, tmp_path, price_file, capsys, content):
        bad = tmp_path / "bad.csv"
        bad.write_bytes(content)
        out = tmp_path / "out"
        code = main(["stats", f"bad={bad}", f"good={price_file}", "--out", str(out)])
        assert code == EXIT_PARTIAL
        assert capsys.readouterr().err.startswith("bad: UnparsableRowError: bad.csv")
        assert [path.name for path in out.iterdir()] == ["good_daily_prices_stats.csv"]

    def test_each_input_is_opened_once(self, tmp_path, price_file, monkeypatch):
        sample = tmp_path / "sample.csv"
        sample.write_text("value\n1.5\n2.5\n3.5\n", encoding="utf-8")
        opened = []
        path_open = Path.open

        def counting_open(self, *args, **kwargs):
            opened.append(self)
            return path_open(self, *args, **kwargs)

        monkeypatch.setattr(Path, "open", counting_open)
        argv = ["stats", f"btc={price_file}", f"s={sample}", "--out", str(tmp_path / "out")]
        assert main(argv) == EXIT_OK
        assert opened.count(price_file) == 1
        assert opened.count(sample) == 1


    @pytest.mark.parametrize(
        "command", ["ingest", "report", "stats", "apen", "mef", "maxsum", "rolling"]
    )
    def test_every_command_opens_each_input_once(self, tmp_path, price_file, monkeypatch, command):
        inputs = [price_file]
        if command != "ingest":  # ingest takes price files only
            sample = tmp_path / "sample.csv"
            values = np.random.default_rng(11).exponential(1.0, 50).tolist()
            sample.write_text("value\n" + "".join(f"{v!r}\n" for v in values), encoding="utf-8")
            inputs.append(sample)
        opened = []
        path_open = Path.open

        def counting_open(self, *args, **kwargs):
            opened.append(self)
            return path_open(self, *args, **kwargs)

        monkeypatch.setattr(Path, "open", counting_open)
        window = ["--window", "10"] if command == "rolling" else []
        argv = [command, *map(str, inputs), *window, "--out", str(tmp_path / "out")]
        assert main(argv) == EXIT_OK
        assert [opened.count(path) for path in inputs] == [1] * len(inputs)


class TestOverflow:
    def test_maxsum_overflow_writes_the_unit_scale_ratios(self, tmp_path, capsys):
        # x**4 overflows float64 here; the file holds the ratios of the values
        # on their unit scale, which are finite.
        values = np.random.default_rng(80).uniform(1e80, 2e80, 50)
        path = tmp_path / "big.csv"
        path.write_text("value\n" + "".join(f"{float(v)!r}\n" for v in values), encoding="utf-8")
        out = tmp_path / "out"
        argv = ["maxsum", f"big={path}", "--p", "4", "--format", "json", "--out", str(out)]
        assert main(argv) == EXIT_OK
        assert capsys.readouterr().err == ""
        doc = json.loads((out / "big_na_values_maxsum.json").read_text(encoding="utf-8"),
                         parse_constant=reject_constant)
        want = max_to_sum(np.ldexp(values, -np.frexp(values.max())[1]), 4)
        assert doc["traces"] == [
            {"p": 4, "verdict": want.verdict.value, "ratios": want.ratios.tolist()}
        ]

    def test_mef_near_float_min_does_not_stop_later_assets(self, tmp_path):
        values = np.random.default_rng(0).uniform(1.0, 2.0, 50)
        paths = {}
        for name, scale in (("tiny", 1e-300), ("ok", 1.0)):
            paths[name] = tmp_path / f"{name}.csv"
            body = "".join(f"{float(v)!r}\n" for v in values * scale)
            paths[name].write_text("value\n" + body, encoding="utf-8")
        out = tmp_path / "out"
        argv = ["mef", f"tiny={paths['tiny']}", f"ok={paths['ok']}", "--out", str(out)]
        assert main(argv) == EXIT_OK
        assert sorted(f.name for f in out.iterdir()) == [
            "ok_na_values_mef.csv",
            "tiny_na_values_mef.csv",
        ]


def reject_constant(name):
    raise ValueError(f"{name} is not strict JSON")


def write_values(path, values):
    path.write_text("value\n" + "".join(f"{float(v)!r}\n" for v in values), encoding="utf-8")
    return path


class TestStrictOutput:
    """A statistic whose true value exceeds float64 fails its asset before
    any file is written; the other assets of the call still get theirs."""

    @pytest.fixture
    def inputs(self, tmp_path):
        rng = np.random.default_rng(160)
        # The SD of n alternating +-1.79e308 is 1.79e308 * sqrt(n / (n - 1)),
        # beyond float64 for n = 50 and for every window of 10.
        big = write_values(tmp_path / "big.csv", np.resize([1.79e308, -1.79e308], 50))
        good = write_values(tmp_path / "good.csv", rng.normal(size=50))
        return [f"big={big}", f"good={good}"]

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("command, column", [
        (["stats"], "std_dev"),
        (["rolling", "--statistic", "std_dev", "--window", "10"], "value"),
        (["report", "--r-mode", "absolute", "--r", "1e159"], "std_dev"),
    ])
    def test_infinite_statistic_fails_its_asset(self, tmp_path, capsys, inputs, command, column,
                                                fmt):
        out = tmp_path / "out"
        argv = [command[0], *inputs, *command[1:], "--format", fmt, "--out", str(out)]
        assert main(argv) == EXIT_PARTIAL
        captured = capsys.readouterr()
        assert captured.err == (
            "big: InvalidParameterError: the standard deviation exceeds the float64 range\n"
        )
        written = [path.name for path in out.iterdir()]
        if command[0] == "report":
            assert written == [f"report_daily.{fmt}"]
            assert "big" not in captured.out
        else:
            assert written == [f"good_na_values_{command[0]}.{fmt}"]
        text = (out / written[0]).read_text(encoding="utf-8")
        assert column in text
        assert "inf" not in (text + captured.out).lower()
        if fmt == "json":
            json.loads(text, parse_constant=reject_constant)



class TestRankOneSlope:
    def test_mef_writes_a_null_slope(self, tmp_path, capsys):
        # Thresholds equal to within rounding give the slope fit rank 1: the
        # curve has no slope, and the call still succeeds.
        path = write_values(tmp_path / "flat.csv", 1.7 - np.arange(60) * 2.2e-16)
        out = tmp_path / "out"
        assert main(["mef", f"flat={path}", "--format", "json", "--out", str(out)]) == EXIT_OK
        assert capsys.readouterr().err == ""
        doc = json.loads((out / "flat_na_values_mef.json").read_text(encoding="utf-8"))
        assert doc["shape"] == "unclassified"
        assert doc["fitted_slope"] is None


class TestAtomicWrite:
    """A write that fails halfway leaves no partial file and no temporary
    file, and a file from an earlier run as it was."""

    @pytest.mark.parametrize("earlier", [False, True])
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_failed_write_leaves_no_partial_file(self, tmp_path, price_file, monkeypatch, capsys,
                                                 fmt, earlier):
        out = tmp_path / "out"
        argv = ["ingest", f"btc={price_file}", "--format", fmt, "--out", str(out)]
        before = {}
        if earlier:
            assert main(argv) == EXIT_OK
            before = {path.name: path.read_bytes() for path in out.iterdir()}
            assert list(before) == [f"btc_daily_prices_ingest.{fmt}"]
        write_rows = cli._write_rows

        def fail_halfway(fh, template, columns, null, sep):
            write_rows(fh, template, [column[: len(column) // 2] for column in columns], null, sep)
            fh.flush()
            raise OSError("no space left on device")

        monkeypatch.setattr(cli, "_write_rows", fail_halfway)
        assert main(argv) == EXIT_PARTIAL
        assert capsys.readouterr().err == "btc: OSError: no space left on device\n"
        assert {path.name: path.read_bytes() for path in out.iterdir()} == before


    @pytest.mark.parametrize("command, name", [
        ("report", "report_daily.csv"),
        ("synth", "exponential_na_values_synth.csv"),
    ])
    def test_a_run_output_that_cannot_be_written_exits_one(
        self, tmp_path, price_file, capsys, command, name
    ):
        out = tmp_path / "out"
        (out / name).mkdir(parents=True)  # a directory where the file goes
        assert main([*command_argv(command, price_file), "--out", str(out)]) == EXIT_PARTIAL
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"{command}: IsADirectoryError: ")
        assert captured.err.count("\n") == 1
        assert [path.name for path in out.iterdir()] == [name]
        assert list((out / name).iterdir()) == []


class TestStartup:
    def test_cli_import_loads_no_scipy(self):
        import tailscope

        env = dict(os.environ)
        src = str(Path(tailscope.__file__).resolve().parents[1])
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        code = (
            "import sys, tailscope.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
        )
        result = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, env=env
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout.strip() == "[]"

    def exit_codes(self, tmp_path, price_file, preamble: str, formats=("csv",)) -> dict:
        """The exit code of every subcommand, each non-synth one in each of
        ``formats``, run through main in a child interpreter after ``preamble``."""
        import tailscope

        env = dict(os.environ)
        src = str(Path(tailscope.__file__).resolve().parents[1])
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        code = preamble + """
import json, sys
from tailscope.cli import main
out, prices, *formats = sys.argv[1:]
codes, inputs = {}, [f"btc={prices}"]
for family in ("gaussian", "lognormal"):  # mu = 5: positive samples, as mef needs
    argv = ["synth", "--family", family, "--mu", "5", "--n", "200", "--seed", "1"]
    codes[family] = main([*argv, "--out", out])
    inputs.append(f"{family}={out}/{family}_na_values_synth.csv")
for fmt in formats:
    codes[f"ingest {fmt}"] = main(["ingest", inputs[0], "--format", fmt, "--out", out])
    for command in ("report", "stats", "apen", "mef", "maxsum", "rolling"):
        window = ["--window", "10"] if command == "rolling" else []  # 40 prices
        argv = [command, *inputs, *window, "--format", fmt, "--out", out]
        codes[f"{command} {fmt}"] = main(argv)
print(json.dumps(codes))
"""
        result = subprocess.run(
            [sys.executable, "-c", code, str(tmp_path / "out"), str(price_file), *formats],
            capture_output=True, text=True, env=env,
        )
        assert result.returncode == 0, result.stderr
        sys.stderr.write(result.stderr)  # each failed asset's reason, shown if a code differs
        return json.loads(result.stdout.splitlines()[-1])

    def test_no_subcommand_needs_scipy(self, tmp_path, price_file):
        """Every subcommand exits 0 in an interpreter where importing scipy fails."""
        codes = self.exit_codes(tmp_path, price_file, 'import sys; sys.modules["scipy"] = None')
        calls = ["gaussian", "lognormal", "ingest csv", "report csv", "stats csv", "apen csv",
                 "mef csv", "maxsum csv", "rolling csv"]
        assert codes == dict.fromkeys(calls, EXIT_OK)

    def test_no_subcommand_needs_numpy_ma(self, tmp_path, price_file):
        """Every subcommand exits 0, in CSV and in JSON, in an interpreter where
        importing numpy.ma fails: the package never loads numpy's masked arrays."""
        preamble = """import sys, numpy
if "numpy.ma" in sys.modules:  # numpy < 2 imports numpy.ma with numpy itself
    print("{}")
    sys.exit(0)
sys.modules["numpy.ma"] = None  # any import of numpy.ma now raises ImportError
"""
        codes = self.exit_codes(tmp_path, price_file, preamble, formats=("csv", "json"))
        if not codes:
            pytest.skip("this numpy imports numpy.ma at start-up")
        calls = ["gaussian", "lognormal"] + [
            f"{command} {fmt}" for fmt in ("csv", "json")
            for command in ("ingest", "report", "stats", "apen", "mef", "maxsum", "rolling")
        ]
        assert codes == dict.fromkeys(calls, EXIT_OK)

    def test_public_names_resolve(self):
        import tailscope

        missing = [name for name in tailscope.__all__ if not hasattr(tailscope, name)]
        assert missing == []
