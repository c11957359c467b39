"""Seeded inputs for the benchmark: Yahoo-style price CSVs and bare-value
sample files, plus the generator's own copy of every value for the checks.

Uses numpy only, never tailscope, so the checks do not share code with the
program they check. Every count the traced run reports (rows, nulls, filled
days, windows, thresholds) is the same for every seed: only the positions of
holidays and null rows and the drawn values depend on it.
"""

from __future__ import annotations

import datetime as dt
from dataclasses import dataclass
from pathlib import Path

import numpy as np

FIRST_DAY = dt.date(2011, 1, 3)  # a Monday
LAST_DAY = dt.date(2020, 12, 31)  # a Thursday; 3,651 calendar days in all
HOLIDAYS_PER_5DAY_ASSET = 90  # weekday rows absent from the export
NULL_SHARE = 0.01  # rows kept in the export with a literal "null" close
SAMPLE_SIZE = 10_000

# name: (trades on weekends, first close, daily drift, daily scale of the
# Student-t(4) log-returns)
ASSETS = {
    "idx": (False, 1200.0, 2e-4, 0.012),
    "gold": (False, 270.0, 2e-4, 0.010),
    "coin": (True, 0.08, 1.2e-3, 0.040),
}
WEEKEND_FILLED = ("idx", "gold")

# name: numpy draw of SAMPLE_SIZE non-negative values
SAMPLES = {
    "pareto": lambda rng, n: rng.pareto(1.2, n) + 1.0,  # x_min = 1, alpha = 1.2
    "exponential": lambda rng, n: rng.exponential(1.0, n),
    "lognormal": lambda rng, n: rng.lognormal(0.0, 1.0, n),
}


@dataclass
class Asset:
    name: str
    path: Path
    dates: list  # dates with a close, as written
    closes: np.ndarray  # their closes, exactly as written
    filled: bool  # forward-filled over every calendar day by the workloads

    def analysed(self) -> tuple[list, np.ndarray]:
        """Dates and closes the CLI should analyse: filled or as written."""
        if not self.filled:
            return self.dates, self.closes
        have = dict(zip(self.dates, self.closes))
        dates, closes = [], []
        day, last = self.dates[0], self.closes[0]
        while day <= self.dates[-1]:
            last = have.get(day, last)
            dates.append(day)
            closes.append(last)
            day += dt.timedelta(days=1)
        return dates, np.array(closes)


@dataclass
class Inputs:
    assets: dict  # name -> Asset
    samples: dict  # name -> (path, values)


def _calendar(weekends: bool) -> list:
    days = [FIRST_DAY + dt.timedelta(days=i) for i in range((LAST_DAY - FIRST_DAY).days + 1)]
    return days if weekends else [d for d in days if d.weekday() < 5]


def _write_prices(rng, name: str, path: Path) -> Asset:
    weekends, first_close, drift, scale = ASSETS[name]
    days = _calendar(weekends)
    if not weekends:
        absent = rng.choice(np.arange(1, len(days) - 1), HOLIDAYS_PER_5DAY_ASSET, replace=False)
        keep = np.ones(len(days), dtype=bool)
        keep[absent] = False
        days = [d for d, k in zip(days, keep) if k]
    steps = drift + scale * rng.standard_t(4, len(days)) / np.sqrt(2.0)
    closes = first_close * np.exp(np.cumsum(steps))
    nulls = int(round(NULL_SHARE * len(days)))
    null_rows = set(rng.choice(np.arange(1, len(days) - 1), nulls, replace=False).tolist())
    volumes = rng.integers(10_000, 10_000_000, len(days))
    kept_dates, kept_closes = [], []
    lines = ["Date,Open,High,Low,Close,Adj Close,Volume"]
    previous = first_close
    for i, (day, close) in enumerate(zip(days, closes.tolist())):
        if i in null_rows:
            lines.append(f"{day.isoformat()},null,null,null,null,null,null")
            continue
        high, low = max(previous, close) * 1.004, min(previous, close) * 0.996
        prices = f"{previous:.6f},{high:.6f},{low:.6f},{close!r},{close!r}"
        lines.append(f"{day.isoformat()},{prices},{volumes[i]}")
        kept_dates.append(day)
        kept_closes.append(close)
        previous = close
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return Asset(name, path, kept_dates, np.array(kept_closes), name in WEEKEND_FILLED)


def generate(seed: int, directory: Path) -> Inputs:
    """Write every input file under ``directory`` and return their contents."""
    directory.mkdir(parents=True, exist_ok=True)
    assets = {
        name: _write_prices(np.random.default_rng([seed, k]), name, directory / f"{name}.csv")
        for k, name in enumerate(ASSETS)
    }
    samples = {}
    for k, (name, draw) in enumerate(SAMPLES.items(), start=len(ASSETS)):
        values = draw(np.random.default_rng([seed, k]), SAMPLE_SIZE)
        path = directory / f"{name}.csv"
        path.write_text("value\n" + "".join(f"{v!r}\n" for v in values.tolist()), encoding="utf-8")
        samples[name] = (path, values)
    return Inputs(assets, samples)
