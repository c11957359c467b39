"""Traced run: spans and counts at the boundaries of tailscope's layers,
recorded from the benchmark's side without changing the package.

Every public function of ``series``, ``stats``, ``apen`` and ``evt`` is
wrapped, and the wrapper is bound wherever any ``tailscope`` module binds
the function (``stats`` binds ``apen.apen`` as ``_apen_value``; ``cli`` and
the package import names from the others). ``cli.main`` is wrapped as the
root span. Nothing depends on private names of ``cli``.
"""

from __future__ import annotations

import functools
import inspect
import re
import statistics
import subprocess
import sys
import time
from collections import Counter

LAYERS = ("series", "stats", "apen", "evt")


def _counters(counts: Counter, name: str, args: tuple, result) -> None:
    counts[f"{name}.calls"] += 1
    if name == "apen.apen":
        counts["apen.apen.values"] += len(args[0])
    elif name == "stats.rolling":
        counts["stats.rolling.windows"] += len(result)
    elif name == "series.ingest_csv":
        counts["series.ingest_csv.rows_read"] += len(result) + result.dropped_rows
    elif name == "series.fill_weekend":
        counts["series.fill_weekend.days_added"] += len(result) - len(args[0])
    elif name == "evt.mean_excess":
        counts["evt.mean_excess.thresholds"] += len(result)


class Tracer:
    """Spans (name, start, end, parent index) and counts, kept in memory."""

    def __init__(self):
        self.spans: list = []
        self.counts: Counter = Counter()
        self._open: list[int] = []
        self._bound: list = []  # (module, attribute, original)

    def _wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.spans)
            self.spans.append(None)
            parent = self._open[-1] if self._open else -1
            self._open.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self.spans[index] = (name, start, time.perf_counter(), parent)
                self._open.pop()
            _counters(self.counts, name, args, result)
            return result

        return traced

    def install(self) -> None:
        modules = [m for n, m in list(sys.modules.items()) if n.split(".")[0] == "tailscope"]
        targets = [("cli", sys.modules["tailscope.cli"].main)]
        for layer in LAYERS:
            module = sys.modules[f"tailscope.{layer}"]
            targets += [
                (f"{layer}.{attr}", fn)
                for attr, fn in vars(module).items()
                if not attr.startswith("_")
                and inspect.isfunction(fn)
                and fn.__module__ == module.__name__
            ]
        for name, fn in targets:
            traced = self._wrap(name, fn)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is fn:
                        setattr(module, attr, traced)
                        self._bound.append((module, attr, fn))

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._bound):
            setattr(module, attr, fn)
        self._bound.clear()

    def reset(self) -> None:
        self.spans.clear()
        self.counts.clear()

    def self_times(self) -> Counter:
        """Seconds per span name, minus the time of the spans nested inside."""
        own = Counter()
        for name, start, end, parent in self.spans:
            own[name] += end - start
            if parent >= 0:
                own[self.spans[parent][0]] -= end - start
        return own


_IMPORTTIME = re.compile(r"import time:\s+(\d+) \|\s+(\d+) \| (\s*)(\S+)")


def import_seconds(python: str, env: dict, repeats: int) -> dict:
    """Median over ``repeats`` children of ``python -X importtime``: the
    cumulative import time of numpy, of scipy (with the numpy modules only
    scipy pulls in), and of tailscope net of those two."""
    runs = []
    for _ in range(repeats):
        err = subprocess.run(
            [python, "-X", "importtime", "-c", "import tailscope.cli"],
            env=env, capture_output=True, text=True, check=True,
        ).stderr
        entries = [
            (len(indent), name, int(cumulative) / 1e6)
            for _, cumulative, indent, name in _IMPORTTIME.findall(err)
        ]
        totals = Counter()
        ancestors: list = []  # reversed output is pre-order: parents come first
        for level, name, seconds in reversed(entries):
            while ancestors and ancestors[-1][0] >= level:
                ancestors.pop()
            package = name.split(".")[0]
            outer = {a[1] for a in ancestors}
            # numpy modules imported by scipy count as scipy's.
            if package in ("numpy", "scipy") and not outer & {"numpy", "scipy"} or (
                package == "tailscope" and package not in outer
            ):
                totals[package] += seconds
            ancestors.append((level, package))
        totals["tailscope"] -= totals["numpy"] + totals["scipy"]
        runs.append(totals)
    return {
        f"import.{package}_s": statistics.median(r[package] for r in runs)
        for package in ("numpy", "scipy", "tailscope")
    }
