"""Self-test of the output checks: shows that they bite.

    python3 bench/selftest.py

Runs one pass of every workload and confirms that its checks pass on the
untouched outputs. Then, for every (file, column) that a check examined, it
nudges one examined value by a relative 1e-6 (an integer by one), runs the
workload's checks again, expects a failure that names the file, and puts the
file back. Exits 1 if any nudge goes unnoticed.
"""

from __future__ import annotations

import csv
import json
import shutil
import sys
from pathlib import Path

import checks
import gen
import run

NUDGE = 1e-6
SEED = 3


def nudged(value):
    return value + 1 if isinstance(value, int) else value * (1.0 + NUDGE)


def nudge(path: Path, locator) -> None:
    """Rewrite ``path`` with the value at ``locator`` nudged."""
    if path.suffix == ".json":
        doc = json.loads(path.read_text(encoding="utf-8"))
        parent = doc
        for key in locator[:-1]:
            parent = parent[key]
        parent[locator[-1]] = nudged(parent[locator[-1]])
        path.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
        return
    with path.open(newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    row, column = locator
    cells, i = rows[1 + row], rows[0].index(column)
    cells[i] = repr(nudged(checks.number(cells[i])))
    with path.open("w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerows(rows)


def selftest(workload: str, seed: int, work: Path) -> list[str]:
    inputs = gen.generate(seed, work / "in")
    out = work / "out"
    import tailscope.cli as cli

    passes = run.Passes(cli, run.workload_calls(workload, inputs, out))
    passes.run()
    check = checks.CHECKS[workload]
    baseline = check(out, inputs, seed)
    problems = list(baseline.failures)
    if passes.failed:
        problems.append(f"{workload}: {passes.failed} CLI calls failed")
    for (name, column), locator in sorted(baseline.examined.items()):
        path = Path(name)
        saved = path.read_bytes()
        nudge(path, locator)
        failures = check(out, inputs, seed).failures
        path.write_bytes(saved)
        caught = any(f.startswith(path.name) for f in failures)
        print(f"{'caught' if caught else 'MISSED'}: {path.relative_to(out)} {column} at {locator}")
        if not caught:
            problems.append(f"{workload}: nudge of {path.name} {locator} went unnoticed")
    return problems


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    problems = []
    for workload in checks.CHECKS:
        work = run.BENCH / ".work" / f"selftest-{workload}"
        try:
            problems += selftest(workload, SEED, work)
        finally:
            shutil.rmtree(work, ignore_errors=True)
    for problem in problems:
        print(problem, file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
