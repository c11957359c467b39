"""Benchmark of the tailscope CLI as a batch user runs it: seeded price CSVs
and heavy-tailed samples in, plot-ready CSV/JSON files out.

    python3 bench/run.py --workload report_daily --seed 1 --seconds 40 --trace 0

Imports tailscope from the ``src/`` next to this directory, without
installing it, and calls ``tailscope.cli.main(argv)`` in this one process.
A pass is one round of a workload's CLI calls. The first pass comes right
after the import. Warm passes, first passes in fresh interpreters and timed
set-ups then interleave until ``--seconds`` is spent. The outputs are then
checked against independent computations (``checks.py``). The last line of standard output is one JSON object:
``correct``, ``attempted`` and ``failed`` CLI calls, and ``metrics``: the
end-to-end metrics with ``--trace 0``, the per-layer ones with ``--trace 1``.
README.md in this directory says how each metric is formed.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import gen  # numpy only: tailscope is imported after the set-up is timed
import tracing

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
IMPORTTIME_REPEATS = 3
MIN_SAMPLES = 3  # of first passes and of warm passes in a run
FILLED = "idx,gold"
WORKLOADS = ("report_daily", "rolling_daily", "tails_batch")


def workload_calls(workload: str, inputs: gen.Inputs, out: Path) -> list[list[str]]:
    """The argv of every CLI call in one pass."""
    assets = [f"{name}={a.path}" for name, a in inputs.assets.items()]
    samples = [f"{name}={path}" for name, (path, _) in inputs.samples.items()]
    daily = [*assets, "--fill-weekend", FILLED]
    if workload == "report_daily":
        return [["report", *daily, "--out", str(out)]]
    if workload == "rolling_daily":
        return [
            ["rolling", *daily, "--statistic", "apen", "--window", "100", "--target", "returns",
             "--out", str(out / "apen")],
            ["rolling", *daily, "--statistic", "std_dev", "--out", str(out / "sd")],
            ["rolling", *daily, "--statistic", "coeff_variation", "--out", str(out / "cv")],
        ]
    tails = ["--out", str(out / "tails")]
    calls = [
        ["ingest", *daily, "--out", str(out / "ingest")],
        ["ingest", *daily, "--frequency", "weekly", "--out", str(out / "ingest")],
    ]
    for command in ("mef", "maxsum"):
        for fmt in ("csv", "json"):
            calls.append([command, *daily, "--target", "abs_returns", "--format", fmt, *tails])
            calls.append([command, *samples, "--format", fmt, *tails])
    calls.append(["stats", *daily, "--target", "abs_returns", *tails])
    calls.append(["stats", *samples, *tails])
    return calls


class Passes:
    """Runs passes of CLI calls and counts the calls that fail."""

    def __init__(self, cli, calls: list[list[str]]):
        self.cli, self.calls = cli, calls
        self.attempted = self.failed = 0

    def run(self) -> float:
        start = time.perf_counter()
        for argv in self.calls:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                status = self.cli.main(argv)  # looked up each time: tracing rebinds it
            self.attempted += 1
            if status != 0:
                self.failed += 1
                command = " ".join(argv)
                print(f"exit {status}: tailscope {command}\n{err.getvalue()}", file=sys.stderr)
        return time.perf_counter() - start

    def run_fresh(self, env: dict) -> float:
        """One pass in a fresh interpreter (see :func:`fresh_pass`)."""
        child = subprocess.run(
            [sys.executable, "-c", "import run; run.fresh_pass()"],
            input=json.dumps(self.calls), env=env, capture_output=True, text=True, check=True,
        )
        sys.stderr.write(child.stderr)
        seconds, attempted, failed = json.loads(child.stdout.splitlines()[-1])
        self.attempted += attempted
        self.failed += failed
        return seconds


def fresh_pass() -> None:
    """Child side of :meth:`Passes.run_fresh`: read the calls from standard
    input, import tailscope.cli, time one pass from just after the import,
    and print [seconds, attempted, failed]."""
    calls = json.load(sys.stdin)
    import tailscope.cli as cli

    passes = Passes(cli, calls)
    seconds = passes.run()
    print(json.dumps([seconds, passes.attempted, passes.failed]))


def digest(directory: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(directory.rglob("*")):
        if path.is_file():
            h.update(str(path.relative_to(directory)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()


def setup_once(env: dict) -> float:
    """Wall time of a fresh interpreter importing tailscope.cli."""
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import tailscope.cli"], env=env, check=True)
    return time.perf_counter() - start


def repeat(run, deadline: float, minimum: int) -> list[float]:
    """Call ``run`` at least ``minimum`` times, then while another call of
    median length still ends before ``deadline``."""
    times: list[float] = []
    while len(times) < minimum or time.perf_counter() + statistics.median(times) <= deadline:
        times.append(run())
    return times


def _python_path(*entries) -> dict:
    paths = [str(e) for e in entries] + [os.environ.get("PYTHONPATH", "")]
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))}


def measure(workload: str, seed: int, seconds: float, trace: bool, work: Path) -> tuple:
    """Run the passes and check their outputs.

    Returns the :class:`Passes`, the metric values, the spans of the last
    traced pass (None when untraced) and the check failures.
    """
    inputs = gen.generate(seed, work / "in")
    out = work / "out"
    metrics = {}
    if trace:
        env = _python_path(SRC)
        metrics.update(tracing.import_seconds(sys.executable, env, IMPORTTIME_REPEATS))

    sys.path.insert(0, str(SRC))
    import tailscope.cli as cli

    if Path(cli.__file__).resolve().parents[1] != SRC:
        raise RuntimeError(f"imported tailscope from {cli.__file__}, not from {SRC}")
    passes = Passes(cli, workload_calls(workload, inputs, out))
    deadline = time.perf_counter() + seconds
    firsts = [passes.run()]
    first_digest = digest(out)
    spans = None
    if not trace:
        # Warm passes here alternate with first passes in fresh interpreters,
        # and each is followed by one timed set-up, so that all three metrics
        # sample the whole run and share the drift of the machine's speed.
        warm: list[float] = []
        setups: list[float] = []
        fresh_env, setup_env = _python_path(SRC, BENCH), _python_path(SRC)
        while (
            min(len(warm), len(firsts)) < MIN_SAMPLES
            or time.perf_counter() + statistics.median(firsts + warm) + max(setups) <= deadline
        ):
            setups.append(setup_once(setup_env))
            if len(warm) < len(firsts):
                warm.append(passes.run())
            else:
                firsts.append(passes.run_fresh(fresh_env))
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        metrics["first_pass_s"] = statistics.median(firsts)
        metrics["wall_s"] = statistics.median(warm)
        metrics["setup_s"] = statistics.median(setups)
        print(f"{workload} seed {seed}: first {[round(t, 3) for t in firsts]} warm "
              f"{[round(t, 3) for t in warm]} setup {[round(t, 3) for t in setups]}",
              file=sys.stderr)
    else:
        plain = repeat(passes.run, (time.perf_counter() + deadline) / 2, MIN_SAMPLES - 1)
        tracer, layers = tracing.Tracer(), []

        def traced_pass() -> float:
            for path in out.rglob("*"):
                if path.is_file():
                    os.utime(path, ns=(0, 0))
            tracer.reset()
            elapsed = passes.run()
            written = [
                p.stat().st_size for p in out.rglob("*") if p.is_file() and p.stat().st_mtime_ns
            ]
            own = tracer.self_times()
            layers.append({
                **{f"{name}.self_s": own[name] for name in own},
                **tracer.counts,
                "cli.files_written": len(written),
                "cli.bytes_written": sum(written),
            })
            return elapsed

        tracer.install()
        try:
            traced = repeat(traced_pass, deadline, MIN_SAMPLES - 1)
        finally:
            tracer.uninstall()
        for name in set().union(*layers):
            metrics[name] = statistics.median_low(layer.get(name, 0) for layer in layers)
        metrics["trace.overhead_s"] = statistics.median(traced) - statistics.median(plain)
        spans = tracer.spans
    failures = [] if digest(out) == first_digest else ["outputs changed between passes"]
    from checks import CHECKS  # scipy.spatial and scipy.stats only after the passes

    failures += CHECKS[workload](out, inputs, seed).failures
    return passes, metrics, spans, failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    config = BENCH.parent / "BENCHMARK.json"
    if not (SRC / "tailscope" / "cli.py").is_file() or not config.is_file():
        print(f"error: no tailscope sources in {SRC} or no {config}", file=sys.stderr)
        return 2
    spec = json.loads(config.read_text(encoding="utf-8"))
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    work = BENCH / ".work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        passes, values, spans, failures = measure(
            args.workload, args.seed, args.seconds, bool(args.trace), work
        )
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for failure in failures[:20]:
        print(f"check failed: {failure}", file=sys.stderr)
    if spans is not None:
        results = BENCH / "results"
        results.mkdir(exist_ok=True)
        trace_file = results / f"trace_{args.workload}_{args.seed}.json"
        trace_file.write_text(json.dumps({"spans": spans, "metrics": values}), encoding="utf-8")
    print(json.dumps({
        "correct": not failures,
        "attempted": passes.attempted,
        "failed": passes.failed,
        "metrics": {
            m["name"]: {"value": values.get(m["name"], 0), "unit": m["unit"]} for m in wanted
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
