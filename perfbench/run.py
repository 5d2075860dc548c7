"""The genbern benchmark: one command, every metric, outputs checked.

Usage (from the repository root):

    python3 perfbench/run.py --workload suite_default --seed 0 --seconds 35 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off.  ``--trace
1`` is the separate traced run: it reports the per-layer metrics and the
tracing overhead, traced ``wall_s`` minus untraced ``wall_s``.  The
workloads, and the layers each loads and bypasses, are described in
``perfbench/workloads.py``.

The benchmark is a closed loop with one client.  It starts one child
interpreter at a time (``perfbench/child.py``), waits for it, and starts
another only while it is expected to end within ``--seconds``.  A suite
run is one child; ``tables_cold`` has one child per export, and each
export is sampled on its own over the whole run.  Timings are medians
over the children of each kind.  Every output is
checked: zero counterexamples, a literal-zero residual on every verified
result, the expected result count, and, for seed 0 and for every table
export, a golden SHA-256 from ``perfbench/golden.json`` (made by
``perfbench/golden.py`` against the independent oracles).

Stdout ends with two JSON lines: a report (configuration, environment,
every metric with ``failed_ratio``, sample counts), then the result
object ``{"correct", "attempted", "failed", "metrics"}``.  Spans of a
traced run are written under ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
GOLDEN = HERE / "golden.json"

sys.path.insert(0, str(HERE))
from tracer import layer_metrics, layer_unit, merge_states  # noqa: E402
from workloads import WORKLOADS, workload_config  # noqa: E402

# A run exits within this many seconds of its start; a child that would
# run past it is killed.
HARD_LIMIT_S = 170
# Set-up is short and noisy, so a run takes at least this many set-up
# samples, adding children that only set up when the timed children gave
# fewer.
MIN_SETUP_SAMPLES = 9

UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "items_per_s": "1/s",
    "case_ms_p50": "ms",
    "case_ms_p99": "ms",
    "peak_rss_mb": "MB",
    "failed_ratio": "ratio",
}


class BenchError(RuntimeError):
    """The benchmark could not measure; no result is printed."""


def nearest_rank(values: list[float], q: float) -> float:
    """The q-quantile as the ceil(q*n)-th smallest sample, no interpolation."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def git_commit() -> str:
    """HEAD of the checkout, read from ``.git`` without leaving the checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: ") :]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "git_commit": git_commit(),
    }


class Runner:
    """Starts children one at a time and keeps the run inside its limits."""

    def __init__(self, seconds: float):
        self.start = time.monotonic()
        self.seconds = seconds
        self.setup_samples: list[float] = []

    def elapsed(self) -> float:
        return time.monotonic() - self.start

    def child(self, spec: dict) -> dict:
        spec = dict(spec, src=str(SRC))
        timeout = HARD_LIMIT_S - self.elapsed()
        if timeout <= 1:
            raise BenchError(f"out of time: the run would pass {HARD_LIMIT_S} s")
        spawned = time.monotonic()
        try:
            proc = subprocess.run(
                [sys.executable, "-I", str(HERE / "child.py"), json.dumps(spec)],
                capture_output=True,
                text=True,
                timeout=timeout,
                cwd=str(ROOT),
            )
        except subprocess.TimeoutExpired as exc:
            raise BenchError(f"a {spec['task']} child ran past the {HARD_LIMIT_S} s limit") from exc
        if proc.returncode != 0:
            raise BenchError(f"a {spec['task']} child exited with {proc.returncode}:\n{proc.stderr[-4000:]}")
        out = json.loads(proc.stdout.strip().splitlines()[-1])
        out["setup_s"] = out["ready"] - spawned
        return out


def child_specs(name: str, config: dict) -> list[dict]:
    """One child per suite run, one per table export."""
    if name == "tables_cold":
        return [{"task": "table", "argv": argv} for argv in config["exports"]]
    return [{"task": "suite", "sweep": config["sweep"]}]


class Series:
    """One child spec, run again and again: a suite run or a table export.

    ``outs`` and ``durations`` are keyed by whether the child was traced.
    ``outs`` holds the checked outputs of the children that completed;
    ``durations`` the time each child took, spawn to exit.
    """

    def __init__(self, index: int, spec: dict, expected: int, digest: str | None):
        self.index = index
        self.spec = spec
        self.expected = expected
        self.digest = digest
        self.outs: dict[bool, list[dict]] = {False: [], True: []}
        self.durations: dict[bool, list[float]] = {False: [], True: []}
        self.attempted = 0
        self.failed = 0

    def busy_s(self) -> float:
        return sum(self.durations[False]) + sum(self.durations[True])

    def median(self, key: str, traced: bool = False) -> float:
        return statistics.median(out[key] for out in self.outs[traced])


def run_one(runner: Runner, series: Series, traced: bool, spans: Path | None) -> None:
    """Run one child of ``series`` and check its output."""
    spec = dict(series.spec)
    if traced:
        spec.update(trace=True, spans_path=str(spans.with_name(f"{spans.name}.{series.index}.json")))
    began = runner.elapsed()
    out = runner.child(spec)
    series.durations[traced].append(runner.elapsed() - began)
    if not traced:
        runner.setup_samples.append(out["setup_s"])
    if "error" in out:
        # An exception fails every item the operation attempted.
        print(out["error"], file=sys.stderr)
        series.attempted += series.expected
        series.failed += series.expected
        return
    series.attempted += out["items"]
    series.failed += out["counterexamples"] + out["nonzero_verified"] + abs(out["items"] - series.expected)
    series.failed += out.get("exit_code", 0) != 0
    if series.digest is not None:
        series.failed += out["digest"] != series.digest
    series.outs[traced].append(out)


def next_child(runner: Runner, all_series: list[Series], trace: bool, deadline: float) -> tuple[Series, bool] | None:
    """The series to run next and whether to trace it; None when time is up.

    Every series first gets one untraced child, and in a traced run one
    traced child.  After that the series with the least time so far goes
    next, while its child is expected to end by ``deadline``: so each
    table export is sampled over the whole run, the short one many times.
    A traced run alternates untraced and traced children of a series, so
    the overhead compares the two over the same stretch of time.
    """
    for series in all_series:
        for traced in (False, True) if trace else (False,):
            if not series.durations[traced]:
                return series, traced
    for series in sorted(all_series, key=Series.busy_s):
        traced = trace and len(series.durations[True]) < len(series.durations[False])
        if runner.elapsed() + statistics.fmean(series.durations[traced]) <= deadline:
            return series, traced
    return None


def case_percentiles(all_series: list[Series]) -> tuple[float, float]:
    """``case_ms_p50`` and ``case_ms_p99`` of the untraced children.

    A suite pools every ``VerificationResult.elapsed``.  A table workload
    has no cases, only one export per child, so it reports the median time
    of each export: the shorter export's as p50 and the longer one's as
    p99.
    """
    case_ms = [v for series in all_series for out in series.outs[False] for v in out.get("case_ms", ())]
    if case_ms:
        return nearest_rank(case_ms, 0.50), nearest_rank(case_ms, 0.99)
    per_export = sorted(series.median("wall_s") * 1000 for series in all_series)
    return per_export[0], per_export[-1]


def golden_digests(golden: dict, name: str, config: dict, size: str) -> list[str] | None:
    """Golden SHA-256 per child of a repetition, where one is fixed."""
    if name == "tables_cold":
        return [golden["tables"][f"{size}/{argv[2]}/{argv[4]}"] for argv in config["exports"]]
    if config["seed"] == 0:
        return [golden["suites"][f"{size}/{name}"]]
    return None


def measure(name: str, seed: int, seconds: float, trace: bool, size: str, golden: dict) -> tuple[dict, dict]:
    """Run one workload at ``size`` ("full", or "tiny" for the smoke test),
    check it against the ``golden`` digests, and return the report and the
    result object."""
    config = workload_config(name, seed, size)
    digests = golden_digests(golden, name, config, size)
    runner = Runner(seconds)
    spans = None
    if trace:
        OUT.mkdir(exist_ok=True)
        spans = OUT / f"spans_{name}_seed{seed}"

    # Untimed: the first import in a checkout writes the bytecode cache,
    # which an installed package already has.  These children also give
    # the item count each timed child must yield.
    setup_specs = [dict(spec, setup_only=True) for spec in child_specs(name, config)]
    began = runner.elapsed()
    described = [runner.child(spec) for spec in setup_specs]
    setup_child_s = (runner.elapsed() - began) / len(setup_specs)
    all_series = [
        Series(i, spec, d["expected_items"], digests[i] if digests else None)
        for i, (spec, d) in enumerate(zip(child_specs(name, config), described))
    ]

    while True:
        # Leave time for the set-up-only children that make up the samples.
        missing = max(0, MIN_SETUP_SAMPLES - len(runner.setup_samples))
        picked = next_child(runner, all_series, trace, seconds - missing * setup_child_s)
        if picked is None:
            break
        run_one(runner, *picked, spans)
    while len(runner.setup_samples) < MIN_SETUP_SAMPLES:
        runner.setup_samples.append(runner.child(setup_specs[0])["setup_s"])

    attempted = sum(series.attempted for series in all_series)
    failed = sum(series.failed for series in all_series)
    if not all(series.outs[False] and (series.outs[True] or not trace) for series in all_series):
        raise BenchError("no child of a series completed")
    # A workload's operation is one child of each series: its time is the
    # sum of their medians.
    wall = sum(series.median("wall_s") for series in all_series)
    case_p50, case_p99 = case_percentiles(all_series)
    values = {
        "setup_s": statistics.median(runner.setup_samples),
        "wall_s": wall,
        "items_per_s": sum(series.median("items") for series in all_series) / wall,
        "case_ms_p50": case_p50,
        "case_ms_p99": case_p99,
        "peak_rss_mb": max(series.median("rss_mb") for series in all_series),
        "failed_ratio": failed / attempted,
    }
    report = {
        "workload": name,
        "seed": seed,
        "size": size,
        "config": described[0]["config"] or config,
        "environment": environment(),
        "wall_s_samples": [[out["wall_s"] for out in series.outs[False]] for series in all_series],
        "setup_samples": len(runner.setup_samples),
        "case_samples": sum(len(out.get("case_ms", ())) or 1 for series in all_series for out in series.outs[False]),
        "golden_checked": digests is not None,
        "metrics": {k: {"value": v, "unit": UNITS[k]} for k, v in values.items()},
    }
    # failed_ratio is 0 on a correct run, so it is reported here and as
    # "failed"/"attempted" in the result, not as a gated metric.
    metrics = {k: v for k, v in report["metrics"].items() if k != "failed_ratio"}
    if trace:
        # One traced child of each series makes one traced operation.
        rounds = min(len(series.outs[True]) for series in all_series)
        per_round = [
            layer_metrics(merge_states([series.outs[True][i]["trace_state"] for series in all_series]))
            for i in range(rounds)
        ]
        # median_low: a count stays the count every traced operation made
        layers = {k: statistics.median_low(layer[k] for layer in per_round) for k in per_round[0]}
        traced_wall = sum(series.median("wall_s", traced=True) for series in all_series)
        layers["trace.overhead_s"] = traced_wall - wall
        metrics = {k: {"value": v, "unit": layer_unit(k)} for k, v in layers.items()}
        report.update(
            traced_samples=[len(series.outs[True]) for series in all_series],
            traced_wall_s=traced_wall,
            layers=metrics,
            spans=sorted(str(p.relative_to(ROOT)) for p in OUT.glob(f"{spans.name}.*.json")),
        )
    report["run_s"] = runner.elapsed()
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    return report, result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # On SIGTERM, unwind so that subprocess.run kills and reaps the child.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (SRC / "genbern" / "__init__.py").is_file():
        print(f"error: no genbern package under {SRC}", file=sys.stderr)
        return 2
    golden = json.loads(GOLDEN.read_text())
    try:
        report, result = measure(args.workload, args.seed, args.seconds, bool(args.trace), "full", golden)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({"report": report}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
