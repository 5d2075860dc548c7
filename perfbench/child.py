"""One timed genbern operation in a fresh interpreter.

Usage: python3 -I perfbench/child.py SPEC_JSON

SPEC_JSON holds ``task`` ("suite" or "table"), ``src`` (the directory
that holds the ``genbern`` package), ``sweep`` or ``argv``, and the flags
``setup_only`` and ``trace``.  The child imports genbern, does the set-up
a user pays for (for a suite: pre-growing the tables to
``required_table_size(cfg)`` as ``run_suite`` does), notes the
``time.monotonic()`` at which set-up ended, runs the operation, checks
its output and prints one JSON object on stdout.  A ``setup_only`` child
stops after set-up and reports the number of items the operation must
yield and the parsed configuration.  ``time.monotonic()`` is
system-wide, so the parent's spawn time and the child's ready time share
a clock.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import resource
import sys
import time
import traceback


def _rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def report_digest(text: str) -> str:
    """SHA-256 of an ``emit_json`` report with every ``elapsed_ms`` removed."""
    data = json.loads(text)
    data.pop("elapsed_ms", None)
    for res in data["results"]:
        res.pop("elapsed_ms", None)
    return hashlib.sha256(json.dumps(data, indent=2).encode()).hexdigest()


def literal_zero(residual) -> bool:
    from fractions import Fraction

    from genbern.poly import Poly

    if isinstance(residual, Poly):
        return residual.coeffs == ()
    return type(residual) in (int, Fraction) and residual == 0


def run_suite_task(spec: dict) -> dict:
    from genbern import bernoulli, harness

    cfg = harness.SweepConfig.from_dict(spec["sweep"])
    # The pre-growth run_suite does before verifying, so that set-up is
    # measured on its own and the timed run only reads the tables.
    size = harness.required_table_size(cfg)
    bernoulli.classical_bernoulli_numbers(2 * size)
    bernoulli.gen_bernoulli_numbers_symbolic(size)
    bernoulli.DEFAULT_TABLE.grow(size)
    ready = time.monotonic()
    if spec.get("setup_only"):
        # The parent checks timed runs against these; a timed child does
        # not compute them, so a traced one does not count their calls.
        return {"ready": ready, "expected_items": len(harness.enumerate_cases(cfg)), "config": cfg.to_dict()}
    out = {"ready": ready}
    try:
        start = time.perf_counter()
        report = harness.run_suite(cfg)
        text = harness.emit_json(report)
        out["wall_s"] = time.perf_counter() - start
    except Exception:
        out["error"] = traceback.format_exc()
        return out
    out["rss_mb"] = _rss_mb()
    counts = report.summary
    out["items"] = len(report.results)
    out["case_ms"] = [res.elapsed * 1000 for res in report.results]
    out["counterexamples"] = counts["counterexample"]
    out["nonzero_verified"] = sum(1 for res in report.results if res.verified and not literal_zero(res.residual))
    out["digest"] = report_digest(text)
    return out


def run_table_task(spec: dict) -> dict:
    from genbern import cli

    ready = time.monotonic()
    if spec.get("setup_only"):
        return {"ready": ready, "expected_items": int(spec["argv"][-1]) + 1, "config": None}
    out = {"ready": ready}
    buf = io.StringIO()
    try:
        with contextlib.redirect_stdout(buf):
            start = time.perf_counter()
            code = cli.main(list(spec["argv"]))
            out["wall_s"] = time.perf_counter() - start
    except Exception:
        out["error"] = traceback.format_exc()
        return out
    out["rss_mb"] = _rss_mb()
    text = buf.getvalue()
    out["exit_code"] = code
    out["items"] = text.count("\n")
    out["counterexamples"] = 0
    out["nonzero_verified"] = 0
    out["digest"] = hashlib.sha256(text.encode()).hexdigest()
    return out


TASKS = {"suite": run_suite_task, "table": run_table_task}


def main(argv: list[str]) -> int:
    spec = json.loads(argv[1])
    sys.path.insert(0, spec["src"])
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    import genbern

    if not os.path.abspath(genbern.__file__).startswith(os.path.abspath(spec["src"]) + os.sep):
        print(f"genbern imported from {genbern.__file__}, not from {spec['src']}", file=sys.stderr)
        return 2
    tracer = None
    if spec.get("trace"):
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    out = TASKS[spec["task"]](spec)
    if tracer is not None and "error" not in out:
        from genbern.identities import CASE_IDS

        out["trace_state"] = tracer.state(CASE_IDS)
        tracer.write_spans(spec["spans_path"])
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
