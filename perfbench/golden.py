"""Establish the benchmark's golden SHA-256 digests; writes perfbench/golden.json.

Usage (from the repository root): python3 perfbench/golden.py

Table exports are checked against the independent oracles before their
digest is recorded: the classical export must equal, byte for byte, the
CSV formatted here from ``bernoulli_numbers_binomial_solve``, and every
row of the generalized export, read back as a polynomial in the order
``a``, must match ``integer_alpha_oracle`` at several integer orders.

The seed-0 suite reports are the golden-diff reference: their digest
(``elapsed_ms`` removed) is recorded from the current engine after
checking zero counterexamples and a literal-zero residual on every
verified result.  Run this again only when a report is meant to change.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from fractions import Fraction
from hashlib import sha256
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from child import literal_zero, report_digest  # noqa: E402
from workloads import TABLE_SIZES, workload_config  # noqa: E402

ORACLE_ORDERS = (0, 1, 2, 3, 5, 8)


def _fraction_text(v: Fraction) -> str:
    return str(v.numerator) if v.denominator == 1 else f"{v.numerator}/{v.denominator}"


def export(kind: str, n_max: int) -> str:
    from genbern import cli

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(["table", "--kind", kind, "--max", str(n_max)])
    if code != 0:
        raise SystemExit(f"table export {kind} {n_max} exited with {code}")
    return buf.getvalue()


def check_classical(text: str, n_max: int) -> None:
    from genbern import bernoulli_numbers_binomial_solve

    oracle = bernoulli_numbers_binomial_solve(n_max)
    expected = "".join(f"{n},{_fraction_text(b)}\n" for n, b in enumerate(oracle))
    if text != expected:
        raise SystemExit(f"classical export to {n_max} differs from the binomial-solve oracle")


def check_generalized(text: str, n_max: int) -> None:
    from genbern import integer_alpha_oracle, parse_poly

    rows = text.splitlines()
    if len(rows) != n_max + 1:
        raise SystemExit(f"generalized export has {len(rows)} rows, expected {n_max + 1}")
    polys = []
    for n, row in enumerate(rows):
        index, value = row.split(",", 1)
        if int(index) != n:
            raise SystemExit(f"generalized export row {n} is numbered {index}")
        polys.append(parse_poly(value, var="a"))
    for order in ORACLE_ORDERS:
        oracle = integer_alpha_oracle(n_max, order)
        for n, (p, want) in enumerate(zip(polys, oracle)):
            if p.eval(Fraction(order)) != want:
                raise SystemExit(f"generalized B_{n}^(a) at a={order} differs from integer_alpha_oracle")


def suite_digest(name: str, size: str) -> str:
    from genbern import emit_json, run_suite
    from genbern.harness import SweepConfig

    cfg = SweepConfig.from_dict(workload_config(name, 0, size)["sweep"])
    report = run_suite(cfg)
    bad = [r for r in report.results if r.status == "counterexample" or (r.verified and not literal_zero(r.residual))]
    if bad:
        raise SystemExit(f"{name} ({size}) has {len(bad)} failing results; no golden digest recorded")
    return report_digest(emit_json(report))


def main() -> int:
    golden = {"tables": {}, "suites": {}}
    for size, exports in TABLE_SIZES.items():
        for kind, n_max in exports:
            text = export(kind, n_max)
            (check_classical if kind == "classical" else check_generalized)(text, n_max)
            golden["tables"][f"{size}/{kind}/{n_max}"] = sha256(text.encode()).hexdigest()
        for name in ("suite_default", "suite_symbolic"):
            golden["suites"][f"{size}/{name}"] = suite_digest(name, size)
    (HERE / "golden.json").write_text(json.dumps(golden, indent=2, sort_keys=True) + "\n")
    print(json.dumps(golden, indent=2, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
