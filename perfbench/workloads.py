"""Workload definitions for the genbern benchmark.

Every timed operation runs in a fresh interpreter, because the classical
number cache, ``DEFAULT_TABLE`` and its offset cache live for the whole
process: a second run in one process would reuse caches that a user of
the CLI never has.  One child runs at a time, at the library's default
parallelism.

Each workload names the layers it loads and the layers it bypasses, so a
change to one layer can be judged on a workload that exercises it and on
one where the prediction is "no change".

suite_default
    ``run_suite(SweepConfig())`` then ``emit_json``: what ``genbern suite``
    does.  5476 results over all 30 cases.
    Loads: ``poly`` Fraction arithmetic on many small scalar cases,
    rational-order specialization (``GenBernTable.poly_at``/``value_at``),
    ``poly_shifted``, ``textform`` (a 1.5 MB report) and ``harness``.
    Bypasses: ``bernoulli`` growth (the table only reaches n=24) and the
    classical table beyond n=48.

suite_symbolic
    ``run_suite`` at ``max_n=4, max_l=4, max_r=2, max_s=2`` over
    ``theorem_le1``, ``proof_replay``, ``neto_corrected`` and ``s20``,
    then ``emit_json``.  1870 results.
    Loads: nested Q[a][x] products in ``poly``, ``OmegaOperator``, the
    offset cache and ``poly_shifted``.
    Bypasses: rational-order specialization (``poly_at``/``value_at``) and
    the scalar catalog cases.

tables_cold
    ``genbern.cli.main(["table", "--kind", "classical", "--max", "1000"])``
    and ``["table", "--kind", "generalized", "--max", "80"]``, each in its
    own interpreter with stdout captured, as two user invocations would.
    Loads: the classical number table and ``GenBernTable.grow`` (the
    tables are written, not read), ``textform`` on large numerators, and
    ``cli``.
    Bypasses: ``identities`` and the ``harness`` sweep entirely.
    There are no cases, so ``case_ms_p50`` and ``case_ms_p99`` are the
    median times of the generalized and of the classical export.

Seeds.  Seed 0 reproduces the configurations above exactly.  Any other
seed draws the same number of ``lambda_points`` and ``alpha_points`` from
a fixed pool of small-height rationals.  Denominators drive the cost of
Fraction arithmetic, and powers of 0 and of +-1 cost next to nothing, so
the draw is stratified: for each seed-0 point it takes a pool point of
the same denominator and the same class (zero, +-1, other).  The work per
run stays comparable across seeds while the inputs differ.
``tables_cold`` takes only sizes, so its seed is recorded and not used.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import gcd

SUITE_SYMBOLIC_CASES = ("theorem_le1", "proof_replay", "neto_corrected", "s20")

# Seed-0 point sets: the SweepConfig defaults.
DEFAULT_LAMBDA_POINTS = (Fraction(0), Fraction(1), Fraction(2), Fraction(1, 2))
DEFAULT_ALPHA_POINTS = (Fraction(1), Fraction(2), Fraction(1, 2))

# Rationals of height <= 3 with denominator 1 or 2: the denominators of
# the seed-0 points.
POINT_POOL = tuple(Fraction(p, q) for q in (1, 2) for p in range(-3, 4) if gcd(p, q) == 1)

# Grid bounds per workload and size.  "full" is the benchmark; "tiny"
# exists for the smoke test.
SUITE_BOUNDS = {
    ("suite_default", "full"): {},
    ("suite_default", "tiny"): {"max_n": 1, "max_l": 1, "max_r": 1, "max_s": 1, "max_m": 2},
    ("suite_symbolic", "full"): {"max_n": 4, "max_l": 4, "max_r": 2, "max_s": 2},
    ("suite_symbolic", "tiny"): {"max_n": 1, "max_l": 1, "max_r": 1, "max_s": 1},
}

TABLE_SIZES = {
    "full": (("classical", 1000), ("generalized", 80)),
    "tiny": (("classical", 30), ("generalized", 8)),
}

WORKLOADS = ("suite_default", "suite_symbolic", "tables_cold")


def cost_class(p: Fraction) -> tuple[int, int]:
    """(denominator, 0 for zero / 1 for +-1 / 2 otherwise)."""
    return p.denominator, 0 if p == 0 else 1 if abs(p) == 1 else 2


def draw_points(rng: random.Random, defaults: tuple[Fraction, ...]) -> list[str]:
    """Draw distinct pool points, as many per cost class as ``defaults`` has."""
    out: list[Fraction] = []
    for cls in sorted({cost_class(p) for p in defaults}):
        wanted = sum(1 for p in defaults if cost_class(p) == cls)
        out.extend(rng.sample([p for p in POINT_POOL if cost_class(p) == cls], wanted))
    return [_text(p) for p in out]


def _text(p: Fraction) -> str:
    return str(p.numerator) if p.denominator == 1 else f"{p.numerator}/{p.denominator}"


def workload_config(name: str, seed: int, size: str = "full") -> dict:
    """The generated, JSON-ready configuration of one workload."""
    if name == "tables_cold":
        return {
            "seed": seed,
            "seed_used": False,
            "exports": [["table", "--kind", kind, "--max", str(n)] for kind, n in TABLE_SIZES[size]],
        }
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r}; expected one of {', '.join(WORKLOADS)}")
    sweep = dict(SUITE_BOUNDS[(name, size)])
    if name == "suite_symbolic":
        sweep["cases"] = list(SUITE_SYMBOLIC_CASES)
    if seed != 0:
        rng = random.Random(seed)
        sweep["lambda_points"] = draw_points(rng, DEFAULT_LAMBDA_POINTS)
        sweep["alpha_points"] = draw_points(rng, DEFAULT_ALPHA_POINTS)
    return {"seed": seed, "seed_used": seed != 0, "sweep": sweep}
