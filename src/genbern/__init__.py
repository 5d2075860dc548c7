"""Exact-arithmetic engine for generalized Bernoulli polynomials.

Computes the generalized Bernoulli numbers and polynomials symbolically in
the order parameter, implements the derivative / forward-difference /
umbral operator calculus on QQ[a][x], and certifies a catalog of
polynomial identities by exact subtraction over the rationals.
"""

from .bernoulli import (
    DEFAULT_TABLE,
    GenBernTable,
    OmegaOperator,
    bernoulli_numbers_binomial_solve,
    classical_bernoulli_numbers,
    gen_bernoulli_numbers_symbolic,
    integer_alpha_oracle,
)
from .harness import Report, SweepConfig, emit_json, emit_tables, parse_report, run_suite, write_json
from .identities import (
    CASE_IDS,
    IdentityCase,
    NegativePowerError,
    SumSpec,
    VerificationResult,
    certify_lambda,
    main_identity_lhs,
    main_identity_residual,
    main_identity_rhs,
    paired_sum,
    replay_proof,
    verify_case,
)
from .poly import ALPHA, Poly, X, binomial, poly_a, poly_x
from .textform import format_fraction, format_poly, parse_fraction, parse_poly

__version__ = "0.1.0"

__all__ = [
    "ALPHA",
    "CASE_IDS",
    "DEFAULT_TABLE",
    "GenBernTable",
    "IdentityCase",
    "NegativePowerError",
    "OmegaOperator",
    "Poly",
    "Report",
    "SumSpec",
    "SweepConfig",
    "VerificationResult",
    "X",
    "bernoulli_numbers_binomial_solve",
    "binomial",
    "certify_lambda",
    "classical_bernoulli_numbers",
    "emit_json",
    "emit_tables",
    "format_fraction",
    "format_poly",
    "gen_bernoulli_numbers_symbolic",
    "integer_alpha_oracle",
    "main_identity_lhs",
    "main_identity_residual",
    "main_identity_rhs",
    "paired_sum",
    "parse_fraction",
    "parse_poly",
    "parse_report",
    "poly_a",
    "poly_x",
    "replay_proof",
    "run_suite",
    "verify_case",
    "write_json",
]
