"""Command-line front end.

Subcommands:

* ``table``          export exact Bernoulli number tables (CSV or JSON);
* ``eval``           evaluate one catalog case and print the full result
                     record (residual, readings, timing) as JSON; it and
                     ``verify`` accept only the flags of the fields the
                     case reads (``harness.CASE_FIELDS``);
* ``verify``         same evaluation, one human-oriented summary line;
* ``verify-theorem`` check the main identity at one shift value, or
                     certify it for every shift value at once;
* ``suite``          run a parameter-grid sweep and print the JSON report.

Every numeric flag is an exact string (``p/q`` or an integer); nothing is
ever parsed as a float.  Exit codes: 0 success / all verified, 1 a
counterexample was found, 2 usage or configuration error, 3 internal
error.  Indices and grid bounds have limits (``harness.check_input_size``):
2*(n+l+r)+s+6 may not exceed the generalized table limit (200), and m
may not exceed ``harness.MAX_M`` (1000).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import re
import sys
import traceback
from fractions import Fraction

from .harness import (
    CASE_FIELDS,
    SweepConfig,
    UsageError,
    check_input_size,
    derived_z,
    emit_json,
    emit_tables,
    residual_text,
    result_to_dict,
    run_suite,
)
from .identities import (
    CASE_DEFS,
    CASE_IDS,
    STATUS_COUNTEREXAMPLE,
    STATUS_VERIFIED,
    IdentityCase,
    SumSpec,
    certify_lambda,
    main_identity_residual,
    verify_case,
)
from .textform import PolyParseError, format_fraction, format_poly, parse_fraction

def _rational(text: str) -> Fraction:
    try:
        return parse_fraction(text)
    except PolyParseError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


def _alpha(text: str):
    if text == "symbolic":
        return "symbolic"
    return _rational(text)


# lets argparse accept negative rationals (-3/2) and point lists (-3/2,1)
# as option values rather than mistaking them for option names
_NEGATIVE_RATIONAL = re.compile(r"^-\d+(?:/\d+)?(?:,\S*)?$")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="genbern",
        description="Exact generalized-Bernoulli engine: tables, identity evaluation, sweeps.",
    )
    parser._negative_number_matcher = _NEGATIVE_RATIONAL
    sub = parser.add_subparsers(dest="command", required=True)

    def add_parser(name, help_text):
        p = sub.add_parser(name, help=help_text)
        p._negative_number_matcher = _NEGATIVE_RATIONAL
        return p

    p_table = add_parser("table", "export exact number tables")
    p_table.add_argument("--kind", choices=("classical", "generalized"), required=True)
    p_table.add_argument("--max", type=int, required=True, metavar="N")
    p_table.add_argument("--format", choices=("csv", "json"), default="csv")

    for name, help_text in (
        ("eval", "evaluate one identity case (full JSON record)"),
        ("verify", "verify one identity case (summary line)"),
    ):
        p = add_parser(name, help_text)
        p.add_argument("--case", required=True, choices=CASE_IDS, metavar="ID")
        # None marks a flag not given; a given flag must be one the case reads
        for name in ("n", "l", "r", "s", "m"):
            p.add_argument(f"--{name}", type=int)
        p.add_argument("--lambda", dest="lam", type=_rational, metavar="p/q")
        for name in ("x", "y", "z", "t", "beta"):
            p.add_argument(f"--{name}", type=_rational, metavar="p/q")
        p.add_argument("--alpha", type=_alpha, metavar="p/q|symbolic")

    p_thm = add_parser("verify-theorem", "verify the main identity")
    p_thm.add_argument("--n", type=int, default=0)
    p_thm.add_argument("--l", type=int, default=0)
    p_thm.add_argument("--r", type=int, default=0)
    p_thm.add_argument("--s", type=int, default=0)
    group = p_thm.add_mutually_exclusive_group()
    group.add_argument("--lambda", dest="lam", type=_rational, default=None, metavar="p/q")
    group.add_argument(
        "--certify-lambda",
        action="store_true",
        help="prove the identity for every shift value via the degree-bound multipoint certificate",
    )

    p_suite = add_parser("suite", "run a parameter-grid sweep")
    p_suite.add_argument("--config", metavar="FILE.json", help="JSON sweep configuration")
    p_suite.add_argument("--max-n", type=int, default=None)
    p_suite.add_argument("--max-l", type=int, default=None)
    p_suite.add_argument("--max-r", type=int, default=None)
    p_suite.add_argument("--max-s", type=int, default=None)
    p_suite.add_argument("--max-m", type=int, default=None)
    p_suite.add_argument("--lambda-points", metavar="p/q,...", default=None)
    p_suite.add_argument("--alpha-points", metavar="p/q,...", default=None)
    p_suite.add_argument("--cases", metavar="a,b,c", default=None)
    p_suite.add_argument("--jobs", type=int, default=None, metavar="J")
    return parser


def _resolve_alpha(case_id: str, raw):
    if raw is None:
        # a case that sweeps rational orders needs one; the rest stay symbolic
        return Fraction(1) if "alpha" in CASE_DEFS[case_id].axes else None
    if raw == "symbolic":
        return None
    return raw


def _flag(field: str) -> str:
    return "--lambda" if field == "lam" else f"--{field}"


def _build_case(args) -> IdentityCase:
    reads = CASE_FIELDS[args.case]
    given = [f.name for f in dataclasses.fields(SumSpec) if getattr(args, f.name) is not None]
    foreign = [name for name in given if name not in reads]
    if foreign:
        own = ", ".join(_flag(f.name) for f in dataclasses.fields(SumSpec) if f.name in reads)
        raise UsageError(f"case {args.case} does not read {', '.join(map(_flag, foreign))} (it reads {own})")
    fields = {f.name: getattr(args, f.name) if f.name in given else f.default for f in dataclasses.fields(SumSpec)}
    fields["alpha"] = _resolve_alpha(args.case, args.alpha)
    if args.z is None:
        fields["z"] = derived_z(args.case, fields)
    try:
        spec = SumSpec(**fields)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    check_input_size(spec.n, spec.l, spec.r, spec.s, spec.m)
    return IdentityCase(args.case, spec)


def _status_exit(status: str) -> int:
    return 1 if status == STATUS_COUNTEREXAMPLE else 0


def _cmd_table(args) -> int:
    sys.stdout.write(emit_tables(args.kind, args.max, args.format))
    return 0


def _cmd_eval(args) -> int:
    result = verify_case(_build_case(args))
    print(json.dumps(result_to_dict(result), indent=2))
    return _status_exit(result.status)


def _cmd_verify(args) -> int:
    result = verify_case(_build_case(args))
    line = f"{result.case.id}: {result.status} residual={residual_text(result.residual)}"
    if result.reading:
        line += f" reading={result.reading}"
    print(line)
    return _status_exit(result.status)


def _cmd_verify_theorem(args) -> int:
    if min(args.n, args.l, args.r, args.s) < 0:
        raise UsageError("indices n, l, r, s must be >= 0")
    check_input_size(args.n, args.l, args.r, args.s)
    if args.certify_lambda:
        residuals = certify_lambda(args.n, args.l, args.r, args.s)
        ok = all(res.is_zero() for _, res in residuals)
        for lam, res in residuals:
            print(f"lambda={format_fraction(lam)}: {'verified' if res.is_zero() else 'counterexample'}")
        print(f"certified for all lambda via {len(residuals)} points" if ok else "certification failed")
        return 0 if ok else 1
    lam = args.lam if args.lam is not None else Fraction(0)
    residual = main_identity_residual(args.n, args.l, args.r, args.s, lam)
    status = STATUS_VERIFIED if residual.is_zero() else STATUS_COUNTEREXAMPLE
    print(
        json.dumps(
            {
                "params": {"n": args.n, "l": args.l, "r": args.r, "s": args.s, "lambda": format_fraction(lam)},
                "status": status,
                "residual": format_poly(residual),
            },
            indent=2,
        )
    )
    return _status_exit(status)


def _split_points(text: str) -> tuple[Fraction, ...]:
    if not text.strip():
        return ()
    return tuple(parse_fraction(part.strip()) for part in text.split(","))


def _cmd_suite(args) -> int:
    if args.config:
        try:
            with open(args.config, encoding="utf-8") as fh:
                data = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise UsageError(f"cannot read config {args.config!r}: {exc}") from exc
        cfg = SweepConfig.from_dict(data)
    else:
        cfg = SweepConfig()
    overrides = {}
    for attr, value in (
        ("max_n", args.max_n),
        ("max_l", args.max_l),
        ("max_r", args.max_r),
        ("max_s", args.max_s),
        ("max_m", args.max_m),
        ("parallelism", args.jobs),
    ):
        if value is not None:
            overrides[attr] = value
    if args.lambda_points is not None:
        overrides["lambda_points"] = _split_points(args.lambda_points)
    if args.alpha_points is not None:
        overrides["alpha_points"] = _split_points(args.alpha_points)
    if args.cases is not None:
        overrides["cases"] = tuple(c.strip() for c in args.cases.split(",") if c.strip())
    if overrides:
        cfg = dataclasses.replace(cfg, **overrides)
    cfg.validate()
    report = run_suite(cfg)
    print(emit_json(report))
    counts = report.summary
    print(
        f"suite: {counts['verified']} verified, {counts['counterexample']} counterexamples, "
        f"{counts['not_applicable']} not applicable, {counts['adjudicated']} adjudicated",
        file=sys.stderr,
    )
    return 0 if report.success else 1


_COMMANDS = {
    "table": _cmd_table,
    "eval": _cmd_eval,
    "verify": _cmd_verify,
    "verify-theorem": _cmd_verify_theorem,
    "suite": _cmd_suite,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return _COMMANDS[args.command](args)
    except (UsageError, PolyParseError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        return 0
    except Exception:
        traceback.print_exc()
        return 3


if __name__ == "__main__":
    sys.exit(main())
