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
* ``suite``          run a parameter-grid sweep and stream the JSON report,
                     one record at a time (a flag overrides its key of the
                     ``--config`` file).

Every numeric flag is an exact string (``p/q`` or an integer); nothing is
ever parsed as a float.  Exit codes: 0 success / all verified, 1 a
counterexample was found, 2 usage or configuration error, 3 internal
error.  Indices and grid bounds have limits (``harness.check_input_size``):
2*(n+l+r)+s+6 may not exceed the generalized table limit (200), and m
may not exceed ``harness.MAX_M`` (1000).  A ``suite`` may not have more
than ``harness.MAX_GRID_POINTS`` (50,000) results.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
import traceback
from fractions import Fraction

from .harness import (
    BOUNDS,
    CASE_FIELDS,
    POINT_SETS,
    SweepConfig,
    UsageError,
    check_input_size,
    derived_z,
    emit_tables,
    record_json,
    residual_text,
    run_suite,
    sweeps,
    write_json,
)
from .identities import (
    CASE_DEFS,
    CASE_IDS,
    INDEXES,
    PARAMS,
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


# The argparse type and metavar of each kind of SumSpec field.
_FLAG_FORMS = {"index": (int, None), "rational": (_rational, "p/q"), "order": (_alpha, "p/q|symbolic")}

# The indices of the main identity, which verify-theorem reads.
_THEOREM_INDEXES = [p for p in INDEXES if p.name in CASE_FIELDS["theorem_le1"]]


def _add_flag(parser, param, **kwargs) -> None:
    """The flag of one SumSpec field, named by its report key."""
    type_, metavar = _FLAG_FORMS[param.kind]
    parser.add_argument("--" + param.key, dest=param.name, type=type_, metavar=metavar, **kwargs)


def _comma_list(text: str) -> list[str]:
    """A ``suite`` flag's value as the JSON list a config file would hold."""
    return [item.strip() for item in text.split(",") if item.strip()]


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
        for param in PARAMS:
            _add_flag(p, param)

    p_thm = add_parser("verify-theorem", "verify the main identity")
    for param in _THEOREM_INDEXES:
        _add_flag(p_thm, param, default=param.default)
    group = p_thm.add_mutually_exclusive_group()
    group.add_argument("--lambda", dest="lam", type=_rational, default=None, metavar="p/q")
    group.add_argument(
        "--certify-lambda",
        action="store_true",
        help="prove the identity for every shift value via the degree-bound multipoint certificate",
    )

    p_suite = add_parser("suite", "run a parameter-grid sweep")
    p_suite.add_argument("--config", metavar="FILE.json", help="JSON sweep configuration")
    for name in BOUNDS:
        p_suite.add_argument("--" + name.replace("_", "-"), type=int)
    for name in POINT_SETS:
        p_suite.add_argument("--" + name.replace("_", "-"), type=_comma_list, metavar="p/q,...")
    p_suite.add_argument("--cases", type=_comma_list, metavar="a,b,c")
    return parser


def _resolve_alpha(case_id: str, raw):
    if raw is None:
        # a case that sweeps rational orders needs one; the rest stay symbolic
        return Fraction(1) if "alpha" in CASE_DEFS[case_id].axes else None
    if raw == "symbolic":
        return None
    return raw


def _spec(fields: dict) -> SumSpec:
    """The SumSpec of ``fields``, whose indices must respect the input limits."""
    try:
        spec = SumSpec(**fields)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    check_input_size(spec.n, spec.l, spec.r, spec.s, spec.m)
    return spec


def _build_case(args) -> IdentityCase:
    reads = CASE_FIELDS[args.case]
    foreign = [p for p in PARAMS if getattr(args, p.name) is not None and p.name not in reads]
    if foreign:
        own = ", ".join("--" + p.key for p in PARAMS if p.name in reads)
        raise UsageError(f"case {args.case} does not read {', '.join('--' + p.key for p in foreign)} (it reads {own})")
    fields = {p.name: p.default if getattr(args, p.name) is None else getattr(args, p.name) for p in PARAMS}
    fields["alpha"] = _resolve_alpha(args.case, args.alpha)
    if args.z is None:
        fields["z"] = derived_z(args.case, fields)
    return IdentityCase(args.case, _spec(fields))


def _status_exit(status: str) -> int:
    return 1 if status == STATUS_COUNTEREXAMPLE else 0


def _cmd_table(args) -> int:
    sys.stdout.write(emit_tables(args.kind, args.max, args.format))
    return 0


def _cmd_eval(args) -> int:
    result = verify_case(_build_case(args))
    print(record_json(result))
    return _status_exit(result.status)


def _cmd_verify(args) -> int:
    result = verify_case(_build_case(args))
    line = f"{result.case.id}: {result.status} residual={residual_text(result.residual)}"
    if result.reading:
        line += f" reading={result.reading}"
    print(line)
    return _status_exit(result.status)


def _cmd_verify_theorem(args) -> int:
    _spec({p.name: getattr(args, p.name) for p in _THEOREM_INDEXES})
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


def _cmd_suite(args) -> int:
    data = {}
    if args.config:
        try:
            with open(args.config, encoding="utf-8") as fh:
                data = json.load(fh)
        except (OSError, ValueError) as exc:
            raise UsageError(f"cannot read config {args.config!r}: {exc}") from exc
    if isinstance(data, dict):  # from_dict rejects any other JSON value
        flags = {key: getattr(args, key) for key in (*BOUNDS, *POINT_SETS, "cases")}
        data.update({key: value for key, value in flags.items() if value is not None})
    cfg = SweepConfig.from_dict(data)
    unread = [key for key in POINT_SETS if key in data and not sweeps(cfg.cases, key)]
    if unread:
        raise UsageError(f"the sweep config sets {' and '.join(unread)}, which no selected case reads")
    report = run_suite(cfg)
    write_json(report, sys.stdout.write)
    sys.stdout.write("\n")
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
