"""Parameter-grid sweeps over the identity catalog and report emission.

A sweep enumerates a Cartesian parameter grid per case (points outside a
case's validity domain are reported ``not_applicable`` rather than
skipped), verifies every instance, and aggregates into a :class:`Report`
with a machine-readable JSON form and CSV/JSON table exports.  Identical
configurations produce identical result sets: the cases are sorted once
by case id and parameters, and verified in that order, which is the
report's.

The JSON report is ``json.dumps(..., indent=2)`` of the report, built
without a dict per result: :func:`write_json` streams it one
:func:`record_json` at a time, and :func:`emit_json` joins the pieces.

The grid is data.  ``CaseDef.axes`` names a case's axes, and :data:`AXES`
maps each name to the ``SumSpec`` fields it sets and to its sample points.
The same table gives the fields a report's ``params`` shows, the point
sets that ``SweepConfig.validate`` requires to be non-empty, and the ``z``
that the CLI derives when ``--z`` is not given.  ``identities.PARAMS``
gives the index axes, the bounds and the report keys.  Input sizes are
bounded by :func:`check_input_size`, and ``SweepConfig.validate`` counts
a sweep's results from the axis lengths (:func:`grid_size`) and rejects
more than :data:`MAX_GRID_POINTS` before any grid is built.
"""

from __future__ import annotations

import json
import math
import time
from collections import Counter, deque
from collections.abc import Callable, Iterable
from dataclasses import dataclass, field
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _string  # what json.dumps writes a str with

from .bernoulli import DEFAULT_TABLE, GenBernTable, classical_bernoulli_numbers, gen_bernoulli_numbers_symbolic
from .identities import (
    CASE_DEFS,
    CASE_IDS,
    INDEXES,
    PARAMS,
    ZERO,
    IdentityCase,
    SumSpec,
    VerificationResult,
    verify_case,
)
from .poly import Poly
from .textform import format_fraction, format_poly, parse_fraction

RESIDUAL_TRUNCATE_AT = 2000

# Fixed rational sample points for the axes that are not swept by the
# integer bounds.  Chosen small and denominator-diverse; every point set
# is part of the documented sweep contract.
EVAL_POINTS = (Fraction(0), Fraction(1, 3))
TRIPLE_XY_PAIRS = ((Fraction(1), Fraction(0)), (Fraction(1, 2), Fraction(1, 3)), (Fraction(-2), Fraction(1)))
T_POINTS = (Fraction(0), Fraction(1, 2), Fraction(-1, 3))
BETA_POINTS = (Fraction(0), Fraction(1, 2))
RATIO_X_POINTS = (Fraction(0), Fraction(1, 3), Fraction(-1, 2))

# Largest table size each kind exports.  The classical bound stays below
# n = 2064, the first B_n whose numerator has more digits than Python's
# default limit on int-to-str conversion (4300) lets it print.
TABLE_LIMITS = {"classical": 2000, "generalized": 200}
# Largest m an input may name; the closed forms loop over k < m.
MAX_M = 1000
# Most results one sweep may have.  A result costs about 0.1 ms and 0.9 KB
# on the default sweep, and about 0.3 ms and 1.1 KB on the symbolic cases
# at n, l <= 8: the main identity's sides are built once per point and not
# kept, and the streamed report adds next to nothing.  So the largest sweep
# admitted should finish in 5-20 s within about 100 MB.
MAX_GRID_POINTS = 50_000


# A SweepConfig's integer bounds, one per SumSpec index, and rational point
# sets, in the order of its fields, its JSON form and the ``suite`` flags.
BOUNDS = tuple("max_" + p.name for p in INDEXES)
POINT_SETS = ("lambda_points", "alpha_points")


class UsageError(ValueError):
    """Invalid configuration or command usage."""


def _json_value(data: dict, name: str, kind: type):
    """``data[name]``, which must be a JSON ``kind`` (a bool is no int)."""
    value = data[name]
    if type(value) is not kind:
        raise UsageError(f"{name} must be a JSON {'integer' if kind is int else 'list'}, got {value!r}")
    return value


def _repeated(items) -> list:
    """The items that occur more than once, in linear time: a Fraction
    hashes by value, so 1 and 2/2 are one point."""
    return [item for item, count in Counter(items).items() if count > 1]


@dataclass
class SweepConfig:
    max_n: int = 3
    max_l: int = 3
    max_r: int = 2
    max_s: int = 2
    max_m: int = 4
    lambda_points: tuple[Fraction, ...] = (Fraction(0), Fraction(1), Fraction(2), Fraction(1, 2))
    alpha_points: tuple[Fraction, ...] = (Fraction(1), Fraction(2), Fraction(1, 2))
    cases: tuple[str, ...] = CASE_IDS

    def validate(self) -> None:
        for name, index in zip(BOUNDS, INDEXES):
            if getattr(self, name) < index.default:
                raise UsageError(f"{name} must be >= {index.default}")
        check_input_size(*(getattr(self, name) for name in BOUNDS))
        unknown = [c for c in self.cases if c not in CASE_DEFS]
        if unknown:
            raise UsageError(f"unknown case ids: {', '.join(unknown)}")
        repeated = sorted(_repeated(self.cases))
        if repeated:
            raise UsageError(f"repeated case ids: {', '.join(repeated)}")
        for source in POINT_SETS:
            points = getattr(self, source)
            if sweeps(self.cases, source) and not points:
                raise UsageError(f"{source} must be non-empty for the selected cases")
            repeated = sorted(_repeated(points))
            if repeated:
                raise UsageError(f"repeated {source}: {', '.join(map(format_fraction, repeated))}")
        total = sum(grid_size(c, self) for c in self.cases)
        if total > MAX_GRID_POINTS:
            raise UsageError(f"the sweep has {total} grid points, more than the limit of {MAX_GRID_POINTS}")

    def to_dict(self) -> dict:
        out = {name: getattr(self, name) for name in BOUNDS}
        for name in POINT_SETS:
            out[name] = [format_fraction(v) for v in getattr(self, name)]
        out["cases"] = list(self.cases)
        # Sweeps run serially.  The constant key keeps stored reports, and
        # the digests pinned over them, valid.
        out["parallelism"] = 1
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "SweepConfig":
        """The config ``data`` sets, which must be a JSON object: bounds are
        JSON integers, ``cases`` a JSON list of strings and the point sets
        JSON lists.  A ``parallelism`` key, which stored reports carry, is
        ignored; any other key is an error."""
        if not isinstance(data, dict):
            raise UsageError(f"bad sweep config: must be a JSON object, got {type(data).__name__}")
        unknown = [key for key in data if key not in (*BOUNDS, *POINT_SETS, "cases", "parallelism")]
        if unknown:
            raise UsageError(f"bad sweep config: unknown keys {', '.join(map(repr, unknown))}")
        kwargs = {}
        try:
            for name in BOUNDS:
                if name in data:
                    kwargs[name] = _json_value(data, name, int)
            for name in POINT_SETS:
                if name in data:
                    kwargs[name] = tuple(parse_fraction(str(v)) for v in _json_value(data, name, list))
            if "cases" in data:
                kwargs["cases"] = tuple(_json_value(data, "cases", list))
                if not all(isinstance(c, str) for c in kwargs["cases"]):
                    raise TypeError(f"cases must be a JSON list of strings, got {data['cases']!r}")
        except (TypeError, ValueError) as exc:
            raise UsageError(f"bad sweep config: {exc}") from exc
        cfg = cls(**kwargs)
        cfg.validate()
        return cfg


@dataclass(frozen=True)
class Axis:
    """One sweep axis: the ``SumSpec`` fields it sets, which the report
    shows, and its sample points as tuples of those fields' values, given
    the config and the fields already chosen."""

    fields: tuple[str, ...]
    points: Callable[[SweepConfig, dict], Iterable[tuple]]
    source: str | None = None  # the SweepConfig point set it sweeps


def _bound(name: str, first: int) -> Axis:
    return Axis((name,), lambda cfg, chosen: [(v,) for v in range(first, getattr(cfg, "max_" + name) + 1)])


def _swept(name: str, source: str) -> Axis:
    return Axis((name,), lambda cfg, chosen: [(v,) for v in getattr(cfg, source)], source)


def _fixed(name: str, points) -> Axis:
    return Axis((name,), lambda cfg, chosen: [(v,) for v in points])


AXES: dict[str, Axis] = {
    # each index runs from its least value up to its bound
    **{p.name: _bound(p.name, p.default) for p in INDEXES},
    "lam": _swept("lam", "lambda_points"),
    "alpha": _swept("alpha", "alpha_points"),
    "symbolic_alpha": _fixed("alpha", (None,)),
    "x": _fixed("x", EVAL_POINTS),
    "ratio_x": _fixed("x", RATIO_X_POINTS),
    "xy": Axis(("x", "y"), lambda cfg, chosen: TRIPLE_XY_PAIRS),
    # z is set by the fields already chosen and reads no config; it is 0 at
    # a symbolic order (``--alpha symbolic``), which no triple balances
    "z=alpha-x-y": Axis(("z",), lambda cfg, p: [(ZERO if p["alpha"] is None else p["alpha"] - p["x"] - p["y"],)]),
    "z=s+1-x-y": Axis(("z",), lambda cfg, p: [(p["s"] + 1 - p["x"] - p["y"],)]),
    "t": _fixed("t", T_POINTS),
    "beta": _fixed("beta", BETA_POINTS),
}


def sweeps(cases, source: str) -> bool:
    """Whether one of ``cases`` has an axis that reads the config point set ``source``."""
    return any(AXES[name].source == source for c in cases for name in CASE_DEFS[c].axes)


# The SumSpec fields each case reads: its report shows these, and the CLI
# accepts only these flags for it.
CASE_FIELDS = {case_id: {f for name in d.axes for f in AXES[name].fields} for case_id, d in CASE_DEFS.items()}


def grid_size(case_id: str, cfg: SweepConfig) -> int:
    """The number of points in one case's grid, counted without building
    it: the product of its axis lengths, where a derived axis (``z``) has
    one point for each choice of the fields before it."""
    return math.prod(1 if AXES[name].fields == ("z",) else len(AXES[name].points(cfg, {})) for name in CASE_DEFS[case_id].axes)


def _case_grid(case_id: str, cfg: SweepConfig) -> list[SumSpec]:
    """The raw parameter grid of one case, its first axis outermost (the
    domain guards run in ``verify_case``, which reports not_applicable)."""
    grid = [{}]
    for name in CASE_DEFS[case_id].axes:
        axis = AXES[name]
        grid = [{**chosen, **dict(zip(axis.fields, values))} for chosen in grid for values in axis.points(cfg, chosen)]
    return [SumSpec(**chosen) for chosen in grid]


def enumerate_cases(cfg: SweepConfig) -> list[IdentityCase]:
    return [IdentityCase(case_id, spec) for case_id in cfg.cases for spec in _case_grid(case_id, cfg)]


def derived_z(case_id: str, chosen: dict) -> Fraction:
    """The z a case's sweep derives from the other fields in ``chosen``;
    0 for a case whose report shows no z."""
    for name in CASE_DEFS[case_id].axes:
        if AXES[name].fields == ("z",):
            [(z,)] = AXES[name].points(None, chosen)
            return z
    return ZERO


# The schema rows of the fields each case reads, in field order.
_CASE_PARAMS = {case_id: [p for p in PARAMS if p.name in reads] for case_id, reads in CASE_FIELDS.items()}


def params_text(case: IdentityCase) -> list[tuple[str, str]]:
    """The case's params as (report key, JSON text) pairs in ``PARAMS``
    order, restricted to the fields of its axes; a symbolic order is
    "symbolic".  A rational's text is read off its numerator and
    denominator, as ``format_fraction`` writes it."""
    out = []
    for p in _CASE_PARAMS[case.id]:
        value = getattr(case.params, p.name)
        if p.kind == "index":
            text = str(value)
        elif value is None:
            text = '"symbolic"'
        elif value.denominator == 1:
            text = f'"{value.numerator}"'
        else:
            text = f'"{value.numerator}/{value.denominator}"'
        out.append((p.key, text))
    return out


def params_from_dict(data: dict) -> SumSpec:
    """Inverse of :func:`params_text`; a field without a key keeps its
    default, and an index must be a JSON integer."""
    kwargs = {}
    for p in PARAMS:
        if p.key in data:
            value = data[p.key]
            if p.kind == "index":
                kwargs[p.name] = _json_value(data, p.key, int)
            else:
                kwargs[p.name] = None if p.kind == "order" and value == "symbolic" else parse_fraction(str(value))
    return SumSpec(**kwargs)


def residual_text(residual) -> str:
    if isinstance(residual, str):
        return residual
    if isinstance(residual, Poly):
        return format_poly(residual)
    return format_fraction(residual)


def _object(members: list[str], pad: str) -> str:
    """A JSON object of ``"key": value`` members as ``json.dumps(...,
    indent=2)`` writes it with its opening brace at indentation ``pad``."""
    if not members:
        return "{}"
    inner = pad + "  "
    return "{\n" + inner + (",\n" + inner).join(members) + "\n" + pad + "}"


def record_json(res: VerificationResult, pad: str = "") -> str:
    """One result's record, as ``json.dumps(..., indent=2)`` writes it with
    its opening brace at indentation ``pad``.  Only strings go through
    ``json``; keys, numbers, ``true``, ``null`` and layout are written
    here."""
    inner = pad + "  "
    text = residual_text(res.residual)
    members = [
        '"case": ' + _string(res.case.id),
        '"params": ' + _object([f'"{key}": {value}' for key, value in params_text(res.case)], inner),
        '"status": ' + _string(res.status),
        '"residual": ' + _string(text[:RESIDUAL_TRUNCATE_AT]),
    ]
    digest = res.residual_sha256
    if len(text) > RESIDUAL_TRUNCATE_AT:
        import hashlib  # only a truncated residual needs it, and importing it costs about 3.5 MB of RSS

        digest = hashlib.sha256(text.encode()).hexdigest()
    if digest:
        members += ['"residual_truncated": true', f'"residual_sha256": "{digest}"']
    if res.readings is not None:
        reading = "null" if res.reading is None else _string(res.reading)
        readings = [_string(name) + ": " + _string(status) for name, status in res.readings.items()]
        members += ['"readings": ' + _object(readings, inner), '"reading": ' + reading]
    if res.note:
        members.append('"note": ' + _string(res.note))
    members.append(f'"elapsed_ms": {round(res.elapsed * 1000, 3)!r}')
    return _object(members, pad)


def result_from_dict(data: dict) -> VerificationResult:
    """Inverse of :func:`record_json` up to the elapsed time, a truncated residual's digest included."""
    case = IdentityCase(data["case"], params_from_dict(data["params"]))
    # the record's optional keys are the result's fields of the same names
    optional = {key: data.get(key) for key in ("readings", "reading", "note", "residual_sha256")}
    return VerificationResult(case, data["status"], data["residual"], data.get("elapsed_ms", 0.0) / 1000, **optional)


@dataclass
class Report:
    config: SweepConfig
    results: list[VerificationResult] = field(default_factory=list)
    elapsed: float = 0.0

    @property
    def summary(self) -> dict:
        counts = {"verified": 0, "counterexample": 0, "not_applicable": 0, "adjudicated": 0}
        for res in self.results:
            counts[res.status] += 1
            if res.readings is not None:
                counts["adjudicated"] += 1
        return counts

    @property
    def success(self) -> bool:
        return self.summary["counterexample"] == 0


def _sort_key(case: IdentityCase):
    """The case id and the params' sorted-keys JSON text, built from
    :func:`params_text`: the report's order."""
    return (case.id, "{" + ", ".join(f'"{key}": {text}' for key, text in sorted(params_text(case))) + "}")


def table_size(n: int, l: int, r: int, s: int) -> int:
    """Symbolic table size that covers every case at indices up to n, l, r, s."""
    return 2 * (n + l + r) + s + 6


def required_table_size(cfg: SweepConfig) -> int:
    """Symbolic table size the selected cases read: each case counts only
    the bounds of its own axes, since the others stay 0 in its grid."""
    sizes = [
        table_size(*(getattr(cfg, "max_" + name) if name in CASE_DEFS[c].axes else 0 for name in "nlrs"))
        for c in cfg.cases
    ]
    return max(sizes, default=0)


def check_input_size(n: int, l: int, r: int, s: int, m: int = 1) -> None:
    """Reject indices that no run would finish on: their table size may not
    exceed the generalized table limit, and m may not exceed MAX_M."""
    size, limit = table_size(n, l, r, s), TABLE_LIMITS["generalized"]
    if size > limit:
        raise UsageError(f"table size 2*(n+l+r)+s+6 must be <= {limit}, got {size}")
    if m > MAX_M:
        raise UsageError(f"m must be <= {MAX_M}, got {m}")


def run_suite(cfg: SweepConfig, table: GenBernTable = DEFAULT_TABLE) -> Report:
    """Enumerate, sort into report order, and verify on ``table`` in that
    order.  With both main-identity cases selected, each proof_replay point
    first verifies theorem_le1 at the same point, whose sides pass to the
    replay through one slot that the replay empties; theorem_le1's result
    waits in a FIFO for its own turn, which comes later in the same order."""
    cfg.validate()
    cases = sorted(enumerate_cases(cfg), key=_sort_key)
    start = time.perf_counter()
    # Pre-grow the number tables; the cases then only read them, and build
    # each entry they need on first use in ``table``'s memo.
    size = required_table_size(cfg)
    classical_bernoulli_numbers(2 * size)
    table.grow(size)
    slot = {} if "proof_replay" in cfg.cases else None
    paired = slot is not None and "theorem_le1" in cfg.cases
    held: deque[VerificationResult] = deque()
    results = []
    for c in cases:
        if paired and c.id == "theorem_le1":
            res = held.popleft() if held else None
            if res is None or res.case.params != c.params:
                raise ValueError(f"theorem_le1 and proof_replay grids differ at {c.params}")
            results.append(res)
            continue
        if paired and c.id == "proof_replay":
            held.append(verify_case(IdentityCase("theorem_le1", c.params), table, slot))
        results.append(verify_case(c, table, slot))
    return Report(config=cfg, results=results, elapsed=time.perf_counter() - start)


def _nested(obj: dict) -> str:
    """A small fixed block of the report (config, summary) at indentation 2."""
    return json.dumps(obj, indent=2).replace("\n", "\n  ")


def write_json(report: Report, write: Callable[[str], object]) -> None:
    """Write the report's JSON text, ``json.dumps(..., indent=2)`` of its
    config, results, summary and elapsed time, through ``write``: one call
    per record, so nothing but the record being written is held."""
    write('{\n  "config": ' + _nested(report.config.to_dict()) + ',\n  "results": [')
    sep = "\n    "
    for res in report.results:
        write(sep + record_json(res, "    "))
        sep = ",\n    "
    close = "\n  ]" if report.results else "]"
    elapsed = round(report.elapsed * 1000, 3)
    write(f'{close},\n  "summary": {_nested(report.summary)},\n  "elapsed_ms": {elapsed!r}\n}}')


def emit_json(report: Report) -> str:
    """The text :func:`write_json` writes, as one string."""
    parts: list[str] = []
    write_json(report, parts.append)
    return "".join(parts)


def parse_report(text: str) -> Report:
    """Inverse of :func:`emit_json` up to elapsed times."""
    data = json.loads(text)
    cfg = SweepConfig.from_dict(data["config"])
    results = [result_from_dict(r) for r in data["results"]]
    return Report(config=cfg, results=results, elapsed=data.get("elapsed_ms", 0.0) / 1000)


def emit_tables(kind: str, n_max: int, fmt: str = "csv") -> str:
    """Number-table export: rows (n, value) with exact text values."""
    if kind not in TABLE_LIMITS:
        raise UsageError(f"unknown table kind {kind!r}; expected classical or generalized")
    if n_max < 0:
        raise UsageError("table size must be >= 0")
    if n_max > TABLE_LIMITS[kind]:
        raise UsageError(f"{kind} table size must be <= {TABLE_LIMITS[kind]}, got {n_max}")
    if fmt not in ("csv", "json"):
        raise UsageError(f"unknown table format {fmt!r}; expected csv or json")
    if kind == "classical":
        values = [format_fraction(b) for b in classical_bernoulli_numbers(n_max)]
    else:
        values = [format_poly(b) for b in gen_bernoulli_numbers_symbolic(n_max)]
    if fmt == "csv":
        return "".join(f"{n},{v}\n" for n, v in enumerate(values))
    return json.dumps([{"n": n, "value": v} for n, v in enumerate(values)], indent=2)
