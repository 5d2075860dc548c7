"""Parameter-grid sweeps over the identity catalog and report emission.

A sweep enumerates a Cartesian parameter grid per case (points outside a
case's validity domain are reported ``not_applicable`` rather than
skipped), verifies every instance, and aggregates into a :class:`Report`
with a machine-readable JSON form and CSV/JSON table exports.  Identical
configurations produce identical result sets at any parallelism level:
results are canonically ordered by case id and parameters.

The grid is data.  ``CaseDef.axes`` names a case's axes, and :data:`AXES`
maps each name to the ``SumSpec`` fields it sets and to its sample points.
The same table gives the report's ``params`` keys, the point sets that
``SweepConfig.validate`` requires to be non-empty, and the ``z`` that the
CLI derives when ``--z`` is not given.  Input sizes are bounded by
:func:`check_input_size`.
"""

from __future__ import annotations

import hashlib
import json
import time
from collections.abc import Callable, Iterable
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from fractions import Fraction

from .bernoulli import DEFAULT_TABLE, classical_bernoulli_numbers, gen_bernoulli_numbers_symbolic
from .identities import (
    CASE_DEFS,
    CASE_IDS,
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


class UsageError(ValueError):
    """Invalid configuration or command usage."""


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
    parallelism: int = 1

    def validate(self) -> None:
        for name in ("max_n", "max_l", "max_r", "max_s", "max_m"):
            if getattr(self, name) < 0:
                raise UsageError(f"{name} must be >= 0")
        check_input_size(self.max_n, self.max_l, self.max_r, self.max_s, self.max_m)
        if self.parallelism < 1:
            raise UsageError("parallelism must be >= 1")
        unknown = [c for c in self.cases if c not in CASE_DEFS]
        if unknown:
            raise UsageError(f"unknown case ids: {', '.join(unknown)}")
        for source in ("lambda_points", "alpha_points"):
            swept = any(AXES[name].source == source for c in self.cases for name in CASE_DEFS[c].axes)
            if swept and not getattr(self, source):
                raise UsageError(f"{source} must be non-empty for the selected cases")

    def to_dict(self) -> dict:
        return {
            "max_n": self.max_n,
            "max_l": self.max_l,
            "max_r": self.max_r,
            "max_s": self.max_s,
            "max_m": self.max_m,
            "lambda_points": [format_fraction(v) for v in self.lambda_points],
            "alpha_points": [format_fraction(v) for v in self.alpha_points],
            "cases": list(self.cases),
            "parallelism": self.parallelism,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "SweepConfig":
        cfg = cls()
        try:
            kwargs = {}
            for name in ("max_n", "max_l", "max_r", "max_s", "max_m", "parallelism"):
                if name in data:
                    kwargs[name] = int(data[name])
            if "lambda_points" in data:
                kwargs["lambda_points"] = tuple(parse_fraction(str(v)) for v in data["lambda_points"])
            if "alpha_points" in data:
                kwargs["alpha_points"] = tuple(parse_fraction(str(v)) for v in data["alpha_points"])
            if "cases" in data:
                kwargs["cases"] = tuple(data["cases"])
            cfg = replace(cfg, **kwargs)
        except (TypeError, ValueError) as exc:
            raise UsageError(f"bad sweep config: {exc}") from exc
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


def _bound(name: str, first: int = 0) -> Axis:
    return Axis((name,), lambda cfg, chosen: [(v,) for v in range(first, getattr(cfg, "max_" + name) + 1)])


def _swept(name: str, source: str) -> Axis:
    return Axis((name,), lambda cfg, chosen: [(v,) for v in getattr(cfg, source)], source)


def _fixed(name: str, points) -> Axis:
    return Axis((name,), lambda cfg, chosen: [(v,) for v in points])


AXES: dict[str, Axis] = {
    "n": _bound("n"),
    "l": _bound("l"),
    "r": _bound("r"),
    "s": _bound("s"),
    "m": _bound("m", 1),
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

# The SumSpec fields each case reads: its report shows these, and the CLI
# accepts only these flags for it.
CASE_FIELDS = {case_id: {f for name in d.axes for f in AXES[name].fields} for case_id, d in CASE_DEFS.items()}


def _case_grid(case_id: str, cfg: SweepConfig) -> list[SumSpec]:
    """The raw parameter grid of one case, its first axis outermost (domain
    filtering happens inside the verifier, which reports not_applicable)."""
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


_PARAM_KEYS = (
    ("n", "n"),
    ("l", "l"),
    ("r", "r"),
    ("s", "s"),
    ("m", "m"),
    ("lam", "lambda"),
    ("x", "x"),
    ("y", "y"),
    ("z", "z"),
    ("t", "t"),
    ("beta", "beta"),
    ("alpha", "alpha"),
)


def params_to_dict(case: IdentityCase) -> dict:
    """Stable JSON encoding restricted to the fields of the case's axes."""
    fields = CASE_FIELDS[case.id]
    out = {}
    for attr, key in _PARAM_KEYS:
        if attr not in fields:
            continue
        value = getattr(case.params, attr)
        if attr in ("n", "l", "r", "s", "m"):
            out[key] = value
        elif attr == "alpha":
            out[key] = "symbolic" if value is None else format_fraction(value)
        else:
            out[key] = format_fraction(value)
    return out


def params_from_dict(case_id: str, data: dict) -> SumSpec:
    kwargs = {}
    for attr, key in _PARAM_KEYS:
        if key not in data:
            continue
        value = data[key]
        if attr in ("n", "l", "r", "s", "m"):
            kwargs[attr] = int(value)
        elif attr == "alpha":
            kwargs[attr] = None if value == "symbolic" else parse_fraction(str(value))
        else:
            kwargs[attr] = parse_fraction(str(value))
    return SumSpec(**kwargs)


def residual_text(residual) -> str:
    if isinstance(residual, str):
        return residual
    if isinstance(residual, Poly):
        return format_poly(residual)
    return format_fraction(residual)


def result_to_dict(res: VerificationResult) -> dict:
    out = {
        "case": res.case.id,
        "params": params_to_dict(res.case),
        "status": res.status,
    }
    text = residual_text(res.residual)
    if len(text) > RESIDUAL_TRUNCATE_AT:
        out["residual"] = text[:RESIDUAL_TRUNCATE_AT]
        out["residual_truncated"] = True
        out["residual_sha256"] = hashlib.sha256(text.encode()).hexdigest()
    else:
        out["residual"] = text
    if res.readings is not None:
        out["readings"] = dict(res.readings)
        out["reading"] = res.reading
    if res.note:
        out["note"] = res.note
    out["elapsed_ms"] = round(res.elapsed * 1000, 3)
    return out


def result_from_dict(data: dict) -> VerificationResult:
    case = IdentityCase(data["case"], params_from_dict(data["case"], data["params"]))
    return VerificationResult(
        case=case,
        status=data["status"],
        residual=data["residual"],
        elapsed=data.get("elapsed_ms", 0.0) / 1000,
        readings=data.get("readings"),
        reading=data.get("reading"),
        note=data.get("note"),
    )


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


def _sort_key(res: VerificationResult):
    return (res.case.id, json.dumps(params_to_dict(res.case), sort_keys=True))


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


def run_suite(cfg: SweepConfig) -> Report:
    """Enumerate, verify and aggregate; deterministic at any parallelism."""
    cfg.validate()
    cases = enumerate_cases(cfg)
    start = time.perf_counter()
    # Pre-grow the shared number tables before any worker starts; workers
    # then only read them, and build each polynomial they need on first
    # use (see GenBernTable).
    size = required_table_size(cfg)
    classical_bernoulli_numbers(2 * size)
    DEFAULT_TABLE.grow(size)
    if cfg.parallelism > 1 and len(cases) > 1:
        with ThreadPoolExecutor(max_workers=cfg.parallelism) as pool:
            results = list(pool.map(verify_case, cases))
    else:
        results = [verify_case(c) for c in cases]
    results.sort(key=_sort_key)
    return Report(config=cfg, results=results, elapsed=time.perf_counter() - start)


def emit_json(report: Report) -> str:
    obj = {
        "config": report.config.to_dict(),
        "results": [result_to_dict(r) for r in report.results],
        "summary": report.summary,
        "elapsed_ms": round(report.elapsed * 1000, 3),
    }
    return json.dumps(obj, indent=2)


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
    if kind == "classical":
        values = [format_fraction(b) for b in classical_bernoulli_numbers(n_max)]
    else:
        values = [format_poly(b) for b in gen_bernoulli_numbers_symbolic(n_max)]
    if fmt == "csv":
        return "".join(f"{n},{v}\n" for n, v in enumerate(values))
    if fmt == "json":
        return json.dumps([{"n": n, "value": v} for n, v in enumerate(values)], indent=2)
    raise UsageError(f"unknown table format {fmt!r}; expected csv or json")
