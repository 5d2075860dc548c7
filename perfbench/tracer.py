"""Per-layer tracing for the genbern benchmark, installed from outside.

The tracer wraps public callables at the binding the caller resolves:
``harness`` imports ``verify_case`` by name, so the wrapper goes on
``harness.verify_case``; ``Poly`` arithmetic is reached through the
class, so its methods are replaced on the class.  No file under ``src/``
changes.

Every wrapped call takes part in one stack, so each layer's self time is
its duration minus the time its wrapped children took.  The stack assumes
one thread, which holds at the default ``parallelism`` of 1.  ``Poly`` methods
keep only aggregated counts and self time (a default sweep makes about
half a million constructions).  Spans -- name, start, end, parent -- are
recorded for the coarse calls only: each case, each table export, and
each ``OmegaOperator``, growing ``grow`` and ``emit_json`` call.
"""

from __future__ import annotations

import json
from time import perf_counter


class Tracer:
    def __init__(self):
        self.stats: dict[str, list] = {}  # layer -> [calls, self_s, total_s]
        self.case_s: dict[str, float] = {}
        self.statuses: dict[str, int] = {}
        self.spans: list[dict] = []
        self.counts = {"classical_max_n": 0, "grow_max_n": 0, "offset_poly_nonzero": 0}
        self._child_time: list[float] = []  # one accumulator per open wrapped call
        self._open_spans: list[int] = []
        self._grown_to: dict[int, int] = {}

    # -- wrappers ---------------------------------------------------------

    def layer(self, name: str, fn, span: str | None = None, on_exit=None):
        """Wrap ``fn`` so its calls and self time accrue to ``name``.

        ``span`` also records one span per call under that name;
        ``on_exit(args, result, duration, span)`` runs after each call.
        """
        stat = self.stats.setdefault(name, [0, 0.0, 0.0])
        child_time = self._child_time
        open_spans = self._open_spans
        spans = self.spans

        def wrapper(*args, **kwargs):
            record = None
            if span is not None:
                record = {"id": len(spans), "name": span, "parent": open_spans[-1] if open_spans else None}
                spans.append(record)
                open_spans.append(record["id"])
            child_time.append(0.0)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                duration = end - start
                stat[0] += 1
                stat[1] += duration - child_time.pop()
                stat[2] += duration
                if child_time:
                    child_time[-1] += duration
                if record is not None:
                    open_spans.pop()
                    record["start"] = start
                    record["end"] = end
            if on_exit is not None:
                on_exit(args, result, duration, record)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        """Wrap every traced binding of an imported ``genbern``."""
        from genbern import bernoulli, cli, harness, identities, poly, textform

        Poly = poly.Poly
        Poly.__init__ = self.layer("poly.construct", Poly.__init__)
        mul = self.layer("poly.mul", Poly.__mul__)
        Poly.__mul__ = Poly.__rmul__ = mul
        add = self.layer("poly.add", Poly.__add__)
        Poly.__add__ = Poly.__radd__ = add
        Poly.eval = self.layer("poly.eval", Poly.eval)
        Poly.shift = self.layer("poly.shift", Poly.shift)

        classical = self.layer("bernoulli.classical", bernoulli.classical_bernoulli_numbers, on_exit=self._on_classical)
        for module in (bernoulli, harness, identities):
            module.classical_bernoulli_numbers = classical

        table = bernoulli.GenBernTable
        table.grow = self._grow_wrapper(table.grow)
        table.poly_at = self.layer("bernoulli.poly_at", table.poly_at)
        table.value_at = self.layer("bernoulli.value_at", table.value_at)
        table.poly_shifted = self.layer("bernoulli.poly_shifted", table.poly_shifted)
        table.offset_poly = self.layer("bernoulli.offset_poly", table.offset_poly, on_exit=self._on_offset_poly)
        # offset_poly shifts only on a cache miss, so these calls are the misses.
        bernoulli.alpha_shifted = self.layer("bernoulli.alpha_shifted", bernoulli.alpha_shifted)
        omega = bernoulli.OmegaOperator
        omega.__call__ = self.layer("bernoulli.omega", omega.__call__, span="omega")

        for name in ("main_identity_residual", "paired_sum"):
            setattr(identities, name, self.layer(f"identities.{name}", getattr(identities, name)))

        harness.verify_case = self.layer("identities.verify_case", harness.verify_case, span="case", on_exit=self._on_case)
        harness.enumerate_cases = self.layer("harness.enumerate", harness.enumerate_cases)
        harness.run_suite = self.layer("harness.run_suite", harness.run_suite, span="run_suite")
        harness.emit_json = self.layer("harness.emit_json", harness.emit_json, span="emit_json")

        for name in ("format_poly", "format_fraction"):
            wrapped = self.layer(f"textform.{name}", getattr(textform, name))
            for module in (textform, harness, cli):
                setattr(module, name, wrapped)

        cli.main = self.layer("cli.main", cli.main, span="table_export")

    def _on_classical(self, args, result, duration, span):
        self.counts["classical_max_n"] = max(self.counts["classical_max_n"], len(result) - 1)

    def _on_offset_poly(self, args, result, duration, span):
        table, n, offset = args
        self.counts["offset_poly_nonzero"] += offset != 0

    def _on_case(self, args, result, duration, span):
        case_id = result.case.id
        self.case_s[case_id] = self.case_s.get(case_id, 0.0) + duration
        self.statuses[result.status] = self.statuses.get(result.status, 0) + 1
        span["case"] = case_id

    def _grow_wrapper(self, grow):
        """Trace only the calls that extend a table.

        ``grow(n)`` makes entries 0..n available and every entry access
        calls it, so a call with an ``n`` at or below the largest one
        already requested on that table returns at once; those calls stay
        in their caller's self time instead of adding ~50k spans.
        """
        traced = self.layer("bernoulli.grow", grow, span="grow")
        grown_to = self._grown_to
        counts = self.counts

        def wrapper(table, n_max):
            if n_max <= grown_to.get(id(table), 0):
                return grow(table, n_max)
            grown_to[id(table)] = n_max
            counts["grow_max_n"] = max(counts["grow_max_n"], n_max)
            return traced(table, n_max)

        return wrapper

    # -- results ----------------------------------------------------------

    def state(self, case_ids) -> dict:
        """Raw counters, JSON-ready; several merge with :func:`merge_states`."""
        return {
            "stats": self.stats,
            "counts": self.counts,
            "case_s": {case_id: self.case_s.get(case_id, 0.0) for case_id in case_ids},
            "statuses": self.statuses,
        }

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.spans, fh)


def merge_states(states: list[dict]) -> dict:
    """Sum the counters of several traced processes (max for the max_n)."""
    out = {"stats": {}, "counts": {}, "case_s": {}, "statuses": {}}
    for state in states:
        for layer, values in state["stats"].items():
            acc = out["stats"].setdefault(layer, [0, 0.0, 0.0])
            for i, v in enumerate(values):
                acc[i] += v
        for key in ("counts", "case_s", "statuses"):
            for name, v in state[key].items():
                if name.endswith("max_n"):
                    out[key][name] = max(out[key].get(name, 0), v)
                else:
                    out[key][name] = out[key].get(name, 0) + v
    return out


def layer_metrics(state: dict) -> dict[str, float]:
    """Per-layer metric values by their benchmark names."""
    stats, counts = state["stats"], state["counts"]
    out: dict[str, float] = {}

    def stat(layer, index):
        return stats[layer][index] if layer in stats else 0

    def calls_self(name):
        out[f"{name}.calls"] = stat(name, 0)
        out[f"{name}.self_s"] = stat(name, 1)

    for op in ("mul", "add", "construct", "eval", "shift"):
        calls_self(f"poly.{op}")
    calls_self("bernoulli.classical")
    out["bernoulli.classical.max_n"] = counts["classical_max_n"]
    calls_self("bernoulli.grow")
    out["bernoulli.grow.max_n"] = counts["grow_max_n"]
    # value_at makes exactly one poly_at call, so the poly_at calls count
    # every specialization once; value_at adds its own self time.
    out["bernoulli.specialize.calls"] = stat("bernoulli.poly_at", 0)
    out["bernoulli.specialize.self_s"] = stat("bernoulli.poly_at", 1) + stat("bernoulli.value_at", 1)
    for layer in ("poly_shifted", "omega"):
        calls_self(f"bernoulli.{layer}")
    # The offset cache: lookups, and their self time with that of the
    # shifts made on a miss.
    out["bernoulli.offset_poly.calls"] = stat("bernoulli.offset_poly", 0)
    out["bernoulli.offset_poly.self_s"] = stat("bernoulli.offset_poly", 1) + stat("bernoulli.alpha_shifted", 1)
    nonzero = counts["offset_poly_nonzero"]
    # 0 when no lookup with a nonzero offset was made.
    out["bernoulli.offset_cache.hit_ratio"] = 1 - stat("bernoulli.alpha_shifted", 0) / nonzero if nonzero else 0.0
    for case_id, seconds in state["case_s"].items():
        out[f"identities.case.{case_id}.s"] = seconds
    for name in ("main_identity_residual", "paired_sum"):
        calls_self(f"identities.{name}")
    out["identities.counterexamples"] = state["statuses"].get("counterexample", 0)
    out["identities.not_applicable"] = state["statuses"].get("not_applicable", 0)
    out["harness.enumerate_s"] = stat("harness.enumerate", 2)
    out["harness.run_suite.self_s"] = stat("harness.run_suite", 1)
    out["harness.emit_json.self_s"] = stat("harness.emit_json", 1)
    out["harness.results"] = sum(state["statuses"].values())
    for name in ("format_poly", "format_fraction"):
        calls_self(f"textform.{name}")
    out["cli.main.self_s"] = stat("cli.main", 1)
    return out


def layer_unit(name: str) -> str:
    """Unit of a per-layer metric, from the suffix of its name."""
    if name.endswith(("_s", ".s")):
        return "s"
    if name.endswith("hit_ratio"):
        return "ratio"
    if name.endswith("max_n"):
        return "n"
    return "count"
