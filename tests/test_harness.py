"""Sweep harness: grids, reports, serialization, determinism."""

import dataclasses
import hashlib
import json
import subprocess
import sys
import threading
import time
import tracemalloc
from collections import Counter
from fractions import Fraction as F
from pathlib import Path

import pytest

from genbern import harness
from genbern.bernoulli import GenBernTable, gen_bernoulli_numbers_symbolic
from genbern.cli import main
from genbern.harness import (
    AXES,
    RESIDUAL_TRUNCATE_AT,
    TABLE_LIMITS,
    Report,
    SweepConfig,
    UsageError,
    emit_json,
    emit_tables,
    enumerate_cases,
    grid_size,
    parse_report,
    record_json,
    required_table_size,
    residual_text,
    run_suite,
    table_size,
    write_json,
)
from genbern.identities import CASE_DEFS, INDEXES, PARAMS, IdentityCase, SumSpec, VerificationResult, verify_case
from genbern.poly import Poly
from genbern.textform import format_fraction, format_poly


# The report's reference route: one dict per result, and the whole tree
# through json.dumps(indent=2).  The streamed writer must equal it byte
# for byte.
def _reference_params_to_dict(case: IdentityCase) -> dict:
    out = {}
    for p in PARAMS:
        if p.name in harness.CASE_FIELDS[case.id]:
            value = getattr(case.params, p.name)
            out[p.key] = value if p.kind == "index" else "symbolic" if value is None else format_fraction(value)
    return out


def _reference_result_to_dict(res: VerificationResult) -> dict:
    out = {"case": res.case.id, "params": _reference_params_to_dict(res.case), "status": res.status}
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


def _reference_emit_json(report: Report) -> str:
    obj = {
        "config": report.config.to_dict(),
        "results": [_reference_result_to_dict(r) for r in report.results],
        "summary": report.summary,
        "elapsed_ms": round(report.elapsed * 1000, 3),
    }
    return json.dumps(obj, indent=2)


def _stripped(report_text: str) -> dict:
    obj = json.loads(report_text)
    obj.pop("elapsed_ms", None)
    for res in obj["results"]:
        res.pop("elapsed_ms", None)
    return obj


def test_t3_grid_size_and_statuses():
    cfg = SweepConfig(max_n=2, max_l=2, max_r=1, cases=("t3",))
    report = run_suite(cfg)
    assert len(report.results) == 18  # 3 * 3 * 2
    assert report.summary == {"verified": 18, "counterexample": 0, "not_applicable": 0, "adjudicated": 0}
    assert report.success


def test_empty_cases_gives_empty_success():
    report = run_suite(SweepConfig(cases=()))
    assert report.results == []
    assert report.success


def test_k3_out_of_domain_rows_are_not_applicable():
    report = run_suite(SweepConfig(max_n=0, cases=("k3",)))
    assert [r.status for r in report.results] == ["not_applicable"]
    assert report.success


def test_summary_counts_match_results():
    cfg = SweepConfig(max_n=1, max_l=1, max_r=1, max_s=1, max_m=2, cases=("t5", "ges1", "k3"))
    report = run_suite(cfg)
    counts = {"verified": 0, "counterexample": 0, "not_applicable": 0}
    adjudicated = 0
    for res in report.results:
        counts[res.status] += 1
        if res.readings is not None:
            adjudicated += 1
    assert report.summary["verified"] == counts["verified"]
    assert report.summary["not_applicable"] == counts["not_applicable"]
    assert report.summary["adjudicated"] == adjudicated
    assert adjudicated > 0


def test_json_round_trip():
    # every case, so that each SumSpec field is read back from its report key
    cfg = SweepConfig(max_n=1, max_l=1, max_r=1, max_s=1, max_m=2, lambda_points=(F(-1, 2),), alpha_points=(F(2, 3),))
    report = run_suite(cfg)
    text = emit_json(report)
    again = emit_json(parse_report(text))
    assert _stripped(text) == _stripped(again)


@pytest.mark.parametrize("key, value", [("n", 1.9), ("l", True), ("m", "3")])
def test_report_indices_must_be_json_integers(key, value):
    # int() would read these back as 1, 1 and 3
    text = emit_json(run_suite(SweepConfig(max_n=1, max_l=1, max_m=2, cases=("t230",))))
    assert _stripped(emit_json(parse_report(text))) == _stripped(text)
    data = json.loads(text)
    data["results"][0]["params"][key] = value
    with pytest.raises(UsageError, match=f"^{key} must be a JSON integer, got {value!r}$"):
        parse_report(json.dumps(data))


def test_result_schema_fields():
    report = run_suite(SweepConfig(max_n=1, max_l=0, max_r=0, cases=("t3",)))
    entry = json.loads(emit_json(report))["results"][0]
    assert entry["case"] == "t3"
    assert entry["params"] == {"n": 0, "l": 0, "r": 0}
    assert entry["status"] == "verified"
    assert entry["residual"] == "0"
    assert "elapsed_ms" in entry


def test_residual_truncation_hashes_full_form():
    big = gen_bernoulli_numbers_symbolic(60)[60]  # long exact text
    text = format_poly(big)
    assert len(text) > 2000
    res = VerificationResult(
        case=IdentityCase("t3", SumSpec()), status="counterexample", residual=big
    )
    entry = json.loads(record_json(res))
    assert entry["residual_truncated"] is True
    assert len(entry["residual"]) == 2000
    assert entry["residual_sha256"] == hashlib.sha256(text.encode()).hexdigest()


def test_truncated_residual_round_trips_with_its_digest():
    big = gen_bernoulli_numbers_symbolic(60)[60]
    text = format_poly(big)
    report = Report(SweepConfig(), [VerificationResult(IdentityCase("t3", SumSpec()), "counterexample", residual=big)])
    stored = emit_json(report)
    again = emit_json(parse_report(stored))
    assert _stripped(again) == _stripped(stored)
    entry = json.loads(again)["results"][0]
    assert entry["residual_truncated"] is True
    assert entry["residual"] == text[:RESIDUAL_TRUNCATE_AT]
    assert entry["residual_sha256"] == hashlib.sha256(text.encode()).hexdigest()
    # a residual of exactly RESIDUAL_TRUNCATE_AT characters is whole, before and after a round trip
    whole = _hand_built_results()[4]
    stored = emit_json(Report(SweepConfig(), [whole]))
    assert emit_json(parse_report(stored)) == stored
    assert "residual_truncated" not in json.loads(stored)["results"][0]


def test_each_bound_is_checked_against_its_least_index():
    for index in INDEXES:
        name = "max_" + index.name
        with pytest.raises(UsageError, match=f"^{name} must be >= {index.default}$"):
            SweepConfig(**{name: index.default - 1}).validate()
        with pytest.raises(UsageError, match=f"^{name} must be >= {index.default}$"):
            SweepConfig.from_dict({name: index.default - 1})
    # m starts at 1, so max_m = 0 would leave every case that sweeps m an empty grid
    with pytest.raises(UsageError, match="^max_m must be >= 1$"):
        SweepConfig(cases=("t4", "t3"), max_m=0).validate()


def test_config_validation_errors():
    with pytest.raises(UsageError):
        SweepConfig(max_n=-1).validate()
    with pytest.raises(UsageError):
        SweepConfig(cases=("nope",)).validate()
    with pytest.raises(UsageError):
        SweepConfig(cases=("theorem_le1",), lambda_points=()).validate()
    with pytest.raises(UsageError):
        SweepConfig(cases=("s1",), alpha_points=()).validate()


def test_config_json_round_trip():
    cfg = SweepConfig(max_n=2, lambda_points=(F(1, 2), F(-3)), cases=("t3", "e1"))
    again = SweepConfig.from_dict(json.loads(json.dumps(cfg.to_dict())))
    assert again == cfg


def test_stored_parallelism_is_read_and_written_as_one():
    # reports from before sweeps ran only serially may name any parallelism
    text = emit_json(run_suite(SweepConfig(max_n=1, max_l=0, max_r=0, cases=("t3",))))
    stored = json.loads(text)
    stored["config"]["parallelism"] = 4
    again = json.loads(emit_json(parse_report(json.dumps(stored))))
    assert again["config"]["parallelism"] == 1
    assert _stripped(json.dumps(again)) == _stripped(text)


def test_config_from_dict_rejects_bad_values():
    with pytest.raises(UsageError):
        SweepConfig.from_dict({"max_n": "many"})
    with pytest.raises(UsageError):
        SweepConfig.from_dict({"lambda_points": ["1/0"]})


def test_enumerate_respects_domain_reporting():
    cfg = SweepConfig(max_n=2, max_l=0, max_r=2, max_m=1, cases=("t5",))
    cases = enumerate_cases(cfg)
    assert len(cases) == 9  # n in 0..2, r in 0..2, m = 1
    report = run_suite(cfg)
    # even r rows report not_applicable; odd r rows verify (empty sums)
    assert report.summary["not_applicable"] == 3 * 1 * 2  # r in {0, 2}
    assert report.summary["verified"] == 3


def test_tables_csv_and_json():
    assert emit_tables("classical", 2, "csv") == "0,1\n1,-1/2\n2,1/6\n"
    assert emit_tables("classical", 0, "csv") == "0,1\n"
    assert emit_tables("generalized", 1, "csv") == "0,1\n1,(-1/2)*a\n"
    rows = json.loads(emit_tables("generalized", 2, "json"))
    assert rows[2] == {"n": 2, "value": "(-1/12)*a + (1/4)*a^2"}
    with pytest.raises(UsageError):
        emit_tables("weird", 2, "csv")
    with pytest.raises(UsageError):
        emit_tables("classical", 2, "tsv")
    with pytest.raises(UsageError):
        emit_tables("classical", -1, "csv")


@pytest.mark.parametrize("kind, builder", [
    ("classical", "classical_bernoulli_numbers"),
    ("generalized", "gen_bernoulli_numbers_symbolic"),
])
def test_table_format_is_checked_before_a_table_is_built(monkeypatch, kind, builder):
    def fail(n_max):
        raise AssertionError(f"table built before the format was checked (n_max={n_max})")

    monkeypatch.setattr(harness, builder, fail)
    with pytest.raises(UsageError, match="unknown table format 'xml'"):
        emit_tables(kind, TABLE_LIMITS[kind], "xml")


def test_adjudicated_report_records_readings():
    cfg = SweepConfig(max_n=1, max_m=2, cases=("t24",))
    entries = json.loads(emit_json(run_suite(cfg)))["results"]
    flagged = [e for e in entries if "readings" in e]
    assert flagged
    for e in flagged:
        assert e["reading"] in e["readings"]
        assert "note" in e
    # adjudication failures of the printed reading do not fail the suite
    assert all(e["status"] != "counterexample" for e in entries)


def test_adjudicated_flag_matches_reading_output():
    from genbern.identities import CASE_DEFS

    cfg = SweepConfig(max_n=2, max_l=2, max_r=2, max_s=1, max_m=2)
    report = run_suite(cfg)
    with_readings = {r.case.id for r in report.results if r.readings is not None}
    flagged = {d.id for d in CASE_DEFS.values() if d.prefer}
    assert with_readings == flagged
    # adjudication only decorates in-domain rows
    for res in report.results:
        if res.status == "not_applicable":
            assert res.readings is None


DEFAULT_GRID_COUNTS = {
    "t3": 48, "t4": 192, "tg4": 192, "t5": 48, "ges1": 48, "rem1": 36, "p1": 4, "e1": 16, "e2": 16,
    "k5": 4, "k3": 4, "s3": 48, "t230": 64, "t24": 16, "c1": 16, "theorem_le1": 576,
    "proof_replay": 576, "app1": 1152, "nielsen_f10": 384, "agoh_leibniz": 48, "s1": 432,
    "s2": 432, "s4": 432, "cor3a": 432, "cor3b": 144, "s20": 36, "cor1": 36, "fi2": 12,
    "neto_corrected": 16, "vassilev": 16,
}


def test_default_grid_counts_per_case():
    counts = Counter(case.id for case in enumerate_cases(SweepConfig()))
    assert counts == DEFAULT_GRID_COUNTS
    assert sum(counts.values()) == 5476


def test_params_keys_and_first_grid_point():
    first = {}
    for case in enumerate_cases(SweepConfig()):
        first.setdefault(case.id, case)
    expected = {
        "s1": {"n": 0, "l": 0, "r": 0, "x": "1", "y": "0", "z": "0", "alpha": "1"},
        "s2": {"n": 0, "l": 0, "r": 0, "x": "1", "y": "0", "alpha": "1"},
        "s4": {"n": 0, "l": 0, "r": 0, "s": 0, "x": "1", "y": "0", "z": "0"},
        "cor3a": {"n": 0, "l": 0, "r": 0, "x": "1", "y": "0", "z": "0", "alpha": "1"},
        "cor1": {"n": 0, "r": 0, "x": "0"},
        "theorem_le1": {"n": 0, "l": 0, "r": 0, "s": 0, "lambda": "0", "alpha": "symbolic"},
        "s20": {"n": 0, "r": 0, "t": "0", "alpha": "symbolic"},
        "neto_corrected": {"n": 0, "l": 0, "alpha": "symbolic"},
    }
    for case_id, params in expected.items():
        got = {key: json.loads(text) for key, text in harness.params_text(first[case_id])}
        assert list(got.items()) == list(params.items()), case_id


def test_every_case_axis_is_in_the_axis_table():
    assert {name for d in CASE_DEFS.values() for name in d.axes} <= set(AXES)


def test_param_schema_follows_sumspec():
    assert [p.name for p in PARAMS] == [f.name for f in dataclasses.fields(SumSpec)]
    assert [(p.name, p.default) for p in INDEXES] == [("n", 0), ("l", 0), ("r", 0), ("s", 0), ("m", 1)]
    assert {p.name: p.kind for p in PARAMS if p.kind != "index"} == {
        "lam": "rational", "x": "rational", "y": "rational", "z": "rational",
        "t": "rational", "beta": "rational", "alpha": "order",
    }
    assert [p.key for p in PARAMS if p.key != p.name] == ["lambda"]
    for name, least in (("n", 0), ("s", 0), ("m", 1)):
        with pytest.raises(ValueError, match=f"^{name} must be >= {least}$"):
            SumSpec(**{name: least - 1})


# Every case, with r up to 3 so that the blocks and double sums reach past
# their r <= 1 shapes.  The digest pins every byte of the report apart from
# the timings; it was recorded from the hand-written loops that the shared
# block and double-sum kernels replaced.
GOLDEN_CONFIG = SweepConfig(
    max_n=2, max_l=2, max_r=3, max_s=1, max_m=3, lambda_points=(F(0), F(1, 2)), alpha_points=(F(1), F(-1, 3))
)
GOLDEN_DIGEST = "e0cd83b74964ded97e874c04331947f5134a32cb4ba9efb0c5ca63e5e445133c"


def test_golden_report_digest():
    report = run_suite(GOLDEN_CONFIG)
    assert len(report.results) == 2358
    text = json.dumps(_stripped(emit_json(report)), indent=2)
    assert hashlib.sha256(text.encode()).hexdigest() == GOLDEN_DIGEST


# The default sweep on one consistent wrong table: B_1^(a) + 1 among the
# generalized numbers and B_2 + 1 at the classical source.  Pinned before
# the scalar residuals were joined in one Fraction each: 3,524
# counterexamples, 27 cases of them with nonzero residual strings.
WRONG_TABLE_DIGEST = "8315467288b29180a160f75954d6ccb0b4a6e9ca0ad9f43a53c6bcca1f596c2c"


def test_golden_wrong_table_report_digest():
    wrong = GenBernTable()
    wrong.grow(1)
    wrong._numbers[1] = wrong.number(1) + 1
    right = wrong.classical_numbers
    wrong.classical_numbers = lambda n_max: [b + (i == 2) for i, b in enumerate(right(n_max))]
    report = run_suite(SweepConfig(), wrong)
    assert report.summary["counterexample"] == 3524
    text = json.dumps(_stripped(emit_json(report)), indent=2)
    nonzero = {r["case"] for r in json.loads(text)["results"] if r["residual"] != "0"}
    assert len(nonzero) == 27
    assert hashlib.sha256(text.encode()).hexdigest() == WRONG_TABLE_DIGEST


def test_a_wrong_table_fails_the_run_it_is_passed_and_no_other(monkeypatch):
    cfg = SweepConfig(max_n=1, max_l=1, max_r=1, max_s=1, max_m=2)  # every case has a point in its domain

    def default_report() -> str:
        return json.dumps(_stripped(emit_json(run_suite(cfg))), indent=2)

    before = default_report()
    assert json.loads(before)["summary"]["counterexample"] == 0
    # every entry a case reads goes through a table's memo, row memo or grow
    read = set()

    def spy(method):
        def wrapper(self, *args):
            read.add(id(self))
            return method(self, *args)

        return wrapper

    for name in ("memo", "_row_entry", "grow"):
        monkeypatch.setattr(GenBernTable, name, spy(getattr(GenBernTable, name)))
    # B_1^(a) + 1 among the numbers: one consistent wrong table, caught by
    # each case that reads it except s2, whose folded form holds for every
    # Appell sequence (test_s2_holds_for_every_appell_sequence); the
    # classical cases read no generalized entry
    wrong_poly = GenBernTable()
    wrong_poly.grow(1)
    wrong_poly._numbers[1] = wrong_poly.number(1) + 1
    caught = {res.case.id for res in run_suite(cfg, wrong_poly).results if res.status == "counterexample"}
    assert caught == set("cor3a e2 neto_corrected nielsen_f10 proof_replay s1 s20 s3 s4 t230 t3 t4 tg4 theorem_le1".split())
    # B_2 + 1 at the table's classical source, which p1, e1 and vassilev
    # read at n + l = 3; p1 at n = 3 sums it with weight C(3, 2)
    wrong_row = GenBernTable()
    right = wrong_row.classical_numbers
    wrong_row.classical_numbers = lambda n_max: [b + (i == 2) for i, b in enumerate(right(n_max))]
    specs = {"p1": SumSpec(n=3), "e1": SumSpec(n=1, l=2), "vassilev": SumSpec(n=2, l=1)}
    cases = [IdentityCase(case_id, spec) for case_id, spec in specs.items()]
    for case in cases:
        res = verify_case(case, wrong_row)
        assert (res.status, res.residual) == ("counterexample", 3), case.id
    # neither run read the default table, and its report is unchanged
    assert read == {id(wrong_poly), id(wrong_row)}
    assert all(verify_case(case).verified for case in cases)
    assert default_report() == before


def test_grid_size_counts_the_grid_of_each_case():
    # test_default_grid_counts_per_case pins the default grid's enumeration
    assert {c: grid_size(c, SweepConfig()) for c in CASE_DEFS} == DEFAULT_GRID_COUNTS
    # least bounds, one lambda point and no alpha points
    least = SweepConfig(max_n=0, max_l=0, max_r=0, max_s=0, max_m=1, lambda_points=(F(1, 2),), alpha_points=())
    for cfg in (GOLDEN_CONFIG, least):
        counts = Counter(case.id for case in enumerate_cases(cfg))
        assert {c: grid_size(c, cfg) for c in CASE_DEFS} == {c: counts[c] for c in CASE_DEFS}


def test_sweep_over_the_grid_limit_is_rejected_before_any_grid_is_built(monkeypatch):
    def fail(case_id, cfg):
        raise AssertionError(f"the grid of {case_id} was built")

    monkeypatch.setattr(harness, "_case_grid", fail)
    start = time.perf_counter()
    with pytest.raises(UsageError, match="^the sweep has 42855666 grid points, more than the limit of 50000$"):
        SweepConfig(max_n=20, max_l=20, max_r=20, max_s=20, max_m=1000).validate()
    assert time.perf_counter() - start < 0.5
    # rem1 has max_m * (max_r+1) * (max_s+1) points and p1 max_n+1
    assert harness.MAX_GRID_POINTS == 50_000
    SweepConfig(max_r=4, max_s=9, max_m=1000, cases=("rem1",)).validate()
    with pytest.raises(UsageError, match="^the sweep has 50001 grid points"):
        SweepConfig(max_n=0, max_r=4, max_s=9, max_m=1000, cases=("rem1", "p1")).validate()


@pytest.mark.parametrize("source", harness.POINT_SETS)
def test_long_point_set_is_rejected_in_linear_time(source):
    # one more distinct point than the grid limit, in one case that reads the set
    points = tuple(F(i, 7) for i in range(harness.MAX_GRID_POINTS + 1))
    case = next(c for c in CASE_DEFS if harness.sweeps((c,), source))
    cfg = SweepConfig(**{source: points}, cases=(case,))
    start = time.perf_counter()
    with pytest.raises(UsageError, match="^the sweep has"):
        cfg.validate()
    assert time.perf_counter() - start < 0.5


def test_long_repeated_case_list_is_rejected_in_linear_time():
    cfg = SweepConfig(cases=tuple(CASE_DEFS) * 2000)
    start = time.perf_counter()
    with pytest.raises(UsageError, match="^repeated case ids: "):
        cfg.validate()
    assert time.perf_counter() - start < 0.5


def test_pre_grow_counts_only_the_axes_a_case_reads():
    bounds = {"max_n": 2, "max_l": 5, "max_r": 1, "max_s": 40}
    assert required_table_size(SweepConfig(**bounds, cases=("p1",))) == table_size(2, 0, 0, 0)
    # rem1 sweeps m, r and s; t3 sweeps n, l and r
    assert required_table_size(SweepConfig(**bounds, cases=("p1", "rem1"))) == table_size(0, 0, 1, 40)
    assert required_table_size(SweepConfig(**bounds, cases=("t3", "p1"))) == table_size(2, 5, 1, 0)
    # theorem_le1 sweeps all four, so the full catalog needs every bound
    assert required_table_size(SweepConfig(**bounds)) == table_size(2, 5, 1, 40)
    assert required_table_size(SweepConfig(cases=())) == 0


# -- the streamed report against the reference route, byte for byte ----------------


@pytest.fixture(scope="module")
def golden_report():
    return run_suite(GOLDEN_CONFIG)


def test_emit_json_equals_the_reference_byte_for_byte(golden_report):
    text = emit_json(golden_report)
    assert text == _reference_emit_json(golden_report)
    # read back, every residual is a string and every elapsed time a float
    again = parse_report(text)
    assert emit_json(again) == _reference_emit_json(again) == text
    for report in (Report(SweepConfig()), Report(SweepConfig(cases=(), lambda_points=(), alpha_points=()))):
        assert emit_json(report) == _reference_emit_json(report)


def _hand_built_results() -> list[VerificationResult]:
    big = gen_bernoulli_numbers_symbolic(60)[60]
    assert len(format_poly(big)) > RESIDUAL_TRUNCATE_AT
    theorem = IdentityCase("theorem_le1", SumSpec(n=2, l=1, r=1, s=1, lam=F(-3, 2)))
    return [
        VerificationResult(IdentityCase("t3", SumSpec()), "counterexample", residual=big, elapsed=0.25),
        VerificationResult(theorem, "counterexample", residual=Poly("x", [F(1, 3), Poly("a", [0, F(-2, 7)])]), elapsed=1e-7),
        VerificationResult(
            IdentityCase("t24", SumSpec(n=1, m=2)), "counterexample", readings={"literal": "counterexample"}, reading=None
        ),
        VerificationResult(
            IdentityCase("s1", SumSpec(x=F(1, 2), y=F(-1), z=F(1, 2), alpha=F(-3, 2))),
            "verified",
            residual=F(0),
            readings={"é\u2013\n\t\x01\"\\": "verified", "plain": "counterexample"},
            reading="é\u2013\n\t\x01\"\\",
            note="naïve \u00bd\r\x7f\u0000 ✓ \U0001f600 \\ \"quoted\"",
        ),
        # a residual read back from a report, just short of truncation
        VerificationResult(IdentityCase("p1", SumSpec(n=3)), "verified", residual="1" * RESIDUAL_TRUNCATE_AT, readings={}, note=""),
    ]


@pytest.mark.parametrize("index", range(5))
def test_hand_built_record_equals_the_reference(index):
    res = _hand_built_results()[index]
    assert record_json(res) == json.dumps(_reference_result_to_dict(res), indent=2)
    report = Report(SweepConfig(), [res], elapsed=12.5)
    assert emit_json(report) == _reference_emit_json(report)


def test_cli_report_and_record_are_indented_json(capsys):
    assert main(["suite", "--cases", "t3,k5,theorem_le1,s1,proof_replay", "--max-n", "2"]) == 0
    out = capsys.readouterr().out
    assert out.endswith("}\n")
    assert out[:-1] == json.dumps(json.loads(out), indent=2)
    argv = ["eval", "--case", "theorem_le1", "--n", "1", "--l", "1", "--r", "1", "--s", "1", "--lambda", "1/2", "--alpha", "1/2"]
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert out[:-1] == json.dumps(json.loads(out), indent=2)
    assert main(["eval", "--case", "t24", "--n", "1", "--m", "2"]) == 0
    out = capsys.readouterr().out
    assert "readings" in json.loads(out)
    assert out[:-1] == json.dumps(json.loads(out), indent=2)


# indexes of 10 or more, which sort as JSON text, with every main-identity
# pair handed through the FIFO
ORDER_CONFIG = SweepConfig(
    max_n=11, max_l=0, max_r=0, max_s=11, lambda_points=(F(0),), cases=("p1", "theorem_le1", "proof_replay")
)


def test_sort_key_is_the_sorted_keys_json_of_the_params(golden_report):
    # p1 reads n alone, so {"n": 10} sorts before {"n": 1} as the JSON text does
    results = run_suite(SweepConfig(max_n=10, cases=("p1",))).results
    assert [r.case.params.n for r in results] == [0, 10, 1, 2, 3, 4, 5, 6, 7, 8, 9]
    ordered = run_suite(ORDER_CONFIG).results
    assert [r.case.params.n for r in ordered if r.case.id == "p1"] == [0, 10, 11, *range(1, 10)]
    # in both main cases s, the last key, sorts the same way within each n,
    # while n, which a comma follows, runs 0, 1, 10, 11, 2, ...
    for case_id in ("theorem_le1", "proof_replay"):
        points = [(r.case.params.n, r.case.params.s) for r in ordered if r.case.id == case_id]
        assert points == [(n, s) for n in (0, 1, 10, 11, *range(2, 10)) for s in (0, 10, 11, *range(1, 10))]
    for res in results + ordered + golden_report.results:
        assert harness._sort_key(res.case) == (res.case.id, json.dumps(_reference_params_to_dict(res.case), sort_keys=True))
    for report in (results, ordered):
        cases = [res.case for res in report]
        assert sorted(cases[::-1], key=harness._sort_key) == cases


def test_params_text_is_built_once_per_result(monkeypatch):
    # the sort key and the record read the same text, which the result keeps
    expected = run_suite(SweepConfig(), GenBernTable()).results
    calls = Counter()
    text = harness.params_text

    def counted(case):
        calls[case] += 1
        return text(case)

    monkeypatch.setattr(harness, "params_text", counted)
    report = run_suite(SweepConfig(), GenBernTable())
    emit_json(report)
    assert sum(calls.values()) == len(report.results) == 5476
    assert _records(report.results) == _records(expected)
    assert set(calls.values()) == {1}
    assert all(res.params_text == tuple(text(res.case)) for res in report.results)
    # held as one object per distinct (key, text) pair, so the results hold little
    held = [pair for res in report.results for pair in res.params_text]
    assert len({id(pair) for pair in held}) == len(set(held)) < 100


# -- memory: the report costs about its own size, the writer almost nothing ---------


def _traced_peak(fn) -> int:
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_emit_json_peaks_below_three_times_its_text(golden_report):
    size = len(emit_json(golden_report))
    assert _traced_peak(lambda: emit_json(golden_report)) < 3 * size


def test_write_json_into_a_discarding_sink_holds_no_report(golden_report):
    assert _traced_peak(lambda: write_json(golden_report, lambda text: None)) < 64 * 1024


# -- the main identity's sides, handed from theorem_le1 to proof_replay --------------

HANDOFF_BOUNDS = {"max_n": 2, "max_l": 2, "max_r": 1, "max_s": 2}


def _records(results) -> list[str]:
    return [record_json(dataclasses.replace(res, elapsed=0.0)) for res in results]


def _wrong_b1() -> GenBernTable:
    table = GenBernTable()
    table.grow(1)
    table._numbers[1] = table.number(1) + 1  # B_1^(a) + 1 at the source
    return table


@pytest.mark.parametrize("fresh", [GenBernTable, _wrong_b1])
@pytest.mark.parametrize(
    "cases",
    [("proof_replay",), ("theorem_le1",), ("theorem_le1", "proof_replay"), ("proof_replay", "theorem_le1", "t3")],
)
def test_sweep_records_equal_cases_run_alone_on_a_fresh_table(cases, fresh):
    # on a right table and on a wrong one, whose residuals are nonzero
    cfg = SweepConfig(**HANDOFF_BOUNDS, cases=cases)
    reference = fresh()
    alone = sorted((verify_case(case, reference) for case in enumerate_cases(cfg)), key=lambda res: harness._sort_key(res.case))
    assert _records(run_suite(cfg, fresh()).results) == _records(alone)


def test_sweep_hands_each_point_over_and_leaves_nothing_behind(monkeypatch):
    cfg = SweepConfig(**HANDOFF_BOUNDS, cases=("proof_replay", "theorem_le1"))
    seen, slots = [], set()

    def spy(case, table, slot=None):
        if case.id == "proof_replay":
            # the sides theorem_le1 built at this very point, on this table
            [key] = slot
            assert key[0] is table and key[1:] == (case.params.n, case.params.l, case.params.r, case.params.s, case.params.lam)
        res = verify_case(case, table, slot)
        slots.add(id(slot))
        seen.append((case.id, len(slot)))
        return res

    monkeypatch.setattr(harness, "verify_case", spy)
    table = GenBernTable()
    report = run_suite(cfg, table)
    assert report.success and len(report.results) == 2 * grid_size("theorem_le1", cfg)
    # one slot for the sweep, filled by each theorem_le1 point, emptied by the replay right after it
    assert len(slots) == 1
    assert seen == [("theorem_le1", 1), ("proof_replay", 0)] * grid_size("theorem_le1", cfg)
    assert not any(key[0] == "lhs" for key in table._derived)


# the benchmark's suite_symbolic workload at its seed-0 points
SUITE_SYMBOLIC_CONFIG = SweepConfig(
    max_n=4, max_l=4, max_r=2, max_s=2, cases=("theorem_le1", "proof_replay", "neto_corrected", "s20")
)


@pytest.mark.parametrize(
    ("cfg", "tags"),
    [
        (SweepConfig(), {"poly": 9, "shifted": 72, "row": 26, "classical_row": 18, "offset": 8, "pack": 89}),
        (SUITE_SYMBOLIC_CONFIG, {"poly": 11, "shifted": 77, "offset": 10, "pack": 98}),
    ],
    ids=["default", "symbolic"],
)
def test_memo_composition_per_sweep(cfg, tags):
    # the keys a sweep leaves in a fresh table's memo, by tag: 133 on the
    # default sweep, where nielsen_f10 and theorem_le1 share their shifted entries, and
    # 98; a shift by 0 reads the "poly" entry itself.  Beside them, one pack
    # for each poly, shifted and offset entry (89 and 98), each packed at
    # one width
    table = GenBernTable()
    run_suite(cfg, table)
    assert Counter(key[0] for key in table._derived) == tags
    packs = {key[1:]: entry for key, entry in table._derived.items() if key[0] == "pack"}
    assert sorted(packs) == sorted(key for key in table._derived if key[0] in ("poly", "shifted", "offset"))
    assert {len(pack._at) for pack in packs.values()} == {1}


@pytest.mark.parametrize(
    "cfg",
    [SweepConfig(), SUITE_SYMBOLIC_CONFIG, GOLDEN_CONFIG, ORDER_CONFIG],
    ids=["default", "symbolic", "golden", "order"],
)
def test_the_main_identity_grids_are_one_grid(cfg):
    # theorem_le1 reads proof_replay's axes and a symbolic order, whose one
    # point is None, proof_replay's own order: so the two grids hold equal
    # SumSpecs and sort in one order, the one the sweep's held results follow
    assert CASE_DEFS["theorem_le1"].axes == (*CASE_DEFS["proof_replay"].axes, "symbolic_alpha")
    assert list(harness.AXES["symbolic_alpha"].points(cfg, {})) == [(None,)]
    assert SumSpec().alpha is None
    cases = sorted(enumerate_cases(cfg), key=harness._sort_key)
    theorem = [c.params for c in cases if c.id == "theorem_le1"]
    assert theorem and theorem == [c.params for c in cases if c.id == "proof_replay"]


def test_a_held_result_at_another_point_is_an_error(monkeypatch):
    cfg = SweepConfig(**HANDOFF_BOUNDS, cases=("theorem_le1", "proof_replay"))
    for cases in (
        [IdentityCase("proof_replay", SumSpec(n=2)), IdentityCase("theorem_le1", SumSpec(n=1))],
        [IdentityCase("theorem_le1", SumSpec(n=1))],  # nothing held
    ):
        monkeypatch.setattr(harness, "enumerate_cases", lambda cfg, cases=cases: cases)
        with pytest.raises(ValueError, match="grids differ"):
            run_suite(cfg, GenBernTable())


def test_a_case_run_alone_or_unpaired_hands_nothing_over(monkeypatch):
    slots = []

    def spy(case, table, slot=None):
        slots.append(slot)
        return verify_case(case, table, slot)

    monkeypatch.setattr(harness, "verify_case", spy)
    # without a proof_replay there is no slot; without a theorem_le1 it stays empty
    run_suite(SweepConfig(**HANDOFF_BOUNDS, cases=("theorem_le1",)), GenBernTable())
    assert set(slots) == {None}
    slots.clear()
    run_suite(SweepConfig(**HANDOFF_BOUNDS, cases=("proof_replay", "t3")), GenBernTable())
    assert all(slot == {} for slot in slots)


def test_two_threads_sweeping_one_table_give_identical_reports():
    cfg = SweepConfig(**HANDOFF_BOUNDS, cases=("theorem_le1", "proof_replay", "nielsen_f10"))
    expected = _records(run_suite(cfg, GenBernTable()).results)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        table = GenBernTable()
        start = threading.Barrier(2)
        seen = [None, None]

        def sweep(i):
            start.wait(timeout=60)
            seen[i] = _records(run_suite(cfg, table).results)

        threads = [threading.Thread(target=sweep, args=(i,)) for i in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
            assert not thread.is_alive()
        assert seen[0] == seen[1] == expected
        assert not any(key[0] == "lhs" for key in table._derived)
    finally:
        sys.setswitchinterval(interval)


def test_importing_the_cli_leaves_hashlib_out():
    # only a residual longer than RESIDUAL_TRUNCATE_AT needs hashlib
    src = str(Path(harness.__file__).parents[1])
    code = f"import sys; sys.path.insert(0, {src!r}); import genbern.cli; print('hashlib' in sys.modules)"
    out = subprocess.run([sys.executable, "-I", "-c", code], capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"
