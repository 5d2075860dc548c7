"""Command-line interface: flags, outputs, exit codes."""

import json
from fractions import Fraction as F

import pytest

from genbern import harness
from genbern.cli import main
from genbern.identities import CASE_DEFS, paired_sum, symbolic_weight_pair_residual


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_table_classical_csv(capsys):
    code, out, _ = run_cli(capsys, "table", "--kind", "classical", "--max", "1", "--format", "csv")
    assert code == 0
    assert out == "0,1\n1,-1/2\n"


def test_table_generalized_json(capsys):
    code, out, _ = run_cli(capsys, "table", "--kind", "generalized", "--max", "1", "--format", "json")
    assert code == 0
    assert json.loads(out) == [{"n": 0, "value": "1"}, {"n": 1, "value": "(-1/2)*a"}]


@pytest.mark.parametrize("kind", sorted(harness.TABLE_LIMITS))
def test_table_size_limit(capsys, kind):
    limit = harness.TABLE_LIMITS[kind]
    code, out, err = run_cli(capsys, "table", "--kind", kind, "--max", str(limit + 1))
    assert code == 2
    assert out == ""
    assert err == f"error: {kind} table size must be <= {limit}, got {limit + 1}\n"
    code, out, _ = run_cli(capsys, "table", "--kind", kind, "--max", str(limit))
    assert code == 0
    assert out.count("\n") == limit + 1


def test_verify_theorem_instance(capsys):
    code, out, _ = run_cli(
        capsys, "verify-theorem", "--n", "1", "--l", "1", "--r", "1", "--s", "1", "--lambda", "2"
    )
    assert code == 0
    record = json.loads(out)
    assert record["status"] == "verified"
    assert record["residual"] == "0"
    assert record["params"]["lambda"] == "2"


def test_verify_theorem_certify(capsys):
    code, out, _ = run_cli(capsys, "verify-theorem", "--n", "1", "--l", "2", "--r", "1", "--s", "2", "--certify-lambda")
    assert code == 0
    assert "certified for all lambda via 7 points" in out


def test_eval_case_record(capsys):
    code, out, _ = run_cli(capsys, "eval", "--case", "k3", "--n", "1")
    assert code == 0
    record = json.loads(out)
    assert record["status"] == "verified"
    assert record["residual"] == "0"


def test_verify_line(capsys):
    code, out, _ = run_cli(capsys, "verify", "--case", "cor1", "--n", "2", "--r", "3", "--x", "1/3")
    assert code == 0
    assert out.startswith("cor1: verified")
    assert "reading=corrected" in out


def test_rational_flag_rejections(capsys):
    for bad in ("1/0", "0.5", "x"):
        code, _, err = run_cli(capsys, "eval", "--case", "t3", "--lambda", bad)
        assert code == 2, (bad, err)


def test_negative_rational_flags_accepted(capsys):
    code, out, _ = run_cli(capsys, "verify-theorem", "--n", "2", "--l", "1", "--r", "1",
                           "--s", "2", "--lambda", "-3/2")
    assert code == 0
    assert json.loads(out)["params"]["lambda"] == "-3/2"
    code, out, _ = run_cli(capsys, "eval", "--case", "s1", "--n", "1", "--r", "1",
                           "--alpha", "-1/2", "--x", "-2", "--y", "1")
    assert code == 0
    assert json.loads(out)["status"] == "verified"
    code, out, _ = run_cli(capsys, "suite", "--cases", "theorem_le1", "--max-n", "0",
                           "--max-l", "0", "--max-r", "0", "--max-s", "1",
                           "--lambda-points", "-3/2,0")
    assert code == 0
    assert json.loads(out)["config"]["lambda_points"] == ["-3/2", "0"]


def test_unknown_case_rejected(capsys):
    code, _, _ = run_cli(capsys, "eval", "--case", "quux")
    assert code == 2


def test_negative_indices_are_usage_errors(capsys):
    code, _, err = run_cli(capsys, "eval", "--case", "t3", "--n", "-1")
    assert code == 2 and "error:" in err
    code, _, _ = run_cli(capsys, "eval", "--case", "t4", "--m", "0")
    assert code == 2
    code, _, _ = run_cli(capsys, "verify-theorem", "--n", "-2")
    assert code == 2


def test_symbolic_and_numeric_alpha_agree(capsys):
    code, out, _ = run_cli(capsys, "eval", "--case", "neto_corrected", "--n", "2", "--l", "3",
                           "--alpha", "symbolic")
    sym = json.loads(out)
    code2, out2, _ = run_cli(capsys, "eval", "--case", "neto_corrected", "--n", "2", "--l", "3",
                             "--alpha", "5/7")
    num = json.loads(out2)
    assert code == code2 == 0
    assert sym["params"]["alpha"] == "symbolic"
    assert num["params"]["alpha"] == "5/7"
    assert sym["status"] == num["status"] == "verified"
    # the machinery behind the flag: specializing the symbolic residual
    # reproduces the numeric residual exactly
    assert symbolic_weight_pair_residual(2, 3).eval(F(5, 7)) == 0


def test_eval_derives_constrained_argument(capsys):
    code, out, _ = run_cli(capsys, "eval", "--case", "s1", "--n", "1", "--l", "1", "--r", "1",
                           "--alpha", "2", "--x", "1", "--y", "1/3")
    record = json.loads(out)
    assert code == 0
    assert record["params"]["z"] == "2/3"
    assert record["status"] == "verified"


def test_theorem_symbolic_numeric_cli_agreement(capsys):
    _, out_sym, _ = run_cli(capsys, "eval", "--case", "theorem_le1", "--n", "1", "--l", "1",
                            "--r", "1", "--s", "1", "--lambda", "2", "--alpha", "symbolic")
    _, out_num, _ = run_cli(capsys, "eval", "--case", "theorem_le1", "--n", "1", "--l", "1",
                            "--r", "1", "--s", "1", "--lambda", "2", "--alpha", "3")
    assert json.loads(out_sym)["residual"] == json.loads(out_num)["residual"] == "0"


def test_suite_flags_and_report(capsys):
    code, out, err = run_cli(capsys, "suite", "--cases", "t3", "--max-n", "1", "--max-l", "1", "--max-r", "0")
    assert code == 0
    report = json.loads(out)
    assert report["summary"]["verified"] == 4
    assert report["config"]["parallelism"] == 1
    assert "suite:" in err


def test_suite_jobs_flag_is_usage_error(capsys):
    code, out, err = run_cli(capsys, "suite", "--cases", "t3", "--jobs", "2")
    assert (code, out) == (2, "")
    assert "--jobs" in err


@pytest.mark.parametrize("bad", [
    {"max_n": 1.9},
    {"max_l": True},
    {"max_r": "0"},
    {"cases": "t3"},
    {"cases": ["t3", 1]},
    {"lambda_points": "0,1"},
])
def test_suite_config_rejects_values_of_the_wrong_json_type(tmp_path, capsys, bad):
    # int() would truncate a float and take a bool or a numeric string, a
    # bare string would split into characters, and a case id that is no
    # string would stop the run with an internal error
    cfg = {"max_n": 1, "max_l": 1, "max_r": 0, "cases": ["t3"], **bad}
    path = tmp_path / "sweep.json"
    path.write_text(json.dumps(cfg))
    code, out, err = run_cli(capsys, "suite", "--config", str(path))
    assert (code, out) == (2, "")
    assert err.startswith("error: bad sweep config: ") and f"{next(iter(bad))} must be a JSON " in err


def test_suite_config_file(tmp_path, capsys):
    cfg = {"max_n": 1, "max_l": 0, "max_r": 0, "cases": ["e1", "s2"], "alpha_points": ["1"]}
    path = tmp_path / "sweep.json"
    path.write_text(json.dumps(cfg))
    code, out, _ = run_cli(capsys, "suite", "--config", str(path))
    assert code == 0
    report = json.loads(out)
    assert report["config"]["max_n"] == 1
    assert {r["case"] for r in report["results"]} == {"e1", "s2"}


@pytest.mark.parametrize("cases", [["e1"], ["e1", "s2"]])
def test_suite_config_points_no_case_reads_are_usage_error(tmp_path, capsys, cases):
    # e1 reads neither point set and s2 reads only alpha_points
    cfg = {"max_n": 1, "max_l": 0, "max_r": 0, "cases": cases, "lambda_points": ["0"], "alpha_points": ["1"]}
    path = tmp_path / "sweep.json"
    path.write_text(json.dumps(cfg))
    code, out, err = run_cli(capsys, "suite", "--config", str(path))
    assert code == 2
    assert out == ""
    unread = "lambda_points and alpha_points" if cases == ["e1"] else "lambda_points,"
    assert err.count("\n") == 1 and unread in err and "no selected case reads" in err
    # the rule is the command's: the same dict still loads as a config
    loaded = harness.SweepConfig.from_dict(cfg)
    assert loaded.cases == tuple(cases)
    assert loaded.lambda_points == (F(0),)
    assert loaded.alpha_points == (F(1),)


def test_suite_bad_config_is_usage_error(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    code, _, err = run_cli(capsys, "suite", "--config", str(path))
    assert code == 2
    assert "error:" in err


@pytest.mark.parametrize("content, message", [
    (b"[1, 2]", "bad sweep config: must be a JSON object, got list"),
    (b'"hello"', "bad sweep config: must be a JSON object, got str"),
    (b'{"max-n": 0, "cases": ["t3"]}', "bad sweep config: unknown keys 'max-n'"),
    (b'{"max_n": 1' + b"0" * 5000 + b"}", "Exceeds the limit (4300 digits)"),
    (b'{"cases": ["t3\xff"]}', "can't decode byte 0xff"),
], ids=["list", "string", "unknown-key", "long-int", "not-utf8"])
def test_suite_config_must_be_a_json_object_of_known_keys(tmp_path, capsys, content, message):
    path = tmp_path / "sweep.json"
    path.write_bytes(content)
    code, out, err = run_cli(capsys, "suite", "--config", str(path))
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and message in err and err.count("\n") == 1


@pytest.mark.parametrize("argv, message", [
    (("--cases", "t3", "--lambda-points", "1/2"), "the sweep config sets lambda_points, which no selected case reads"),
    (("--cases", "theorem_le1", "--max-s", "1", "--lambda-points", "1" + "0" * 5000), "Exceeds the limit (4300 digits)"),
], ids=["unread-points", "long-int"])
def test_suite_flags_obey_the_config_rules(capsys, argv, message):
    code, out, err = run_cli(capsys, "suite", "--max-n", "0", "--max-l", "0", "--max-r", "0", *argv)
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and message in err and err.count("\n") == 1


def test_suite_flag_overrides_the_config_file(tmp_path, capsys):
    path = tmp_path / "sweep.json"
    path.write_text(json.dumps({"max_n": 3, "max_l": 0, "max_r": 0, "cases": ["t3", "s2"], "alpha_points": ["2"]}))
    code, out, _ = run_cli(capsys, "suite", "--config", str(path), "--max-n", "1", "--alpha-points", "1/2")
    assert code == 0
    config = json.loads(out)["config"]
    assert (config["max_n"], config["cases"], config["alpha_points"]) == (1, ["t3", "s2"], ["1/2"])
    # alpha_points, set by the file, is read by no case the flag selects
    code, out, err = run_cli(capsys, "suite", "--config", str(path), "--cases", "t3")
    assert (code, out) == (2, "") and "sets alpha_points, which no selected case reads" in err


@pytest.mark.parametrize("argv, message", [
    (("--cases", "s1", "--alpha-points", "1,1,2/2"), "repeated alpha_points: 1"),
    (("--cases", "theorem_le1", "--max-s", "0", "--lambda-points", "1/2,2/4"), "repeated lambda_points: 1/2"),
    (("--cases", "theorem_le1,s1", "--lambda-points", "0,-1/3,0", "--alpha-points", "3,-1/3,-2/6,3"),
     "repeated lambda_points: 0"),
], ids=["alpha", "lambda", "both"])
def test_suite_repeated_point_flag_is_usage_error(capsys, argv, message):
    code, out, err = run_cli(capsys, "suite", "--max-n", "0", "--max-l", "0", "--max-r", "0", *argv)
    assert (code, out) == (2, "")
    assert err == f"error: {message}\n"


def test_suite_repeated_point_in_config_is_usage_error(tmp_path, capsys):
    path = tmp_path / "sweep.json"
    path.write_text(json.dumps({"lambda_points": ["1", "1"]}))
    code, out, err = run_cli(capsys, "suite", "--config", str(path))
    assert (code, out, err) == (2, "", "error: repeated lambda_points: 1\n")
    path.write_text(json.dumps({"max_n": 0, "max_l": 0, "max_r": 0, "cases": ["s2"], "alpha_points": ["-3/2", "1", "-6/4"]}))
    code, out, err = run_cli(capsys, "suite", "--config", str(path))
    assert (code, out, err) == (2, "", "error: repeated alpha_points: -3/2\n")


@pytest.mark.parametrize("route", ["flag", "config"])
def test_suite_repeated_case_id_is_usage_error(tmp_path, capsys, route):
    if route == "flag":
        argv = ["--cases", "t3,e1,t3", "--max-n", "0", "--max-l", "0", "--max-r", "0"]
    else:
        path = tmp_path / "sweep.json"
        path.write_text(json.dumps({"max_n": 0, "max_l": 0, "max_r": 0, "cases": ["t3", "e1", "t3"]}))
        argv = ["--config", str(path)]
    code, out, err = run_cli(capsys, "suite", *argv)
    assert (code, out) == (2, "")
    assert err.endswith("repeated case ids: t3\n") and err.count("\n") == 1


def test_suite_unknown_case_is_usage_error(capsys):
    code, _, _ = run_cli(capsys, "suite", "--cases", "bogus")
    assert code == 2


def test_missing_subcommand_is_usage_error(capsys):
    assert run_cli(capsys)[0] == 2


def test_alpha_pinned_case_evaluates_consistently(capsys):
    # numeric-order evaluation path matches the symbolic residual route
    sym = paired_sum(2, 1, 1, x=3, y=0, z=0, alpha=None)
    assert sym.eval(F(1)) == paired_sum(2, 1, 1, x=3, y=0, z=0, alpha=1)


def eval_record(capsys, *argv):
    code, out, _ = run_cli(capsys, "eval", *argv)
    return code, json.loads(out)


def test_eval_s4_derives_z_from_s(capsys):
    code, record = eval_record(capsys, "--case", "s4", "--s", "2", "--x", "1/3", "--y", "-1")
    assert code == 0
    assert record["params"]["z"] == "11/3"
    assert record["status"] == "verified"
    # s4 has order one; an order flag is a usage error, not ignored
    code, out, err = run_cli(capsys, "eval", "--case", "s4", "--s", "2", "--x", "1/3", "--y", "-1", "--alpha", "2")
    assert (code, out) == (2, "") and "does not read --alpha" in err


@pytest.mark.parametrize("case", ["s1", "cor3a"])
def test_eval_symbolic_order_leaves_z_at_zero(capsys, case):
    code, record = eval_record(capsys, "--case", case, "--alpha", "symbolic", "--x", "1", "--y", "1/3")
    assert code == 0
    assert record["params"]["z"] == "0"
    assert record["params"]["alpha"] == "symbolic"
    assert record["status"] == "not_applicable"


def test_eval_s2_reports_no_z(capsys):
    code, record = eval_record(capsys, "--case", "s2", "--x", "1", "--y", "1/3")
    assert code == 0
    assert list(record["params"]) == ["n", "l", "r", "x", "y", "alpha"]


def test_eval_rational_order_case_defaults_to_order_one(capsys):
    code, record = eval_record(capsys, "--case", "s1")
    assert code == 0
    assert record["params"]["alpha"] == "1"
    assert record["params"]["z"] == "1"
    assert record["status"] == "verified"


def test_index_bounds(capsys):
    limit = harness.TABLE_LIMITS["generalized"]
    size_error = f"error: table size 2*(n+l+r)+s+6 must be <= {limit}, got {limit + 1}\n"
    # rem1 sums over k < m = 1, nothing, so s can reach the limit at no cost
    code, out, _ = run_cli(capsys, "verify", "--case", "rem1", "--s", str(limit - 6))
    assert code == 0 and out.startswith("rem1: verified")
    code, out, err = run_cli(capsys, "verify", "--case", "rem1", "--s", str(limit - 5))
    assert (code, out, err) == (2, "", size_error)
    code, out, err = run_cli(capsys, "verify-theorem", "--s", str(limit - 5), "--certify-lambda")
    assert (code, out, err) == (2, "", size_error)
    zero = ("--max-n", "0", "--max-l", "0", "--max-r", "0")
    code, out, _ = run_cli(capsys, "suite", "--cases", "p1", *zero, "--max-s", str(limit - 6))
    assert code == 0 and json.loads(out)["summary"]["verified"] == 1
    code, out, err = run_cli(capsys, "suite", "--cases", "p1", *zero, "--max-s", str(limit - 5))
    assert (code, out, err) == (2, "", size_error)


def test_m_bound(capsys):
    limit = harness.MAX_M
    code, out, _ = run_cli(capsys, "verify", "--case", "rem1", "--m", str(limit))
    assert code == 0 and out.startswith("rem1: verified")
    code, out, err = run_cli(capsys, "verify", "--case", "rem1", "--m", str(limit + 1))
    assert (code, out, err) == (2, "", f"error: m must be <= {limit}, got {limit + 1}\n")
    code, out, _ = run_cli(capsys, "suite", "--cases", "p1", "--max-n", "0", "--max-m", str(limit))
    assert code == 0
    code, out, err = run_cli(capsys, "suite", "--cases", "p1", "--max-m", str(limit + 1))
    assert (code, out, err) == (2, "", f"error: m must be <= {limit}, got {limit + 1}\n")


def test_suite_max_m_below_one_is_a_usage_error(capsys):
    # m starts at 1: max_m = 0 would give t4 an empty grid and still exit 0
    code, out, err = run_cli(capsys, "suite", "--cases", "t4,t3", "--max-m", "0")
    assert (code, out, err) == (2, "", "error: max_m must be >= 1\n")
    code, out, err = run_cli(capsys, "suite", "--cases", "t3", "--max-n", "-1")
    assert (code, out, err) == (2, "", "error: max_n must be >= 0\n")
    code, out, _ = run_cli(capsys, "suite", "--cases", "t4", "--max-n", "0", "--max-l", "0", "--max-r", "0", "--max-m", "1")
    assert code == 0 and len(json.loads(out)["results"]) == 1


def test_suite_grid_limit(capsys):
    limit = harness.MAX_GRID_POINTS
    # rem1 has 1000 * 5 * 10 = 50,000 points and p1 one more
    argv = ("suite", "--max-n", "0", "--max-r", "4", "--max-s", "9", "--max-m", "1000")
    code, out, err = run_cli(capsys, *argv, "--cases", "rem1,p1")
    assert (code, out, err) == (2, "", f"error: the sweep has {limit + 1} grid points, more than the limit of {limit}\n")


# A value for each eval/verify flag, keyed by the SumSpec field it sets.
FLAG_VALUES = {
    "n": ("--n", "1"), "l": ("--l", "1"), "r": ("--r", "1"), "s": ("--s", "1"), "m": ("--m", "2"),
    "lam": ("--lambda", "1/2"), "x": ("--x", "1/3"), "y": ("--y", "1/2"), "z": ("--z", "1/6"),
    "t": ("--t", "1/2"), "beta": ("--beta", "1/2"), "alpha": ("--alpha", "1"),
}


@pytest.mark.parametrize("case", sorted(CASE_DEFS))
def test_case_flags_are_strict(capsys, case):
    reads = harness.CASE_FIELDS[case]
    own = [arg for field in sorted(reads) for arg in FLAG_VALUES[field]]
    code, out, err = run_cli(capsys, "verify", "--case", case, *own)
    assert code == 0, (case, out, err)
    foreign = sorted(set(FLAG_VALUES) - reads)[0]
    flag, value = FLAG_VALUES[foreign]
    code, out, err = run_cli(capsys, "eval", "--case", case, *own, flag, value)
    assert (code, out) == (2, "")
    assert err.startswith(f"error: case {case} does not read {flag} (it reads ") and err.count("\n") == 1
