"""Acceptance suite: every criterion at its stated (exact-zero) tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS/FAIL
line per criterion.  Every check below compares exact objects over the
rationals; there are no tolerances anywhere.
"""

from contextlib import contextmanager
from fractions import Fraction as F
from itertools import product

from genbern.bernoulli import (
    DEFAULT_TABLE,
    OmegaOperator,
    bernoulli_numbers_binomial_solve,
    classical_bernoulli_numbers,
    integer_alpha_oracle,
)
from genbern.harness import SweepConfig, run_suite
from genbern.identities import (
    IdentityCase,
    SumSpec,
    _gessel,
    _gessel_reindexed,
    _halved_double_sum,
    _join,
    _linear_weight_sum,
    _symmetric_block,
    alternating_power_sum,
    certify_lambda,
    classical_pair_residual,
    halved_tail_sum_residual,
    lucas_pair_sum,
    main_identity_residual,
    paired_sum,
    product_rule_split_residual,
    replay_proof,
    stern_recurrence_sum,
    verify_case,
)
from genbern.poly import Poly, binomial

LAMBDAS_1 = (F(0), F(1), F(2), F(5), F(1, 2), F(-3, 2))
LAMBDAS_3 = (F(0), F(1), F(1, 2))


@contextmanager
def criterion(num, description):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {num}: FAIL - {description}")
        raise
    print(f"ACCEPTANCE {num}: PASS - {description}")


def test_criterion_1_theorem_sweep():
    with criterion(1, "main identity residual zero on the n,l,r,s <= 4 grid, 6 lambda values"):
        DEFAULT_TABLE.grow(18)
        count = 0
        for n, l, r, s in product(range(5), repeat=4):
            for lam in LAMBDAS_1:
                assert main_identity_residual(n, l, r, s, lam).is_zero(), (n, l, r, s, lam)
                count += 1
        assert count == 5**4 * 6  # 3750 residual checks


def test_criterion_2_lambda_universality():
    with criterion(2, "degree-bound multipoint certificate for all n,l,r,s <= 3"):
        for n, l, r, s in product(range(4), repeat=4):
            points = certify_lambda(n, l, r, s)
            assert len(points) == n + l + 2 * r + 2
            assert all(res.is_zero() for _, res in points), (n, l, r, s)


def test_criterion_3_proof_replay():
    with criterion(3, "operator route: umbral images of Delta P and D P match both sides"):
        for n, l, r, s in product(range(4), repeat=4):
            for lam in LAMBDAS_3:
                for name, res in replay_proof(n, l, r, s, lam).items():
                    assert res.is_zero(), (n, l, r, s, lam, name)


def test_criterion_4_explicit_double_sums():
    with criterion(4, "both explicit double-sum closed forms equal the pair sum, n,l,r <= 4, m <= 5"):
        for n, l, r in product(range(5), repeat=3):
            for m in range(1, 6):
                s = paired_sum(n, l, r, m, 0, 0, alpha=1)
                assert s == _join(_gessel(n, l, r, m)), (n, l, r, m)
                assert s == _join(_gessel_reindexed(n, l, r, m)), (n, l, r, m)


def test_criterion_5_symmetric_closed_forms():
    with criterion(5, "odd-r single-block closed forms (halved and folded) with adjudication note"):
        for r in (1, 3):
            for n in range(6):
                for m in range(1, 6):
                    assert _join(_symmetric_block(n, r, m, DEFAULT_TABLE)) == _join(_halved_double_sum(n, r, m)), (n, r, m)
                    # ges1's corrected reading is the block minus the folded form
                    res = verify_case(IdentityCase("ges1", SumSpec(n=n, r=r, m=m)))
                    assert res.readings["sign_corrected"] == "verified", (n, r, m)
        # the fold uses the even-total-degree cancellation
        for m in range(1, 6):
            for a in range(4):
                for b in range(4):
                    if (a + b) % 2 == 0:
                        assert alternating_power_sum(m, a, b) == 0
        # adjudication: the printed leading-term base needs correction
        report = run_suite(SweepConfig(max_n=2, max_r=3, max_m=3, cases=("ges1",)))
        flagged = [res for res in report.results if res.readings is not None]
        assert flagged, "expected adjudicated entries"
        assert any(res.readings["as_printed"] == "counterexample" for res in flagged)
        assert all(res.readings["sign_corrected"] == "verified" for res in flagged)
        assert all("k*(k-m)" in res.note for res in flagged)


def test_criterion_6_classical_catalog():
    with criterion(6, "classical catalog exact on its stated grids"):
        for n, l in product(range(7), range(7)):
            for r in range(5):
                assert paired_sum(n, l, r, 1, 0, 0, alpha=1) == 0, ("t3", n, l, r)
        nums = classical_bernoulli_numbers(21)
        for n in range(21):
            binom_sum = sum(binomial(n, k) * nums[k] for k in range(n + 1))
            delta = 1 if n == 1 else 0
            assert binom_sum == nums[n] + delta                      # binomial recursion
            assert (-1) ** n * nums[n] == nums[n] + delta            # sign flip
            assert binom_sum == (-1) ** n * nums[n]                  # autoduality
        for n in range(1, 11):
            assert nums[2 * n + 1] == 0                              # odd entries vanish
        for n, l in product(range(9), range(9)):
            assert lucas_pair_sum(n, l) == 0, ("e1", n, l)
        for n in range(1, 21):
            assert stern_recurrence_sum(n) == 0, ("k3", n)
        for n, l in product(range(5), range(5)):
            for r in range(5):
                assert paired_sum(n, l, r, 1, 0, 0, alpha=1) == 0, ("s3", n, l, r)
            for m in range(1, 6):
                assert paired_sum(n, l, 0, m, 0, 0, alpha=1) == F(_linear_weight_sum(n, l, m)), (
                    "t230", n, l, m,
                )


def test_criterion_7_applications():
    with criterion(7, "application corollaries exact on their validity domains"):
        # order-one pair corollary
        for n, l, r, s in product(range(4), repeat=4):
            for lam in (F(2), F(1, 2)):
                for x0 in (F(0), F(1, 3)):
                    assert classical_pair_residual(n, l, r, s, lam, x0) == 0, (n, l, r, s, lam, x0)
        # beta-shifted corollary, both sign readings, plus the product-rule split
        for n, l, r in product(range(4), repeat=3):
            assert product_rule_split_residual(n, l, r).is_zero(), ("split", n, l, r)
            for m in (1, 2):
                for beta in (F(0), F(1, 2)):
                    res = verify_case(IdentityCase("nielsen_f10", SumSpec(n=n, l=l, r=r, m=m, beta=beta)))
                    assert res.readings == {"as_printed": "verified", "from_main_identity": "verified"}, (
                        n, l, r, m, beta,
                    )
        # balanced-argument family on constraint-satisfying rational triples
        triples = ((F(1), F(0)), (F(1, 2), F(1, 3)), (F(-2), F(1)))
        for n, l, r in product(range(3), range(3), range(4)):
            for a in (F(1), F(2), F(1, 2)):
                for x, y in triples:
                    z = a - x - y
                    spec = SumSpec(n=n, l=l, r=r, alpha=a, x=x, y=y, z=z)
                    assert verify_case(IdentityCase("s1", spec)).verified, ("s1", n, l, r, a, x, y)
                    assert verify_case(IdentityCase("s2", spec)).verified, ("s2", n, l, r, a, x, y)
            for s in range(3):
                for x, y in triples:
                    spec = SumSpec(n=n, l=l, r=r, s=s, x=x, y=y, z=s + 1 - x - y)
                    assert verify_case(IdentityCase("s4", spec)).verified, ("s4", n, l, r, s, x, y)
            if r >= 1:
                for x, y in triples:
                    spec = SumSpec(n=n, l=l, r=r, alpha=F(1), x=x, y=y, z=1 - x - y)
                    assert verify_case(IdentityCase("cor3a", spec)).verified, ("cor3a", n, l, r)
                for t in (F(0), F(1, 2), F(-1, 3)):
                    spec = SumSpec(n=n, l=l, r=r, t=t)
                    assert verify_case(IdentityCase("cor3b", spec)).verified, ("cor3b", n, l, r, t)
        for n in range(3):
            for r in (1, 3):
                for t in (F(0), F(1, 2), F(-1, 3)):
                    res = verify_case(IdentityCase("s20", SumSpec(n=n, r=r, t=t)))
                    assert res.verified, ("s20", n, r, t)
        # halved tail sums, including the hand-checkable value -1/4
        nums = classical_bernoulli_numbers(3)
        hand = 2 * nums[1] / 2 + 6 * nums[2] / 4 + 4 * nums[3] / 8
        assert hand == F(-1, 4)
        for r in (1, 3):
            for n in range(7):
                assert halved_tail_sum_residual(n, r) == 0, ("fi2", n, r)
                for x0 in (F(0), F(1, 3), F(-1, 2)):
                    res = verify_case(IdentityCase("cor1", SumSpec(n=n, r=r, x=x0)))
                    assert res.readings["corrected"] == "verified", ("cor1", n, r, x0)


def test_criterion_8_oracle_equivalence():
    with criterion(8, "independent oracles agree with the symbolic and recurrence routes"):
        for a in range(6):
            oracle = integer_alpha_oracle(12, a)
            symbolic = [DEFAULT_TABLE.number(n).eval(F(a)) for n in range(13)]
            assert oracle == symbolic, a
        nums = classical_bernoulli_numbers(30)
        assert bernoulli_numbers_binomial_solve(30) == nums
        assert nums[12] == F(-691, 2730)


def test_criterion_9_operator_laws():
    with criterion(9, "derivative and difference commutation with the umbral operator, n <= 15"):
        om = OmegaOperator(0)
        om_down = OmegaOperator(-1)
        for n in range(16):
            xn = Poly("x", (0,) * n + (1,))
            assert om(xn).derive() == om(xn.derive()), n
            assert om(xn.delta()) == om_down(xn.derive()), n


def test_criterion_10_adjudication_outputs():
    with criterion(10, "adjudication records exist and one reading of each item verifies"):
        report = run_suite(
            SweepConfig(max_n=2, max_l=2, max_r=2, max_s=1, max_m=3,
                        cases=("t24", "k5", "nielsen_f10", "ges1"))
        )
        by_case = {}
        for res in report.results:
            if res.readings is not None:
                by_case.setdefault(res.case.id, []).append(res)
        assert set(by_case) == {"t24", "k5", "nielsen_f10", "ges1"}
        for case_id, entries in by_case.items():
            for res in entries:
                assert res.status == "verified", (case_id, res.case.params)
                assert res.readings[res.reading] == "verified"
                assert res.note
        # the recorded verdicts state which reading verifies
        assert all(r.reading == "first_block" for r in by_case["t24"] if r.readings["literal"] == "counterexample")
        assert any(r.readings["literal"] == "counterexample" for r in by_case["t24"])
        assert all(r.readings["literal"] == "verified" for r in by_case["k5"])
        assert all(r.readings["as_printed"] == "verified" for r in by_case["nielsen_f10"])
        assert all(r.readings["sign_corrected"] == "verified" for r in by_case["ges1"])
        assert report.summary["counterexample"] == 0
        assert report.summary["adjudicated"] == len([r for rs in by_case.values() for r in rs])
