"""Identity catalog: spec'd instances, frozen values, and adjudications."""

import math
from fractions import Fraction as F

import pytest

from genbern.bernoulli import OmegaOperator, bernoulli_numbers_binomial_solve, classical_bernoulli_numbers
from genbern.identities import (
    CASE_DEFS,
    CASE_IDS,
    IdentityCase,
    NegativePowerError,
    SumSpec,
    _monomial_value,
    alternating_power_sum,
    certify_lambda,
    chen_sun_term,
    classical_pair_residual,
    gessel_double_sum,
    gessel_double_sum_reindexed,
    gessel_halved_double_sum,
    halved_tail_sum_residual,
    kaneko_weighted_term,
    lambda_degree_bound,
    leibniz_double_sum,
    linear_weight_double_sum,
    lucas_pair_sum,
    main_identity_lhs,
    main_identity_residual_at,
    main_identity_rhs,
    order_shift_pair_residual,
    paired_sum,
    product_rule_split_residual,
    q_block_sum,
    replay_proof,
    scaled_ratio_sum_residual,
    stern_recurrence_sum,
    symbolic_weight_pair_residual,
    symmetric_block_sum,
    telescoping_core,
    truncated_pair_sum,
    verify_case,
    weighted_lucas_sum,
    _window_core,
)
from genbern.poly import Poly, X, alpha_substituted, binomial, poly_a
from genbern.textform import format_poly


def run(case_id, **kw):
    return verify_case(IdentityCase(case_id, SumSpec(**kw)))


# -- the paired sum -------------------------------------------------------------


def test_paired_sum_unit_argument_vanishes():
    assert paired_sum(1, 0, 0, 1, 0, 0, alpha=1) == 0
    for n in range(5):
        for l in range(5):
            for r in range(4):
                assert paired_sum(n, l, r, 1, 0, 0, alpha=1) == 0


def test_paired_sum_weight_equal_to_order_vanishes():
    # the corrected symbolic-weight identity, evaluated at rational stand-ins
    for a in (F(2), F(1, 2), F(-3)):
        for n in range(4):
            for l in range(4):
                assert paired_sum(n, l, 0, a, 0, 0, alpha=a) == 0


def test_paired_sum_matches_explicit_double_sum():
    assert paired_sum(2, 1, 1, 3, 0, 0, alpha=1) == gessel_double_sum(2, 1, 1, 3)


def test_paired_sum_symbolic_specializes_to_numeric():
    for a in (F(1), F(3), F(-1, 2)):
        sym = paired_sum(2, 1, 1, x=3, y=F(1, 2), z=F(1, 3), alpha=None)
        num = paired_sum(2, 1, 1, x=3, y=F(1, 2), z=F(1, 3), alpha=a)
        assert sym.eval(a) == num


def test_paired_sum_index_swap_symmetry():
    # S(n,l,r; x,y,z) = (-1)^(l+n+r+1) S(l,n,r; x,z,y)
    for n, l, r in ((2, 1, 1), (0, 3, 2), (1, 1, 0)):
        sign = (-1) ** (l + n + r + 1)
        lhs = paired_sum(n, l, r, F(1, 2), F(1, 3), F(-2), alpha=F(2))
        rhs = paired_sum(l, n, r, F(1, 2), F(-2), F(1, 3), alpha=F(2))
        assert lhs == sign * rhs


# -- main identity ---------------------------------------------------------------


def test_main_identity_trivial_instances():
    assert main_identity_lhs(0, 0, 0, 0, 0).is_zero()
    assert main_identity_rhs(0, 0, 0, 0, 0).is_zero()
    # empty window: the right side vanishes for s = 0, and so does the left
    for lam in (F(0), F(2), F(-1, 2)):
        assert main_identity_rhs(1, 1, 1, 0, lam).is_zero()
        assert main_identity_lhs(1, 1, 1, 0, lam).is_zero()


def test_main_identity_frozen_small_instance():
    # rhs(1,1,0,1,0) = Omega_(a-1)(D (x-1)^2) = 2 B_1^(a-1)(x) - 2 = 2x - a - 1
    rhs = main_identity_rhs(1, 1, 0, 1, 0)
    assert rhs == Poly("x", (poly_a(-1, -1), F(2)))
    assert format_poly(rhs) == "(-1 - a) + (2)*x"
    assert main_identity_lhs(1, 1, 0, 1, 0) == rhs
    # for n = l = 0 the window core is constant, so the derivative kills it
    assert main_identity_rhs(0, 0, 0, 1, 0).is_zero()


def test_main_identity_two_sides_independent_instance():
    lhs = main_identity_lhs(1, 0, 0, 1, 1)
    rhs = main_identity_rhs(1, 0, 0, 1, 1)
    assert not lhs.is_zero()
    assert lhs == rhs


def test_main_identity_numeric_route_agrees_with_symbolic():
    for a in (F(1), F(4), F(-2, 3)):
        sym = main_identity_lhs(2, 1, 1, 2, F(1, 2)) - main_identity_rhs(2, 1, 1, 2, F(1, 2))
        num = main_identity_residual_at(2, 1, 1, 2, F(1, 2), a)
        assert alpha_substituted(sym, a) == num
        assert num.is_zero()


def test_rhs_window_additivity():
    # rhs at s1+s2 equals rhs at s1 plus the umbral image of the remaining
    # window k in {s1+1..s1+s2}
    n, l, r, lam = 1, 2, 1, F(1, 2)
    s1, s2 = 2, 3
    total = main_identity_rhs(n, l, r, s1 + s2, lam)
    head = main_identity_rhs(n, l, r, s1, lam)
    tail_core = _window_core(n, l, r, range(s1 + 1, s1 + s2 + 1), 0, lam).derive(r + 1)
    tail = OmegaOperator(-1)(tail_core)  # r! = 1 here
    assert total == head + tail


def test_window_core_matches_product_expansion():
    # the integer expansion against the ring products it replaced
    for n in range(5):
        for l in range(5):
            for r in range(5):
                for s in range(4):
                    for lam in (F(0), F(1), F(-2), F(1, 2), F(-2, 3)):
                        expected = Poly("x")
                        for k in range(1, s + 1):
                            expected = expected + (X - k) ** (l + r) * (X + (lam - k)) ** (n + r)
                        got = _window_core(n, l, r, range(1, s + 1), 0, lam)
                        assert got == expected, (n, l, r, s, lam)
                        assert all(type(c) is F for c in got.coeffs)
                # the order-shift core: two rational offsets, one term
                for m in (1, 2, 3):
                    for beta in (F(0), F(1), F(1, 2), F(-2, 3), F(3)):
                        expected = (X + (beta - 1)) ** (l + r) * (X + (m - 1 - beta)) ** (n + r)
                        got = _window_core(n, l, r, (0,), beta - 1, m - 1 - beta)
                        assert got == expected, (n, l, r, m, beta)
                        assert all(type(c) is F for c in got.coeffs)


def test_proof_replay_checks():
    for params in ((0, 0, 0, 0, F(0)), (1, 1, 1, 1, F(2)), (2, 1, 0, 2, F(1, 2)), (0, 2, 1, 3, F(-1))):
        checks = replay_proof(*params)
        assert set(checks) == {"operator_link", "lhs_match", "rhs_match"}
        for name, residual in checks.items():
            assert residual.is_zero(), (params, name)


def test_telescoping_collapse():
    # Delta P = P_0 - P_s for the windowed core
    n, l, r, s, lam = 2, 1, 1, 3, F(1, 2)
    p = telescoping_core(n, l, r, s, lam)
    import math

    def window_term(k):
        return ((X - k) ** (l + r) * (X + (lam - k)) ** (n + r)).derive(r) * F(1, math.factorial(r))

    assert p.delta() == window_term(0) - window_term(s)


def test_certify_lambda_point_counts():
    pts = certify_lambda(0, 0, 0, 0)
    assert len(pts) == 2 and all(res.is_zero() for _, res in pts)
    pts = certify_lambda(1, 2, 1, 2)
    assert len(pts) == 7 and all(res.is_zero() for _, res in pts)
    # degree bound n+l+2r+1 = 11 needs 12 evaluation points
    assert lambda_degree_bound(2, 2, 3) == 11
    pts = certify_lambda(2, 2, 3, 1)
    assert len(pts) == 12 and all(res.is_zero() for _, res in pts)


# -- explicit closed forms --------------------------------------------------------


def test_double_sums_empty_at_m_one():
    assert gessel_double_sum(2, 1, 1, 1) == 0
    assert gessel_double_sum_reindexed(2, 1, 1, 1) == 0
    assert gessel_halved_double_sum(2, 1, 1) == 0
    assert q_block_sum(2, 1, 1) == 0


def test_double_sum_equals_pair_sum_instance():
    assert gessel_double_sum(1, 1, 1, 2) == paired_sum(1, 1, 1, 2, 0, 0, alpha=1)


def test_double_sum_grid():
    for n in range(4):
        for l in range(4):
            for r in range(3):
                for m in range(1, 5):
                    s = paired_sum(n, l, r, m, 0, 0, alpha=1)
                    assert s == gessel_double_sum(n, l, r, m)
                    assert s == gessel_double_sum_reindexed(n, l, r, m)


def test_symmetric_block_closed_forms():
    # frozen hand instance: n=1, r=1, m=2
    assert symmetric_block_sum(1, 1, 2) == -2
    assert gessel_halved_double_sum(1, 1, 2) == -2
    assert q_block_sum(1, 1, 2, corrected=True) == -2
    for n in range(4):
        for r in (1, 3):
            for m in range(1, 5):
                block = symmetric_block_sum(n, r, m)
                assert block == gessel_halved_double_sum(n, r, m)
                assert block == q_block_sum(n, r, m, corrected=True)
                # odd r collapses the pair sum onto twice the block
                assert paired_sum(n, n, r, m, 0, 0, alpha=1) == 2 * block


def test_q_block_printed_reading_fails_where_sign_matters():
    # exponent n+(r-1)/2 odd makes the printed base k(m-k) wrong
    assert q_block_sum(1, 1, 2, corrected=False) == 6
    assert symmetric_block_sum(1, 1, 2) == -2
    # even exponent hides the difference
    assert q_block_sum(1, 3, 2, corrected=False) == q_block_sum(1, 3, 2, corrected=True)


def test_alternating_power_sum():
    assert alternating_power_sum(5, 2, 4) == 0
    assert alternating_power_sum(1, 3, 3) == 0
    assert alternating_power_sum(7, 0, 6) == 0
    assert alternating_power_sum(4, 1, 2) != 0  # odd total degree need not vanish


def test_negative_power_guard():
    with pytest.raises(NegativePowerError):
        _monomial_value(F(1), F(2), -1)
    assert _monomial_value(F(0), F(2), -1) == 0


# -- classical catalog -------------------------------------------------------------


def test_lucas_pair_sum_examples():
    assert lucas_pair_sum(2, 3) == 0
    for n in range(9):
        for l in range(9):
            assert lucas_pair_sum(n, l) == 0


def test_truncated_pair_sum():
    for n in range(1, 6):
        for l in range(1, 6):
            assert truncated_pair_sum(n, l) == 0


def test_stern_recurrence_hand_instance():
    # n=1: C(2,0)*2*B_1 + C(2,1)*3*B_2 = -1 + 1 = 0
    nums = classical_bernoulli_numbers(2)
    assert binomial(2, 0) * 2 * nums[1] + binomial(2, 1) * 3 * nums[2] == 0
    for n in range(1, 21):
        assert stern_recurrence_sum(n) == 0


def test_weighted_lucas_values():
    # m=2, n=1: 4*2*B_1 + 2*3*B_2 + 4*B_3 = -4 + 1 + 0 = ... computed exactly
    assert weighted_lucas_sum(1, 2) == -2
    assert weighted_lucas_sum(1, 1) == 0


def test_linear_weight_double_sum_example():
    # (n,l,m) = (2,2,3): sum over k of (4k-6) k (k-3) = 4 - 4 = 0
    assert linear_weight_double_sum(2, 2, 3) == 0
    assert paired_sum(2, 2, 0, 3, 0, 0, alpha=1) == 0
    for n in range(5):
        for l in range(5):
            for m in range(1, 6):
                assert paired_sum(n, l, 0, m, 0, 0, alpha=1) == linear_weight_double_sum(n, l, m)


def test_kaneko_weighted_term_against_block():
    # the closed form matches the single block for r = 1
    for n in range(5):
        for m in range(1, 6):
            closed = sum((kaneko_weighted_term(k, m, n) for k in range(1, m)), F(0))
            assert weighted_lucas_sum(n, m) == closed
            assert weighted_lucas_sum(n, m) == symmetric_block_sum(n, 1, m)


def test_chen_sun_extra_term_telescopes():
    for n in range(4):
        for m in range(1, 6):
            total = sum((chen_sun_term(k, m, n, True) for k in range(1, m)), F(0))
            assert total == q_block_sum(n, 3, m, corrected=True)
            assert symmetric_block_sum(n, 3, m) == total


# -- adjudicated case records -------------------------------------------------------


def test_t24_adjudication():
    res = run("t24", n=1, m=2)
    assert res.status == "verified"
    assert res.reading == "first_block"
    assert res.readings == {"literal": "counterexample", "first_block": "verified"}
    # the literal prefactor claim really is off: (n+1)S = 8 vs sum = -2
    assert (1 + 1) * paired_sum(1, 2, 1, 2, 0, 0, alpha=1) == 8
    assert weighted_lucas_sum(1, 2) == -2


def test_k5_adjudication():
    for n in range(6):
        res = run("k5", n=n)
        assert res.status == "verified"
        assert res.readings["literal"] == "verified"
        assert res.readings["first_block"] == "verified"


def test_ges1_adjudication():
    res = run("ges1", n=1, r=1, m=2)
    assert res.status == "verified"
    assert res.reading == "sign_corrected"
    assert res.readings["as_printed"] == "counterexample"
    res = run("ges1", n=0, r=2, m=2)
    assert res.status == "not_applicable"


def test_c1_adjudication():
    res = run("c1", n=0, m=2)
    assert res.status == "verified"
    assert res.reading == "sign_corrected"
    assert res.readings["as_printed"] == "counterexample"


def test_cor1_adjudication():
    res = run("cor1", n=1, r=1, x=F(0))
    assert res.status == "verified" and res.reading == "corrected"
    assert res.readings["as_printed"] == "counterexample"
    assert run("cor1", n=1, r=1, x=F(1)).status == "not_applicable"
    assert run("cor1", n=1, r=2, x=F(0)).status == "not_applicable"


def test_cor3_adjudications():
    res = run("cor3a", n=1, l=1, r=2, alpha=F(1), x=F(1), y=F(1, 2), z=F(-1, 2))
    assert res.status == "verified" and res.reading == "corrected"
    assert res.readings["as_printed"] == "counterexample"
    # r = 1: both readings coincide, the printed one verifies
    res = run("cor3b", n=1, l=1, r=1, t=F(1, 2))
    assert res.readings == {"corrected": "verified", "as_printed": "verified"}
    assert res.reading == "as_printed"
    res = run("cor3b", n=1, l=1, r=3, t=F(1, 2))
    assert res.reading == "corrected"


def test_f10_adjudication_both_readings_verify():
    res = run("nielsen_f10", n=1, l=2, r=1, m=2, beta=F(1, 2))
    assert res.status == "verified"
    assert res.readings == {"as_printed": "verified", "from_main_identity": "verified"}


# -- applications ---------------------------------------------------------------------


def test_classical_pair_residual_empty_window():
    assert classical_pair_residual(2, 1, 1, 0, F(2), F(0)) == 0
    # both sides are literally zero at s = 0: lhs cancels, rhs is empty
    assert classical_pair_residual(1, 1, 0, 0, F(1), F(1, 3)) == 0


def test_classical_pair_specializes_to_double_sum():
    # lam = m, s = m-1, x0 = 0 reproduces the explicit double sum
    for m in (1, 2, 3):
        assert classical_pair_residual(1, 1, 1, m - 1, F(m), F(0)) == 0
        lhs_sum = paired_sum(1, 1, 1, m, 0, 0, alpha=1)
        assert lhs_sum == gessel_double_sum(1, 1, 1, m)


def test_classical_pair_rational_instance():
    assert classical_pair_residual(1, 2, 1, 2, F(1, 2), F(1, 3)) == 0


def test_product_rule_split_grid():
    for n in range(4):
        for l in range(4):
            for r in range(4):
                assert product_rule_split_residual(n, l, r).is_zero()


def test_order_shift_pair_small_instance():
    res = order_shift_pair_residual(1, 1, 0, 1, F(1, 2))
    assert res.is_zero()


def test_order_shift_pair_is_shifted_main_identity():
    # the beta-shifted corollary is the main identity at s=1, lam=m-2b,
    # with x replaced by x+beta on both (already equal) sides
    n, l, r, m, beta = 1, 2, 1, 3, F(1, 2)
    lam = m - 2 * beta
    lhs_main = main_identity_lhs(n, l, r, 1, lam)
    rhs_main = main_identity_rhs(n, l, r, 1, lam)
    assert lhs_main.shift(beta) == rhs_main.shift(beta)
    assert order_shift_pair_residual(n, l, r, m, beta).is_zero()


def test_balanced_triples():
    assert run("s1", n=2, l=1, r=1, alpha=F(2), x=F(1), y=F(1, 3), z=F(2, 3)).status == "verified"
    assert run("s1", n=2, l=1, r=1, alpha=F(2), x=F(1), y=F(1, 3), z=F(0)).status == "not_applicable"
    assert run("s2", n=2, l=1, r=2, alpha=F(1, 2), x=F(1), y=F(1, 3)).status == "verified"
    assert run("s4", n=1, l=2, r=1, s=2, x=F(1, 2), y=F(1), z=F(3, 2)).status == "verified"
    assert run("s4", n=1, l=2, r=1, s=2, x=F(1, 2), y=F(1), z=F(0)).status == "not_applicable"


def test_balanced_triple_reduces_to_autoduality():
    # r=0, order 1, (x,y,z) = (1,0,0): the antisymmetric form restates the
    # binomial self-duality of the classical numbers
    from genbern.identities import balanced_triple_residual_antisym

    for n in range(6):
        assert balanced_triple_residual_antisym(n, 0, 0, F(1), F(1), F(0)) == 0


def test_reflection_route_between_balanced_forms():
    from genbern.identities import reflection_route_residuals

    for res in reflection_route_residuals(2, 1, 1, F(2), F(1), F(1, 3)):
        assert res == 0


def test_odd_order_tail_example():
    # n=2, r=1, t=0, order 1: sum_k C(3,k) C(k+3,1) B_{2+k} = -C(6,1) B_5 = 0
    nums = classical_bernoulli_numbers(5)
    lhs = sum(binomial(3, k) * binomial(k + 3, 1) * nums[2 + k] for k in range(3))
    assert lhs == 0 == -binomial(6, 1) * nums[5]
    assert run("s20", n=2, r=1, t=F(0)).status == "verified"
    assert run("s20", n=2, r=1, t=F(0), alpha=F(1)).status == "verified"
    assert run("s20", n=1, r=3, t=F(1, 2)).status == "verified"


def test_halved_tail_hand_value():
    # n=1, r=1: lhs = 2 B_1/2 + 6 B_2/4 + 4 B_3/8 = -1/4 = rhs
    nums = classical_bernoulli_numbers(3)
    lhs = 2 * nums[1] / 2 + 6 * nums[2] / 4 + 4 * nums[3] / 8
    assert lhs == F(-1, 4)
    rhs = F(-1, 16) * 2 * binomial(2, 1)
    assert rhs == F(-1, 4)
    assert halved_tail_sum_residual(1, 1) == 0


def test_tail_sums_index_change_equivalence():
    # the x = 0 weighted sum is 2^n times the tail sum
    for n in range(5):
        for r in (1, 3):
            weighted_lhs_minus_rhs = scaled_ratio_sum_residual(n, r, F(0), corrected=True)
            assert weighted_lhs_minus_rhs == 0
            assert halved_tail_sum_residual(n, r) == 0


def test_symbolic_weight_pair():
    assert symbolic_weight_pair_residual(0, 1).is_zero()
    assert symbolic_weight_pair_residual(2, 3).is_zero()
    # order 1 reduces to the Lucas pair relation
    assert symbolic_weight_pair_residual(2, 3).eval(1) == lucas_pair_sum(2, 3)


def test_every_case_id_has_verifier():
    assert set(CASE_IDS) == set(CASE_DEFS)
    expected = {
        "t3", "t4", "tg4", "t5", "ges1", "rem1", "p1", "e1", "e2", "k5", "k3",
        "s3", "t230", "t24", "c1", "theorem_le1", "proof_replay", "app1",
        "nielsen_f10", "agoh_leibniz", "s1", "s2", "s4", "cor3a", "cor3b",
        "s20", "cor1", "fi2", "neto_corrected", "vassilev",
    }
    assert set(CASE_IDS) == expected


# -- an independent literal evaluator --------------------------------------------
# Plain loops over math.comb and the binomial-solve oracle, written from the
# displayed formulas without the catalog's block and double-sum kernels, so
# that the kernels are compared against code that does not share them.

ORACLE_NUMS = bernoulli_numbers_binomial_solve(24)


def _b(n, y=0):
    """B_n(y) = sum_j C(n,j) B_(n-j) y^j."""
    return sum(math.comb(n, j) * ORACLE_NUMS[n - j] * F(y) ** j for j in range(n + 1))


def test_kernels_against_literal_evaluator():
    for n in range(4):
        for l in range(4):
            assert lucas_pair_sum(n, l) == sum(math.comb(n, k) * _b(l + k) for k in range(n + 1)) + (-1) ** (
                l + n + 1
            ) * sum(math.comb(l, k) * _b(n + k) for k in range(l + 1))
            assert truncated_pair_sum(n, l) == sum(math.comb(n, k) * _b(l + k) for k in range(n)) + (-1) ** (
                l + n + 1
            ) * sum(math.comb(l, k) * _b(n + k) for k in range(l))
        assert stern_recurrence_sum(n) == sum(
            math.comb(n + 1, k) * (n + k + 1) * _b(n + k) for k in range(n + 1)
        )
        for r in range(4):
            for m in range(1, 5):
                assert symmetric_block_sum(n, r, m) == sum(
                    F(m) ** (n + r - k) * math.comb(n + r, k) * math.comb(n + k + r, r) * _b(n + k)
                    for k in range(n + r + 1)
                )


def test_paired_sum_against_literal_evaluator():
    x, y, z = F(2, 3), F(1, 3), F(-1, 2)
    for n in range(4):
        for l in range(4):
            for r in range(4):
                first = sum(
                    x ** (n + r - k) * math.comb(n + r, k) * math.comb(l + k + r, r) * _b(l + k, y)
                    for k in range(n + r + 1)
                )
                second = sum(
                    x ** (l + r - k) * math.comb(l + r, k) * math.comb(n + k + r, r) * _b(n + k, z)
                    for k in range(l + r + 1)
                )
                assert paired_sum(n, l, r, x, y, z, alpha=1) == first + (-1) ** (l + n + r + 1) * second


def test_double_sums_against_literal_evaluator():
    # u and v are not integers, so no base k - u or k - v is zero and every
    # formally negative power is a finite Fraction times a zero binomial.
    u, v = F(1, 3), F(-1, 2)
    for n in range(4):
        for l in range(4):
            for r in range(4):
                for m in range(1, 5):
                    assert gessel_double_sum(n, l, r, m) == (r + 1) * sum(
                        F(-1) ** (l + j - 1)
                        * math.comb(n + r, j)
                        * math.comb(l + r, r + 1 - j)
                        * F(k) ** (l + j - 1)
                        * F(m - k) ** (n + r - j)
                        for k in range(1, m)
                        for j in range(r + 2)
                    )
                for s in range(3):
                    assert leibniz_double_sum(n, l, r, s, u, v) == (r + 1) * sum(
                        math.comb(n + r, j) * math.comb(l + r, r + 1 - j) * (u - k) ** (l + j - 1) * (v - k) ** (n + r - j)
                        for k in range(1, s + 1)
                        for j in range(r + 2)
                    )
