"""Identity catalog: spec'd instances, frozen values, and adjudications."""

import math
import random
import sys
import threading
from collections import Counter
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from genbern.bernoulli import (
    DEFAULT_TABLE,
    GenBernTable,
    OmegaOperator,
    _row,
    bernoulli_numbers_binomial_solve,
    classical_bernoulli_numbers,
    integer_alpha_oracle,
)
from genbern.harness import SweepConfig, enumerate_cases, run_suite
from genbern.identities import (
    CASE_DEFS,
    CASE_IDS,
    IdentityCase,
    SumSpec,
    _block,
    _difference,
    _double_sum,
    _gessel,
    _gessel_reindexed,
    _halved_double_sum,
    _join,
    _kaneko_term,
    _leibniz,
    _linear_weight_sum,
    _parts,
    _poly_block,
    _symmetric_block,
    alternating_power_sum,
    balanced_triple_residual_antisym,
    balanced_triple_residual_folded,
    certify_lambda,
    classical_pair_residual,
    halved_tail_sum_residual,
    lambda_degree_bound,
    lucas_pair_sum,
    main_identity_lhs,
    main_identity_residual,
    main_identity_rhs,
    paired_sum,
    product_rule_split_residual,
    replay_proof,
    stern_recurrence_sum,
    symbolic_weight_pair_residual,
    telescoping_core,
    truncated_pair_sum,
    verify_case,
    _window_core,
)
from genbern.poly import ALPHA, Poly, X, alpha_substituted, binomial, from_rows, lincomb, poly_a
from genbern.textform import format_poly


def run(case_id, **kw):
    return verify_case(IdentityCase(case_id, SumSpec(**kw)))


def readings(case_id, table=DEFAULT_TABLE, **kw):
    """The record's residual, reading -> residual, outside verify_case."""
    return CASE_DEFS[case_id].residual(SumSpec(**kw), table)


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
    assert paired_sum(2, 1, 1, 3, 0, 0, alpha=1) == _join(_gessel(2, 1, 1, 3))


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


def _main_identity_at_order(n, l, r, s, lam, alpha, table):
    """Oracle for theorem_le1's record at a rational order: both sides built
    over QQ[x] from the specialized polynomials by Poly arithmetic.  The
    left side is the two-block sum S(n, l, r; lam, x, alpha+s-lam-x), its
    second block read by the reflection B_j(alpha+s-lam-x) = (-1)^j
    B_j(x+lam-s) as the record reads it (on a wrong table the reflection
    fails, and the record is defined by the reflected reading).  The right
    side is the umbral image at order alpha-1 of D^(r+1)/r! of the window
    sum, expanded term by term."""
    lam, alpha = F(lam), F(alpha)
    lhs = Poly("x")
    for k in range(n + r + 1):
        lhs = lhs + table.poly_at(l + k, alpha) * (lam ** (n + r - k) * binomial(n + r, k) * binomial(l + k + r, r))
    for k in range(l + r + 1):
        weight = (-1) ** (l + r + k + 1) * lam ** (l + r - k) * binomial(l + r, k) * binomial(n + k + r, r)
        lhs = lhs + table.poly_at(n + k, alpha).shift(lam - s) * weight
    window = sum(((X - k) ** (l + r) * (X + (lam - k)) ** (n + r) for k in range(1, s + 1)), Poly("x"))
    dp = window.derive(r + 1) * F(1, math.factorial(r))
    rhs = sum((c * table.poly_at(k, alpha - 1) for k, c in enumerate(dp.coeffs)), Poly("x"))
    return lhs - rhs


@pytest.mark.parametrize("fresh", [GenBernTable, lambda: _generalized_plus_one(1)], ids=["right", "wrong"])
def test_main_identity_record_at_a_rational_order_matches_the_specialized_sides(fresh):
    table, nonzero = fresh(), 0
    record = CASE_DEFS["theorem_le1"].residual
    for n, l, r, s, lam in ((2, 1, 1, 2, F(1, 2)), (1, 2, 1, 2, F(1, 2)), (0, 1, 2, 1, F(-2, 3)), (2, 2, 0, 1, F(3))):
        for alpha in (F(1), F(4), F(-2, 3)):
            got = record(SumSpec(n=n, l=l, r=r, s=s, lam=lam, alpha=alpha), table)
            assert got == _main_identity_at_order(n, l, r, s, lam, alpha, table), (n, l, r, s, lam, alpha)
            nonzero += not got.is_zero()
    # zero on the right table; on the wrong one the check compares nonzero residuals
    assert nonzero == 0 if fresh is GenBernTable else nonzero > 0


def test_rhs_window_additivity():
    # rhs at s1+s2 equals rhs at s1 plus the umbral image of the remaining
    # window k in {s1+1..s1+s2}
    n, l, r, lam = 1, 2, 1, F(1, 2)
    s1, s2 = 2, 3
    total = main_identity_rhs(n, l, r, s1 + s2, lam)
    head = main_identity_rhs(n, l, r, s1, lam)
    tail_core = _window_core(n, l, r, range(s1 + 1, s1 + s2 + 1), lam).derive(r + 1)
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
                        got = _window_core(n, l, r, range(1, s + 1), lam)
                        assert got == expected, (n, l, r, s, lam)
                        assert all(type(c) is F for c in got.coeffs)
                # the beta-shifted corollary's core, two rational offsets in
                # one product: the core at k = 1, lam = m - 2 beta, shifted by beta
                for m in (1, 2, 3):
                    for beta in (F(0), F(1), F(1, 2), F(-2, 3), F(3)):
                        expected = (X + (beta - 1)) ** (l + r) * (X + (m - 1 - beta)) ** (n + r)
                        got = _window_core(n, l, r, (1,), m - 2 * beta).shift(beta)
                        assert got == expected, (n, l, r, m, beta)
                        assert all(type(c) is F for c in got.coeffs)


def test_proof_replay_checks():
    for params in ((0, 0, 0, 0, F(0)), (1, 1, 1, 1, F(2)), (2, 1, 0, 2, F(1, 2)), (0, 2, 1, 3, F(-1))):
        checks = replay_proof(*params)
        assert set(checks) == {"operator_link", "lhs_match"}
        for name, residual in checks.items():
            assert residual.is_zero(), (params, name)


SIDE_LAMBDAS = (F(0), 1, F(-2), F(1, 2), F(-2, 3), F(5, 7))


def test_memoized_sides_match_builders_on_a_fresh_table():
    # the sides are built on every call from the table's memoized
    # polynomials, so a fresh table, whose memo is empty, builds them again
    fresh = GenBernTable()
    for n in range(4):
        for l in range(4):
            for r in range(3):
                for s in range(3):
                    for lam in SIDE_LAMBDAS:
                        lhs = main_identity_lhs(n, l, r, s, lam)
                        rhs = main_identity_rhs(n, l, r, s, lam)
                        key = (n, l, r, s, lam)
                        assert lhs == main_identity_lhs(n, l, r, s, F(lam), fresh), key
                        assert rhs == main_identity_rhs(n, l, r, s, F(lam), fresh), key
                        # the second block reads B^(a)(x + lam - s) from the memo
                        shift = F(lam) - s
                        for idx in range(n, n + l + r + 1):
                            memo_key = ("shifted", idx, shift.numerator, shift.denominator) if shift else ("poly", idx)
                            entry = DEFAULT_TABLE._derived[memo_key]
                            assert DEFAULT_TABLE.poly_shifted(idx, shift) is entry
    table = GenBernTable()
    assert main_identity_lhs(2, 1, 1, 2, 1, table) == main_identity_lhs(2, 1, 1, 2, F(1), table)
    assert main_identity_rhs(2, 1, 1, 2, F(1), table) == main_identity_rhs(2, 1, 1, 2, 1, table)
    # an int and the equal Fraction lam meet in one shifted entry per index
    assert sorted(key for key in table._derived if key[0] == "shifted") == [("shifted", idx, -1, 1) for idx in (2, 3, 4)]
    assert not any(key[0] in ("lhs", "rhs") for key in table._derived)


def test_memo_cannot_hide_a_wrong_table():
    key = (2, 1, 1, 2, F(1, 2))
    assert main_identity_residual(*key).is_zero()  # fills the default table's memo
    assert all(res.is_zero() for res in replay_proof(*key).values())
    wrong = GenBernTable()
    wrong.grow(8)
    wrong._numbers[1] = wrong.number(1) + 1  # B_1^(a) + 1 at the source
    assert not main_identity_residual(*key, wrong).is_zero()
    assert not all(res.is_zero() for res in replay_proof(*key, wrong).values())
    assert main_identity_residual(*key).is_zero()
    # the scalar blocks read value rows, built from the same wrong numbers
    point = (2, 1, 1, F(1, 2), F(1, 3), F(-2, 5))
    assert balanced_triple_residual_antisym(*point) == 0
    assert balanced_triple_residual_antisym(*point, table=wrong) != 0


def test_replay_builds_both_operator_routes_on_every_call(monkeypatch):
    key = (2, 1, 1, 2, F(-2, 3))
    replay_proof(*key)  # fills the memo of every polynomial the sides read
    calls = []
    call = OmegaOperator.__call__

    def counted(self, p):
        calls.append(self.offset)
        return call(self, p)

    monkeypatch.setattr(OmegaOperator, "__call__", counted)
    for _ in range(2):
        calls.clear()
        assert all(res.is_zero() for res in replay_proof(*key).values())
        assert sorted(calls) == [-1, 0]


def test_main_residual_is_operator_link_minus_lhs_match():
    # Omega_a(Delta P) cancels: (lhs - rhs) = (delta - rhs) - (delta - lhs).
    # The report keeps all three; on a wrong table they are not all zero.
    wrong = GenBernTable()
    wrong.grow(1)
    wrong._numbers[1] = wrong.number(1) + 1  # B_1^(a) + 1 at the source
    nonzero = 0
    for table in (DEFAULT_TABLE, wrong):
        for key in ((1, 1, 1, 1, F(1, 2)), (2, 1, 1, 2, F(1, 2)), (2, 2, 1, 2, F(-2, 3)), (1, 2, 0, 1, F(2))):
            replay = replay_proof(*key, table)
            residual = main_identity_residual(*key, table)
            assert residual == replay["operator_link"] - replay["lhs_match"], (key, table is wrong)
            if table is DEFAULT_TABLE:
                assert residual.is_zero() and all(res.is_zero() for res in replay.values())
            else:
                nonzero += not residual.is_zero()
                assert not replay["operator_link"].is_zero()
    assert nonzero == 4


def test_replay_takes_only_the_sides_of_its_own_point_and_table(monkeypatch):
    a, b = (2, 1, 1, 2, F(1, 2)), (2, 1, 1, 2, F(-2, 3))
    wrong = GenBernTable()
    wrong.grow(1)
    wrong._numbers[1] = wrong.number(1) + 1  # B_1^(a) + 1 at the source
    slot = {}
    assert main_identity_residual(*a, DEFAULT_TABLE, slot).is_zero()
    [(key, sides)] = slot.items()
    assert key == (DEFAULT_TABLE, *a) and sides[0] == main_identity_lhs(*a) and sides[2] == main_identity_rhs(*a)
    # another point or another table builds its own sides and leaves the entry
    assert replay_proof(*b, DEFAULT_TABLE, slot) == replay_proof(*b)
    assert replay_proof(*a, wrong, slot) == replay_proof(*a, wrong) != replay_proof(*a)
    assert list(slot) == [key]
    # the same point on the same table takes them out: Omega_a(Delta P) is its one new image
    calls = []
    call = OmegaOperator.__call__

    def counted(self, p):
        calls.append(self.offset)
        return call(self, p)

    monkeypatch.setattr(OmegaOperator, "__call__", counted)
    assert all(res.is_zero() for res in replay_proof(*a, DEFAULT_TABLE, slot).values())
    assert calls == [0] and slot == {}


def test_two_threads_share_one_memo_entry_per_key():
    grid = ((n, l, r, s) for n in range(3) for l in range(3) for r in range(2) for s in range(3))
    keys = [(n, l, r, s, F(lam)) for n, l, r, s in grid for lam in (0, 1)]
    oracle = GenBernTable()
    expected = [(main_identity_lhs(*k, oracle), main_identity_rhs(*k, oracle)) for k in keys]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(3):
            table = GenBernTable()
            start = threading.Barrier(2)
            seen = [None, None]

            def read(slot):
                start.wait(timeout=60)
                cast = F if slot else int  # one thread passes each lam as an int
                seen[slot] = [
                    (main_identity_lhs(n, l, r, s, cast(lam), table), main_identity_rhs(n, l, r, s, cast(lam), table))
                    for n, l, r, s, lam in keys
                ]

            threads = [threading.Thread(target=read, args=(slot,)) for slot in range(2)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
                assert not thread.is_alive()
            assert seen[0] == seen[1] == expected
            # one entry per key, whichever thread built it first: the
            # shifted polynomials the left sides read, one per (index, lam - s)
            # with lam != s, where the "poly" entry is read instead
            shifted = {(idx, lam - s) for n, l, r, s, lam in keys for idx in range(n, n + l + r + 1) if lam != s}
            assert sorted(key for key in table._derived if key[0] == "shifted") == sorted(
                ("shifted", idx, c.numerator, c.denominator) for idx, c in shifted
            )
            assert not any(key[0] == "lhs" for key in table._derived)
    finally:
        sys.setswitchinterval(interval)


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
    assert _join(_gessel(2, 1, 1, 1)) == 0
    assert _join(_gessel_reindexed(2, 1, 1, 1)) == 0
    assert _join(_halved_double_sum(2, 1, 1)) == 0
    # the folded closed form is empty too, so both ges1 readings are the block, 0
    assert readings("ges1", n=2, r=1, m=1) == {"sign_corrected": 0, "as_printed": 0}


def test_double_sum_equals_pair_sum_instance():
    assert _join(_gessel(1, 1, 1, 2)) == paired_sum(1, 1, 1, 2, 0, 0, alpha=1)


def test_double_sum_grid():
    for n in range(4):
        for l in range(4):
            for r in range(3):
                for m in range(1, 5):
                    s = paired_sum(n, l, r, m, 0, 0, alpha=1)
                    assert s == _join(_gessel(n, l, r, m))
                    assert s == _join(_gessel_reindexed(n, l, r, m))


def test_symmetric_block_closed_forms():
    # frozen hand instance: n=1, r=1, m=2
    assert _join(_symmetric_block(1, 1, 2, DEFAULT_TABLE)) == -2
    assert _join(_halved_double_sum(1, 1, 2)) == -2
    assert _q_term(1, 2, 1, 1, corrected=True) == -2
    for n in range(4):
        for r in (1, 3):
            for m in range(1, 5):
                block = _join(_symmetric_block(n, r, m, DEFAULT_TABLE))
                assert block == _join(_halved_double_sum(n, r, m))
                # the block minus the folded closed form
                assert readings("ges1", n=n, r=r, m=m)["sign_corrected"] == 0
                # odd r collapses the pair sum onto twice the block
                assert paired_sum(n, n, r, m, 0, 0, alpha=1) == 2 * block


def test_q_block_printed_reading_fails_where_sign_matters():
    # exponent n+(r-1)/2 odd makes the printed base k(m-k) wrong
    assert _q_term(1, 2, 1, 1, corrected=False) == 6
    assert _join(_symmetric_block(1, 1, 2, DEFAULT_TABLE)) == -2
    assert readings("ges1", n=1, r=1, m=2) == {"sign_corrected": 0, "as_printed": -8}
    # even exponent hides the difference
    res = readings("ges1", n=1, r=3, m=2)
    assert res["as_printed"] == res["sign_corrected"] == 0


def test_alternating_power_sum():
    assert alternating_power_sum(5, 2, 4) == 0
    assert alternating_power_sum(1, 3, 3) == 0
    assert alternating_power_sum(7, 0, 6) == 0
    assert alternating_power_sum(4, 1, 2) != 0  # odd total degree need not vanish


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
    assert _join(_symmetric_block(1, 1, 2, DEFAULT_TABLE)) == -2
    assert _join(_symmetric_block(1, 1, 1, DEFAULT_TABLE)) == 0


def test_linear_weight_double_sum_example():
    # (n,l,m) = (2,2,3): sum over k of (4k-6) k (k-3) = 4 - 4 = 0
    assert F(_linear_weight_sum(2, 2, 3)) == 0
    assert paired_sum(2, 2, 0, 3, 0, 0, alpha=1) == 0
    for n in range(5):
        for l in range(5):
            for m in range(1, 6):
                assert paired_sum(n, l, 0, m, 0, 0, alpha=1) == F(_linear_weight_sum(n, l, m))


def test_kaneko_weighted_term_against_block():
    # the closed form matches the single block for r = 1
    for n in range(5):
        for m in range(1, 6):
            closed = sum((F(_kaneko_term(k, m, n)) for k in range(1, m)), F(0))
            assert _join(_symmetric_block(n, 1, m, DEFAULT_TABLE)) == closed


def _chen_sun_extra(k, m, n):
    """The telescoping extra of p_k(m, 3, n), as displayed."""
    return math.comb(n + 3, 3) * (3 * n + 11) * (F(k) ** (n + 2) * F(k - m) ** n - F(k) ** n * F(k - m) ** (n + 2))


def _chen_sun_term(k, m, n, corrected):
    """p_k(m, 3, n): the folded closed-form term plus the telescoping extra."""
    return _q_term(k, m, 3, n, corrected) + _chen_sun_extra(k, m, n)


def test_chen_sun_extra_term_telescopes():
    for n in range(4):
        for m in range(1, 6):
            total = sum((_chen_sun_term(k, m, n, True) for k in range(1, m)), F(0))
            assert total == sum((_q_term(k, m, 3, n, True) for k in range(1, m)), F(0))
            assert _join(_symmetric_block(n, 3, m, DEFAULT_TABLE)) == total


# -- adjudicated case records -------------------------------------------------------


def test_c1_drops_a_chen_sun_extra_that_sums_to_zero():
    # k -> m-k sends each summand of the extra to its negative, so the c1
    # record, which leaves it out, equals the block against the whole term
    for n in range(12):
        for m in range(1, 30):
            assert sum(_chen_sun_extra(k, m, n) for k in range(1, m)) == 0
    for n in range(4):
        for m in range(1, 6):
            lhs = _join(_symmetric_block(n, 3, m, DEFAULT_TABLE))
            whole = {
                "sign_corrected": lhs - sum((_chen_sun_term(k, m, n, True) for k in range(1, m)), F(0)),
                "as_printed": lhs - sum((_chen_sun_term(k, m, n, False) for k in range(1, m)), F(0)),
            }
            assert readings("c1", n=n, m=m) == whole


def test_t24_adjudication():
    res = run("t24", n=1, m=2)
    assert res.status == "verified"
    assert res.reading == "first_block"
    assert res.readings == {"literal": "counterexample", "first_block": "verified"}
    # the literal prefactor claim really is off: (n+1)S = 8 vs sum = -2
    assert (1 + 1) * paired_sum(1, 2, 1, 2, 0, 0, alpha=1) == 8
    assert _join(_symmetric_block(1, 1, 2, DEFAULT_TABLE)) == -2


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


def _composed(p, arg):
    """p(arg) for p in QQ[a][x] and arg in QQ[a][x], term by term."""
    return sum((c * arg**i for i, c in enumerate(p.coeffs)), F(0))


def _f10_literal(n, l, r, m, beta, table):
    """Both nielsen_f10 readings as displayed, each block summed term by
    term over B^(a)(x) composed with its argument, B_i^(a)(a + c - x)
    realized as (-1)^i B_i^(a)(x - c), and the Omega side mapped from the
    two-offset product: an oracle independent of the record, which reads
    the main identity at s = 1, lam = m - 2 beta and shifts it by beta."""
    lam = m - 2 * beta
    first = _literal_block(n, l, r, lam, lambda i: _composed(table.poly(i), X + beta))
    printed = first + sum(
        (-(-1) ** (r + l + k) * lam ** (l + r - k) * math.comb(l + r, k) * math.comb(n + k + r, r)
         * _composed(table.poly(n + k), X + (m - 1 - beta)) for k in range(l + r + 1)),
        F(0),
    )
    reflected = first + (-1) ** (l + n + r + 1) * _literal_block(
        l, n, r, lam, lambda i: (-1) ** i * _composed(table.poly(i), X - (1 - lam - beta))
    )
    core = ((X + (beta - 1)) ** (l + r) * (X + (m - 1 - beta)) ** (n + r)).derive(r + 1) * F(1, math.factorial(r))
    rhs = OmegaOperator(-1, table)(core)
    return [("as_printed", printed - rhs), ("from_main_identity", reflected - rhs)]


def test_f10_shared_parts_match_standalone_readings():
    # the record reads the main identity's residual at s = 1 shifted by
    # beta, for both readings; the oracle sums each displayed reading term
    # by term.  On the wrong tables the residuals are nonzero, so equality
    # is not 0 == 0.  Each defect is planted at a source, so every
    # B_i^(a)(x) built from it is still the Appell expansion under which
    # shifting commutes with both blocks and with Omega, whatever the numbers are.
    wrong_tables = {
        "generalized B_1": _generalized_plus_one(1),
        "classical B_2": _classical_plus_one(2),
        "order only": _order_only_defect(),
    }
    nonzero = Counter()
    for n, l, r, m in ((1, 2, 1, 2), (2, 1, 0, 3), (0, 1, 2, 1), (2, 2, 1, 2)):
        for beta in (F(0), F(1, 2), F(-2, 3), F(3), F(-1, 2)):
            res = run("nielsen_f10", n=n, l=l, r=r, m=m, beta=beta)
            alone = _f10_literal(n, l, r, m, beta, DEFAULT_TABLE)
            assert res.readings == {"as_printed": "verified", "from_main_identity": "verified"}
            assert res.residual == dict(alone)[res.reading]
            assert list(readings("nielsen_f10", n=n, l=l, r=r, m=m, beta=beta).items()) == alone
            for name, wrong in wrong_tables.items():
                shared = readings("nielsen_f10", wrong, n=n, l=l, r=r, m=m, beta=beta)
                assert list(shared.items()) == _f10_literal(n, l, r, m, beta, wrong), (name, n, l, r, m, beta)
                nonzero[name] += not shared["as_printed"].is_zero()
    assert set(nonzero) == set(wrong_tables) and all(nonzero.values()), nonzero


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
        assert lhs_sum == _join(_gessel(1, 1, 1, m))


def test_classical_pair_rational_instance():
    assert classical_pair_residual(1, 2, 1, 2, F(1, 2), F(1, 3)) == 0


def test_product_rule_split_grid():
    for n in range(4):
        for l in range(4):
            for r in range(4):
                assert product_rule_split_residual(n, l, r).is_zero()


def test_order_shift_pair_small_instance():
    res = readings("nielsen_f10", n=1, l=1, r=0, m=1, beta=F(1, 2))
    assert all(residual.is_zero() for residual in res.values())


def test_order_shift_pair_is_shifted_main_identity():
    # the beta-shifted corollary is the main identity at s=1, lam=m-2b,
    # with x replaced by x+beta on both (already equal) sides
    n, l, r, m, beta = 1, 2, 1, 3, F(1, 2)
    lam = m - 2 * beta
    lhs_main = main_identity_lhs(n, l, r, 1, lam)
    rhs_main = main_identity_rhs(n, l, r, 1, lam)
    assert lhs_main.shift(beta) == rhs_main.shift(beta)
    res = readings("nielsen_f10", n=n, l=l, r=r, m=m, beta=beta)
    assert all(residual.is_zero() for residual in res.values())


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
    # B_{n+k}(z) = (-1)^(n+k) B_{n+k}(x+y) for every k in the second block,
    # which takes the antisymmetric balanced form to the folded one
    n, l, r, alpha, x, y = 2, 1, 1, F(2), F(1), F(1, 3)
    z = alpha - x - y
    for k in range(l + r + 1):
        assert DEFAULT_TABLE.value_at(n + k, alpha, z) == (-1) ** (n + k) * DEFAULT_TABLE.value_at(n + k, alpha, x + y)
    assert balanced_triple_residual_antisym(n, l, r, alpha, x, y) == 0
    assert balanced_triple_residual_folded(n, l, r, alpha, x, y) == 0


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
            assert readings("cor1", n=n, r=r, x=F(0))["corrected"] == 0
            assert halved_tail_sum_residual(n, r) == 0


def test_symbolic_weight_pair():
    assert symbolic_weight_pair_residual(0, 1).is_zero()
    assert symbolic_weight_pair_residual(2, 3).is_zero()
    # order 1 reduces to the Lucas pair relation
    assert symbolic_weight_pair_residual(2, 3).eval(1) == lucas_pair_sum(2, 3)


# -- case records ---------------------------------------------------------------

# One in-domain point for each case read in several ways.
READING_POINTS = {
    "ges1": SumSpec(n=1, r=1, m=2),
    "k5": SumSpec(n=1),
    "t24": SumSpec(n=1, m=2),
    "c1": SumSpec(m=2),
    "nielsen_f10": SumSpec(n=1, l=2, r=1, m=2, beta=F(1, 2)),
    "cor3a": SumSpec(n=1, l=1, r=2, alpha=F(1), x=F(1), y=F(1, 2), z=F(-1, 2)),
    "cor3b": SumSpec(n=1, l=1, r=3, t=F(1, 2)),
    "cor1": SumSpec(n=1, r=1),
}


def test_residual_returns_exactly_the_preferred_readings():
    assert set(READING_POINTS) == {d.id for d in CASE_DEFS.values() if d.prefer}
    for case_id, p in READING_POINTS.items():
        d = CASE_DEFS[case_id]
        assert all(g.holds(p) for g in d.domain), case_id
        assert sorted(d.residual(p, DEFAULT_TABLE)) == sorted(d.prefer), case_id


@pytest.mark.parametrize("case_id, params, note", [
    ("cor1", SumSpec(r=2, x=F(1)), "needs odd r"),
    ("cor3a", SumSpec(r=0, x=F(1)), "needs r >= 1"),
    ("s1", SumSpec(x=F(1)), "needs a rational order (the balance constraint ties x+y+z to it)"),
])
def test_first_failing_guard_gives_the_note(case_id, params, note):
    # at least two guards fail at each point, and the first one's note is reported
    failing = [g.note for g in CASE_DEFS[case_id].domain if not g.holds(params)]
    assert len(failing) >= 2 and failing[0] == note
    res = verify_case(IdentityCase(case_id, params))
    assert (res.status, res.residual, res.readings, res.reading, res.note) == ("not_applicable", 0, None, None, note)


def test_every_case_id_has_verifier():
    assert set(CASE_IDS) == set(CASE_DEFS)
    expected = {
        "t3", "t4", "tg4", "t5", "ges1", "rem1", "p1", "e1", "e2", "k5", "k3",
        "s3", "t230", "t24", "c1", "theorem_le1", "proof_replay", "app1",
        "nielsen_f10", "agoh_leibniz", "s1", "s2", "s4", "cor3a", "cor3b",
        "s20", "cor1", "fi2", "neto_corrected", "vassilev",
    }
    assert set(CASE_IDS) == expected


# -- planted defects ------------------------------------------------------------


def _generalized_plus_one(k: int) -> GenBernTable:
    """A table whose generalized numbers read B_k^(a) + 1."""
    table = GenBernTable()
    table.grow(k)
    table._numbers[k] = table.number(k) + 1
    return table


def _order_only_defect() -> GenBernTable:
    """A table whose numbers read B_2^(a) + (a-1)(a-2)(2a-1): a defect that
    vanishes at the default sweep's rational orders 1, 2 and 1/2."""
    table = GenBernTable()
    table.grow(2)
    table._numbers[2] = table.number(2) + poly_a(-1, 1) * poly_a(-2, 1) * poly_a(-1, 2)
    return table


def _classical_plus_one(k: int) -> GenBernTable:
    """A table whose one classical source reads B_k + 1: every classical
    entry it builds, and its growth, see the same wrong number."""
    table = GenBernTable()
    right = table.classical_numbers
    table.classical_numbers = lambda n_max: [b + (i == k) for i, b in enumerate(right(n_max))]
    return table


def test_p1_is_blind_to_a_wrong_b_n_at_even_n():
    # p1 weighs B_n by C(n, n) - (-1)^n, which vanishes at even n, so B_n + 1
    # at the table's classical source moves its residual by 2 at odd n and by 0 at even n
    for n in range(1, 7):
        wrong = _classical_plus_one(n)
        res = verify_case(IdentityCase("p1", SumSpec(n=n)), wrong)
        assert (res.status, res.residual) == (("counterexample", 2) if n % 2 else ("verified", 0)), n


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_s2_holds_for_every_appell_sequence(seed):
    # s2's folded form expands B_{n+k}(x+y) by the Appell rule and nothing
    # else, so it holds whatever the numbers are: with B_1^(a) .. B_40^(a)
    # arbitrary a-polynomials every s2 point still verifies, and s2 can catch
    # no defect in the numbers.  s1, which reads the reflection rule, catches them.
    rng = random.Random(seed)
    arbitrary = GenBernTable()
    arbitrary.grow(40)
    for k in range(1, 41):
        coeffs = [F(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(rng.randint(1, 4))]
        arbitrary._numbers[k] = Poly("a", coeffs)
    statuses = {"s1": Counter(), "s2": Counter()}
    for res in run_suite(SweepConfig(cases=("s1", "s2")), arbitrary).results:
        statuses[res.case.id][res.status] += 1
    right = Counter(res.status for res in run_suite(SweepConfig(cases=("s2",))).results)
    assert statuses["s2"] == right and right["verified"] > 0 and right["counterexample"] == 0
    assert statuses["s1"]["counterexample"] > 0


def test_t3_s3_and_e2_share_one_residual():
    # t3 and s3 run the same residual over the same axes, and e2 is t3 at
    # r = 0; they stay three cases, since merging them would change the report
    assert CASE_DEFS["t3"].axes == CASE_DEFS["s3"].axes
    wrong = GenBernTable()
    wrong.grow(1)
    wrong._numbers[1] = wrong.number(1) + 1  # B_1^(a) + 1 at the source
    for table in (DEFAULT_TABLE, wrong):
        by_case = {"t3": {}, "s3": {}, "e2": {}}
        for case in enumerate_cases(SweepConfig(cases=tuple(by_case))):
            by_case[case.id][case.params] = verify_case(case, table).residual
        assert by_case["s3"] == by_case["t3"]
        assert by_case["e2"] == {p: res for p, res in by_case["t3"].items() if p.r == 0}
        assert any(by_case["e2"].values()) == (table is wrong)


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
                assert _join(_symmetric_block(n, r, m, DEFAULT_TABLE)) == sum(
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
                    assert _join(_gessel(n, l, r, m)) == (r + 1) * sum(
                        F(-1) ** (l + j - 1)
                        * math.comb(n + r, j)
                        * math.comb(l + r, r + 1 - j)
                        * F(k) ** (l + j - 1)
                        * F(m - k) ** (n + r - j)
                        for k in range(1, m)
                        for j in range(r + 2)
                    )
                for s in range(3):
                    assert _join(_leibniz(n, l, r, s, _parts(u), _parts(v))) == (r + 1) * sum(
                        math.comb(n + r, j) * math.comb(l + r, r + 1 - j) * (u - k) ** (l + j - 1) * (v - k) ** (n + r - j)
                        for k in range(1, s + 1)
                        for j in range(r + 2)
                    )


def test_double_sums_at_rationals_against_literal_evaluator():
    big = 10**29 + 7  # a 30-digit denominator
    for u, v in ((F(1, 2), F(-2, 3)), (F(-5, 7), F(1, 2)), (F(3, big), F(-big + 1, 7))):
        for n in range(3):
            for l in range(3):
                for r in range(3):
                    for s in range(3):
                        assert _join(_leibniz(n, l, r, s, _parts(u), _parts(v))) == (r + 1) * sum(
                            math.comb(n + r, j)
                            * math.comb(l + r, r + 1 - j)
                            * (u - k) ** (l + j - 1)
                            * (v - k) ** (n + r - j)
                            for k in range(1, s + 1)
                            for j in range(r + 2)
                        )
    # bases c + e*k of either slope, with negative, 30-digit and integer offsets, and truncated j ranges
    for (cu, eu), (cv, ev) in (((F(1, 3), 1), (F(-2, 5), -1)), ((F(-big, 3), -1), (F(7, big), 1)), ((2, 1), (-1, 1))):
        for n in range(3):
            for l in range(3):
                for r in range(3):
                    for stop in (None, 1, r + 1):
                        term = _double_sum(n, l, r, range(1, 5), (*_parts(cu), eu), (*_parts(cv), ev), stop=stop)
                        assert F(*term) == (r + 1) * sum(
                            math.comb(n + r, j)
                            * math.comb(l + r, r + 1 - j)
                            * (cu + eu * k) ** (l + j - 1)
                            * (cv + ev * k) ** (n + r - j)
                            for k in range(1, 5)
                            for j in range(r + 2 if stop is None else stop)
                            if math.comb(n + r, j) * math.comb(l + r, r + 1 - j)  # a zero base meets only these
                        )


def _q_term(k, m, r, n, corrected):
    """The folded closed-form term for odd r, as displayed: the leading
    piece plus (r+1) times the tail j <= (r-1)/2."""
    base = F(k * (k - m)) if corrected else F(k * (m - k))
    lead = F(r + 1, 2) * math.comb(n + r, (r + 1) // 2) ** 2 * base ** (n + (r - 1) // 2)
    return lead + (r + 1) * sum(
        math.comb(n + r, j) * math.comb(n + r, r + 1 - j) * F(k) ** (j + n - 1) * F(k - m) ** (n + r - j)
        for j in range((r - 1) // 2 + 1)
    )


def test_q_block_and_chen_sun_against_literal_evaluator():
    # ges1 and c1 against the literal block and the whole displayed term,
    # c1 with the telescoping extra that its record leaves out
    for n in range(4):
        for m in range(1, 6):
            for r in (1, 3, 5):
                block = _literal_block(n, n, r, m, _b)
                expected = [
                    (name, block - sum((_q_term(k, m, r, n, corrected) for k in range(1, m)), F(0)))
                    for name, corrected in (("sign_corrected", True), ("as_printed", False))
                ]
                assert list(readings("ges1", n=n, r=r, m=m).items()) == expected
            block = _literal_block(n, n, 3, m, _b)
            expected = [
                (name, block - sum((_chen_sun_term(k, m, n, corrected) for k in range(1, m)), F(0)))
                for name, corrected in (("sign_corrected", True), ("as_printed", False))
            ]
            assert list(readings("c1", n=n, m=m).items()) == expected


ORACLE_ORDER_TABLES = [integer_alpha_oracle(10, a) for a in range(11)]


def _gnum(n, alpha):
    """B_n^(alpha) by Lagrange interpolation through the integer orders
    0..n of the series-power oracle; it has degree n in the order."""
    total = F(0)
    for i in range(n + 1):
        weight = F(1)
        for j in range(n + 1):
            if j != i:
                weight *= F(alpha - j, i - j)
        total += ORACLE_ORDER_TABLES[i][n] * weight
    return total


def _gb(n, alpha, y):
    """B_n^(alpha)(y) = sum_j C(n,j) B_(n-j)^(alpha) y^j."""
    return sum(math.comb(n, j) * _gnum(n - j, alpha) * F(y) ** j for j in range(n + 1))


def _literal_block(p, q, r, w, values, stop=None):
    """sum_{k<stop} w^(p+r-k) C(p+r,k) C(q+k+r,r) values(q+k), as displayed."""
    return sum(
        (F(w) ** (p + r - k) * math.comb(p + r, k) * math.comb(q + k + r, r) * values(q + k)
         for k in range(p + r + 1 if stop is None else stop)),
        F(0),
    )


def _literal_leibniz(n, l, r, s, u, v):
    return (r + 1) * sum(
        math.comb(n + r, j) * math.comb(l + r, r + 1 - j) * (u - k) ** (l + j - 1) * (v - k) ** (n + r - j)
        for k in range(1, s + 1)
        for j in range(r + 2)
    )


def test_balanced_forms_against_literal_evaluator():
    # non-integer orders and points, one order outside the sweep's signs
    for alpha, x, y in ((F(1, 2), F(2, 3), F(-1, 3)), (F(-5, 3), F(-3, 2), F(1, 4)), (F(2), F(1, 3), F(5, 7))):
        z = alpha - x - y
        for n in range(3):
            for l in range(3):
                for r in range(3):
                    first = _literal_block(n, l, r, x, lambda i: _gb(i, alpha, y))
                    second = _literal_block(l, n, r, x, lambda i: _gb(i, alpha, z))
                    assert balanced_triple_residual_antisym(n, l, r, alpha, x, y) == (-1) ** n * first - (
                        -1
                    ) ** (l + r) * second
                    folded = _literal_block(l, n, r, -x, lambda i: _gb(i, alpha, x + y))
                    assert balanced_triple_residual_folded(n, l, r, alpha, x, y) == first - folded
                    if r == 0:
                        continue
                    lhs = (-1) ** n * _literal_block(n, l, r, x, lambda i: _gb(i, alpha, y), stop=n + r) + (-1) ** (
                        l + r + 1
                    ) * _literal_block(l, n, r, x, lambda i: _gb(i, alpha, z), stop=l + r)
                    expected = [
                        (name, lhs - (-1) ** n * math.comb(n + l + 2 * r, r) * (_gb(idx, alpha, x + y) - _gb(idx, alpha, y)))
                        for name, idx in (("corrected", n + l + r), ("as_printed", n + l + 1))
                    ]
                    got = readings("cor3a", n=n, l=l, r=r, alpha=alpha, x=x, y=y, z=z)
                    assert list(got.items()) == expected


def test_order_one_forms_against_literal_evaluator():
    for lam, x0, t in ((F(1, 2), F(-2, 3), F(1, 3)), (F(-7, 4), F(5, 2), F(-3, 5))):
        for n in range(3):
            for l in range(3):
                for r in range(3):
                    for s in range(3):
                        z = 1 + s - lam - x0
                        lhs = _literal_block(n, l, r, lam, lambda i: _b(i, x0)) + (-1) ** (
                            l + n + r + 1
                        ) * _literal_block(l, n, r, lam, lambda i: _b(i, z))
                        expected = lhs - _literal_leibniz(n, l, r, s, x0, x0 + lam)
                        assert classical_pair_residual(n, l, r, s, lam, x0) == expected
                    if r == 0:
                        continue
                    lhs = (-1) ** n * _literal_block(n, l, r, 1, lambda i: _b(i, t), stop=n + r) + (-1) ** (
                        l + r + 1
                    ) * _literal_block(l, n, r, 1, lambda i: _b(i, -t), stop=l + r)
                    c = (-1) ** n * math.comb(n + l + 2 * r, r)
                    assert list(readings("cor3b", n=n, l=l, r=r, t=t).items()) == [
                        ("corrected", lhs - c * (n + l + r) * t ** (n + l + r - 1)),
                        ("as_printed", lhs - c * (n + l + 1) * t ** (n + l)),
                    ]


def test_odd_r_tail_sums_against_literal_evaluator():
    for n in range(4):
        for r in (1, 3, 5):
            c_mid = math.comb(n + r, (r + 1) // 2)
            lhs = sum(math.comb(n + r, k - n) * math.comb(k + r, r) * _b(k) / F(2) ** k for k in range(n, 2 * n + r + 1))
            rhs = F((-1) ** (n + (r - 1) // 2) * (r + 1), 2 ** (2 * n + r + 1)) * c_mid
            assert halved_tail_sum_residual(n, r) == lhs - rhs
            for x0 in (F(0), F(1, 3), F(-1, 2), F(5, 2), F(-7)):
                lhs = sum(
                    math.comb(n + r, k) * math.comb(n + k + r, r) * _b(n + k, x0) / (F(2) ** k * (1 - x0) ** (n + k - 1))
                    for k in range(n + r + 1)
                )
                corrected = F((-1) ** (n + (r - 1) // 2) * (r + 1), 2 ** (n + r + 1)) * c_mid
                printed = F((-1) ** (n + (r + 1) // 2) * (r + 1), 2 ** (n + r)) * c_mid
                assert list(readings("cor1", n=n, r=r, x=x0).items()) == [
                    ("corrected", lhs - corrected),
                    ("as_printed", lhs - printed),
                ]


def _literal_pair(n, l, r, w, y, z, value):
    """S(n, l, r; w, y, z) with B_i(u) = value(i, u), as displayed."""
    first = _literal_block(n, l, r, w, lambda i: value(i, y))
    return first + (-1) ** (l + n + r + 1) * _literal_block(l, n, r, w, lambda i: value(i, z))


def _literal_double_sum(n, l, r, ks, u, v):
    """(r+1) sum_{k in ks} sum_j C(n+r,j) C(l+r,r+1-j) u(k)^(l+j-1) v(k)^(n+r-j)
    over the terms with a nonzero coefficient, where a zero base meets no
    negative power."""
    return (r + 1) * sum(
        (
            math.comb(n + r, j) * math.comb(l + r, r + 1 - j) * F(u(k)) ** (l + j - 1) * F(v(k)) ** (n + r - j)
            for k in ks
            for j in range(r + 2)
            if math.comb(n + r, j) * math.comb(l + r, r + 1 - j)
        ),
        F(0),
    )


def _literal_leibniz_at(n, l, r, s, u, v):
    """The Leibniz double sum at any u, v: integer ones make zero bases."""
    return _literal_double_sum(n, l, r, range(1, s + 1), lambda k: u - k, lambda k: v - k)


def test_s4_against_literal_evaluator():
    # non-grid points, one pair with x + y an integer
    for x, y in ((F(-5, 7), F(3, 4)), (F(7, 3), F(-1, 6)), (F(5, 6), F(1, 6))):
        for n in range(3):
            for l in range(3):
                for r in range(3):
                    for s in range(3):
                        z = s + 1 - x - y
                        expected = _literal_pair(n, l, r, x, y, z, _b) - _literal_leibniz_at(n, l, r, s, y, x + y)
                        got = readings("s4", n=n, l=l, r=r, s=s, x=x, y=y, z=z)
                        assert got == expected and type(got) is F, (n, l, r, s, x, y)


def test_t4_tg4_and_t230_against_literal_evaluator():
    # past the default grid's bounds (3, 3, 2 and m <= 4)
    for n in range(5):
        for l in range(5):
            for m in range(1, 7):
                for r in range(4):
                    pair = _literal_pair(n, l, r, m, 0, 0, _b)
                    gessel = _literal_double_sum(n, l, r, range(1, m), lambda k: -k, lambda k: m - k)
                    assert readings("t4", n=n, l=l, r=r, m=m) == pair - gessel
                    reindexed = _literal_double_sum(n, l, r, range(1, m), lambda k: k - m, lambda k: k)
                    assert readings("tg4", n=n, l=l, r=r, m=m) == pair - reindexed
                linear = sum(
                    (((n + l) * k - m * n) * F(k) ** (n - 1) * F(k - m) ** (l - 1) for k in range(1, m)), F(0)
                )
                assert readings("t230", n=n, l=l, m=m) == _literal_pair(n, l, 0, m, 0, 0, _b) - linear


def _assert_row_keys_reduced(table):
    """Every row key of ``table`` holds its rationals in lowest terms over a
    positive denominator, so one point has one key."""
    rows = [key for key in table._derived if key[0] in ("row", "classical_row")]
    assert rows
    for key in rows:
        assert all(d > 0 and math.gcd(v, d) == 1 for v, d in zip(key[1::2], key[2::2], strict=True)), key


# points in sixths, so that derived arguments reduce: 1+s-lam-x over 36 and x+y over 36
sixths = st.integers(-12, 12).map(lambda k: F(k, 6))


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2), st.integers(0, 2), st.integers(0, 2), st.integers(0, 2), sixths, sixths, st.booleans())
def test_app1_and_s4_at_points_whose_derived_argument_reduces(n, l, r, s, lam, x, hit):
    if hit:
        x = 1 + s - lam  # 1+s-lam-x = 0, and x + y an integer below
    table = GenBernTable()
    expected = _literal_pair(n, l, r, lam, x, 1 + s - lam - x, _b) - _literal_leibniz_at(n, l, r, s, x, x + lam)
    got = readings("app1", table, n=n, l=l, r=r, s=s, lam=lam, x=x)
    assert got == expected and type(got) is F
    y = (1 - x) if hit else lam
    z = s + 1 - x - y
    expected = _literal_pair(n, l, r, x, y, z, _b) - _literal_leibniz_at(n, l, r, s, y, x + y)
    got = readings("s4", table, n=n, l=l, r=r, s=s, x=x, y=y, z=z)
    assert got == expected and type(got) is F
    _assert_row_keys_reduced(table)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2), st.integers(0, 2), st.integers(1, 2), sixths, sixths, sixths, st.booleans())
def test_balanced_forms_at_points_whose_derived_argument_reduces(n, l, r, alpha, x, y, hit):
    if hit:
        y = -x  # x + y = 0
    z = alpha - x - y
    table = GenBernTable()
    first = _literal_block(n, l, r, x, lambda i: _gb(i, alpha, y))
    second = _literal_block(l, n, r, x, lambda i: _gb(i, alpha, z))
    assert readings("s1", table, n=n, l=l, r=r, alpha=alpha, x=x, y=y, z=z) == (-1) ** n * first - (-1) ** (l + r) * second
    folded = _literal_block(l, n, r, -x, lambda i: _gb(i, alpha, x + y))
    assert readings("s2", table, n=n, l=l, r=r, alpha=alpha, x=x, y=y) == first - folded
    lhs = (-1) ** n * _literal_block(n, l, r, x, lambda i: _gb(i, alpha, y), stop=n + r) + (-1) ** (
        l + r + 1
    ) * _literal_block(l, n, r, x, lambda i: _gb(i, alpha, z), stop=l + r)
    c = (-1) ** n * math.comb(n + l + 2 * r, r)
    assert readings("cor3a", table, n=n, l=l, r=r, alpha=alpha, x=x, y=y, z=z) == {
        name: lhs - c * (_gb(idx, alpha, x + y) - _gb(idx, alpha, y))
        for name, idx in (("corrected", n + l + r), ("as_printed", n + l + 1))
    }
    _assert_row_keys_reduced(table)


def _block_reference(p, q, r, w, term, stop=None, scale=1, total=F(0)):
    """The Fraction loop the rational block replaced: one Fraction product
    and add per term with a nonzero coefficient."""
    top = p + r
    for k in range(top + 1 if stop is None else stop):
        c = scale * binomial(top, k) * binomial(q + k + r, r) * (w if isinstance(w, Poly) else F(w)) ** (top - k)
        if c:
            total = total + term(q + k) * c
    return total


# rationals entered with negative and 30-digit denominators, and zero
rationals = st.one_of(
    st.just(F(0)),
    st.integers(-3, 3).map(F),
    st.fractions(min_value=-5, max_value=5, max_denominator=7),
    st.builds(F, st.integers(-(10**30), 10**30), st.one_of(st.integers(-(10**30), -1), st.integers(1, 10**30))),
)


@settings(max_examples=150, deadline=None)
@given(
    st.integers(0, 3),
    st.integers(0, 3),
    st.integers(0, 3),
    rationals,
    st.lists(rationals, min_size=10, max_size=10),
    st.one_of(st.none(), st.integers(0, 6)),
    st.sampled_from([1, -1]),
    rationals,
)
def test_rational_block_matches_fraction_loop(p, q, r, w, values, stop, scale, total):
    stop = None if stop is None else min(stop, p + r)  # below top + 1
    term = _block(p, q, r, _parts(w), _row(values), stop=stop, scale=scale)
    expected = _block_reference(p, q, r, w, values.__getitem__, stop=stop, scale=scale, total=total)
    assert F(*term) + total == expected
    # the term joins a second one in one Fraction
    got = _join(term, _parts(total))
    assert got == expected and type(got) is F


small_coefficients = st.fractions(min_value=-3, max_value=3, max_denominator=5)
a_polys = st.lists(small_coefficients, max_size=3).map(lambda cs: Poly("a", cs))
x_polys = st.lists(st.one_of(small_coefficients, a_polys.filter(bool)), max_size=3).map(lambda cs: Poly("x", cs))


@settings(max_examples=100, deadline=None)
@given(
    st.integers(0, 3),
    st.integers(0, 3),
    st.integers(0, 3),
    st.one_of(st.just(F(0)), st.just(Poly("a")), rationals, a_polys),
    # ten values and a starting total, all in QQ[a] or all in QQ[a][x]
    st.sampled_from([a_polys, x_polys]).flatmap(lambda ring: st.tuples(st.lists(ring, min_size=10, max_size=10), ring)),
    st.one_of(st.none(), st.integers(0, 6)),
    st.sampled_from([1, -1]),
)
@example(2, 1, 1, F(0), ([X + i for i in range(10)], Poly("x")), None, -1)
@example(1, 2, 1, ALPHA - 1, ([poly_a(i, 1) for i in range(10)], poly_a(1)), 1, 1)
def test_poly_block_matches_fraction_loop(p, q, r, w, values_and_total, stop, scale):
    values, total = values_and_total
    stop = None if stop is None else min(stop, p + r)  # below top + 1
    calls = []

    def spy(i):
        calls.append(i)
        return values[i]

    got = _poly_block(p, q, r, w, spy, total, stop=stop, scale=scale)
    assert got == _block_reference(p, q, r, w, values.__getitem__, stop=stop, scale=scale, total=total)
    assert isinstance(got, Poly) and got.var == total.var
    # values is read once per term whose whole weight is nonzero: never for a zero weight below the top power
    top = p + r
    assert calls == [q + k for k in range(top + 1 if stop is None else stop) if w or k == top]


# its own table, so that random orders leave no entries in the default one
PROPERTY_TABLE = GenBernTable()
small_rationals = st.fractions(min_value=-4, max_value=4, max_denominator=9)


@settings(max_examples=60, deadline=None)
@given(
    st.integers(0, 3),
    st.integers(0, 3),
    st.integers(0, 3),
    st.one_of(st.none(), st.integers(0, 6)),
    st.sampled_from([1, -1]),
    rationals,
    small_rationals,
    small_rationals,
)
def test_row_fed_block_matches_per_term_sum(p, q, r, stop, scale, w, alpha, x):
    stop = None if stop is None else min(stop, p + r)
    t = PROPERTY_TABLE
    term = _block(p, q, r, _parts(w), t.value_row(p + q + r, alpha, x), stop=stop, scale=scale)
    assert F(*term) == _block_reference(p, q, r, w, lambda i: t.value_at(i, alpha, x), stop=stop, scale=scale)


def test_difference_short_circuit_matches_lincomb():
    lhs = main_identity_lhs(2, 1, 1, 1, F(1, 2))
    pairs = [
        (lhs, lhs),  # one object
        (lhs, main_identity_lhs(2, 1, 1, 1, F(1, 2)) + Poly("x")),  # equal storage, built twice
        (lhs, lhs + X),  # unequal
        (X * ALPHA + 3, X * ALPHA + F(5, 2)),  # unequal constant, same kinds
        # equal polynomials whose rows differ only in kind (int v against [v])
        (from_rows("x", 2, [1, [0, 1]]), from_rows("x", 2, [[1], [0, 1]])),
        (from_rows("x", 3, [[2], 5]), from_rows("x", 3, [2, [5]])),
    ]
    for a, b in pairs:
        via_lincomb = lincomb("x", [(1, a), (-1, b)])
        got = _difference(a, b)
        assert (got.var, got.den, got.rows) == (via_lincomb.var, via_lincomb.den, via_lincomb.rows)
        assert got.is_zero() == (a == b)
    assert main_identity_residual(2, 1, 1, 1, F(1, 2)).is_zero()
