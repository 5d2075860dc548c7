"""Bernoulli tables: classical, symbolic, oracles, operator calculus."""

import math
import sys
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction as F

import pytest

from genbern import bernoulli
from genbern.bernoulli import (
    DEFAULT_TABLE,
    GenBernTable,
    OmegaOperator,
    bernoulli_numbers_binomial_solve,
    classical_bernoulli_numbers,
    gen_bernoulli_numbers_symbolic,
    integer_alpha_oracle,
)
from genbern.poly import ALPHA, Poly, X, alpha_shifted, alpha_substituted, binomial, lincomb, poly_a, poly_x

# -- independent oracle: exp(order * log f) as truncated series ---------------


def log_series(coeffs, n_max):
    """u with exp(u) = f for f given by Fraction coefficients, f_0 = 1."""
    u = [F(0)] * (n_max + 1)
    for n in range(1, n_max + 1):
        acc = sum((coeffs[k] * (n - k) * u[n - k] for k in range(1, n)), F(0))
        u[n] = coeffs[n] - acc * F(1, n)
    return u


def exp_alpha_series(u, n_max):
    """h = exp(a * u) with symbolic a, for u_0 = 0; h_n lands in QQ[a]."""
    h = [poly_a(1)]
    for n in range(1, n_max + 1):
        acc = poly_a()
        for k in range(1, n + 1):
            if u[k]:
                acc = acc + h[n - k] * (ALPHA * (k * u[k]))
        h.append(acc * F(1, n))
    return h


def symbolic_numbers_by_exp_log(n_max):
    base = [b / math.factorial(k) for k, b in enumerate(classical_bernoulli_numbers(n_max))]
    u = log_series(base, n_max)
    h = exp_alpha_series(u, n_max)
    return [h[n] * math.factorial(n) for n in range(n_max + 1)]


# -- classical numbers ---------------------------------------------------------


def test_classical_base_case_and_frozen_value():
    nums = classical_bernoulli_numbers(12)
    assert nums[0] == 1
    assert nums[1] == F(-1, 2)
    assert nums[2] == F(1, 6)
    assert nums[12] == F(-691, 2730)


def test_odd_classical_numbers_vanish():
    nums = classical_bernoulli_numbers(21)
    for n in range(1, 11):
        assert nums[2 * n + 1] == 0


def test_binomial_solve_oracle_agrees():
    assert bernoulli_numbers_binomial_solve(300) == classical_bernoulli_numbers(300)


def test_classical_table_grown_from_cold_in_steps(monkeypatch):
    oracle = bernoulli_numbers_binomial_solve(120)
    for n_max in (0, 1, 2, 3):
        monkeypatch.setattr(bernoulli, "_classical", [F(1)])
        assert classical_bernoulli_numbers(n_max) == oracle[: n_max + 1]
    monkeypatch.setattr(bernoulli, "_classical", [F(1)])
    for n_max in (0, 1, 2, 3, 5, 17, 40, 120, 7):
        assert classical_bernoulli_numbers(n_max) == oracle[: n_max + 1]


def test_classical_value_memo():
    # the classical values at a point are held in its one row
    table = GenBernTable()
    nums = bernoulli_numbers_binomial_solve(12)
    for x in (F(0), F(1, 3), F(-2), 5):
        row = table.classical_row(12, x)
        assert table.classical_row(12, F(x)) is row
        for n in range(13):
            # B_n(x) = sum_j C(n,j) B_(n-j) x^j by a Fraction Horner pass
            horner = F(0)
            for j in range(n, -1, -1):
                horner = horner * x + binomial(n, j) * nums[n - j]
            assert F(row[0][n], row[1]) == horner
    assert sum(key[0] == "classical_row" for key in table._derived) == 4


def test_binomial_recursion_identity():
    # sum_k C(n,k) B_k = B_n + [n == 1]
    nums = classical_bernoulli_numbers(20)
    for n in range(21):
        total = sum(binomial(n, k) * nums[k] for k in range(n + 1))
        assert total == nums[n] + (1 if n == 1 else 0)


def test_sign_flip_identity():
    # (-1)^n B_n = B_n + [n == 1]
    nums = classical_bernoulli_numbers(20)
    for n in range(21):
        assert (-1) ** n * nums[n] == nums[n] + (1 if n == 1 else 0)


def test_autoduality():
    nums = classical_bernoulli_numbers(20)
    for n in range(21):
        total = sum(binomial(n, k) * nums[k] for k in range(n + 1))
        assert total == (-1) ** n * nums[n]


def test_polynomial_binomial_recursion():
    # sum_k C(n,k) B_k(x) = B_n(x) + n x^(n-1); equivalently B_n(x+1) =
    # B_n(x) + n x^(n-1)
    for n in range(21):
        total = Poly("x")
        for k in range(n + 1):
            total = total + DEFAULT_TABLE.classical_poly(k) * binomial(n, k)
        step = Poly("x", (0,) * (n - 1) + (n,)) if n else Poly("x")
        assert total == DEFAULT_TABLE.classical_poly(n) + step
        assert total == DEFAULT_TABLE.classical_poly(n).shift(1)


def test_polynomial_binomial_recursion_printed_variant_fails():
    # the relation circulates in print with x^n in place of n x^(n-1);
    # that reading is false already at n = 1
    total = DEFAULT_TABLE.classical_poly(0) + DEFAULT_TABLE.classical_poly(1)
    assert total != DEFAULT_TABLE.classical_poly(1) + X


# -- symbolic numbers ----------------------------------------------------------


def test_symbolic_first_entries():
    nums = gen_bernoulli_numbers_symbolic(2)
    assert nums[0] == poly_a(1)
    assert nums[1] == poly_a(0, F(-1, 2))
    assert nums[2] == poly_a(0, F(-1, 12), F(1, 4))


def test_symbolic_numbers_match_exp_log_oracle():
    assert gen_bernoulli_numbers_symbolic(12) == symbolic_numbers_by_exp_log(12)


def test_symbolic_specialization_at_one_is_classical():
    nums = classical_bernoulli_numbers(20)
    for n in range(21):
        assert DEFAULT_TABLE.number(n).eval(F(1)) == nums[n]


def test_integer_alpha_oracle_base_cases():
    assert integer_alpha_oracle(5, 0) == [1, 0, 0, 0, 0, 0]
    assert integer_alpha_oracle(12, 1) == classical_bernoulli_numbers(12)


def test_integer_alpha_oracle_matches_symbolic():
    for a in (0, 1, 2, 3, 4, 5, 8):
        sym = [DEFAULT_TABLE.number(n).eval(F(a)) for n in range(41)]
        assert integer_alpha_oracle(40, a) == sym


def test_leading_alpha_coefficient():
    # the a^n coefficient of B_n^(a) is (-1/2)^n
    nums = gen_bernoulli_numbers_symbolic(10)
    for n in range(11):
        assert nums[n].coeff(n) == F(-1, 2) ** n


# -- symbolic polynomials -------------------------------------------------------


def test_poly_base_and_frozen_quadratic():
    assert DEFAULT_TABLE.poly(0) == poly_x(1)
    expected = Poly("x", (poly_a(0, F(-1, 12), F(1, 4)), -ALPHA, F(1)))
    assert DEFAULT_TABLE.poly(2) == expected


def test_poly_monic_of_exact_degree():
    for n in range(16):
        p = DEFAULT_TABLE.poly(n)
        assert p.degree == n
        assert p.coeff(n) == 1


def test_poly_at_zero_gives_numbers():
    for n in range(16):
        assert DEFAULT_TABLE.poly(n).eval(0) == DEFAULT_TABLE.number(n)


def test_poly_at_order_zero_is_monomial():
    for n in range(11):
        assert alpha_substituted(DEFAULT_TABLE.poly(n), 0) == Poly("x", (0,) * n + (1,))


def test_poly_at_order_one_is_classical():
    for n in range(16):
        assert DEFAULT_TABLE.poly_at(n, 1) == DEFAULT_TABLE.classical_poly(n)


def test_appell_derivative():
    for n in range(1, 16):
        assert DEFAULT_TABLE.poly(n).derive() == DEFAULT_TABLE.poly(n - 1) * n


def test_addition_formula_matches_direct_shift():
    for c in (F(1), F(2), F(-1, 2)):
        for n in range(16):
            assert DEFAULT_TABLE.poly_shifted(n, c) == DEFAULT_TABLE.poly(n).shift(c)


def test_shift_examples():
    assert DEFAULT_TABLE.poly_shifted(3, 0) == DEFAULT_TABLE.poly(3)
    assert DEFAULT_TABLE.poly_shifted(1, 1) == Poly("x", (poly_a(1, F(-1, 2)), F(1)))


def test_difference_lowers_order():
    # Delta B_n^(a)(x) = D B_n^(a-1)(x)
    for n in range(16):
        lhs = DEFAULT_TABLE.poly(n).delta()
        rhs = alpha_shifted(DEFAULT_TABLE.poly(n), -1).derive()
        assert lhs == rhs


def _negate_argument(p: Poly) -> Poly:
    return Poly("x", tuple(c * (-1) ** i for i, c in enumerate(p.coeffs)))


def test_reflection_symbolic_two_routes():
    # B_n^(a)(a - x) via the addition formula with symbolic displacement
    # equals (-1)^n B_n^(a)(x).
    for n in range(16):
        direct = Poly("x")
        for k in range(n + 1):
            direct = direct + _negate_argument(DEFAULT_TABLE.poly(k)) * (binomial(n, k) * ALPHA ** (n - k))
        sign = -1 if n % 2 else 1
        assert direct == DEFAULT_TABLE.poly_shifted(n, 0) * F(sign)
        assert direct == DEFAULT_TABLE.poly(n) * F(sign)


def test_reflection_numeric_spot_checks():
    for n in range(12):
        for a0, x0 in ((F(2), F(1, 3)), (F(-1, 2), F(2)), (F(5), F(0))):
            lhs = DEFAULT_TABLE.value_at(n, a0, a0 - x0)
            rhs = (-1) ** n * DEFAULT_TABLE.value_at(n, a0, x0)
            assert lhs == rhs


def test_reflection_examples():
    # order 0 degeneration: the reflected polynomial (-1)^n B_n^(a)(x) at a=0 is (-x)^n
    for n in range(8):
        spec = alpha_substituted(DEFAULT_TABLE.poly_shifted(n, 0) * (-1) ** n, 0)
        assert spec == Poly("x", (0,) * n + ((-1) ** n,))


# -- umbral operator -----------------------------------------------------------


def test_omega_on_x():
    om = OmegaOperator()
    assert om(X) == Poly("x", (poly_a(0, F(-1, 2)), F(1)))


def test_omega_offset_zero_order_is_identity():
    om = OmegaOperator(-1)
    for n in range(9):
        xn = Poly("x", (0,) * n + (1,))
        assert alpha_substituted(om(xn), 1) == xn


def test_omega_shift_absorption():
    # Omega((x+c)^n) = B_n^(a)(x+c)
    for c in (F(1), F(-2), F(1, 2)):
        for n in range(11):
            om = OmegaOperator(0)
            assert om((X + c) ** n) == DEFAULT_TABLE.poly_shifted(n, c)
            om1 = OmegaOperator(-1)
            assert om1((X + c) ** n) == alpha_shifted(DEFAULT_TABLE.poly_shifted(n, c), -1)


def test_omega_linearity():
    om = OmegaOperator(0)
    p = X**3 + X * 2 - 5
    q = X**2 * F(1, 3) + 1
    assert om(p + q) == om(p) + om(q)
    assert om(p * ALPHA) == om(p) * ALPHA


def test_omega_rejects_input_other_than_an_x_polynomial():
    om = OmegaOperator(0)
    for p in (F(1), 2, ALPHA, poly_a(1, F(1, 2))):
        with pytest.raises(TypeError, match="x-polynomial"):
            om(p)


def test_operator_commutation_laws():
    om = OmegaOperator(0)
    om_down = OmegaOperator(-1)
    for n in range(16):
        xn = Poly("x", (0,) * n + (1,))
        assert om(xn).derive() == om(xn.derive())
        assert om(xn.delta()) == om_down(xn.derive())


# -- table mechanics -----------------------------------------------------------


def test_table_growth_is_thread_safe():
    table = GenBernTable()
    with ThreadPoolExecutor(max_workers=8) as pool:
        results = list(pool.map(lambda n: table.poly(n), [12] * 16))
    assert all(r == DEFAULT_TABLE.poly(12) for r in results)


def test_table_readers_never_see_partial_entries():
    # one thread grows a fresh table while three read entries as they appear
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(30):
            table = GenBernTable()
            with ThreadPoolExecutor(max_workers=4) as pool:
                grower = pool.submit(table.grow, 24)
                readers = [pool.submit(lambda: [table.poly(n) for n in range(25)]) for _ in range(3)]
                grower.result(timeout=60)
                polys = [reader.result(timeout=60) for reader in readers]
            assert all(p == polys[0] for p in polys)
            assert [p.eval(0) for p in polys[0]] == table.numbers(24)
    finally:
        sys.setswitchinterval(interval)


def test_table_grown_in_steps_matches_single_grow():
    stepped = GenBernTable()
    for n_max in (5, 17, 40):
        stepped.grow(n_max)
    single = GenBernTable()
    single.grow(40)
    assert stepped.numbers(40) == single.numbers(40) == DEFAULT_TABLE.numbers(40)
    polys = [stepped.poly(n) for n in reversed(range(41))][::-1]
    assert polys == [single.poly(n) for n in range(41)]


def test_offset_cache_consistency():
    table = GenBernTable()
    direct = alpha_shifted(table.poly(6), -1)
    assert table.offset_poly(6, -1) == direct
    assert table.offset_poly(6, 0) == table.poly(6)


def test_derived_polys_cached_equal_recomputed():
    table = GenBernTable()
    for n in range(13):
        for v in (F(0), F(1), F(-1), F(1, 2), F(-2, 3), F(3)):
            shifted = table.poly_shifted(n, v)
            # shift runs Horner on B_n^(a)(x), not the Appell sum
            assert shifted == table.poly(n).shift(v)
            assert table.poly_shifted(n, v) is shifted
            at = table.poly_at(n, v)
            assert at == alpha_substituted(table.poly(n), v)
            assert table.poly_at(n, v) is at
        # keys are Fractions, so an int argument finds the same entry
        assert table.poly_shifted(n, 1) is table.poly_shifted(n, F(1))
        assert table.poly_at(n, -1) is table.poly_at(n, F(-1))
        assert table.classical_poly(n) is table.classical_poly(n)
        assert table.classical_poly(n) == table.poly_at(n, 1)


def test_derived_poly_readers_see_equal_entries():
    # one thread grows a fresh table while three read shifted and
    # specialized polynomials, building each cache entry as they go
    keys = [(n, v) for n in range(13) for v in (F(0), F(1, 2), F(-1))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(10):
            table = GenBernTable()

            def read():
                entries = [(table.poly_shifted(n, v), table.poly_at(n, v)) for n, v in keys]
                # the kernel flattens the shared entries, each reader racing to
                # store the same integer views
                sums = [
                    lincomb("x", [(F(-1, 3), table.poly(n)), (v + 2, shifted), (1, at)])
                    for (n, v), (shifted, at) in zip(keys, entries)
                ]
                return entries, sums

            with ThreadPoolExecutor(max_workers=4) as pool:
                grower = pool.submit(table.grow, 12)
                readers = [pool.submit(read) for _ in range(3)]
                grower.result(timeout=60)
                seen = [reader.result(timeout=60) for reader in readers]
            assert all(entries == seen[0] for entries in seen)
            oracle = [(table.poly(n).shift(v), alpha_substituted(table.poly(n), v)) for n, v in keys]
            assert seen[0][0] == oracle
            assert seen[0][1] == [
                table.poly(n) * F(-1, 3) + shifted * (v + 2) + at for (n, v), (shifted, at) in zip(keys, oracle)
            ]
    finally:
        sys.setswitchinterval(interval)


def test_value_and_reflection_memos_equal_recomputed():
    table = GenBernTable()
    for n in range(11):
        for alpha in (F(1), F(1, 2), F(-2, 3), F(3)):
            for x in (F(0), F(1, 2), F(-3), F(5, 7)):
                value = table.value_at(n, alpha, x)
                # Horner on the specialized polynomial, outside the caches
                assert value == alpha_substituted(table.poly(n), alpha).eval(x)
                assert type(value) is F
        # keys are numerator/denominator pairs, so int arguments find the same row
        assert table.value_row(n, 1, 0) is table.value_row(n, F(1), F(0))
        for c in (F(0), F(1), F(-1, 2), F(2, 3)):
            # B_n^(a)(a + c - x) by the addition formula with the symbolic
            # displacement a + c, against the sign folded onto the shift
            direct = Poly("x")
            for k in range(n + 1):
                direct = direct + _negate_argument(table.poly(k)) * (binomial(n, k) * (ALPHA + c) ** (n - k))
            assert direct == table.poly_shifted(n, -c) * (-1) ** n
    assert sum(key[0] == "row" for key in table._derived) == 4 * 4


def test_cache_keys_from_any_rational_form():
    table = GenBernTable()
    # a str or a float is converted with Fraction before its key is read
    assert table.classical_row(3, "1/2")[0][3] == table.classical_row(3, F(1, 2))[0][3] == 0
    assert table.classical_row(3, "-2/3") is table.classical_row(3, F(-2, 3))
    value = table.value_at(3, 0.5, 1)
    assert value == table.value_at(3, F(1, 2), F(1)) and type(value) is F
    assert table.value_row(3, "1/2", 1.0) is table.value_row(3, F(1, 2), 1)
    for n in range(7):
        assert table.poly_at(n, 2) is table.poly_at(n, F(2)) is table.poly_at(n, "2")
        assert table.poly_shifted(n, -1) is table.poly_shifted(n, F(-1))
        assert table.poly_shifted(n, F(1, 3)) is table.poly_shifted(n, "1/3")
    # equal rationals meet in one entry whatever form they came in
    tags = [key[0] for key in table._derived]
    assert tags.count("row") == 1
    assert tags.count("at") == 7  # order 2 for each n; a value reads its row, not a specialization
    assert tags.count("classical_row") == 2


def test_rows_hold_the_table_values():
    table = GenBernTable()
    for n in (0, 1, 4, 9):
        for alpha in (F(1), F(1, 2), F(-2, 3), F(3)):
            for x in (F(0), F(1, 2), F(-3), F(5, 7)):
                nums, den = table.value_row(n, alpha, x)
                assert len(nums) == n + 1 and den > 0
                assert [F(v, den) for v in nums] == [alpha_substituted(table.poly(k), alpha).eval(x) for k in range(n + 1)]
                assert table.value_row(n, alpha, x) is table.value_row(n, str(alpha), x)
                assert ("row", alpha.numerator, alpha.denominator, x.numerator, x.denominator) in table._derived
        for x in (F(0), F(1, 3), F(-2), 5):
            nums, den = table.classical_row(n, x)
            assert [F(v, den) for v in nums] == [table.classical_poly(k).eval(F(x)) for k in range(n + 1)]
            assert table.classical_row(n, F(x)) is table.classical_row(n, x)
        nums, den = table.classical_row(n)
        assert [F(v, den) for v in nums] == classical_bernoulli_numbers(n)
        # a row built for its request has the least common denominator:
        # no factor common to it and every numerator
        assert math.gcd(den, *nums) == 1
    # one row per point: 4 orders x 4 points, and 4 classical points
    tags = [key[0] for key in table._derived]
    assert (tags.count("row"), tags.count("classical_row")) == (16, 4)


def test_a_longer_row_replaces_the_entry_and_a_shorter_one_is_a_cut():
    table = GenBernTable()
    key = ("row", 1, 2, -1, 3)
    short = table.value_row(3, F(1, 2), F(-1, 3))
    assert table._derived[key] is short
    long = table.value_row(7, F(1, 2), F(-1, 3))
    assert table._derived[key] is long and len(long[0]) == 8
    # a shorter request builds nothing: it reads a cut of the held row
    table.numbers = None
    nums, den = table.value_row(5, F(1, 2), F(-1, 3))
    assert (nums, den) == (long[0][:6], long[1]) and table._derived[key] is long
    assert F(nums[3], den) == F(short[0][3], short[1])
    # the same for a classical row, whose one source is classical_numbers
    table.classical_row(2, 5)
    held = table.classical_row(9, 5)
    table.classical_numbers = None
    assert table.classical_row(4, 5) == (held[0][:5], held[1])
    assert [key[0] for key in table._derived] == ["row", "classical_row"]


def test_rows_are_built_ahead_on_a_sweep(monkeypatch):
    # the default sweep asks each point for lengths 1, 2, 3, ... in turn; a
    # row built ahead meets them with at most two builds per point, and every
    # row it returns holds the values of a row built at exactly that length
    from genbern.harness import SweepConfig, run_suite

    table = GenBernTable()
    builds, reads = Counter(), Counter()
    entry = GenBernTable._row_entry

    def counted(self, key, n, build):
        def counted_build(top):
            assert top <= max(n, len(self._numbers) - 1)  # no build grows the table past the request
            builds[key] += 1
            return build(top)

        nums, den = row = entry(self, key, n, counted_build)
        if not reads[key, n]:
            if key[0] == "row":
                alpha = F(key[1], key[2])
                numbers = [b.eval(alpha) for b in self.numbers(n)]
            else:
                numbers = self.classical_numbers(n)
            exact, exact_den = bernoulli._appell_row(numbers, F(key[-2], key[-1]))
            assert [F(v, den) for v in nums] == [F(v, exact_den) for v in exact], (key, n)
        reads[key, n] += 1
        return row

    monkeypatch.setattr(GenBernTable, "_row_entry", counted)
    run_suite(SweepConfig(), table)
    assert len(builds) == 44 and max(builds.values()) <= 2
    # a request past the grown table builds exactly what it asks for
    fresh = GenBernTable()
    assert len(fresh.value_row(5, F(1, 2), F(1, 3))[0]) == len(fresh._derived[("row", 1, 2, 1, 3)][0]) == 6
    assert len(fresh._numbers) == 6


def test_rows_for_one_point_agree_on_common_indices():
    table = GenBernTable()
    for alpha, x in ((F(1, 2), F(-1, 3)), (F(-3), F(2)), (F(1), F(0))):
        rows = [table.value_row(n, alpha, x) for n in (7, 2, 11, 0)]
        rows += [table.classical_row(n, x) for n in (5, 9) if alpha == 1]
        values = [[F(v, den) for v in nums] for nums, den in rows]
        for a in values:
            for b in values:
                common = min(len(a), len(b))
                assert a[:common] == b[:common]


def test_racing_row_builds_see_equal_rows():
    keys = [(n, alpha, x) for n in (3, 6, 10) for alpha in (F(1, 2), F(-2)) for x in (F(0), F(1, 3), F(-5, 2))]
    oracle = GenBernTable()
    expected = [[alpha_substituted(oracle.poly(k), alpha).eval(x) for k in range(n + 1)] for n, alpha, x in keys]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(5):
            table = GenBernTable()
            with ThreadPoolExecutor(max_workers=4) as pool:
                seen = [pool.submit(lambda: [table.value_row(*key) for key in keys]) for _ in range(4)]
                seen = [future.result(timeout=60) for future in seen]
            # a reader may get a cut of a longer row another reader built, so
            # the rows agree as values, not as numerators over one denominator
            assert all([[F(v, den) for v in nums] for nums, den in rows] == expected for rows in seen)
            # one row per (order, point), however the builds interleaved
            assert sum(key[0] == "row" for key in table._derived) == 2 * 3
    finally:
        sys.setswitchinterval(interval)


def test_negative_n_rejected():
    with pytest.raises(ValueError):
        classical_bernoulli_numbers(-1)
    with pytest.raises(ValueError):
        integer_alpha_oracle(5, -1)
