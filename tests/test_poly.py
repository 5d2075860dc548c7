"""Exact polynomial ring: operations, operators, and the text grammar."""

import math
import operator
import sys
import threading
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from genbern.poly import (
    _VAR_RANK,
    ALPHA,
    Poly,
    X,
    alpha_shifted,
    alpha_substituted,
    binomial,
    lincomb,
    poly_a,
    poly_x,
)
from genbern.textform import PolyParseError, format_poly, parse_fraction, parse_poly

# -- independent oracles ------------------------------------------------------


def shift_by_products(p: Poly, c) -> Poly:
    """Oracle for shift: sum_i c_i (x+c)^i using only mul/power."""
    base = Poly(p.var, (F(c), F(1)))
    out = Poly(p.var)
    for i, coeff in enumerate(p.coeffs):
        out = out + base**i * coeff
    return out


def delta_by_products(p: Poly) -> Poly:
    """Oracle for the forward difference: sum_i c_i ((x+1)^i - x^i)."""
    base = Poly(p.var, (F(1), F(1)))
    out = Poly(p.var)
    for i, coeff in enumerate(p.coeffs):
        out = out + (base**i - Poly(p.var, (0,) * i + (1,))) * coeff
    return out


# -- binomial -----------------------------------------------------------------


def test_binomial_examples():
    assert binomial(5, 2) == 10
    assert binomial(7, 7) == 1
    assert binomial(4, -1) == 0
    assert binomial(4, 5) == 0


def test_binomial_negative_n_rejected():
    with pytest.raises(ValueError):
        binomial(-1, 0)


# -- ring operations ----------------------------------------------------------


def test_mul_difference_of_squares():
    assert poly_x(1, 1) * poly_x(-1, 1) == poly_x(-1, 0, 1)


def test_power_zero_is_one_even_for_zero_poly():
    assert poly_x() ** 0 == poly_x(1)
    assert poly_x(0, 3) ** 0 == poly_x(1)


def test_additive_inverse():
    p = poly_x(F(1, 2), -2, 3)
    assert p + p * F(-1) == poly_x()
    assert (p - p).is_zero()


def test_normalization_strips_trailing_zeros():
    assert Poly("x", (1, 2, 0, 0)).coeffs == (F(1), F(2))
    assert Poly("x", (0, 0)).is_zero()
    assert Poly("x", (F(2, 4),)).coeffs == (F(1, 2),)


def test_tower_coercions():
    p = X * X + ALPHA          # x^2 + a
    assert p.coeff(0) == ALPHA
    assert p.coeff(2) == 1
    q = ALPHA * X              # promotes to an x-polynomial
    assert q.var == "x"
    assert q.coeff(1) == ALPHA
    with pytest.raises(ValueError):
        Poly("a", (X,))


# -- shift / derive / delta / eval -------------------------------------------


def test_shift_square():
    assert poly_x(0, 0, 1).shift(1) == poly_x(1, 2, 1)


def test_shift_zero_is_identity():
    p = poly_x(F(1, 3), -2, 0, 5)
    assert p.shift(0) == p


def test_shift_cube_by_minus_half_matches_product_oracle():
    p = poly_x(0, 0, 0, 1)
    shifted = p.shift(F(-1, 2))
    assert shifted == shift_by_products(p, F(-1, 2))
    assert shifted == poly_x(F(-1, 8), F(3, 4), F(-3, 2), 1)


def test_derive_basic():
    cube = poly_x(0, 0, 0, 1)
    assert cube.derive() == poly_x(0, 0, 3)
    assert cube.derive(4).is_zero()


def test_higher_derivative_matches_repeated_single():
    # an instance shaped like the windowed product terms
    p = poly_x(0, 0, 0, 1) * (X + F(1, 2) - 1) ** 4  # x^3 (x - 1/2)^4
    for order in (1, 2, 3, 4):
        repeated = p
        for _ in range(order):
            repeated = repeated.derive()
        assert p.derive(order) == repeated


def test_delta_examples():
    assert poly_x(0, 0, 1).delta() == poly_x(1, 2)
    assert poly_x(7).delta().is_zero()
    assert poly_x(0, 0, 0, 1).delta() == poly_x(1, 3, 3)


def test_eval_examples():
    p = poly_x(F(1, 6), -1, 1)  # x^2 - x + 1/6
    assert p.eval(0) == F(1, 6)
    assert p.eval(F(1, 2)) == F(-1, 12)
    assert poly_x(F(5), 2, 3).eval(0) == 5  # constant coefficient


def test_eval_bipoly_levels():
    # x^2 - a x + (3a^2 - a)/12 at a=1 gives the classical quadratic
    p = Poly("x", (poly_a(0, F(-1, 12), F(1, 4)), -ALPHA, F(1)))
    from genbern.poly import alpha_substituted

    assert alpha_substituted(p, 1) == poly_x(F(1, 6), -1, 1)
    # at x = 0 the constant (an a-polynomial) remains
    assert p.eval(0) == poly_a(0, F(-1, 12), F(1, 4))
    # fully evaluated
    assert alpha_substituted(p, 1).eval(0) == F(1, 6)


def test_zero_power_zero_convention():
    assert F(0) ** 0 == 1
    assert poly_x().eval(0) == 0
    assert poly_x(1).eval(0) == 1


# -- property tests -----------------------------------------------------------

fractions = st.fractions(min_value=-12, max_value=12, max_denominator=6)
coeff_lists = st.lists(fractions, min_size=0, max_size=5)


def polys(var):
    return coeff_lists.map(lambda cs: Poly(var, cs))


@settings(max_examples=60, deadline=None)
@given(polys("x"), polys("x"), polys("x"))
def test_ring_axioms(p, q, r):
    assert p + q == q + p
    assert p * q == q * p
    assert (p + q) + r == p + (q + r)
    assert (p * q) * r == p * (q * r)
    assert p * (q + r) == p * q + p * r


@settings(max_examples=60, deadline=None)
@given(polys("x"), fractions, fractions)
def test_shift_composition(p, a, b):
    assert p.shift(a).shift(b) == p.shift(a + b)


@settings(max_examples=40, deadline=None)
@given(polys("x"))
def test_delta_equals_shift_minus_identity(p):
    assert p.delta() == p.shift(1) - p
    assert p.delta() == delta_by_products(p)


def test_derive_delta_commute_on_monomials():
    for n in range(21):
        xn = Poly("x", (0,) * n + (1,))
        assert xn.delta().derive() == xn.derive().delta()


@settings(max_examples=40, deadline=None)
@given(polys("a"), polys("a"))
def test_alpha_level_ring(p, q):
    assert p * q == q * p
    assert (p - q) + q == p


def _structure(p: Poly):
    """Exact layout of a polynomial, coefficient types included."""
    return p.var, tuple(_structure(c) if isinstance(c, Poly) else (type(c), c) for c in p.coeffs)


def assert_normalized(r: Poly):
    """The invariants Poly(...) establishes, checked on a computed result."""
    assert not r.coeffs or r.coeffs[-1], "trailing zero coefficient"
    for c in r.coeffs:
        if isinstance(c, Poly):
            assert _VAR_RANK[c.var] < _VAR_RANK[r.var]
            assert_normalized(c)
        else:
            assert type(c) is F, f"coefficient of type {type(c).__name__}"
    assert _structure(r) == _structure(Poly(r.var, r.coeffs))


bipolys = st.lists(st.one_of(fractions, polys("a")), max_size=4).map(lambda cs: Poly("x", cs))
scalars = st.one_of(st.integers(-3, 3), fractions, polys("a"))


@settings(max_examples=80, deadline=None)
@given(st.one_of(polys("a"), bipolys), bipolys, scalars, fractions, st.integers(0, 3))
def test_operations_keep_constructor_invariants(p, q, scalar, c, k):
    results = [
        -p,
        p + q,
        p - q,
        p - p,
        p * q,
        q * p,
        p + scalar,
        scalar + p,
        p - scalar,
        scalar - p,
        p * scalar,
        scalar * p,
        p * 0,
        p**k,
        p.shift(c),
        p.derive(k),
        p.delta(),
    ]
    for r in results:
        assert_normalized(r)


# -- the Fraction reference ring -------------------------------------------------
#
# The slow oracle for every Poly operation: dense lists of Fractions, with
# no integer storage.  At level "a" a polynomial is a list of Fractions; at
# level "x" it is a list of such lists (a rational coefficient c is [c]).
# Every value is compared in trimmed form, so no result depends on how a
# Poly stores its rows.


def _trim(values, zero):
    values = list(values)
    while values and values[-1] == zero:
        values.pop()
    return values


def lift(level, value):
    """Trimmed reference form of a scalar, Poly or reference list at ``level``."""
    if level == "a":
        if isinstance(value, Poly):
            assert value.var == "a"
            return _trim(value.coeffs, 0)
        return _trim([F(value)], 0)
    if isinstance(value, Poly) and value.var == "x":
        return _trim([lift("a", c) for c in value.coeffs], [])
    return _trim([lift("a", value)], [])


def _add_lists(u, v, add, zero):
    return [add(u[i] if i < len(u) else zero, v[i] if i < len(v) else zero) for i in range(max(len(u), len(v)))]


def _mul_lists(u, v, add, mul, zero):
    out = [zero] * max(len(u) + len(v) - 1, 0)
    for i, s in enumerate(u):
        for j, t in enumerate(v):
            out[i + j] = add(out[i + j], mul(s, t))
    return out


def _a_add(u, v):
    return _trim(_add_lists(u, v, operator.add, F(0)), 0)


def _a_mul(u, v):
    return _trim(_mul_lists(u, v, operator.add, operator.mul, F(0)), 0)


def ref_add(level, u, v):
    if level == "a":
        return _a_add(u, v)
    return _trim(_add_lists(u, v, _a_add, []), [])


def ref_mul(level, u, v):
    if level == "a":
        return _a_mul(u, v)
    return _trim(_mul_lists(u, v, _a_add, _a_mul, []), [])


def ref_shift(level, u, c):
    """u(var + c) by Horner over the reference ring."""
    base = [F(c), F(1)] if level == "a" else [[F(c)], [F(1)]]
    acc = []
    for coeff in reversed(u):
        acc = ref_add(level, ref_mul(level, acc, base), [coeff])
    return acc


def ref_pow(level, u, k):
    out = lift(level, 1)
    for _ in range(k):
        out = ref_mul(level, out, u)
    return out


def ref_derive(level, u, k):
    if level == "a":
        return _trim([c * math.perm(i, k) for i, c in enumerate(u)][k:], 0)
    return _trim([_a_mul([F(math.perm(i, k))], c) for i, c in enumerate(u)][k:], [])


def ref_eval_a(u, value):
    acc = F(0)
    for c in reversed(u):
        acc = acc * value + c
    return acc


def ref_eval(level, u, value):
    """u at var = value: a Fraction at level "a", an a-level list at level "x"."""
    if level == "a":
        return ref_eval_a(u, value)
    acc = []
    for c in reversed(u):
        acc = _a_add(_a_mul(acc, [F(value)]), c)
    return acc


def storage(p):
    return p.den, p.rows


levels = {"a": polys("a"), "x": polys("x"), "ax": bipolys}
offsets = st.one_of(st.integers(-3, 3), fractions, st.builds(
    F, st.integers(-(10**30), 10**30), st.one_of(st.integers(-(10**30), -1), st.integers(1, 10**30))
))


def as_list_kinds(p):
    """The same x-polynomial with every coefficient an a-polynomial."""
    return Poly("x", [c if isinstance(c, Poly) else Poly("a", (c,)) for c in p.coeffs])


@pytest.mark.parametrize("kind", sorted(levels))
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_operations_match_fraction_reference(kind, data):
    p = data.draw(levels[kind])
    q = data.draw(st.one_of(polys("a"), polys("x"), bipolys))
    scalar = data.draw(scalars)
    c, value = data.draw(offsets), data.draw(offsets)
    k = data.draw(st.integers(0, 3))
    level = "x" if "x" in (p.var, q.var) else "a"
    lp, lq, minus = lift(level, p), lift(level, q), lift(level, -1)
    own, ls, own_minus = lift(p.var, p), lift(p.var, scalar), lift(p.var, -1)
    cases = [
        (p + q, level, ref_add(level, lp, lq)),
        (p - q, level, ref_add(level, lp, ref_mul(level, minus, lq))),
        (p * q, level, ref_mul(level, lp, lq)),
        (q * p, level, ref_mul(level, lq, lp)),
        (p + scalar, p.var, ref_add(p.var, own, ls)),
        (scalar - p, p.var, ref_add(p.var, ls, ref_mul(p.var, own_minus, own))),
        (p * scalar, p.var, ref_mul(p.var, own, ls)),
        (p**k, p.var, ref_pow(p.var, own, k)),
        (p.shift(c), p.var, ref_shift(p.var, own, F(c))),
        (p.derive(k), p.var, ref_derive(p.var, own, k)),
        (p.delta(), p.var, ref_add(p.var, ref_shift(p.var, own, F(1)), ref_mul(p.var, own_minus, own))),
    ]
    for got, lv, expected in cases:
        assert lift(lv, got) == expected
        assert_normalized(got)
    got = p.eval(value)
    expected = ref_eval(p.var, own, F(value))
    assert lift("a", got) == (expected if p.var == "x" else lift("a", expected))
    if p.var == "x":
        substituted = alpha_substituted(p, F(value))
        assert lift("x", substituted) == _trim([_trim([ref_eval_a(a, F(value))], 0) for a in own], [])
        assert_normalized(substituted)
        shifted = alpha_shifted(p, c)
        assert lift("x", shifted) == _trim([ref_shift("a", a, F(c)) for a in own], [])
        assert_normalized(shifted)
    # equal polynomials compare equal whatever their row kinds
    for r in (p + q, p.shift(c), p * scalar):
        if r.var == "x":
            same = as_list_kinds(r)
            assert same == r and r == same and not (same != r)
        assert r == Poly(r.var, r.coeffs)


def test_equality_across_row_kinds():
    assert Poly("x", (F(3),)) == Poly("x", (poly_a(3),)) == F(3) == poly_a(3)
    assert Poly("x", (0, poly_a(1, 2))) == Poly("x", (poly_a(), poly_a(1, 2)))
    assert Poly("x", (F(1, 2), 1)) != Poly("x", (poly_a(F(1, 2), 1), 1))
    assert storage(Poly("x", (poly_a(F(1, 6), F(2, 3)), F(1, 4)))) == (12, [[2, 8], 3])


def test_coeffs_publication_race():
    """Four threads read one shared Poly whose coefficients nobody has read
    yet; every reader sees the same complete tuple."""
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for trial in range(30):
            shared = (X * F(1, 3) + ALPHA * F(trial + 1, 7) - F(1, 5)) ** 9
            expected = Poly("x", shared.coeffs).coeffs  # from a separate instance's read
            shared = (X * F(1, 3) + ALPHA * F(trial + 1, 7) - F(1, 5)) ** 9
            assert shared._coeffs is None
            barrier = threading.Barrier(4)
            seen = []

            def reader():
                barrier.wait(timeout=30)
                seen.append((shared.coeffs, shared.is_zero(), shared == shared * 1))

            threads = [threading.Thread(target=reader) for _ in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
                assert not t.is_alive()
            assert len(seen) == 4
            for coeffs, zero, equal in seen:
                assert type(coeffs) is tuple and coeffs == expected
                assert not zero and equal
            assert shared.coeffs is shared.coeffs
    finally:
        sys.setswitchinterval(old)


# -- the integer linear-combination kernel -------------------------------------

# Numerators and denominators far beyond a machine word; a negative
# denominator is normalized by Fraction itself.
big_fractions = st.builds(
    F, st.integers(-(10**30), 10**30), st.one_of(st.integers(-(10**30), -1), st.integers(1, 10**30))
)
weights = st.one_of(st.integers(-3, 3), fractions, big_fractions)
big_coeff_lists = st.lists(st.one_of(fractions, big_fractions), max_size=5)


def kernel_polys(var):
    return st.one_of(polys(var), big_coeff_lists.map(lambda cs: Poly(var, cs)))


kernel_operands = {
    "a": kernel_polys("a"),
    "x": kernel_polys("x"),
    # Q[a][x], with Fraction and a-polynomial coefficients mixed
    "ax": st.lists(st.one_of(fractions, big_fractions, kernel_polys("a")), max_size=4).map(lambda cs: Poly("x", cs)),
}


def ring_sum(var, pairs):
    """Oracle for lincomb: sum c*P through the Fraction reference ring."""
    out = []
    for c, p in pairs:
        out = ref_add(var, out, ref_mul(var, lift(var, c), lift(var, p)))
    return out


@pytest.mark.parametrize("kind", sorted(kernel_operands))
@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_lincomb_matches_ring_sum(kind, data):
    var = "a" if kind == "a" else "x"
    pairs = data.draw(st.lists(st.tuples(weights, kernel_operands[kind]), max_size=5))
    cancel = data.draw(st.booleans())
    if cancel:
        # every term meets its negative, in a shuffled order
        pairs = pairs + data.draw(st.permutations([(-c, p) for c, p in pairs]))
    result = lincomb(var, pairs)
    assert lift(var, result) == ring_sum(var, pairs)
    assert result.var == var
    assert_normalized(result)
    if cancel:
        assert result.coeffs == ()
    # the storage a sum holds is the canonical one its coefficients give
    assert storage(result) == storage(Poly(result.var, result.coeffs))
    assert lincomb(var, pairs) == result


def test_lincomb_examples():
    p = Poly("x", (F(1, 2), poly_a(1, F(-1, 3))))
    q = Poly("x", (poly_a(0, 1), F(2, 3), F(5)))
    assert lincomb("x", [(F(2), p), (F(-1, 5), q)]) == p * 2 - q * F(1, 5)
    assert lincomb("x", [(1, p), (-1, p)]).coeffs == ()
    assert lincomb("x", []).coeffs == ()
    assert lincomb("a", [(F(3, 4), poly_a(F(1, 3), 2))]) == poly_a(F(1, 4), F(3, 2))
    # a zero weight drops its term, even where it is the only a-polynomial
    assert lincomb("x", [(0, q), (1, poly_x(1, 2))]).coeffs == (F(1), F(2))
    assert storage(p) == (6, [3, [6, -2]])
    # an a-polynomial weight multiplies its polynomial first; den divides the sum
    assert lincomb("x", [(ALPHA, p), (F(1, 2), q)], 3) == (p * ALPHA + q * F(1, 2)) * F(1, 3)


# -- text grammar -------------------------------------------------------------


def test_format_documented_examples():
    assert format_poly(poly_a(0, F(-1, 12), F(1, 4))) == "(-1/12)*a + (1/4)*a^2"
    assert format_poly(poly_x(F(1, 6), -1, 1)) == "1/6 - x + x^2"
    assert format_poly(poly_x()) == "0"


def test_format_bipoly():
    p = Poly("x", (poly_a(0, F(-1, 12), F(1, 4)), -ALPHA, F(1)))
    assert format_poly(p) == "((-1/12)*a + (1/4)*a^2) + (-a)*x + x^2"


@settings(max_examples=80, deadline=None)
@given(polys("x"))
def test_round_trip_x(p):
    assert parse_poly(format_poly(p), var="x") == p


@settings(max_examples=80, deadline=None)
@given(polys("a"))
def test_round_trip_a(p):
    assert parse_poly(format_poly(p), var="a") == p


@settings(max_examples=60, deadline=None)
@given(coeff_lists, coeff_lists)
def test_round_trip_bipoly(consts, lin):
    p = Poly("x", (Poly("a", consts), Poly("a", lin), F(1)))
    assert parse_poly(format_poly(p), var="x") == p


def test_parse_rejects_garbage():
    for bad in ("", "1/0", "x^", "q + 1", "1..2", "(1/2*x", "x^-1"):
        with pytest.raises(PolyParseError):
            parse_poly(bad)


def test_parse_fraction_grammar():
    assert parse_fraction("-3/4") == F(-3, 4)
    assert parse_fraction("17") == 17
    for bad in ("1/0", "0.5", "three", "1 / 2"):
        with pytest.raises(PolyParseError):
            parse_fraction(bad)
