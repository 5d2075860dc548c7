"""Exact polynomial ring: operations, operators, and the text grammar."""

from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from genbern.poly import _VAR_RANK, ALPHA, Poly, X, _int_view, binomial, lincomb, poly_a, poly_x
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
    """Oracle for lincomb: sum c*P through the Fraction ring operators."""
    out = Poly(var)
    for c, p in pairs:
        if c:
            out = out + p * c
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
    assert result == ring_sum(var, pairs)
    assert result.var == var
    assert_normalized(result)
    if cancel:
        assert result.coeffs == ()
    # the view a sum keeps is the one its coefficients give
    assert _int_view(result) == _int_view(Poly(result.var, result.coeffs))
    # every operand with a nonzero weight now keeps its view; a second call reads it
    assert all(p._view is not None for c, p in pairs if c)
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
    assert _int_view(p) == (6, [3, [6, -2]])


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
