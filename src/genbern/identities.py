"""The identity catalog: every entry is certified by exact subtraction.

Each catalog case builds both sides of one displayed identity from the
Bernoulli tables and reports the exact residual (left minus right) as an
element of QQ, QQ[a] or QQ[a][x]; a case is verified exactly when that
residual is literally zero.  No tolerances exist anywhere.

The central object is the two-block alternating sum

    S(n, l, r; x, y, z)
        =  sum_{k=0}^{n+r} x^(n+r-k) C(n+r,k) C(l+k+r,r) B_{l+k}^(a)(y)
         + (-1)^(l+n+r+1)
           sum_{k=0}^{l+r} x^(l+r-k) C(l+r,k) C(n+k+r,r) B_{n+k}^(a)(z)

and the main identity evaluates it at (x, y, z) = (lam, x, a+s-lam-x) in
closed form through the order-lowering umbral operator.  Every block of
such a sum in the catalog goes through one kernel, ``_block``, and every
order-one closed double sum (r+1) sum_k sum_j C(n+r,j) C(l+r,r+1-j)
u_k^(l+j-1) v_k^(n+r-j) through another, ``_double_sum``.  A handful of
catalog entries circulate in print with typographical slips; those run in
"adjudication" mode, where every candidate reading is evaluated and the
result records which one verifies.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from fractions import Fraction

from .bernoulli import (
    DEFAULT_TABLE,
    GenBernTable,
    OmegaOperator,
    classical_bernoulli_numbers,
    classical_bernoulli_value,
)
from .poly import ALPHA, Poly, X, binomial, from_rows, lincomb, linear_image, poly_a

ZERO = Fraction(0)

STATUS_VERIFIED = "verified"
STATUS_COUNTEREXAMPLE = "counterexample"
STATUS_NOT_APPLICABLE = "not_applicable"


class NegativePowerError(ValueError):
    """A negative exponent survived a nonzero coefficient in an explicit sum."""


def _monomial_value(coeff, base: Fraction, exp: int) -> Fraction:
    """coeff * base**exp with the 0**0 = 1 convention.

    Explicit sums in the catalog contain formally negative exponents that
    are always paired with a vanishing binomial coefficient; this helper
    asserts that pairing instead of inventing a value for base**-1.
    """
    if not coeff:
        return ZERO
    if exp < 0:
        raise NegativePowerError(f"exponent {exp} with nonzero coefficient {coeff}")
    return coeff * base**exp


def _is_odd(v: int) -> bool:
    return v % 2 == 1


def _sign(e: int) -> int:
    return -1 if e % 2 else 1


def _difference(lhs: Poly, rhs: Poly) -> Poly:
    """lhs - rhs for two x-polynomials, over integers."""
    return lincomb("x", [(1, lhs), (-1, rhs)])


def _block(p: int, q: int, r: int, w, term, stop: int | None = None, scale=1, total=ZERO):
    """total + scale * sum_{k<stop} C(p+r,k) C(q+k+r,r) w^(p+r-k) term(q+k).

    One block of the two-block sum; ``stop`` defaults to p+r+1, the whole
    block.  Terms with a zero coefficient are skipped without calling
    ``term``.  Every sign rides in ``scale``, which multiplies the integer
    coefficient, so a signed block costs no extra product; a second block
    accumulates into the first through ``total``.  A polynomial block is
    one integer linear combination (``lincomb``): a rational weight w = u/v
    enters as the integer weights C C u^(p+r-k) v^k over the single
    denominator v^(p+r).  A rational-valued block sums Fractions.
    """
    top = p + r
    u, v = w, 1
    if isinstance(total, Poly) and not isinstance(w, Poly):
        w = Fraction(w)
        u, v = w.numerator, w.denominator
    weights = [
        (c, q + k)
        for k in range(top + 1 if stop is None else stop)
        if (c := scale * binomial(top, k) * binomial(q + k + r, r) * u ** (top - k) * v**k)
    ]
    if isinstance(total, Poly):
        return lincomb(total.var, [(v**top, total)] + [(c, term(idx)) for c, idx in weights], v**top)
    for c, idx in weights:
        total = total + term(idx) * c
    return total


def _double_sum(n: int, l: int, r: int, ks, u, v) -> Fraction:
    """(r+1) sum_{k in ks} sum_{j<=r+1} C(n+r,j) C(l+r,r+1-j) u(k)^(l+j-1) v(k)^(n+r-j).

    The shape of every order-one closed double sum.  The exponent l+j-1
    is negative only at j = 0 with l = 0, where C(r, r+1) vanishes;
    ``_monomial_value`` asserts that pairing.
    """
    coeffs = [(j, Fraction(c)) for j in range(r + 2) if (c := binomial(n + r, j) * binomial(l + r, r + 1 - j))]
    total = ZERO
    for k in ks:
        uk, vk = u(k), v(k)
        for j, c in coeffs:
            total += _monomial_value(_monomial_value(c, uk, l + j - 1), vk, n + r - j)
    return (r + 1) * total


def _classical_values(arg):
    """idx -> B_idx(arg) over QQ."""
    return lambda idx: classical_bernoulli_value(idx, arg)


# ---------------------------------------------------------------------------
# The two-block sum and the main identity
# ---------------------------------------------------------------------------


def paired_sum(n: int, l: int, r: int, x, y, z, alpha=None, table: GenBernTable | None = None):
    """Literal evaluation of the two-block sum S(n, l, r; x, y, z).

    With ``alpha=None`` the order stays symbolic and the result is a
    polynomial in ``a``; with a rational ``alpha`` the result is an exact
    Fraction.
    """
    t = table or DEFAULT_TABLE
    x, y, z = Fraction(x), Fraction(y), Fraction(z)
    if alpha is None:
        def values(arg):
            return lambda idx: t.poly(idx).eval(arg)
    else:
        order = Fraction(alpha)

        def values(arg):
            return lambda idx: t.value_at(idx, order, arg)

    first = _block(n, l, r, x, values(y))
    return _block(l, n, r, x, values(z), scale=_sign(l + n + r + 1), total=first)


def main_identity_lhs(n: int, l: int, r: int, s: int, lam, table: GenBernTable | None = None) -> Poly:
    """Left side of the main identity, fully symbolic in x and the order.

    The second block's argument a+s-lam-x is realized through the
    reflection rule, which turns it into (-1)^(n+k) B_{n+k}^(a)(x+lam-s).
    """
    t = table or DEFAULT_TABLE
    lam = Fraction(lam)
    first = _block(n, l, r, lam, t.poly, total=Poly("x"))
    return _block(
        l, n, r, lam, lambda idx: t.poly_reflected(idx, s - lam), scale=_sign(l + n + r + 1), total=first
    )


def _window_core(n: int, l: int, r: int, ks, u, v) -> Poly:
    """sum_{k in ks} (x+u-k)^(l+r) (x+v-k)^(n+r) over QQ[x], for rational u, v.

    With u = a/b the first factor is (b*x + a - k*b)^(l+r) / b^(l+r), and
    likewise for v = c/d, so both factors expand binomially over the
    integers, the products are integer convolutions, and the sum is divided
    by b^(l+r) d^(n+r) once.
    """
    (a, b), (c, d) = [(w.numerator, w.denominator) for w in (Fraction(u), Fraction(v))]
    e1, e2 = l + r, n + r
    acc = [0] * (e1 + e2 + 1)
    for k in ks:
        left = [binomial(e1, i) * b**i * (a - k * b) ** (e1 - i) for i in range(e1 + 1)]
        right = [binomial(e2, j) * d**j * (c - k * d) ** (e2 - j) for j in range(e2 + 1)]
        for i, s in enumerate(left):
            if s:
                for j, t in enumerate(right):
                    acc[i + j] += s * t
    return from_rows("x", b**e1 * d**e2, acc)


def telescoping_core(n: int, l: int, r: int, s: int, lam) -> Poly:
    """The proof's auxiliary polynomial P(x): the r-th scaled derivative of
    the windowed product sum."""
    return _window_core(n, l, r, range(1, s + 1), 0, lam).derive(r) * Fraction(1, math.factorial(r))


def main_identity_rhs(n: int, l: int, r: int, s: int, lam, table: GenBernTable | None = None) -> Poly:
    """Right side: the order-lowered umbral image of D^(r+1)/r! of the
    windowed product sum."""
    core = _window_core(n, l, r, range(1, s + 1), 0, lam).derive(r + 1) * Fraction(1, math.factorial(r))
    return OmegaOperator(-1, table)(core)


def main_identity_residual(n: int, l: int, r: int, s: int, lam, table: GenBernTable | None = None) -> Poly:
    return _difference(main_identity_lhs(n, l, r, s, lam, table), main_identity_rhs(n, l, r, s, lam, table))


def numeric_omega(p: Poly, order, table: GenBernTable | None = None) -> Poly:
    """x^k -> B_k^(order)(x) on p over QQ[x], for a fixed rational order
    (independent of the symbolic operator path)."""
    t = table or DEFAULT_TABLE
    order = Fraction(order)
    return linear_image(p, lambda k: t.poly_at(k, order))


def main_identity_residual_at(n, l, r, s, lam, alpha, table: GenBernTable | None = None) -> Poly:
    """Residual for a fixed rational order, computed along the numeric path
    (specialized tables and numeric umbral map) rather than by
    specializing the symbolic residual."""
    t = table or DEFAULT_TABLE
    lam, order = Fraction(lam), Fraction(alpha)
    lhs = _block(n, l, r, lam, lambda idx: t.poly_at(idx, order), total=Poly("x"))
    # The reflection sign (-1)^(n+k) goes into the weight: with the global
    # sign (-1)^(l+n+r+1), (-1)^(n+k) lam^(l+r-k) becomes -(-lam)^(l+r-k).
    lhs = _block(l, n, r, -lam, lambda idx: t.poly_at(idx, order).shift(lam - s), scale=-1, total=lhs)
    core = _window_core(n, l, r, range(1, s + 1), 0, lam).derive(r + 1) * Fraction(1, math.factorial(r))
    return _difference(lhs, numeric_omega(core, order - 1, t))


def replay_proof(n: int, l: int, r: int, s: int, lam, table: GenBernTable | None = None) -> dict[str, Poly]:
    """Replay the proof route and return its three exact residuals.

    * ``operator_link``: Omega_a(Delta P) - Omega_(a-1)(D P), an instance
      of the operator commutation lemma;
    * ``lhs_match``: Omega_a(Delta P) against the expanded left side;
    * ``rhs_match``: Omega_(a-1)(D P) against the closed right side.
    """
    t = table or DEFAULT_TABLE
    p = telescoping_core(n, l, r, s, lam)
    delta_route = OmegaOperator(0, t)(p.delta())
    derive_route = OmegaOperator(-1, t)(p.derive())
    return {
        "operator_link": _difference(delta_route, derive_route),
        "lhs_match": _difference(delta_route, main_identity_lhs(n, l, r, s, lam, t)),
        "rhs_match": _difference(derive_route, main_identity_rhs(n, l, r, s, lam, t)),
    }


def lambda_degree_bound(n: int, l: int, r: int) -> int:
    """Degree bound (in the shift parameter) for both identity sides."""
    return n + l + 2 * r + 1


def certify_lambda(n: int, l: int, r: int, s: int, table: GenBernTable | None = None) -> list[tuple[Fraction, Poly]]:
    """Certify the main identity for every shift value at once.

    Both sides are polynomials of degree <= n+l+2r+1 in the shift
    parameter, so exact agreement at the n+l+2r+2 integer points
    0..n+l+2r+1 proves agreement identically.  Returns the per-point
    residuals; the certificate holds iff all are zero.
    """
    points = range(lambda_degree_bound(n, l, r) + 1)
    return [(Fraction(p), main_identity_residual(n, l, r, s, p, table)) for p in points]


# ---------------------------------------------------------------------------
# Explicit double sums (Gessel-style closed forms)
# ---------------------------------------------------------------------------


def gessel_double_sum(n: int, l: int, r: int, m: int) -> Fraction:
    """(r+1) sum_{k<m} sum_{j<=r+1} (-1)^(l+j-1) C(n+r,j) C(l+r,r+1-j)
    k^(l+j-1) (m-k)^(n+r-j)."""
    return _double_sum(n, l, r, range(1, m), lambda k: -k, lambda k: m - k)


def gessel_double_sum_reindexed(n: int, l: int, r: int, m: int) -> Fraction:
    """Equivalent form after reindexing k -> m-k: the summand becomes
    C(n+r,j) C(l+r,r+1-j) k^(n+r-j) (k-m)^(l+j-1)."""
    return _double_sum(n, l, r, range(1, m), lambda k: k - m, lambda k: k)


def symmetric_block_sum(n: int, r: int, m: int) -> Fraction:
    """The single Bernoulli block sum_{k=0}^{n+r} m^(n+r-k) C(n+r,k)
    C(n+k+r,r) B_{n+k}; for odd r it is half of S(n, n, r; m, 0, 0)."""
    return _block(n, n, r, m, classical_bernoulli_numbers(2 * n + r).__getitem__)


def gessel_halved_double_sum(n: int, r: int, m: int) -> Fraction:
    """(1/2)(r+1) sum_{k<m} sum_{j<=r+1} C(n+r,j) C(n+r,r+1-j)
    k^(j+n-1) (k-m)^(n+r-j), the closed form of the single block for odd r."""
    return _double_sum(n, n, r, range(1, m), lambda k: k, lambda k: k - m) / 2


def q_block_term(k: int, m: int, r: int, n: int, corrected: bool = True) -> Fraction:
    """Per-k term of the folded closed form (odd r).

    As printed the leading piece is
    (r+1)/2 * C(n+r,(r+1)/2)^2 * (k(m-k))^(n+(r-1)/2); the corrected
    reading replaces the base k(m-k) by k(k-m) (a factor
    (-1)^(n+(r-1)/2)), which is what direct evaluation confirms.
    """
    half = (r + 1) // 2
    c_mid = binomial(n + r, half)
    base = Fraction(k * (k - m)) if corrected else Fraction(k * (m - k))
    total = Fraction(r + 1, 2) * c_mid * c_mid * base ** (n + (r - 1) // 2)
    tail = ZERO
    for j in range((r - 1) // 2 + 1):
        c = binomial(n + r, j) * binomial(n + r, r + 1 - j)
        if not c:
            continue
        term = _monomial_value(Fraction(c), Fraction(k), j + n - 1)
        term = _monomial_value(term, Fraction(k - m), n + r - j)
        tail += term
    return total + (r + 1) * tail


def q_block_sum(n: int, r: int, m: int, corrected: bool = True) -> Fraction:
    return sum((q_block_term(k, m, r, n, corrected) for k in range(1, m)), ZERO)


def alternating_power_sum(m: int, r_exp: int, s_exp: int) -> Fraction:
    """sum_{k<m} (k^r (k-m)^s - k^s (k-m)^r); zero whenever r+s is even."""
    total = ZERO
    for k in range(1, m):
        ka, kb = Fraction(k), Fraction(k - m)
        total += ka**r_exp * kb**s_exp - ka**s_exp * kb**r_exp
    return total


# ---------------------------------------------------------------------------
# Classical catalog (scalar identities)
# ---------------------------------------------------------------------------


def lucas_pair_sum(n: int, l: int) -> Fraction:
    """sum_k C(n,k) B_{l+k} + (-1)^(l+n+1) sum_k C(l,k) B_{n+k}."""
    nums = classical_bernoulli_numbers(n + l).__getitem__
    return _block(l, n, 0, 1, nums, scale=_sign(l + n + 1), total=_block(n, l, 0, 1, nums))


def truncated_pair_sum(n: int, l: int) -> Fraction:
    """Variant with both top terms dropped (valid for n, l >= 1)."""
    nums = classical_bernoulli_numbers(n + l).__getitem__
    return _block(l, n, 0, 1, nums, stop=l, scale=_sign(l + n + 1), total=_block(n, l, 0, 1, nums, stop=n))


def autoduality_residual(n: int) -> Fraction:
    """sum_k C(n,k) B_k - (-1)^n B_n."""
    nums = classical_bernoulli_numbers(n)
    return sum(binomial(n, k) * nums[k] for k in range(n + 1)) - _sign(n) * nums[n]


def weighted_lucas_sum(n: int, m: int = 1) -> Fraction:
    """sum_{k=0}^{n+1} m^(n+1-k) C(n+1,k) (n+k+1) B_{n+k}."""
    return _block(n, n, 1, m, classical_bernoulli_numbers(2 * n + 2).__getitem__)


def stern_recurrence_sum(n: int) -> Fraction:
    """sum_{k=0}^{n} C(n+1,k) (n+k+1) B_{n+k}; zero for n >= 1."""
    return _block(n, n, 1, 1, classical_bernoulli_numbers(2 * n).__getitem__, stop=n + 1)


def linear_weight_double_sum(n: int, l: int, m: int) -> Fraction:
    """sum_{k<m} ((n+l)k - mn) k^(n-1) (k-m)^(l-1).

    The formally negative exponents always cancel: at l = 0 the linear
    weight factors as n(k-m) and absorbs (k-m)^(-1); at n = 0 the k^(-1)
    piece carries the zero coefficient mn.  Both cancellations are carried
    out symbolically here rather than defining negative powers.
    """
    total = ZERO
    for k in range(1, m):
        if l == 0:
            # ((n+0)k - mn) = n(k-m); one factor cancels (k-m)^(-1)
            if n:
                total += _monomial_value(Fraction(n), Fraction(k), n - 1)
            continue
        total += _monomial_value(Fraction(n + l), Fraction(k), n) * Fraction(k - m) ** (l - 1)
        piece = _monomial_value(Fraction(-m * n), Fraction(k), n - 1)
        if piece:
            total += piece * Fraction(k - m) ** (l - 1)
    return total


def kaneko_weighted_term(k: int, m: int, n: int) -> Fraction:
    """p_k(m, 1, n) = (n+1)^2 k^n (k-m)^n + n(n+1) k^(n+1) (k-m)^(n-1)."""
    first = Fraction((n + 1) ** 2) * Fraction(k) ** n * Fraction(k - m) ** n
    second = _monomial_value(Fraction(n * (n + 1)), Fraction(k), n + 1)
    second = _monomial_value(second, Fraction(k - m), n - 1) if second else second
    return first + second


def chen_sun_term(k: int, m: int, n: int, corrected: bool = True) -> Fraction:
    """p_k(m, 3, n): the folded closed-form term plus a telescoping extra
    that vanishes under the k-sum."""
    extra = binomial(n + 3, 3) * (3 * n + 11) * (
        Fraction(k) ** (n + 2) * Fraction(k - m) ** n - Fraction(k) ** n * Fraction(k - m) ** (n + 2)
    )
    return q_block_term(k, m, 3, n, corrected) + extra


# ---------------------------------------------------------------------------
# Applications of the main identity
# ---------------------------------------------------------------------------


def leibniz_double_sum(n: int, l: int, r: int, s: int, u, v) -> Fraction:
    """(r+1) sum_{k=1..s} sum_{j<=r+1} C(n+r,j) C(l+r,r+1-j)
    (u-k)^(l+j-1) (v-k)^(n+r-j), the order-one closed form at a point."""
    u, v = Fraction(u), Fraction(v)
    return _double_sum(n, l, r, range(1, s + 1), lambda k: u - k, lambda k: v - k)


def classical_pair_residual(n: int, l: int, r: int, s: int, lam, x0) -> Fraction:
    """Order-one specialization of the main identity at a rational point."""
    lam, x0 = Fraction(lam), Fraction(x0)
    lhs = _block(n, l, r, lam, _classical_values(x0))
    lhs = _block(l, n, r, lam, _classical_values(1 + s - lam - x0), scale=_sign(l + n + r + 1), total=lhs)
    return lhs - leibniz_double_sum(n, l, r, s, x0, x0 + lam)


def order_shift_pair_residual(
    n: int, l: int, r: int, m: int, beta, reading: str = "as_printed", table: GenBernTable | None = None
) -> Poly:
    """Symbolic residual of the beta-shifted corollary of the main identity.

    ``as_printed`` builds the second block with its displayed per-term
    sign -(-1)^(r+l+k); ``from_main_identity`` rebuilds it from the global
    sign (-1)^(l+n+r+1) and the reflection realization.  Both readings
    describe the same polynomial, which the adjudication confirms.
    """
    t = table or DEFAULT_TABLE
    beta = Fraction(beta)
    lam = Fraction(m) - 2 * beta
    out = _block(n, l, r, lam, lambda idx: t.poly_shifted(idx, beta), total=Poly("x"))
    if reading == "as_printed":
        # the per-term sign goes into the weight: -(-1)^(r+l+k) lam^(l+r-k) = -(-lam)^(l+r-k)
        out = _block(l, n, r, -lam, lambda idx: t.poly_shifted(idx, m - 1 - beta), scale=-1, total=out)
    else:
        # B_{n+k}^(a)(a + (1-lam-beta) - x) under the global sign
        out = _block(
            l, n, r, lam, lambda idx: t.poly_reflected(idx, 1 - lam - beta), scale=_sign(l + n + r + 1), total=out
        )
    core = _window_core(n, l, r, (0,), beta - 1, m - 1 - beta).derive(r + 1) * Fraction(1, math.factorial(r))
    return _difference(out, OmegaOperator(-1, t)(core))


def product_rule_split_residual(n: int, l: int, r: int) -> Poly:
    """D^(r+1)/r! ((x-1)^(l+r) x^(n+r)) minus its two-block product-rule
    expansion; a pure polynomial identity over QQ[x]."""
    lhs = ((X - 1) ** (l + r) * X ** (n + r)).derive(r + 1) * Fraction(1, math.factorial(r))
    rhs = Poly("x")
    if n + r > 0:
        for k in range(r + 1):
            c = binomial(n + r - 1, k) * binomial(l + r, r - k)
            if c:
                rhs = rhs + X ** (n + r - k - 1) * (X - 1) ** (l + k) * Fraction((n + r) * c)
    if l + r > 0:
        for k in range(r + 1):
            c = binomial(l + r - 1, k) * binomial(n + r, r - k)
            if c:
                rhs = rhs + X ** (n + k) * (X - 1) ** (l + r - k - 1) * Fraction((l + r) * c)
    return lhs - rhs


def balanced_triple_residual_antisym(n, l, r, alpha, x, y, table=None) -> Fraction:
    """First balanced-argument form: with x+y+z equal to the order,
    (-1)^n (first block) - (-1)^(l+r) (second block)."""
    t = table or DEFAULT_TABLE
    alpha, x, y = Fraction(alpha), Fraction(x), Fraction(y)
    z = alpha - x - y
    lhs = _block(n, l, r, x, lambda idx: t.value_at(idx, alpha, y), scale=_sign(n))
    return _block(l, n, r, x, lambda idx: t.value_at(idx, alpha, z), scale=-_sign(l + r), total=lhs)


def balanced_triple_residual_folded(n, l, r, alpha, x, y, table=None) -> Fraction:
    """Second balanced-argument form, with the third argument eliminated:
    first block minus sum_k C(l+r,k) C(n+k+r,r) (-x)^(l+r-k) B_{n+k}(x+y)."""
    t = table or DEFAULT_TABLE
    alpha, x, y = Fraction(alpha), Fraction(x), Fraction(y)
    lhs = _block(n, l, r, x, lambda idx: t.value_at(idx, alpha, y))
    return _block(l, n, r, -x, lambda idx: t.value_at(idx, alpha, x + y), scale=-1, total=lhs)


def reflection_route_residuals(n, l, r, alpha, x, y, table=None) -> list[Fraction]:
    """The equivalence route between the two balanced forms:
    B_{n+k}(z) - (-1)^(n+k) B_{n+k}(x+y) for every k in the second block."""
    t = table or DEFAULT_TABLE
    alpha, x, y = Fraction(alpha), Fraction(x), Fraction(y)
    z = alpha - x - y
    return [
        t.value_at(n + k, alpha, z) - _sign(n + k) * t.value_at(n + k, alpha, x + y)
        for k in range(l + r + 1)
    ]


def integer_balance_residual(n, l, r, s, x, y, table=None) -> Fraction:
    """Order-one form with x+y+z = s+1: the two-block sum against the
    order-one closed double sum."""
    x, y = Fraction(x), Fraction(y)
    z = s + 1 - x - y
    lhs = paired_sum(n, l, r, x, y, z, alpha=1, table=table)
    return lhs - leibniz_double_sum(n, l, r, s, y, x + y)


def truncated_balanced_residual(n, l, r, alpha, x, y, corrected=True, table=None) -> Fraction:
    """Balanced form with both top terms dropped (r >= 1); the right side
    is a single Bernoulli-polynomial difference.

    As printed the difference carries index n+l+1; direct evaluation shows
    the index must be n+l+r (they agree exactly at r = 1).
    """
    t = table or DEFAULT_TABLE
    alpha, x, y = Fraction(alpha), Fraction(x), Fraction(y)
    z = alpha - x - y
    lhs = _block(n, l, r, x, lambda idx: t.value_at(idx, alpha, y), stop=n + r, scale=_sign(n))
    lhs = _block(l, n, r, x, lambda idx: t.value_at(idx, alpha, z), stop=l + r, scale=_sign(l + r + 1), total=lhs)
    idx = n + l + r if corrected else n + l + 1
    rhs = _sign(n) * binomial(n + l + 2 * r, r) * (t.value_at(idx, alpha, x + y) - t.value_at(idx, alpha, y))
    return lhs - rhs


def truncated_power_residual(n, l, r, t_val, corrected=True) -> Fraction:
    """Order-one specialization of the truncated balanced form at
    (x, y, z) = (1, t, -t); the right side collapses to a monomial."""
    t_val = Fraction(t_val)
    lhs = _block(n, l, r, 1, _classical_values(t_val), stop=n + r, scale=_sign(n))
    lhs = _block(l, n, r, 1, _classical_values(-t_val), stop=l + r, scale=_sign(l + r + 1), total=lhs)
    if corrected:
        rhs = _sign(n) * binomial(n + l + 2 * r, r) * (n + l + r) * t_val ** (n + l + r - 1)
    else:
        rhs = _sign(n) * binomial(n + l + 2 * r, r) * (n + l + 1) * t_val ** (n + l)
    return lhs - rhs


def odd_order_tail_residual(n: int, r: int, t_val, table: GenBernTable | None = None) -> Poly:
    """Symbolic-order identity for odd r: the truncated symmetric block with
    weight (a-2t)^(n+r-k) plus C(2n+2r,r) B_{2n+r}^(a)(t); residual in QQ[a]."""
    t = table or DEFAULT_TABLE
    t_val = Fraction(t_val)
    total = _block(n, n, r, poly_a(-2 * t_val, 1), lambda idx: t.poly(idx).eval(t_val), stop=n + r, total=poly_a())
    return total + t.poly(2 * n + r).eval(t_val) * binomial(2 * n + 2 * r, r)


def halved_tail_sum_residual(n: int, r: int) -> Fraction:
    """Odd-r closed form for sum_{k=n}^{2n+r} C(n+r,k-n) C(k+r,r) B_k / 2^k."""
    nums = classical_bernoulli_numbers(2 * n + r)
    lhs = _block(n, n, r, 1, lambda idx: nums[idx] / Fraction(2) ** idx)
    rhs = (
        Fraction(_sign(n + (r - 1) // 2) * (r + 1), 2 ** (2 * n + r + 1))
        * binomial(n + r, (r + 1) // 2)
    )
    return lhs - rhs


def scaled_ratio_sum_residual(n: int, r: int, x0, corrected: bool = True) -> Fraction:
    """Odd-r closed form for the x-weighted variant
    sum_k C(n+r,k) C(n+k+r,r) B_{n+k}(x) / (2^k (1-x)^(n+k-1)), x != 1.

    As printed the right side reads (-1)^(n+(r+1)/2) (r+1)/2^(n+r) C;
    direct evaluation confirms (-1)^(n+(r-1)/2) (r+1)/2^(n+r+1) C instead.
    """
    x0 = Fraction(x0)
    if x0 == 1:
        raise ValueError("the weighted form divides by (1-x); x = 1 is outside its domain")

    def term(idx):
        return classical_bernoulli_value(idx, x0) / (Fraction(2) ** (idx - n) * (1 - x0) ** (idx - 1))

    lhs = _block(n, n, r, 1, term)
    c_mid = binomial(n + r, (r + 1) // 2)
    if corrected:
        rhs = Fraction(_sign(n + (r - 1) // 2) * (r + 1), 2 ** (n + r + 1)) * c_mid
    else:
        rhs = Fraction(_sign(n + (r + 1) // 2) * (r + 1), 2 ** (n + r)) * c_mid
    return lhs - rhs


def symbolic_weight_pair_residual(n: int, l: int, table: GenBernTable | None = None) -> Poly:
    """Fully symbolic two-block identity at weight a and arguments 0:
    sum_k a^(n-k) C(n,k) B_{l+k}^(a) + (-1)^(l+n+1) sum_k a^(l-k) C(l,k)
    B_{n+k}^(a); residual in QQ[a]."""
    t = table or DEFAULT_TABLE
    first = _block(n, l, 0, ALPHA, t.number, total=poly_a())
    return _block(l, n, 0, ALPHA, t.number, scale=_sign(l + n + 1), total=first)


# ---------------------------------------------------------------------------
# Case registry: parameters, domains, verifiers
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SumSpec:
    """Parameter record selecting one identity instance."""

    n: int = 0
    l: int = 0
    r: int = 0
    s: int = 0
    m: int = 1
    lam: Fraction = ZERO
    x: Fraction = ZERO
    y: Fraction = ZERO
    z: Fraction = ZERO
    t: Fraction = ZERO
    beta: Fraction = ZERO
    alpha: Fraction | None = None

    def __post_init__(self):
        for name in ("n", "l", "r", "s"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")
        if self.m < 1:
            raise ValueError("m must be >= 1")


@dataclass(frozen=True)
class IdentityCase:
    id: str
    params: SumSpec


@dataclass
class VerificationResult:
    case: IdentityCase
    status: str
    residual: object = ZERO
    elapsed: float = 0.0
    readings: dict[str, str] | None = None
    reading: str | None = None
    note: str | None = None

    @property
    def verified(self) -> bool:
        return self.status == STATUS_VERIFIED


def _residual_is_zero(res) -> bool:
    if isinstance(res, Poly):
        return res.is_zero()
    return res == 0


def _outcome(residual, readings=None, reading=None, note=None):
    status = STATUS_VERIFIED if _residual_is_zero(residual) else STATUS_COUNTEREXAMPLE
    return status, residual, readings, reading, note


def _not_applicable(note):
    return STATUS_NOT_APPLICABLE, ZERO, None, None, note


def _adjudicate(residuals: dict[str, object], prefer: tuple[str, ...], note: str):
    """Pick the first verifying reading; fall back to the first reading's
    residual when none verifies."""
    readings = {name: (STATUS_VERIFIED if _residual_is_zero(res) else STATUS_COUNTEREXAMPLE) for name, res in residuals.items()}
    for name in prefer:
        if readings[name] == STATUS_VERIFIED:
            return STATUS_VERIFIED, residuals[name], readings, name, note
    first = prefer[0]
    return STATUS_COUNTEREXAMPLE, residuals[first], readings, first, note


def _verify_t3(p: SumSpec):
    return _outcome(paired_sum(p.n, p.l, p.r, 1, 0, 0, alpha=1))


def _verify_t4(p: SumSpec):
    lhs = paired_sum(p.n, p.l, p.r, p.m, 0, 0, alpha=1)
    return _outcome(lhs - gessel_double_sum(p.n, p.l, p.r, p.m))


def _verify_tg4(p: SumSpec):
    lhs = paired_sum(p.n, p.l, p.r, p.m, 0, 0, alpha=1)
    return _outcome(lhs - gessel_double_sum_reindexed(p.n, p.l, p.r, p.m))


def _verify_t5(p: SumSpec):
    if not _is_odd(p.r):
        return _not_applicable("needs odd r")
    lhs = symmetric_block_sum(p.n, p.r, p.m)
    return _outcome(lhs - gessel_halved_double_sum(p.n, p.r, p.m))


def _verify_ges1(p: SumSpec):
    if not _is_odd(p.r):
        return _not_applicable("needs odd r")
    lhs = symmetric_block_sum(p.n, p.r, p.m)
    residuals = {
        "sign_corrected": lhs - q_block_sum(p.n, p.r, p.m, corrected=True),
        "as_printed": lhs - q_block_sum(p.n, p.r, p.m, corrected=False),
    }
    note = (
        "left side is the single Bernoulli block; the leading q-term base "
        "k*(m-k) verifies only after the correction to k*(k-m), i.e. a "
        "factor (-1)^(n+(r-1)/2)"
    )
    return _adjudicate(residuals, ("as_printed", "sign_corrected"), note)


def _verify_rem1(p: SumSpec):
    if (p.r + p.s) % 2:
        return _not_applicable("needs r+s even")
    return _outcome(alternating_power_sum(p.m, p.r, p.s))


def _verify_p1(p: SumSpec):
    return _outcome(autoduality_residual(p.n))


def _verify_e1(p: SumSpec):
    return _outcome(lucas_pair_sum(p.n, p.l))


def _verify_e2(p: SumSpec):
    return _outcome(paired_sum(p.n, p.l, 0, 1, 0, 0, alpha=1))


def _verify_k5(p: SumSpec):
    total = weighted_lucas_sum(p.n, 1)
    pair = paired_sum(p.n, p.n + 1, 0, 1, 0, 0, alpha=1)
    block = symmetric_block_sum(p.n, 1, 1)
    residuals = {
        "literal": abs(total - (p.n + 1) * pair) + abs(total),
        "first_block": abs(total - block) + abs(total),
    }
    note = "the weighted sum vanishes and matches both the (n+1)-scaled pair sum and the single block at m=1"
    return _adjudicate(residuals, ("literal", "first_block"), note)


def _verify_k3(p: SumSpec):
    if p.n < 1:
        return _not_applicable("needs n >= 1")
    return _outcome(stern_recurrence_sum(p.n))


def _verify_t230(p: SumSpec):
    lhs = paired_sum(p.n, p.l, 0, p.m, 0, 0, alpha=1)
    return _outcome(lhs - linear_weight_double_sum(p.n, p.l, p.m))


def _verify_t24(p: SumSpec):
    total = weighted_lucas_sum(p.n, p.m)
    closed = sum((kaneko_weighted_term(k, p.m, p.n) for k in range(1, p.m)), ZERO)
    pair = paired_sum(p.n, p.n + 1, 1, p.m, 0, 0, alpha=1)
    block = symmetric_block_sum(p.n, 1, p.m)
    residuals = {
        "literal": abs(total - (p.n + 1) * pair) + abs(total - closed),
        "first_block": abs(total - block) + abs(total - closed),
    }
    note = (
        "the displayed sum equals the closed form and the single block of "
        "the symmetric pair sum; its identification with (n+1) times the "
        "shifted pair sum fails"
    )
    return _adjudicate(residuals, ("literal", "first_block"), note)


def _verify_c1(p: SumSpec):
    lhs = symmetric_block_sum(p.n, 3, p.m)
    residuals = {
        "sign_corrected": lhs - sum((chen_sun_term(k, p.m, p.n, True) for k in range(1, p.m)), ZERO),
        "as_printed": lhs - sum((chen_sun_term(k, p.m, p.n, False) for k in range(1, p.m)), ZERO),
    }
    note = "inherits the leading q-term base correction (k*(k-m) for k*(m-k))"
    return _adjudicate(residuals, ("as_printed", "sign_corrected"), note)


def _verify_theorem(p: SumSpec):
    if p.alpha is None:
        return _outcome(main_identity_residual(p.n, p.l, p.r, p.s, p.lam))
    return _outcome(main_identity_residual_at(p.n, p.l, p.r, p.s, p.lam, p.alpha))


def _verify_replay(p: SumSpec):
    checks = replay_proof(p.n, p.l, p.r, p.s, p.lam)
    residual = Poly("x")
    for res in checks.values():
        if not res.is_zero():
            residual = res
            break
    return _outcome(residual, note="operator link, lhs expansion and rhs closed form all replayed")


def _verify_app1(p: SumSpec):
    return _outcome(classical_pair_residual(p.n, p.l, p.r, p.s, p.lam, p.x))


def _verify_f10(p: SumSpec):
    residuals = {
        "as_printed": order_shift_pair_residual(p.n, p.l, p.r, p.m, p.beta, "as_printed"),
        "from_main_identity": order_shift_pair_residual(p.n, p.l, p.r, p.m, p.beta, "from_main_identity"),
    }
    note = (
        "the displayed per-term sign -(-1)^(r+l+k) and the global sign "
        "(-1)^(l+n+r+1) with reflection give the same polynomial; both verify"
    )
    return _adjudicate(residuals, ("as_printed", "from_main_identity"), note)


def _verify_agoh_leibniz(p: SumSpec):
    return _outcome(product_rule_split_residual(p.n, p.l, p.r))


def _verify_s1(p: SumSpec):
    if p.alpha is None:
        return _not_applicable("needs a rational order (the balance constraint ties x+y+z to it)")
    if Fraction(p.x) + p.y + p.z != Fraction(p.alpha):
        return _not_applicable("needs x + y + z equal to the order")
    return _outcome(balanced_triple_residual_antisym(p.n, p.l, p.r, p.alpha, p.x, p.y))


def _verify_s2(p: SumSpec):
    if p.alpha is None:
        return _not_applicable("needs a rational order")
    return _outcome(balanced_triple_residual_folded(p.n, p.l, p.r, p.alpha, p.x, p.y))


def _verify_s4(p: SumSpec):
    if Fraction(p.x) + p.y + p.z != p.s + 1:
        return _not_applicable("needs x + y + z = s + 1")
    return _outcome(integer_balance_residual(p.n, p.l, p.r, p.s, p.x, p.y))


def _verify_cor3a(p: SumSpec):
    if p.r < 1:
        return _not_applicable("needs r >= 1")
    if p.alpha is None:
        return _not_applicable("needs a rational order")
    if Fraction(p.x) + p.y + p.z != Fraction(p.alpha):
        return _not_applicable("needs x + y + z equal to the order")
    residuals = {
        "corrected": truncated_balanced_residual(p.n, p.l, p.r, p.alpha, p.x, p.y, corrected=True),
        "as_printed": truncated_balanced_residual(p.n, p.l, p.r, p.alpha, p.x, p.y, corrected=False),
    }
    note = "right-side difference index reads n+l+1 in print but must be n+l+r (identical at r=1)"
    return _adjudicate(residuals, ("as_printed", "corrected"), note)


def _verify_cor3b(p: SumSpec):
    if p.r < 1:
        return _not_applicable("needs r >= 1")
    residuals = {
        "corrected": truncated_power_residual(p.n, p.l, p.r, p.t, corrected=True),
        "as_printed": truncated_power_residual(p.n, p.l, p.r, p.t, corrected=False),
    }
    note = "monomial right side reads (n+l+1) t^(n+l) in print but must be (n+l+r) t^(n+l+r-1)"
    return _adjudicate(residuals, ("as_printed", "corrected"), note)


def _verify_s20(p: SumSpec):
    if not _is_odd(p.r):
        return _not_applicable("needs odd r")
    residual = odd_order_tail_residual(p.n, p.r, p.t)
    if p.alpha is not None:
        residual = residual.eval(Fraction(p.alpha))
    return _outcome(residual)


def _verify_cor1(p: SumSpec):
    if not _is_odd(p.r):
        return _not_applicable("needs odd r")
    if Fraction(p.x) == 1:
        return _not_applicable("x = 1 divides by zero in the weight")
    residuals = {
        "corrected": scaled_ratio_sum_residual(p.n, p.r, p.x, corrected=True),
        "as_printed": scaled_ratio_sum_residual(p.n, p.r, p.x, corrected=False),
    }
    note = (
        "right side verifies as (-1)^(n+(r-1)/2) (r+1)/2^(n+r+1) C(n+r,(r+1)/2); "
        "the printed sign exponent and power of two are off by one"
    )
    return _adjudicate(residuals, ("as_printed", "corrected"), note)


def _verify_fi2(p: SumSpec):
    if not _is_odd(p.r):
        return _not_applicable("needs odd r")
    return _outcome(halved_tail_sum_residual(p.n, p.r))


def _verify_neto(p: SumSpec):
    residual = symbolic_weight_pair_residual(p.n, p.l)
    if p.alpha is not None:
        residual = residual.eval(Fraction(p.alpha))
    return _outcome(residual)


def _verify_vassilev(p: SumSpec):
    if p.n < 1 or p.l < 1:
        return _not_applicable("needs n >= 1 and l >= 1")
    return _outcome(truncated_pair_sum(p.n, p.l))


@dataclass(frozen=True)
class CaseDef:
    """One catalog entry.  ``axes`` names its sweep axes, outermost first;
    ``genbern.harness.AXES`` gives each name's fields and sample points."""

    id: str
    axes: tuple[str, ...]
    verify: object
    adjudicated: bool = False


CASE_DEFS: dict[str, CaseDef] = {
    d.id: d
    for d in (
        CaseDef("t3", ("n", "l", "r"), _verify_t3),
        CaseDef("t4", ("n", "l", "r", "m"), _verify_t4),
        CaseDef("tg4", ("n", "l", "r", "m"), _verify_tg4),
        CaseDef("t5", ("n", "r", "m"), _verify_t5),
        CaseDef("ges1", ("n", "r", "m"), _verify_ges1, adjudicated=True),
        CaseDef("rem1", ("m", "r", "s"), _verify_rem1),
        CaseDef("p1", ("n",), _verify_p1),
        CaseDef("e1", ("n", "l"), _verify_e1),
        CaseDef("e2", ("n", "l"), _verify_e2),
        CaseDef("k5", ("n",), _verify_k5, adjudicated=True),
        CaseDef("k3", ("n",), _verify_k3),
        CaseDef("s3", ("n", "l", "r"), _verify_t3),
        CaseDef("t230", ("n", "l", "m"), _verify_t230),
        CaseDef("t24", ("n", "m"), _verify_t24, adjudicated=True),
        CaseDef("c1", ("n", "m"), _verify_c1, adjudicated=True),
        CaseDef("theorem_le1", ("n", "l", "r", "s", "lam", "symbolic_alpha"), _verify_theorem),
        CaseDef("proof_replay", ("n", "l", "r", "s", "lam"), _verify_replay),
        CaseDef("app1", ("n", "l", "r", "s", "lam", "x"), _verify_app1),
        CaseDef("nielsen_f10", ("n", "l", "r", "m", "beta"), _verify_f10, adjudicated=True),
        CaseDef("agoh_leibniz", ("n", "l", "r"), _verify_agoh_leibniz),
        CaseDef("s1", ("n", "l", "r", "alpha", "xy", "z=alpha-x-y"), _verify_s1),
        CaseDef("s2", ("n", "l", "r", "alpha", "xy"), _verify_s2),
        CaseDef("s4", ("n", "l", "r", "s", "xy", "z=s+1-x-y"), _verify_s4),
        CaseDef("cor3a", ("n", "l", "r", "alpha", "xy", "z=alpha-x-y"), _verify_cor3a, adjudicated=True),
        CaseDef("cor3b", ("n", "l", "r", "t"), _verify_cor3b, adjudicated=True),
        CaseDef("s20", ("n", "r", "t", "symbolic_alpha"), _verify_s20),
        CaseDef("cor1", ("n", "r", "ratio_x"), _verify_cor1, adjudicated=True),
        CaseDef("fi2", ("n", "r"), _verify_fi2),
        CaseDef("neto_corrected", ("n", "l", "symbolic_alpha"), _verify_neto),
        CaseDef("vassilev", ("n", "l"), _verify_vassilev),
    )
}

CASE_IDS = tuple(CASE_DEFS)


def verify_case(case: IdentityCase) -> VerificationResult:
    """Evaluate one catalog instance and time it."""
    if case.id not in CASE_DEFS:
        raise KeyError(f"unknown identity case {case.id!r}")
    start = time.perf_counter()
    status, residual, readings, reading, note = CASE_DEFS[case.id].verify(case.params)
    elapsed = time.perf_counter() - start
    return VerificationResult(
        case=case,
        status=status,
        residual=residual,
        elapsed=elapsed,
        readings=readings,
        reading=reading,
        note=note,
    )
