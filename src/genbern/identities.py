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

Each case is a :class:`CaseDef` record: its sweep axes, its domain guards,
its residual (one, or one per reading), the order in which its readings
are preferred, and its note.  One :func:`verify_case` runs every record.
A record's ``residual(spec, table)`` is the one route to its case's
residual; the functions below are the sums, sides and single-reading
residuals that the records compose.  A case read in several ways builds
every reading in one call, in report order, and no function here takes a
reading as an argument.
"""

from __future__ import annotations

import functools
import math
import time
from collections.abc import Callable
from dataclasses import dataclass, fields
from fractions import Fraction
from typing import NamedTuple

from .bernoulli import DEFAULT_TABLE, GenBernTable, OmegaOperator, _rational
from .poly import ALPHA, Poly, X, binomial, from_rows, lincomb, linear_image, poly_a

ZERO = Fraction(0)

STATUS_VERIFIED = "verified"
STATUS_COUNTEREXAMPLE = "counterexample"
STATUS_NOT_APPLICABLE = "not_applicable"


class NegativePowerError(ValueError):
    """A negative exponent survived a nonzero coefficient in an explicit sum."""


def _sign(e: int) -> int:
    return -1 if e % 2 else 1


def _difference(lhs: Poly, rhs: Poly) -> Poly:
    """lhs - rhs for two x-polynomials, over integers; equal storage is
    a zero difference, since storage is canonical."""
    if lhs.den == rhs.den and lhs.rows == rhs.rows:
        return from_rows("x", 1, [])
    return lincomb("x", [(1, lhs), (-1, rhs)])


@functools.cache
def _block_coefficients(p: int, q: int, r: int) -> tuple[int, ...]:
    """C(p+r,k) C(q+k+r,r) for k = 0..p+r, the integer coefficients of a
    block; the default sweep reads 56 keys 6,961 times."""
    return tuple(binomial(p + r, k) * binomial(q + k + r, r) for k in range(p + r + 1))


def _block(p: int, q: int, r: int, w, values, stop: int | None = None, scale=1, total=ZERO):
    """total + scale * sum_{k<stop} C(p+r,k) C(q+k+r,r) w^(p+r-k) B_{q+k}.

    One block of the two-block sum; ``stop`` defaults to p+r+1, the whole
    block.  Every sign rides in ``scale``, which multiplies the integer
    coefficient, so a signed block costs no extra product; a second block
    accumulates into the first through ``total``.  A rational weight w = u/v
    enters as the integer weights C C u^(p+r-k) v^k over v^(p+r).

    With a rational ``total``, ``values`` is a row ``(nums, den)`` holding
    B_i = nums[i] / den (:meth:`GenBernTable.value_row`,
    :meth:`GenBernTable.classical_row`): the block is one integer Horner
    pass over the row and the cached coefficients, and ``total`` joins it in
    one Fraction over den v^(p+r) times its denominator.  With a polynomial
    ``total``, ``values(i)`` gives B_i, terms with a zero coefficient are
    skipped without calling it, and the block is one ``lincomb``.
    """
    top = p + r
    if not isinstance(total, Poly):
        nums, den = values
        u, v = w.numerator, w.denominator
        coefficients = _block_coefficients(p, q, r)[:stop]
        # Horner in u: acc = sum_k c_k nums[q+k] u^(K-1-k) v^k over the K coefficients kept
        acc, vk = 0, 1
        for c, b in zip(coefficients, nums[q : q + len(coefficients)], strict=True):
            acc = acc * u + c * b * vk
            vk *= v
        acc *= scale * u ** (top + 1 - len(coefficients))
        den *= v**top
        return Fraction(total.numerator * den + acc * total.denominator, total.denominator * den)
    u, v = (w, 1) if isinstance(w, Poly) else (w.numerator, w.denominator)
    pairs = [(v**top, total)] + [
        (c, values(q + k))
        for k in range(top + 1 if stop is None else stop)
        if (c := scale * binomial(top, k) * binomial(q + k + r, r) * u ** (top - k) * v**k)
    ]
    return lincomb(total.var, pairs, v**top)


@functools.cache
def _double_sum_coefficients(n: int, l: int, r: int, stop: int) -> tuple[tuple[int, int], ...]:
    """The (C(n+r,j) C(l+r,r+1-j), j) with j < stop and a nonzero
    coefficient; the default sweep reads 56 keys 2,016 times."""
    coeffs = tuple((c, j) for j in range(stop) if (c := binomial(n + r, j) * binomial(l + r, r + 1 - j)))
    if any(min(l + j - 1, n + r - j) < 0 for _, j in coeffs):
        raise NegativePowerError(f"a negative exponent meets a nonzero coefficient at n={n}, l={l}, r={r}")
    return coeffs


def _double_sum(n: int, l: int, r: int, ks, u, v, stop: int | None = None) -> Fraction:
    """(r+1) sum_{k in ks} sum_{j<stop} C(n+r,j) C(l+r,r+1-j) u_k^(l+j-1) v_k^(n+r-j).

    The shape of every order-one closed double sum; ``stop`` defaults to
    r+2.  The bases are affine in k with slope 1 or -1: ``u`` = (c, e)
    stands for u_k = c + e*k with a rational c = a/b, so u_k is the integer
    a + e*b*k over the fixed b, and likewise ``v`` over d.  The whole sum is
    then one integer sum over b^(l+r) d^(n+r), and one Fraction.  The
    exponent l+j-1 is negative only at j = 0 with l = 0, where C(r, r+1)
    vanishes; a negative exponent on a nonzero coefficient raises
    ``NegativePowerError``.
    """
    coeffs = _double_sum_coefficients(n, l, r, r + 2 if stop is None else stop)
    (cu, eu), (cv, ev) = u, v
    a, b, c, d = cu.numerator, cu.denominator, cv.numerator, cv.denominator
    # the j-th term over b^(l+r) d^(n+r): C C b^(r+1-j) d^j (a + eu*b*k)^(l+j-1) (c + ev*d*k)^(n+r-j)
    terms = [(cj * b ** (r + 1 - j) * d**j, l + j - 1, n + r - j) for cj, j in coeffs]
    num = 0
    for k in ks:
        uk, vk = a + eu * b * k, c + ev * d * k
        num += sum(w * uk**i * vk**j for w, i, j in terms)
    return Fraction((r + 1) * num, b ** (l + r) * d ** (n + r))


# ---------------------------------------------------------------------------
# The two-block sum and the main identity
# ---------------------------------------------------------------------------


def paired_sum(n: int, l: int, r: int, x, y, z, alpha=None, table: GenBernTable = DEFAULT_TABLE):
    """Literal evaluation of the two-block sum S(n, l, r; x, y, z).

    With ``alpha=None`` the order stays symbolic and the result is a
    polynomial in ``a``; with a rational ``alpha`` the result is an exact
    Fraction.
    """
    x, y, z = _rational(x), _rational(y), _rational(z)
    total = Poly("a") if alpha is None else ZERO
    if alpha is None:
        def values(arg):
            return lambda idx: table.poly(idx).eval(arg)
    else:
        def values(arg):
            return table.value_row(n + l + r, alpha, arg)

    first = _block(n, l, r, x, values(y), total=total)
    return _block(l, n, r, x, values(z), scale=_sign(l + n + r + 1), total=first)


def main_identity_lhs(n: int, l: int, r: int, s: int, lam, table: GenBernTable = DEFAULT_TABLE) -> Poly:
    """Left side of the main identity, fully symbolic in x and the order.

    The second block's argument a+s-lam-x is realized through the
    reflection rule, which turns it into (-1)^(n+k) B_{n+k}^(a)(x+lam-s), the
    sign going into the weight as in :func:`main_identity_residual_at`.
    Built on every call; its blocks read the table's memoized polynomials.
    """
    lam = Fraction(lam)
    first = _block(n, l, r, lam, table.poly, total=Poly("x"))
    return _block(l, n, r, -lam, lambda idx: table.poly_shifted(idx, lam - s), scale=-1, total=first)


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


def main_identity_rhs(n: int, l: int, r: int, s: int, lam, table: GenBernTable = DEFAULT_TABLE) -> Poly:
    """Right side: the order-lowered umbral image of D P = D^(r+1)/r! of the
    windowed product sum.  Built on every call, as the left side is."""
    return OmegaOperator(-1, table)(telescoping_core(n, l, r, s, lam).derive())


def _main_sides(n: int, l: int, r: int, s: int, lam, table: GenBernTable) -> tuple[Poly, Poly, Poly]:
    """The left side, the proof's P and the right side Omega_(a-1)(D P)."""
    core = telescoping_core(n, l, r, s, lam)
    return main_identity_lhs(n, l, r, s, lam, table), core, OmegaOperator(-1, table)(core.derive())


def main_identity_residual(
    n: int, l: int, r: int, s: int, lam, table: GenBernTable = DEFAULT_TABLE, slot: dict | None = None
) -> Poly:
    """Left side minus right side.  With a ``slot`` (a dict local to one
    sweep) the sides it built go into the slot, keyed by the table and the
    point, for :func:`replay_proof` at the same point to take out."""
    sides = _main_sides(n, l, r, s, lam, table)
    if slot is not None:
        slot[(table, n, l, r, s, lam)] = sides
    lhs, _, rhs = sides
    return _difference(lhs, rhs)


def main_identity_residual_at(n, l, r, s, lam, alpha, table: GenBernTable = DEFAULT_TABLE) -> Poly:
    """Residual for a fixed rational order, computed along the numeric path
    (specialized tables, and the umbral map x^k -> B_k^(order-1)(x) over
    QQ[x]) rather than by specializing the symbolic residual or calling
    :class:`OmegaOperator`."""
    lam, order = Fraction(lam), Fraction(alpha)
    lhs = _block(n, l, r, lam, lambda idx: table.poly_at(idx, order), total=Poly("x"))
    # The reflection sign (-1)^(n+k) goes into the weight: with the global
    # sign (-1)^(l+n+r+1), (-1)^(n+k) lam^(l+r-k) becomes -(-lam)^(l+r-k).
    lhs = _block(l, n, r, -lam, lambda idx: table.poly_at(idx, order).shift(lam - s), scale=-1, total=lhs)
    rhs = linear_image(telescoping_core(n, l, r, s, lam).derive(), lambda k: table.poly_at(k, order - 1))
    return _difference(lhs, rhs)


def replay_proof(
    n: int, l: int, r: int, s: int, lam, table: GenBernTable = DEFAULT_TABLE, slot: dict | None = None
) -> dict[str, Poly]:
    """Replay the proof route and return its two exact residuals.

    * ``operator_link``: Omega_a(Delta P) - Omega_(a-1)(D P), an instance
      of the operator commutation lemma;
    * ``lhs_match``: Omega_a(Delta P) against the expanded left side.
    A call builds P, both operator routes and the left side.  A call with a
    ``slot`` that :func:`main_identity_residual` filled at the same point
    and table takes the left side, P and the derive route Omega_(a-1)(D P)
    out of it and builds only Omega_a(Delta P).

    The third link, Omega_(a-1)(D P) against the closed right side, holds by
    construction: P = D^r/r! W for the windowed product sum W, so D P is the
    very polynomial that :func:`main_identity_rhs` maps, and the derive
    route rebuilds that right side from P.  ``operator_link`` is the
    residual that catches a wrong table entry: with B_1^(a)(x) + 1 in place
    of B_1^(a)(x), at (n, l, r, s, lam) = (1, 1, 1, 1, 1/2), (2, 1, 1, 2,
    1/2) and (2, 2, 1, 2, -2/3), it alone is nonzero.  Since
    Omega_a(Delta P) cancels, the main identity's residual is
    ``operator_link`` - ``lhs_match``.
    """
    sides = slot.pop((table, n, l, r, s, lam), None) if slot else None
    lhs, p, derive_route = sides or _main_sides(n, l, r, s, lam, table)
    delta_route = OmegaOperator(0, table)(p.delta())
    return {
        "operator_link": _difference(delta_route, derive_route),
        "lhs_match": _difference(delta_route, lhs),
    }


def lambda_degree_bound(n: int, l: int, r: int) -> int:
    """Degree bound (in the shift parameter) for both identity sides."""
    return n + l + 2 * r + 1


def certify_lambda(n: int, l: int, r: int, s: int, table: GenBernTable = DEFAULT_TABLE) -> list[tuple[Fraction, Poly]]:
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
    return _double_sum(n, l, r, range(1, m), (0, -1), (m, -1))


def gessel_double_sum_reindexed(n: int, l: int, r: int, m: int) -> Fraction:
    """Equivalent form after reindexing k -> m-k: the summand becomes
    C(n+r,j) C(l+r,r+1-j) k^(n+r-j) (k-m)^(l+j-1)."""
    return _double_sum(n, l, r, range(1, m), (-m, 1), (0, 1))


def symmetric_block_sum(n: int, r: int, m: int, table: GenBernTable = DEFAULT_TABLE) -> Fraction:
    """The single Bernoulli block sum_{k=0}^{n+r} m^(n+r-k) C(n+r,k)
    C(n+k+r,r) B_{n+k}; for odd r it is half of S(n, n, r; m, 0, 0)."""
    return _block(n, n, r, m, table.classical_row(2 * n + r))


def gessel_halved_double_sum(n: int, r: int, m: int) -> Fraction:
    """(1/2)(r+1) sum_{k<m} sum_{j<=r+1} C(n+r,j) C(n+r,r+1-j)
    k^(j+n-1) (k-m)^(n+r-j), the closed form of the single block for odd r."""
    return _double_sum(n, n, r, range(1, m), (0, 1), (-m, 1)) / 2


def alternating_power_sum(m: int, r_exp: int, s_exp: int) -> Fraction:
    """sum_{k<m} (k^r (k-m)^s - k^s (k-m)^r); zero whenever r+s is even."""
    return Fraction(sum(k**r_exp * (k - m) ** s_exp - k**s_exp * (k - m) ** r_exp for k in range(1, m)))


# ---------------------------------------------------------------------------
# Classical catalog (scalar identities)
# ---------------------------------------------------------------------------


def lucas_pair_sum(n: int, l: int, table: GenBernTable = DEFAULT_TABLE) -> Fraction:
    """sum_k C(n,k) B_{l+k} + (-1)^(l+n+1) sum_k C(l,k) B_{n+k}."""
    nums = table.classical_row(n + l)
    return _block(l, n, 0, 1, nums, scale=_sign(l + n + 1), total=_block(n, l, 0, 1, nums))


def truncated_pair_sum(n: int, l: int, table: GenBernTable = DEFAULT_TABLE) -> Fraction:
    """Variant with both top terms dropped (valid for n, l >= 1)."""
    nums = table.classical_row(n + l)
    return _block(l, n, 0, 1, nums, stop=l, scale=_sign(l + n + 1), total=_block(n, l, 0, 1, nums, stop=n))


def autoduality_residual(n: int, table: GenBernTable = DEFAULT_TABLE) -> Fraction:
    """sum_k C(n,k) B_k - (-1)^n B_n."""
    nums, den = table.classical_row(n)
    return Fraction(sum(binomial(n, k) * nums[k] for k in range(n + 1)) - _sign(n) * nums[n], den)


def stern_recurrence_sum(n: int, table: GenBernTable = DEFAULT_TABLE) -> Fraction:
    """sum_{k=0}^{n} C(n+1,k) (n+k+1) B_{n+k}; zero for n >= 1."""
    return _block(n, n, 1, 1, table.classical_row(2 * n), stop=n + 1)


def linear_weight_double_sum(n: int, l: int, m: int) -> Fraction:
    """sum_{k<m} ((n+l)k - mn) k^(n-1) (k-m)^(l-1).

    The formally negative exponents always cancel, and the sum is written
    out without them, over integers: at l = 0 the linear weight factors as
    n(k-m) and absorbs (k-m)^(-1), leaving n k^(n-1) (nothing at n = 0
    too); at n = 0 the k^(-1) piece carries the zero coefficient mn,
    leaving l (k-m)^(l-1).
    """
    if l == 0:
        return Fraction(n * sum(k ** (n - 1) for k in range(1, m))) if n else ZERO
    if n == 0:
        return Fraction(l * sum((k - m) ** (l - 1) for k in range(1, m)))
    return Fraction(sum(((n + l) * k - m * n) * k ** (n - 1) * (k - m) ** (l - 1) for k in range(1, m)))


def kaneko_weighted_term(k: int, m: int, n: int) -> Fraction:
    """p_k(m, 1, n) = (n+1)^2 k^n (k-m)^n + n(n+1) k^(n+1) (k-m)^(n-1).

    At n = 0 the second term carries the zero coefficient n(n+1), so the
    formal (k-m)^(-1) is never raised."""
    second = n * (n + 1) * k ** (n + 1) * (k - m) ** (n - 1) if n else 0
    return Fraction((n + 1) ** 2 * k**n * (k - m) ** n + second)


# ---------------------------------------------------------------------------
# Applications of the main identity
# ---------------------------------------------------------------------------


def leibniz_double_sum(n: int, l: int, r: int, s: int, u, v) -> Fraction:
    """(r+1) sum_{k=1..s} sum_{j<=r+1} C(n+r,j) C(l+r,r+1-j)
    (u-k)^(l+j-1) (v-k)^(n+r-j), the order-one closed form at a point."""
    return _double_sum(n, l, r, range(1, s + 1), (_rational(u), -1), (_rational(v), -1))


def classical_pair_residual(n: int, l: int, r: int, s: int, lam, x0, table: GenBernTable = DEFAULT_TABLE) -> Fraction:
    """Order-one specialization of the main identity at a rational point."""
    lam, x0 = _rational(lam), _rational(x0)
    lhs = _block(n, l, r, lam, table.classical_row(n + l + r, x0))
    lhs = _block(l, n, r, lam, table.classical_row(n + l + r, 1 + s - lam - x0), scale=_sign(l + n + r + 1), total=lhs)
    return lhs - leibniz_double_sum(n, l, r, s, x0, x0 + lam)


def _order_shift_pair_residuals(n, l, r, m, beta, table: GenBernTable) -> dict[str, Poly]:
    """Symbolic residuals of the beta-shifted corollary of the main
    identity, reading -> residual.

    ``as_printed`` builds the second block with its displayed per-term
    sign -(-1)^(r+l+k); ``from_main_identity`` rebuilds it from the global
    sign (-1)^(l+n+r+1) and the reflection realization.  Both readings
    describe the same polynomial, which the adjudication confirms.  The
    first block and the Omega_(a-1) side do not depend on the reading and
    are built once.
    """
    beta = Fraction(beta)
    lam = Fraction(m) - 2 * beta
    first = _block(n, l, r, lam, lambda idx: table.poly_shifted(idx, beta), total=Poly("x"))
    right, mirror, sign = m - 1 - beta, 1 - lam - beta, _sign(l + n + r + 1)
    core = _window_core(n, l, r, (0,), beta - 1, right).derive(r + 1) * Fraction(1, math.factorial(r))
    rhs = OmegaOperator(-1, table)(core)
    # the per-term sign goes into the weight: -(-1)^(r+l+k) lam^(l+r-k) = -(-lam)^(l+r-k)
    printed = _block(l, n, r, -lam, lambda idx: table.poly_shifted(idx, right), scale=-1, total=first)
    # B_{n+k}^(a)(a + mirror - x) = (-1)^(n+k) B_{n+k}^(a)(x - mirror) under the
    # global sign, (-1)^(n+k) going into the weight as (-1)^(n+l+r) (-lam)^(l+r-k).
    # Both readings verify because sign * (-1)^(n+l+r) = -1 and -mirror = m-1-beta.
    reflected = _block(l, n, r, -lam, lambda idx: table.poly_shifted(idx, -mirror), scale=sign * _sign(n + l + r), total=first)
    return {"as_printed": _difference(printed, rhs), "from_main_identity": _difference(reflected, rhs)}


def product_rule_split_residual(n: int, l: int, r: int) -> Poly:
    """D^(r+1)/r! ((x-1)^(l+r) x^(n+r)) minus its two-block product-rule
    expansion; a pure polynomial identity over QQ[x]."""
    lhs = ((X - 1) ** (l + r) * X ** (n + r)).derive(r + 1) * Fraction(1, math.factorial(r))
    # the two blocks; the second mirrors the first under n <-> l, x <-> x - 1
    pairs = [
        ((p + r) * c, u ** (p + r - k - 1) * v ** (q + k))
        for p, q, u, v in ((n, l, X, X - 1), (l, n, X - 1, X))
        for k in range(r + 1)
        if p + r and (c := binomial(p + r - 1, k) * binomial(q + r, r - k))
    ]
    return lhs - lincomb("x", pairs)


def balanced_triple_residual_antisym(n, l, r, alpha, x, y, table=DEFAULT_TABLE) -> Fraction:
    """First balanced-argument form: with x+y+z equal to the order,
    (-1)^n (first block) - (-1)^(l+r) (second block)."""
    alpha, x, y = _rational(alpha), _rational(x), _rational(y)
    z = alpha - x - y
    lhs = _block(n, l, r, x, table.value_row(n + l + r, alpha, y), scale=_sign(n))
    return _block(l, n, r, x, table.value_row(n + l + r, alpha, z), scale=-_sign(l + r), total=lhs)


def balanced_triple_residual_folded(n, l, r, alpha, x, y, table=DEFAULT_TABLE) -> Fraction:
    """Second balanced-argument form, with the third argument eliminated:
    first block minus sum_k C(l+r,k) C(n+k+r,r) (-x)^(l+r-k) B_{n+k}(x+y)."""
    alpha, x, y = _rational(alpha), _rational(x), _rational(y)
    lhs = _block(n, l, r, x, table.value_row(n + l + r, alpha, y))
    return _block(l, n, r, -x, table.value_row(n + l + r, alpha, x + y), scale=-1, total=lhs)


def integer_balance_residual(n, l, r, s, x, y, table=DEFAULT_TABLE) -> Fraction:
    """Order-one form with x+y+z = s+1: the two-block sum against the
    order-one closed double sum."""
    x, y = _rational(x), _rational(y)
    z = s + 1 - x - y
    lhs = paired_sum(n, l, r, x, y, z, alpha=1, table=table)
    return lhs - leibniz_double_sum(n, l, r, s, y, x + y)


def _truncated_balanced_readings(n, l, r, alpha, x, y, table: GenBernTable) -> dict[str, Fraction]:
    """Balanced form with both top terms dropped (r >= 1), against a single
    Bernoulli-polynomial difference, in the corrected and the printed reading.

    As printed the difference carries index n+l+1; direct evaluation shows
    the index must be n+l+r (they agree exactly at r = 1).
    """
    alpha, x, y = _rational(alpha), _rational(x), _rational(y)
    z = alpha - x - y
    lhs = _block(n, l, r, x, table.value_row(n + l + r, alpha, y), stop=n + r, scale=_sign(n))
    lhs = _block(l, n, r, x, table.value_row(n + l + r, alpha, z), stop=l + r, scale=_sign(l + r + 1), total=lhs)
    c = _sign(n) * binomial(n + l + 2 * r, r)
    rhs, printed = (c * (table.value_at(idx, alpha, x + y) - table.value_at(idx, alpha, y)) for idx in (n + l + r, n + l + 1))
    return {"corrected": lhs - rhs, "as_printed": lhs - printed}


def _truncated_power_readings(n, l, r, t_val, table: GenBernTable) -> dict[str, Fraction]:
    """Order-one specialization of the truncated balanced form at
    (x, y, z) = (1, t, -t), whose right side collapses to a monomial:
    (n+l+r) t^(n+l+r-1) corrected, (n+l+1) t^(n+l) as printed."""
    t_val = Fraction(t_val)
    lhs = _block(n, l, r, 1, table.classical_row(n + l + r, t_val), stop=n + r, scale=_sign(n))
    lhs = _block(l, n, r, 1, table.classical_row(n + l + r, -t_val), stop=l + r, scale=_sign(l + r + 1), total=lhs)
    c = _sign(n) * binomial(n + l + 2 * r, r)
    rhs, printed = c * (n + l + r) * t_val ** (n + l + r - 1), c * (n + l + 1) * t_val ** (n + l)
    return {"corrected": lhs - rhs, "as_printed": lhs - printed}


def odd_order_tail_residual(n: int, r: int, t_val, table: GenBernTable = DEFAULT_TABLE) -> Poly:
    """Symbolic-order identity for odd r: the truncated symmetric block with
    weight (a-2t)^(n+r-k) plus C(2n+2r,r) B_{2n+r}^(a)(t); residual in QQ[a]."""
    t_val = Fraction(t_val)
    total = _block(n, n, r, poly_a(-2 * t_val, 1), lambda idx: table.poly(idx).eval(t_val), stop=n + r, total=poly_a())
    return total + table.poly(2 * n + r).eval(t_val) * binomial(2 * n + 2 * r, r)


def halved_tail_sum_residual(n: int, r: int, table: GenBernTable = DEFAULT_TABLE) -> Fraction:
    """Odd-r closed form for sum_{k=n}^{2n+r} C(n+r,k-n) C(k+r,r) B_k / 2^k."""
    top = 2 * n + r
    nums, den = table.classical_row(top)
    # B_i / 2^i over den 2^top
    lhs = _block(n, n, r, 1, ([b * 2 ** (top - i) for i, b in enumerate(nums)], den * 2**top))
    rhs = (
        Fraction(_sign(n + (r - 1) // 2) * (r + 1), 2 ** (2 * n + r + 1))
        * binomial(n + r, (r + 1) // 2)
    )
    return lhs - rhs


def _scaled_ratio_readings(n: int, r: int, x0, table: GenBernTable) -> dict[str, Fraction]:
    """Odd-r closed form for the x-weighted variant
    sum_k C(n+r,k) C(n+k+r,r) B_{n+k}(x) / (2^k (1-x)^(n+k-1)), x != 1, in
    the corrected and the printed reading.

    As printed the right side reads (-1)^(n+(r+1)/2) (r+1)/2^(n+r) C;
    direct evaluation confirms (-1)^(n+(r-1)/2) (r+1)/2^(n+r+1) C instead.
    """
    x0 = Fraction(x0)
    if x0 == 1:
        raise ValueError("the weighted form divides by (1-x); x = 1 is outside its domain")
    top = 2 * n + r
    nums, den = table.classical_row(top, x0)
    # with x = a/b and 1 - x = g/b, B_i(x) / (2^(i-n) (1-x)^(i-1)) over den 2^top g^top b
    a, b = x0.numerator, x0.denominator
    g = b - a
    row = [v * 2 ** (n + top - i) * b**i * g ** (top + 1 - i) for i, v in enumerate(nums)]
    lhs = _block(n, n, r, 1, (row, den * 2**top * g**top * b))
    c_mid = binomial(n + r, (r + 1) // 2)
    return {
        "corrected": lhs - Fraction(_sign(n + (r - 1) // 2) * (r + 1), 2 ** (n + r + 1)) * c_mid,
        "as_printed": lhs - Fraction(_sign(n + (r + 1) // 2) * (r + 1), 2 ** (n + r)) * c_mid,
    }


def symbolic_weight_pair_residual(n: int, l: int, table: GenBernTable = DEFAULT_TABLE) -> Poly:
    """Fully symbolic two-block identity at weight a and arguments 0:
    sum_k a^(n-k) C(n,k) B_{l+k}^(a) + (-1)^(l+n+1) sum_k a^(l-k) C(l,k)
    B_{n+k}^(a); residual in QQ[a]."""
    first = _block(n, l, 0, ALPHA, table.number, total=poly_a())
    return _block(l, n, 0, ALPHA, table.number, scale=_sign(l + n + 1), total=first)


# ---------------------------------------------------------------------------
# Case registry: parameters, domains, records
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SumSpec:
    """Parameter record selecting one identity instance; :data:`PARAMS`
    is its schema."""

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
        for p in INDEXES:
            if getattr(self, p.name) < p.default:
                raise ValueError(f"{p.name} must be >= {p.default}")


class Param(NamedTuple):
    """One SumSpec field.  ``kind`` is "index" for an integer whose least
    value is its default, "rational", or "order" for a rational or None (a
    symbolic order); ``key`` names the field in a report and as a flag."""

    name: str
    kind: str
    default: object
    key: str


# The schema of SumSpec in field order, kinds read from its annotations;
# each key is the field's own name, except that lam is "lambda".
_KINDS = {"int": "index", "Fraction": "rational", "Fraction | None": "order"}
PARAMS = tuple(Param(f.name, _KINDS[f.type], f.default, "lambda" if f.name == "lam" else f.name) for f in fields(SumSpec))
INDEXES = tuple(p for p in PARAMS if p.kind == "index")


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


def _status(residual) -> str:
    zero = residual.is_zero() if isinstance(residual, Poly) else residual == 0
    return STATUS_VERIFIED if zero else STATUS_COUNTEREXAMPLE


class Guard(NamedTuple):
    """A condition on a case's domain, and the note a result outside it reports."""

    holds: Callable[[SumSpec], bool]
    note: str


# Guards that several cases share.
ODD_R = Guard(lambda p: p.r % 2 == 1, "needs odd r")
POSITIVE_R = Guard(lambda p: p.r >= 1, "needs r >= 1")
RATIONAL_ORDER = Guard(lambda p: p.alpha is not None, "needs a rational order")
BALANCED = Guard(lambda p: p.x + p.y + p.z == p.alpha, "needs x + y + z equal to the order")


@dataclass(frozen=True)
class CaseDef:
    """One catalog entry, as the data that :func:`verify_case` runs.

    ``axes`` names its sweep axes, outermost first; ``genbern.harness.AXES``
    gives each name's fields and sample points.  ``domain`` holds its guards
    in the order they are checked.  ``residual(spec, table)`` maps a SumSpec
    and the :class:`GenBernTable` the case reads to the exact residual or,
    for a case read in several ways, to a dict reading -> residual in report
    order.  ``prefer`` names those readings in order of
    preference and is empty for a case with one reading.  ``note`` goes into
    every result inside the domain.  A record with ``slot`` set has a
    residual that takes a third argument, the sweep's slot through which
    the main identity's sides pass from theorem_le1 to proof_replay at one
    point (:func:`main_identity_residual`, :func:`replay_proof`).
    """

    id: str
    axes: tuple[str, ...]
    residual: Callable[[SumSpec, GenBernTable], object]
    domain: tuple[Guard, ...] = ()
    prefer: tuple[str, ...] = ()
    note: str | None = None
    slot: bool = False


def _pair(n: int, l: int, r: int, m, table: GenBernTable) -> Fraction:
    """S(n, l, r; m, 0, 0) at order one."""
    return paired_sum(n, l, r, m, 0, 0, alpha=1, table=table)


def _at_order(residual: Poly, alpha):
    """A residual in QQ[a], or its value at the order when that is rational."""
    return residual if alpha is None else residual.eval(Fraction(alpha))


def _against_block(n: int, r: int, m: int, table: GenBernTable) -> dict[str, Fraction]:
    """The single block at (n, r, m) minus the folded closed form (odd r)
    summed over k < m, in the sign-corrected and the printed reading.

    The folded term is the leading piece (r+1)/2 C(n+r,(r+1)/2)^2
    (k(k-m))^(n+(r-1)/2) plus the tail j <= (r-1)/2 of the double sum.  As
    printed the base reads k(m-k), a factor (-1)^(n+(r-1)/2) on the leading
    piece; direct evaluation confirms k(k-m).  The block and the tail do
    not depend on the reading and are built once.
    """
    half, ks = (r + 1) // 2, range(1, m)
    tail = _double_sum(n, n, r, ks, (0, 1), (-m, 1), stop=half)
    c_mid = binomial(n + r, half)
    lead = Fraction((r + 1) * c_mid * c_mid * sum((k * (k - m)) ** (n + (r - 1) // 2) for k in ks), 2)
    lhs = symmetric_block_sum(n, r, m, table) - tail
    return {"sign_corrected": lhs - lead, "as_printed": lhs - _sign(n + (r - 1) // 2) * lead}


def _weighted_readings(n: int, r: int, m: int, closed, table: GenBernTable) -> dict[str, Fraction]:
    """The weighted sum sum_k m^(n+1-k) C(n+1,k) (n+k+1) B_{n+k}, which is
    the single block at r = 1, built once: against ``closed`` alone
    (``first_block``) and also against (n+1) S(n, n+1, r; m, 0, 0)
    (``literal``)."""
    total = symmetric_block_sum(n, 1, m, table)
    return {
        "literal": abs(total - (n + 1) * _pair(n, n + 1, r, m, table)) + abs(total - closed),
        "first_block": abs(total - closed),
    }


CASE_DEFS: dict[str, CaseDef] = {
    d.id: d
    for d in (
        CaseDef("t3", ("n", "l", "r"), lambda p, t: _pair(p.n, p.l, p.r, 1, t)),
        CaseDef("t4", ("n", "l", "r", "m"), lambda p, t: _pair(p.n, p.l, p.r, p.m, t) - gessel_double_sum(p.n, p.l, p.r, p.m)),
        CaseDef(
            "tg4",
            ("n", "l", "r", "m"),
            lambda p, t: _pair(p.n, p.l, p.r, p.m, t) - gessel_double_sum_reindexed(p.n, p.l, p.r, p.m),
        ),
        CaseDef(
            "t5",
            ("n", "r", "m"),
            lambda p, t: symmetric_block_sum(p.n, p.r, p.m, t) - gessel_halved_double_sum(p.n, p.r, p.m),
            domain=(ODD_R,),
        ),
        CaseDef(
            "ges1",
            ("n", "r", "m"),
            lambda p, t: _against_block(p.n, p.r, p.m, t),
            domain=(ODD_R,),
            prefer=("as_printed", "sign_corrected"),
            note="left side is the single Bernoulli block; the leading q-term base k*(m-k) verifies only after the "
            "correction to k*(k-m), i.e. a factor (-1)^(n+(r-1)/2)",
        ),
        CaseDef(
            "rem1",
            ("m", "r", "s"),
            lambda p, t: alternating_power_sum(p.m, p.r, p.s),
            domain=(Guard(lambda p: (p.r + p.s) % 2 == 0, "needs r+s even"),),
        ),
        CaseDef("p1", ("n",), lambda p, t: autoduality_residual(p.n, t)),
        CaseDef("e1", ("n", "l"), lambda p, t: lucas_pair_sum(p.n, p.l, t)),
        CaseDef("e2", ("n", "l"), lambda p, t: _pair(p.n, p.l, 0, 1, t)),
        CaseDef(
            "k5",
            ("n",),
            lambda p, t: _weighted_readings(p.n, 0, 1, ZERO, t),
            prefer=("literal", "first_block"),
            note="the weighted sum vanishes and matches both the (n+1)-scaled pair sum and the single block at m=1",
        ),
        CaseDef("k3", ("n",), lambda p, t: stern_recurrence_sum(p.n, t), domain=(Guard(lambda p: p.n >= 1, "needs n >= 1"),)),
        CaseDef("s3", ("n", "l", "r"), lambda p, t: _pair(p.n, p.l, p.r, 1, t)),
        CaseDef("t230", ("n", "l", "m"), lambda p, t: _pair(p.n, p.l, 0, p.m, t) - linear_weight_double_sum(p.n, p.l, p.m)),
        CaseDef(
            "t24",
            ("n", "m"),
            lambda p, t: _weighted_readings(
                p.n, 1, p.m, sum((kaneko_weighted_term(k, p.m, p.n) for k in range(1, p.m)), ZERO), t
            ),
            prefer=("literal", "first_block"),
            note="the displayed sum equals the closed form and the single block of the symmetric pair sum; its "
            "identification with (n+1) times the shifted pair sum fails",
        ),
        CaseDef(
            "c1",
            ("n", "m"),
            # the printed p_k(m, 3, n) adds a telescoping extra, left out: it sums to zero over k < m
            lambda p, t: _against_block(p.n, 3, p.m, t),
            prefer=("as_printed", "sign_corrected"),
            note="inherits the leading q-term base correction (k*(k-m) for k*(m-k))",
        ),
        CaseDef(
            "theorem_le1",
            ("n", "l", "r", "s", "lam", "symbolic_alpha"),
            lambda p, t, slot=None: main_identity_residual(p.n, p.l, p.r, p.s, p.lam, t, slot)
            if p.alpha is None
            else main_identity_residual_at(p.n, p.l, p.r, p.s, p.lam, p.alpha, t),
            slot=True,
        ),
        CaseDef(
            "proof_replay",
            ("n", "l", "r", "s", "lam"),
            # the first nonzero of operator_link and lhs_match
            lambda p, t, slot=None: next(
                (res for res in replay_proof(p.n, p.l, p.r, p.s, p.lam, t, slot).values() if not res.is_zero()), Poly("x")
            ),
            note="operator link, lhs expansion and rhs closed form all replayed",
            slot=True,
        ),
        CaseDef(
            "app1", ("n", "l", "r", "s", "lam", "x"), lambda p, t: classical_pair_residual(p.n, p.l, p.r, p.s, p.lam, p.x, t)
        ),
        CaseDef(
            "nielsen_f10",
            ("n", "l", "r", "m", "beta"),
            lambda p, t: _order_shift_pair_residuals(p.n, p.l, p.r, p.m, p.beta, t),
            prefer=("as_printed", "from_main_identity"),
            note="the displayed per-term sign -(-1)^(r+l+k) and the global sign (-1)^(l+n+r+1) with reflection give "
            "the same polynomial; both verify",
        ),
        CaseDef("agoh_leibniz", ("n", "l", "r"), lambda p, t: product_rule_split_residual(p.n, p.l, p.r)),
        CaseDef(
            "s1",
            ("n", "l", "r", "alpha", "xy", "z=alpha-x-y"),
            lambda p, t: balanced_triple_residual_antisym(p.n, p.l, p.r, p.alpha, p.x, p.y, t),
            domain=(Guard(RATIONAL_ORDER.holds, "needs a rational order (the balance constraint ties x+y+z to it)"), BALANCED),
        ),
        CaseDef(
            "s2",
            ("n", "l", "r", "alpha", "xy"),
            lambda p, t: balanced_triple_residual_folded(p.n, p.l, p.r, p.alpha, p.x, p.y, t),
            domain=(RATIONAL_ORDER,),
        ),
        CaseDef(
            "s4",
            ("n", "l", "r", "s", "xy", "z=s+1-x-y"),
            lambda p, t: integer_balance_residual(p.n, p.l, p.r, p.s, p.x, p.y, t),
            domain=(Guard(lambda p: p.x + p.y + p.z == p.s + 1, "needs x + y + z = s + 1"),),
        ),
        CaseDef(
            "cor3a",
            ("n", "l", "r", "alpha", "xy", "z=alpha-x-y"),
            lambda p, t: _truncated_balanced_readings(p.n, p.l, p.r, p.alpha, p.x, p.y, t),
            domain=(POSITIVE_R, RATIONAL_ORDER, BALANCED),
            prefer=("as_printed", "corrected"),
            note="right-side difference index reads n+l+1 in print but must be n+l+r (identical at r=1)",
        ),
        CaseDef(
            "cor3b",
            ("n", "l", "r", "t"),
            lambda p, t: _truncated_power_readings(p.n, p.l, p.r, p.t, t),
            domain=(POSITIVE_R,),
            prefer=("as_printed", "corrected"),
            note="monomial right side reads (n+l+1) t^(n+l) in print but must be (n+l+r) t^(n+l+r-1)",
        ),
        CaseDef(
            "s20",
            ("n", "r", "t", "symbolic_alpha"),
            lambda p, t: _at_order(odd_order_tail_residual(p.n, p.r, p.t, t), p.alpha),
            domain=(ODD_R,),
        ),
        CaseDef(
            "cor1",
            ("n", "r", "ratio_x"),
            lambda p, t: _scaled_ratio_readings(p.n, p.r, p.x, t),
            domain=(ODD_R, Guard(lambda p: p.x != 1, "x = 1 divides by zero in the weight")),
            prefer=("as_printed", "corrected"),
            note="right side verifies as (-1)^(n+(r-1)/2) (r+1)/2^(n+r+1) C(n+r,(r+1)/2); the printed sign exponent "
            "and power of two are off by one",
        ),
        CaseDef("fi2", ("n", "r"), lambda p, t: halved_tail_sum_residual(p.n, p.r, t), domain=(ODD_R,)),
        CaseDef(
            "neto_corrected",
            ("n", "l", "symbolic_alpha"),
            lambda p, t: _at_order(symbolic_weight_pair_residual(p.n, p.l, t), p.alpha),
        ),
        CaseDef(
            "vassilev",
            ("n", "l"),
            lambda p, t: truncated_pair_sum(p.n, p.l, t),
            domain=(Guard(lambda p: p.n >= 1 and p.l >= 1, "needs n >= 1 and l >= 1"),),
        ),
    )
}

CASE_IDS = tuple(CASE_DEFS)


def verify_case(case: IdentityCase, table: GenBernTable = DEFAULT_TABLE, slot: dict | None = None) -> VerificationResult:
    """Run one catalog instance through its record on ``table``, and time it.

    ``slot`` is a sweep's handoff between main-identity cases (a record
    with ``slot`` set reads it, any other ignores it); without one a case
    builds all it needs and leaves nothing behind.

    The first guard of ``domain`` that fails makes the result not
    applicable, with that guard's note.  Otherwise the residual decides.  A
    case with readings records each reading's status and takes the first
    verifying reading in ``prefer`` order, or the first preferred reading
    when none verifies.
    """
    if case.id not in CASE_DEFS:
        raise KeyError(f"unknown identity case {case.id!r}")
    d, p = CASE_DEFS[case.id], case.params
    start = time.perf_counter()
    for holds, note in d.domain:
        if not holds(p):
            return VerificationResult(case, STATUS_NOT_APPLICABLE, elapsed=time.perf_counter() - start, note=note)
    residual = d.residual(p, table, slot) if d.slot else d.residual(p, table)
    if not d.prefer:
        return VerificationResult(case, _status(residual), residual, time.perf_counter() - start, note=d.note)
    readings = {name: _status(res) for name, res in residual.items()}
    reading = next((name for name in d.prefer if readings[name] == STATUS_VERIFIED), d.prefer[0])
    elapsed = time.perf_counter() - start
    return VerificationResult(
        case, readings[reading], residual[reading], elapsed, readings=readings, reading=reading, note=d.note
    )
