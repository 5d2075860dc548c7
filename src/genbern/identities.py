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
such a sum in the catalog goes through one kernel per ring: ``_block`` at
a rational order and point, and ``_poly_block`` over QQ[a] or QQ[a][x],
one ``lincomb``.  Every order-one closed double sum (r+1) sum_k sum_j
C(n+r,j) C(l+r,r+1-j) u_k^(l+j-1) v_k^(n+r-j) goes through ``_double_sum``.
``_block`` and ``_double_sum`` return an integer term (numerator,
denominator), as the closed forms do, and a scalar residual is one
``_join`` of its terms: one lcm, one integer sum and one Fraction, the
layout :class:`Poly` keeps for polynomials.  A derived point such as
1+s-lam-x or x+y is formed from the integer numerators and denominators
and reduced by one gcd, and the table's row at it is read by that pair.

The main identity's sides (:func:`main_identity_residual`,
:func:`replay_proof`, and so ``nielsen_f10``) are first compared packed,
by Kronecker substitution (D. Harvey, J. Symbolic Comput. 44 (2009),
arXiv:0712.4046): each memo entry's numerators are one int per slot width
B (:meth:`GenBernTable.packs`), x^i a^j at slot T(i+j) + i, T(d) =
d(d+1)/2.  The map is injective, and an entry of index k (a-degree at
most k - i at x^i) fills the slots below T(k+1).  Packing is Z-linear, so
a side is one integer sum N of weighted packs over a denominator D, and
lhs = rhs is the zero test of R = N1 (D2/g) - N2 (D1/g), g = gcd(D1, D2):

* the bit lengths of the weights and of each entry's largest numerator
  bound every coefficient of R below 2^bound, and B is bound rounded up
  to a multiple of 64 (:func:`_width`);
* then R packs to 0 only when it is the zero polynomial: at its lowest
  nonzero slot the coefficient would be a multiple of 2^B;
* the packed route only accepts zero.  A nonzero R, or one whose bound
  does not fit B, reruns the Poly route, which decides and builds the
  residual, so nothing is decoded and every residual text is the Poly
  route's.  That route stays the oracle.

A handful of catalog entries circulate in print with typographical
slips; those run in "adjudication" mode, where every candidate reading is
evaluated and the result records which one verifies.

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
from dataclasses import dataclass, field, fields
from fractions import Fraction
from typing import NamedTuple

from .bernoulli import DEFAULT_TABLE, GenBernTable, OmegaOperator, _rational
from .poly import ALPHA, Poly, X, alpha_substituted, binomial, from_rows, lincomb, poly_a

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
    block, which both block kernels read."""
    return tuple(binomial(p + r, k) * binomial(q + k + r, r) for k in range(p + r + 1))


def _block(p: int, q: int, r: int, w, values, stop: int | None = None, scale=1) -> tuple[int, int]:
    """scale * sum_{k<stop} C(p+r,k) C(q+k+r,r) w^(p+r-k) B_{q+k}, as a term.

    One block of the two-block sum at a rational point; ``stop`` defaults
    to p+r+1, the whole block, and every sign rides in ``scale``.  w = (u, v)
    is the weight u/v as two integers, and ``values`` a row ``(nums, den)``
    holding B_i = nums[i] / den (:meth:`GenBernTable.value_row_at`,
    :meth:`GenBernTable.classical_row_at`).  The block is one integer Horner
    pass over the row and the cached coefficients, returned as the term
    ``(num, den v^(p+r))`` for :func:`_join`.
    """
    nums, den = values
    u, v = w
    top = p + r
    coefficients = _block_coefficients(p, q, r)[:stop]
    # Horner in u: acc = sum_k c_k nums[q+k] u^(K-1-k) v^k over the K coefficients kept
    acc, vk = 0, 1
    for c, b in zip(coefficients, nums[q : q + len(coefficients)], strict=True):
        acc = acc * u + c * b * vk
        vk *= v
    return acc * scale * u ** (top + 1 - len(coefficients)), den * v**top


def _poly_block(p: int, q: int, r: int, w, values, total: Poly, stop: int | None = None, scale=1) -> Poly:
    """``total`` + scale * sum_{k<stop} C(p+r,k) C(q+k+r,r) w^(p+r-k) B_{q+k}, as one ``lincomb``.

    The block of :func:`_block` over QQ[a] or QQ[a][x]: ``values(i)`` gives
    B_i, and w is a rational u/v or a polynomial u in ``a`` (v = 1).  A term
    whose whole weight scale C C u^(p+r-k) v^k is zero (at w = 0, every
    k < p+r) is skipped without calling ``values``.
    """
    weights, den = _block_weights(p, q, r, w, stop, scale)
    return lincomb(total.var, [(den, total)] + [(c, values(i)) for i, c in weights], den)


def _block_weights(p: int, q: int, r: int, w, stop: int | None = None, scale=1) -> tuple[list, int]:
    """The (index q+k, weight scale C C u^(p+r-k) v^k) of the nonzero terms of
    :func:`_poly_block`'s sum, and its denominator v^(p+r)."""
    top = p + r
    u, v = (w, 1) if isinstance(w, Poly) else (w.numerator, w.denominator)
    coefficients = enumerate(_block_coefficients(p, q, r)[:stop])
    return [(q + k, c) for k, b in coefficients if (c := scale * b * u ** (top - k) * v**k)], v**top


@functools.cache
def _double_sum_coefficients(n: int, l: int, r: int, stop: int) -> tuple[tuple[int, int], ...]:
    """The (C(n+r,j) C(l+r,r+1-j), j) with j < stop and a nonzero
    coefficient; the default sweep reads 56 keys 2,016 times."""
    coeffs = tuple((c, j) for j in range(stop) if (c := binomial(n + r, j) * binomial(l + r, r + 1 - j)))
    if any(min(l + j - 1, n + r - j) < 0 for _, j in coeffs):
        raise NegativePowerError(f"a negative exponent meets a nonzero coefficient at n={n}, l={l}, r={r}")
    return coeffs


def _double_sum(n: int, l: int, r: int, ks, u, v, stop: int | None = None, scale=1) -> tuple[int, int]:
    """scale (r+1) sum_{k in ks} sum_{j<stop} C(n+r,j) C(l+r,r+1-j) u_k^(l+j-1) v_k^(n+r-j).

    The shape of every order-one closed double sum; ``stop`` defaults to
    r+2.  The bases are affine in k with slope 1 or -1: ``u`` = (a, b, e)
    stands for u_k = a/b + e*k with integers a, b, so u_k is the integer
    a + e*b*k over the fixed b, and likewise ``v`` = (c, d, e') over d.
    The whole sum is then one integer sum over b^(l+r) d^(n+r), returned as
    the term ``(num, den)`` for :func:`_join`.  The exponent l+j-1 is
    negative only at j = 0 with l = 0, where C(r, r+1) vanishes; a negative
    exponent on a nonzero coefficient raises ``NegativePowerError``.
    """
    coeffs = _double_sum_coefficients(n, l, r, r + 2 if stop is None else stop)
    (a, b, eu), (c, d, ev) = u, v
    # the j-th term over b^(l+r) d^(n+r): C C b^(r+1-j) d^j (a + eu*b*k)^(l+j-1) (c + ev*d*k)^(n+r-j)
    terms = [(cj * b ** (r + 1 - j) * d**j, l + j - 1, n + r - j) for cj, j in coeffs]
    num = 0
    for k in ks:
        uk, vk = a + eu * b * k, c + ev * d * k
        for w, i, j in terms:
            num += w * uk**i * vk**j
    return scale * (r + 1) * num, b ** (l + r) * d ** (n + r)


def _sum(*terms) -> tuple[int, int]:
    """The sum of the terms ``(num, den)`` as one term over the least common
    denominator, which is positive: one lcm and one integer sum."""
    den = 1
    for _, d in terms:
        den = math.lcm(den, d)
    total = 0
    for num, d in terms:
        total += num * (den // d)
    return total, den


def _join(*terms) -> Fraction:
    """The sum of the terms ``(num, den)`` as one Fraction, whose gcd is the
    only normalization; the scalar counterpart of
    :func:`genbern.poly.lincomb`.  Every scalar residual is one call."""
    return Fraction(*_sum(*terms))


def _parts(v) -> tuple[int, int]:
    """A rational (an int, a Fraction, or what ``Fraction`` reads) as its
    numerator and positive denominator."""
    v = _rational(v)
    return v.numerator, v.denominator


def _point(num: int, den: int) -> tuple[int, int]:
    """num/den over a positive den in lowest terms, by one gcd: a derived
    point as a row key's pair."""
    g = math.gcd(num, den)
    return num // g, den // g


def _sums_to(target, *values) -> bool:
    """Whether the rationals ``values`` sum to ``target``, by
    cross-multiplication."""
    num, den = 0, 1
    for v in values:
        num, den = num * v.denominator + v.numerator * den, den * v.denominator
    return num * target.denominator == target.numerator * den


# ---------------------------------------------------------------------------
# The two-block sum and the main identity
# ---------------------------------------------------------------------------


def paired_sum(n: int, l: int, r: int, x, y, z, alpha=None, table: GenBernTable = DEFAULT_TABLE):
    """Literal evaluation of the two-block sum S(n, l, r; x, y, z).

    With ``alpha=None`` the order stays symbolic and the result is a
    polynomial in ``a``; with a rational ``alpha`` the result is an exact
    Fraction.
    """
    if alpha is not None:
        return _join(*_paired_terms(n, l, r, _parts(x), _parts(y), _parts(z), _parts(alpha), table))
    x, y, z = _rational(x), _rational(y), _rational(z)
    first = _poly_block(n, l, r, x, lambda idx: table.poly(idx).eval(y), Poly("a"))
    return _poly_block(l, n, r, x, lambda idx: table.poly(idx).eval(z), first, scale=_sign(l + n + r + 1))


def _paired_terms(n: int, l: int, r: int, w, y, z, order, table: GenBernTable):
    """The two blocks of S(n, l, r; w, y, z) at a rational order, as terms;
    the weight, the points and the order are (num, den) pairs, the points
    and the order in lowest terms."""
    top = n + l + r
    first = _block(n, l, r, w, table.value_row_at(top, *order, *y))
    return first, _block(l, n, r, w, table.value_row_at(top, *order, *z), scale=_sign(top + 1))


def main_identity_lhs(n: int, l: int, r: int, s: int, lam, table: GenBernTable = DEFAULT_TABLE) -> Poly:
    """Left side of the main identity, fully symbolic in x and the order.

    The second block's argument a+s-lam-x is realized through the
    reflection rule, which turns it into (-1)^(n+k) B_{n+k}^(a)(x+lam-s), the
    sign going into the weight: with the global sign (-1)^(l+n+r+1),
    (-1)^(n+k) lam^(l+r-k) becomes -(-lam)^(l+r-k).
    Built on every call; its blocks read the table's memoized polynomials.
    """
    lam = Fraction(lam)
    first = _poly_block(n, l, r, lam, table.poly, Poly("x"))
    return _poly_block(l, n, r, -lam, lambda idx: table.poly_shifted(idx, lam - s), first, scale=-1)


def _window_core(n: int, l: int, r: int, ks, v, derivative: int = 0) -> Poly:
    """D^j/j! of sum_{k in ks} (x-k)^(l+r) (x+v-k)^(n+r) over QQ[x], for a
    rational v and j = ``derivative``.

    With v = c/d the second factor is (d*x + c - k*d)^(n+r) / d^(n+r), so both
    factors expand binomially over the integers, the products are integer
    convolutions, and the sum is divided by d^(n+r) once; D^j/j! sends x^i
    to C(i, j) x^(i-j).
    """
    c, d = _parts(v)
    e1, e2 = l + r, n + r
    acc = [0] * (e1 + e2 + 1)
    left_binomials = [math.comb(e1, i) for i in range(e1 + 1)]
    right_binomials = [math.comb(e2, j) * d**j for j in range(e2 + 1)]
    for k in ks:
        left = [b * (-k) ** (e1 - i) for i, b in enumerate(left_binomials)]
        right = [b * (c - k * d) ** (e2 - j) for j, b in enumerate(right_binomials)]
        for i, s in enumerate(left):
            if s:
                for j, t in enumerate(right):
                    acc[i + j] += s * t
    return from_rows("x", d**e2, [math.comb(i, derivative) * t for i, t in enumerate(acc[derivative:], derivative)])


def telescoping_core(n: int, l: int, r: int, s: int, lam) -> Poly:
    """The proof's auxiliary polynomial P(x): the r-th scaled derivative of
    the windowed product sum."""
    return _window_core(n, l, r, range(1, s + 1), lam, r)


def main_identity_rhs(n: int, l: int, r: int, s: int, lam, table: GenBernTable = DEFAULT_TABLE) -> Poly:
    """Right side: the order-lowered umbral image of D P = D^(r+1)/r! of the
    windowed product sum.  Built on every call, as the left side is."""
    return OmegaOperator(-1, table)(telescoping_core(n, l, r, s, lam).derive())


def _main_sides(n: int, l: int, r: int, s: int, lam, table: GenBernTable) -> tuple[Poly, Poly, Poly]:
    """The left side, the proof's P and the right side Omega_(a-1)(D P): the Poly route."""
    core = telescoping_core(n, l, r, s, lam)
    return main_identity_lhs(n, l, r, s, lam, table), core, OmegaOperator(-1, table)(core.derive())


class _Side:
    """The sum of c * E / q over ``terms`` (int c, int q, the
    :class:`genbern.bernoulli._Pack` of E), read as a pack is: its numerator
    N = sum W E over ``den``, every coefficient of N below 2^``bits`` in
    absolute value, and N packed per width."""

    __slots__ = ("den", "bits", "_terms", "_at")

    def __init__(self, terms):
        self.den = den = math.lcm(*(q * pack.den for _, q, pack in terms))
        self._terms = [(c * (den // (q * pack.den)), pack) for c, q, pack in terms]
        self.bits = max((w.bit_length() + pack.bits for w, pack in self._terms), default=0) + len(terms).bit_length()
        self._at = {}

    def at(self, width: int) -> int:
        packed = self._at.get(width)
        if packed is None:
            packed = self._at[width] = sum(w * pack.at(width) for w, pack in self._terms)
        return packed


def _terms(table: GenBernTable, weights, q: int, shift=0, offset: int = 0) -> list:
    """(c, q, the pack of B_i^(a+offset)(x+shift)) for each (i, c) of ``weights``."""
    return [(c, q, pack) for (_, c), pack in zip(weights, table.packs([i for i, _ in weights], shift, offset))]


def _image(p: Poly, table: GenBernTable, offset: int) -> _Side:
    """Omega_(a+offset)(p) for an x-polynomial p over QQ, packed."""
    return _Side(_terms(table, [(k, c) for k, c in enumerate(p.rows) if c], p.den, offset=offset))


def _width(bound: int) -> int:
    """The slot width for coefficients below 2^bound: bound rounded up to a multiple of 64 bits."""
    return max(64, -(-bound // 64) * 64)


def _same(one: _Side, other: _Side) -> bool:
    """Whether two packed sides are proven equal: R = N1 (D2/g) - N2 (D1/g),
    g = gcd(D1, D2), packs to 0 at a width its coefficients fit.  False
    means unproven, not unequal (the module docstring gives the argument)."""
    g = math.gcd(one.den, other.den)
    m1, m2 = other.den // g, one.den // g
    bound = max(one.bits + m1.bit_length(), other.bits + m2.bit_length()) + 1
    width = _width(bound)
    return bound <= width and one.at(width) * m1 == other.at(width) * m2


def _packed_sides(n: int, l: int, r: int, s: int, lam, table: GenBernTable) -> tuple:
    """The left side, P and Omega_(a-1)(D P) of :func:`_main_sides`, each
    side packed: the blocks over the "poly" and "shifted" packs."""
    lam = _rational(lam)
    first, q1 = _block_weights(n, l, r, lam)
    second, q2 = _block_weights(l, n, r, -lam, scale=-1)
    lhs = _Side(_terms(table, first, q1) + _terms(table, second, q2, lam - s))
    core = telescoping_core(n, l, r, s, lam)
    return lhs, core, _image(core.derive(), table, -1)


def main_identity_residual(
    n: int, l: int, r: int, s: int, lam, table: GenBernTable = DEFAULT_TABLE, slot: dict | None = None
) -> Poly:
    """Left side minus right side: zero when the packed sides are proven
    equal, else the Poly route's difference.  With a ``slot`` (a dict local
    to one sweep) the packed sides and P go into the slot, keyed by the
    table and the point, for :func:`replay_proof` at the same point to take out."""
    sides = _packed_sides(n, l, r, s, lam, table)
    if slot is not None:
        slot[(table, n, l, r, s, lam)] = sides
    if _same(sides[0], sides[2]):
        return from_rows("x", 1, [])
    lhs, _, rhs = _main_sides(n, l, r, s, lam, table)
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
    out of it and builds only Omega_a(Delta P).  Both are tested packed
    (module docstring); only a nonzero one reruns the Poly route.

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
    lhs, p, derive_route = sides or _packed_sides(n, l, r, s, lam, table)
    delta_route = _image(p.delta(), table, 0)
    if _same(delta_route, derive_route) and _same(delta_route, lhs):
        return dict.fromkeys(("operator_link", "lhs_match"), from_rows("x", 1, []))
    lhs, p, derive_route = _main_sides(n, l, r, s, lam, table)
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


def _gessel(n: int, l: int, r: int, m: int, scale=1) -> tuple[int, int]:
    """scale (r+1) sum_{k<m} sum_{j<=r+1} (-1)^(l+j-1) C(n+r,j) C(l+r,r+1-j)
    k^(l+j-1) (m-k)^(n+r-j), as a term."""
    return _double_sum(n, l, r, range(1, m), (0, 1, -1), (m, 1, -1), scale=scale)


def _gessel_reindexed(n: int, l: int, r: int, m: int, scale=1) -> tuple[int, int]:
    """:func:`_gessel` after reindexing k -> m-k, as a term: the summand
    becomes C(n+r,j) C(l+r,r+1-j) k^(n+r-j) (k-m)^(l+j-1)."""
    return _double_sum(n, l, r, range(1, m), (-m, 1, 1), (0, 1, 1), scale=scale)


def _symmetric_block(n: int, r: int, m: int, table: GenBernTable) -> tuple[int, int]:
    """The single Bernoulli block sum_{k=0}^{n+r} m^(n+r-k) C(n+r,k)
    C(n+k+r,r) B_{n+k}, as a term; for odd r it is half of S(n, n, r; m, 0, 0)."""
    return _block(n, n, r, (m, 1), table.classical_row_at(2 * n + r, 0, 1))


def _halved_double_sum(n: int, r: int, m: int, scale=1) -> tuple[int, int]:
    """scale (1/2)(r+1) sum_{k<m} sum_{j<=r+1} C(n+r,j) C(n+r,r+1-j) k^(j+n-1)
    (k-m)^(n+r-j), as a term: the closed form of the single block for odd r."""
    num, den = _double_sum(n, n, r, range(1, m), (0, 1, 1), (-m, 1, 1), scale=scale)
    return num, 2 * den


def alternating_power_sum(m: int, r_exp: int, s_exp: int) -> Fraction:
    """sum_{k<m} (k^r (k-m)^s - k^s (k-m)^r); zero whenever r+s is even."""
    return Fraction(sum(k**r_exp * (k - m) ** s_exp - k**s_exp * (k - m) ** r_exp for k in range(1, m)))


# ---------------------------------------------------------------------------
# Classical catalog (scalar identities)
# ---------------------------------------------------------------------------


def lucas_pair_sum(n: int, l: int, table: GenBernTable = DEFAULT_TABLE) -> Fraction:
    """sum_k C(n,k) B_{l+k} + (-1)^(l+n+1) sum_k C(l,k) B_{n+k}."""
    nums = table.classical_row_at(n + l, 0, 1)
    return _join(_block(n, l, 0, (1, 1), nums), _block(l, n, 0, (1, 1), nums, scale=_sign(l + n + 1)))


def truncated_pair_sum(n: int, l: int, table: GenBernTable = DEFAULT_TABLE) -> Fraction:
    """Variant with both top terms dropped (valid for n, l >= 1)."""
    nums = table.classical_row_at(n + l, 0, 1)
    return _join(_block(n, l, 0, (1, 1), nums, stop=n), _block(l, n, 0, (1, 1), nums, stop=l, scale=_sign(l + n + 1)))


def autoduality_residual(n: int, table: GenBernTable = DEFAULT_TABLE) -> Fraction:
    """sum_k C(n,k) B_k - (-1)^n B_n."""
    nums, den = table.classical_row_at(n, 0, 1)
    return _join((sum(binomial(n, k) * nums[k] for k in range(n + 1)) - _sign(n) * nums[n], den))


def stern_recurrence_sum(n: int, table: GenBernTable = DEFAULT_TABLE) -> Fraction:
    """sum_{k=0}^{n} C(n+1,k) (n+k+1) B_{n+k}; zero for n >= 1."""
    return _join(_block(n, n, 1, (1, 1), table.classical_row_at(2 * n, 0, 1), stop=n + 1))


def _linear_weight_sum(n: int, l: int, m: int) -> int:
    """sum_{k<m} ((n+l)k - mn) k^(n-1) (k-m)^(l-1), an integer.

    The formally negative exponents always cancel, and the sum is written
    out without them: at l = 0 the linear weight factors as n(k-m) and
    absorbs (k-m)^(-1), leaving n k^(n-1) (nothing at n = 0 too); at n = 0
    the k^(-1) piece carries the zero coefficient mn, leaving l (k-m)^(l-1).
    """
    if l == 0:
        return n * sum(k ** (n - 1) for k in range(1, m)) if n else 0
    if n == 0:
        return l * sum((k - m) ** (l - 1) for k in range(1, m))
    return sum(((n + l) * k - m * n) * k ** (n - 1) * (k - m) ** (l - 1) for k in range(1, m))


def _kaneko_term(k: int, m: int, n: int) -> int:
    """p_k(m, 1, n) = (n+1)^2 k^n (k-m)^n + n(n+1) k^(n+1) (k-m)^(n-1), an integer.

    At n = 0 the second term carries the zero coefficient n(n+1), so the
    formal (k-m)^(-1) is never raised."""
    second = n * (n + 1) * k ** (n + 1) * (k - m) ** (n - 1) if n else 0
    return (n + 1) ** 2 * k**n * (k - m) ** n + second


# ---------------------------------------------------------------------------
# Applications of the main identity
# ---------------------------------------------------------------------------


def _leibniz(n: int, l: int, r: int, s: int, u, v, scale=1) -> tuple[int, int]:
    """scale (r+1) sum_{k=1..s} sum_{j<=r+1} C(n+r,j) C(l+r,r+1-j)
    (u-k)^(l+j-1) (v-k)^(n+r-j), the order-one closed form at a point, as a
    term; u = a/b and v = c/d are given as the pairs (a, b) and (c, d)."""
    return _double_sum(n, l, r, range(1, s + 1), (*u, -1), (*v, -1), scale=scale)


def classical_pair_residual(n: int, l: int, r: int, s: int, lam, x0, table: GenBernTable = DEFAULT_TABLE) -> Fraction:
    """Order-one specialization of the main identity at a rational point."""
    w, x = _parts(lam), _parts(x0)
    (a, b), (c, d) = w, x
    top = n + l + r
    # the second block's argument 1+s-lam-x0, and x0+lam, over b*d
    z = _point((1 + s) * b * d - a * d - c * b, b * d)
    return _join(
        _block(n, l, r, w, table.classical_row_at(top, c, d)),
        _block(l, n, r, w, table.classical_row_at(top, *z), scale=_sign(top + 1)),
        _leibniz(n, l, r, s, x, _point(c * b + a * d, b * d), scale=-1),
    )


def _order_shift_pair_residuals(n, l, r, m, beta, table: GenBernTable) -> dict[str, Poly]:
    """Symbolic residuals of the beta-shifted corollary, reading -> residual:
    the main identity at s = 1 and lam = m - 2 beta, with x replaced by
    x + beta.

    ``as_printed`` reads the second block with the displayed per-term sign
    -(-1)^(r+l+k) at x+m-1-beta; ``from_main_identity`` with the global sign
    (-1)^(l+n+r+1) at a+1-lam-beta-x, by reflection.  Both weights are
    -(-lam)^(l+r-k) at x+lam-1 shifted by beta, so the readings are one
    residual.  The shift commutes with both blocks and with Omega_(a-1) on
    any table, since every family a table derives is an Appell sequence
    built from its numbers.
    """
    beta = Fraction(beta)
    residual = main_identity_residual(n, l, r, 1, m - 2 * beta, table).shift(beta)
    return {"as_printed": residual, "from_main_identity": residual}


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
    order, w, y, z = _balanced(alpha, x, y)
    top = n + l + r
    return _join(
        _block(n, l, r, w, table.value_row_at(top, *order, *y), scale=_sign(n)),
        _block(l, n, r, w, table.value_row_at(top, *order, *z), scale=-_sign(l + r)),
    )


def _balanced(alpha, x, y):
    """The order, x, y and z = alpha - x - y as (num, den) pairs, the
    order, y and z in lowest terms."""
    order, w, y = _parts(alpha), _parts(x), _parts(y)
    (g, h), (a, b), (c, d) = order, w, y
    return order, w, y, _point(g * b * d - a * h * d - c * h * b, h * b * d)


def balanced_triple_residual_folded(n, l, r, alpha, x, y, table=DEFAULT_TABLE) -> Fraction:
    """Second balanced-argument form, with the third argument eliminated:
    first block minus sum_k C(l+r,k) C(n+k+r,r) (-x)^(l+r-k) B_{n+k}(x+y)."""
    order, (a, b), (c, d) = _parts(alpha), _parts(x), _parts(y)
    top = n + l + r
    return _join(
        _block(n, l, r, (a, b), table.value_row_at(top, *order, c, d)),
        _block(l, n, r, (-a, b), table.value_row_at(top, *order, *_point(a * d + c * b, b * d)), scale=-1),
    )


def integer_balance_residual(n, l, r, s, x, y, table=DEFAULT_TABLE) -> Fraction:
    """Order-one form with x+y+z = s+1: the two-block sum against the
    order-one closed double sum."""
    w, y = _parts(x), _parts(y)
    (a, b), (c, d) = w, y
    z = _point((s + 1) * b * d - a * d - c * b, b * d)
    lhs = _paired_terms(n, l, r, w, y, z, (1, 1), table)
    return _join(*lhs, _leibniz(n, l, r, s, y, _point(a * d + c * b, b * d), scale=-1))


def _truncated_balanced_readings(n, l, r, alpha, x, y, table: GenBernTable) -> dict[str, Fraction]:
    """Balanced form with both top terms dropped (r >= 1), against a single
    Bernoulli-polynomial difference, in the corrected and the printed reading.

    As printed the difference carries index n+l+1; direct evaluation shows
    the index must be n+l+r (they agree exactly at r = 1).
    """
    order, w, y, z = _balanced(alpha, x, y)
    (a, b), (c, d), top = w, y, n + l + r
    ys, y_den = y_row = table.value_row_at(top, *order, *y)
    lhs = (
        _block(n, l, r, w, y_row, stop=n + r, scale=_sign(n)),
        _block(l, n, r, w, table.value_row_at(top, *order, *z), stop=l + r, scale=_sign(l + r + 1)),
    )
    # the right side reads B_idx at x+y and at y for idx = n+l+r and n+l+1, both <= top as r >= 1
    xy, xy_den = table.value_row_at(top, *order, *_point(a * d + c * b, b * d))
    coef = _sign(n) * binomial(n + l + 2 * r, r)
    corrected, printed = ((*lhs, (-coef * xy[idx], xy_den), (coef * ys[idx], y_den)) for idx in (top, n + l + 1))
    return {"corrected": _join(*corrected), "as_printed": _join(*printed)}


def _truncated_power_readings(n, l, r, t_val, table: GenBernTable) -> dict[str, Fraction]:
    """Order-one specialization of the truncated balanced form at
    (x, y, z) = (1, t, -t), whose right side collapses to a monomial:
    (n+l+r) t^(n+l+r-1) corrected, (n+l+1) t^(n+l) as printed."""
    p, q = _parts(t_val)
    top = n + l + r
    lhs = (
        _block(n, l, r, (1, 1), table.classical_row_at(top, p, q), stop=n + r, scale=_sign(n)),
        _block(l, n, r, (1, 1), table.classical_row_at(top, -p, q), stop=l + r, scale=_sign(l + r + 1)),
    )
    c = _sign(n) * binomial(n + l + 2 * r, r)
    # -c (n+l+r) t^(n+l+r-1) and -c (n+l+1) t^(n+l), r >= 1
    rhs, printed = (-c * top * p ** (top - 1), q ** (top - 1)), (-c * (n + l + 1) * p ** (n + l), q ** (n + l))
    return {"corrected": _join(*lhs, rhs), "as_printed": _join(*lhs, printed)}


def odd_order_tail_residual(n: int, r: int, t_val, table: GenBernTable = DEFAULT_TABLE) -> Poly:
    """Symbolic-order identity for odd r: the truncated symmetric block with
    weight (a-2t)^(n+r-k) plus C(2n+2r,r) B_{2n+r}^(a)(t); residual in QQ[a]."""
    t_val = Fraction(t_val)
    total = _poly_block(n, n, r, poly_a(-2 * t_val, 1), lambda idx: table.poly(idx).eval(t_val), poly_a(), stop=n + r)
    return total + table.poly(2 * n + r).eval(t_val) * binomial(2 * n + 2 * r, r)


def halved_tail_sum_residual(n: int, r: int, table: GenBernTable = DEFAULT_TABLE) -> Fraction:
    """Odd-r closed form for sum_{k=n}^{2n+r} C(n+r,k-n) C(k+r,r) B_k / 2^k."""
    top = 2 * n + r
    nums, den = table.classical_row_at(top, 0, 1)
    # B_i / 2^i over den 2^top
    lhs = _block(n, n, r, (1, 1), ([b * 2 ** (top - i) for i, b in enumerate(nums)], den * 2**top))
    rhs = -_sign(n + (r - 1) // 2) * (r + 1) * binomial(n + r, (r + 1) // 2), 2 ** (2 * n + r + 1)
    return _join(lhs, rhs)


def _scaled_ratio_readings(n: int, r: int, x0, table: GenBernTable) -> dict[str, Fraction]:
    """Odd-r closed form for the x-weighted variant
    sum_k C(n+r,k) C(n+k+r,r) B_{n+k}(x) / (2^k (1-x)^(n+k-1)), x != 1, in
    the corrected and the printed reading.

    As printed the right side reads (-1)^(n+(r+1)/2) (r+1)/2^(n+r) C;
    direct evaluation confirms (-1)^(n+(r-1)/2) (r+1)/2^(n+r+1) C instead.
    """
    a, b = _parts(x0)
    if a == b:
        raise ValueError("the weighted form divides by (1-x); x = 1 is outside its domain")
    top = 2 * n + r
    nums, den = table.classical_row_at(top, a, b)
    # with x = a/b and 1 - x = g/b, B_i(x) / (2^(i-n) (1-x)^(i-1)) over den 2^top g^top b
    g = b - a
    row = [v * 2 ** (n + top - i) * b**i * g ** (top + 1 - i) for i, v in enumerate(nums)]
    lhs = _block(n, n, r, (1, 1), (row, den * 2**top * g**top * b))
    coef = (r + 1) * binomial(n + r, (r + 1) // 2)
    return {
        "corrected": _join(lhs, (-_sign(n + (r - 1) // 2) * coef, 2 ** (n + r + 1))),
        "as_printed": _join(lhs, (-_sign(n + (r + 1) // 2) * coef, 2 ** (n + r))),
    }


def symbolic_weight_pair_residual(n: int, l: int, table: GenBernTable = DEFAULT_TABLE) -> Poly:
    """Fully symbolic two-block identity at weight a and arguments 0:
    sum_k a^(n-k) C(n,k) B_{l+k}^(a) + (-1)^(l+n+1) sum_k a^(l-k) C(l,k)
    B_{n+k}^(a); residual in QQ[a]."""
    first = _poly_block(n, l, 0, ALPHA, table.number, poly_a())
    return _poly_block(l, n, 0, ALPHA, table.number, first, scale=_sign(l + n + 1))


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
    # the whole residual text's SHA-256 when ``residual`` is its prefix, read back from a truncated record
    residual_sha256: str | None = None
    # the report's params text of ``case``, kept by a sweep that built it to sort (genbern.harness.params_text)
    params_text: tuple[tuple[str, str], ...] | None = field(default=None, compare=False, repr=False)

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
BALANCED = Guard(
    lambda p: p.alpha is not None and _sums_to(p.alpha, p.x, p.y, p.z), "needs x + y + z equal to the order"
)


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


def _pair(n: int, l: int, r: int, m: int, table: GenBernTable) -> tuple[tuple[int, int], tuple[int, int]]:
    """The two blocks of S(n, l, r; m, 0, 0) at order one, as terms."""
    return _paired_terms(n, l, r, (m, 1), (0, 1), (0, 1), (1, 1), table)


def _at_order(residual: Poly, alpha):
    """A residual in QQ[a] or QQ[a][x], or its specialization at the order
    when that is rational."""
    return residual if alpha is None else alpha_substituted(residual, Fraction(alpha))


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
    lhs = _symmetric_block(n, r, m, table), _double_sum(n, n, r, ks, (0, 1, 1), (-m, 1, 1), stop=half, scale=-1)
    c_mid = binomial(n + r, half)
    lead = (r + 1) * c_mid * c_mid * sum((k * (k - m)) ** (n + (r - 1) // 2) for k in ks)
    return {
        "sign_corrected": _join(*lhs, (-lead, 2)),
        "as_printed": _join(*lhs, (-_sign(n + (r - 1) // 2) * lead, 2)),
    }


def _weighted_readings(n: int, r: int, m: int, closed: int, table: GenBernTable) -> dict[str, Fraction]:
    """The weighted sum sum_k m^(n+1-k) C(n+1,k) (n+k+1) B_{n+k}, which is
    the single block at r = 1, built once: against the integer ``closed``
    alone (``first_block``) and also against (n+1) S(n, n+1, r; m, 0, 0)
    (``literal``, the sum of both distances)."""
    total = _symmetric_block(n, 1, m, table)
    first = _sum(total, (-closed, 1))
    pair = _sum(total, *((-(n + 1) * num, den) for num, den in _pair(n, n + 1, r, m, table)))
    return {
        "literal": _join((abs(pair[0]), pair[1]), (abs(first[0]), first[1])),
        "first_block": _join((abs(first[0]), first[1])),
    }


CASE_DEFS: dict[str, CaseDef] = {
    d.id: d
    for d in (
        CaseDef("t3", ("n", "l", "r"), lambda p, t: _join(*_pair(p.n, p.l, p.r, 1, t))),
        CaseDef(
            "t4",
            ("n", "l", "r", "m"),
            lambda p, t: _join(*_pair(p.n, p.l, p.r, p.m, t), _gessel(p.n, p.l, p.r, p.m, -1)),
        ),
        CaseDef(
            "tg4",
            ("n", "l", "r", "m"),
            lambda p, t: _join(*_pair(p.n, p.l, p.r, p.m, t), _gessel_reindexed(p.n, p.l, p.r, p.m, -1)),
        ),
        CaseDef(
            "t5",
            ("n", "r", "m"),
            lambda p, t: _join(_symmetric_block(p.n, p.r, p.m, t), _halved_double_sum(p.n, p.r, p.m, -1)),
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
        CaseDef("e2", ("n", "l"), lambda p, t: _join(*_pair(p.n, p.l, 0, 1, t))),
        CaseDef(
            "k5",
            ("n",),
            lambda p, t: _weighted_readings(p.n, 0, 1, 0, t),
            prefer=("literal", "first_block"),
            note="the weighted sum vanishes and matches both the (n+1)-scaled pair sum and the single block at m=1",
        ),
        CaseDef("k3", ("n",), lambda p, t: stern_recurrence_sum(p.n, t), domain=(Guard(lambda p: p.n >= 1, "needs n >= 1"),)),
        CaseDef("s3", ("n", "l", "r"), lambda p, t: _join(*_pair(p.n, p.l, p.r, 1, t))),
        CaseDef(
            "t230",
            ("n", "l", "m"),
            lambda p, t: _join(*_pair(p.n, p.l, 0, p.m, t), (-_linear_weight_sum(p.n, p.l, p.m), 1)),
        ),
        CaseDef(
            "t24",
            ("n", "m"),
            lambda p, t: _weighted_readings(p.n, 1, p.m, sum(_kaneko_term(k, p.m, p.n) for k in range(1, p.m)), t),
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
            lambda p, t, slot=None: _at_order(main_identity_residual(p.n, p.l, p.r, p.s, p.lam, t, slot), p.alpha),
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
            domain=(Guard(lambda p: _sums_to(p.s + 1, p.x, p.y, p.z), "needs x + y + z = s + 1"),),
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
