"""Dense exact polynomial arithmetic over the two-level ring QQ[a][x].

A :class:`Poly` is a dense polynomial in ``"a"`` (rational coefficients:
expressions in the generalized order) or in ``"x"`` (coefficients may also
be ``"a"`` polynomials).  The convention 0**0 = 1 applies throughout.

Storage is integer, in the content/denominator layout of FLINT's
``fmpq_poly``: coefficient i is ``rows[i] / den``, a row being an int or,
for an ``a``-polynomial coefficient, a list of ints in ascending powers
of a.  It is canonical -- ``den > 0``, no common factor of ``den`` and the
numerators, no trailing zero in ``rows`` or an a-row -- so equal
polynomials have equal storage up to an int row ``v`` standing for an
a-row ``[v]`` (0 for ``[]``), which ``==`` accepts.  Rows are never
mutated once held, so Polys share them.  Every operation (``+ - * **``,
``derive``, ``shift`` as an integer Taylor shift after von zur Gathen and
Gerhard, ISSAC 1997, ``eval`` as integer Horner, :func:`lincomb` and the
a-coefficient maps) works on rows and ends in one gcd.  Fractions exist
only at the boundary: ``Poly(var, coeffs)`` validates and flattens them,
and the read-only ``coeffs`` builds them from the rows on each read.
"""

from __future__ import annotations

import math
from fractions import Fraction

# Tower order: a polynomial may only have lower-ranked polynomials as
# coefficients, never the other way around.
_VAR_RANK = {"a": 0, "x": 1}

_ZERO = Fraction(0)


def binomial(n: int, k: int) -> int:
    """Binomial coefficient C(n, k); 0 when k is outside 0..n."""
    if n < 0:
        raise ValueError(f"binomial: upper index must be >= 0, got {n}")
    if k < 0 or k > n:
        return 0
    return math.comb(n, k)


def _is_scalar(value) -> bool:
    return isinstance(value, (int, Fraction))


class Poly:
    """Immutable dense polynomial in one named variable.

    ``coeffs[i]`` is the coefficient of ``var**i``: a Fraction, or a Poly
    in a lower-ranked variable.  Arithmetic against ints, Fractions and
    lower-ranked Polys coerces them into the constant term or a scalar
    factor, so QQ[a][x] expressions need no explicit lifting.
    """

    __slots__ = ("var", "den", "rows")

    def __init__(self, var: str, coeffs=()):
        if var not in _VAR_RANK:
            raise ValueError(f"unknown variable {var!r}; expected one of {sorted(_VAR_RANK)}")
        fixed = [Fraction(c) if isinstance(c, int) else c for c in coeffs]
        for c in fixed:
            if isinstance(c, Poly):
                if _VAR_RANK[c.var] >= _VAR_RANK[var]:
                    raise ValueError(f"coefficient in {c.var!r} not allowed inside a {var!r} polynomial")
            elif not isinstance(c, Fraction):
                raise TypeError(f"unsupported coefficient type {type(c).__name__}")
        while fixed and not fixed[-1]:
            fixed.pop()
        # the lcm of reduced denominators leaves no common factor
        den = math.lcm(*(c.den if isinstance(c, Poly) else c.denominator for c in fixed))
        rows = [c.numerator * (den // c.denominator) if isinstance(c, Fraction) else [v * den // c.den for v in c.rows]
                for c in fixed]
        _poly(var, den, rows, self)

    def __setattr__(self, name, value):
        raise AttributeError("Poly is immutable")

    @property
    def coeffs(self) -> tuple:
        """The coefficients as Fractions and ``"a"`` Polys, built on each read."""
        den = self.den
        return tuple(
            from_rows("a", den, row) if type(row) is list else Fraction(row, den) if row else _ZERO
            for row in self.rows
        )

    # -- basic structure ------------------------------------------------

    @property
    def degree(self):
        """Degree of the polynomial; -inf for the zero polynomial."""
        return len(self.rows) - 1 if self.rows else float("-inf")

    def coeff(self, k: int):
        """Coefficient of var**k (0 beyond the stored degree)."""
        return self.coeffs[k] if 0 <= k < len(self.rows) else Fraction(0)

    def is_zero(self) -> bool:
        return not self.rows

    def __bool__(self) -> bool:
        return bool(self.rows)

    def constant(self):
        """The coefficient of var**0."""
        return self.coeff(0)

    def __eq__(self, other) -> bool:
        pair = self._align(other)
        if pair is None:
            return NotImplemented
        (p, q), same = pair, lambda u, v: u == v or _as_list(u) == _as_list(v)
        return p.den == q.den and len(p.rows) == len(q.rows) and all(map(same, p.rows, q.rows))

    __hash__ = None

    def __repr__(self) -> str:
        from .textform import format_poly

        return f"Poly({self.var!r}, {format_poly(self)!r})"

    def _align(self, other):
        """(self, other) as Polys in the higher of their variables; None
        for an operand of another type."""
        if isinstance(other, Poly):
            if other.var == self.var:
                return self, other
            return (_lift(self), other) if _VAR_RANK[other.var] > _VAR_RANK[self.var] else (self, _lift(other))
        if _is_scalar(other):
            return self, _poly(self.var, other.denominator, [other.numerator] if other else [])
        return None

    # -- ring operations -------------------------------------------------

    def __neg__(self) -> Poly:
        return _poly(self.var, self.den, [[-v for v in r] if type(r) is list else -r for r in self.rows])

    def __add__(self, other) -> Poly:
        pair = self._align(other)
        return NotImplemented if pair is None else lincomb(pair[0].var, [(1, pair[0]), (1, pair[1])])

    __radd__ = __add__

    def __sub__(self, other) -> Poly:
        return self + (-other)

    def __rsub__(self, other) -> Poly:
        return (-self) + other

    def __mul__(self, other) -> Poly:
        if _is_scalar(other):
            p = other.numerator
            rows = [[v * p for v in r] if type(r) is list else r * p for r in self.rows] if p else []
            return from_rows(self.var, self.den * other.denominator, rows)
        pair = self._align(other)
        if pair is None:
            return NotImplemented
        a, b = pair
        return from_rows(a.var, a.den * b.den, _mul_rows(a.rows, b.rows))

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> Poly:
        """Binary exponentiation; p**0 is 1 for every p, including 0."""
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError(f"exponent must be a non-negative integer, got {exponent!r}")
        result, base, e = _poly(self.var, 1, [1]), self, exponent
        while e:
            if e & 1:
                result = result * base
            e >>= 1
            if e:
                base = base * base
        return result

    # -- operators D, shift, delta ----------------------------------------

    def derive(self, order: int = 1) -> Poly:
        """order-th derivative, computed with exact falling factorials."""
        if order < 0:
            raise ValueError(f"derivative order must be >= 0, got {order}")
        if order == 0:
            return self
        scaled = [(math.perm(i, order), r) for i, r in enumerate(self.rows) if i >= order]
        return from_rows(self.var, self.den, [[v * f for v in r] if type(r) is list else r * f for f, r in scaled])

    def shift(self, offset) -> Poly:
        """p evaluated at (var + offset), for a rational offset p/q: an
        integer Taylor shift by p of each column of numerators, over
        den * q^deg."""
        if not _is_scalar(offset):
            raise TypeError("shift offset must be rational")
        if not offset or not self.rows:
            return self
        p, q = offset.numerator, offset.denominator
        rows = self.rows
        if any(type(r) is list for r in rows):
            rows = [list(r) for r in zip(*(_taylor(col, p, q) for col in zip(*_grid(rows))))]
        else:
            rows = _taylor(rows, p, q)
        return from_rows(self.var, self.den * q ** (len(self.rows) - 1), rows)

    def delta(self) -> Poly:
        """Forward difference p(var + 1) - p(var)."""
        return lincomb(self.var, [(1, self.shift(1)), (-1, self)])

    # -- evaluation and coefficient maps -----------------------------------

    def eval(self, value):
        """Evaluation at a rational p/q: one integer Horner pass per column,
        over den * q^deg.  An x-polynomial gives an a-polynomial or, when
        its coefficients are rational, a Fraction."""
        if not _is_scalar(value):
            raise TypeError("eval point must be rational")
        rows = self.rows
        if not rows:
            return Fraction(0)
        p, q = value.numerator, value.denominator
        den = self.den * q ** (len(rows) - 1)
        if any(type(r) is list for r in rows):
            return from_rows("a", den, [_horner(col, p, q) for col in zip(*_grid(rows))])
        return Fraction(_horner(rows, p, q), den)


# Slot setters for the internal constructor, which skips __init__ and __setattr__.
_set_var, _set_den, _set_rows = (s.__set__ for s in (Poly.var, Poly.den, Poly.rows))


def _poly(var: str, den: int, rows: list, p: Poly | None = None) -> Poly:
    """Poly over storage that is already canonical, checking nothing; a
    given ``p`` is filled in instead of a new instance."""
    p = object.__new__(Poly) if p is None else p
    _set_var(p, var)
    _set_den(p, den)
    _set_rows(p, rows)
    return p


def from_rows(var: str, den: int, rows: list) -> Poly:
    """The Poly with coefficients ``rows[i] / den`` (den > 0; rows as in
    the module docstring), made canonical: trailing zeros are trimmed and
    the common factor divided out.  The lists passed in become its own."""
    if var == "x":
        for row in rows:
            while type(row) is list and row and not row[-1]:
                row.pop()
    while rows and not rows[-1]:
        rows.pop()
    if not rows:
        return _poly(var, 1, rows)
    g = den
    for row in rows:
        g = math.gcd(g, *row) if type(row) is list else math.gcd(g, row)
        if g == 1:
            return _poly(var, den, rows)
    return _poly(var, den // g, [[v // g for v in row] if type(row) is list else row // g for row in rows])


def _lift(p: Poly) -> Poly:
    """An ``a``-polynomial as a constant x-polynomial."""
    return _poly("x", p.den, [p.rows] if p.rows else [])


def _as_list(row) -> list:
    return row if type(row) is list else [row] if row else []


def _grid(rows: list) -> list[list[int]]:
    """Rows of an x-polynomial as new int lists of one width (at least 1);
    ``zip(*_grid(rows))`` gives one column per power of a."""
    rows = [_as_list(r) for r in rows]
    width = max([1, *map(len, rows)])
    return [r + [0] * (width - len(r)) for r in rows]


def _add_product(acc: list, u: list, v: list) -> list:
    """acc += u * v for lists of ints, extending acc as needed."""
    acc.extend([0] * (len(u) + len(v) - 1 - len(acc)))
    for i, s in enumerate(u):
        if s:
            for j, t in enumerate(v):
                acc[i + j] += s * t
    return acc


def _mul_rows(r1: list, r2: list) -> list:
    """Rows of the product of two polynomials, before reduction."""
    if not any(type(r) is list for r in r1 + r2):
        return _add_product([], r1, r2)
    out: list = [[] for _ in range(len(r1) + len(r2) - 1)]
    g2 = _grid(r2)
    for i, u in enumerate(_grid(r1)):
        for j, v in enumerate(g2):
            _add_product(out[i + j], u, v)
    return out


def _taylor(c, p: int, q: int) -> list:
    """Numerators over q^d (d = len(c) - 1) of the polynomial with integer
    coefficients c at var + p/q: scale by q^(d-k), shift by the integer p,
    rescale by q^k."""
    d = len(c) - 1
    a = list(c) if q == 1 else [v * q ** (d - k) for k, v in enumerate(c)]
    for i in range(d):
        for j in range(d - 1, i - 1, -1):
            a[j] += p * a[j + 1]
    return a if q == 1 else [v * q**k for k, v in enumerate(a)]


def _horner(c, p: int, q: int) -> int:
    """sum c_k p^k q^(d-k): the numerator over q^d of c at p/q."""
    acc, qk = 0, 1
    for v in reversed(c):
        acc = acc * p + v * qk
        qk *= q
    return acc


def lincomb(var: str, pairs, den: int = 1) -> Poly:
    """(sum of c * P over ``pairs``) / ``den``, for Polys P in ``var``.

    A weight c is an int, a Fraction, or an ``a``-polynomial (which
    multiplies its P first).  The work is integer: one lcm of the
    denominators, multiply-adds over the rows and one gcd.
    """
    terms = []
    for c, p in pairs:
        if isinstance(c, Poly):
            c, p = 1, p * c
        if c and p.rows:
            terms.append((c.numerator, c.denominator * p.den, p.rows))
    lcm = math.lcm(*(d for _, d, _ in terms))
    acc: list = []  # per coefficient: an int, or a list of ints for an a-polynomial
    for num, d, rows in terms:
        scale = num * (lcm // d)
        acc.extend([0] * (len(rows) - len(acc)))
        for i, row in enumerate(rows):
            if type(row) is int:
                if row:
                    if type(acc[i]) is int:
                        acc[i] += scale * row
                    else:
                        acc[i][0] += scale * row
                continue
            a = acc[i]
            if type(a) is int:
                a = acc[i] = [a]
            a.extend([0] * (len(row) - len(a)))
            for j, v in enumerate(row):
                a[j] += scale * v
    return from_rows(var, lcm * den, acc)


def linear_image(p: Poly, image) -> Poly:
    """sum_k p_k * image(k) over integers: the linear map sending var**k
    to the x-polynomial ``image(k)``."""
    pairs = [(_poly("a", 1, r) if type(r) is list else r, image(k)) for k, r in enumerate(p.rows) if r]
    return lincomb("x", pairs, p.den)


def poly_x(*coeffs) -> Poly:
    """Polynomial in x from ascending coefficients."""
    return Poly("x", coeffs)


def poly_a(*coeffs) -> Poly:
    """Polynomial in a from ascending coefficients."""
    return Poly("a", coeffs)


def monomial(var: str, k: int, coeff=1) -> Poly:
    """coeff * var**k."""
    if k < 0:
        raise ValueError(f"monomial power must be >= 0, got {k}")
    return Poly(var, (Fraction(0),) * k + (coeff if isinstance(coeff, Poly) else Fraction(coeff),))


X = poly_x(0, 1)
ALPHA = poly_a(0, 1)


def _map_a_rows(p: Poly, fn, value) -> Poly:
    """fn(row, num, den) of the rational ``value`` on each a-row of p,
    padded to one width w, over p.den * den^(w-1)."""
    grid = _grid(p.rows) or [[0]]
    num, den = value.numerator, value.denominator
    return from_rows("x", p.den * den ** (len(grid[0]) - 1), [fn(r, num, den) for r in grid])


def alpha_substituted(p: Poly, value) -> Poly | Fraction:
    """Every ``a``-coefficient of an x-polynomial evaluated at the rational
    ``value``: an x-polynomial over QQ (an a-polynomial gives its value)."""
    return p.eval(value) if p.var == "a" else _map_a_rows(p, _horner, value)


def alpha_shifted(p: Poly, offset) -> Poly:
    """Substitute a -> a + offset (rational) in every coefficient."""
    return p.shift(offset) if p.var == "a" else _map_a_rows(p, _taylor, offset)
