"""Dense exact polynomial arithmetic over the two-level ring QQ[a][x].

A :class:`Poly` is a dense list of coefficients in ascending powers of a
single named variable.  Two variables exist and form a fixed tower:

* ``"a"`` polynomials have :class:`~fractions.Fraction` coefficients
  (these hold symbolic expressions in the generalized-order parameter);
* ``"x"`` polynomials may additionally have ``"a"`` polynomials as
  coefficients, giving elements of QQ[a][x].

Everything is immutable after construction and normalized (no trailing
zero coefficients, fractions always in lowest terms with positive
denominator), so equality is plain structural comparison.  The global
convention 0**0 = 1 applies to all monomial evaluation.

Validation happens at the public boundary only: ``Poly(...)`` and
:meth:`Poly.map_coeffs` (which applies a caller's function) check every
coefficient and coerce ints to Fractions.  The ring operations, ``shift``
and ``derive`` combine coefficients that are already valid, so they build
their results with the internal :meth:`Poly._make`, which only trims
trailing zeros.

Linear combinations with rational weights run on integers.  Every Poly
has an integer view ``(den, rows)``: the least common denominator and,
per coefficient, its numerator over ``den`` (an int for a Fraction, a
list of ints for an ``a``-polynomial).  The view is built on first use
and published whole with one slot store, so concurrent readers at worst
build it twice with equal values; the memoized table polynomials are
therefore flattened once per process.  :func:`lincomb` sums ``c * P``
over these views with one lcm, integer multiply-adds and one Fraction
per nonzero output coefficient, the content/denominator layout of
FLINT's ``fmpq_poly``.  Its result keeps the view it was summed in, so a
sum fed into the next one is not flattened again.  The kernel serves the
hot sums of the identity catalog: the Bernoulli blocks of
``identities._block`` when the running total is a Poly and the weight
rational, the umbral maps ``OmegaOperator`` (on rational input) and
``identities.numeric_omega``, and the final ``lhs - rhs`` subtractions
of the main identity's residuals.  The ring operators themselves still
run on Fractions.
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

    ``coeffs[i]`` is the coefficient of ``var**i``.  Coefficients are
    Fractions, or Polys in a lower-ranked variable.  Arithmetic against
    plain ints/Fractions and against lower-ranked Polys coerces them into
    the constant term / a scalar factor, so QQ[a][x] expressions can be
    assembled without explicit lifting.
    """

    __slots__ = ("var", "coeffs", "_view")

    def __init__(self, var: str, coeffs=()):
        if var not in _VAR_RANK:
            raise ValueError(f"unknown variable {var!r}; expected one of {sorted(_VAR_RANK)}")
        rank = _VAR_RANK[var]
        fixed = []
        for c in coeffs:
            if isinstance(c, int):
                c = Fraction(c)
            elif isinstance(c, Poly):
                if _VAR_RANK[c.var] >= rank:
                    raise ValueError(f"coefficient in {c.var!r} not allowed inside a {var!r} polynomial")
            elif not isinstance(c, Fraction):
                raise TypeError(f"unsupported coefficient type {type(c).__name__}")
            fixed.append(c)
        while fixed and not fixed[-1]:
            fixed.pop()
        object.__setattr__(self, "var", var)
        object.__setattr__(self, "coeffs", tuple(fixed))
        object.__setattr__(self, "_view", None)

    @staticmethod
    def _make(var: str, coeffs) -> Poly:
        """Internal constructor for coefficients that are already valid
        (Fractions or lower-ranked Polys, never ints): trims trailing
        zeros and checks nothing."""
        if coeffs and not coeffs[-1]:
            end = len(coeffs) - 1
            while end and not coeffs[end - 1]:
                end -= 1
            coeffs = coeffs[:end]
        p = _new_poly(Poly)
        _set_var(p, var)
        _set_coeffs(p, tuple(coeffs))
        _set_view(p, None)
        return p

    def __setattr__(self, name, value):
        raise AttributeError("Poly is immutable")

    # -- basic structure ------------------------------------------------

    @property
    def degree(self):
        """Degree of the polynomial; -inf for the zero polynomial."""
        return len(self.coeffs) - 1 if self.coeffs else float("-inf")

    def coeff(self, k: int):
        """Coefficient of var**k (0 beyond the stored degree)."""
        if 0 <= k < len(self.coeffs):
            return self.coeffs[k]
        return Fraction(0)

    def is_zero(self) -> bool:
        return not self.coeffs

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def constant(self):
        """The coefficient of var**0."""
        return self.coeff(0)

    def __eq__(self, other) -> bool:
        if isinstance(other, Poly):
            if other.var == self.var:
                if len(self.coeffs) != len(other.coeffs):
                    return False
                return all(a == b for a, b in zip(self.coeffs, other.coeffs))
            if _VAR_RANK[other.var] > _VAR_RANK[self.var]:
                return other == self
            # lower-ranked poly: only equal to a constant-or-zero poly
            return len(self.coeffs) <= 1 and self.constant() == other
        if _is_scalar(other):
            return len(self.coeffs) <= 1 and self.constant() == other
        return NotImplemented

    __hash__ = None

    def __repr__(self) -> str:
        from .textform import format_poly

        return f"Poly({self.var!r}, {format_poly(self)!r})"

    # -- ring operations -------------------------------------------------

    def __neg__(self) -> Poly:
        return Poly._make(self.var, [-c for c in self.coeffs])

    def __add__(self, other) -> Poly:
        if isinstance(other, Poly):
            if other.var == self.var:
                a, b = self.coeffs, other.coeffs
                if len(a) < len(b):
                    a, b = b, a
                out = list(a)
                for i, c in enumerate(b):
                    out[i] = out[i] + c
                return Poly._make(self.var, out)
            if _VAR_RANK[other.var] > _VAR_RANK[self.var]:
                return other + self
        elif not _is_scalar(other):
            return NotImplemented
        out = list(self.coeffs) or [Fraction(0)]
        out[0] = out[0] + other
        return Poly._make(self.var, out)

    __radd__ = __add__

    def __sub__(self, other) -> Poly:
        return self + (-other)

    def __rsub__(self, other) -> Poly:
        return (-self) + other

    def __mul__(self, other) -> Poly:
        if isinstance(other, Poly):
            if other.var == self.var:
                a, b = self.coeffs, other.coeffs
                if not a or not b:
                    return Poly._make(self.var, ())
                out = [Fraction(0)] * (len(a) + len(b) - 1)
                for i, ca in enumerate(a):
                    if not ca:
                        continue
                    for j, cb in enumerate(b):
                        if cb:
                            out[i + j] = out[i + j] + ca * cb
                return Poly._make(self.var, out)
            if _VAR_RANK[other.var] > _VAR_RANK[self.var]:
                return other * self
        elif not _is_scalar(other):
            return NotImplemented
        return Poly._make(self.var, [c * other for c in self.coeffs])

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> Poly:
        """Binary exponentiation; p**0 is 1 for every p, including 0."""
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError(f"exponent must be a non-negative integer, got {exponent!r}")
        result = Poly._make(self.var, (Fraction(1),))
        base = self
        e = exponent
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
        if len(self.coeffs) <= order:
            return Poly._make(self.var, ())
        out = [self.coeffs[i] * math.perm(i, order) for i in range(order, len(self.coeffs))]
        return Poly._make(self.var, out)

    def shift(self, offset) -> Poly:
        """p evaluated at (var + offset), expanded exactly.

        ``offset`` is a scalar; the expansion runs Horner-style so
        coefficients stay in the original domain.
        """
        if isinstance(offset, int):
            offset = Fraction(offset)
        if not isinstance(offset, Fraction):
            raise TypeError("shift offset must be rational")
        if not offset or not self.coeffs:
            return self
        acc: list = []
        for c in reversed(self.coeffs):
            nxt = [Fraction(0)] * (len(acc) + 1)
            for i, v in enumerate(acc):
                nxt[i + 1] = nxt[i + 1] + v
                nxt[i] = nxt[i] + v * offset
            nxt[0] = nxt[0] + c
            acc = nxt
        return Poly._make(self.var, acc)

    def delta(self) -> Poly:
        """Forward difference p(var + 1) - p(var)."""
        return self.shift(1) - self

    # -- evaluation and coefficient maps -----------------------------------

    def eval(self, value):
        """Horner evaluation at ``value`` (scalar or lower/equal-rank Poly)."""
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * value + c
        return acc

    def map_coeffs(self, fn) -> Poly:
        """New polynomial with ``fn`` applied to every coefficient."""
        return Poly(self.var, tuple(fn(c) for c in self.coeffs))


# Slot setters for Poly._make, which skips __init__ and __setattr__.
_new_poly = object.__new__
_set_var = Poly.var.__set__
_set_coeffs = Poly.coeffs.__set__
_set_view = Poly._view.__set__


def _int_view(p: Poly) -> tuple[int, list]:
    """``(den, rows)`` of ``p``, built on first use and then kept on ``p``.

    ``den`` is the least common denominator and ``rows[i]`` is
    ``coeffs[i] * den``: an int for a Fraction, a list of ints for an
    ``a``-polynomial.  The view is stored with one slot write once
    complete and never mutated.  Its rows are lists, not tuples: CPython
    keeps up to 2000 freed tuples of each small size for reuse, and
    tuple rows on transient sums raised the peak RSS of the benchmark's
    symbolic sweep by about 0.7 MB.
    """
    view = p._view
    if view is None:
        coeffs = p.coeffs
        den = math.lcm(
            *(math.lcm(*(f.denominator for f in c.coeffs)) if isinstance(c, Poly) else c.denominator for c in coeffs)
        )
        rows = [
            [f.numerator * (den // f.denominator) for f in c.coeffs]
            if isinstance(c, Poly)
            else c.numerator * (den // c.denominator)
            for c in coeffs
        ]
        view = (den, rows)
        _set_view(p, view)
    return view


def lincomb(var: str, pairs) -> Poly:
    """sum of c * P over ``pairs`` of a rational c and a Poly P in ``var``.

    Equal to the sum built with ``*`` and ``+``; a coefficient is an
    ``a``-polynomial wherever some P has one.  The work is integer: one
    lcm of the denominators, integer multiply-adds over the integer views,
    one gcd to reduce the sum, and one Fraction per nonzero output
    coefficient.  The result carries its integer view, so a sum fed into
    another sum is not flattened again.  A zero sum builds no Fraction.
    """
    terms = [(c, _int_view(p)) for c, p in pairs if c]
    den = math.lcm(*(c.denominator * d for c, (d, _) in terms))
    acc: list = []  # per coefficient: an int, or a list of ints for an a-polynomial
    for c, (d, rows) in terms:
        scale = c.numerator * (den // (c.denominator * d))
        if len(acc) < len(rows):
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
            if len(a) < len(row):
                a.extend([0] * (len(row) - len(a)))
            for j, v in enumerate(row):
                a[j] += scale * v
    while acc and not (any(acc[-1]) if type(acc[-1]) is list else acc[-1]):
        acc.pop()
    if not acc:
        return Poly._make(var, ())
    g = den
    for a in acc:
        g = math.gcd(g, *a) if type(a) is list else math.gcd(g, a)
    den //= g
    coeffs, rows = [], []
    for a in acc:
        if type(a) is list:
            while a and not a[-1]:
                a.pop()
            row = [v // g for v in a] if g > 1 else a
            coeffs.append(Poly._make("a", [Fraction(v, den) if v else _ZERO for v in row]))
        else:
            row = a // g
            coeffs.append(Fraction(row, den) if row else _ZERO)
        rows.append(row)
    out = Poly._make(var, coeffs)
    _set_view(out, (den, rows))
    return out


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


def alpha_substituted(p: Poly, value) -> Poly | Fraction:
    """Evaluate every ``a``-coefficient of an x-polynomial at ``value``.

    For an x-polynomial over QQ[a] this returns the specialized
    x-polynomial over QQ; for an a-polynomial it returns its value.
    """
    if p.var == "a":
        return p.eval(value)
    return p.map_coeffs(lambda c: c.eval(value) if isinstance(c, Poly) else c)


def alpha_shifted(p: Poly, offset: int) -> Poly:
    """Substitute a -> a + offset in every coefficient of an x-polynomial."""
    if p.var == "a":
        return p.shift(offset)
    return p.map_coeffs(lambda c: c.shift(offset) if isinstance(c, Poly) else c)
