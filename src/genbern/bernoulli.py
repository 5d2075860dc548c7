"""Classical and generalized Bernoulli numbers and polynomials, exactly.

The generalized family consists of the coefficients of
``(t/(e^t - 1))**a * e**(t*x)``: for each n the value ``B_n^(a)(x)`` is a
monic degree-n polynomial in x whose coefficients are polynomials in the
order parameter ``a``.  The order stays symbolic throughout; classical
values are the ``a = 1`` specialization.

Both tables are built over Python ints.  The classical numbers are
Fractions; the generalized numbers and polynomials are :class:`Poly`
values stored as integer numerators over one denominator, whose Fractions
are built only when their ``coeffs`` are read (the text form of an
export).  The classical numbers come from the tangent numbers T_k, which
the in-place integer recurrence of Brent and Harvey ("Fast computation of
Bernoulli, tangent and secant numbers", arXiv:1108.0286) produces without
any division; then B_{2k} = (-1)^(k-1) * 2k * T_k / (4^k * (4^k - 1)).

Symbolic computation uses the power-of-series recurrence: writing
``f(t) = t/(e^t - 1) = sum f_k t^k`` and ``f**a = sum c_n t^n``,

    c_0 = 1,    n*c_n = sum_{k=1..n} ((a+1)*k - n) * f_k * c_{n-k},

which keeps every c_n inside QQ[a] with no series division.  Each c_n is
stored as integer numerators over one positive denominator with no
common factor (the content/denominator layout of FLINT's ``fmpq_poly``),
so a step is one lcm over the terms, an integer convolution and one gcd.
The numbers are then ``n! * c_n`` and the polynomials follow from the
Appell binomial expansion.  Independent routes (a forward solve of the
binomial recurrence for the classical numbers, repeated truncated series
multiplication for integer orders) are provided as oracles.

Every derived entry lives in one :class:`GenBernTable` memo,
:meth:`GenBernTable.memo`, keyed by a tag ("poly", "shifted", "at", "row",
"offset", "classical_poly" or "classical_row") and integers, a
rational standing as its numerator and denominator so that a hit builds no
Fraction.  Every entry is built on integers from one source per number
family, the generalized numbers a table grows and its
:meth:`GenBernTable.classical_numbers`, so a defect planted at a source is
one consistent wrong table.  B_n^(a)(x + c) is one
:func:`genbern.poly.lincomb` call, the order maps are integer Horner passes
and Taylor shifts, and a reflection B_n^(a)(a - u) = (-1)^n B_n^(a)(u) is a
shift whose sign rides in the caller's weight.  Only the classical numbers
are shared by every table, as one list that grows by doubling.

A row holds B_0 .. B_n at one rational point as integer numerators over
one denominator, built by the Appell rule in one integer pass, so that a
scalar block of the identity catalog is one integer sum.  A point holds one
row, keyed ``("row", alpha, x)`` at a rational order
(:meth:`GenBernTable.value_row`) and ``("classical_row", x)`` for the
classical family (:meth:`GenBernTable.classical_row`), built ahead of the
request, to twice its length or three times the held length, within the
numbers the table has grown: the default sweep, whose requests at a point
grow as it goes, builds each of its 44 rows at most twice.

Nothing is evicted.  The default sweep asks for 133 of these keys: 9
poly, 72 shifted, 26 row, 8 offset and 18 classical-row keys; the symbolic
sweep asks for 98: 11 poly, 77 shifted and 10 offset keys.  A shift by 0
reads the "poly" entry itself.  A caller may keep what it derives from
these entries in the same memo, under a tag of its own.
"""

from __future__ import annotations

import math
import threading
from fractions import Fraction

from .poly import Poly, _horner, alpha_shifted, alpha_substituted, binomial, from_rows, lincomb, linear_image

_classical_lock = threading.Lock()
_classical: list[Fraction] = [Fraction(1)]


def _bernoulli_from_tangents(n_max: int) -> list[Fraction]:
    """[B_0 .. B_n_max] from the tangent numbers T_1 .. T_(n_max//2)."""
    m = n_max // 2
    t = [0] * (m + 1)  # t[k] = T_k
    if m:
        t[1] = 1
    for k in range(2, m + 1):
        t[k] = (k - 1) * t[k - 1]
    for k in range(2, m + 1):
        prev = t[k - 1]
        for i, j in enumerate(range(k, m + 1)):
            prev = i * prev + (i + 2) * t[j]
            t[j] = prev
    out = [Fraction(1), Fraction(-1, 2)][: n_max + 1]
    for n in range(2, n_max + 1):
        if n % 2:
            out.append(Fraction(0))
        else:
            k = n // 2
            four = 4**k
            out.append(Fraction((-1) ** (k - 1) * n * t[k], four * (four - 1)))
    return out


def classical_bernoulli_numbers(n_max: int) -> list[Fraction]:
    """[B_0 .. B_n_max], from a shared table that at least doubles when it grows."""
    global _classical
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    table = _classical
    if len(table) <= n_max:
        with _classical_lock:
            table = _classical
            if len(table) <= n_max:
                # rebinding publishes the finished list in one step
                table = _classical = _bernoulli_from_tangents(max(n_max, 2 * len(table)))
    return table[: n_max + 1]


def bernoulli_numbers_binomial_solve(n_max: int) -> list[Fraction]:
    """Independent route: forward solve of sum_k C(n,k) B_k = B_n + [n == 1]."""
    out: list[Fraction] = []
    for m in range(n_max + 1):
        acc = sum(binomial(m + 1, k) * out[k] for k in range(m))
        delta = 1 if m == 0 else 0
        out.append(Fraction(delta - acc, m + 1))
    return out


def _rational(v):
    """An int or a Fraction as given; anything else (a str, a float) as a Fraction."""
    return v if isinstance(v, (int, Fraction)) else Fraction(v)


def _row(values) -> tuple[tuple[int, ...], int]:
    """Rationals as integer numerators over their least common denominator."""
    den = math.lcm(*(v.denominator for v in values))
    return tuple(v.numerator * (den // v.denominator) for v in values), den


def _appell_row(numbers, x) -> tuple[tuple[int, ...], int]:
    """B_k(x) = sum_j C(k,j) B_j x^(k-j) for k = 0..n from the numbers B_0 ..
    B_n of one order, as a row: with x = p/q, one integer Horner pass in p
    per k over den q^n, then one gcd, so the denominator is the least one."""
    nums, den = _row(numbers)
    p, q, top = x.numerator, x.denominator, len(nums) - 1
    out = [_horner([binomial(k, i) * nums[k - i] for i in range(k + 1)], p, q) * q ** (top - k) for k in range(top + 1)]
    den *= q**top
    g = math.gcd(den, *out)
    return tuple(v // g for v in out), den // g


class GenBernTable:
    """Grow-on-demand cache of symbolic generalized Bernoulli data, and of
    the classical polynomials, values and rows derived from the numbers.

    Entry n holds the number B_n^(a) (a polynomial in ``a``) and the
    polynomial B_n^(a)(x) (monic of degree n in ``x``).  One table serves
    every order because entries are symbolic.  Numbers are grown under a
    lock, the only one the table takes; each polynomial is built from them
    on first request and memoized.  Both are integer numerators over one
    denominator (``Poly.den``, ``Poly.rows``), built without a Fraction.

    The polynomials and every entry derived from them live in one memo,
    :meth:`memo`, keyed by a tag and integers: :meth:`poly` by
    ``("poly", n)``, :meth:`poly_shifted` by ``("shifted", n, c)``,
    :meth:`poly_at` by ``("at", n, alpha)``, the rows of :meth:`value_row`
    (which :meth:`value_at` reads) by ``("row", alpha, x)`` and
    :meth:`offset_poly` by ``("offset", n, offset)``.  The classical
    family is held the same way, by ``("classical_poly", n)`` and
    ``("classical_row", x)``, and read, as :meth:`grow` reads it, from the
    one source :meth:`classical_numbers`.  A rational stands as
    ``numerator, denominator``: an int meets the equal
    Fraction, and a str or a float goes through ``Fraction`` first;
    :meth:`value_row_at` and :meth:`classical_row_at` take a row's key
    integers as they are, for callers that form their points on integers.
    Entries are built outside the lock and published whole, one dict
    operation each, and never change after, so readers need no
    coordination; a race at worst builds an entry twice and keeps one.  A
    point's row is the one entry that is replaced: a longer request
    publishes a row built ahead of it (:meth:`_row_entry`), and a shorter
    one reads a cut of it over the held row's denominator.  Nothing is
    evicted, so the memo grows with the distinct keys the process asks for.
    Beside it, ``sides`` is (point, sides) of the main identity's last
    point (:func:`genbern.identities.main_identity_residual`), set by one
    tuple assignment: a reader that finds its point there finds that
    point's sides.
    """

    def __init__(self):
        self._lock = threading.Lock()
        # c_n as (integer numerators in ascending powers of a, denominator)
        self._coeffs: list[tuple[list[int], int]] = [([1], 1)]
        self._numbers: list[Poly] = [Poly("a", (1,))]
        self._derived: dict[tuple, object] = {}
        self.sides: tuple | None = None

    def grow(self, n_max: int) -> None:
        """Make the numbers B_0^(a) .. B_n_max^(a) available."""
        if len(self._numbers) > n_max:
            return
        with self._lock:
            if len(self._numbers) > n_max:
                return
            series = [b / math.factorial(k) for k, b in enumerate(self.classical_numbers(n_max))]
            coeffs = self._coeffs
            while len(coeffs) <= n_max:
                n = len(coeffs)
                terms = [(k, series[k], coeffs[n - k]) for k in range(1, n + 1) if series[k]]
                den = math.lcm(*(f.denominator * d for _, f, (_, d) in terms))
                acc = [0] * (n + 1)
                for k, f, (nums, d) in terms:
                    # ((a+1)*k - n) * f_k * c_{n-k}  ==  (k*a + (k - n)) * ...
                    scale = den // (f.denominator * d) * f.numerator
                    for i, v in enumerate(nums):
                        v *= scale
                        acc[i] += (k - n) * v
                        acc[i + 1] += k * v
                den *= n
                g = math.gcd(den, *acc)
                acc = [v // g for v in acc]
                den //= g
                coeffs.append((acc, den))
                # B_n^(a) = n! c_n, with the common factor of n! and den cancelled
                fact = math.factorial(n)
                g = math.gcd(fact, den)
                self._numbers.append(from_rows("a", den // g, [v * (fact // g) for v in acc]))

    def number(self, n: int) -> Poly:
        """B_n^(a) as a polynomial in a."""
        self.grow(n)
        return self._numbers[n]

    def poly(self, n: int) -> Poly:
        """B_n^(a)(x) as an element of QQ[a][x]."""

        def build():
            numbers = self.numbers(n)[::-1]  # B_n^(a) .. B_0^(a)
            den = math.lcm(*(b.den for b in numbers))
            rows = []
            for j, b in enumerate(numbers):
                scale = binomial(n, j) * (den // b.den)
                rows.append([v * scale for v in b.rows])
            return from_rows("x", den, rows)

        return self.memo(("poly", n), build)

    def numbers(self, n_max: int) -> list[Poly]:
        self.grow(n_max)
        return self._numbers[: n_max + 1]

    def poly_at(self, n: int, alpha) -> Poly:
        """B_n^(alpha)(x) over QQ for a fixed rational order."""
        alpha = _rational(alpha)
        key = ("at", n, alpha.numerator, alpha.denominator)
        return self.memo(key, lambda: alpha_substituted(self.poly(n), Fraction(alpha)))

    def value_at(self, n: int, alpha, x) -> Fraction:
        """B_n^(alpha)(x) at rational order and argument, read from its :meth:`value_row`."""
        nums, den = self.value_row(n, alpha, x)
        return Fraction(nums[n], den)

    def value_row(self, n: int, alpha, x) -> tuple[tuple[int, ...], int]:
        """B_0^(alpha)(x) .. B_n^(alpha)(x) as integer numerators over one
        denominator, by the Appell rule from the numbers at order alpha."""
        alpha, x = _rational(alpha), _rational(x)
        return self.value_row_at(n, alpha.numerator, alpha.denominator, x.numerator, x.denominator)

    def value_row_at(self, n: int, a: int, b: int, p: int, q: int) -> tuple[tuple[int, ...], int]:
        """:meth:`value_row` at the order a/b and the point p/q, each given in
        lowest terms over a positive denominator, the row's key: a held row
        is read without building a Fraction."""

        def build(top):
            alpha = Fraction(a, b)
            return _appell_row([v.eval(alpha) for v in self.numbers(top)], Fraction(p, q))

        return self._row_entry(("row", a, b, p, q), n, build)

    def poly_shifted(self, n: int, c) -> Poly:
        """B_n^(a)(x + c) via the binomial addition formula; B_n^(a)(x) itself at c = 0."""
        c = _rational(c)
        p, q = c.numerator, c.denominator
        if not p:
            return self.poly(n)

        def build():
            # sum_k C(n,k) p^(n-k) q^k B_k^(a)(x) / q^n for c = p/q
            pairs = [(binomial(n, k) * p ** (n - k) * q**k, self.poly(k)) for k in range(n + 1)]
            return lincomb("x", pairs, q**n)

        return self.memo(("shifted", n, p, q), build)

    def classical_numbers(self, n_max: int) -> list[Fraction]:
        """[B_0 .. B_n_max], this table's one classical source: the shared
        list, unless a test replaces it on one instance."""
        return classical_bernoulli_numbers(n_max)

    def classical_poly(self, n: int) -> Poly:
        """B_n(x) over QQ, from the binomial expansion of the classical numbers."""

        def build():
            return Poly("x", tuple(binomial(n, j) * b for j, b in enumerate(self.classical_numbers(n)[::-1])))

        return self.memo(("classical_poly", n), build)

    def classical_row(self, n: int, x=0) -> tuple[tuple[int, ...], int]:
        """B_0(x) .. B_n(x) as integer numerators over one denominator, by the
        Appell rule from the numbers; at x = 0 the numbers B_0 .. B_n."""
        x = _rational(x)
        return self.classical_row_at(n, x.numerator, x.denominator)

    def classical_row_at(self, n: int, p: int, q: int) -> tuple[tuple[int, ...], int]:
        """:meth:`classical_row` at the point p/q, given in lowest terms over
        a positive denominator, the row's key."""
        key = ("classical_row", p, q)
        return self._row_entry(key, n, lambda top: _appell_row(self.classical_numbers(top), Fraction(p, q)))

    def _row_entry(self, key: tuple, n: int, build) -> tuple[tuple[int, ...], int]:
        """Entries 0..n of the row under ``key``.  A longer request replaces
        it by ``build(top)``, built ahead to top = 2(n + 1) or three times
        the held length, whichever is more, but not past the numbers this
        table has grown: a build reaches past them only to n, as asked,
        since :meth:`grow` is cubic in its size."""
        row = self._derived.get(key)
        if row is None or len(row[0]) <= n:
            ahead = max(2 * n + 2, 3 * len(row[0]) if row else 0)
            row = self._derived[key] = build(max(n, min(ahead, len(self._numbers) - 1)))
        nums, den = row
        return row if len(nums) == n + 1 else (nums[: n + 1], den)

    def offset_poly(self, n: int, offset: int) -> Poly:
        """B_n^(a + offset)(x)."""
        if offset == 0:
            return self.poly(n)
        return self.memo(("offset", n, offset), lambda: alpha_shifted(self.poly(n), offset))

    def memo(self, key: tuple, build):
        """The entry ``build()`` derives from this table, built once per key."""
        hit = self._derived.get(key)
        return self._derived.setdefault(key, build()) if hit is None else hit


DEFAULT_TABLE = GenBernTable()


def gen_bernoulli_numbers_symbolic(n_max: int) -> list[Poly]:
    """[B_0^(a) .. B_n_max^(a)] as exact polynomials in a."""
    return DEFAULT_TABLE.numbers(n_max)


class OmegaOperator:
    """Linear operator on QQ[a][x] sending x^n to B_n^(a + offset)(x).

    ``offset`` selects the symbolic order: offset 0 applies the operator
    at order a, offset -1 at order a - 1, and so on.  The input is an
    x-polynomial (anything else is a ``TypeError``); its coefficients
    (rational or in QQ[a]) multiply through linearly, in one integer sum
    (:func:`genbern.poly.linear_image`).  The backing table grows
    automatically to cover the input degree.
    """

    def __init__(self, offset: int = 0, table: GenBernTable = DEFAULT_TABLE):
        self.offset = offset
        self.table = table

    def __call__(self, p: Poly) -> Poly:
        if not isinstance(p, Poly) or p.var != "x":
            raise TypeError("Omega applies to an x-polynomial")
        return linear_image(p, lambda k: self.table.offset_poly(k, self.offset))

    def __repr__(self) -> str:
        return f"OmegaOperator(offset={self.offset})"


def _series_mul(a: list[Fraction], b: list[Fraction], n_max: int) -> list[Fraction]:
    out = [Fraction(0)] * (n_max + 1)
    for i, ca in enumerate(a):
        if not ca:
            continue
        for j in range(min(len(b), n_max + 1 - i)):
            if b[j]:
                out[i + j] += ca * b[j]
    return out


def integer_alpha_oracle(n_max: int, a: int) -> list[Fraction]:
    """[B_0^(a) .. B_n_max^(a)] for integer a >= 0, by a completely
    independent route: the truncated exponential generating series of the
    classical numbers raised to the a-th power by repeated multiplication.
    """
    if a < 0:
        raise ValueError("order must be >= 0")
    base = [b / math.factorial(k) for k, b in enumerate(classical_bernoulli_numbers(n_max))]
    acc = [Fraction(0)] * (n_max + 1)
    acc[0] = Fraction(1)
    for _ in range(a):
        acc = _series_mul(acc, base, n_max)
    return [acc[n] * math.factorial(n) for n in range(n_max + 1)]
