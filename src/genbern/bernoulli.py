"""Classical and generalized Bernoulli numbers and polynomials, exactly.

The generalized family consists of the coefficients of
``(t/(e^t - 1))**a * e**(t*x)``: for each n the value ``B_n^(a)(x)`` is a
monic degree-n polynomial in x whose coefficients are polynomials in the
order parameter ``a``.  The order stays symbolic throughout; classical
values are the ``a = 1`` specialization.

Both tables are built over Python ints, with one Fraction per exported
value.  The classical numbers come from the tangent numbers T_k, which
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

Every derived polynomial is built once per process and memoized: the
classical B_n(x) per n, and in each :class:`GenBernTable` B_n^(a)(x) per
n, B_n^(a)(x + c) per (n, c), B_n^(a)(a + c - x) per (n, c) for odd n,
B_n^(alpha)(x) per (n, alpha), the value B_n^(alpha)(x) per
(n, alpha, x) and B_n^(a + offset)(x) per (n, offset).  The caches are
never evicted, so each grows with the distinct keys a process asks for;
the default sweep asks for 99 (n, c), 44 odd-n reflections, 27
(n, alpha) and 234 (n, alpha, x).  Each cached polynomial also keeps the
integer view that :func:`genbern.poly.lincomb` builds on its first use,
so the umbral map and the catalog's Bernoulli blocks flatten it once per
process.
"""

from __future__ import annotations

import math
import threading
from fractions import Fraction

from .poly import Poly, alpha_shifted, alpha_substituted, binomial, lincomb

_classical_lock = threading.Lock()
_classical: list[Fraction] = [Fraction(1)]
_classical_polys: dict[int, Poly] = {}


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


def classical_bernoulli_poly(n: int) -> Poly:
    """B_n(x) over QQ, from the binomial expansion of classical numbers;
    memoized per n."""
    hit = _classical_polys.get(n)
    if hit is None:
        nums = classical_bernoulli_numbers(n)
        built = Poly("x", tuple(binomial(n, j) * nums[n - j] for j in range(n + 1)))
        hit = _classical_polys.setdefault(n, built)
    return hit


class GenBernTable:
    """Grow-on-demand cache of symbolic generalized Bernoulli data.

    Entry n holds the number B_n^(a) (a polynomial in ``a``) and the
    polynomial B_n^(a)(x) (monic of degree n in ``x``).  One table serves
    every order because entries are symbolic.  Numbers are grown under a
    lock; each polynomial is built from them on first request, under the
    same lock, and memoized.

    The polynomials derived from B_n^(a)(x) are memoized too, each in its
    own dict: :meth:`poly_shifted` by ``(n, Fraction(c))``,
    :meth:`poly_reflected` by ``(n, Fraction(c))`` (odd n only; an even n
    returns the :meth:`poly_shifted` entry), :meth:`poly_at` by
    ``(n, Fraction(alpha))`` and :meth:`offset_poly` by ``(n, offset)``;
    the values of :meth:`value_at` by ``(n, Fraction(alpha), Fraction(x))``.
    They are built outside the lock and published whole, one dict
    operation each; a race at worst builds an entry twice and keeps one.
    Nothing is evicted, so each cache grows with the distinct keys the
    process asks for.

    An entry is published only once it is fully built and never changes
    after, so readers need no coordination.
    """

    def __init__(self):
        self._lock = threading.Lock()
        # c_n as (integer numerators in ascending powers of a, denominator)
        self._coeffs: list[tuple[list[int], int]] = [([1], 1)]
        self._numbers: list[Poly] = [Poly("a", (1,))]
        self._polys: dict[int, Poly] = {}
        self._shifted_cache: dict[tuple[int, Fraction], Poly] = {}
        self._reflected_cache: dict[tuple[int, Fraction], Poly] = {}
        self._alpha_cache: dict[tuple[int, Fraction], Poly] = {}
        self._value_cache: dict[tuple[int, Fraction, Fraction], Fraction] = {}
        self._offset_cache: dict[tuple[int, int], Poly] = {}

    def grow(self, n_max: int) -> None:
        """Make the numbers B_0^(a) .. B_n_max^(a) available."""
        if len(self._numbers) > n_max:
            return
        with self._lock:
            if len(self._numbers) > n_max:
                return
            series = [b / math.factorial(k) for k, b in enumerate(classical_bernoulli_numbers(n_max))]
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
                fact = math.factorial(n)
                self._numbers.append(Poly("a", [Fraction(v * fact, den) for v in acc]))

    def number(self, n: int) -> Poly:
        """B_n^(a) as a polynomial in a."""
        self.grow(n)
        return self._numbers[n]

    def poly(self, n: int) -> Poly:
        """B_n^(a)(x) as an element of QQ[a][x]."""
        hit = self._polys.get(n)
        if hit is None:
            self.grow(n)
            with self._lock:
                hit = self._polys.get(n)
                if hit is None:
                    numbers = self._numbers
                    hit = Poly("x", tuple(binomial(n, j) * numbers[n - j] for j in range(n + 1)))
                    self._polys[n] = hit
        return hit

    def numbers(self, n_max: int) -> list[Poly]:
        self.grow(n_max)
        return self._numbers[: n_max + 1]

    def number_at(self, n: int, alpha) -> Fraction:
        return self.number(n).eval(Fraction(alpha))

    def poly_at(self, n: int, alpha) -> Poly:
        """B_n^(alpha)(x) over QQ for a fixed rational order, cached per (n, alpha)."""
        alpha = Fraction(alpha)
        key = (n, alpha)
        hit = self._alpha_cache.get(key)
        if hit is None:
            hit = self._alpha_cache.setdefault(key, alpha_substituted(self.poly(n), alpha))
        return hit

    def value_at(self, n: int, alpha, x) -> Fraction:
        """B_n^(alpha)(x) fully evaluated at rational order and argument,
        cached per (n, alpha, x)."""
        alpha, x = Fraction(alpha), Fraction(x)
        key = (n, alpha, x)
        hit = self._value_cache.get(key)
        if hit is None:
            hit = self._value_cache.setdefault(key, self.poly_at(n, alpha).eval(x))
        return hit

    def poly_shifted(self, n: int, c) -> Poly:
        """B_n^(a)(x + c) via the binomial addition formula, cached per (n, c)."""
        c = Fraction(c)
        key = (n, c)
        hit = self._shifted_cache.get(key)
        if hit is None:
            out = Poly("x")
            for k in range(n + 1):
                out = out + self.poly(k) * (binomial(n, k) * c ** (n - k))
            hit = self._shifted_cache.setdefault(key, out)
        return hit

    def poly_reflected(self, n: int, c) -> Poly:
        """B_n^(a)(a + c - x) represented inside QQ[a][x].

        The reflection rule B_n^(a)(a - u) = (-1)^n B_n^(a)(u) with
        u = x - c turns the a-dependent argument into the plain shift
        (-1)^n * B_n^(a)(x - c).  Odd n is cached per (n, c).
        """
        c = Fraction(c)
        if n % 2 == 0:
            return self.poly_shifted(n, -c)
        key = (n, c)
        hit = self._reflected_cache.get(key)
        if hit is None:
            hit = self._reflected_cache.setdefault(key, -self.poly_shifted(n, -c))
        return hit

    def offset_poly(self, n: int, offset: int) -> Poly:
        """B_n^(a + offset)(x), cached per (n, offset)."""
        if offset == 0:
            return self.poly(n)
        key = (n, offset)
        hit = self._offset_cache.get(key)
        if hit is None:
            hit = alpha_shifted(self.poly(n), offset)
            self._offset_cache[key] = hit
        return hit


DEFAULT_TABLE = GenBernTable()


def gen_bernoulli_numbers_symbolic(n_max: int, table: GenBernTable | None = None) -> list[Poly]:
    """[B_0^(a) .. B_n_max^(a)] as exact polynomials in a."""
    return (table or DEFAULT_TABLE).numbers(n_max)


def gen_bernoulli_poly(n: int, table: GenBernTable | None = None) -> Poly:
    """B_n^(a)(x): monic of degree n in x, coefficients in QQ[a]."""
    return (table or DEFAULT_TABLE).poly(n)


def gen_bern_poly_shifted(n: int, c, table: GenBernTable | None = None) -> Poly:
    """B_n^(a)(x + c) for rational c."""
    return (table or DEFAULT_TABLE).poly_shifted(n, c)


def gen_bern_poly_reflected(n: int, c, table: GenBernTable | None = None) -> Poly:
    """B_n^(a)(a + c - x) as (-1)^n B_n^(a)(x - c)."""
    return (table or DEFAULT_TABLE).poly_reflected(n, c)


class OmegaOperator:
    """Linear operator on QQ[a][x] sending x^n to B_n^(a + offset)(x).

    ``offset`` selects the symbolic order: offset 0 applies the operator
    at order a, offset -1 at order a - 1, and so on.  Coefficients of the
    input (rational or in QQ[a]) multiply through linearly; rational input
    is summed over integers by :func:`genbern.poly.lincomb`.  The backing
    table grows automatically to cover the input degree.
    """

    def __init__(self, offset: int = 0, table: GenBernTable | None = None):
        self.offset = offset
        self.table = table or DEFAULT_TABLE

    def __call__(self, p) -> Poly:
        if not isinstance(p, Poly) or p.var == "a":
            return Poly("x", (p,))
        if not any(isinstance(c, Poly) for c in p.coeffs):
            return lincomb("x", [(c, self.table.offset_poly(k, self.offset)) for k, c in enumerate(p.coeffs) if c])
        out = Poly("x")
        for k, c in enumerate(p.coeffs):
            if not c:
                continue
            out = out + self.table.offset_poly(k, self.offset) * c
        return out

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
