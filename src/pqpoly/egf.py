"""Truncated exponential generating functions over an exact ring.

A series of order N stores coefficients a_0..a_N and stands for
sum a_n t^n / n!.  Coefficients are Fraction scalars (an int becomes one)
or XPoly values; mixed Fraction/XPoly series combine through the coercion
XPoly already provides.

Binary operations require equal orders; there is no implicit truncation.
``_binomial_conv`` takes one coefficient of a product in O(n) ring
products, for callers that read a single coefficient of an EGF product.  A
product term with a zero factor is skipped, but the sum keeps the ring of
its factors: it is an XPoly whenever any factor is one, skipped or not,
and then it is one ``XPoly.sum_products`` call; a scalar one is a
Fraction, summed as int numerators over one common denominator, as is each
scalar coefficient of ``compose``.  The generating-function columns in
``families`` do not sum term by term: each keeps its outer coefficients as
int numerators over one denominator and takes coefficient j as one int dot
product with row j.  ``pow(m)`` multiplies a series by itself m - 1 times.

One power recurrence, ``grow_power``, extends the coefficients of a^alpha,
each step one scalar sum over a common denominator, like a product's:
``reciprocal``, the 2/(e^t + 1) column and the classical families' column
per (s, u) grow by it.  One Appell expansion, ``appell``, reads coefficient
n of base(t) e^(+-xt) off the coefficients of base; a base of ints gives
the numerators of an XPoly over 1, and one of Fractions its coefficients.

Composition is computed one coefficient at a time from the ones before it,
the way relaxed power-series arithmetic does (van der Hoeven, "Relax, but
don't be too lazy", JSC 2002).  ``PowerRows`` builds the rows
[t^j/j!] inner^m, m <= j, of an inner series, row j from the rows before
it.  ``compose`` reads them; so do the generating-function columns, each
a ``Column`` that grows by the coefficients asked for and is never
rebuilt, through ``PowerRows.row``; and so do the four Stirling triangles,
each from its own table.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Callable, Iterable, Sequence

from .exact import XPoly, _from_ints


def _scalar_sum(terms) -> int | Fraction:
    """The sum over terms of the product of each term's factors, every one
    an exact int or Fraction, as int numerators over one common
    denominator: a Fraction whenever a factor is one, else an int."""
    num, den, is_fraction = 0, 1, False
    for term in terms:
        tn, td = 1, 1
        for f in term:
            if type(f) is int:
                tn *= f
            else:
                tn *= f.numerator
                td *= f.denominator
                is_fraction = True
        if not tn:
            continue
        if den % td:
            lcm = math.lcm(den, td)
            num *= lcm // den
            den = lcm
        num += tn * (den // td)
    return Fraction(num, den) if is_fraction else num


def _binomial_conv(a: Sequence, b: Sequence, n: int):
    """Coefficient n of the EGF product of coefficient lists a and b.

    A term with a zero factor is skipped.  If any factor read is an XPoly,
    skipped or not, the coefficient is an XPoly, as the unskipped sum would
    be, built by one ``XPoly.sum_products`` call; otherwise it is a Fraction,
    one int sum over a common denominator.
    """
    pairs = list(zip(a[: n + 1], b[n::-1]))
    terms = [(math.comb(n, i), x, y) for i, (x, y) in enumerate(pairs) if x and y]
    if any(isinstance(x, XPoly) or isinstance(y, XPoly) for x, y in pairs):
        return XPoly.sum_products(terms)
    return Fraction(_scalar_sum(terms))


def grow_power(coeff: Callable[[int], object], alpha: int, r: list, n: int):
    """Extend r, the coefficients of a^alpha, through index n, where the EGF a
    has coefficient i ``coeff(i)`` and a nonzero rational constant term, by
    J. C. P. Miller's recurrence (Knuth, TAOCP vol. 2, 4.7): r_0 = a_0^alpha,
    r_j = sum_(i=1..j) C(j, i) ((alpha+1) i - j) a_i r_(j-i) / (j a_0).
    Each sum is one ``_scalar_sum``, int numerators over one common
    denominator, then one Fraction division."""
    a0 = Fraction(coeff(0))
    if a0 == 0:
        raise ValueError("constant term is zero, no power recurrence")
    if not r:
        r.append(a0**alpha)
    for j in range(len(r), n + 1):
        acc = _scalar_sum(
            (math.comb(j, i) * ((alpha + 1) * i - j), coeff(i), r[j - i])
            for i in range(1, j + 1)
        )
        r.append(acc / (j * a0))


def appell(base: Sequence, n: int, sign: int = 1) -> XPoly:
    """Coefficient n of base(t) e^(sign x t): sign^j C(n, j) base[n-j] at x^j.

    An expansion of ints is taken as the numerators of an XPoly over 1, with
    no Fraction formed; any other keeps its coefficients as given."""
    coeffs = [sign**j * math.comb(n, j) * base[n - j] for j in range(n + 1)]
    if all(type(c) is int for c in coeffs):
        return _from_ints(coeffs, 1)
    return XPoly(coeffs)


class EgfSeries:
    """Immutable truncated EGF with exact coefficients."""

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs: Iterable):
        cs = [Fraction(c) if isinstance(c, int) else c for c in coeffs]
        if not cs:
            raise ValueError("a series needs at least the order-0 coefficient")
        self._coeffs = tuple(cs)

    @classmethod
    def constant(cls, value, order: int) -> "EgfSeries":
        zero = value * 0
        return cls([value] + [zero] * order)

    @property
    def order(self) -> int:
        return len(self._coeffs) - 1

    @property
    def coeffs(self) -> tuple:
        return self._coeffs

    def coeff(self, n: int):
        if not 0 <= n <= self.order:
            raise IndexError(f"coefficient {n} outside order {self.order}")
        return self._coeffs[n]

    def _check_order(self, other: "EgfSeries") -> None:
        if self.order != other.order:
            raise ValueError(
                f"order mismatch: {self.order} vs {other.order}"
            )

    def mul(self, other: "EgfSeries") -> "EgfSeries":
        """Product of EGFs, i.e. binomial convolution of coefficients."""
        self._check_order(other)
        a, b = self._coeffs, other._coeffs
        return EgfSeries([_binomial_conv(a, b, n) for n in range(len(a))])

    def pow(self, m: int) -> "EgfSeries":
        if m < 0:
            raise ValueError("exponent must be nonnegative")
        if m == 0:
            return EgfSeries.constant(Fraction(1), self.order)
        power = self
        for _ in range(m - 1):
            power = power.mul(self)
        return power

    def reciprocal(self) -> "EgfSeries":
        """Multiplicative inverse; needs a nonzero Fraction constant term."""
        r = []
        grow_power(self._coeffs.__getitem__, -1, r, self.order)
        return EgfSeries(r)

    def __eq__(self, other) -> bool:
        if isinstance(other, EgfSeries):
            return self._coeffs == other._coeffs
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._coeffs)

    def __repr__(self) -> str:
        return f"EgfSeries({list(self._coeffs)!r})"


class PowerRows:
    """Rows R_j = ([t^j/j!] inner^m for m = 0..j) of an inner series with
    zero constant term, whose coefficient j >= 1 is ``coeff(j)``.

    Entries with m > j are zero and not stored.  Row j is built once, from
    the rows before it, by the EGF product rule for inner^m = inner *
    inner^(m-1):  R_j[m] = sum over i = 1..j-m+1 of C(j, i) a_i R_(j-i)[m-1].
    """

    __slots__ = ("_coeff", "_rows")

    def __init__(self, coeff: Callable[[int], object]):
        self._coeff = coeff
        self._rows = [(1,)]

    def row(self, j: int) -> tuple:
        rows = self._rows
        for n in range(len(rows), j + 1):
            a = [None] + [
                math.comb(n, i) * self._coeff(i) for i in range(1, n + 1)
            ]
            row = [0, a[n]]
            for m in range(2, n + 1):
                acc = 0
                for i in range(1, n - m + 2):
                    acc = acc + a[i] * rows[n - i][m - 1]
                row.append(acc)
            rows.append(tuple(row))
        return rows[j]


class Column:
    """Coefficients 0, 1, 2, ... of one series, each computed once.

    ``grow(coeffs, n)`` appends coefficients len(coeffs)..n to the list,
    reading the ones already there; the column asks only for what a reader
    needs beyond them, so it is extended, never rebuilt.
    """

    __slots__ = ("_grow", "_coeffs")

    def __init__(self, grow: Callable[[list, int], None]):
        self._grow = grow
        self._coeffs: list = []

    def coeff(self, n: int):
        """Coefficient n of the column, without copying the ones before it."""
        if n < 0:
            raise IndexError(f"coefficient {n} is negative")
        if len(self._coeffs) <= n:
            self._grow(self._coeffs, n)
        return self._coeffs[n]

    def through(self, n: int) -> list:
        """The column's coefficient list, grown through index n; the list
        itself, which readers read and do not change."""
        self.coeff(n)
        return self._coeffs


def compose(outer_coeffs: Sequence, inner: EgfSeries) -> EgfSeries:
    """Substitute ``inner`` into the ordinary power series sum c_m z^m.

    ``outer_coeffs`` lists the ordinary (not EGF) coefficients c_0, c_1,
    ..., each an int, a Fraction or an XPoly, and must reach at least index
    inner.order; later entries cannot affect the truncation and are
    ignored.  The inner series must have zero constant term, otherwise the
    substitution would need infinitely many outer terms.  Coefficient j of
    the result is sum c_m R_j[m], read off the ``PowerRows`` of ``inner``.
    """
    n = inner.order
    a0 = inner.coeff(0)
    if not a0 == a0 * 0:
        raise ValueError("inner series must have zero constant term")
    outer = list(outer_coeffs)
    if len(outer) < n + 1:
        raise ValueError(
            f"need outer coefficients through index {n}, got {len(outer)}"
        )
    rows = PowerRows(inner.coeff)
    coeffs = []
    for j in range(n + 1):
        # one int sum over a common denominator unless an entry read is an
        # XPoly; a Fraction whenever an entry read is one
        head, row = outer[: j + 1], rows.row(j)
        if any(isinstance(v, XPoly) for v in (*head, *row)):
            coeffs.append(XPoly.sum_products(zip(head, row)))
        else:
            coeffs.append(_scalar_sum(zip(head, row)))
    if n:
        # the terms m >= 1 of coefficient 0 are multiples of a0 = 0, and
        # they put it in the inner series' ring
        coeffs[0] = coeffs[0] + a0
    return EgfSeries(coeffs)
