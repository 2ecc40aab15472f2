"""Ingredient sequences used by the polynomial families.

Stirling numbers of both kinds, their polynomial-weighted extensions, the
classical Euler polynomials, higher-order Bernoulli polynomials and
Frobenius-Euler polynomials, plus the ordinary coefficients of the
two-parameter polylogarithm Li_k and its factorial variant Lif_k.

Every Stirling-type value is extracted from its generating function,
[t^n/n!] w(t) base^m / m! with base = e^t - 1 or -ln(1 - t) and weight w = 1
for the plain triangles.  Each triangle reads its entries off its own
``PowerRows`` table of base^m, which builds row n once, from the rows before
it, on the first read that needs it.  ``stirling2_row`` and
``stirling1_unsigned_row`` read a whole plain row off the table as one int
list and cache nothing, for ``gen``, which prints each row once; the plain
entries ``stirling2`` and ``stirling1_unsigned`` index that row, and are
cached per (n, m).  A weighted entry is one int coefficient list read
off its table, with no kernel call: coefficient i of the second kind is
C(n, i) times entry m of row n - i, over m!, and of the first kind, where
w = (1 - t)^(-x) = e^(x base), entry i + m of row n, over i! m!.  No
triangle shares its table with another, so the plain and weighted
triangles of one kind stay independent routes.
The triangular recurrences stay test-only oracles, independent
cross-checks of the extractions.
The classical families read one column per (s, u), grown by ``egf``'s one
power recurrence, through its one Appell expansion; the Euler polynomials
are the Frobenius-Euler ones at s = 1, u = -1.
The Li_k and Lif_k coefficients are plain functions of (m, k, params);
each generating-function column in ``families`` keeps the ones it has
read, so no coefficient is cached where two columns could share it.
For nonpositive k the polylogarithm collapses to a rational function of the
series variable, exposed here as RationalFunction with exact cross
multiplication equality.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache, partial

from . import egf, pqcalc
from .egf import Column, PowerRows
from .exact import XPoly, _from_ints, check_scalar
from .pqcalc import PQParams

# ---------------------------------------------------------------------------
# Stirling numbers, plain and weighted


def _exp_minus_one(j: int) -> int:
    """EGF coefficient j >= 1 of e^t - 1."""
    return 1


def _neg_log1m(j: int) -> int:
    """EGF coefficient j >= 1 of -ln(1 - t)."""
    return math.factorial(j - 1)


@lru_cache(maxsize=None)
def _power_table(triangle: str, base) -> PowerRows:
    """The rows [t^j/j!] base^m of one triangle.  The key names the
    triangle, so the plain and weighted triangles of one kind build separate
    tables and stay independent routes."""
    return PowerRows(base)


def _check_indices(n: int, m: int) -> None:
    if n < 0 or m < 0:
        raise ValueError("indices must be nonnegative")


def _plain_row(triangle: str, base, n: int) -> list[int]:
    """Entries m = 0..n of row n, read off the triangle's table at once."""
    _check_indices(n, 0)
    out, fact = [], 1  # fact is m!
    for m, c in enumerate(_power_table(triangle, base).row(n)):
        out.append(c // fact)
        fact *= m + 1
    return out


@lru_cache(maxsize=None)
def stirling2(n: int, m: int) -> int:
    """Partition-count Stirling number, from the EGF (e^t - 1)^m / m!."""
    _check_indices(n, m)
    return stirling2_row(n)[m] if m <= n else 0


def stirling2_row(n: int) -> list[int]:
    """stirling2(n, m) for m = 0..n, uncached."""
    return _plain_row("stirling2", _exp_minus_one, n)


@lru_cache(maxsize=None)
def stirling1_unsigned(n: int, m: int) -> int:
    """Cycle-count Stirling number, from the EGF (-ln(1-t))^m / m!."""
    _check_indices(n, m)
    return stirling1_unsigned_row(n)[m] if m <= n else 0


def stirling1_unsigned_row(n: int) -> list[int]:
    """stirling1_unsigned(n, m) for m = 0..n, uncached."""
    return _plain_row("stirling1_unsigned", _neg_log1m, n)


@lru_cache(maxsize=None)
def weighted_stirling2(n: int, m: int) -> XPoly:
    """Shifted second-kind triangle from the EGF e^(xt) (e^t - 1)^m / m!.

    Its x^i coefficient is C(n, i) S2(n - i, m), an int read off row n - i
    of its own table, never the plain triangle's."""
    _check_indices(n, m)
    table = _power_table("weighted_stirling2", _exp_minus_one)
    fact = math.factorial(m)
    return _from_ints(
        [math.comb(n, i) * (table.row(n - i)[m] // fact)
         for i in range(n - m + 1)],
        1,
    )


@lru_cache(maxsize=None)
def weighted_stirling1(n: int, m: int) -> XPoly:
    """Shifted first-kind triangle from the EGF (1-t)^(-x) (-ln(1-t))^m / m!.

    With L = -ln(1-t), (1-t)^(-x) = e^(xL), so its x^i coefficient is
    [t^n/n!] L^(i+m) / (i! m!) = C(i+m, i) c(n, i+m), an int read off row n
    of its own table, never the plain triangle's (Carlitz, "Weighted
    Stirling numbers of the first and second kind", Fibonacci Quart. 1980).
    """
    _check_indices(n, m)
    row = _power_table("weighted_stirling1", _neg_log1m).row(n)
    fact = math.factorial(m)
    return _from_ints(
        [row[i + m] // (math.factorial(i) * fact) for i in range(n - m + 1)], 1
    )


# ---------------------------------------------------------------------------
# classical polynomial families


@lru_cache(maxsize=None)
def _bernoulli_column(s: int) -> Column:
    """EGF of (t/(e^t - 1))^s, the power -s of (e^t - 1)/t = sum t^j/(j+1)!"""
    return Column(partial(egf.grow_power, lambda j: Fraction(1, j + 1), -s))


@lru_cache(maxsize=None)
def _frobenius_column(s: int, u: Fraction) -> Column:
    """EGF of ((1-u)/(e^t - u))^s, the power -s of (e^t - u)/(1 - u)."""
    c = 1 / (1 - u)
    return Column(partial(egf.grow_power, lambda j: c if j else 1, -s))


def euler_poly(n: int) -> XPoly:
    """Euler polynomial E_n(x) from the EGF 2 e^(xt) / (e^t + 1)."""
    return frobenius_euler(n, 1, Fraction(-1))


@lru_cache(maxsize=None)
def bernoulli_order(n: int, s: int) -> XPoly:
    """Order-s Bernoulli polynomial from the EGF (t/(e^t - 1))^s e^(xt)."""
    _check_indices(n, s)
    return egf.appell(_bernoulli_column(s).through(n), n)


def frobenius_euler(n: int, s: int, u: Fraction) -> XPoly:
    """Frobenius-Euler polynomial from the EGF ((1-u)/(e^t - u))^s e^(xt)."""
    _check_indices(n, s)
    check_scalar(u, "u")
    u = Fraction(u)
    if u == 1:
        raise ValueError("u = 1 is outside the Frobenius-Euler domain")
    return egf.appell(_frobenius_column(s, u).through(n), n)


# ---------------------------------------------------------------------------
# polylogarithm coefficients


def _li_coeff(m: int, k: int, params: PQParams) -> Fraction:
    """The ordinary coefficient m of Li_k: zero at m = 0, else 1/[m]^k."""
    return pqcalc.pq_integer(m, params) ** (-k) if m else Fraction(0)


def _lif_coeff(m: int, k: int, params: PQParams) -> Fraction:
    """The ordinary coefficient m of Lif_k, 1/(m! [m+1]^k)."""
    return pqcalc.pq_integer(m + 1, params) ** (-k) / math.factorial(m)


# ---------------------------------------------------------------------------
# closed forms for nonpositive k


class RationalFunction:
    """Quotient of XPoly values in the series variable z.

    The denominator must have a nonzero constant term; both parts are scaled
    so the denominator's constant term is 1.  Equality is exact cross
    multiplication, so differently factored presentations of the same
    function compare equal.
    """

    __slots__ = ("numerator", "denominator")

    def __init__(self, numerator: XPoly, denominator: XPoly):
        d0 = denominator.coeff(0)
        if d0 == 0:
            raise ValueError("denominator must have a nonzero constant term")
        scale = Fraction(1) / d0
        self.numerator = numerator * scale
        self.denominator = denominator * scale

    def __eq__(self, other) -> bool:
        if isinstance(other, RationalFunction):
            return (
                self.numerator * other.denominator
                == other.numerator * self.denominator
            )
        return NotImplemented

    __hash__ = None

    def __repr__(self) -> str:
        return f"RationalFunction({self.numerator!r}, {self.denominator!r})"


def li_pq_closed_form(k: int, params: PQParams) -> RationalFunction:
    """Rational closed form of Li_k in z for k <= 0, distinct parameters.

    Expanding [m]^|k| by the binomial theorem turns the series into a sum
    of geometric series, one per l, with ratio p^l q^(|k|-l) z.  Summing
    those exactly gives a quotient whose denominator is the product of
    (1 - p^l q^(|k|-l) z) over l = 0..|k|.
    """
    if k > 0:
        raise ValueError("closed form exists only for k <= 0")
    if params.is_equal_limit:
        raise ValueError("closed form requires distinct parameters")
    kk = -k
    p, q = params.p, params.q
    factors = [XPoly((1, -(p**l * q ** (kk - l)))) for l in range(kk + 1)]
    scale = 1 / (p - q) ** kk
    numerator = XPoly.sum_products(
        ((-1) ** (kk - l), math.comb(kk, l), p**l, q ** (kk - l), scale,
         XPoly.x(), *factors[:l], *factors[l + 1:])
        for l in range(kk + 1)
    )
    denominator = XPoly.sum_products((factors,))
    return RationalFunction(numerator, denominator)
