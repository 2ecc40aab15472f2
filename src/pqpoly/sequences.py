"""Ingredient sequences used by the polynomial families.

Stirling numbers of both kinds, their polynomial-weighted extensions, the
classical Euler polynomials, higher-order Bernoulli polynomials and
Frobenius-Euler polynomials, plus the ordinary coefficient providers for the
two-parameter polylogarithm Li_k and its factorial variant Lif_k.

Every Stirling-type value is extracted from its generating function, one
power chain per row: the first read of row n takes base^0..base^n at order
n from ``EgfSeries.powers``, one EGF product per step, and caches the row's
values.  The plain and weighted triangles each keep their own rows and
chains.  The triangular recurrences stay test-only oracles, independent
cross-checks of the extractions.
For nonpositive k the polylogarithm collapses to a rational function of the
series variable, exposed here as RationalFunction with exact cross
multiplication equality.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from itertools import islice

from .egf import EgfSeries
from .exact import XPoly, rising_factorial
from .pqcalc import PQParams, pq_integer

# ---------------------------------------------------------------------------
# generating function building blocks


def exp_minus_one_series(order: int) -> EgfSeries:
    """EGF of e^t - 1."""
    return EgfSeries([0] + [1] * order)


def neg_log1m_series(order: int) -> EgfSeries:
    """EGF of -ln(1 - t)."""
    return EgfSeries([0] + [math.factorial(j - 1) for j in range(1, order + 1)])


def exp_x_series(order: int) -> EgfSeries:
    """EGF of e^(xt) over the polynomial ring, coefficient j is x^j."""
    return EgfSeries([XPoly.monomial(j) for j in range(order + 1)])


# ---------------------------------------------------------------------------
# Stirling numbers, plain and weighted


def _plain_row(base: EgfSeries) -> tuple[int, ...]:
    """Coefficient N of base^m / m! for m = 0..N, as integers."""
    n = base.order
    row = []
    for m, power in enumerate(islice(base.powers(), n + 1)):
        value = power.coeff(n) / math.factorial(m)
        assert value.denominator == 1
        row.append(int(value))
    return tuple(row)


def _weighted_row(weight: EgfSeries, base: EgfSeries) -> tuple[XPoly, ...]:
    """Coefficient N of weight * base^m / m! for m = 0..N."""
    n = base.order
    return tuple(
        weight.mul_coeff(power, n) * Fraction(1, math.factorial(m))
        for m, power in enumerate(islice(base.powers(), n + 1))
    )


# Each triangle caches its own rows and builds its own power chain, so the
# plain and weighted triangles of one kind stay independent routes.


@lru_cache(maxsize=None)
def _stirling2_row(n: int) -> tuple[int, ...]:
    return _plain_row(exp_minus_one_series(n))


@lru_cache(maxsize=None)
def _stirling1_row(n: int) -> tuple[int, ...]:
    return _plain_row(neg_log1m_series(n))


@lru_cache(maxsize=None)
def _weighted_stirling2_row(n: int) -> tuple[XPoly, ...]:
    return _weighted_row(exp_x_series(n), exp_minus_one_series(n))


@lru_cache(maxsize=None)
def _weighted_stirling1_row(n: int) -> tuple[XPoly, ...]:
    lifted = EgfSeries([rising_factorial(j) for j in range(n + 1)])
    return _weighted_row(lifted, neg_log1m_series(n))


def _entry(row, n: int, m: int, zero):
    if n < 0 or m < 0:
        raise ValueError("indices must be nonnegative")
    return row(n)[m] if m <= n else zero


@lru_cache(maxsize=None)
def stirling2(n: int, m: int) -> int:
    """Partition-count Stirling number, from the EGF (e^t - 1)^m / m!.

    Row n is read off one power chain, built on its first read."""
    return _entry(_stirling2_row, n, m, 0)


@lru_cache(maxsize=None)
def stirling1_unsigned(n: int, m: int) -> int:
    """Cycle-count Stirling number, from the EGF (-ln(1-t))^m / m!.

    Row n is read off one power chain, built on its first read."""
    return _entry(_stirling1_row, n, m, 0)


@lru_cache(maxsize=None)
def weighted_stirling2(n: int, m: int) -> XPoly:
    """Shifted second-kind triangle from the EGF e^(xt) (e^t - 1)^m / m!.

    Row n is read off its own power chain, never the plain triangle's."""
    return _entry(_weighted_stirling2_row, n, m, XPoly.zero())


@lru_cache(maxsize=None)
def weighted_stirling1(n: int, m: int) -> XPoly:
    """Shifted first-kind triangle from the EGF (1-t)^(-x) (-ln(1-t))^m / m!.

    Row n is read off its own power chain, never the plain triangle's."""
    return _entry(_weighted_stirling1_row, n, m, XPoly.zero())


# ---------------------------------------------------------------------------
# classical polynomial families


@lru_cache(maxsize=None)
def euler_poly(n: int) -> XPoly:
    """Euler polynomial E_n(x) from the EGF 2 e^(xt) / (e^t + 1)."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    base = EgfSeries([2] + [1] * n).reciprocal().scale(Fraction(2))
    return base.mul_coeff(exp_x_series(n), n)


@lru_cache(maxsize=None)
def bernoulli_order(n: int, s: int) -> XPoly:
    """Order-s Bernoulli polynomial from the EGF (t/(e^t - 1))^s e^(xt)."""
    if n < 0 or s < 0:
        raise ValueError("indices must be nonnegative")
    # (e^t - 1)/t has EGF coefficients 1/(j+1)
    core = EgfSeries([Fraction(1, j + 1) for j in range(n + 1)]).reciprocal()
    return core.pow(s).mul_coeff(exp_x_series(n), n)


@lru_cache(maxsize=None)
def frobenius_euler(n: int, s: int, u: Fraction) -> XPoly:
    """Frobenius-Euler polynomial from the EGF ((1-u)/(e^t - u))^s e^(xt)."""
    if n < 0 or s < 0:
        raise ValueError("indices must be nonnegative")
    u = Fraction(u)
    if u == 1:
        raise ValueError("u = 1 is outside the Frobenius-Euler domain")
    # (e^t - u)/(1 - u) has constant term 1 and later EGF coefficients 1/(1-u)
    core = EgfSeries([Fraction(1)] + [1 / (1 - u)] * n).reciprocal()
    return core.pow(s).mul_coeff(exp_x_series(n), n)


# ---------------------------------------------------------------------------
# polylogarithm coefficient providers


def li_pq_ordinary_coeffs(k: int, params: PQParams, order: int) -> list[Fraction]:
    """Ordinary coefficients of Li_k: zero, then 1/[m]^k for m >= 1."""
    if order < 0:
        raise ValueError("order must be nonnegative")
    return [Fraction(0)] + [
        pq_integer(m, params) ** (-k) for m in range(1, order + 1)
    ]


def lif_pq_ordinary_coeffs(k: int, params: PQParams, order: int) -> list[Fraction]:
    """Ordinary coefficients of Lif_k: 1/(m! [m+1]^k) for m >= 0."""
    if order < 0:
        raise ValueError("order must be nonnegative")
    return [
        pq_integer(m + 1, params) ** (-k) / math.factorial(m)
        for m in range(order + 1)
    ]


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

    def taylor_coeffs(self, order: int) -> list[Fraction]:
        """Ordinary series coefficients at z = 0 through the given order."""
        if order < 0:
            raise ValueError("order must be nonnegative")
        num, den = self.numerator, self.denominator
        out: list[Fraction] = []
        for n in range(order + 1):
            acc = num.coeff(n)
            for i in range(1, min(n, den.degree) + 1):
                acc -= den.coeff(i) * out[n - i]
            out.append(acc)
        return out

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
    denominator = XPoly.one()
    for f in factors:
        denominator = denominator * f
    numerator = XPoly.zero()
    z = XPoly.x()
    for l in range(kk + 1):
        rest = XPoly.one()
        for j, f in enumerate(factors):
            if j != l:
                rest = rest * f
        weight = (
            Fraction((-1) ** (kk - l))
            * math.comb(kk, l)
            * p**l
            * q ** (kk - l)
        )
        numerator = numerator + weight * z * rest
    numerator = numerator * (Fraction(1) / (p - q) ** kk)
    return RationalFunction(numerator, denominator)
