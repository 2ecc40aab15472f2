"""The two-parameter poly-Euler, poly-Bernoulli and poly-Cauchy families.

Each family value is an XPoly in x, exact for any integer k and any valid
parameter pair.  poly_euler has a single generating-function construction.
poly_bernoulli has two independent routes and each poly-Cauchy kind has
three; route agreement is a checked property, never an assumption, so the
routes deliberately share no intermediate results beyond the ingredient
sequences they cite.

Routes (ROUTES_BY_FAMILY lists which family has which):
  gf                    coefficient extraction from the defining EGF
  stirling_closed_form  finite sums over weighted Stirling numbers
  integral_expansion    falling-factorial expansion under the iterated
                        deformed integral, poly-Cauchy only, needs k >= 1

The generating-function routes read coefficient n from one ``Column`` per
(k, params), extended one coefficient at a time and never rebuilt, so rows
0..N cost about N^2 ring products instead of a fresh order-n series per n.
Coefficient j of Li_k(inner) or Lif_k(inner) is sum c_m [t^j/j!] inner^m;
the rows [t^j/j!] inner^m of the three parameter-free inners 1 - e^(-t),
ln(1+t) and -ln(1+t) are built once per process, and the coefficients of
2/(e^t + 1) are a parameter-free column too, grown by ``egf``'s one power
recurrence.  None is shared with a Stirling triangle or a classical family.
Each Li_k or Lif_k column keeps the ordinary coefficients it has read,
one call per index to the coefficient function it was passed by
reference, read off ``sequences`` at each call; the Li_k columns of
poly-Euler and poly-Bernoulli read their own.  It keeps them the way
FLINT's ``fmpq_poly`` keeps coefficients: int numerators over one running
denominator D, all rescaled only when a new coefficient's denominator does
not divide D.  Coefficient j is then one int dot product of row j with
those numerators and one Fraction over D, reduced once (Henrici's rule:
Knuth, TAOCP vol. 2, 4.5.1), with no per-term rational sum.  A gf route
reads each column's coefficient list in place through index n
(``Column.through``) and copies none into an ``EgfSeries``; a poly-Cauchy
gf route takes coefficient n of its product with (1+t)^x by
``egf._binomial_conv`` straight off the falling-factorial store,
``exact.falling_factorials``.  ``euler_base_series`` and
``bernoulli_base_series`` hand the same columns out as series.  The
columns, the rows and each gf route's values are cached; the
weighted-Stirling and integral routes are recomputed on each call from
their cached ingredients.  Each of those routes is one
``XPoly.sum_products`` call.  A weighted-Stirling route weights term m by
[m+1]^(-k), cached per (m, k, params) in ``_stirling_weight``, which only
these three routes read.  An integral route sums s(n, m) times the Appell
polynomial A_m = ``egf.appell(a, m, sign=-1)`` over m, with a_j = I(j)^k
the integral of the j-th power of t_1...t_k.  A_m does not depend on n or
on the kind, so both kinds read it off one ``Column`` per (k, params),
which keeps the moments a_j it has computed as int numerators over one
running denominator D, as a polylog column keeps its coefficients, and
appends each A_m once: ``egf.appell`` of those ints, an XPoly over 1,
times 1/D in one kernel call.  No other Cauchy route reads ``egf.appell``.
``pqpoly.clear_caches`` empties them all.

``gen`` looks a family's gf route up by name in ``ROUTES_BY_FAMILY``, as
``compute`` does, and calls an ``lru_cache``d one through its uncached body,
so it reads each value once and keeps none: only the columns and rows a
route reads stay.  gen --family poly-cauchy-1 --k 30 --nmax 100 peaks at
35 MB RSS as JSON and 33 MB as CSV, where keeping its rows took 92 and 90 MB
(2 cores, CPython 3.11).
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache, partial
from operator import mul

from . import egf, pqcalc, sequences
from .egf import Column, EgfSeries, PowerRows
from .exact import XPoly, falling_factorials
from .pqcalc import PQParams, pq_integral_01_monomial

ROUTE_GF = "gf"
ROUTE_STIRLING = "stirling_closed_form"
ROUTE_INTEGRAL = "integral_expansion"

FAMILY_POLY_EULER = "poly_euler"
FAMILY_POLY_BERNOULLI = "poly_bernoulli"
FAMILY_POLY_CAUCHY_1 = "poly_cauchy_1"
FAMILY_POLY_CAUCHY_2 = "poly_cauchy_2"

# family -> {route -> name of the module-level function computing it}.
# Names, not function objects: compute() and the CLI's gen look each one
# up when they are called, so a rebinding of the module attribute (a
# wrapper, a seeded defect) reaches every caller, the CLI and the identity
# suite alike.
ROUTES_BY_FAMILY = {
    FAMILY_POLY_EULER: {ROUTE_GF: "poly_euler"},
    FAMILY_POLY_BERNOULLI: {
        ROUTE_GF: "bernoulli_via_gf",
        ROUTE_STIRLING: "bernoulli_via_weighted_stirling",
    },
    FAMILY_POLY_CAUCHY_1: {
        ROUTE_GF: "cauchy1_via_gf",
        ROUTE_STIRLING: "cauchy1_via_weighted_stirling",
        ROUTE_INTEGRAL: "cauchy1_via_integral_expansion",
    },
    FAMILY_POLY_CAUCHY_2: {
        ROUTE_GF: "cauchy2_via_gf",
        ROUTE_STIRLING: "cauchy2_via_weighted_stirling",
        ROUTE_INTEGRAL: "cauchy2_via_integral_expansion",
    },
}


def _check_n(n: int) -> None:
    if n < 0:
        raise ValueError("n must be nonnegative")


def routes(family: str, k: int) -> tuple[str, ...]:
    """The routes that compute `family` at weight k, in table order."""
    if family not in ROUTES_BY_FAMILY:
        raise ValueError(f"unknown family {family!r}")
    return tuple(
        route
        for route in ROUTES_BY_FAMILY[family]
        if route != ROUTE_INTEGRAL or k >= 1
    )


def compute(
    family: str, n: int, k: int, params: PQParams, route: str = ROUTE_GF
) -> XPoly:
    """Evaluate one family at (n, k, params) through the named route."""
    if n < 0:  # inline: compute runs once per value read
        raise ValueError("n must be nonnegative")
    name = ROUTES_BY_FAMILY.get(family, {}).get(route)
    if name is None:
        raise ValueError(f"{family} has no route {route!r}")
    return globals()[name](n, k, params)


# the entry points: poly_x(n, k, params, route=ROUTE_GF) is compute of family x
poly_bernoulli = partial(compute, FAMILY_POLY_BERNOULLI)
poly_cauchy_1 = partial(compute, FAMILY_POLY_CAUCHY_1)
poly_cauchy_2 = partial(compute, FAMILY_POLY_CAUCHY_2)


# ---------------------------------------------------------------------------
# generating-function columns

# EGF coefficient j >= 1 of each parameter-free inner series
def _one_minus_exp_neg(j: int) -> int:
    return -((-1) ** j)


def _log1p(j: int) -> int:
    return (-1) ** (j - 1) * math.factorial(j - 1)


def _neg_log1p(j: int) -> int:
    return -_log1p(j)


@lru_cache(maxsize=None)
def _inner_rows(inner) -> PowerRows:
    """The rows [t^j/j!] inner^m of one inner, shared by every (k, params)."""
    return PowerRows(inner)


def _push_over(nums: list, den: int, c) -> int:
    """Append the rational c to nums, int numerators over den, first
    rescaling every one of them to lcm(den, c's denominator) when that does
    not divide den; returns the denominator nums are now over."""
    d = c.denominator
    if den % d:
        lcm = math.lcm(den, d)
        up = lcm // den
        nums[:] = [a * up for a in nums]
        den = lcm
    nums.append(c.numerator * (den // d))
    return den


@lru_cache(maxsize=None)
def _polylog_column(coeff, k: int, params: PQParams, inner, shift: int) -> Column:
    """EGF coefficients of sum_m c_(m + shift) inner^m, with c_m the ordinary
    coefficient ``coeff(m, k, params)``.

    Callers pass ``coeff`` by reference, read off ``sequences`` at the
    call, so a rebound one keys a column of its own.  The column reads
    each c_(m + shift) once and keeps it as an int numerator over one
    running denominator D; coefficient j is one int dot product of those
    numerators with row j of the inner's powers, made one reduced Fraction
    over D.
    """
    rows, nums, den = _inner_rows(inner), [], 1

    def grow(coeffs: list, n: int) -> None:
        nonlocal den
        for j in range(len(coeffs), n + 1):
            den = _push_over(nums, den, coeff(j + shift, k, params))
            coeffs.append(Fraction(sum(map(mul, rows.row(j), nums)), den))

    return Column(grow)


@lru_cache(maxsize=None)
def _two_over_exp_plus_one() -> Column:
    """EGF of 2/(e^t + 1), grown by ``egf.grow_power`` as the power -1 of
    (e^t + 1)/2, whose coefficients are 1, 1/2, 1/2, ..."""
    half = Fraction(1, 2)
    return Column(partial(egf.grow_power, lambda j: half if j else 1, -1))


@lru_cache(maxsize=None)
def _euler_column(k: int, params: PQParams) -> Column:
    """EGF coefficients of 2 Li_k(1 - e^(-t)) / (1 + e^t)."""
    li = _polylog_column(sequences._li_coeff, k, params, _one_minus_exp_neg, 0)

    def grow(coeffs: list, n: int) -> None:
        li_part = li.through(n)
        halves = _two_over_exp_plus_one().through(n)
        for j in range(len(coeffs), n + 1):
            coeffs.append(egf._binomial_conv(li_part, halves, j))

    return Column(grow)


# ---------------------------------------------------------------------------
# poly-Euler


def euler_base_series(k: int, params: PQParams, order: int) -> EgfSeries:
    """EGF of 2 Li_k(1 - e^(-t)) / (1 + e^t), the x = 0 column."""
    _check_n(order)
    return EgfSeries(_euler_column(k, params).through(order)[: order + 1])


@lru_cache(maxsize=None)
def poly_euler(n: int, k: int, params: PQParams) -> XPoly:
    """Poly-Euler polynomial, Appell over the base series with e^(xt)."""
    _check_n(n)
    return egf.appell(_euler_column(k, params).through(n), n)


def poly_euler_number(n: int, k: int, params: PQParams) -> Fraction:
    """The constant term, i.e. the poly-Euler number."""
    _check_n(n)
    return _euler_column(k, params).coeff(n)


# ---------------------------------------------------------------------------
# poly-Bernoulli


def _bernoulli_base_column(k: int, params: PQParams) -> Column:
    """EGF coefficients of Li_k(1 - e^(-t)) / (1 - e^(-t)).

    The quotient has a removable singularity; dividing the ordinary series
    of Li_k by its argument is an index shift of the coefficients, so the
    shifted composition is already the full quotient.
    """
    li = sequences._li_coeff
    return _polylog_column(li, k, params, _one_minus_exp_neg, 1)


def bernoulli_base_series(k: int, params: PQParams, order: int) -> EgfSeries:
    """EGF of Li_k(1 - e^(-t)) / (1 - e^(-t)), the x = 0 column."""
    _check_n(order)
    col = _bernoulli_base_column(k, params)
    return EgfSeries(col.through(order)[: order + 1])


@lru_cache(maxsize=None)
def bernoulli_via_gf(n: int, k: int, params: PQParams) -> XPoly:
    _check_n(n)
    # e^(-xt) factor: coefficient of x^j carries (-1)^j
    return egf.appell(_bernoulli_base_column(k, params).through(n), n, sign=-1)


@lru_cache(maxsize=None)
def _stirling_weight(m: int, k: int, params: PQParams) -> Fraction:
    """[m+1]^(-k), the weight of term m of the three weighted-Stirling
    routes; the gf columns and the identities compute their own powers."""
    return pqcalc.pq_integer(m + 1, params) ** (-k)


def bernoulli_via_weighted_stirling(n: int, k: int, params: PQParams) -> XPoly:
    _check_n(n)
    return XPoly.sum_products(
        ((-1) ** (n + m) * math.factorial(m), _stirling_weight(m, k, params),
         sequences.weighted_stirling2(n, m))
        for m in range(n + 1)
    )


# ---------------------------------------------------------------------------
# poly-Cauchy, first kind


def _check_integral_weight(k: int) -> None:
    if k < 1:
        raise ValueError("integral_expansion route requires k >= 1")


@lru_cache(maxsize=None)
def _integral_appell_column(k: int, params: PQParams, integral, appell) -> Column:
    """Coefficient m is the Appell polynomial sum_l C(m, l) a_(m-l) (-x)^l,
    the deformed integral of (t_1...t_k - x)^m, with a_j = I(j)^k the k-fold
    integral of (t_1...t_k)^j over the unit cube.

    Callers pass ``integral`` and ``appell`` read off ``families`` and
    ``egf`` at the call, so a rebound one keys a column of its own.  The
    column computes each moment a_j once and keeps it as an int numerator
    over one running denominator D; A_m is ``appell`` of those numerators,
    scaled by 1/D once.
    """
    nums, den = [], 1

    def grow(coeffs: list, n: int) -> None:
        nonlocal den
        for m in range(len(coeffs), n + 1):
            den = _push_over(nums, den, integral(m, params) ** k)
            scaled = ((Fraction(1, den), appell(nums, m, sign=-1)),)
            coeffs.append(XPoly.sum_products(scaled))

    return Column(grow)


@lru_cache(maxsize=None)
def cauchy1_via_gf(n: int, k: int, params: PQParams) -> XPoly:
    """Coefficient n of Lif_k(ln(1+t)) (1+t)^(-x)."""
    _check_n(n)
    lif = sequences._lif_coeff
    lif_part = _polylog_column(lif, k, params, _log1p, 0).through(n)
    # (1+t)^(-x) is (1+t)^x at -x: the product is taken at x and
    # substituted once
    return egf._binomial_conv(lif_part, falling_factorials(n), n).affine(-1, 0)


def cauchy1_via_weighted_stirling(n: int, k: int, params: PQParams) -> XPoly:
    _check_n(n)
    return XPoly.sum_products(
        ((-1) ** (n - m), _stirling_weight(m, k, params),
         sequences.weighted_stirling1(n, m))
        for m in range(n + 1)
    )


def cauchy1_via_integral_expansion(n: int, k: int, params: PQParams) -> XPoly:
    """Expand (t_1...t_k - x)_n and integrate each monomial exactly.

    The expansion is sum_m (-1)^(n-m) s(n, m) (t_1...t_k - x)^m, and the
    integral of (t_1...t_k)^j is a_j = I(j)^k, so term m integrates to the
    Appell polynomial sum_l C(m, l) a_(m-l) (-x)^l.
    """
    _check_n(n)
    _check_integral_weight(k)
    appells = _integral_appell_column(k, params, pq_integral_01_monomial, egf.appell)
    return XPoly.sum_products(
        ((-1) ** (n - m), sequences.stirling1_unsigned(n, m),
         appells.coeff(m))
        for m in range(n + 1)
    )


# ---------------------------------------------------------------------------
# poly-Cauchy, second kind


@lru_cache(maxsize=None)
def cauchy2_via_gf(n: int, k: int, params: PQParams) -> XPoly:
    """Coefficient n of (1+t)^x Lif_k(-ln(1+t))."""
    _check_n(n)
    lif = sequences._lif_coeff
    lif_part = _polylog_column(lif, k, params, _neg_log1p, 0).through(n)
    return egf._binomial_conv(lif_part, falling_factorials(n), n)


def cauchy2_via_weighted_stirling(n: int, k: int, params: PQParams) -> XPoly:
    _check_n(n)
    # the sum is taken at x and substituted x -> -x once
    return XPoly.sum_products(
        ((-1) ** n, _stirling_weight(m, k, params),
         sequences.weighted_stirling1(n, m))
        for m in range(n + 1)
    ).affine(-1, 0)


def cauchy2_via_integral_expansion(n: int, k: int, params: PQParams) -> XPoly:
    """Expand (x - t_1...t_k)_n and integrate each monomial exactly.

    (x - t)_n = (-1)^n (t - x)^(n), and the rising factorial expands as
    sum_m s(n, m) (t - x)^m; each power integrates as in the first kind.
    """
    _check_n(n)
    _check_integral_weight(k)
    appells = _integral_appell_column(k, params, pq_integral_01_monomial, egf.appell)
    return XPoly.sum_products(
        ((-1) ** n, sequences.stirling1_unsigned(n, m),
         appells.coeff(m))
        for m in range(n + 1)
    )
