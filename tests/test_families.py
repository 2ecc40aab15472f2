import math
from fractions import Fraction

import pytest

from pqpoly import clear_caches, egf, families, pqcalc, sequences
from pqpoly.exact import XPoly
from pqpoly.families import (
    FAMILY_POLY_BERNOULLI,
    FAMILY_POLY_CAUCHY_1,
    FAMILY_POLY_CAUCHY_2,
    FAMILY_POLY_EULER,
    ROUTE_GF,
    ROUTE_INTEGRAL,
    ROUTE_STIRLING,
    ROUTES_BY_FAMILY,
    compute,
    poly_bernoulli,
    poly_cauchy_1,
    poly_cauchy_2,
    poly_euler,
    poly_euler_number,
)
from pqpoly.identities import DEFAULT_PARAM_POINTS
from pqpoly.pqcalc import PQParams, pq_integer
from pqpoly.sequences import euler_poly, weighted_stirling2

from . import oracles

BASE = PQParams(Fraction(1, 2), Fraction(1, 3))
CLASSICAL = PQParams(Fraction(1), Fraction(1))
POINTS = [
    BASE,
    PQParams(Fraction(3, 4), Fraction(1, 5)),
    PQParams(Fraction(1), Fraction(2, 7)),
    CLASSICAL,
    PQParams(Fraction(2, 3), Fraction(2, 3)),
]
K_RANGE = range(-2, 4)


# ---------------------------------------------------------------------------
# small frozen values


def test_poly_euler_small_values():
    x = XPoly.x()
    assert poly_euler(0, 2, BASE) == XPoly.zero()
    assert poly_euler(1, 2, BASE) == XPoly.one()
    assert poly_euler(2, 2, BASE) == 2 * x + Fraction(22, 25)
    assert poly_euler_number(2, 2, BASE) == Fraction(22, 25)


def test_poly_bernoulli_small_values():
    x = XPoly.x()
    want = Fraction(36, 25) - x
    assert poly_bernoulli(1, 2, BASE, ROUTE_GF) == want
    assert poly_bernoulli(1, 2, BASE, ROUTE_STIRLING) == want
    assert poly_bernoulli(0, 2, BASE) == XPoly.one()


def test_poly_cauchy_small_values():
    x = XPoly.x()
    want1 = Fraction(36, 25) - x
    want2 = x - Fraction(36, 25)
    for route in (ROUTE_GF, ROUTE_STIRLING, ROUTE_INTEGRAL):
        assert poly_cauchy_1(1, 2, BASE, route) == want1
        assert poly_cauchy_2(1, 2, BASE, route) == want2
    assert poly_cauchy_1(0, 2, BASE) == XPoly.one()
    assert poly_cauchy_2(0, 2, BASE) == XPoly.one()


# ---------------------------------------------------------------------------
# degree and leading-coefficient structure


@pytest.mark.parametrize("params", POINTS)
def test_degrees_and_leading_coefficients(params):
    for k in K_RANGE:
        for n in range(1, 8):
            e = poly_euler(n, k, params)
            assert e.degree <= n - 1
            b = poly_bernoulli(n, k, params)
            assert b.degree == n
            assert b.coeff(n) == (-1) ** n
            c1 = poly_cauchy_1(n, k, params)
            assert c1.degree == n
            assert c1.coeff(n) == (-1) ** n
            c2 = poly_cauchy_2(n, k, params)
            assert c2.degree == n
            assert c2.coeff(n) == 1


# ---------------------------------------------------------------------------
# derivative structure shared by the exponential families


@pytest.mark.parametrize("params", POINTS)
def test_euler_family_derivative_lowers_degree(params):
    for k in K_RANGE:
        for n in range(1, 9):
            got = oracles.derivative(poly_euler(n, k, params))
            assert got == n * poly_euler(n - 1, k, params)


@pytest.mark.parametrize("params", POINTS)
def test_bernoulli_family_derivative_lowers_degree(params):
    for k in K_RANGE:
        for n in range(1, 9):
            got = oracles.derivative(poly_bernoulli(n, k, params))
            assert got == -n * poly_bernoulli(n - 1, k, params)


# ---------------------------------------------------------------------------
# classical anchors at p = q = 1


def test_weight_one_euler_reduces_to_scaled_classical():
    for n in range(1, 11):
        assert poly_euler(n, 1, CLASSICAL) == n * euler_poly(n - 1)
    assert poly_euler(0, 1, CLASSICAL) == XPoly.zero()


def test_weight_one_bernoulli_numbers_at_classical_point():
    numbers = oracles.bernoulli_numbers(10)
    for n in range(11):
        got = poly_bernoulli(n, 1, CLASSICAL)(Fraction(0))
        assert got == (-1) ** n * numbers[n]


def test_weight_one_cauchy_numbers_at_classical_point():
    numbers = oracles.cauchy_numbers(10)
    for n in range(11):
        got = poly_cauchy_1(n, 1, CLASSICAL)(Fraction(0))
        assert got == numbers[n]


def test_alternating_counts_from_euler_polynomials():
    # |2^(2m) E_2m(1/2)| counts the strictly alternating permutations
    for m in range(5):
        value = abs(2 ** (2 * m) * euler_poly(2 * m)(Fraction(1, 2)))
        assert value == oracles.alternating_count(2 * m)


def test_negative_k_poly_bernoulli_numbers_at_classical_point():
    # Arakawa and Kaneko's formula, and Kaneko's duality B_n^(-k) = B_k^(-n)
    # ("Poly-Bernoulli numbers", J. Theor. Nombres Bordeaux 9, 1997); neither
    # reads a Li coefficient
    for route in (ROUTE_GF, ROUTE_STIRLING):
        values = {
            (n, k): poly_bernoulli(n, -k, CLASSICAL, route)(0)
            for n in range(9)
            for k in range(9)
        }
        for (n, k), value in values.items():
            assert value == oracles.poly_bernoulli_negative_k(n, k), (route, n, k)
            assert value == values[k, n], (route, n, k)


# ---------------------------------------------------------------------------
# one-parameter reduction at p = 1


def _q_integer(n: int, q: Fraction) -> Fraction:
    return sum((q**i for i in range(n)), Fraction(0))


def test_reduction_at_p_one_uses_single_parameter_integers():
    params = PQParams(Fraction(1), Fraction(2, 7))
    q = params.q
    for n in range(1, 8):
        assert pq_integer(n, params) == _q_integer(n, q)
    # the Bernoulli closed form then only sees q-integers
    for n in range(5):
        want = XPoly.zero()
        for m in range(n + 1):
            term = (
                Fraction((-1) ** (m + n) * math.factorial(m))
                * _q_integer(m + 1, q) ** (-2)
                * weighted_stirling2(n, m)
            )
            want = want + term
        assert poly_bernoulli(n, 2, params) == want


# ---------------------------------------------------------------------------
# route agreement on a small window (the acceptance suite widens this)


@pytest.mark.parametrize("params", [BASE, CLASSICAL])
def test_routes_agree_small_window(params):
    for k in K_RANGE:
        for n in range(7):
            assert poly_bernoulli(n, k, params, ROUTE_GF) == poly_bernoulli(
                n, k, params, ROUTE_STIRLING
            )
            assert poly_cauchy_1(n, k, params, ROUTE_GF) == poly_cauchy_1(
                n, k, params, ROUTE_STIRLING
            )
            assert poly_cauchy_2(n, k, params, ROUTE_GF) == poly_cauchy_2(
                n, k, params, ROUTE_STIRLING
            )
            if k >= 1:
                assert poly_cauchy_1(n, k, params, ROUTE_GF) == poly_cauchy_1(
                    n, k, params, ROUTE_INTEGRAL
                )
                assert poly_cauchy_2(n, k, params, ROUTE_GF) == poly_cauchy_2(
                    n, k, params, ROUTE_INTEGRAL
                )


def test_integral_route_requires_positive_weight():
    with pytest.raises(ValueError):
        poly_cauchy_1(3, 0, BASE, ROUTE_INTEGRAL)
    with pytest.raises(ValueError):
        poly_cauchy_2(3, -1, BASE, ROUTE_INTEGRAL)


@pytest.mark.parametrize("params", DEFAULT_PARAM_POINTS)
def test_integral_routes_match_the_double_loop_oracle(params):
    # the integral expansion as one Fraction sum per power of x, which reads
    # neither the kernel nor egf.appell
    for k in (1, 2, 3):
        for n in range(21):
            want1 = oracles.cauchy1_integral_oracle(n, k, params.p, params.q)
            want2 = oracles.cauchy2_integral_oracle(n, k, params.p, params.q)
            got1 = poly_cauchy_1(n, k, params, ROUTE_INTEGRAL)
            got2 = poly_cauchy_2(n, k, params, ROUTE_INTEGRAL)
            assert got1.coeffs == tuple(want1), (n, k)
            assert got2.coeffs == tuple(want2), (n, k)


def _equal_params_anchor_misses() -> list[tuple]:
    """Cells (family, n, k, p) at p = q where poly_bernoulli or poly_euler
    differs from its oracle over the rescaled classical polylogarithm."""
    cases = (
        (FAMILY_POLY_BERNOULLI, poly_bernoulli, oracles.poly_bernoulli_equal_params),
        (FAMILY_POLY_EULER, poly_euler, oracles.poly_euler_equal_params),
    )
    return [
        (family, n, k, p)
        for p in (Fraction(2, 3), Fraction(1, 5))
        for k in (-2, 1, 3)
        for n in range(9)
        for family, value, oracle in cases
        if value(n, k, PQParams(p, p)) != oracle(n, k, p)
    ]


def test_equal_parameters_anchor_against_rescaled_polylog():
    # Li_k^(p,p)(z) = p^k Li_k(z / p^k); the oracle never reads pqcalc
    assert _equal_params_anchor_misses() == []


def test_equal_parameters_anchor_sees_a_wrong_deformed_integer(monkeypatch):
    # [3] + 1 at p = q fails no identity check, since the identities hold
    # for any weight sequence; the anchor must fail
    integer = pqcalc.pq_integer

    def skewed(n: int, params: PQParams) -> Fraction:
        value = integer(n, params)
        return value + 1 if n == 3 and params.is_equal_limit else value

    clear_caches()
    monkeypatch.setattr(pqcalc, "pq_integer", skewed)
    try:
        assert _equal_params_anchor_misses()
    finally:
        clear_caches()


# ---------------------------------------------------------------------------
# route table


def test_compute_validation():
    with pytest.raises(ValueError):
        compute("poly_gamma", 1, 1, BASE)
    with pytest.raises(ValueError):
        compute(FAMILY_POLY_EULER, 1, 1, BASE, ROUTE_INTEGRAL)
    with pytest.raises(ValueError):
        compute(FAMILY_POLY_CAUCHY_1, 1, 0, BASE, ROUTE_INTEGRAL)
    with pytest.raises(ValueError):
        compute(FAMILY_POLY_EULER, -1, 1, BASE)
    for base_series in (families.bernoulli_base_series, families.euler_base_series):
        with pytest.raises(ValueError):
            base_series(1, BASE, -1)


def test_routes_by_family_covers_all_families():
    assert set(ROUTES_BY_FAMILY) == {
        FAMILY_POLY_EULER,
        FAMILY_POLY_BERNOULLI,
        FAMILY_POLY_CAUCHY_1,
        FAMILY_POLY_CAUCHY_2,
    }
    assert tuple(ROUTES_BY_FAMILY[FAMILY_POLY_EULER]) == (ROUTE_GF,)
    assert tuple(ROUTES_BY_FAMILY[FAMILY_POLY_BERNOULLI]) == (
        ROUTE_GF,
        ROUTE_STIRLING,
    )
    for family in (FAMILY_POLY_CAUCHY_1, FAMILY_POLY_CAUCHY_2):
        assert tuple(ROUTES_BY_FAMILY[family]) == (
            ROUTE_GF,
            ROUTE_STIRLING,
            ROUTE_INTEGRAL,
        )


def test_equal_limit_point_is_supported_everywhere():
    params = PQParams(Fraction(2, 3), Fraction(2, 3))
    for n in range(5):
        poly_euler(n, 2, params)
        assert poly_bernoulli(n, 2, params, ROUTE_GF) == poly_bernoulli(
            n, 2, params, ROUTE_STIRLING
        )
        assert poly_cauchy_1(n, 2, params, ROUTE_GF) == poly_cauchy_1(
            n, 2, params, ROUTE_INTEGRAL
        )


# ---------------------------------------------------------------------------
# generating-function columns

# family -> (per-index ordinary coefficient function, first index read)
GF_COEFFS = {
    FAMILY_POLY_EULER: ("_li_coeff", 0),
    FAMILY_POLY_BERNOULLI: ("_li_coeff", 1),
    FAMILY_POLY_CAUCHY_1: ("_lif_coeff", 0),
    FAMILY_POLY_CAUCHY_2: ("_lif_coeff", 0),
}


def test_two_over_exp_plus_one_column_is_euler_at_zero():
    # 2/(e^t + 1) is 2 e^(xt)/(e^t + 1) at x = 0
    coeffs = families._two_over_exp_plus_one().through(30)[:31]
    assert coeffs == [e[0] for e in oracles.euler_polys_rec(30)]
    assert all(type(c) is Fraction for c in coeffs)


def test_two_over_exp_plus_one_column_is_extended_not_rebuilt():
    clear_caches()
    column = families._two_over_exp_plus_one()
    first = column.through(5)[:6]
    later = column.through(30)
    assert all(a is b for a, b in zip(first, later[:6], strict=True))


@pytest.mark.parametrize("k", [-1, 0, 2])
@pytest.mark.parametrize(
    "params",
    [BASE, PQParams(Fraction(2, 3), Fraction(2, 3))],
    ids=["generic", "p=q"],
)
@pytest.mark.parametrize("family", list(GF_COEFFS))
def test_gf_column_grows_one_coefficient_per_n(family, params, k, monkeypatch):
    # the column reads each ordinary coefficient index once, whether n is
    # asked in order or the top n first; a fresh order-n series per n
    # would read every index again for every n
    n_max = 12
    name, first = GF_COEFFS[family]
    once = list(range(first, first + n_max + 1))
    reads = []
    coeff = getattr(sequences, name)

    def counted(m, k, params):
        reads.append(m)
        return coeff(m, k, params)

    monkeypatch.setattr(sequences, name, counted)
    try:
        clear_caches()
        in_order = [compute(family, n, k, params) for n in range(n_max + 1)]
        assert reads == once
        clear_caches()
        reads.clear()
        alone = compute(family, n_max, k, params)
        below = [compute(family, n, k, params) for n in range(n_max)]
        assert reads == once
        assert below + [alone] == in_order
    finally:
        monkeypatch.undo()
        clear_caches()


@pytest.mark.parametrize("k", [-1, 2])
def test_gf_routes_read_their_columns_without_building_a_series(k, monkeypatch):
    # each gf route and each classical Appell family reads its columns'
    # coefficient lists in place; none copies them into an EgfSeries
    n_max = 12
    values = {
        "gf": lambda n: [
            compute(family, n, k, params, ROUTE_GF)
            for family in ROUTES_BY_FAMILY
            for params in (BASE, CLASSICAL)
        ],
        "classical": lambda n: [
            sequences.bernoulli_order(n, 2),
            sequences.frobenius_euler(n, 2, Fraction(1, 2)),
            euler_poly(n),
        ],
    }
    before = {name: [f(n) for n in range(n_max + 1)] for name, f in values.items()}

    def refuse(self, coeffs):
        raise AssertionError("a gf route built an EgfSeries")

    clear_caches()
    monkeypatch.setattr(egf.EgfSeries, "__init__", refuse)
    try:
        for name, f in values.items():
            assert [f(n) for n in range(n_max + 1)] == before[name], name
    finally:
        monkeypatch.undo()
        clear_caches()


def test_clear_caches_lets_a_rebound_ingredient_reach_poly_euler(monkeypatch):
    n, k = 6, 2
    classical = poly_euler(n, k, CLASSICAL)
    deformed = poly_euler(n, k, BASE)
    assert deformed != classical
    coeff = sequences._li_coeff
    monkeypatch.setattr(
        sequences, "_li_coeff", lambda m, k, params: coeff(m, k, CLASSICAL)
    )
    try:
        clear_caches()
        assert poly_euler(n, k, BASE) == classical
    finally:
        monkeypatch.undo()
        clear_caches()


def test_integral_routes_compute_each_moment_once(monkeypatch):
    # both kinds read the Appell polynomials off one column per (k, params),
    # which computes the moment I(j)^k of each j once
    clear_caches()
    integral, calls = families.pq_integral_01_monomial, [0]

    def counting(power, params):
        calls[0] += 1
        return integral(power, params)

    monkeypatch.setattr(families, "pq_integral_01_monomial", counting)
    for n in range(13):
        for family in (FAMILY_POLY_CAUCHY_1, FAMILY_POLY_CAUCHY_2):
            compute(family, n, 2, BASE, ROUTE_INTEGRAL)
    assert calls[0] == 13
    clear_caches()


def test_stirling_routes_compute_each_weight_once():
    clear_caches()
    for n in range(13):
        for family in (FAMILY_POLY_BERNOULLI, FAMILY_POLY_CAUCHY_1, FAMILY_POLY_CAUCHY_2):
            compute(family, n, 2, BASE, ROUTE_STIRLING)
    assert families._stirling_weight.cache_info().misses == 13
    clear_caches()


# each column of the gf and integral routes against its plain-Fraction
# oracle: name -> (column at (k, params), oracle coefficient list through n)
EQUAL = PQParams(Fraction(2, 3), Fraction(2, 3))
COLUMN_K = [-30, -2, 0, 1, 2, 30]
COLUMNS = {
    "li": (
        lambda k, params: families._polylog_column(
            sequences._li_coeff, k, params, families._one_minus_exp_neg, 0
        ),
        lambda k, p, q, n: oracles.composed_egf(
            oracles.li_ordinary(k, p, q, n), oracles.one_minus_exp_neg_ordinary(n), n
        ),
    ),
    "li shifted": (
        lambda k, params: families._bernoulli_base_column(k, params),
        lambda k, p, q, n: oracles.composed_egf(
            oracles.li_ordinary(k, p, q, n + 1)[1:],
            oracles.one_minus_exp_neg_ordinary(n),
            n,
        ),
    ),
    "lif log1p": (
        lambda k, params: families._polylog_column(
            sequences._lif_coeff, k, params, families._log1p, 0
        ),
        lambda k, p, q, n: oracles.composed_egf(
            oracles.lif_ordinary(k, p, q, n), oracles.log1p_ordinary(n), n
        ),
    ),
    "lif neg log1p": (
        lambda k, params: families._polylog_column(
            sequences._lif_coeff, k, params, families._neg_log1p, 0
        ),
        lambda k, p, q, n: oracles.composed_egf(
            oracles.lif_ordinary(k, p, q, n),
            [-c for c in oracles.log1p_ordinary(n)],
            n,
        ),
    ),
}


@pytest.mark.parametrize("params", [BASE, EQUAL], ids=["generic", "p=q"])
@pytest.mark.parametrize("k", COLUMN_K)
@pytest.mark.parametrize("name", list(COLUMNS))
def test_polylog_columns_match_plain_fraction_compositions(name, k, params):
    # the int numerators over one running denominator give the reduced
    # Fractions a plain composition of the series gives
    n_max = 12
    column, oracle = COLUMNS[name]
    clear_caches()
    got = column(k, params).through(n_max)[: n_max + 1]
    assert got == oracle(k, params.p, params.q, n_max)
    assert all(type(c) is Fraction for c in got)
    clear_caches()


@pytest.mark.parametrize("params", [BASE, EQUAL], ids=["generic", "p=q"])
@pytest.mark.parametrize("k", COLUMN_K)
def test_integral_appell_column_matches_plain_fraction_sums(k, params):
    n_max = 12
    clear_caches()
    column = families._integral_appell_column(
        k, params, families.pq_integral_01_monomial, egf.appell
    )
    for m in range(n_max + 1):
        expected = oracles.integral_appell(m, k, params.p, params.q)
        assert list(column.coeff(m).coeffs) == expected, m
    clear_caches()


def test_cold_gf_columns_make_no_scalar_sum_call(monkeypatch):
    # each coefficient of a polylog column is one int dot product over one
    # denominator, and each Appell polynomial of the integral column one
    # int expansion; neither sums term by term through egf._scalar_sum
    n_max = 12
    before = {
        (name, k, params): column(k, params).through(n_max)[: n_max + 1]
        for name, (column, _) in COLUMNS.items()
        for k in (-2, 2)
        for params in (BASE, EQUAL)
    }

    def refuse(terms):
        raise AssertionError("a gf column called egf._scalar_sum")

    clear_caches()
    monkeypatch.setattr(egf, "_scalar_sum", refuse)
    try:
        for (name, k, params), values in before.items():
            column = COLUMNS[name][0]
            assert column(k, params).through(n_max)[: n_max + 1] == values
            for family in (FAMILY_POLY_BERNOULLI, FAMILY_POLY_CAUCHY_1, FAMILY_POLY_CAUCHY_2):
                compute(family, n_max, k, params, ROUTE_GF)
            if k >= 1:
                for family in (FAMILY_POLY_CAUCHY_1, FAMILY_POLY_CAUCHY_2):
                    compute(family, n_max, k, params, ROUTE_INTEGRAL)
    finally:
        monkeypatch.undo()
        clear_caches()


@pytest.mark.parametrize("params", [BASE, EQUAL], ids=["generic", "p=q"])
def test_routes_agree_at_the_weight_bound(params):
    # |k| = 30 is gen's weight bound, where the running denominator of a
    # column is rescaled the most; every route of a family agrees there
    n_max = 40
    cases = (
        (FAMILY_POLY_BERNOULLI, 30),
        (FAMILY_POLY_BERNOULLI, -30),
        (FAMILY_POLY_CAUCHY_2, 30),
    )
    for family, k in cases:
        clear_caches()
        for n in range(n_max + 1):
            gf, *others = [
                compute(family, n, k, params, route) for route in families.routes(family, k)
            ]
            assert others and all(value == gf for value in others), (family, n, k)
    clear_caches()
