from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from pqpoly.exact import XPoly
from pqpoly.pqcalc import (
    PQParams,
    pq_derivative,
    pq_integer,
    pq_integral_01_monomial,
    pq_integral_01_poly,
)

from .oracles import pq_integer_homogeneous

PARAM_POINTS = [
    PQParams(Fraction(1, 2), Fraction(1, 3)),
    PQParams(Fraction(3, 4), Fraction(1, 5)),
    PQParams(Fraction(1), Fraction(2, 7)),
    PQParams(Fraction(1), Fraction(1)),
    PQParams(Fraction(2, 3), Fraction(2, 3)),
]

params_st = st.sampled_from(PARAM_POINTS)
polys = st.lists(
    st.fractions(min_value=-30, max_value=30, max_denominator=20),
    max_size=7,
).map(XPoly)


def test_params_validation():
    with pytest.raises(ValueError):
        PQParams(Fraction(0), Fraction(0))
    with pytest.raises(ValueError):
        PQParams(Fraction(1, 3), Fraction(1, 2))  # q > p
    with pytest.raises(ValueError):
        PQParams(Fraction(3, 2), Fraction(1, 2))  # p > 1
    with pytest.raises(ValueError):
        PQParams(Fraction(1, 2), Fraction(-1, 3))


def test_params_mode():
    assert not PQParams(Fraction(1, 2), Fraction(1, 3)).is_equal_limit
    assert PQParams(Fraction(2, 3), Fraction(2, 3)).is_equal_limit
    assert PQParams(Fraction(1), Fraction(1)).is_equal_limit


def test_params_parse_and_strings():
    params = PQParams.parse("1/2", "2/6")
    assert params.p == Fraction(1, 2)
    assert params.q == Fraction(1, 3)
    assert params.as_strings() == ("1/2", "1/3")


@pytest.mark.parametrize("params", PARAM_POINTS)
def test_deformed_integer_matches_homogeneous_sum(params):
    for n in range(0, 12):
        want = pq_integer_homogeneous(n, params.p, params.q)
        assert pq_integer(n, params) == want


@pytest.mark.parametrize("params", PARAM_POINTS)
def test_deformed_integer_symmetric_in_parameters(params):
    for n in range(0, 12):
        assert pq_integer(n, params) == pq_integer_homogeneous(
            n, params.q, params.p
        )


def test_deformed_integer_classical_specializations():
    one_q = PQParams(Fraction(1), Fraction(2, 7))
    q = one_q.q
    for n in range(10):
        assert pq_integer(n, one_q) == (1 - q**n) / (1 - q)
    both_one = PQParams(Fraction(1), Fraction(1))
    for n in range(10):
        assert pq_integer(n, both_one) == n


def test_deformed_integer_equal_limit():
    params = PQParams(Fraction(3, 4), Fraction(3, 4))
    assert pq_integer(0, params) == 0
    for n in range(1, 10):
        assert pq_integer(n, params) == n * Fraction(3, 4) ** (n - 1)


def test_deformed_integer_values():
    params = PQParams(Fraction(1, 2), Fraction(1, 3))
    assert pq_integer(0, params) == 0
    assert pq_integer(1, params) == 1
    assert pq_integer(2, params) == Fraction(5, 6)
    assert pq_integer(3, params) == Fraction(19, 36)
    with pytest.raises(ValueError):
        pq_integer(-1, params)


@pytest.mark.parametrize("params", PARAM_POINTS)
def test_derivative_acts_termwise(params):
    for n in range(1, 8):
        got = pq_derivative(XPoly.monomial(n), params)
        assert got == pq_integer(n, params) * XPoly.monomial(n - 1)
    assert pq_derivative(XPoly.const(5), params) == XPoly.zero()
    assert pq_derivative(XPoly.zero(), params) == XPoly.zero()


@given(polys, polys, params_st)
def test_derivative_linear(f, g, params):
    lhs = pq_derivative(f + 3 * g, params)
    rhs = pq_derivative(f, params) + 3 * pq_derivative(g, params)
    assert lhs == rhs


@given(polys, params_st)
def test_integral_of_derivative_telescopes(f, params):
    # integral over [0,1] of the deformed derivative is f(1) - f(0)
    got = pq_integral_01_poly(pq_derivative(f, params), params)
    assert got == f(1) - f(Fraction(0))


def test_integral_monomial_values():
    params = PQParams(Fraction(1, 2), Fraction(1, 3))
    assert pq_integral_01_monomial(0, params) == 1
    assert pq_integral_01_monomial(1, params) == Fraction(6, 5)
    assert pq_integral_01_monomial(2, params) == Fraction(36, 19)
    with pytest.raises(ValueError):
        pq_integral_01_monomial(-1, params)


def test_integral_poly_value():
    params = PQParams(Fraction(1, 2), Fraction(1, 3))
    f = XPoly([0, 1, 1])  # x^2 + x
    assert pq_integral_01_poly(f, params) == Fraction(294, 95)
    assert pq_integral_01_poly(XPoly.zero(), params) == 0
