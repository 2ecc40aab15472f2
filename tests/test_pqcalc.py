import copy
import pickle
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from pqpoly.pqcalc import PQParams, pq_integer, pq_integral_01_monomial

from .oracles import pq_integer_homogeneous

PARAM_POINTS = [
    PQParams(Fraction(1, 2), Fraction(1, 3)),
    PQParams(Fraction(3, 4), Fraction(1, 5)),
    PQParams(Fraction(1), Fraction(2, 7)),
    PQParams(Fraction(1), Fraction(1)),
    PQParams(Fraction(2, 3), Fraction(2, 3)),
]

params_st = st.sampled_from(PARAM_POINTS)


@st.composite
def box_params_st(draw):
    """A random point 0 < q <= p <= 1 of the parameter box, p = q in half of
    the draws; small denominators keep the exact values small."""
    nonzero = st.fractions(min_value=0, max_value=1, max_denominator=9).filter(bool)
    p = draw(nonzero)
    q = p if draw(st.booleans()) else draw(nonzero.filter(lambda q: q <= p))
    return PQParams(p, q)


def test_params_validation():
    with pytest.raises(ValueError):
        PQParams(Fraction(0), Fraction(0))
    with pytest.raises(ValueError):
        PQParams(Fraction(1, 3), Fraction(1, 2))  # q > p
    with pytest.raises(ValueError):
        PQParams(Fraction(3, 2), Fraction(1, 2))  # p > 1
    with pytest.raises(ValueError):
        PQParams(Fraction(1, 2), Fraction(-1, 3))


def test_params_reject_inexact_types():
    with pytest.raises(TypeError, match="p must be int or Fraction, not float"):
        PQParams(0.1, 0.1)
    with pytest.raises(TypeError, match="q must be int or Fraction, not float"):
        PQParams(Fraction(1, 2), 0.25)
    with pytest.raises(TypeError, match="str"):
        PQParams("1/2", Fraction(1, 3))
    assert PQParams(1, Fraction(1, 2)).p == 1


def test_params_hash_is_the_pair_hash_and_survives_copies():
    for params in PARAM_POINTS:
        assert hash(params) == hash((params.p, params.q))
        for same in (
            PQParams(params.p, params.q),
            copy.copy(params),
            pickle.loads(pickle.dumps(params)),
        ):
            assert same == params and hash(same) == hash(params)
        assert repr(params) == f"PQParams(p={params.p!r}, q={params.q!r})"
        assert PQParams.__match_args__ == ("p", "q")
    ints, fractions = PQParams(1, 1), PQParams(Fraction(1), Fraction(1))
    assert ints == fractions and hash(ints) == hash(fractions)


def test_params_equality_compares_numerators_and_denominators():
    a = PQParams(Fraction(1, 2), Fraction(1, 3))
    assert a == a
    assert a == PQParams(Fraction(2, 4), Fraction(1, 3))
    assert a != PQParams(Fraction(1, 2), Fraction(1, 4))
    assert a != PQParams(Fraction(2, 3), Fraction(1, 3))
    assert a != PQParams(Fraction(1), Fraction(1, 3))
    assert a != (a.p, a.q) and (a.p, a.q) != a
    assert a.__eq__((a.p, a.q)) is NotImplemented


def test_equal_but_distinct_cache_hit_calls_no_fraction_eq(monkeypatch):
    # a second SuiteConfig or a library caller builds an equal PQParams,
    # and every cache lookup with it compares the keys
    params = PQParams(Fraction(3, 4), Fraction(1, 5))
    value = pq_integer(7, params)
    calls = []
    fraction_eq = Fraction.__eq__

    def counting(self, other):
        calls.append((self, other))
        return fraction_eq(self, other)

    monkeypatch.setattr(Fraction, "__eq__", counting)
    assert pq_integer(7, PQParams(Fraction(3, 4), Fraction(1, 5))) is value
    monkeypatch.undo()
    assert calls == []


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


@given(box_params_st())
def test_deformed_integer_matches_homogeneous_sum_in_the_box(params):
    for n in range(0, 8):
        assert pq_integer(n, params) == pq_integer_homogeneous(
            n, params.p, params.q
        )


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


def test_integral_monomial_values():
    params = PQParams(Fraction(1, 2), Fraction(1, 3))
    assert pq_integral_01_monomial(0, params) == 1
    assert pq_integral_01_monomial(1, params) == Fraction(6, 5)
    assert pq_integral_01_monomial(2, params) == Fraction(36, 19)
    with pytest.raises(ValueError):
        pq_integral_01_monomial(-1, params)


@given(st.integers(min_value=0, max_value=30), params_st)
def test_integral_monomial_inverts_deformed_integer(power, params):
    # the integral of x^l over [0, 1] is 1/[l+1], p = q included
    integral = pq_integral_01_monomial(power, params)
    assert integral * pq_integer(power + 1, params) == 1
