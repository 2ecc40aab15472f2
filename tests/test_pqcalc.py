import copy
import gc
import pickle
import sys
import threading
import weakref
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from pqpoly import clear_caches
from pqpoly.exact import rational_from_str
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


def test_params_fields_cannot_be_assigned_or_deleted():
    params = PQParams(Fraction(1, 2), Fraction(1, 3))
    with pytest.raises(AttributeError, match="cannot assign to field 'p'"):
        params.p = Fraction(1)
    with pytest.raises(AttributeError, match="cannot delete field 'q'"):
        del params.q
    assert (params.p, params.q) == (Fraction(1, 2), Fraction(1, 3))


def test_params_reject_inexact_types():
    with pytest.raises(TypeError, match="p must be int or Fraction, not float"):
        PQParams(0.1, 0.1)
    with pytest.raises(TypeError, match="q must be int or Fraction, not float"):
        PQParams(Fraction(1, 2), 0.25)
    with pytest.raises(TypeError, match="str"):
        PQParams("1/2", Fraction(1, 3))
    assert PQParams(1, Fraction(1, 2)).p == 1


def test_params_are_interned_and_survive_copies():
    for params in PARAM_POINTS:
        for same in (
            PQParams(params.p, params.q),
            copy.copy(params),
            copy.deepcopy(params),
            pickle.loads(pickle.dumps(params)),
        ):
            assert same is params
        assert repr(params) == f"PQParams(p={params.p!r}, q={params.q!r})"
    assert PQParams.__match_args__ == ("p", "q")
    assert PQParams(1, 1) is PQParams(Fraction(1), Fraction(1))
    q = Fraction(1, 3)
    assert PQParams(Fraction(2, 4), q) is PQParams(Fraction(1, 2), q)


def test_unreferenced_params_are_freed_and_refill_the_caches():
    # the registry holds its instances weakly, so it cannot grow without
    # bound; a pair rebuilt once the caches let go is a new key
    p, q = Fraction(5, 7), Fraction(3, 11)
    params = PQParams(p, q)
    value = pq_integer(9, params)
    ref = weakref.ref(params)
    del params
    clear_caches()
    gc.collect()
    assert ref() is None
    misses = pq_integer.cache_info().misses
    rebuilt = PQParams(p, q)
    assert pq_integer(9, rebuilt) == value
    assert pq_integer.cache_info().misses == misses + 1
    assert pq_integer(9, rebuilt) == value
    assert pq_integer.cache_info().misses == misses + 1


def test_params_equality_compares_numerators_and_denominators():
    a = PQParams(Fraction(1, 2), Fraction(1, 3))
    assert a == a
    assert a == PQParams(Fraction(2, 4), Fraction(1, 3))
    assert a != PQParams(Fraction(1, 2), Fraction(1, 4))
    assert a != PQParams(Fraction(2, 3), Fraction(1, 3))
    assert a != PQParams(Fraction(1), Fraction(1, 3))
    assert a != (a.p, a.q) and (a.p, a.q) != a
    assert a.__eq__((a.p, a.q)) is NotImplemented


def test_threads_building_one_pair_get_one_object():
    # the registry's check-then-insert runs under a lock; without it two
    # threads could each make an instance of one pair, unequal to each other
    pairs = [(Fraction(1, d), Fraction(1, d + 1)) for d in range(101, 301)]
    workers = 8
    barrier = threading.Barrier(workers)
    built = [[] for _ in range(workers)]

    def build(out):
        barrier.wait(timeout=10)
        out.extend(PQParams(p, q) for p, q in pairs)

    threads = [threading.Thread(target=build, args=(out,)) for out in built]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    for out in built:
        assert len(out) == len(pairs)
        assert all(a is b for a, b in zip(out, built[0]))


def test_equal_but_distinct_cache_hit_calls_no_fraction_eq(monkeypatch):
    # a second SuiteConfig or a library caller builds an equal PQParams;
    # it is the cached key's own object, so the lookup runs no Python-level
    # method of PQParams or Fraction
    p, q = Fraction(3, 4), Fraction(1, 5)
    params = PQParams(p, q)
    value = pq_integer(7, params)
    calls = []
    fraction_eq = Fraction.__eq__

    def counting(self, other):
        calls.append((self, other))
        return fraction_eq(self, other)

    monkeypatch.setattr(Fraction, "__eq__", counting)
    rebuilt = PQParams(Fraction(p.numerator, p.denominator), Fraction(q))
    assert pq_integer(7, rebuilt) is value
    monkeypatch.undo()
    assert calls == []
    assert rebuilt is params
    assert PQParams.__hash__ is object.__hash__
    assert PQParams.__eq__ is object.__eq__


def test_params_mode():
    assert not PQParams(Fraction(1, 2), Fraction(1, 3)).is_equal_limit
    assert PQParams(Fraction(2, 3), Fraction(2, 3)).is_equal_limit
    assert PQParams(Fraction(1), Fraction(1)).is_equal_limit


def test_params_parse_and_strings():
    params = PQParams(rational_from_str("1/2"), rational_from_str("2/6"))
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
