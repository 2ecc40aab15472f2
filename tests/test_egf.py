import math
from fractions import Fraction
from functools import reduce
from operator import mul

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pqpoly import egf
from pqpoly.egf import Column, EgfSeries, PowerRows, appell, compose, grow_power
from pqpoly.exact import XPoly

from . import oracles
from .oracles import horner_compose

rationals = st.fractions(
    min_value=-20, max_value=20, max_denominator=12
)


def series(order, coeffs_strategy=rationals):
    return st.lists(
        coeffs_strategy, min_size=order + 1, max_size=order + 1
    ).map(EgfSeries)


xpolys = st.lists(rationals, max_size=3).map(XPoly)


def exp_series(order):
    return EgfSeries([Fraction(1)] * (order + 1))


def test_constant_series():
    s = EgfSeries.constant(Fraction(3), 4)
    assert s.order == 4
    assert s.coeffs == (Fraction(3), 0, 0, 0, 0)


def test_series_needs_its_order_zero_coefficient():
    with pytest.raises(ValueError, match="order-0 coefficient"):
        EgfSeries([])


def test_coeff_out_of_range_raises():
    s = EgfSeries([1, 2, 3])
    column = Column(lambda coeffs, n: coeffs.extend(range(len(coeffs), n + 1)))
    assert column.coeff(2) == 2
    for read, n in ((s.coeff, 3), (s.coeff, -1), (column.coeff, -1)):
        with pytest.raises(IndexError):
            read(n)


def test_mul_is_binomial_convolution():
    # e^t * e^t = e^{2t}: coefficient n is 2^n
    e = exp_series(6)
    sq = e.mul(e)
    assert [sq.coeff(n) for n in range(7)] == [2**n for n in range(7)]


def test_mul_order_mismatch_rejected():
    with pytest.raises(ValueError):
        EgfSeries([1, 2]).mul(EgfSeries([1, 2, 3]))


def test_mul_by_zero_series():
    z = EgfSeries.constant(Fraction(0), 5)
    e = exp_series(5)
    assert e.mul(z) == z


@settings(max_examples=40)
@given(
    st.sampled_from([rationals, xpolys]),
    st.sampled_from([rationals, xpolys]),
    st.data(),
)
def test_mul_coefficients_match_the_convolution_oracle(left, right, data):
    # Fraction, XPoly and mixed series, every coefficient through the order
    a = data.draw(series(6, left))
    b = data.draw(series(6, right))
    product = a.mul(b)
    for n in range(a.order + 1):
        assert product.coeff(n) == oracles.binomial_conv(a.coeffs, b.coeffs, n)


zero_or_rational = st.one_of(st.just(Fraction(0)), rationals)
zero_or_xpoly = st.one_of(st.just(XPoly.zero()), xpolys)


@settings(max_examples=80)
@given(
    st.sampled_from(
        [
            zero_or_rational,
            zero_or_xpoly,
            st.one_of(zero_or_rational, zero_or_xpoly),
        ]
    ),
    st.sampled_from([zero_or_rational, zero_or_xpoly]),
    st.data(),
)
def test_zero_skip_keeps_value_and_ring(left, right, data):
    # Fraction, XPoly and mixed series with forced zeros, zero XPoly
    # entries against scalar factors among them: each coefficient equals the
    # unskipped sum in value and in type
    a = data.draw(series(5, left))
    b = data.draw(series(5, right))
    product, swapped = a.mul(b), b.mul(a)
    for n in range(a.order + 1):
        want = oracles.binomial_conv(a.coeffs, b.coeffs, n)
        for got in (product.coeff(n), swapped.coeff(n)):
            assert got == want
            assert type(got) is type(want)


scalars = st.one_of(
    st.integers(-30, 30), rationals, st.sampled_from([0, Fraction(0)])
)


@settings(max_examples=80)
@given(st.sampled_from([st.integers(-30, 30), scalars]), st.data())
def test_scalar_sums_equal_plain_fraction_sums(entries, data):
    # int-only, mixed, zero and negative entries: the common-denominator
    # sums equal the plain sums in value and in type
    n = data.draw(st.integers(0, 6))
    a, b, outer = (
        data.draw(st.lists(entries, min_size=n + 1, max_size=n + 1))
        for _ in range(3)
    )
    want = sum(
        [math.comb(n, i) * (a[i] * b[n - i]) for i in range(n + 1)], Fraction(0)
    )
    got = egf._binomial_conv(a, b, n)
    assert got == want
    assert type(got) is Fraction
    # compose reads an inner series, whose coefficients are Fractions, so
    # each of its coefficients is one
    inner = data.draw(st.lists(entries, min_size=n, max_size=n))
    rows = PowerRows(lambda j: inner[j - 1])
    got = compose(outer, EgfSeries([0, *inner]))
    for j in range(n + 1):
        assert got.coeff(j) == sum(map(mul, outer, rows.row(j)))
        assert type(got.coeff(j)) is Fraction


def test_skipped_xpoly_zero_still_makes_an_xpoly():
    a = EgfSeries([XPoly.zero(), Fraction(2)])
    b = EgfSeries([Fraction(3), Fraction(0)])
    for n in range(2):
        assert type(a.mul(b).coeff(n)) is XPoly
        assert type(b.mul(a).coeff(n)) is XPoly


@given(series(8), series(8))
def test_mul_commutative(a, b):
    assert a.mul(b) == b.mul(a)


@settings(max_examples=40)
@given(series(6), series(6), series(6))
def test_mul_associative(a, b, c):
    assert a.mul(b).mul(c) == a.mul(b.mul(c))


@given(series(8, rationals.filter(lambda v: v != 0)))
def test_reciprocal_is_two_sided_inverse(a):
    one = EgfSeries.constant(Fraction(1), a.order)
    inv = a.reciprocal()
    assert a.mul(inv) == one
    assert inv.mul(a) == one
    assert inv.reciprocal() == a


def invertible(order):
    """Series with a nonzero rational constant term, zeros allowed later."""
    return st.tuples(
        rationals.filter(bool),
        st.lists(rationals, min_size=order, max_size=order),
    ).map(lambda parts: EgfSeries([parts[0]] + parts[1]))


def grown_power(a: EgfSeries, alpha: int, order: int) -> list:
    r = []
    grow_power(a.coeffs.__getitem__, alpha, r, order)
    return r


def power_fold(a: EgfSeries, alpha: int) -> EgfSeries:
    """a^alpha from products alone, of a or of its reciprocal."""
    return (a if alpha >= 0 else a.reciprocal()).pow(abs(alpha))


@settings(max_examples=60)
@given(
    invertible(6),
    st.integers(min_value=-3, max_value=3),
    st.lists(st.integers(min_value=0, max_value=6), max_size=5),
)
def test_reciprocal_grown_in_steps_matches_one_shot(a, alpha, steps):
    # the recurrence reads only the coefficients already in the list, so
    # any growth schedule gives, at every order, the one-shot power and the
    # reciprocal/pow fold
    r = []
    for n in steps + [a.order]:
        grow_power(a.coeffs.__getitem__, alpha, r, n)
        for order in range(len(r)):
            assert r[: order + 1] == grown_power(a, alpha, order)
            prefix = EgfSeries(a.coeffs[: order + 1])
            assert r[: order + 1] == list(power_fold(prefix, alpha).coeffs)
    assert len(r) == a.order + 1
    assert all(type(c) is Fraction for c in r)


def _miller_fractions(coeff, alpha: int, n: int) -> list:
    """Miller's recurrence for a^alpha, every term a plain Fraction."""
    a0 = Fraction(coeff(0))
    r = [a0**alpha]
    for j in range(1, n + 1):
        acc = Fraction(0)
        for i in range(1, j + 1):
            acc += (
                math.comb(j, i) * ((alpha + 1) * i - j)
                * Fraction(coeff(i)) * r[j - i]
            )
        r.append(acc / (j * a0))
    return r


@pytest.mark.parametrize("alpha", [-3, -2, -1, 2])
@pytest.mark.parametrize(
    "coeff",
    [
        # (e^t - 1)/t, the order-s Bernoulli base
        lambda j: Fraction(1, j + 1),
        # 1, 1/2, 1/2, ...: the Frobenius base at u = -1, and (e^t + 1)/2
        lambda j: Fraction(1, 2) if j else 1,
        # the Frobenius base at u = 1/2
        lambda j: Fraction(2) if j else 1,
    ],
    ids=["bernoulli", "frobenius-u-neg1-halves", "frobenius-u-half"],
)
def test_grow_power_matches_plain_fraction_recurrence(coeff, alpha):
    # the scalar sums over one common denominator give the Fractions that
    # the recurrence computed term by term gives
    r = []
    grow_power(coeff, alpha, r, 30)
    assert r == _miller_fractions(coeff, alpha, 30)
    assert all(type(c) is Fraction for c in r)


def test_column_coeff_grows_only_to_the_coefficient_read():
    asked = []

    def grow(coeffs, n):
        asked.append(n)
        coeffs.extend(range(len(coeffs), n + 1))

    column = Column(grow)
    assert column.coeff(3) == 3 and asked == [3]
    assert column.coeff(2) == 2 and asked == [3]
    assert column.through(5) == list(range(6)) and asked == [3, 5]
    assert column.coeff(5) == 5 and asked == [3, 5]


@settings(max_examples=40)
@given(
    invertible(5),
    st.integers(min_value=-3, max_value=3),
    st.integers(min_value=-3, max_value=3),
)
def test_power_exponents_add(a, alpha, beta):
    product = EgfSeries(grown_power(a, alpha, a.order)).mul(
        EgfSeries(grown_power(a, beta, a.order))
    )
    assert list(product.coeffs) == grown_power(a, alpha + beta, a.order)


def test_power_requires_nonzero_constant_term():
    for alpha in range(-3, 4):
        with pytest.raises(ValueError):
            grown_power(EgfSeries([0, 1, 1]), alpha, 2)


@settings(max_examples=40)
@given(series(6), st.sampled_from([1, -1]))
def test_appell_is_one_coefficient_of_a_product_with_exp(base, sign):
    # base(t) e^(sign x t), the exponential kept as a series over XPoly
    product = base.mul(EgfSeries([XPoly.monomial(j, sign**j) for j in range(7)]))
    for n in range(7):
        assert appell(base.coeffs, n, sign) == product.coeff(n)


@settings(max_examples=40)
@given(st.sampled_from([rationals, xpolys]), st.booleans(), st.data())
def test_pow_is_a_fold_of_products(coeffs, zero_constant, data):
    # past the order too: bernoulli_order(2, 3) reads core.pow(3) at order 2
    a = data.draw(series(3, coeffs))
    if zero_constant:
        a = EgfSeries((a.coeff(0) * 0,) + a.coeffs[1:])
    one = EgfSeries.constant(Fraction(1), a.order)
    for m in range(a.order + 3):
        assert a.pow(m) == reduce(EgfSeries.mul, [a] * m, one)


def test_pow_takes_one_product_per_extra_factor(monkeypatch):
    a = EgfSeries([0, 1, 2, 3])
    assert a.pow(1) is a
    calls = []
    mul = EgfSeries.mul

    def counted(self, other):
        calls.append(other)
        return mul(self, other)

    monkeypatch.setattr(EgfSeries, "mul", counted)
    for m in range(6):
        calls.clear()
        a.pow(m)
        assert len(calls) == max(m - 1, 0)


def test_pow_rejects_negative_exponent():
    with pytest.raises(ValueError):
        EgfSeries([1, 2, 3]).pow(-1)


def test_reciprocal_requires_invertible_constant_term():
    with pytest.raises(ValueError):
        EgfSeries([0, 1, 1]).reciprocal()


def test_compose_identity_outer_recovers_inner():
    inner = EgfSeries([Fraction(0), 3, -1, Fraction(5, 2), 0, 7])
    outer = [Fraction(0), Fraction(1)] + [Fraction(0)] * 4
    assert compose(outer, inner) == inner


@settings(max_examples=40)
@given(
    st.integers(min_value=0, max_value=5),
    st.sampled_from([rationals, xpolys]),
    st.data(),
)
def test_compose_matches_horner(order, coeffs, data):
    inner = data.draw(series(order, coeffs))
    inner = EgfSeries((inner.coeff(0) * 0,) + inner.coeffs[1:])
    outer = data.draw(
        st.lists(rationals, min_size=order + 1, max_size=order + 1)
    )
    got, want = compose(outer, inner), horner_compose(outer, inner)
    assert got == want
    assert [type(c) for c in got.coeffs] == [type(c) for c in want.coeffs]


def test_compose_requires_zero_inner_constant_term():
    with pytest.raises(ValueError):
        compose([Fraction(0), Fraction(1), Fraction(0)], EgfSeries([1, 1]))


def test_compose_requires_enough_outer_coeffs():
    with pytest.raises(ValueError):
        compose([Fraction(1)], EgfSeries([0, 1, 1]))


def test_exp_of_log1p_is_one_plus_t():
    order = 10
    # outer ordinary coefficients of exp(u): 1/n!
    outer = [Fraction(1, math.factorial(n)) for n in range(order + 1)]
    log1p = EgfSeries(
        [Fraction(0)]
        + [
            Fraction((-1) ** (n - 1) * math.factorial(n - 1))
            for n in range(1, order + 1)
        ]
    )
    got = compose(outer, log1p)
    want = EgfSeries([1, 1] + [0] * (order - 1))
    assert got == want


def test_polylog_weight_one_of_exp_gap_is_t():
    # Li_1(u) = -ln(1-u) composed with u = 1 - e^{-t} gives t exactly.
    order = 10
    outer = [Fraction(0)] + [Fraction(1, n) for n in range(1, order + 1)]
    gap = EgfSeries(
        [Fraction(0)] + [-((-1) ** n) for n in range(1, order + 1)]
    )
    got = compose(outer, gap)
    want = EgfSeries([0, 1] + [0] * (order - 1))
    assert got == want


@settings(max_examples=30)
@given(
    st.lists(rationals, min_size=5, max_size=5),
    st.lists(rationals, min_size=5, max_size=5),
    series(4).map(lambda s: EgfSeries((Fraction(0),) + s.coeffs[1:])),
)
def test_compose_respects_ordinary_products(c, d, inner):
    # (c*d)(f) == c(f) * d(f) with c*d the Cauchy product of outer coeffs
    order = inner.order
    prod = [
        sum(
            (c[i] * d[n - i] for i in range(n + 1)),
            Fraction(0),
        )
        for n in range(order + 1)
    ]
    lhs = compose(prod, inner)
    rhs = compose(c, inner).mul(compose(d, inner))
    assert lhs == rhs


def test_series_over_polynomial_ring():
    # EGF of e^{xt}: coefficient n is x^n
    order = 5
    e_xt = EgfSeries([XPoly.monomial(n) for n in range(order + 1)])
    sq = e_xt.mul(e_xt)
    assert [sq.coeff(n) for n in range(order + 1)] == [
        XPoly.monomial(n, 2**n) for n in range(order + 1)
    ]

