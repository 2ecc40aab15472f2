import math
import sys
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from pqpoly import clear_caches, exact
from pqpoly.exact import (
    XPoly,
    falling_factorial,
    rational_from_printed,
    rational_from_str,
    rational_to_str,
    rising_factorial,
)

from . import oracles

rationals = st.fractions(
    min_value=-100, max_value=100, max_denominator=50
)
small_polys = st.lists(rationals, max_size=6).map(XPoly)


def test_rational_to_str_always_explicit_denominator():
    assert rational_to_str(5) == "5/1"
    assert rational_to_str(Fraction(-3, 4)) == "-3/4"
    assert rational_to_str(Fraction(2, 4)) == "1/2"
    assert rational_to_str(0) == "0/1"


def test_rational_to_str_renders_past_the_digit_limit():
    # 5,000 digits is past Python's default int-to-str limit of 4,300;
    # rendering must not lift that limit, which also bounds parsing
    big = Fraction(-(10**4999 + 7), 3 * 10**4999 + 1)
    assert rational_to_str(big) == (
        "-1" + "0" * 4998 + "7/3" + "0" * 4998 + "1"
    )
    with pytest.raises(ValueError):
        rational_from_str("1" * 5000)


@pytest.fixture
def unlimited_str():
    """str with the int-to-str digit limit lifted, as the oracle; the limit
    is restored after the test."""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield str
    finally:
        sys.set_int_max_str_digits(limit)


def _digits(d: int) -> list[int]:
    """Ints of exactly d digits: the smallest, the largest and one between."""
    return [10 ** (d - 1), 10**d - 1, 10 ** (d - 1) + 7 * 10 ** (d // 2) + 3]


def test_int_to_decimal_matches_str_at_every_size(unlimited_str):
    cases = [0, 1, 9, 10]
    for j in (1, 50, 4299, 4300, 4301, 9000):
        cases += [10**j - 1, 10**j]
    for d in (4299, 4300, 4301, 4302):
        cases += _digits(d)
    # one bit on each side of the threshold, which is in bits
    for bits in (exact._STR_BITS, exact._STR_BITS + 1):
        cases += [2**bits - 1, 2 ** (bits - 1) + 12345]
    # a power of two times the pieces' width, and one bit past it
    width = exact._PIECE_BITS
    cases += [2 ** (width * 16) - 1, 2 ** (width * 16), 3**60_000]
    for n in cases:
        assert exact._int_to_decimal(n) == unlimited_str(n), n.bit_length()
        assert exact._int_to_decimal(-n) == unlimited_str(-n), n.bit_length()
    # 100,000 digits
    for n in (10**100_000 - 1, _digits(100_000)[2]):
        assert exact._int_to_decimal(n) == unlimited_str(n)
    assert len(unlimited_str(10**100_000 - 1)) == 100_000


@pytest.mark.parametrize("quotient_bits", [0, 1, 2000, 2001, 4001, 30_011])
@pytest.mark.parametrize("divisor_bits", [1, 2000, 2001, 2002, 6007, 30_011])
def test_exact_quotient_matches_floor_division(quotient_bits, divisor_bits):
    # _DIV_BITS is 2,000: these sizes reach each side of it, odd and even
    # divisor widths in the recursion, and all-ones digits
    assert exact._DIV_BITS == 2_000
    top = 2 ** (divisor_bits - 1)
    for b in (top | 1, top | 5**divisor_bits % top, 2 * top - 1):
        for q in (2**quotient_bits - 1, 3**quotient_bits >> quotient_bits // 2):
            assert exact._exact_quotient(q * b, b) == q
            assert exact._exact_quotient(-q * b, b) == -q


def test_recursive_division_step_matches_divmod():
    n = 9_001
    b = 2 ** (n - 1) + 5**3000
    for a in (0, b - 1, b * 7**3000 + b // 3, (b << n) - 1, b * ((1 << n) - 1)):
        assert exact._div2n1n(a, b, n) == divmod(a, b)


def test_int_to_decimal_leaves_the_digit_limit_as_it_is():
    limit = sys.get_int_max_str_digits()
    assert exact._int_to_decimal(10**5000).startswith("1000")
    assert sys.get_int_max_str_digits() == limit
    with pytest.raises(ValueError):
        str(10**5000)
    # a limit set below the default, 640 digits at the least, is kept too
    sys.set_int_max_str_digits(640)
    try:
        assert exact._int_to_decimal(-(10**1000)) == "-1" + "0" * 1000
    finally:
        sys.set_int_max_str_digits(limit)


def test_decimal_to_int_matches_int_at_every_size(unlimited_str):
    # each side of the pieces' width and of a power of two times it, the
    # default limit, leading zeros, and 100,000 digits
    width = exact._PIECE_DIGITS
    cases = [0, 1, 10**width, 10**width - 1, 10 ** (width * 8) + 1, 3**60_000]
    for d in (width - 1, width + 1, 2 * width + 1, 4299, 4300, 4301, 100_000):
        cases += _digits(d)
    for n in cases:
        text = unlimited_str(n)
        assert exact._decimal_to_int(text, {}) == n, len(text)
        assert exact._decimal_to_int("0" * 700 + text, {}) == n, len(text)


def test_rational_from_printed_reads_rational_to_str_back_at_any_size():
    limit = sys.get_int_max_str_digits()
    for value in (
        Fraction(0),
        Fraction(-3, 4),
        Fraction(-(10**4999 + 7), 3 * 10**4999 + 1),
        Fraction(7**20_000, 10**9000 + 1),
    ):
        assert rational_from_printed(rational_to_str(value)) == value
    # the same grammar as rational_from_str, the limit aside
    for text in ("5", "+5", " -6/4 ", "0/7"):
        assert rational_from_printed(text) == rational_from_str(text)
    for text in ("1.5", "1e3", "3/-4", "/3", "3/", "", "3/0", "3/" + "0" * 5000):
        with pytest.raises(ValueError):
            rational_from_printed(text)
    assert sys.get_int_max_str_digits() == limit
    # a limit set below the default, 640 digits at the least, is kept too
    sys.set_int_max_str_digits(640)
    try:
        assert rational_from_printed("-1" + "0" * 1000) == -(10**1000)
        assert sys.get_int_max_str_digits() == 640
    finally:
        sys.set_int_max_str_digits(limit)


def _kernel_result(den: int, size: int) -> XPoly:
    """An arithmetic result, its Fractions not formed, whose numerators
    have about size digits, over the reduced denominator den."""
    big = 10**size
    return XPoly.sum_products(
        ((Fraction(1, den), XPoly([big + 1, -3 * big - 7, 0, 6, den * big])),)
    )


@pytest.mark.parametrize("den", [1, 6, 3**9000])
def test_to_strings_of_a_kernel_result_is_rational_to_str_of_each_coeff(den):
    p = _kernel_result(den, 4400)
    assert p._fracs is None and p._den == den
    rendered = p.to_strings()
    assert p._fracs is None
    assert rendered == [rational_to_str(c) for c in p.coeffs]
    assert rendered[2] == "0/1"
    assert rendered[4] == "1" + "0" * 4400 + "/1"


def test_rendering_ints_and_kernel_results_builds_no_fraction(monkeypatch):
    kernel = [_kernel_result(den, 4400) for den in (1, 6, 3**9000)]
    calls = []

    def counting(*args):
        calls.append(args)
        return Fraction(*args)

    monkeypatch.setattr(exact, "Fraction", counting)
    for p in kernel:
        p.to_strings()
        assert p._fracs is None
    for n in (0, 5, -5, 10**5000, -(10**5000)):
        rational_to_str(n)
    assert calls == []
    # the counter sees a Fraction that is built: a bool takes that path
    assert rational_to_str(True) == "1/1"
    assert calls == [(True,)]


def test_rational_from_str_accepts_bare_integers():
    assert rational_from_str("7") == 7
    assert rational_from_str("-7") == -7
    assert rational_from_str(" 3/6 ") == Fraction(1, 2)


@pytest.mark.parametrize("bad", ["1.5", "1e3", "", "x", "1/0", "1/2/3"])
def test_rational_from_str_rejects_non_exact_forms(bad):
    with pytest.raises(ValueError):
        rational_from_str(bad)


@given(rationals)
def test_rational_string_round_trip(value):
    assert rational_from_str(rational_to_str(value)) == value


def test_xpoly_strips_trailing_zeros():
    p = XPoly([1, 2, 0, 0])
    assert p.coeffs == (Fraction(1), Fraction(2))
    assert p.degree == 1
    assert not XPoly([0, 0])
    assert XPoly([0, 0]) == XPoly.zero()
    assert XPoly.zero().degree == -1


def test_xpoly_basic_arithmetic():
    x = XPoly.x()
    p = (x + 1) * (x - 1)
    assert p == XPoly([-1, 0, 1])
    assert p - p == XPoly.zero()
    assert 2 * x == XPoly([0, 2])


def test_xpoly_zero_multiplication_annihilates():
    p = XPoly([3, 0, 5])
    assert p * XPoly.zero() == XPoly.zero()
    assert 0 * p == XPoly.zero()


def test_xpoly_evaluation_and_substitution():
    p = XPoly([1, -3, 2])  # 2x^2 - 3x + 1
    assert p(Fraction(1, 2)) == 0
    assert p(1) == 0
    assert p(3) == 10
    assert XPoly.zero()(Fraction(7)) == 0
    # substitute x -> x + 1
    shifted = p.affine(1, 1)
    assert shifted == XPoly([0, 1, 2])


def test_xpoly_call_is_scalar_evaluation_only():
    with pytest.raises(TypeError, match="evaluation point.*XPoly"):
        XPoly([1, -3, 2])(XPoly([1, 1]))
    with pytest.raises(TypeError, match="affine shift.*float"):
        XPoly([1, 2]).affine(1, 0.5)
    with pytest.raises(TypeError, match="affine scale.*float"):
        XPoly([1, 2]).affine(0.5, 0)


def test_xpoly_derivative():
    p = XPoly([5, 1, Fraction(1, 2), 4])
    assert oracles.derivative(p) == XPoly([1, 1, 12])
    assert oracles.derivative(XPoly.const(3)) == XPoly.zero()


def test_xpoly_equality_against_scalars():
    assert XPoly.const(Fraction(2, 3)) == Fraction(2, 3)
    assert XPoly.zero() == 0
    assert XPoly([0, 1]) != 0
    assert hash(XPoly.const(5)) == hash(Fraction(5))


def test_xpoly_serialization_round_trip():
    p = XPoly([Fraction(1, 3), 0, -2])
    strings = p.to_strings()
    assert strings == ["1/3", "0/1", "-2/1"]
    assert XPoly(map(rational_from_str, strings)) == p
    assert XPoly.zero().to_strings() == []


def test_to_strings_of_a_kernel_result_keeps_no_fractions():
    # a computed value is printed without storing its Fraction coefficients
    p = XPoly.sum_products(
        ((Fraction(1, 6), XPoly([1, 2, 3])), (Fraction(-3, 4), XPoly([0, 1])))
    )
    assert p._fracs is None
    strings = p.to_strings()
    assert p._fracs is None
    assert strings == [rational_to_str(c) for c in p.coeffs]
    assert strings == ["1/6", "-5/12", "1/2"]


def test_repr_of_a_kernel_result_shows_its_strings_and_keeps_no_fractions():
    p = XPoly.sum_products(
        ((Fraction(1, 6), XPoly([1, 2, 3])), (Fraction(-3, 4), XPoly([0, 1])))
    )
    text = repr(p)
    assert p._fracs is None
    assert str(p.to_strings()) in text
    assert text == "XPoly(['1/6', '-5/12', '1/2'])"
    assert repr(XPoly.zero()) == "XPoly([])"


def test_monomial_matches_the_coefficient_list():
    for power, coeff in [(0, 1), (3, Fraction(-2, 3)), (2, 0), (1, 5)]:
        built = XPoly.monomial(power, coeff)
        assert built == XPoly([0] * power + [coeff])
        assert built.coeffs == XPoly([0] * power + [coeff]).coeffs
    assert XPoly.monomial(4, 0) == XPoly.zero()
    with pytest.raises(ValueError, match="nonnegative"):
        XPoly.monomial(-1)


def test_xpoly_rejects_inexact_scalars():
    with pytest.raises(TypeError, match="float"):
        XPoly([0.1])
    with pytest.raises(TypeError, match="float"):
        XPoly((1, 2))(0.5)
    with pytest.raises(TypeError, match="str"):
        XPoly(["1/2"])
    with pytest.raises(TypeError, match="XPoly coefficient.*float"):
        XPoly.monomial(2, 0.5)
    with pytest.raises(TypeError):
        XPoly((1, 2)) + 0.5
    with pytest.raises(TypeError):
        0.5 * XPoly((1, 2))
    # an operator declines any other type, so Python tries the other operand
    p = XPoly([1, 2])
    assert p.__add__(0.5) is NotImplemented
    assert p.__mul__("x") is NotImplemented
    assert p.__rsub__(object()) is NotImplemented


def test_xpoly_equality_reads_the_denominator():
    # integer form on both sides: same numerators, different denominators
    p = XPoly.one() * XPoly([1, 2])
    third = p * Fraction(1, 3)
    assert p != third and third != p
    assert third == XPoly([Fraction(1, 3), Fraction(2, 3)])
    assert XPoly.one() * XPoly.const(Fraction(1, 2)) != 1


# ---------------------------------------------------------------------------
# XPoly against the Fraction coefficient-list oracle


def _forms(cs):
    """The same polynomial as given (Fraction form) and as an arithmetic
    result (integer form)."""
    return st.sampled_from([XPoly(cs), XPoly.one() * XPoly(cs)])


coeff_lists = st.lists(rationals, max_size=6)
polys_either_form = coeff_lists.flatmap(_forms)
scalars = st.one_of(st.integers(-50, 50), rationals, st.just(0))
operands = st.one_of(polys_either_form, scalars)


@st.composite
def related_pairs(draw):
    """(a, b) where b is a again, a rational multiple of a, or a constant,
    possibly zero, minus a; so a - b or a + b cancels."""
    cs = draw(coeff_lists)
    kind = draw(st.sampled_from(["equal", "multiple", "cancel"]))
    if kind == "equal":
        other = cs
    elif kind == "multiple":
        r = draw(rationals)
        other = [r * v for v in cs]
    else:
        other = [-v for v in cs] or [Fraction(0)]
        other[0] += draw(st.one_of(st.just(Fraction(0)), rationals))
    return draw(_forms(cs)), draw(_forms(other))


def _as_list(value):
    if isinstance(value, XPoly):
        return list(value.coeffs)
    return oracles.poly_trim([value])


def _assert_matches(result, expected):
    assert isinstance(result, XPoly)
    built = XPoly(expected)
    # compared before anything reads result.coeffs, so an integer-form
    # result meets a Fraction-form value
    assert result == built and built == result
    assert hash(result) == hash(built)
    assert result.coeffs == tuple(expected)
    assert all(type(c) is Fraction for c in result.coeffs)
    if result.degree <= 0:
        c = result.coeff(0)
        assert result == c and hash(result) == hash(c)


@settings(max_examples=200)
@given(st.one_of(st.tuples(operands, operands), related_pairs()))
def test_xpoly_matches_fraction_list_oracle(pair):
    a, b = pair
    assume(isinstance(a, XPoly) or isinstance(b, XPoly))
    equal = a == b  # before _as_list forms the operands' Fractions
    la, lb = _as_list(a), _as_list(b)
    _assert_matches(a + b, oracles.poly_add(la, lb))
    _assert_matches(a - b, oracles.poly_sub(la, lb))
    _assert_matches(a * b, oracles.poly_mul(la, lb))
    poly = a if isinstance(a, XPoly) else b
    _assert_matches(-poly, oracles.poly_neg(_as_list(poly)))
    if isinstance(a, XPoly) and isinstance(b, XPoly):
        # b's linear part: a(b_1 x + b_0)
        _assert_matches(
            a.affine(b.coeff(1), b.coeff(0)), oracles.poly_substitute(la, lb[:2])
        )
    else:
        point = a if isinstance(b, XPoly) else b
        value = poly(point)
        assert type(value) is Fraction
        assert value == oracles.poly_eval(_as_list(poly), Fraction(point))
    assert equal == (la == lb)


sum_factors = st.one_of(
    scalars,
    st.lists(rationals, max_size=1).flatmap(_forms),  # zero and constants
    polys_either_form,
)


@st.composite
def sums_of_products(draw):
    """Terms of zero to three factors; sometimes followed by every term
    negated, and a scalar term, so the sum cancels to zero or a constant."""
    terms = draw(
        st.lists(
            st.one_of(
                st.lists(sum_factors, max_size=3).map(tuple),
                st.tuples(polys_either_form, scalars, polys_either_form),
            ),
            max_size=5,
        )
    )
    kind = draw(st.sampled_from(["plain", "cancel", "constant"]))
    if kind != "plain":
        terms += [term + (-1,) for term in terms]
    if kind == "constant":
        terms.append((draw(scalars),))
    return terms


@settings(max_examples=300)
@given(sums_of_products())
def test_xpoly_sum_products_matches_fold_of_oracle(terms):
    # the empty sum, zero factors, cancelling terms, scalar-only terms,
    # degree-0 XPolys, two XPoly factors in a term, int and Fraction factors
    # with different denominators, and both storage forms of each XPoly
    result = XPoly.sum_products(terms)  # before _as_list forms any Fractions
    _assert_matches(result, _oracle_sum_products(terms))


def _oracle_sum_products(terms) -> list[Fraction]:
    """The sum of products folded over Fraction coefficient lists."""
    expected = []
    for term in terms:
        product = [Fraction(1)]
        for factor in term:
            product = oracles.poly_mul(product, _as_list(factor))
        expected = oracles.poly_add(expected, product)
    return expected


class _SubPoly(XPoly):
    __slots__ = ()


_X = XPoly.x()
_SQUARE = XPoly([Fraction(1, 2), 0, 1])
_WIDE = XPoly([Fraction(1, 2), -3, 0, Fraction(5, 4), 7])


@pytest.mark.parametrize(
    "terms",
    [
        pytest.param([], id="no-terms"),
        pytest.param(
            [(True, _SQUARE), (False, _X), (True, Fraction(1, 3)), (-1, True)],
            id="bool-factors",
        ),
        pytest.param(
            [(_SubPoly([1, Fraction(1, 2)]), 3), (_SubPoly([Fraction(2, 5)]), _X),
             (_SubPoly([1, 1]), _SubPoly([0, 3]))],
            id="subclass-factors",
        ),
        pytest.param(
            [(Fraction(1, 6), _X), (Fraction(1, 3), _SQUARE), (2, _X),
             (Fraction(5, 2),), (Fraction(3, 2), 2, _X)],
            id="denominators-divide-the-running-lcm",
        ),
        pytest.param(
            [(Fraction(1, 4), _X), (Fraction(1, 3), _SQUARE), (Fraction(2, 5),),
             (XPoly([Fraction(1, 7)]), _X)],
            id="denominators-raise-the-running-lcm",
        ),
        pytest.param(
            [(_WIDE,), (Fraction(2, 3), _X), (XPoly([Fraction(1, 5)]), _SQUARE),
             (Fraction(3, 7),)],
            id="lcm-grows-after-a-wide-term",
        ),
        pytest.param(
            [(Fraction(1, 2),), (Fraction(1, 3), _X), (_SQUARE, _X, Fraction(1, 5)),
             (Fraction(2, 9), _WIDE, _X)],
            id="later-terms-wider-than-the-accumulator",
        ),
        pytest.param(
            [(0, _SQUARE), (_X, Fraction(0)), (XPoly.zero(), 5),
             (Fraction(2, 3), _X)],
            id="zero-terms",
        ),
        pytest.param(
            [(Fraction(1, 6), _SQUARE), (Fraction(-1, 6), _SQUARE),
             (Fraction(3, 4), _X), (_X, Fraction(-3, 4))],
            id="cancel-to-zero",
        ),
    ],
)
def test_xpoly_sum_products_fast_paths_match_the_oracle(terms):
    result = XPoly.sum_products(terms)
    expected = _oracle_sum_products(terms)
    _assert_matches(result, expected)
    if not expected:
        assert result._ints() == ((), 1)


_PRIMES = (2, 3, 5, 7, 11, 13)


@st.composite
def denominator_sums(draw):
    """Terms of an int, a Fraction and sometimes an XPoly factor, the term
    denominators pairwise coprime prime powers or multiples of one shared
    denominator; the XPoly's coefficients are over the term's own."""
    size = draw(st.integers(1, 6))
    if draw(st.booleans()):
        primes = draw(st.permutations(_PRIMES))[:size]
        dens = [p ** draw(st.integers(1, 3)) for p in primes]
    else:
        base = draw(st.sampled_from((2, 6, 12, 60)))
        dens = [base * draw(st.integers(1, 6)) for _ in range(size)]
    numerators = st.integers(-30, 30)
    terms = []
    for den in dens:
        term = (draw(numerators), Fraction(draw(numerators), den))
        if draw(st.booleans()):
            cs = [Fraction(c, den) for c in draw(st.lists(numerators, max_size=4))]
            term += (draw(_forms(cs)),)
        terms.append(term)
    return terms


def _assert_canonical(result):
    num, den = result._ints()
    assert den > 0
    if num:
        assert num[-1] != 0 and math.gcd(den, *num) == 1
    else:
        assert den == 1


@settings(max_examples=300)
@given(denominator_sums())
def test_sum_products_over_one_denominator_is_canonical(terms):
    result = XPoly.sum_products(terms)
    _assert_canonical(result)  # before anything forms result's Fractions
    _assert_matches(result, _oracle_sum_products(terms))


@pytest.mark.parametrize("a, b", [(3, 2), (-5, 6), (1, 4)])
def test_sum_products_reduces_the_terms_only_at_the_end(a, b):
    # term i is a^(n-i) b^i / b^n P, which reduces on its own to
    # (a/b)^(n-i) P; the kernel adds it unreduced and reduces only the sum
    n = 8
    poly = XPoly([1, Fraction(1, 3), 5])
    terms = [(a ** (n - i) * b**i, Fraction(1, b**n), poly) for i in range(n + 1)]
    result = XPoly.sum_products(terms)
    _assert_canonical(result)
    ratio = sum(Fraction(a, b) ** j for j in range(n + 1))
    assert result == XPoly([ratio * c for c in poly.coeffs])
    _assert_matches(result, _oracle_sum_products(terms))


def test_xpoly_sum_products_edge_cases():
    x = XPoly.x()
    assert XPoly.sum_products([]) == XPoly.zero()
    assert XPoly.sum_products(iter([(), (x, x)])) == x * x + 1
    assert XPoly.sum_products([(Fraction(1, 2), 4, x), (-2, x)]) == XPoly.zero()
    with pytest.raises(TypeError, match="float"):
        XPoly.sum_products([(x, 0.5)])
    with pytest.raises(TypeError, match="float"):
        XPoly.sum_products([(0, 1.5)])


def test_every_operator_is_one_kernel_call(monkeypatch):
    # the operators hold no arithmetic of their own
    a, b = XPoly([1, Fraction(1, 2)]), XPoly([Fraction(-2, 3), 0, 5])
    cases = {
        "a + b": lambda: a + b,
        "a - b": lambda: a - b,
        "1 - a": lambda: 1 - a,
        "-a": lambda: -a,
        "a * b": lambda: a * b,
        "2 * a": lambda: 2 * a,
    }
    expected = {name: op() for name, op in cases.items()}
    kernel, calls = XPoly.sum_products, []

    def counting(terms):
        calls.append(terms)
        return kernel(terms)

    monkeypatch.setattr(XPoly, "sum_products", staticmethod(counting))
    for name, op in cases.items():
        calls.clear()
        assert op() == expected[name], name
        assert len(calls) == 1, name


affine_scalars = st.one_of(
    st.just(0), st.just(1), st.just(-1), st.integers(-9, 9), rationals
)


@settings(max_examples=300)
@given(
    st.one_of(st.just([]), st.lists(rationals, max_size=1), coeff_lists).flatmap(
        _forms
    ),
    affine_scalars,
    affine_scalars,
)
def test_xpoly_affine_matches_substitution_oracle(p, a, b):
    # zero, constants, a = 0, b = 0, negative and non-integer a and b, and
    # both storage forms of p
    result = p.affine(a, b)  # before p.coeffs forms p's Fractions
    expected = oracles.poly_substitute(list(p.coeffs), oracles.poly_trim([b, a]))
    _assert_matches(result, expected)


@given(
    polys_either_form,
    st.lists(st.integers(-50, 50), max_size=5),
    st.integers(-30, 30).filter(bool),
)
def test_xpoly_weighted_values_match_the_fraction_sum(p, weights, den):
    # zero weights, no weights, a negative den and both storage forms of p
    want = sum(
        (w * p(i) for i, w in enumerate(weights)), Fraction(0)
    ) / den
    got = p.weighted_values(weights, den)
    assert type(got) is Fraction and got == want


def test_xpoly_weighted_values_reject_a_float():
    with pytest.raises(TypeError):
        XPoly([1, 2]).weighted_values([1, 2], 0.5)
    with pytest.raises(TypeError):
        XPoly([1, 2]).weighted_values([0.5], 1)
    with pytest.raises(ZeroDivisionError):
        XPoly([1, 2]).weighted_values([1, 2], 0)


@given(small_polys, small_polys)
def test_xpoly_mul_commutative(a, b):
    assert a * b == b * a


@settings(max_examples=50)
@given(small_polys, small_polys, small_polys)
def test_xpoly_mul_associative(a, b, c):
    assert (a * b) * c == a * (b * c)


@given(small_polys)
def test_xpoly_string_round_trip(p):
    assert XPoly(map(rational_from_str, p.to_strings())) == p


def test_factorials_reject_negative_n():
    for factorial in (falling_factorial, rising_factorial):
        with pytest.raises(ValueError, match="n must be nonnegative"):
            factorial(-1)


def test_falling_factorial_small():
    x = XPoly.x()
    assert falling_factorial(0) == XPoly.one()
    assert falling_factorial(1) == x
    assert falling_factorial(3) == x * (x - 1) * (x - 2)
    assert falling_factorial(3) == XPoly([0, 2, -3, 1])


def test_rising_factorial_small():
    x = XPoly.x()
    assert rising_factorial(2) == x * (x + 1)
    assert rising_factorial(4)(1) == math.factorial(4)


def _stack_depth() -> int:
    frame, depth = sys._getframe(), 0
    while frame is not None:
        frame, depth = frame.f_back, depth + 1
    return depth


@pytest.mark.parametrize("factorial", [falling_factorial, rising_factorial])
def test_a_cold_factorial_is_built_in_a_loop(factorial):
    # a build that recursed on n - 1 would take a frame per index: with room
    # for 100 more frames, a cold read of index 500 must still return
    clear_caches()
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(_stack_depth() + 100)
    try:
        value = factorial(500)
    finally:
        sys.setrecursionlimit(limit)
    point = 500 if factorial is falling_factorial else 1
    assert value(point) == math.factorial(500)
    clear_caches()


@pytest.mark.parametrize("factorial, step", [(falling_factorial, -1), (rising_factorial, 1)])
def test_a_factorial_is_one_convolution_from_the_one_before(factorial, step, monkeypatch):
    clear_caches()
    before = factorial(29)
    convolve, calls = exact._convolve, [0]

    def counting(a, b):
        calls[0] += 1
        return convolve(a, b)

    monkeypatch.setattr(exact, "_convolve", counting)
    value = factorial(30)
    assert calls[0] == 1
    monkeypatch.undo()
    assert value == before * XPoly((29 * step, 1))
    clear_caches()


@pytest.mark.parametrize("factorial, step", [(falling_factorial, -1), (rising_factorial, 1)])
def test_a_factorial_past_the_cap_is_not_kept(factorial, step):
    clear_caches()
    cap = exact._FACTORIAL_CAP
    assert cap >= 101
    value = factorial(cap + 40)
    store = exact._factorials(step)
    assert len(store) == cap + 1
    product = [Fraction(1)]
    for j in range(cap + 40):
        product = oracles.poly_mul(product, [Fraction(j * step), Fraction(1)])
    assert list(value.coeffs) == product
    clear_caches()


def test_falling_factorials_past_the_cap_are_a_list_not_kept():
    clear_caches()
    cap = exact._FACTORIAL_CAP
    values = exact.falling_factorials(cap + 5)
    store = exact._factorials(-1)
    assert values is not store and len(store) == cap + 1
    assert values[: cap + 1] == store
    assert [list(v.coeffs) for v in values[cap - 1 :]] == [
        oracles.falling_factorial_coeffs(n) for n in range(cap - 1, cap + 6)
    ]
    assert exact.falling_factorials(cap) is store
    clear_caches()


@pytest.mark.parametrize("n", range(21))
def test_falling_factorial_at_n_is_factorial(n):
    assert falling_factorial(n)(n) == math.factorial(n)


@pytest.mark.parametrize("n", range(21))
def test_falling_rising_reflection(n):
    # (x)_n = (-1)^n (-x)^(n)
    assert falling_factorial(n) == (-1) ** n * rising_factorial(n).affine(-1, 0)

