import math
from collections import Counter
from fractions import Fraction

import pytest

from pqpoly import clear_caches, egf, exact, sequences
from pqpoly.egf import EgfSeries, PowerRows
from pqpoly.exact import XPoly, rising_factorial
from pqpoly.pqcalc import PQParams
from pqpoly.sequences import (
    RationalFunction,
    bernoulli_order,
    euler_poly,
    frobenius_euler,
    li_pq_closed_form,
    stirling1_unsigned,
    stirling1_unsigned_row,
    stirling2,
    stirling2_row,
    weighted_stirling1,
    weighted_stirling2,
)

from . import oracles

GENERIC_POINTS = [
    PQParams(Fraction(1, 2), Fraction(1, 3)),
    PQParams(Fraction(3, 4), Fraction(1, 5)),
    PQParams(Fraction(1), Fraction(2, 7)),
]


# ---------------------------------------------------------------------------
# plain Stirling triangles


def test_stirling2_matches_recurrence():
    for n, row in enumerate(oracles.stirling2_rec(40)):
        assert [stirling2(n, m) for m in range(n + 2)] == row + [0]


def test_stirling1_matches_recurrence():
    for n, row in enumerate(oracles.stirling1_unsigned_rec(40)):
        assert [stirling1_unsigned(n, m) for m in range(n + 2)] == row + [0]


@pytest.mark.parametrize(
    "row_of, entry, recurrence",
    [
        (stirling2_row, stirling2, oracles.stirling2_rec),
        (stirling1_unsigned_row, stirling1_unsigned, oracles.stirling1_unsigned_rec),
    ],
)
def test_stirling_row_is_the_recurrence_row_and_the_entries(
    row_of, entry, recurrence
):
    # gen prints each triangle row from its row reader, the identities
    # read the cached entries, which index that row and read 0 past it
    clear_caches()
    for n, expected in enumerate(recurrence(40)):
        assert row_of(n) == expected
    assert entry.cache_info().currsize == 0  # the reader caches nothing
    for n, expected in enumerate(recurrence(40)):
        assert [entry(n, m) for m in range(n + 1)] == expected == row_of(n)
        assert entry(n, n + 1) == entry(n, 2 * n + 5) == 0
    with pytest.raises(ValueError):
        row_of(-1)


def test_stirling2_matches_partition_enumeration():
    for n in range(8):
        for m in range(n + 1):
            assert stirling2(n, m) == oracles.stirling2_enum(n, m)
    assert stirling2(4, 2) == 7


def test_stirling1_matches_cycle_enumeration():
    for n in range(8):
        for m in range(n + 1):
            assert stirling1_unsigned(n, m) == oracles.stirling1_enum(n, m)
    assert stirling1_unsigned(3, 1) == 2


def test_stirling_values_are_ints():
    assert isinstance(stirling2(6, 3), int)
    assert isinstance(stirling1_unsigned(6, 3), int)


TRIANGLES = (stirling2, stirling1_unsigned, weighted_stirling2, weighted_stirling1)


def test_stirling_negative_indices_rejected():
    for triangle in TRIANGLES:
        with pytest.raises(ValueError):
            triangle(-1, 0)
        with pytest.raises(ValueError):
            triangle(2, -1)


def test_entries_above_the_diagonal_are_zero():
    assert stirling2(3, 5) == stirling1_unsigned(3, 5) == 0
    assert weighted_stirling2(3, 5) == weighted_stirling1(3, 5) == XPoly.zero()


def _record_table_rows(monkeypatch) -> list:
    """(table, j) for every row a PowerRows table builds from now on."""
    built = []
    row = PowerRows.row

    def recording(self, j):
        before = len(self._rows)
        entries = row(self, j)
        built.extend((id(self), i) for i in range(before, len(self._rows)))
        return entries

    monkeypatch.setattr(PowerRows, "row", recording)
    return built


def _assert_one_table_built_rows(built: list, n: int) -> None:
    tables = {table for table, _ in built}
    assert len(tables) == 1, tables
    assert sorted(j for _, j in built) == list(range(1, n + 1))


@pytest.mark.parametrize("triangle", TRIANGLES, ids=lambda f: f.__name__)
def test_each_table_row_is_built_once(triangle, monkeypatch):
    # row 12 first, then rows 0..11: the later reads build nothing.  The
    # other triangles' row 12, read before, builds none of these rows,
    # since each triangle has a table of its own
    n = 12
    clear_caches()
    for other in TRIANGLES:
        if other is not triangle:
            for m in range(n + 1):
                other(n, m)
    built = _record_table_rows(monkeypatch)
    for r in [n] + list(range(n)):
        for m in range(r + 1):
            triangle(r, m)
    _assert_one_table_built_rows(built, n)


@pytest.mark.parametrize(
    "plain, weighted",
    [(stirling2, weighted_stirling2), (stirling1_unsigned, weighted_stirling1)],
    ids=["second_kind", "first_kind"],
)
def test_weighted_triangle_builds_its_own_table(plain, weighted, monkeypatch):
    # the routes compared by cauchy_routes_1/2 must not share a table
    n = 12
    clear_caches()
    built = _record_table_rows(monkeypatch)
    for m in range(n + 1):
        plain(n, m)
    plain_tables = {table for table, _ in built}
    built.clear()
    for m in range(n + 1):
        weighted(n, m)
    _assert_one_table_built_rows(built, n)
    assert not plain_tables & {table for table, _ in built}


def test_stirling_orthogonality():
    # sum_m (-1)^(n-m) s(n,m) S(m,l) = [n == l], both composition orders
    for n in range(13):
        for l in range(n + 1):
            a = sum(
                (-1) ** (n - m) * stirling1_unsigned(n, m) * stirling2(m, l)
                for m in range(l, n + 1)
            )
            b = sum(
                (-1) ** (m - l) * stirling2(n, m) * stirling1_unsigned(m, l)
                for m in range(l, n + 1)
            )
            want = 1 if n == l else 0
            assert a == want
            assert b == want


# ---------------------------------------------------------------------------
# weighted Stirling triangles


def test_weighted_stirling2_matches_r_stirling_recurrence():
    for n, row in enumerate(oracles.weighted_stirling2_rec(20)):
        assert [weighted_stirling2(n, m) for m in range(n + 1)] == row


def test_weighted_stirling1_matches_r_stirling_recurrence():
    for n, row in enumerate(oracles.weighted_stirling1_rec(20)):
        assert [weighted_stirling1(n, m) for m in range(n + 1)] == row


def test_weighted_rows_build_no_series(monkeypatch):
    # each weighted entry is one int coefficient list read off the
    # triangle's table
    def refuse(self, coeffs):
        raise AssertionError("a weighted Stirling entry built an EgfSeries")

    rows1 = oracles.weighted_stirling1_rec(12)
    rows2 = oracles.weighted_stirling2_rec(12)
    clear_caches()
    monkeypatch.setattr(EgfSeries, "__init__", refuse)
    for n in range(13):
        assert [weighted_stirling1(n, m) for m in range(n + 1)] == rows1[n]
        assert [weighted_stirling2(n, m) for m in range(n + 1)] == rows2[n]
    clear_caches()


def test_weighted_triangles_match_recurrences_to_40():
    rows1 = oracles.weighted_stirling1_rec(40)
    rows2 = oracles.weighted_stirling2_rec(40)
    for n in range(41):
        assert [weighted_stirling1(n, m) for m in range(n + 2)] == rows1[n] + [0]
        assert [weighted_stirling2(n, m) for m in range(n + 2)] == rows2[n] + [0]


def test_weighted_rows_make_no_kernel_call(monkeypatch):
    # a cold weighted entry is read off its table as ints: no kernel sum,
    # no rising factorial and no monomial weight
    rows1 = oracles.weighted_stirling1_rec(12)
    rows2 = oracles.weighted_stirling2_rec(12)
    kernel, calls = XPoly.sum_products, [0]

    def counting(terms):
        calls[0] += 1
        return kernel(terms)

    def refuse(*args):
        raise AssertionError("a weighted Stirling entry built a weight")

    clear_caches()
    monkeypatch.setattr(XPoly, "sum_products", staticmethod(counting))
    monkeypatch.setattr(exact, "_factorial", refuse)
    monkeypatch.setattr(XPoly, "monomial", classmethod(refuse))
    got1 = [[weighted_stirling1(n, m) for m in range(n + 1)] for n in range(13)]
    got2 = [[weighted_stirling2(n, m) for m in range(n + 1)] for n in range(13)]
    monkeypatch.undo()
    clear_caches()
    assert calls[0] == 0
    assert got1 == rows1 and got2 == rows2


def test_weighted_stirling2_at_zero_reduces_to_plain():
    for n in range(10):
        for m in range(n + 1):
            assert weighted_stirling2(n, m)(Fraction(0)) == stirling2(n, m)


def test_weighted_stirling1_at_zero_reduces_to_plain():
    for n in range(10):
        for m in range(n + 1):
            assert weighted_stirling1(n, m)(Fraction(0)) == stirling1_unsigned(
                n, m
            )


def test_weighted_stirling2_binomial_expansion():
    # S(n,m,x) = sum_j C(n,j) S(j,m) x^(n-j)
    for n in range(9):
        for m in range(n + 1):
            want = XPoly.zero()
            for j in range(m, n + 1):
                want = want + math.comb(n, j) * stirling2(j, m) * XPoly.monomial(
                    n - j
                )
            assert weighted_stirling2(n, m) == want


def test_weighted_stirling1_binomial_expansion():
    # s(n,m,x) = sum_j C(n,j) s(j,m) x^(n-j) with x^(j) rising factors
    for n in range(9):
        for m in range(n + 1):
            want = XPoly.zero()
            for j in range(m, n + 1):
                want = want + math.comb(n, j) * stirling1_unsigned(
                    j, m
                ) * rising_factorial(n - j)
            assert weighted_stirling1(n, m) == want


def test_weighted_stirling1_carlitz_expansion():
    # s(n,m,x) = sum_i C(m+i,i) x^i s(n,m+i)
    for n in range(9):
        for m in range(n + 1):
            want = XPoly.zero()
            for i in range(n - m + 1):
                want = want + math.comb(m + i, i) * stirling1_unsigned(
                    n, m + i
                ) * XPoly.monomial(i)
            assert weighted_stirling1(n, m) == want


def test_weighted_stirling_small_values():
    x = XPoly.x()
    assert weighted_stirling2(2, 1) == 2 * x + 1
    assert weighted_stirling1(2, 1) == 2 * x + 1
    assert weighted_stirling1(4, 2)(Fraction(0)) == 11
    assert weighted_stirling2(0, 0) == XPoly.one()


# ---------------------------------------------------------------------------
# classical polynomial families


def test_euler_poly_matches_recurrence():
    want = oracles.euler_polys_rec(12)
    for n in range(13):
        assert euler_poly(n).coeffs == tuple(want[n])


def test_euler_poly_derivative_rule():
    for n in range(1, 12):
        assert oracles.derivative(euler_poly(n)) == n * euler_poly(n - 1)


def test_euler_poly_center_values_match_secant_numbers():
    secant = oracles.euler_numbers_sech(12)
    for n in range(13):
        assert 2**n * euler_poly(n)(Fraction(1, 2)) == secant[n]


def test_bernoulli_order_one_matches_number_recurrence():
    numbers = oracles.bernoulli_numbers(12)
    for n in range(13):
        assert bernoulli_order(n, 1)(Fraction(0)) == numbers[n]
    assert bernoulli_order(2, 1)(Fraction(0)) == Fraction(1, 6)


def test_bernoulli_order_zero_is_plain_power():
    for n in range(8):
        assert bernoulli_order(n, 0) == XPoly.monomial(n)


def test_bernoulli_order_two_is_convolution_of_order_one():
    for n in range(10):
        want = XPoly.zero()
        for i in range(n + 1):
            want = want + math.comb(n, i) * bernoulli_order(i, 1)(
                Fraction(0)
            ) * bernoulli_order(n - i, 1)
        assert bernoulli_order(n, 2) == want


def test_frobenius_euler_at_minus_one_is_euler_poly():
    want = oracles.euler_polys_rec(12)
    for n in range(13):
        assert frobenius_euler(n, 1, Fraction(-1)).coeffs == tuple(want[n])


def test_classical_families_read_one_column_each(monkeypatch):
    # every column index is computed once, and no series is multiplied,
    # powered or inverted: euler_poly, bernoulli_order(., s) and
    # frobenius_euler(., s, u) read one growing column per (s, u)
    computed = Counter()
    grow = egf.grow_power

    def counted(coeff, alpha, r, n):
        start = len(r)
        grow(coeff, alpha, r, n)
        computed.update((id(r), j) for j in range(start, len(r)))

    def forbidden(*args):
        raise AssertionError("a classical family built a series")

    monkeypatch.setattr(egf, "grow_power", counted)
    for name in ("mul", "pow", "reciprocal"):
        monkeypatch.setattr(EgfSeries, name, forbidden)
    clear_caches()
    for n in range(31):
        euler_poly(n)
        for s in range(4):
            bernoulli_order(n, s)
            for u in (Fraction(-1), Fraction(2), Fraction(1, 2)):
                frobenius_euler(n, s, u)
    clear_caches()
    # columns for s = 0..3 (Bernoulli) and (s, u) pairs (Frobenius-Euler),
    # s = 1, u = -1 serving euler_poly too
    assert len(computed) == (4 + 4 * 3) * 31
    assert set(computed.values()) == {1}


def test_frobenius_euler_small_value():
    assert frobenius_euler(1, 1, Fraction(2)) == XPoly([1, 1])
    assert frobenius_euler(0, 3, Fraction(1, 2)) == XPoly.one()


def test_frobenius_euler_rejects_u_one():
    with pytest.raises(ValueError):
        frobenius_euler(2, 1, Fraction(1))


def test_frobenius_euler_rejects_float_u():
    # a float u would expand to a polynomial in its binary value
    with pytest.raises(TypeError, match="u must be int or Fraction"):
        frobenius_euler(2, 1, 0.1)


# ---------------------------------------------------------------------------
# polylogarithm coefficients


def li_coeffs(k, params, order):
    """Ordinary coefficients 0..order of Li_k, as the gf columns read them."""
    return [sequences._li_coeff(m, k, params) for m in range(order + 1)]


def test_li_coeffs_start_at_zero():
    params = PQParams(Fraction(1, 2), Fraction(1, 3))
    got = li_coeffs(2, params, 3)
    assert got == [0, 1, Fraction(36, 25), Fraction(1296, 361)]
    # k = 0 collapses to the geometric coefficients
    assert li_coeffs(0, params, 4) == [0, 1, 1, 1, 1]


def test_lif_coeffs_values():
    params = PQParams(Fraction(1, 2), Fraction(1, 3))
    got = [sequences._lif_coeff(m, 1, params) for m in range(4)]
    assert got == [
        1,
        Fraction(6, 5),
        Fraction(36, 19) / 2,
        Fraction(216, 65) / 6,
    ]


def test_li_negative_k_uses_positive_powers():
    params = PQParams(Fraction(1, 2), Fraction(1, 3))
    got = li_coeffs(-2, params, 2)
    assert got == [0, 1, Fraction(25, 36)]


# ---------------------------------------------------------------------------
# rational closed forms


def test_rational_function_equality_is_cross_multiplication():
    z = XPoly.x()
    a = RationalFunction(z, XPoly.one() - z)
    b = RationalFunction(2 * z, XPoly([2, -2]))
    assert a == b
    c = RationalFunction(z, XPoly.one() + z)
    assert a != c


def test_rational_function_rejects_vanishing_denominator_at_zero():
    with pytest.raises(ValueError):
        RationalFunction(XPoly.one(), XPoly.x())


def test_rational_function_geometric_taylor():
    geom = RationalFunction(XPoly.one(), XPoly([1, -1]))
    assert oracles.taylor_coeffs(geom, 5) == [1, 1, 1, 1, 1, 1]
    ratio = RationalFunction(XPoly.one(), XPoly([1, Fraction(-1, 2)]))
    want = [Fraction(1, 2) ** n for n in range(5)]
    assert oracles.taylor_coeffs(ratio, 4) == want


@pytest.mark.parametrize("params", GENERIC_POINTS)
@pytest.mark.parametrize("k", [0, -1, -2, -3])
def test_closed_form_taylor_matches_series_coefficients(k, params):
    closed = li_pq_closed_form(k, params)
    assert oracles.taylor_coeffs(closed, 20) == li_coeffs(k, params, 20)


def test_closed_form_rejects_positive_weight():
    params = PQParams(Fraction(1, 2), Fraction(1, 3))
    with pytest.raises(ValueError):
        li_pq_closed_form(1, params)


def test_closed_form_rejects_equal_parameters():
    params = PQParams(Fraction(2, 3), Fraction(2, 3))
    with pytest.raises(ValueError):
        li_pq_closed_form(0, params)


@pytest.mark.parametrize(
    "triangle, base",
    [
        ("weighted_stirling2", sequences._exp_minus_one),
        ("weighted_stirling1", sequences._neg_log1m),
    ],
)
def test_weighted_table_entries_are_multiples_of_m_factorial(triangle, base):
    # a weighted entry divides column m of its table by m! as an int
    table = sequences._power_table(triangle, base)
    for j in range(41):
        for m, entry in enumerate(table.row(j)):
            assert entry % math.factorial(m) == 0, (triangle, j, m)
