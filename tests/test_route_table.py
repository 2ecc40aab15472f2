"""The route table resolves each route function when the call is made.

Seeded-defect runs and tracing wrappers rebind module attributes such as
``families.cauchy2_via_integral_expansion``; every entry point that goes
through the table must see the rebinding.
"""

from fractions import Fraction

import pytest

from pqpoly import clear_caches, egf, families
from pqpoly.exact import XPoly
from pqpoly.identities import SuiteConfig, run_all
from pqpoly.pqcalc import PQParams, pq_integral_01_monomial

BASE = PQParams(Fraction(1, 2), Fraction(1, 3))


# each entry point, its family and the route check that compares its routes
ENTRY_POINTS = [
    (families.poly_bernoulli, families.FAMILY_POLY_BERNOULLI, "polyberrel1"),
    (families.poly_cauchy_1, families.FAMILY_POLY_CAUCHY_1, "cauchy_routes_1"),
    (families.poly_cauchy_2, families.FAMILY_POLY_CAUCHY_2, "cauchy_routes_2"),
]


@pytest.mark.parametrize(
    "entry, family, route",
    [
        (entry, family, route)
        for entry, family, _ in ENTRY_POINTS
        for route in families.ROUTES_BY_FAMILY[family]
    ],
)
def test_entry_point_is_compute_of_its_family(entry, family, route):
    for n in range(4):
        want = families.compute(family, n, 2, BASE, route)
        assert entry(n, 2, BASE, route) == want
        assert entry(n, 2, BASE, route=route) == want
        if route == families.ROUTE_GF:
            assert entry(n, 2, BASE) == want


def test_rebound_route_reaches_every_entry_point(monkeypatch):
    config = SuiteConfig(n_max=2, k_values=(1,), param_points=(BASE,))
    for entry, family, check_id in ENTRY_POINTS:
        # the last route listed: the integral route of each Cauchy kind and
        # the weighted-Stirling route of poly-Bernoulli
        route, name = list(families.ROUTES_BY_FAMILY[family].items())[-1]
        real = getattr(families, name)

        def skewed(n, k, params, real=real):
            return real(n, k, params) + XPoly.one()

        monkeypatch.setattr(families, name, skewed)
        want = real(3, 2, BASE) + XPoly.one()

        assert entry(3, 2, BASE, route) == want, family
        assert entry(3, 2, BASE, route=route) == want, family
        assert families.compute(family, 3, 2, BASE, route) == want, family

        (report,) = run_all(config, only=[check_id])
        assert not report.passed, family
        assert report.first_failure is not None, family
        monkeypatch.undo()


def test_integral_routes_go_through_the_integral(monkeypatch):
    def skewed(power, params):
        value = pq_integral_01_monomial(power, params)
        return value + 1 if power == 1 else value

    routes = (
        families.cauchy1_via_integral_expansion,
        families.cauchy2_via_integral_expansion,
    )
    before = [route(4, 2, BASE) for route in routes]
    monkeypatch.setattr(families, "pq_integral_01_monomial", skewed)
    for route, value in zip(routes, before):
        assert route(4, 2, BASE) != value, route.__name__

    config = SuiteConfig(n_max=4, k_values=(2,), param_points=(BASE,))
    reports = run_all(config, only=["cauchy_routes_1", "cauchy_routes_2"])
    assert [r.id for r in reports if not r.passed] == [
        "cauchy_routes_1",
        "cauchy_routes_2",
    ]


def test_integral_routes_build_each_appell_polynomial_once(monkeypatch):
    # A_m does not depend on n or on the kind: one appell call per m serves
    # every value n >= m of both routes (the routes once made 182 here)
    calls = []
    appell = egf.appell

    def counted(base, n, sign=1):
        calls.append(n)
        return appell(base, n, sign)

    monkeypatch.setattr(egf, "appell", counted)
    try:
        clear_caches()
        for n in range(13):
            families.cauchy1_via_integral_expansion(n, 2, BASE)
            families.cauchy2_via_integral_expansion(n, 2, BASE)
        assert sorted(calls) == list(range(13))
    finally:
        monkeypatch.undo()
        clear_caches()


@pytest.mark.parametrize("family", sorted(families.ROUTES_BY_FAMILY))
def test_integral_route_needs_positive_weight(family):
    table = tuple(families.ROUTES_BY_FAMILY[family])
    assert families.ROUTE_INTEGRAL not in families.routes(family, 0)
    assert families.routes(family, 1) == table



def test_routes_of_an_unknown_family_raise():
    with pytest.raises(ValueError, match="unknown family 'nope'"):
        families.routes("nope", 1)


def test_route_agreement_checks_every_listed_route(monkeypatch):
    def skewed(n, k, params):
        return families.bernoulli_via_gf(n, k, params) + XPoly.one()

    monkeypatch.setattr(families, "bernoulli_skewed", skewed, raising=False)
    table = families.ROUTES_BY_FAMILY[families.FAMILY_POLY_BERNOULLI]
    monkeypatch.setitem(
        families.ROUTES_BY_FAMILY,
        families.FAMILY_POLY_BERNOULLI,
        {**table, "skewed": "bernoulli_skewed"},
    )

    config = SuiteConfig(n_max=2, k_values=(1,), param_points=(BASE,))
    (report,) = run_all(config, only=["polyberrel1"])
    assert not report.passed
    assert report.first_failure["rhs"] == skewed(1, 1, BASE).to_strings()


@pytest.mark.parametrize(
    "family, route",
    [
        (family, route)
        for family, table in sorted(families.ROUTES_BY_FAMILY.items())
        for route in table
    ],
)
def test_every_route_rejects_negative_n(family, route):
    compute_route = getattr(families, families.ROUTES_BY_FAMILY[family][route])
    with pytest.raises(ValueError, match="n must be nonnegative"):
        compute_route(-1, 1, BASE)
