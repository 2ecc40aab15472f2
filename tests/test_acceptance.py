"""Acceptance gate: one test per criterion, each printing a PASS line.

Run with ``pytest -v tests/test_acceptance.py`` to get one line per
criterion.  Everything here is exact arithmetic; the only tolerances are
wall-clock budgets.
"""

import json
import pathlib
import subprocess
import sys
import time
from fractions import Fraction

from pqpoly import sequences
from pqpoly.exact import XPoly
from pqpoly.families import (
    ROUTE_GF,
    ROUTE_INTEGRAL,
    ROUTE_STIRLING,
    poly_bernoulli,
    poly_cauchy_1,
    poly_cauchy_2,
    poly_euler,
)
from pqpoly.identities import (
    CHECK_IDS,
    DEFAULT_PARAM_POINTS,
    SuiteConfig,
    eucls_tail_term,
    run_all,
    tid1_tail_term,
    tid2_tail_term,
)
from pqpoly.pqcalc import PQParams
from pqpoly.sequences import RationalFunction, euler_poly, li_pq_closed_form

from . import oracles

GENERIC_POINTS = [
    PQParams(Fraction(1, 2), Fraction(1, 3)),
    PQParams(Fraction(3, 4), Fraction(1, 5)),
    PQParams(Fraction(1), Fraction(2, 7)),
]
CLASSICAL = PQParams(Fraction(1), Fraction(1))


def _announce(capsys, text: str) -> None:
    with capsys.disabled():
        print(text, flush=True)


def _display_closed_form(k: int, params: PQParams) -> RationalFunction:
    """The four low-weight closed forms, written out factor by factor."""
    z = XPoly.x()
    one = XPoly.one()
    p, q = params.p, params.q
    if k == 0:
        return RationalFunction(z, one - z)
    if k == -1:
        return RationalFunction(z, (one - p * z) * (one - q * z))
    if k == -2:
        num = z * (one + p * q * z)
        den = (one - p**2 * z) * (one - q**2 * z) * (one - p * q * z)
        return RationalFunction(num, den)
    if k == -3:
        num = z * XPoly([1, 2 * p**2 * q + 2 * p * q**2, p**3 * q**3])
        den = (
            (one - p**3 * z)
            * (one - q**3 * z)
            * (one - p**2 * q * z)
            * (one - p * q**2 * z)
        )
        return RationalFunction(num, den)
    raise ValueError(f"no display form for k={k}")


def test_criterion_1_closed_forms(capsys):
    started = time.monotonic()
    for params in GENERIC_POINTS:
        for k in (0, -1, -2, -3):
            computed = li_pq_closed_form(k, params)
            assert computed == _display_closed_form(k, params)
            assert oracles.taylor_coeffs(computed, 20) == [
                sequences._li_coeff(m, k, params) for m in range(21)
            ]
    elapsed = time.monotonic() - started
    assert elapsed < 1.0, f"budget exceeded: {elapsed:.2f}s"
    _announce(
        capsys,
        f"CRITERION 1 PASS closed forms k=0..-3 at 3 points ({elapsed:.2f}s)",
    )


def test_criterion_2_classical_anchors(capsys):
    started = time.monotonic()
    bernoulli = oracles.bernoulli_numbers(10)
    for n in range(11):
        got = poly_bernoulli(n, 1, CLASSICAL)(Fraction(0))
        assert got == (-1) ** n * bernoulli[n]
    cauchy = oracles.cauchy_numbers(10)
    for n in range(11):
        assert poly_cauchy_1(n, 1, CLASSICAL)(Fraction(0)) == cauchy[n]
    assert poly_euler(0, 1, CLASSICAL) == XPoly.zero()
    for n in range(1, 11):
        assert poly_euler(n, 1, CLASSICAL) == n * euler_poly(n - 1)
    for m in range(5):
        value = abs(2 ** (2 * m) * euler_poly(2 * m)(Fraction(1, 2)))
        assert value == oracles.alternating_count(2 * m)
    elapsed = time.monotonic() - started
    assert elapsed < 5.0, f"budget exceeded: {elapsed:.2f}s"
    _announce(
        capsys,
        f"CRITERION 2 PASS classical anchors n<=10 ({elapsed:.2f}s)",
    )


def test_criterion_3_identity_suite(capsys):
    started = time.monotonic()
    reports = run_all(SuiteConfig())
    elapsed = time.monotonic() - started
    failing = [r.id for r in reports if not r.passed]
    assert failing == [], failing
    assert not any(r.vacuous for r in reports)
    cells = sum(r.cells_total for r in reports)
    assert elapsed < 120.0, f"budget exceeded: {elapsed:.2f}s"
    _announce(
        capsys,
        f"CRITERION 3 PASS {len(reports)} identity checks, "
        f"{cells} cells, 0 failures ({elapsed:.2f}s)",
    )


def test_criterion_4_truncation_tails(capsys):
    started = time.monotonic()
    for tail in (eucls_tail_term, tid1_tail_term, tid2_tail_term):
        for params in DEFAULT_PARAM_POINTS:
            for k in range(-2, 4):
                for n in range(1, 9):
                    value = tail(n, k, params)
                    assert value == 0 * value, (tail.__name__, n, k)
    elapsed = time.monotonic() - started
    assert elapsed < 5.0, f"budget exceeded: {elapsed:.2f}s"
    _announce(
        capsys,
        f"CRITERION 4 PASS truncation tails vanish n<=8 ({elapsed:.2f}s)",
    )


APPELL_HIGH_TERM_KILLS = [
    "appell_i", "appell_ii", "appell_iii", "appell_iv", "eucls", "tid1",
    "tid2", "tid3", "tid4", "euler_bernoulli", "polyberrel1",
    "cauchy_routes_1", "cauchy_routes_2", "invrel1", "cross_b_from_c",
    "cross_b_from_chat", "cross_c_from_b", "cross_chat_from_b",
]


MUTANTS = (
    "stirling2-off-by-one",
    "cauchy1-stirling-sign-flip",
    "cauchy1-integral-at-neg-x",
    "cauchy2-integral-drops-sign",
    "polylog-coeff-exponent-sign",
    "stirling-weight-exponent-sign",
    "li-classical",
    "egf-pow-extra-factor",
    "power-rows-drop-cube",
    "reciprocal-drops-first-term",
    "appell-high-term",
    "sum-products-drops-last-term",
    "poly-euler-number",
    "weighted-stirling2-extra-term",
    "weighted-stirling1-extra-term",
    "ws1-neg-x-extra-term",
    "bernoulli-gf-at-neg-x",
    "bernoulli-stirling-drops-top-term",
    "cauchy1-gf-second-kind-inner",
    "cauchy2-gf-at-neg-x",
    "cauchy2-stirling-drops-sign",
    "lif-coeff-drops-factorial",
    "push-over-skips-rescale",
    "bernoulli-order-extra-term",
    "frobenius-euler-extra-term",
    "weighted-values-drops-last-point",
)

# each mutant's failing checks, and none under "none", as recorded; a change
# meant to alter a kill re-records them: PYTHONPATH=src python -m
# tests.test_acceptance
MUTATION_KILLS = pathlib.Path(__file__).with_name("mutation_kills.json")


def _mutation_run(name: str) -> subprocess.CompletedProcess:
    script = pathlib.Path(__file__).with_name("mutation_driver.py")
    return subprocess.run(
        [sys.executable, str(script), name], capture_output=True, text=True
    )


def test_every_check_has_a_recorded_kill():
    # the recorded table alone, without a run: every check fails under
    # some listed mutant
    kills = json.loads(MUTATION_KILLS.read_text(encoding="utf-8"))
    assert set(kills) == {*MUTANTS, "none"}
    killed = set().union(*kills.values())
    assert killed == set(CHECK_IDS), sorted(set(CHECK_IDS) - killed)


def test_mutation_matrix_names_every_check():
    # the matrix reads the recorded table alone: one line per check in
    # registry order, its killers, and a mark where none kills it alone
    script = pathlib.Path(__file__).with_name("mutation_driver.py")
    proc = subprocess.run(
        [sys.executable, str(script), "--matrix"], capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    kills = json.loads(MUTATION_KILLS.read_text(encoding="utf-8"))
    lines = proc.stdout.splitlines()
    assert [line.split(":")[0] for line in lines] == list(CHECK_IDS)
    lone = {failing[0] for failing in kills.values() if len(failing) == 1}
    for check_id, line in zip(CHECK_IDS, lines):
        listed = line.split(": ", 1)[1]
        killers = [name for name, failing in kills.items() if check_id in failing]
        assert listed.removesuffix("  (never alone)").split(", ") == killers
        assert listed.endswith("  (never alone)") == (check_id not in lone)


def test_criterion_5_mutation_sensitivity(capsys):
    kills = json.loads(MUTATION_KILLS.read_text(encoding="utf-8"))
    caught, killed = [], set()
    for name in MUTANTS:
        proc = _mutation_run(name)
        assert proc.returncode == 1, (name, proc.returncode, proc.stderr)
        payload = json.loads(proc.stdout)
        assert payload["mutation"] == name
        assert payload["failing"], f"suite blind to mutation {name}"
        assert payload["failing"] == kills.pop(name), payload
        if name == "power-rows-drop-cube":
            # each Cauchy route loses a different term of the rows, so a
            # route comparison sees it
            assert set(payload["failing"]) & {
                "polyberrel1", "cauchy_routes_1", "cauchy_routes_2"
            }, payload
        if name == "egf-pow-extra-factor":
            # tid3 and tid4 read bernoulli_order and frobenius_euler at s >= 1
            assert set(payload["failing"]) & {"tid3", "tid4"}, payload
        if name == "reciprocal-drops-first-term":
            # euler_bernoulli reads only the poly-Euler column, so the
            # rebinding reaches families; tid3 and tid4 reach it through
            # bernoulli_order and frobenius_euler
            assert "euler_bernoulli" in payload["failing"], payload
            assert set(payload["failing"]) & {"tid3", "tid4"}, payload
        if name == "cauchy1-integral-at-neg-x":
            assert "cauchy_routes_1" in payload["failing"], payload
        if name == "cauchy2-integral-drops-sign":
            assert "cauchy_routes_2" in payload["failing"], payload
        if name == "polylog-coeff-exponent-sign":
            # the invrel right sides read [n+1]^(-k) without the
            # coefficient functions:
            # invrel1 sums poly-Bernoulli values (Li_k), invrel2 and
            # invrel3 poly-Cauchy ones (Lif_k)
            assert "invrel1" in payload["failing"], payload
            assert set(payload["failing"]) & {"invrel2", "invrel3"}, payload
        if name == "stirling-weight-exponent-sign":
            # only the weighted-Stirling routes read the cached weight, so
            # only the route comparisons see it
            assert payload["failing"] == [
                "polyberrel1", "cauchy_routes_1", "cauchy_routes_2"
            ], payload
        if name == "appell-high-term":
            # appell_i compares the Appell expansion E_n with its sum over
            # the numbers E_i, each other Appell check reads E_n at a
            # shifted or scaled argument, and the integral routes read
            # their cached Appell polynomials through the rebound egf.appell
            assert payload["failing"] == APPELL_HIGH_TERM_KILLS, payload
        if name == "sum-products-drops-last-term":
            # every Cauchy route goes through the kernel, each over terms
            # of its own, and the cross relations' left sides are single
            # family values
            failing = set(payload["failing"])
            assert failing & {"cauchy_routes_1", "cauchy_routes_2"}, payload
            assert any(i.startswith("cross_") for i in failing), payload
        if name == "poly-euler-number":
            # appell_i's left side is the Appell expansion read off the
            # poly-Euler column; its right side alone reads the numbers
            assert "appell_i" in payload["failing"], payload
        if name == "weighted-stirling2-extra-term":
            # the inner sums of the cross relations from C and Chat read W2
            assert {"cross_b_from_c", "cross_b_from_chat"} <= set(
                payload["failing"]
            ), payload
        if name == "weighted-stirling1-extra-term":
            # the Bernoulli inner sum of the cross relations to C and Chat
            # reads W1
            assert {"cross_c_from_b", "cross_chat_from_b"} <= set(
                payload["failing"]
            ), payload
        if name == "ws1-neg-x-extra-term":
            # a kill of the cross relations' own: no invrel check reads the
            # outer triangle of cross_chat_from_b
            assert payload["failing"] == ["cross_chat_from_b"], payload
        killed.update(payload["failing"])
        caught.append(f"{name} -> {','.join(payload['failing'])}")
    # every check fails under at least one seeded defect
    assert killed == set(CHECK_IDS), sorted(set(CHECK_IDS) - killed)
    baseline = _mutation_run("none")
    assert baseline.returncode == 0, baseline.stdout
    assert json.loads(baseline.stdout)["failing"] == kills.pop("none")
    assert kills == {}, "recorded kills of no listed mutant"
    _announce(
        capsys,
        "CRITERION 5 PASS seeded defects detected: " + "; ".join(caught),
    )


def test_criterion_6_route_agreement(capsys):
    started = time.monotonic()
    for params in DEFAULT_PARAM_POINTS:
        for n in range(11):
            for k in range(-2, 4):
                assert poly_bernoulli(
                    n, k, params, ROUTE_GF
                ) == poly_bernoulli(n, k, params, ROUTE_STIRLING)
                for compute in (poly_cauchy_1, poly_cauchy_2):
                    via_gf = compute(n, k, params, ROUTE_GF)
                    assert via_gf == compute(n, k, params, ROUTE_STIRLING)
                    if k >= 1:
                        assert via_gf == compute(
                            n, k, params, ROUTE_INTEGRAL
                        )
    elapsed = time.monotonic() - started
    assert elapsed < 30.0, f"budget exceeded: {elapsed:.2f}s"
    _announce(
        capsys,
        f"CRITERION 6 PASS route agreement n<=10 at 5 points ({elapsed:.2f}s)",
    )


if __name__ == "__main__":
    table = {
        name: json.loads(_mutation_run(name).stdout)["failing"]
        for name in (*MUTANTS, "none")
    }
    MUTATION_KILLS.write_text(json.dumps(table, indent=2) + "\n", encoding="utf-8")
