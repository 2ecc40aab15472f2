import hashlib
import inspect
import json
import math
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from functools import partial
from pathlib import Path

import pytest
from hypothesis import given, settings

import pqpoly
from pqpoly import exact, families, identities, pqcalc, sequences
from pqpoly.exact import XPoly
from pqpoly.identities import (
    _CHECKS_BY_ID,
    CHECK_IDS,
    CHECKS,
    DEFAULT_PARAM_POINTS,
    IdentityCheck,
    IdentityReport,
    SuiteConfig,
    eucls_tail_term,
    run_all,
    run_check,
    tid1_tail_term,
    tid2_tail_term,
    y_samples,
)
from pqpoly.pqcalc import PQParams

from .test_pqcalc import box_params_st

SMALL = SuiteConfig(
    n_max=5,
    k_values=(-1, 1, 2),
    s_values=(1, 2),
    u_values=(Fraction(-1), Fraction(2)),
    scale_values=(1, 2),
    param_points=(
        PQParams(Fraction(1, 2), Fraction(1, 3)),
        PQParams(Fraction(1), Fraction(1)),
    ),
)


def test_registry_ids_are_unique_and_ordered():
    assert len(CHECK_IDS) == len(set(CHECK_IDS)) == len(CHECKS)
    assert CHECK_IDS[0] == "appell_i"
    assert "orthogonality" in CHECK_IDS
    assert "vandermonde_2" in CHECK_IDS


def test_all_checks_pass_on_reduced_grid():
    reports = run_all(SMALL)
    assert [r.id for r in reports] == list(CHECK_IDS)
    for report in reports:
        assert report.passed, (report.id, report.first_failure)
        assert report.first_failure is None


# route agreement for the three families, and the inversions back to the
# deformed integers, which read the weighted Stirling triangles
RANDOM_POINT_CHECKS = (
    "polyberrel1",
    "cauchy_routes_1",
    "cauchy_routes_2",
    "invrel1",
    "invrel2",
    "invrel3",
)


@settings(max_examples=30, deadline=None)
@given(box_params_st())
def test_routes_and_inversions_hold_at_random_points(params):
    config = SuiteConfig(
        n_max=6, k_values=(-2, -1, 0, 1, 2, 3), param_points=(params,)
    )
    reports = run_all(config, only=RANDOM_POINT_CHECKS)
    assert [r.id for r in reports] == list(RANDOM_POINT_CHECKS)
    for report in reports:
        assert report.passed, (params, report.id, report.first_failure)


def test_runs_are_deterministic():
    a = [r.to_json_obj() for r in run_all(SMALL)]
    b = [r.to_json_obj() for r in run_all(SMALL)]
    assert a == b


def _grid_cells(check_id: str, config: SuiteConfig) -> list[dict]:
    """A check's cells in order, from the grid definition alone: n, k,
    params, then the check's own axes; orthogonality runs n, m, direction."""
    if check_id == "orthogonality":
        return [
            {"n": n, "m": m, "direction": direction}
            for n in range(config.n_max + 1)
            for m in range(n + 1)
            for direction in ("s2_then_s1", "s1_then_s2")
        ]
    shifted = (
        "eucls", "euler_bernoulli", "polyberrel1", "vandermonde_1", "vandermonde_2"
    )
    top = config.n_max
    if check_id.startswith("appell_"):
        top = min(top, identities.APPELL_N_CAP)
    if check_id.startswith("cross_"):
        top = min(top, identities.CROSS_N_CAP)

    def axes(n: int) -> list[dict]:
        if check_id == "appell_ii" or check_id.startswith("cross_"):
            return [{"y": y} for y in y_samples(n)]
        if check_id == "appell_iii":
            return [{"m": m} for m in config.scale_values]
        if check_id == "tid3":
            return [{"s": s} for s in config.s_values]
        if check_id == "tid4":
            return [
                {"s": s, "u": u} for s in config.s_values for u in config.u_values
            ]
        return [{}]

    return [
        {"n": n, "k": k, "params": params, **extra}
        for n in range(1 if check_id in shifted else 0, top + 1)
        for k in config.k_values
        for params in config.param_points
        for extra in axes(n)
    ]


@pytest.mark.parametrize("config", [SMALL, SuiteConfig(n_max=3)])
@pytest.mark.parametrize("check_id", CHECK_IDS)
def test_cells_come_in_grid_order(check_id, config):
    # the first failure a report names is the first failing cell in this
    # order; the key order is the order of the serialized cell's fields,
    # which the evaluator's parameters name
    check = _CHECKS_BY_ID[check_id]
    grid = _grid_cells(check_id, config)
    assert list(check.build_cells(config)) == [tuple(cell.values()) for cell in grid]
    assert {identities._cell_fields(check.evaluate)} == {tuple(cell) for cell in grid}


def _positional_parameters(evaluate) -> list[str]:
    return [
        name
        for name, parameter in inspect.signature(evaluate).parameters.items()
        if parameter.kind is parameter.POSITIONAL_OR_KEYWORD
    ]


@pytest.mark.parametrize("check_id", CHECK_IDS)
def test_each_cell_binds_to_its_evaluator(check_id):
    # a cell is passed positionally: its length is the evaluator's positional
    # parameter count, and it leads with n, k, params (n, m, direction for
    # orthogonality), so a field-order slip fails here and not as an identity
    check = _CHECKS_BY_ID[check_id]
    names = _positional_parameters(check.evaluate)
    if check_id == "orthogonality":
        assert names[:3] == ["n", "m", "direction"]
    else:
        assert names[:3] == ["n", "k", "params"]
    assert list(identities._cell_fields(check.evaluate)) == names
    cells = list(check.build_cells(SMALL))
    assert cells
    for cell in cells:
        assert type(cell) is tuple and len(cell) == len(names), cell
        n, second, third = cell[:3]
        assert type(n) is int
        if check_id == "orthogonality":
            assert type(second) is int and third in ("s2_then_s1", "s1_then_s2")
        else:
            assert second in SMALL.k_values and third in SMALL.param_points


def test_only_filter_selects_in_registry_order():
    reports = run_all(SMALL, only=["invrel1", "appell_ii"])
    assert [r.id for r in reports] == ["appell_ii", "invrel1"]


def test_unknown_check_id_rejected():
    with pytest.raises(ValueError, match="unknown check ids"):
        run_all(SMALL, only=["appell_i", "bogus"])


def test_zero_nmax_leaves_shifted_checks_vacuous():
    tiny = SuiteConfig(
        n_max=0,
        k_values=(1,),
        s_values=(1,),
        u_values=(Fraction(-1),),
        scale_values=(1,),
        param_points=(PQParams(Fraction(1, 2), Fraction(1, 3)),),
    )
    reports = {r.id: r for r in run_all(tiny)}
    for check_id in (
        "eucls",
        "euler_bernoulli",
        "polyberrel1",
        "vandermonde_1",
        "vandermonde_2",
    ):
        assert reports[check_id].vacuous
        assert not reports[check_id].passed
    assert reports["appell_i"].passed


def test_first_failure_records_the_cell_and_both_sides():
    failing = IdentityCheck(
        id="always_off",
        build_cells=lambda config: [
            (0, 1, config.param_points[0]),
            (1, 1, config.param_points[0]),
        ],
        evaluate=lambda n, k, params: (Fraction(1), Fraction(2)),
    )
    report = run_check(failing, SMALL)
    assert report.cells_total == 2
    assert report.cells_passed == 0
    assert not report.passed
    failure = report.first_failure
    assert failure["cell"] == {"n": 0, "k": 1, "p": "1/2", "q": "1/3"}
    assert failure["lhs"] == ["1/1"]
    assert failure["rhs"] == ["2/1"]


# the reports of run_all over the mutation driver's reduced grid under two
# seeded defects, as JSON, recorded before run_check took positional cells:
# between them the failing cells have every shape (y, m, s, u, direction,
# and the route, invrel, cross and vandermonde checks), so these digests
# pin each first_failure["cell"] byte for byte, its key order included
FAILING_REPORT_DIGESTS = {
    "sum-products-drops-last-term": (
        "addb27b30a177c9d46ac6f6620d2d84799d486b5e86e681b2edd3a0f6c551aa6"
    ),
    "egf-pow-extra-factor": (
        "d90070a8f3dda7b13da235de5603ffadde50ac646a9d4cac07cc5a83cb733fda"
    ),
}

_FAILING_REPORTS = """
import json, sys
sys.path.insert(0, sys.argv[1])
from mutation_driver import MUTATIONS, REDUCED
from pqpoly.identities import run_all
MUTATIONS[sys.argv[2]]()
print(json.dumps([r.to_json_obj() for r in run_all(REDUCED)], indent=2))
"""


def _failing_reports(mutation: str) -> str:
    """The reports' JSON text from a fresh process, so the caches fill
    after the rebinding."""
    proc = subprocess.run(
        [sys.executable, "-c", _FAILING_REPORTS, str(Path(__file__).parent), mutation],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@pytest.mark.parametrize("mutation", FAILING_REPORT_DIGESTS)
def test_failing_reports_match_their_recorded_digest(mutation):
    text = _failing_reports(mutation)
    assert _sha256(text) == FAILING_REPORT_DIGESTS[mutation]
    # the digest sees the order of a cell's fields: swapping the first two
    # of one failing cell changes it
    reports = json.loads(text)
    cell = next(r["first_failure"]["cell"] for r in reports if "first_failure" in r)
    first, second, *rest = cell
    swapped = {second: cell[second], first: cell[first], **{k: cell[k] for k in rest}}
    cell.clear()
    cell.update(swapped)
    assert _sha256(json.dumps(reports, indent=2) + "\n") != _sha256(text)


def test_report_json_shape():
    report = IdentityReport("demo", 3, 3)
    assert report.to_json_obj() == {
        "id": "demo",
        "cells_total": 3,
        "cells_passed": 3,
    }


def test_y_samples_are_distinct_half_integers():
    points = y_samples(6)
    assert len(points) == 7
    assert len(set(points)) == 7
    for value in points:
        assert value.denominator == 2


def test_default_param_points_include_both_modes():
    modes = {params.is_equal_limit for params in DEFAULT_PARAM_POINTS}
    assert modes == {False, True}


@pytest.mark.parametrize(
    "tail", [eucls_tail_term, tid1_tail_term, tid2_tail_term]
)
def test_truncation_tails_vanish_on_small_window(tail):
    params = PQParams(Fraction(1, 2), Fraction(1, 3))
    for n in range(1, 6):
        for k in (-1, 1, 2):
            value = tail(n, k, params)
            assert value == 0 * value


def test_truncation_tails_can_fail(monkeypatch):
    # a Stirling table that is nonzero above the diagonal must show up in
    # the tails, so the vanishing checks above are not zero by construction
    real = sequences.stirling2
    monkeypatch.setattr(
        sequences, "stirling2", lambda n, m: 1 if m > n else real(n, m)
    )
    params = PQParams(Fraction(1, 2), Fraction(1, 3))
    for tail in (tid1_tail_term, tid2_tail_term):
        value = tail(2, 1, params)
        assert value != 0 * value, tail.__name__
    # the eucls tail is an (n+1)-fold finite difference, zero for any
    # degree-n basis; a basis of degree n + 1 must show up in it
    monkeypatch.setattr(
        identities,
        "_classical_euler_shifted",
        lambda n, j: sequences.euler_poly(n + 1).affine(1, -j),
    )
    assert eucls_tail_term(2, 1, params) == XPoly.const(Fraction(216, 19))


@pytest.mark.parametrize(
    "field, value, error, match",
    [
        ("u_values", (Fraction(-1), Fraction(1)), ValueError, "u_values.*u = 1"),
        ("s_values", (1, -1), ValueError, "s_values.*-1"),
        ("n_max", -1, ValueError, "n_max.*-1"),
        ("scale_values", (0,), ValueError, "scale_values.*0"),
        ("u_values", (0.5,), TypeError, "u_values.*float"),
        ("k_values", (1, 2.0), TypeError, "k_values.*float"),
        ("param_points", ((Fraction(1, 2), Fraction(1, 3)),), TypeError, "PQParams"),
    ],
)
def test_suite_config_rejects_an_invalid_grid(field, value, error, match):
    with pytest.raises(error, match=match):
        SuiteConfig(**{field: value})
    with pytest.raises(error, match=match):
        SuiteConfig()._replace(**{field: value})


# ---------------------------------------------------------------------------
# eucls, tid1 and tid2 sum a scalar weight per basis polynomial, and tid3
# and tid4 regroup their right sides around cached inner sums; the double
# sums below are the right sides as written in the paper, term by term


def _eucls_double_sum(n, k, params):
    rhs = XPoly.zero()
    for l in range(n):
        for j in range(l + 2):
            rhs = rhs + (
                (-1) ** j
                * math.comb(l + 1, j)
                * pqcalc.pq_integer(l + 1, params) ** (-k)
            ) * sequences.euler_poly(n).affine(1, -j)
    return rhs


def _tid1_double_sum(n, k, params):
    rhs = XPoly.zero()
    for l in range(n + 1):
        for i in range(n + 1):
            rhs = rhs + (
                math.comb(n, i)
                * sequences.stirling2(i, l)
                * families.poly_euler(n - i, k, params)(-l)
            ) * exact.rising_factorial(l)
    return rhs


def _tid2_double_sum(n, k, params):
    rhs = XPoly.zero()
    for l in range(n + 1):
        for i in range(n + 1):
            rhs = rhs + (
                math.comb(n, i)
                * sequences.stirling2(i, l)
                * families.poly_euler_number(n - i, k, params)
            ) * exact.falling_factorial(l)
    return rhs


def _tid3_double_sum(n, k, params, s):
    rhs = XPoly.zero()
    for l in range(n + 1):
        outer = math.comb(n, l) * sequences.stirling2(l + s, s)
        for i in range(n - l + 1):
            rhs = rhs + (
                Fraction(outer * math.comb(n - l, i), math.comb(l + s, s))
                * families.poly_euler_number(n - l - i, k, params)
                * sequences.bernoulli_order(i, s)
            )
    return rhs


def _tid4_double_sum(n, k, params, s, u):
    rhs = XPoly.zero()
    for l in range(n + 1):
        for i in range(s + 1):
            rhs = rhs + (
                math.comb(n, l)
                * math.comb(s, i)
                * (-u) ** (s - i)
                * families.poly_euler(n - l, k, params)(i)
                / (1 - u) ** s
            ) * sequences.frobenius_euler(l, s, u)
    return rhs


REGROUP_POINTS = (
    PQParams(Fraction(3, 4), Fraction(1, 5)),
    PQParams(Fraction(2, 3), Fraction(2, 3)),
)


@pytest.mark.parametrize("params", REGROUP_POINTS)  # p != q and p = q
def test_regrouped_right_sides_match_the_double_sums(params):
    # n = 0 stays in: there eucls sums over no l, and its right side is zero
    for n in range(9):
        for k in (-1, 2):
            for evaluate, double_sum in (
                (identities._eval_eucls, _eucls_double_sum),
                (identities._eval_tid1, _tid1_double_sum),
                (identities._eval_tid2, _tid2_double_sum),
            ):
                _, rhs = evaluate(n, k, params)
                assert rhs == double_sum(n, k, params), (evaluate.__name__, n, k)
            for s in range(4):
                _, rhs = identities._eval_tid3(n, k, params, s)
                assert rhs == _tid3_double_sum(n, k, params, s), (n, k, s)
                for u in (Fraction(-1), Fraction(2), Fraction(1, 2)):
                    _, rhs = identities._eval_tid4(n, k, params, s, u)
                    assert rhs == _tid4_double_sum(n, k, params, s, u), (n, k, s, u)


WEIGHT_POINTS = (
    PQParams(Fraction(1, 2), Fraction(1, 3)),
    PQParams(Fraction(2, 3), Fraction(2, 3)),
    PQParams(Fraction(1), Fraction(1)),
)


@pytest.mark.parametrize("params", WEIGHT_POINTS)  # p != q, p = q and (1, 1)
def test_tid4_weight_matches_the_fraction_sum(params):
    # for u > 1 the denominator (1 - u)^s is negative at odd s
    for u in (Fraction(-1), Fraction(1, 2), Fraction(2), Fraction(3, 2)):
        for s in range(4):
            for k in (-2, 0, 3):
                for m in range(7):
                    want = sum(
                        math.comb(s, i)
                        * (-u) ** (s - i)
                        * families.poly_euler(m, k, params)(i)
                        for i in range(s + 1)
                    ) / (1 - u) ** s
                    got = identities._tid4_weight(
                        m, k, params, s, u.numerator, u.denominator
                    )
                    assert type(got) is Fraction and got == want, (m, k, s, u)


def test_a_skewed_tid4_weight_fails_tid4(monkeypatch):
    params = SMALL.param_points[0]
    weight = identities._tid4_weight
    skewed_key = (2, 1, params, 2, -1, 1)

    def skewed(*key):
        return weight(*key) + Fraction(1, 7) if key == skewed_key else weight(*key)

    monkeypatch.setattr(identities, "_tid4_weight", skewed)
    (report,) = run_all(SMALL, only=["tid4"])
    # the weight of m = 2 enters every cell with n >= 2 at (k, params, s, u)
    assert report.cells_total - report.cells_passed == SMALL.n_max - 1
    assert report.first_failure["cell"] == {
        "n": 2, "k": 1, "p": "1/2", "q": "1/3", "s": 2, "u": "-1/1"
    }


@pytest.mark.parametrize("params", WEIGHT_POINTS)
def test_appell_ii_matches_the_fraction_power_sum(params):
    for n in range(9):
        for k in (-1, 2):
            for y in (*y_samples(n), Fraction(-5, 2)):
                lhs, rhs = identities._eval_appell_ii(n, k, params, y)
                want = sum(
                    (
                        math.comb(n, i) * y ** (n - i)
                        * families.poly_euler(i, k, params)
                        for i in range(n + 1)
                    ),
                    XPoly.zero(),
                )
                assert rhs == want and lhs == want, (n, k, y)


def test_tid2_reads_each_poly_euler_number_once_per_cell(monkeypatch):
    params = SMALL.param_points[0]
    calls = Counter()
    number = families.poly_euler_number

    def counting(*key):
        calls[key] += 1
        return number(*key)

    monkeypatch.setattr(families, "poly_euler_number", counting)
    for n in (0, 1, 6, 12):
        calls.clear()
        identities._eval_tid2(n, 2, params)
        assert calls == Counter((m, 2, params) for m in range(n + 1)), n


def test_tid3_and_tid4_inner_sums_are_computed_once_per_key(monkeypatch):
    # count the uncached work under each cached inner sum: a key computed
    # twice would count its work twice; a tid4 weight reads E_m at its
    # points through one weighted_values call, not through _euler_poly_at
    pqpoly.clear_caches()
    at_calls, number_calls, weight_sums = Counter(), Counter(), [0]
    euler_at = identities._euler_poly_at.__wrapped__
    euler_number = families.poly_euler_number
    weighted_values = XPoly.weighted_values

    def counting_at(*key):
        at_calls[key] += 1
        return euler_at(*key)

    def counting_number(*key):
        number_calls[key] += 1
        return euler_number(*key)

    def counting_sum(self, weights, den):
        weight_sums[0] += 1
        return weighted_values(self, weights, den)

    monkeypatch.setattr(identities, "_euler_poly_at", counting_at)
    monkeypatch.setattr(families, "poly_euler_number", counting_number)
    monkeypatch.setattr(XPoly, "weighted_values", counting_sum)
    reports = run_all(SMALL, only=["tid3", "tid4"])
    assert all(report.passed for report in reports)

    grid = [
        (m, k, params, s)
        for m in range(SMALL.n_max + 1)
        for k in SMALL.k_values
        for params in SMALL.param_points
        for s in SMALL.s_values
    ]
    want_numbers = Counter(
        (m - i, k, params) for m, k, params, _ in grid for i in range(m + 1)
    )
    assert identities._tid3_inner.cache_info().currsize == len(grid)
    weights = len(grid) * len(SMALL.u_values)
    info = identities._tid4_weight.cache_info()
    assert (info.misses, info.currsize) == (weights, weights)
    assert weight_sums == [weights]
    assert at_calls == Counter()
    assert number_calls == want_numbers
    pqpoly.clear_caches()


CROSS_IDS = [
    "cross_b_from_c", "cross_b_from_chat", "cross_c_from_b", "cross_chat_from_b"
]


def test_tid1_and_tid4_cache_lookups_hash_no_fraction(monkeypatch):
    # Fraction.__hash__ computes a modular inverse on every call, so tid1's
    # points and tid4's u key their caches by ints; a warm run hashes none
    pqpoly.clear_caches()
    run_all(SMALL, only=["tid1", "tid4"])
    hashed = []
    fraction_hash = Fraction.__hash__

    def counting(self):
        hashed.append(str(self))
        return fraction_hash(self)

    monkeypatch.setattr(Fraction, "__hash__", counting)
    reports = run_all(SMALL, only=["tid1", "tid4"])
    monkeypatch.undo()
    assert all(report.passed for report in reports)
    assert hashed == []
    pqpoly.clear_caches()


class _CountedStirling(XPoly):
    """A weighted Stirling polynomial that counts its scalar evaluations."""

    __slots__ = ("key", "counts")

    def __call__(self, point):
        self.counts[self.key, point] += 1
        return super().__call__(point)


def test_cross_checks_build_each_inner_sum_once(monkeypatch):
    # the inner sums of the cross relations are polynomials per
    # (m, k, params), each built once; each check folds them into its
    # coefficients R_j in y once per (n, k, params), and a cell evaluates
    # sum_j y^j R_j; no weighted Stirling polynomial is evaluated at a
    # scalar on the way
    pqpoly.clear_caches()
    counts = Counter()

    def counting(kind, table):
        def lookup(n, m):
            poly = _CountedStirling(table(n, m).coeffs)
            poly.key, poly.counts = (kind, n, m), counts
            return poly

        return lookup

    monkeypatch.setattr(
        sequences, "weighted_stirling1", counting(1, sequences.weighted_stirling1)
    )
    monkeypatch.setattr(
        sequences, "weighted_stirling2", counting(2, sequences.weighted_stirling2)
    )
    reports = run_all(SMALL, only=CROSS_IDS)
    assert [r.id for r in reports] == CROSS_IDS
    assert all(report.passed for report in reports)
    assert counts == Counter()

    top = min(SMALL.n_max, identities.CROSS_N_CAP)
    keys = (top + 1) * len(SMALL.k_values) * len(SMALL.param_points)
    # one cache holds the three inner sums, one entry per (sum, m, k, params)
    info = identities._inner_sum.cache_info()
    assert (info.misses, info.currsize) == (3 * keys, 3 * keys)
    assert info.hits > 0
    info = identities._cross_rhs_coeffs.cache_info()
    assert (info.misses, info.currsize) == (4 * keys, 4 * keys)
    cells = sum(report.cells_total for report in reports)
    assert info.hits == cells - 4 * keys
    pqpoly.clear_caches()


def test_invrel_left_sides_are_the_cross_inner_sums():
    # invrel1-3 fill the inner-sum cache, one entry per cell of each; the
    # cross relations then read every Q_m they need from it
    pqpoly.clear_caches()
    reports = run_all(SMALL, only=["invrel1", "invrel2", "invrel3"])
    assert all(report.passed for report in reports)
    cells = reports[0].cells_total
    assert [report.cells_total for report in reports] == [cells] * 3
    before = identities._inner_sum.cache_info()
    assert (before.misses, before.currsize) == (3 * cells, 3 * cells)
    assert all(report.passed for report in run_all(SMALL, only=CROSS_IDS))
    info = identities._inner_sum.cache_info()
    assert (info.misses, info.currsize) == (before.misses, before.currsize)
    assert info.hits > before.hits
    pqpoly.clear_caches()


@pytest.mark.parametrize("check_id", CROSS_IDS)
def test_cross_rhs_in_y_equals_the_sum_over_inner_values(check_id):
    # sum_j y^j R_j equals sum_m c_m Q_m(y) W(n, m) even for an inner sum
    # that depends on y, and then the cross relation fails its cells
    params = PQParams(Fraction(1, 2), Fraction(1, 3))
    evaluate = _CHECKS_BY_ID[check_id].evaluate
    family, inner, outer, alternating, by_factorial = evaluate.args

    def tilted(m, k, params):
        return inner(m, k, params) + XPoly.monomial(m, Fraction(1, 7))

    tilted_eval = partial(
        evaluate.func, family, tilted, outer, alternating, by_factorial
    )
    n, k = 4, 2
    for y in y_samples(n):
        lhs, rhs = tilted_eval(n, k, params, y)
        want = sum(
            (
                (-1) ** (n - m if alternating else n)
                * Fraction(math.factorial(m)) ** (1 if by_factorial else -1)
                * tilted(m, k, params)(y)
                * outer(n, m)
                for m in range(n + 1)
            ),
            XPoly.zero(),
        )
        assert rhs == want
        assert lhs != rhs
        assert evaluate(n, k, params, y) == (lhs, lhs)


@pytest.mark.parametrize("params", SMALL.param_points)  # p != q and p = q
@pytest.mark.parametrize("k", [-1, 2])
def test_cross_inner_sums_match_the_scalar_sums(k, params):
    # the polynomial inner sum at y equals the sum of the values at y
    ws1, ws2 = sequences.weighted_stirling1, sequences.weighted_stirling2
    for m in range(9):
        for y in y_samples(8):
            cauchy1 = sum(
                ws2(m, l)(y) * families.poly_cauchy_1(l, k, params)(y)
                for l in range(m + 1)
            )
            cauchy2 = sum(
                ws2(m, l)(-y) * families.poly_cauchy_2(l, k, params)(y)
                for l in range(m + 1)
            )
            bernoulli = sum(
                ws1(m, l)(y) * families.poly_bernoulli(l, k, params)(y)
                for l in range(m + 1)
            )
            assert identities._inner_cauchy1(m, k, params)(y) == cauchy1
            assert identities._inner_cauchy2(m, k, params)(y) == cauchy2
            assert identities._inner_bernoulli(m, k, params)(y) == bernoulli


@pytest.mark.parametrize("n", [4, 8])
def test_each_sum_is_canonicalised_once(monkeypatch, n):
    # one XPoly per side: the kernel canonicalises its sum once, whatever n;
    # the cross_b_from_c side is its one cached coefficient R_0, which the
    # cell returns as it is, so it canonicalises nothing
    params = PQParams(Fraction(1, 2), Fraction(1, 3))
    sides = {
        "tid4": lambda: identities._eval_tid4(n, 2, params, 2, Fraction(2)),
        "cross_b_from_c": lambda: _CHECKS_BY_ID["cross_b_from_c"].evaluate(
            n, 2, params, Fraction(3, 2)
        ),
        "cauchy1_stirling": lambda: families.cauchy1_via_weighted_stirling(
            n, 2, params
        ),
    }
    for side in sides.values():
        side()  # warm every cache the sums read
    canonicalised = Counter()
    from_ints = exact._from_ints

    for name, side in sides.items():

        def counting(num, den, name=name):
            canonicalised[name] += 1
            return from_ints(num, den)

        monkeypatch.setattr(exact, "_from_ints", counting)
        side()
    assert canonicalised == Counter(tid4=1, cauchy1_stirling=1)
    assert canonicalised["cross_b_from_c"] == 0


@pytest.mark.parametrize("check_id", CROSS_IDS)
def test_one_coefficient_cross_cell_makes_no_kernel_call(monkeypatch, check_id):
    # the inner sums are constants, so each right side has the one
    # coefficient R_0; once it is cached, a cell at any y returns it as it
    # is, without a kernel call
    params = PQParams(Fraction(1, 2), Fraction(1, 3))
    evaluate = _CHECKS_BY_ID[check_id].evaluate
    _, inner, outer, alternating, by_factorial = evaluate.args
    for n in (0, 3, identities.CROSS_N_CAP):
        evaluate(n, 2, params, Fraction(0))  # warm the caches
        coeffs = identities._cross_rhs_coeffs(
            inner, outer, alternating, by_factorial, n, 2, params
        )
        assert len(coeffs) == 1
        calls = []
        monkeypatch.setattr(
            XPoly, "sum_products", staticmethod(lambda terms: calls.append(terms))
        )
        for y in y_samples(n):
            lhs, rhs = evaluate(n, 2, params, y)
            assert rhs is coeffs[0] and lhs == rhs
        assert calls == []
        monkeypatch.undo()


@pytest.mark.parametrize("check_id", CROSS_IDS)
def test_zero_inner_sums_fail_the_cross_cells_without_raising(check_id):
    # with every inner sum Q_m zero there is no coefficient R_j, and the
    # right side is the zero polynomial: the cells fail, the run goes on
    check = _CHECKS_BY_ID[check_id]
    family, _, *rest = check.evaluate.args
    zero = partial(
        check.evaluate.func, family, lambda m, k, params: XPoly.zero(), *rest
    )
    report = run_check(check._replace(evaluate=zero), SMALL)
    assert report.cells_total > 0 and not report.passed
    assert report.first_failure["rhs"] == []
    assert report.first_failure["lhs"] != []
    pqpoly.clear_caches()


def test_cold_pass_builds_no_series(monkeypatch):
    # appell_i's left side is poly_euler, the Appell expansion of the
    # poly-Euler column read in place; no check copies a column into an
    # EgfSeries
    def refuse(self, coeffs):
        raise AssertionError("a check built an EgfSeries")

    pqpoly.clear_caches()
    monkeypatch.setattr(pqpoly.egf.EgfSeries, "__init__", refuse)
    try:
        assert all(report.passed for report in run_all(SMALL))
    finally:
        monkeypatch.undo()
        pqpoly.clear_caches()


def test_cold_pass_kernel_call_count(monkeypatch):
    # a guard on the number of kernel calls in one cold pass over SMALL: a
    # change that adds or removes kernel calls updates this figure
    pqpoly.clear_caches()
    kernel, calls = XPoly.sum_products, [0]

    def counting(terms):
        calls[0] += 1
        return kernel(terms)

    monkeypatch.setattr(XPoly, "sum_products", staticmethod(counting))
    assert all(report.passed for report in run_all(SMALL))
    assert calls[0] == 1426
    pqpoly.clear_caches()
