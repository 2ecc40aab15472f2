from fractions import Fraction

import pytest
from hypothesis import given, settings

from pqpoly import sequences
from pqpoly.identities import (
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
            {"n": 0, "k": 1, "params": config.param_points[0]},
            {"n": 1, "k": 1, "params": config.param_points[0]},
        ],
        evaluate=lambda **cell: (Fraction(1), Fraction(2)),
    )
    report = run_check(failing, SMALL)
    assert report.cells_total == 2
    assert report.cells_passed == 0
    assert not report.passed
    failure = report.first_failure
    assert failure["cell"] == {"n": 0, "k": 1, "p": "1/2", "q": "1/3"}
    assert failure["lhs"] == ["1/1"]
    assert failure["rhs"] == ["2/1"]


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
