import functools
import io
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import pqpoly
from pqpoly import cli, families, sequences
from pqpoly.cli import (
    GEN_NMAX_LIMIT,
    K_LIMIT,
    S_LIMIT,
    VERIFY_NMAX_LIMIT,
    build_parser,
    main,
)
from pqpoly.exact import XPoly, rational_from_printed, rational_from_str
from pqpoly.families import poly_bernoulli, poly_cauchy_1, poly_euler
from pqpoly.pqcalc import PQParams

from .test_output_digests import _recorded, run_digest


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _parse_params(obj) -> PQParams:
    """The parameter pair a gen document names."""
    return PQParams(rational_from_printed(obj["p"]), rational_from_printed(obj["q"]))


def _parse_poly(coeffs) -> XPoly:
    """An XPoly from the coefficient strings of one gen row."""
    return XPoly(map(rational_from_printed, coeffs))


# ---------------------------------------------------------------------------
# gen


def test_gen_poly_euler_classical_point(capsys):
    code, out, _ = run_cli(
        capsys,
        "gen",
        "--family",
        "poly-euler",
        "--k",
        "1",
        "--p",
        "1/1",
        "--q",
        "1/1",
        "--nmax",
        "2",
    )
    assert code == 0
    obj = json.loads(out)
    assert obj["family"] == "poly-euler"
    assert obj["k"] == 1
    assert obj["p"] == "1/1" and obj["q"] == "1/1"
    assert obj["rows"] == [
        {"n": 0, "coeffs": []},
        {"n": 1, "coeffs": ["1/1"]},
        {"n": 2, "coeffs": ["-1/1", "2/1"]},
    ]


def test_gen_stirling2_triangle(capsys):
    code, out, _ = run_cli(capsys, "gen", "--family", "stirling2", "--nmax", "4")
    assert code == 0
    obj = json.loads(out)
    assert obj["rows"][4] == {
        "n": 4,
        "values": ["0/1", "1/1", "7/1", "6/1", "1/1"],
    }


def test_gen_poly_cauchy_default_parameters(capsys):
    code, out, _ = run_cli(
        capsys,
        "gen",
        "--family",
        "poly-cauchy-1",
        "--k",
        "2",
        "--nmax",
        "1",
    )
    assert code == 0
    obj = json.loads(out)
    assert obj["p"] == "1/2" and obj["q"] == "1/3"
    assert obj["rows"][1]["coeffs"] == ["36/25", "-1/1"]


def test_gen_round_trips_exactly(capsys):
    code, out, _ = run_cli(
        capsys,
        "gen",
        "--family",
        "poly-bernoulli",
        "--k",
        "-2",
        "--p",
        "3/4",
        "--q",
        "1/5",
        "--nmax",
        "6",
    )
    assert code == 0
    obj = json.loads(out)
    params = _parse_params(obj)
    for row in obj["rows"]:
        rebuilt = _parse_poly(row["coeffs"])
        assert rebuilt == poly_bernoulli(row["n"], obj["k"], params)


def test_gen_csv_shape(capsys):
    code, out, _ = run_cli(
        capsys,
        "gen",
        "--family",
        "poly-cauchy-1",
        "--k",
        "2",
        "--nmax",
        "1",
        "--format",
        "csv",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "n,coeffs"
    assert lines[1] == "0,1/1"
    assert lines[2] == "1,36/25;-1/1"


def test_gen_csv_triangle(capsys):
    code, out, _ = run_cli(
        capsys,
        "gen",
        "--family",
        "stirling1",
        "--nmax",
        "3",
        "--format",
        "csv",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "n,values"
    assert lines[4] == "3,0/1;2/1;3/1;1/1"


def test_gen_classical_families(capsys):
    code, out, _ = run_cli(
        capsys, "gen", "--family", "euler", "--nmax", "2"
    )
    assert code == 0
    obj = json.loads(out)
    assert "p" not in obj
    assert obj["rows"][2]["coeffs"] == ["0/1", "-1/1", "1/1"]

    code, out, _ = run_cli(
        capsys, "gen", "--family", "bernoulli-order", "--s", "2", "--nmax", "1"
    )
    assert code == 0
    obj = json.loads(out)
    assert obj["s"] == 2
    assert obj["rows"][1]["coeffs"] == ["-1/1", "1/1"]

    code, out, _ = run_cli(
        capsys,
        "gen",
        "--family",
        "frobenius-euler",
        "--u",
        "2",
        "--nmax",
        "1",
    )
    assert code == 0
    obj = json.loads(out)
    assert obj["u"] == "2/1"
    assert obj["rows"][1]["coeffs"] == ["1/1", "1/1"]


def test_gen_writes_output_file(capsys, tmp_path):
    target = tmp_path / "rows.json"
    code, out, _ = run_cli(
        capsys,
        "gen",
        "--family",
        "euler",
        "--nmax",
        "1",
        "--output",
        str(target),
    )
    assert code == 0
    assert out == ""
    obj = json.loads(target.read_text())
    assert obj["rows"][1]["coeffs"] == ["-1/2", "1/1"]


def test_gen_rejects_decimal_parameter(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["gen", "--family", "poly-euler", "--nmax", "2", "--p", "0.5"])
    assert excinfo.value.code == 2


def test_gen_rejects_a_parameter_past_the_digit_limit(capsys):
    # rendering any size of output must leave parsing bounded
    with pytest.raises(SystemExit) as excinfo:
        main(["gen", "--family", "poly-euler", "--nmax", "2", "--p", "1" * 5000])
    assert excinfo.value.code == 2
    assert "--p" in capsys.readouterr().err


def test_gen_rejects_invalid_parameter_box(capsys):
    code, _, err = run_cli(
        capsys,
        "gen",
        "--family",
        "poly-euler",
        "--nmax",
        "2",
        "--p",
        "1/3",
        "--q",
        "1/2",
    )
    assert code == 2
    assert err.startswith("error: --p/--q:")


def test_gen_rejects_frobenius_u_one(capsys):
    code, _, err = run_cli(
        capsys,
        "gen",
        "--family",
        "frobenius-euler",
        "--u",
        "1/1",
        "--nmax",
        "2",
    )
    assert code == 2
    assert "--u" in err


# ---------------------------------------------------------------------------
# verify


def test_verify_single_check(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--only", "tid1", "--nmax", "4"
    )
    assert code == 0
    obj = json.loads(out)
    assert obj["n_max"] == 4
    assert obj["passed"] is True
    assert len(obj["reports"]) == 1
    report = obj["reports"][0]
    assert report["id"] == "tid1"
    assert report["cells_total"] == report["cells_passed"] > 0
    assert "first_failure" not in report


def test_verify_several_checks_in_registry_order(capsys):
    code, out, _ = run_cli(
        capsys,
        "verify",
        "--only",
        "invrel1,appell_i",
        "--nmax",
        "3",
    )
    assert code == 0
    obj = json.loads(out)
    assert [r["id"] for r in obj["reports"]] == ["appell_i", "invrel1"]


def test_verify_zero_nmax_is_a_failure(capsys):
    code, out, _ = run_cli(capsys, "verify", "--nmax", "0")
    assert code == 1
    obj = json.loads(out)
    assert obj["passed"] is False
    by_id = {r["id"]: r for r in obj["reports"]}
    assert by_id["eucls"]["cells_total"] == 0


def test_verify_unknown_check_id(capsys):
    code, _, err = run_cli(capsys, "verify", "--only", "bogus", "--nmax", "2")
    assert code == 2
    assert "unknown check ids" in err


def test_verify_writes_output_file(capsys, tmp_path):
    target = tmp_path / "report.json"
    code, out, _ = run_cli(
        capsys,
        "verify",
        "--only",
        "orthogonality",
        "--nmax",
        "5",
        "--output",
        str(target),
    )
    assert code == 0
    assert out == ""
    obj = json.loads(target.read_text())
    assert obj["reports"][0]["id"] == "orthogonality"


# ---------------------------------------------------------------------------
# closed-form


def test_closed_form_weight_zero(capsys):
    code, out, _ = run_cli(
        capsys, "closed-form", "--k", "0", "--p", "1/2", "--q", "1/3"
    )
    assert code == 0
    obj = json.loads(out)
    assert obj["numerator"] == ["0/1", "1/1"]
    assert obj["denominator"] == ["1/1", "-1/1"]


def test_closed_form_weight_minus_one_default_point(capsys):
    code, out, _ = run_cli(capsys, "closed-form", "--k", "-1")
    assert code == 0
    obj = json.loads(out)
    assert obj["p"] == "1/2" and obj["q"] == "1/3"
    assert obj["numerator"] == ["0/1", "1/1"]
    assert obj["denominator"] == ["1/1", "-5/6", "1/6"]


def test_closed_form_csv(capsys):
    code, out, _ = run_cli(
        capsys, "closed-form", "--k", "0", "--format", "csv"
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "numerator,0/1;1/1"
    assert lines[1] == "denominator,1/1;-1/1"


def test_closed_form_rejects_positive_weight(capsys):
    code, _, err = run_cli(capsys, "closed-form", "--k", "1")
    assert code == 2
    assert err.startswith("error: --k:")


def test_closed_form_rejects_equal_parameters(capsys):
    code, _, err = run_cli(
        capsys, "closed-form", "--k", "0", "--p", "2/3", "--q", "2/3"
    )
    assert code == 2
    assert "--p/--q" in err


# ---------------------------------------------------------------------------
# shared flags


@pytest.mark.parametrize(
    "argv",
    [
        ["gen", "--family", "stirling2", "--nmax", "2"],
        ["verify", "--only", "tid1", "--nmax", "2"],
        ["closed-form", "--k", "-1"],
    ],
    ids=["gen", "verify", "closed-form"],
)
def test_unwritable_output_is_a_configuration_error(capsys, tmp_path, argv):
    target = tmp_path / "missing" / "out.json"
    code, out, err = run_cli(capsys, *argv, "--output", str(target))
    assert code == 2
    assert out == ""
    assert err.startswith("error: --output: ")
    assert str(target) in err
    assert not target.parent.exists()


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_a_write_error_partway_through_is_a_configuration_error(capsys):
    # the output spans several write buffers, so the disk fills mid-stream
    argv = ["gen", "--family", "stirling2", "--nmax", "30"]
    assert len(run_cli(capsys, *argv)[1]) > io.DEFAULT_BUFFER_SIZE
    proc = subprocess.run(
        [sys.executable, "-m", "pqpoly", *argv, "--output", "/dev/full"],
        capture_output=True,
    )
    assert proc.returncode == 2
    assert proc.stdout == b""
    assert proc.stderr == b"error: --output: [Errno 28] No space left on device\n"


@pytest.mark.parametrize(
    "argv, flag, limit, low",
    [
        (["gen", "--family", "euler", "--nmax"], "--nmax", GEN_NMAX_LIMIT, 0),
        (["verify", "--nmax"], "--nmax", VERIFY_NMAX_LIMIT, 0),
        (
            ["gen", "--family", "poly-euler", "--nmax", "1", "--k"],
            "--k",
            K_LIMIT,
            -K_LIMIT,
        ),
        (["closed-form", "--k"], "--k", K_LIMIT, -K_LIMIT),
        (
            ["gen", "--family", "bernoulli-order", "--nmax", "1", "--s"],
            "--s",
            S_LIMIT,
            0,
        ),
    ],
    ids=["gen-nmax", "verify-nmax", "gen-k", "closed-form-k", "gen-s"],
)
def test_run_size_flags_are_bounded_at_parse_time(capsys, argv, flag, limit, low):
    # parsing only: a value past the bound never starts a run
    parser = build_parser()
    dest = flag.lstrip("-")
    for value in (low, limit):
        assert getattr(parser.parse_args(argv + [str(value)]), dest) == value
    rejected = [limit + 1, 10**30] + ([low - 1] if low else [])
    for value in rejected:
        with pytest.raises(SystemExit) as exc:
            parser.parse_args(argv + [str(value)])
        assert exc.value.code == 2
        message = f"at most {limit}" if value > 0 else f"at least {low}"
        assert f"argument {flag}: must be {message}" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# one parser per process

REJECTED = ["gen", "--family", "stirling2", "--nmax", "101"]


def test_main_builds_the_parser_once(monkeypatch, capsys):
    builds = []

    def counting():
        builds.append(1)
        return build_parser()

    monkeypatch.setattr(cli, "_parser", None)
    monkeypatch.setattr(cli, "build_parser", counting)
    for _ in range(3):
        assert main(["gen", "--family", "stirling2", "--nmax", "3"]) == 0
        assert main(["closed-form", "--k", "-1"]) == 0
        with pytest.raises(SystemExit):
            main(REJECTED)
    capsys.readouterr()
    assert builds == [1]


def _rejected_stderr(capsys) -> str:
    with pytest.raises(SystemExit) as exc:
        main(REJECTED)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    return captured.err


def test_a_rejected_argv_errs_the_same_twice(monkeypatch, capsys):
    monkeypatch.setattr(cli, "_parser", None)
    first = _rejected_stderr(capsys)
    assert first == _rejected_stderr(capsys)
    assert "argument --nmax: must be at most 100" in first
    # the text a parser built for this one call writes
    with pytest.raises(SystemExit):
        build_parser().parse_args(REJECTED)
    assert capsys.readouterr().err == first


def test_a_run_after_a_rejected_argv_matches_its_digest(capsys):
    _rejected_stderr(capsys)
    argv = "gen --family stirling2 --nmax 40"
    assert run_digest(argv) == _recorded()[argv]


@pytest.mark.parametrize("argv", [["--help"], ["gen", "--help"]])
def test_help_prints_the_same_text_each_call(monkeypatch, capsys, argv):
    monkeypatch.setattr(cli, "_parser", None)
    texts = []
    for _ in range(2):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 0
        texts.append(capsys.readouterr().out)
    assert texts[0] == texts[1]
    assert texts[0].startswith("usage: pqpoly")


# ---------------------------------------------------------------------------
# module entry point


def test_module_invocation_round_trip(tmp_path):
    proc = subprocess.run(
        [
            sys.executable,
            "-m",
            "pqpoly",
            "gen",
            "--family",
            "poly-cauchy-1",
            "--k",
            "3",
            "--nmax",
            "4",
        ],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    obj = json.loads(proc.stdout)
    params = _parse_params(obj)
    for row in obj["rows"]:
        assert _parse_poly(row["coeffs"]) == poly_cauchy_1(
            row["n"], 3, params
        )


# ---------------------------------------------------------------------------
# golden output: standard output of fixed runs, each recorded before a
# change to the exact core, must stay the same byte for byte

GOLDEN = Path(__file__).resolve().parent / "golden"


@pytest.mark.parametrize(
    "golden, argv",
    [
        ("verify_nmax6.txt", ["verify", "--nmax", "6"]),
        (
            "gen_poly-cauchy-1_k3_nmax20.json",
            ["gen", "--family", "poly-cauchy-1", "--k", "3", "--nmax", "20"],
        ),
        (
            "gen_poly-euler_k-2_nmax20.json",
            ["gen", "--family", "poly-euler", "--k", "-2", "--nmax", "20"],
        ),
        (
            "gen_poly-cauchy-2_k-2_nmax20.json",
            ["gen", "--family", "poly-cauchy-2", "--k", "-2", "--nmax", "20"],
        ),
        ("closed-form_k-8.txt", ["closed-form", "--k", "-8"]),
    ],
)
def test_cli_output_matches_golden(golden, argv):
    proc = subprocess.run(
        [sys.executable, "-m", "pqpoly", *argv], capture_output=True
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == (GOLDEN / golden).read_bytes()


def _run_recording_dumps(capsys, monkeypatch, tmp_path, argv, to_file) -> list:
    """The objects json.dumps is called on while the CLI runs argv, after
    checking that the CLI's text, on stdout or in an --output file, is the
    golden text named by argv's first word."""
    dumped = []
    dumps = json.dumps

    def recording(obj, **kwargs):
        dumped.append(obj)
        return dumps(obj, **kwargs)

    monkeypatch.setattr(json, "dumps", recording)
    golden = {
        "gen": "gen_poly-cauchy-1_k3_nmax20.json",
        "verify": "verify_nmax6.txt",
        "closed-form": "closed-form_k-8.txt",
    }[argv[0]]
    target = tmp_path / "out.json"
    code, out, _ = run_cli(
        capsys, *argv, *(["--output", str(target)] if to_file else [])
    )
    assert code == 0
    expected = (GOLDEN / golden).read_text(encoding="utf-8")
    if to_file:
        assert out == ""
        assert target.read_text(encoding="utf-8") == expected
    else:
        assert out == expected
    return dumped


@pytest.mark.parametrize("to_file", [False, True], ids=["stdout", "output"])
def test_gen_never_builds_the_whole_document(
    capsys, monkeypatch, tmp_path, to_file
):
    # gen's rows go out as each is reached: json.dumps formats the header
    # alone, never an object that holds the rows
    argv = ["gen", "--family", "poly-cauchy-1", "--k", "3", "--nmax", "20"]
    dumped = _run_recording_dumps(capsys, monkeypatch, tmp_path, argv, to_file)
    assert dumped and all("rows" not in obj for obj in dumped)


@pytest.mark.parametrize("to_file", [False, True], ids=["stdout", "output"])
@pytest.mark.parametrize(
    "argv",
    [["verify", "--nmax", "6"], ["closed-form", "--k", "-8"]],
    ids=["verify", "closed-form"],
)
def test_one_shot_json_is_one_json_dumps(
    capsys, monkeypatch, tmp_path, argv, to_file
):
    # the whole document, as json.dumps(obj, indent=2) writes it, and a
    # newline
    dumped = _run_recording_dumps(capsys, monkeypatch, tmp_path, argv, to_file)
    assert len(dumped) == 1


@pytest.mark.parametrize(
    "argv",
    [
        # row 0 of poly-Euler is the zero polynomial: "coeffs": []
        ["gen", "--family", "poly-euler", "--k", "2", "--nmax", "3"],
        ["gen", "--family", "poly-cauchy-1", "--k", "3", "--nmax", "5"],
        ["gen", "--family", "frobenius-euler", "--s", "2", "--nmax", "4"],
        ["gen", "--family", "stirling1", "--nmax", "0"],
    ],
)
def test_gen_json_is_the_text_json_dumps_writes(capsys, argv):
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    obj = json.loads(out)
    assert out == json.dumps(obj, indent=2) + "\n"
    if "poly-euler" in argv:
        assert obj["rows"][0]["coeffs"] == []


def test_gen_json_writes_each_row_before_computing_the_next(monkeypatch):
    # as CSV does: when row n is computed, rows 0..n-1 are already written
    written = io.StringIO()
    rows_written = []
    route = families.bernoulli_via_gf

    def recording(n, *args):
        rows_written.append(written.getvalue().count('"n": '))
        return route(n, *args)

    monkeypatch.setattr(families, "bernoulli_via_gf", recording)
    monkeypatch.setattr(sys, "stdout", written)
    assert main(["gen", "--family", "poly-bernoulli", "--nmax", "4"]) == 0
    assert rows_written == [0, 1, 2, 3, 4]
    assert written.getvalue().count('"n": ') == 5


def test_gen_keeps_no_family_row_and_keeps_its_column(capsys):
    # gen calls the gf route's uncached body: each row is dropped once
    # written, while the column it reads stays for the next row and run
    pqpoly.clear_caches()
    code, out, _ = run_cli(
        capsys, "gen", "--family", "poly-cauchy-1", "--k", "3", "--nmax", "20"
    )
    assert code == 0
    assert families.cauchy1_via_gf.cache_info().currsize == 0
    params = PQParams(Fraction(1, 2), Fraction(1, 3))
    hits = families._polylog_column.cache_info().hits
    families._polylog_column(sequences._lif_coeff, 3, params, families._log1p, 0)
    assert families._polylog_column.cache_info().hits == hits + 1
    rows = json.loads(out)["rows"]
    assert [_parse_poly(row["coeffs"]) for row in rows] == [
        poly_cauchy_1(n, 3, params) for n in range(21)
    ]


def test_gen_bernoulli_order_keeps_no_row_and_keeps_its_column(capsys):
    # as for the gf routes: each row is dropped once written, while the
    # column it reads stays for the next row and run
    pqpoly.clear_caches()
    code, out, _ = run_cli(
        capsys, "gen", "--family", "bernoulli-order", "--s", "3", "--nmax", "40"
    )
    assert code == 0
    assert sequences.bernoulli_order.cache_info().currsize == 0
    hits = sequences._bernoulli_column.cache_info().hits
    sequences._bernoulli_column(3)
    assert sequences._bernoulli_column.cache_info().hits == hits + 1
    rows = json.loads(out)["rows"]
    assert [_parse_poly(row["coeffs"]) for row in rows] == [
        sequences.bernoulli_order(n, 3) for n in range(41)
    ]


def test_gen_values_past_the_digit_limit_read_back(capsys):
    # rows of k = 30 pass the 4,300-digit limit rational_from_str keeps;
    # rational_from_printed reads every value back, and leaves the limit
    limit = sys.get_int_max_str_digits()
    code, out, _ = run_cli(
        capsys, "gen", "--family", "poly-euler", "--k", "30", "--nmax", "34"
    )
    assert code == 0
    obj = json.loads(out)
    longest = max((c for row in obj["rows"] for c in row["coeffs"]), key=len)
    assert len(longest) > 10_000
    with pytest.raises(ValueError):
        rational_from_str(longest)
    params = _parse_params(obj)
    assert [_parse_poly(row["coeffs"]) for row in obj["rows"]] == [
        poly_euler(n, 30, params) for n in range(35)
    ]
    assert sys.get_int_max_str_digits() == limit


def _negated_plain(route):
    def negated(n, k, params):
        return -route(n, k, params)

    return negated


def _negated_wraps(route):
    @functools.wraps(route)
    def negated(n, k, params):
        return -route(n, k, params)

    return negated


def _negated_cached(route):
    return functools.lru_cache(maxsize=None)(_negated_plain(route))


@pytest.mark.parametrize(
    "rebind", [_negated_plain, _negated_wraps, _negated_cached]
)
def test_gen_reaches_a_rebound_gf_route(monkeypatch, capsys, rebind):
    # gen looks the route up by name, as families.compute does, so a
    # wrapper bound on the module reaches it, cached or not
    params = PQParams(Fraction(1, 2), Fraction(1, 3))
    expected = [-poly_cauchy_1(n, 3, params) for n in range(6)]
    monkeypatch.setattr(
        families, "cauchy1_via_gf", rebind(families.cauchy1_via_gf)
    )
    code, out, _ = run_cli(
        capsys, "gen", "--family", "poly-cauchy-1", "--k", "3", "--nmax", "5"
    )
    assert code == 0
    rows = json.loads(out)["rows"]
    assert [_parse_poly(row["coeffs"]) for row in rows] == expected
