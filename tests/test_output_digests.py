"""Byte identity of the CLI: the SHA-256 of the standard output and the
standard error, and the exit code, of fixed runs, as output_digests.json
records them.  A change meant to alter the output re-records the table:

    PYTHONPATH=src python -m tests.test_output_digests
"""

import contextlib
import hashlib
import io
import json
from pathlib import Path

import pytest

from pqpoly import exact
from pqpoly.cli import main

DIGESTS = Path(__file__).resolve().parent / "output_digests.json"

POLY_FAMILIES = ("poly-euler", "poly-bernoulli", "poly-cauchy-1", "poly-cauchy-2")

RUNS = (
    "verify --nmax 10",
    *(
        f"gen --family {family} --nmax 20 --k {k}"
        for family in POLY_FAMILIES
        for k in (-3, 3)
    ),
    "gen --family poly-cauchy-1 --nmax 20 --k 3 --p 2/3 --q 2/3",
    "gen --family poly-bernoulli --nmax 20 --k -2 --format csv",
    "gen --family stirling2 --nmax 40",
    "gen --family stirling1 --nmax 40",
    "closed-form --k -3",
    "gen --family poly-euler --nmax 3 --p 1/3 --q 1/2",
)


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def run_digest(argv: str) -> dict:
    """The digests of one in-process CLI run's output and its exit code."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv.split())
    return {
        "stdout": _sha256(out.getvalue()),
        "stderr": _sha256(err.getvalue()),
        "exit": code,
    }


def _recorded() -> dict:
    return json.loads(DIGESTS.read_text(encoding="utf-8"))


def test_the_table_lists_every_run():
    assert list(_recorded()) == list(RUNS)


@pytest.mark.parametrize("argv", RUNS)
def test_cli_output_matches_its_recorded_digest(argv):
    assert run_digest(argv) == _recorded()[argv]


def test_a_changed_coefficient_changes_a_digest(monkeypatch):
    # every printed int is rendered by exact._int_to_decimal, p and q first
    # (four ints); render the fifth, the numerator of row 0's first
    # coefficient, one past its value and nothing else
    render = exact._int_to_decimal
    calls = []

    def off_by_one_once(n):
        calls.append(n)
        return render(n + 1 if len(calls) == 5 else n)

    monkeypatch.setattr(exact, "_int_to_decimal", off_by_one_once)
    argv = "gen --family poly-cauchy-2 --nmax 20 --k 3"
    got = run_digest(argv)
    assert calls[:4] == [1, 2, 1, 3]
    assert len(calls) > 5
    assert got["stdout"] != _recorded()[argv]["stdout"]
    assert got["stderr"] == _recorded()[argv]["stderr"]


if __name__ == "__main__":
    table = {argv: run_digest(argv) for argv in RUNS}
    DIGESTS.write_text(json.dumps(table, indent=2) + "\n", encoding="utf-8")
