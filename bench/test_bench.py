"""Self-tests of the benchmark: its checks can fail, its counts repeat.

Run from the repository root with ``python3 -m pytest bench``; the repo's
own suite under tests/ does not collect this file.  The traced and
corrupted samples make this take about twenty seconds.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))
sys.path.insert(0, str(BENCH_DIR.parent / "src"))

import run  # noqa: E402
import tracer  # noqa: E402
import workloads as wl  # noqa: E402


@pytest.fixture()
def tmp_root():
    with run.scratch_dir() as path:
        yield path


def _sample(workload: str, tmp_root: str, mode: str = "plain", corrupt: bool = False) -> dict:
    spec = {
        "workload": workload, "inputs": wl.make_inputs(workload, 7), "mode": mode,
        "corrupt": corrupt, "tmp_root": tmp_root,
    }
    return run.run_child(spec, deadline=time.monotonic() + 600)


def test_benchmark_json_names_every_metric():
    spec = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.layer_units()
    assert [w["name"] for w in spec["workloads"]] == list(wl.WORKLOADS)


def test_expected_cells_match_the_suite_grid():
    import pqpoly

    inputs = wl.make_inputs("verify-grid", 3)
    config = wl.grid_config(pqpoly, inputs)
    built = {c.id: sum(1 for _ in c.build_cells(config)) for c in pqpoly.identities.CHECKS}
    assert built == wl.expected_cells(inputs)


def test_inputs_repeat_for_a_seed():
    for workload in wl.WORKLOADS:
        assert wl.make_inputs(workload, 11) == wl.make_inputs(workload, 11)
    assert wl.make_inputs("verify-grid", 1) != wl.make_inputs("verify-grid", 2)


def test_stirling_oracle_values():
    assert wl.stirling_rows("stirling2", 5)[5] == [0, 1, 15, 25, 10, 1]
    assert wl.stirling_rows("stirling1", 5)[5] == [0, 24, 50, 35, 10, 1]


def test_euler_check_rejects_a_wrong_value():
    import pqpoly

    params = pqpoly.PQParams(1, 1)
    e, b = pqpoly.poly_euler(3, 2, params), pqpoly.poly_bernoulli(3, 2, params)
    assert wl._euler_agrees(3, e, b)
    assert not wl._euler_agrees(3, e + pqpoly.XPoly.x(), b)


@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_corrupted_result_is_counted_as_failed(workload, tmp_root):
    sample = _sample(workload, tmp_root, corrupt=True)
    assert 0 < sample["failed"] <= sample["ops"]


def test_corrupt_flag_shows_a_nonzero_fail_ratio():
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", "stirling-triangles",
         "--seconds", "1", "--corrupt"],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 1
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert not result["correct"] and 0 < result["failed"] < result["attempted"]
    assert "fail_ratio" in proc.stdout


@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_traced_counts_repeat(workload, tmp_root):
    first, second = (_sample(workload, tmp_root, mode="traced") for _ in range(2))
    assert first["failed"] == second["failed"] == 0
    counts = [n for n in tracer.LAYER_METRICS if n.endswith(tracer.COUNT_SUFFIXES)]
    assert {n: first["layers"][n] for n in counts} == {n: second["layers"][n] for n in counts}
    assert first["absent"] == []


def test_run_without_sources_fails_without_result(tmp_root):
    bare = Path(tmp_root) / "checkout"
    shutil.copytree(BENCH_DIR, bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(BENCH_DIR.parent / "BENCHMARK.json", bare)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "verify-grid", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
