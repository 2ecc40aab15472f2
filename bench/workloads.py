"""Workload inputs, the timed calls into pqpoly, and the independent checks.

Inputs are plain JSON data made from the seed, so the parent process can
hand them to a fresh child.  The checks use only this file's own integer
recurrences and coefficient-list arithmetic, never pqpoly's, so a defect in
the library cannot vouch for itself.
"""

from __future__ import annotations

import json
import os
import random
from fractions import Fraction

WORKLOADS = ("verify-grid", "deep-routes", "stirling-triangles")

# Sizes keep one cold sample near 1.5 s on a 2-core host: the host's speed
# varies by about 20% from second to second, so a 30 s run needs some 20
# samples for a steady median.
GRID_N_MAX = 4
GRID_K_VALUES = (-2, -1, 0, 1, 2, 3)
GRID_S_VALUES = (1, 2, 3)
GRID_U_VALUES = ("-1/1", "2/1", "1/2")
GRID_SCALE_VALUES = (1, 2, 3)
# caps written into the identity grid definition; they bind above n_max 8
APPELL_N_CAP = 12
CROSS_N_CAP = 8

DEEP_N_MAX = 12
DEEP_K = 2
STIRLING_N_MAX = 16

ROUTE_GF = "gf"
ROUTE_STIRLING = "stirling_closed_form"
ROUTE_INTEGRAL = "integral_expansion"
DEEP_FAMILIES = (
    ("poly_euler", (ROUTE_GF,)),
    ("poly_bernoulli", (ROUTE_GF, ROUTE_STIRLING)),
    ("poly_cauchy_1", (ROUTE_GF, ROUTE_STIRLING, ROUTE_INTEGRAL)),
    ("poly_cauchy_2", (ROUTE_GF, ROUTE_STIRLING, ROUTE_INTEGRAL)),
)

CHECK_IDS = (
    "appell_i", "appell_ii", "appell_iii", "appell_iv", "eucls",
    "tid1", "tid2", "tid3", "tid4", "euler_bernoulli", "polyberrel1",
    "cauchy_routes_1", "cauchy_routes_2", "orthogonality",
    "invrel1", "invrel2", "invrel3",
    "cross_b_from_c", "cross_b_from_chat", "cross_c_from_b", "cross_chat_from_b",
    "vandermonde_1", "vandermonde_2",
)


# ---------------------------------------------------------------------------
# seeded inputs

# Fixed denominators keep every seed's rationals the same size, so the
# work per seed, and with it the run time, does not depend on the seed.
_GENERIC_POOL = [
    (f"{a}/11", f"{c}/13") for a in range(6, 11) for c in range(1, 7)
]
_EQUAL_POOL = [f"{a}/11" for a in range(2, 11)]


def make_inputs(workload: str, seed: int) -> dict:
    rng = random.Random(seed)
    if workload == "verify-grid":
        points = rng.sample(_GENERIC_POOL, 3)
        points.append((rng.choice(_EQUAL_POOL),) * 2)
        points.append(("1/1", "1/1"))
        return {"n_max": GRID_N_MAX, "points": points}
    if workload == "deep-routes":
        points = [rng.choice(_GENERIC_POOL), (rng.choice(_EQUAL_POOL),) * 2]
        return {"n_max": DEEP_N_MAX, "k": DEEP_K, "points": points}
    if workload == "stirling-triangles":
        # no parameters: the seed has nothing to choose here
        return {"n_max": STIRLING_N_MAX}
    raise ValueError(f"unknown workload {workload!r}")


def expected_cells(inputs: dict) -> dict:
    """Cells per identity check, derived from the grid definition alone."""
    n_max = inputs["n_max"]
    per_n = len(GRID_K_VALUES) * len(inputs["points"])

    def nkp(n_min=0, cap=None):
        top = n_max if cap is None else min(n_max, cap)
        return max(0, top - n_min + 1) * per_n

    def nkpy(cap):
        return sum(n + 1 for n in range(min(n_max, cap) + 1)) * per_n

    cells = {cid: nkp() for cid in CHECK_IDS}
    cells.update(
        appell_i=nkp(0, APPELL_N_CAP),
        appell_ii=nkpy(APPELL_N_CAP),
        appell_iii=nkp(0, APPELL_N_CAP) * len(GRID_SCALE_VALUES),
        appell_iv=nkp(0, APPELL_N_CAP),
        tid3=nkp() * len(GRID_S_VALUES),
        tid4=nkp() * len(GRID_S_VALUES) * len(GRID_U_VALUES),
        orthogonality=sum(2 * (n + 1) for n in range(n_max + 1)),
    )
    for cid in ("eucls", "euler_bernoulli", "polyberrel1", "vandermonde_1", "vandermonde_2"):
        cells[cid] = nkp(1)
    for cid in ("cross_b_from_c", "cross_b_from_chat", "cross_c_from_b", "cross_chat_from_b"):
        cells[cid] = nkpy(CROSS_N_CAP)
    return cells


def expected_ops(workload: str, inputs: dict, check_id: str | None = None) -> int:
    if workload == "verify-grid":
        cells = expected_cells(inputs)
        return cells[check_id] if check_id else sum(cells.values())
    if workload == "deep-routes":
        values_per_n = sum(len(routes) for _, routes in DEEP_FAMILIES)
        return len(inputs["points"]) * (inputs["n_max"] + 1) * values_per_n
    return 2 * (inputs["n_max"] + 1)


# ---------------------------------------------------------------------------
# timed calls into pqpoly; each returns the raw outcome for its check


def grid_config(pq, inputs: dict):
    return pq.identities.SuiteConfig(
        n_max=inputs["n_max"],
        k_values=GRID_K_VALUES,
        s_values=GRID_S_VALUES,
        u_values=tuple(Fraction(u) for u in GRID_U_VALUES),
        scale_values=GRID_SCALE_VALUES,
        param_points=tuple(pq.PQParams(Fraction(p), Fraction(q)) for p, q in inputs["points"]),
    )


def run_grid(pq, inputs: dict, check_id: str | None = None):
    config = grid_config(pq, inputs)
    if check_id is None:
        return pq.identities.run_all(config)
    return pq.identities.run_all(config, only=[check_id])


def run_deep(pq, inputs: dict):
    """{(point index, n, family): [value or exception per route]}"""
    k = inputs["k"]
    out = {}
    for pi, (p, q) in enumerate(inputs["points"]):
        params = pq.PQParams(Fraction(p), Fraction(q))
        for n in range(inputs["n_max"] + 1):
            for family, routes in DEEP_FAMILIES:
                fn = getattr(pq.families, family)
                values = []
                for route in routes:
                    try:
                        if family == "poly_euler":
                            values.append(fn(n, k, params))
                        else:
                            values.append(fn(n, k, params, route))
                    except Exception as exc:  # counted as a failed operation
                        values.append(exc)
                out[(pi, n, family)] = values
    return out


def run_stirling(pq, inputs: dict, tmpdir: str):
    """Run ``pqpoly gen`` for both triangles; returns {family: (exit code, path)}."""
    out = {}
    for family in ("stirling2", "stirling1"):
        path = os.path.join(tmpdir, f"{family}.json")
        code = pq.cli.main(
            ["gen", "--family", family, "--nmax", str(inputs["n_max"]), "--output", path]
        )
        out[family] = (code, path)
    return out


# ---------------------------------------------------------------------------
# deliberate corruption, used by the self-test to prove the checks can fail


def corrupt(workload: str, outcome):
    if workload == "verify-grid":
        outcome[0].cells_passed -= 1
    elif workload == "deep-routes":
        key = next(k for k, v in outcome.items() if len(v) > 1)
        outcome[key][-1] = outcome[key][-1] + 1
    else:
        _, path = outcome["stirling2"]
        with open(path, encoding="utf-8") as fh:
            obj = json.load(fh)
        obj["rows"][-1]["values"][1] = "0/1"
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(obj, fh)
    return outcome


# ---------------------------------------------------------------------------
# independent checks; each returns the number of failed operations


def check_grid(reports, inputs: dict, check_id: str | None = None) -> int:
    cells = expected_cells(inputs)
    wanted = [check_id] if check_id else list(CHECK_IDS)
    by_id = {r.id: r for r in reports}
    failed = 0
    for cid in wanted:
        report = by_id.get(cid)
        if report is None or report.cells_total != cells[cid]:
            failed += cells[cid]
        else:
            failed += cells[cid] - report.cells_passed
    return failed


def _coeffs(poly) -> list[Fraction]:
    return [Fraction(c) for c in poly.coeffs]


def _trim(cs: list[Fraction]) -> list[Fraction]:
    while cs and cs[-1] == 0:
        cs.pop()
    return cs


def _substitute_linear(cs: list[Fraction], a: int, b: int) -> list[Fraction]:
    """Coefficients of f(a + b x), by Horner over coefficient lists."""
    acc: list[Fraction] = []
    for c in reversed(cs):
        nxt = [Fraction(0)] * (len(acc) + 1)
        for i, v in enumerate(acc):
            nxt[i] += a * v
            nxt[i + 1] += b * v
        nxt[0] += c
        acc = nxt
    return _trim(acc)


def _combine(*terms) -> list[Fraction]:
    """Coefficients of sum(scale * poly) over (scale, poly) pairs."""
    out = [Fraction(0)] * max(len(p) for _, p in terms)
    for scale, poly in terms:
        for i, c in enumerate(poly):
            out[i] += scale * c
    return _trim(out)


def _euler_agrees(n: int, euler, bernoulli) -> bool:
    """E_n(x) + E_n(x+1) = 2 B_n(-x) - 2 B_n(1-x) for n >= 1, and E_0 = 0."""
    e = _coeffs(euler)
    if n == 0:
        return not _trim(e)
    b = _coeffs(bernoulli)
    lhs = _combine((1, e), (1, _substitute_linear(e, 1, 1)))
    rhs = _combine((2, _substitute_linear(b, 0, -1)), (-2, _substitute_linear(b, 1, -1)))
    return lhs == rhs


def check_deep(values: dict, inputs: dict) -> int:
    failed = 0
    for (pi, n, family), vals in values.items():
        ok = not any(isinstance(v, Exception) for v in vals)
        if ok and family == "poly_euler":
            bern = values[(pi, n, "poly_bernoulli")]
            ok = not isinstance(bern[0], Exception) and _euler_agrees(n, vals[0], bern[0])
        elif ok:
            ok = all(_coeffs(v) == _coeffs(vals[0]) for v in vals[1:])
        if not ok:
            failed += len(vals)
    missing = expected_ops("deep-routes", inputs) - sum(len(v) for v in values.values())
    return failed + max(0, missing)


def stirling_rows(family: str, n_max: int) -> list[list[int]]:
    """Triangle rows from the integer recurrences."""
    rows = [[1]]
    for n in range(1, n_max + 1):
        prev = rows[-1] + [0]
        row = [0] * (n + 1)
        for m in range(1, n + 1):
            weight = m if family == "stirling2" else n - 1
            row[m] = weight * prev[m] + prev[m - 1]
        rows.append(row)
    return rows


def check_stirling(outcome: dict, inputs: dict) -> int:
    n_max = inputs["n_max"]
    failed = 0
    for family, (code, path) in outcome.items():
        expected = stirling_rows(family, n_max)
        try:
            with open(path, encoding="utf-8") as fh:
                rows = json.load(fh)["rows"] if code == 0 else []
        except (OSError, ValueError, KeyError):
            rows = []
        for n in range(n_max + 1):
            want = {"n": n, "values": [f"{v}/1" for v in expected[n]]}
            if n >= len(rows) or rows[n] != want:
                failed += 1
    return failed


def stirling_output_bytes(outcome: dict) -> int:
    return sum(os.path.getsize(path) for _, path in outcome.values())

