"""One cold sample of a benchmark workload, in a fresh interpreter.

bench/run.py starts this script once per sample, one at a time:

    python child.py <monotonic clock at spawn> <spec as JSON>

and reads the JSON object it prints as its last line.  Set-up time runs
from the spawn until ``import pqpoly`` (with its CLI module) returns, so it
covers interpreter start-up as a user of the ``pqpoly`` command pays it.
"""

import os
import sys
import time

_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_SRC = os.path.join(_ROOT, "src")
sys.path.insert(0, _SRC)
import pqpoly  # noqa: E402
import pqpoly.cli  # noqa: E402

_SETUP_END = time.clock_gettime(time.CLOCK_MONOTONIC)

import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402
from fractions import Fraction  # noqa: E402

import tracer  # noqa: E402
import workloads as wl  # noqa: E402

_clock = time.perf_counter


def probe() -> float:
    """Seconds for a fixed pure-stdlib Fraction workload.

    It uses no pqpoly code, so it follows the host's speed and not the
    program's: run.py divides each sample's times by it.
    """
    t0 = _clock()
    for _ in range(5):
        a = [Fraction(i + 1, 2 * i + 3) for i in range(24)]
        b = [Fraction(3 * i + 1, i + 7) for i in range(24)]
        for _ in range(6):
            out = [Fraction(0)] * 47
            for i, x in enumerate(a):
                for j, y in enumerate(b):
                    out[i + j] += x * y
            a = out[:24]
    return _clock() - t0


def _compute(spec: dict, tmpdir: str):
    workload, inputs = spec["workload"], spec["inputs"]
    if workload == "verify-grid":
        return wl.run_grid(pqpoly, inputs, spec.get("check_id"))
    if workload == "deep-routes":
        return wl.run_deep(pqpoly, inputs)
    return wl.run_stirling(pqpoly, inputs, tmpdir)


def _check(spec: dict, outcome) -> int:
    workload, inputs = spec["workload"], spec["inputs"]
    if workload == "verify-grid":
        return wl.check_grid(outcome, inputs, spec.get("check_id"))
    if workload == "deep-routes":
        return wl.check_deep(outcome, inputs)
    return wl.check_stirling(outcome, inputs)


def measure(spec: dict, tmpdir: str) -> dict:
    """Time one cold pass; modes: plain, traced, and warm (a second pass)."""
    workload, inputs = spec["workload"], spec["inputs"]
    ops = wl.expected_ops(workload, inputs, spec.get("check_id"))
    out = {}
    trace = None
    if spec["mode"] == "traced":
        trace = tracer.Tracer(pqpoly)
        trace.install()
    probe_before = probe()
    t0 = _clock()
    try:
        outcome = _compute(spec, tmpdir)
    except Exception:  # a raising program fails every operation of the pass
        traceback.print_exc()
        outcome = None
    out["wall_s"] = _clock() - t0
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    out["probe_s"] = (probe_before + probe()) / 2
    if trace is not None:
        out["layers"] = trace.metrics()
        out["absent"] = trace.absent
    if outcome is not None and workload == "stirling-triangles":
        out["output_bytes"] = wl.stirling_output_bytes(outcome)

    passes = [outcome]
    if spec["mode"] == "warm" and outcome is not None:
        t0 = _clock()
        try:
            passes.append(_compute(spec, tmpdir))
        except Exception:
            traceback.print_exc()
            passes.append(None)
        out["warm_s"] = _clock() - t0

    failed = 0
    for result in passes:
        if result is None:
            failed += ops
            continue
        if spec.get("corrupt"):
            result = wl.corrupt(workload, result)
        try:
            failed += _check(spec, result)
        except Exception:
            traceback.print_exc()
            failed += ops
    out["ops"] = ops * len(passes)
    out["failed"] = failed
    return out


def main() -> int:
    spawned = float(sys.argv[1])
    spec = json.loads(sys.argv[2])
    if os.path.commonpath([os.path.abspath(pqpoly.__file__), _SRC]) != _SRC:
        print(f"pqpoly imported from {pqpoly.__file__}, not {_SRC}", file=sys.stderr)
        return 2
    tmpdir = tempfile.mkdtemp(dir=spec["tmp_root"])
    try:
        out = measure(spec, tmpdir)
    finally:
        shutil.rmtree(tmpdir, ignore_errors=True)
    out["setup_s"] = _SETUP_END - spawned
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
