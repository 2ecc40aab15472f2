"""Benchmark for pqpoly: seeded cold workloads, end to end and layer by layer.

Run from the repository root:

    python3 bench/run.py --workload verify-grid --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1

Workloads (see workloads.py for the inputs):
  verify-grid         identities.run_all over a seeded (p, q) grid; one
                      operation is one identity cell
  deep-routes         every family through every route for n = 0..12, k = 2,
                      at a seeded generic and a seeded equal-limit point;
                      one operation is one family value
  stirling-triangles  ``pqpoly gen`` for both Stirling triangles up to
                      n = 16; one operation is one row; the seed is ignored

Every sample is a fresh interpreter (child.py), started one at a time with
PQPOLY_THREADS removed from its environment, so each pays the cold cache
cost a command-line user pays.  Samples repeat until --seconds is used up
(at least three), and each metric is the median over them.

--trace 0 reports the end-to-end metrics: setup_s, wall_s, ops_per_s and
peak_rss_mb.  --trace 1 reports the per-layer metrics instead: span self
times and counts from tracer.py in traced samples, per-check cold times
from one fresh interpreter per identity check (verify-grid), and the
tracing overhead.  End-to-end numbers come only from untraced samples.

Every sample checks its outputs independently (workloads.py); an operation
that raises or fails the check is counted in ``failed``.  The last line of
standard output is one JSON object with the keys correct, attempted, failed
and metrics.  --corrupt spoils one result per sample, to show the checks
count it; such a run exits 1.
"""

from __future__ import annotations

import argparse
import compileall
import contextlib
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import tracer
import workloads as wl

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
TMP_ROOT = ROOT / ".bench_tmp"
CHILD = BENCH_DIR / "child.py"

MIN_SAMPLES = 3
# The host's speed drifts by some 20% over seconds and minutes, and a run's
# median follows it.  Each sample therefore also times child.probe, a fixed
# stdlib Fraction loop, right before and after the workload, and every time
# metric is reported in seconds at the speed where that probe takes
# REF_PROBE_S: time * REF_PROBE_S / probe time.  A change to pqpoly moves
# the workload's time but not the probe's, so it shows in full.  setup_s is
# left unscaled: interpreter start-up does not follow the probe, and scaling
# it tripled its run-to-run spread.
REF_PROBE_S = 0.12
# every run has to end within 180 s, whatever --seconds asks for
HARD_LIMIT_S = 150.0

END_TO_END = {"setup_s": "s", "wall_s": "s", "ops_per_s": "1/s", "peak_rss_mb": "MB"}


class BenchError(Exception):
    """The benchmark itself could not run; no result is printed."""


@contextlib.contextmanager
def scratch_dir():
    """A private directory under .bench_tmp/ in the checkout, removed after."""
    TMP_ROOT.mkdir(exist_ok=True)
    path = tempfile.mkdtemp(dir=TMP_ROOT)
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)
        with contextlib.suppress(OSError):
            TMP_ROOT.rmdir()


def _unit(name: str) -> str:
    for suffix, unit in (("_s", "s"), ("ratio", "ratio"), ("bits", "bits")):
        if name.endswith(suffix):
            return unit
    return "count"


def layer_units() -> dict:
    """Per-layer metric name -> unit, in the order they are reported."""
    units = {name: _unit(name) for name in tracer.LAYER_METRICS}
    for cid in wl.CHECK_IDS:
        units[f"identities.{cid}.cold_s"] = "s"
    units.update({
        "identities.cold_s": "s",
        "identities.warm_s": "s",
        "identities.cells_per_s": "1/s",
        "cli.output_bytes": "bytes",
        "trace.overhead_ratio": "ratio",
    })
    return units


def source_digest() -> str:
    """SHA-256 over src/, standing in for the commit id outside git."""
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def run_child(spec: dict, deadline: float) -> dict:
    env = dict(os.environ)
    env.pop("PQPOLY_THREADS", None)
    env["PYTHONHASHSEED"] = "0"
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("no time left for another sample")
    spawned = time.clock_gettime(time.CLOCK_MONOTONIC)
    try:
        proc = subprocess.run(
            [sys.executable, str(CHILD), repr(spawned), json.dumps(spec)],
            stdout=subprocess.PIPE, env=env, cwd=ROOT, timeout=timeout, text=True,
        )
    except subprocess.TimeoutExpired:
        ops = wl.expected_ops(spec["workload"], spec["inputs"], spec.get("check_id"))
        print(f"sample timed out after {timeout:.0f} s", file=sys.stderr)
        return {"ops": ops, "failed": ops, "timed_out": True}
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"sample process exited with code {proc.returncode}")
    return json.loads(lines[-1])


def _median(samples: list, key: str) -> float:
    values = [s[key] for s in samples if key in s]
    if not values:
        raise BenchError(f"no sample measured {key}")
    return statistics.median(values)


def repeat(spec: dict, seconds: float, start: float, per_round=None) -> list:
    """Samples of ``spec`` (or rounds of ``per_round()``) until the time is used."""
    deadline = start + HARD_LIMIT_S
    rounds, durations = [], []
    while True:
        t0 = time.monotonic()
        rounds.append(per_round() if per_round else run_child(spec, deadline))
        durations.append(time.monotonic() - t0)
        next_end = time.monotonic() - start + statistics.median(durations)
        if next_end > HARD_LIMIT_S or (len(rounds) >= MIN_SAMPLES and next_end > seconds):
            return rounds


def scaled(sample: dict, key: str) -> float:
    """A time of the sample, at the reference speed of the host."""
    return sample[key] * REF_PROBE_S / sample["probe_s"]


def _scaled_median(samples: list, key: str) -> float:
    return _median([{key: scaled(s, key)} for s in samples if key in s], key)


def end_to_end(spec: dict, seconds: float) -> tuple[list, dict]:
    samples = repeat(spec, seconds, time.monotonic())
    timed = [s for s in samples if "wall_s" in s]
    per_sample = [
        {
            "setup_s": s["setup_s"],
            "wall_s": scaled(s, "wall_s"),
            "ops_per_s": s["ops"] / scaled(s, "wall_s"),
            "peak_rss_mb": s["peak_rss_mb"],
        }
        for s in timed
    ]
    return samples, {name: _median(per_sample, name) for name in END_TO_END}


def traced(spec: dict, seconds: float) -> tuple[list, dict]:
    start = time.monotonic()
    deadline = start + HARD_LIMIT_S
    workload = spec["workload"]
    samples, metrics, notes = [], {}, []
    if workload == "verify-grid":
        # one fresh interpreter per check: in one process the shared caches
        # would make each check's time depend on the checks run before it
        for cid in wl.CHECK_IDS:
            s = run_child(dict(spec, check_id=cid), deadline)
            samples.append(s)
            metrics[f"identities.{cid}.cold_s"] = scaled(s, "wall_s") if "wall_s" in s else 0.0
    base_mode = "warm" if workload == "verify-grid" else "plain"
    pairs = repeat(spec, seconds, start, lambda: (
        run_child(dict(spec, mode=base_mode), deadline),
        run_child(dict(spec, mode="traced"), deadline),
    ))
    bases = [b for b, _ in pairs]
    traces = [t for _, t in pairs]
    samples += bases + traces
    traces = [t for t in traces if "layers" in t]
    if not traces:
        raise BenchError("no traced sample finished")
    for name in tracer.LAYER_METRICS:
        if name.endswith("_s"):
            values = [t["layers"][name] * REF_PROBE_S / t["probe_s"] for t in traces]
        else:
            values = [t["layers"][name] for t in traces]
        if name.endswith(tracer.COUNT_SUFFIXES) and len(set(values)) > 1:
            notes.append(f"{name} differs between traced samples: {values}")
        metrics[name] = statistics.median(values)
    cold = _scaled_median(bases, "wall_s")
    metrics["trace.overhead_ratio"] = _scaled_median(traces, "wall_s") / cold
    if workload == "verify-grid":
        metrics["identities.cold_s"] = cold
        metrics["identities.warm_s"] = _scaled_median(bases, "warm_s")
        metrics["identities.cells_per_s"] = wl.expected_ops(workload, spec["inputs"]) / cold
    else:
        notes.append("identities.* are 0: the identity suite runs only in verify-grid")
    if workload == "stirling-triangles":
        metrics["cli.output_bytes"] = _median(traces, "output_bytes")
    else:
        notes.append("cli.* are 0: pqpoly gen runs only in stirling-triangles")
    for t in traces:
        notes += [f"absent span {a}" for a in t.get("absent", ())]
    units = layer_units()
    for name in units:
        metrics.setdefault(name, 0)
    for note in dict.fromkeys(notes):
        print(f"note: {note}", file=sys.stderr)
    return samples, {name: metrics[name] for name in units}


def run_workload(
    workload: str, seed: int, seconds: float, trace: bool, corrupt: bool, tmp_root: str
) -> dict:
    inputs = wl.make_inputs(workload, seed)
    spec = {
        "workload": workload, "inputs": inputs, "mode": "plain",
        "corrupt": corrupt, "tmp_root": tmp_root,
    }
    samples, values = (traced if trace else end_to_end)(spec, seconds)
    attempted = sum(s["ops"] for s in samples)
    failed = sum(s["failed"] for s in samples)
    units = layer_units() if trace else END_TO_END
    print(json.dumps({
        "workload": workload, "seed": seed, "seed_used": workload != "stirling-triangles",
        "inputs": inputs, "samples": len(samples), "trace": int(trace),
        "python": platform.python_version(), "nproc": os.cpu_count(),
        "source_sha256": source_digest(),
        # medians over every sample of the run, before scaling
        "unscaled_wall_s": _median(samples, "wall_s"), "probe_s": _median(samples, "probe_s"),
    }))
    for name, value in values.items():
        print(f"  {workload:<19} {name:<38} {value:>16.6g} {units[name]}")
    print(f"  {workload:<19} {'fail_ratio':<38} {failed / attempted:>16.6g} ({failed}/{attempted})")
    return {
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": v, "unit": units[name]} for name, v in values.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=wl.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--corrupt", action="store_true",
                        help="self-test: spoil one result per sample")
    args = parser.parse_args(argv)

    if not (SRC / "pqpoly" / "__init__.py").is_file():
        print(f"error: no pqpoly sources under {SRC}", file=sys.stderr)
        return 2
    # byte-compile once, so no sample pays for compiling the sources
    compileall.compile_dir(str(SRC), quiet=1)
    names = wl.WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        with scratch_dir() as tmp_root:
            results = {
                w: run_workload(w, args.seed, args.seconds, bool(args.trace), args.corrupt, tmp_root)
                for w in names
            }
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    if len(results) == 1:
        result = results[args.workload]
    else:
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{m}": v for w, r in results.items() for m, v in r["metrics"].items()},
        }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
