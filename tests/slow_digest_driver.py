"""Byte identity of the CLI's slow runs, checked by hand.

The fast runs are pinned in tier-1 by test_output_digests.py.  The runs
here take from seconds to about a minute each, so no test launches them:
this driver runs each in a fresh process, compares the SHA-256 of its
standard output and standard error, and its exit code, with
slow_output_digests.json, and prints each run's wall time.

    PYTHONPATH=src python tests/slow_digest_driver.py
    PYTHONPATH=src python tests/slow_digest_driver.py --record

Exits 1 when any run differs from its recorded digest.  --record rewrites
the table instead; a change meant to alter the output re-records it and
says which runs changed, and why.
"""

import argparse
import hashlib
import json
import subprocess
import sys
import time
from pathlib import Path

DIGESTS = Path(__file__).resolve().parent / "slow_output_digests.json"

POLY_FAMILIES = ("poly-euler", "poly-bernoulli", "poly-cauchy-1", "poly-cauchy-2")

RUNS = (
    "gen --family poly-cauchy-1 --nmax 100 --k 30",
    "gen --family poly-cauchy-1 --nmax 100 --k 30 --format csv",
    *(f"gen --family {family} --nmax 100 --k -30" for family in POLY_FAMILIES),
    "verify --nmax 24",
    "verify --nmax 32",
)


def run_digest(argv: str) -> tuple[dict, float]:
    """The digests of one CLI run in a fresh process, and its wall time."""
    started = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "pqpoly", *argv.split()], capture_output=True
    )
    elapsed = time.perf_counter() - started
    digest = {
        "stdout": hashlib.sha256(proc.stdout).hexdigest(),
        "stderr": hashlib.sha256(proc.stderr).hexdigest(),
        "exit": proc.returncode,
    }
    return digest, elapsed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="compare the CLI's slow runs with their recorded digests"
    )
    parser.add_argument(
        "--record", action="store_true", help="rewrite the table instead"
    )
    args = parser.parse_args(argv)
    recorded = {} if args.record else json.loads(DIGESTS.read_text("utf-8"))
    table, differing = {}, []
    for run in RUNS:
        digest, elapsed = run_digest(run)
        table[run] = digest
        verdict = "recorded" if args.record else (
            "same" if digest == recorded.get(run) else "DIFFERS"
        )
        if verdict == "DIFFERS":
            differing.append(run)
        print(f"{elapsed:8.2f} s  {verdict:8}  {run}", flush=True)
    if args.record:
        DIGESTS.write_text(json.dumps(table, indent=2) + "\n", "utf-8")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
