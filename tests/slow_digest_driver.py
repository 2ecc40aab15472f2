"""Byte identity of the CLI's slow runs, checked by hand.

The fast runs are pinned in tier-1 by test_output_digests.py.  The runs
here take from seconds to about a minute each, so no test launches them:
this driver runs each in a fresh process, compares the SHA-256 of its
standard output and standard error, and its exit code, with
slow_output_digests.json, and prints each run's wall time and peak RSS.
The peak RSS is the child's own: as it exits, the child reads its VmHWM
from /proc/self/status and writes it to a pipe, apart from the output
that is digested.  The ru_maxrss that os.wait4 reports is not used, since
after the vfork and exec that start a child it takes in the driver's own
peak too.  The output of each
gen run is also read back, in a process of its own, value by value,
through ``exact.rational_from_printed``, and each row holding a value that
does not read back, or does not print again as the same text, is reported.

    PYTHONPATH=src python tests/slow_digest_driver.py
    PYTHONPATH=src python tests/slow_digest_driver.py --only poly-cauchy-1
    PYTHONPATH=src python tests/slow_digest_driver.py --record

Exits 1 when any run differs from its recorded digest or has a row that
does not read back.  --only SUBSTRING runs only the runs whose argv
contains SUBSTRING, or, when SUBSTRING is a run's whole argv, that run
alone: the JSON corner's argv is part of the CSV corner's, so

    PYTHONPATH=src python tests/slow_digest_driver.py --only "gen --family poly-cauchy-1 --nmax 100 --k 30"

runs the JSON corner without the CSV one.  --record rewrites the
table instead, or with --only the entries of the runs selected; a change
meant to alter the output re-records it and says which runs changed, and
why.
"""

import argparse
import hashlib
import json
import math
import os
import subprocess
import sys
import tempfile
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


def _sha256(fh) -> str:
    fh.seek(0)
    digest = hashlib.sha256()
    for block in iter(lambda: fh.read(1 << 20), b""):
        digest.update(block)
    return digest.hexdigest()


def _rows(fh, csv: bool):
    """(n, value strings) of each row of the gen output in fh, one row at a
    time, so the whole document is never held.  A JSON row is read as the
    CLI lays it out: its "n" line at depth 3, then one JSON string per line
    at depth 4."""
    if csv:
        next(fh)  # the header
        for line in fh:
            n, _, cells = line.decode("utf-8").rstrip("\n").partition(",")
            yield int(n), cells.split(";") if cells else []
        return
    n, cells = None, []
    for line in fh:
        if line.startswith(b'      "n": '):
            if n is not None:
                yield n, cells
            n, cells = int(line[11:].rstrip(b",\n")), []
        elif line.startswith(b'        "'):
            cells.append(json.loads(line.rstrip(b",\n")))
    yield n, cells


def unread_rows(fh, csv: bool) -> list[int]:
    """The n of each row of the gen output in fh with a value that does not
    read back to the same text."""
    from pqpoly.exact import rational_from_printed, rational_to_str

    def reads_back(text: str) -> bool:
        try:
            return rational_to_str(rational_from_printed(text)) == text
        except ValueError:
            return False

    return [n for n, cells in _rows(fh, csv) if not all(map(reads_back, cells))]


def read_back(out, csv: bool) -> list[int]:
    """``unread_rows`` of the file out, found by this script in a process
    of its own, so the driver does not grow."""
    out.seek(0)
    proc = subprocess.run(
        [sys.executable, __file__, "--read-back", "csv" if csv else "json"],
        stdin=out,
        capture_output=True,
        check=True,
    )
    return json.loads(proc.stdout)


# ``python -m pqpoly`` with the fd of a pipe as its first argument: at
# exit, after the CLI has run, it writes its VmHWM in kB to that fd
_CHILD = """
import atexit, os, runpy, sys

fd = int(sys.argv.pop(1))

def report():
    with open("/proc/self/status") as fh:
        hwm = next(line for line in fh if line.startswith("VmHWM:"))
    os.write(fd, hwm.split()[1].encode())

atexit.register(report)
runpy.run_module("pqpoly", run_name="__main__", alter_sys=True)
"""


def run_digest(argv: str) -> tuple[dict, float, float, list | None]:
    """The digests of one CLI run in a fresh process, its wall time in
    seconds, its own peak RSS in MB (nan if it did not report one), and,
    for a gen run, the rows of its output that do not read back (None for
    any other run)."""
    with tempfile.TemporaryFile() as out, tempfile.TemporaryFile() as err:
        peak_r, peak_w = os.pipe()
        started = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, "-c", _CHILD, str(peak_w), *argv.split()],
            stdout=out,
            stderr=err,
            pass_fds=(peak_w,),
        )
        os.close(peak_w)
        # wait4 reaps this child alone; its exit status is the run's
        _, status, _ = os.wait4(proc.pid, 0)
        elapsed = time.perf_counter() - started
        proc.returncode = os.waitstatus_to_exitcode(status)
        with os.fdopen(peak_r, "rb") as fh:
            reported = fh.read()
        peak_mb = int(reported) / 1024 if reported else math.nan
        digest = {
            "stdout": _sha256(out),
            "stderr": _sha256(err),
            "exit": proc.returncode,
        }
        unread = None
        if argv.startswith("gen") and proc.returncode == 0:
            unread = read_back(out, "--format csv" in argv)
    return digest, elapsed, peak_mb, unread


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="compare the CLI's slow runs with their recorded digests"
    )
    parser.add_argument(
        "--record", action="store_true", help="rewrite the table instead"
    )
    parser.add_argument(
        "--only",
        metavar="SUBSTRING",
        help="run only the runs whose argv contains it, or the one whose argv it is",
    )
    parser.add_argument(
        "--read-back",
        choices=("json", "csv"),
        help="print the rows of gen output on stdin that do not read back",
    )
    args = parser.parse_args(argv)
    if args.read_back:
        print(json.dumps(unread_rows(sys.stdin.buffer, args.read_back == "csv")))
        return 0
    if args.only in RUNS:
        runs = [args.only]
    else:
        runs = [run for run in RUNS if args.only is None or args.only in run]
    if not runs:
        parser.error(f"--only: no run contains {args.only!r}")
    recorded = json.loads(DIGESTS.read_text("utf-8")) if DIGESTS.exists() else {}
    table, failing = dict(recorded), []
    for run in runs:
        digest, elapsed, peak_mb, unread = run_digest(run)
        table[run] = digest
        verdict = "recorded" if args.record else (
            "same" if digest == recorded.get(run) else "DIFFERS"
        )
        if verdict == "DIFFERS" or unread:
            failing.append(run)
        print(f"{elapsed:8.2f} s  {peak_mb:6.1f} MB  {verdict:8}  {run}", flush=True)
        if unread:
            print(f"  rows not read back: {unread}", flush=True)
    if args.record:
        table = {run: table[run] for run in RUNS if run in table}
        DIGESTS.write_text(json.dumps(table, indent=2) + "\n", "utf-8")
    return 1 if failing else 0


if __name__ == "__main__":
    sys.exit(main())
