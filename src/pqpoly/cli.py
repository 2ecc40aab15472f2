"""Command-line surface.

Three subcommands: ``gen`` tabulates a polynomial family or a Stirling
triangle, ``closed-form`` prints the rational closed form of the
polylogarithm for k <= 0, and ``verify`` runs the identity suite.
``gen`` writes its table a row at a time, each as it is computed;
``verify`` and ``closed-form`` write their JSON in one piece,
``json.dumps(obj, indent=2)`` and a newline, the layout gen's JSON keeps.

Exit codes: 0 success, 1 verification found failing or vacuous suites,
2 configuration error.  Rationals on the command line are written "a/b"
(a bare integer is accepted); decimals are rejected to keep the exactness
contract visible end to end.
"""

from __future__ import annotations

import argparse
import itertools
import json
import sys
from json.encoder import encode_basestring_ascii
from fractions import Fraction
from typing import Callable, Iterable, Iterator

from . import families, identities, sequences
from .exact import rational_from_str, rational_to_str
from .pqcalc import PQParams

# gen's name of each family in the route table: poly-euler for poly_euler
POLY_FAMILIES = {f.replace("_", "-"): f for f in families.ROUTES_BY_FAMILY}

ALL_FAMILIES = (
    *POLY_FAMILIES, "euler", "bernoulli-order", "frobenius-euler",
    "stirling2", "stirling1",
)


# Largest run sizes accepted.  They bound n, |k| and s, not the size of --p
# and --q, so they do not bound the run time.  At the default point p = 1/2,
# q = 1/3, gen --family poly-cauchy-1 --k 30 --nmax 100 took 57-78 s at
# 35 MB peak RSS writing 82 MB of JSON, and 58-97 s at 33 MB as CSV (gen
# keeps no row once written); verify --nmax 32 took 4.9-9.1 s at 45 MB.
# At p = 1/1, q = 1/1000, gen --family poly-bernoulli --k 30 took 0.8 s at
# --nmax 30 and 12.8 s at --nmax 50 (34 MB of JSON), and was still running
# at --nmax 100 after 300 s, against 18.6 s at the default point (2 cores,
# CPython 3.11; run times on that host varied by up to 2.2x over a day).
# Time and memory keep growing past the bounds, so a larger value is
# refused when the flag is parsed.
GEN_NMAX_LIMIT = 100
VERIFY_NMAX_LIMIT = 32
K_LIMIT = 30
S_LIMIT = 1000


class CliError(Exception):
    """Configuration failure; the message names the offending flag."""


def _rational_arg(text: str) -> Fraction:
    try:
        return rational_from_str(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _nonneg_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError("must be nonnegative")
    return value


def _at_most(limit: int, parse: Callable[[str], int]) -> Callable[[str], int]:
    """``parse`` with |value| <= limit enforced; its own errors, and the
    name argparse reports them under, are kept."""

    def bounded(text: str) -> int:
        value = parse(text)
        if value > limit:
            raise argparse.ArgumentTypeError(f"must be at most {limit}")
        if value < -limit:
            raise argparse.ArgumentTypeError(f"must be at least {-limit}")
        return value

    bounded.__name__ = parse.__name__
    return bounded


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pqpoly",
        description="Exact tables and identity verification for the "
        "two-parameter poly-Euler, poly-Bernoulli and poly-Cauchy families.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="tabulate a family for n = 0..nmax")
    gen.add_argument("--family", required=True, choices=ALL_FAMILIES)
    gen.add_argument(
        "--nmax", type=_at_most(GEN_NMAX_LIMIT, _nonneg_int), required=True
    )
    gen.add_argument("--k", type=_at_most(K_LIMIT, int), default=1)
    gen.add_argument("--s", type=_at_most(S_LIMIT, _nonneg_int), default=1)
    gen.add_argument("--u", type=_rational_arg, default=Fraction(-1))
    gen.add_argument("--p", type=_rational_arg, default=Fraction(1, 2))
    gen.add_argument("--q", type=_rational_arg, default=Fraction(1, 3))
    gen.add_argument("--format", choices=("json", "csv"), default="json")
    gen.add_argument("--output", default=None)

    verify = sub.add_parser("verify", help="run the identity suite")
    verify.add_argument(
        "--nmax", type=_at_most(VERIFY_NMAX_LIMIT, _nonneg_int), default=10
    )
    verify.add_argument(
        "--only", default=None, help="comma-separated check ids"
    )
    verify.add_argument("--output", default=None)

    closed = sub.add_parser(
        "closed-form", help="rational closed form of the polylogarithm, k <= 0"
    )
    closed.add_argument("--k", type=_at_most(K_LIMIT, int), required=True)
    closed.add_argument("--p", type=_rational_arg, default=Fraction(1, 2))
    closed.add_argument("--q", type=_rational_arg, default=Fraction(1, 3))
    closed.add_argument("--format", choices=("json", "csv"), default="json")
    closed.add_argument("--output", default=None)

    return parser


def _params_from_args(args) -> PQParams:
    try:
        return PQParams(args.p, args.q)
    except ValueError as exc:
        raise CliError(f"--p/--q: {exc}") from None


def _json_rows(
    obj: dict, key: str, rows: Iterable[tuple[int, list[str]]]
) -> Iterator[str]:
    """The text ``json.dumps(obj, indent=2)`` and a newline would be with a
    last key "rows" in obj, the list of ``{"n": n, key: strings}`` for each
    (n, strings) of rows (at least one), in pieces: obj's text, then each
    row as it is reached, so that none waits for the rest.  A row is written as the encoder writes it at that
    depth, each string quoted and escaped by the encoder's own
    ``encode_basestring_ascii``."""
    # the text of nonempty obj ends "\n}": "rows" goes in before that brace
    yield json.dumps(obj, indent=2)[:-2] + ',\n  "rows": ['
    name, sep = encode_basestring_ascii(key), "\n    "
    for n, strings in rows:
        yield f'{sep}{{\n      "n": {n},\n      {name}: '
        if strings:
            # the joined strings go out apart from the text around them, so
            # a long row is not copied once more
            yield "[\n        "
            yield ",\n        ".join(map(encode_basestring_ascii, strings))
            yield "\n      ]\n    }"
        else:
            yield "[]\n    }"
        sep = ",\n    "
    yield "\n  ]\n}\n"


def _emit(chunks: Iterable[str], path) -> None:
    """Write the text ``chunks`` to standard output, or to the file
    ``path``, each as it is made."""
    if path is None:
        sys.stdout.writelines(chunks)
        return
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.writelines(chunks)
    except OSError as exc:
        raise CliError(f"--output: {exc}") from None


def _uncached(fn):
    """fn, or the uncached body of an ``lru_cache``d fn, so that no row gen
    prints outlives its write."""
    return fn.__wrapped__ if hasattr(fn, "cache_info") else fn


def cmd_gen(args) -> int:
    family = args.family
    obj = {"family": family, "n_max": args.nmax}
    key = "coeffs"
    if family in POLY_FAMILIES:
        params = _params_from_args(args)
        obj["k"] = args.k
        obj["p"], obj["q"] = params.as_strings()

        # the gf route by name, as families.compute looks it up, so a
        # rebound route reaches gen too
        routes = families.ROUTES_BY_FAMILY[POLY_FAMILIES[family]]
        fn = _uncached(getattr(families, routes[families.ROUTE_GF]))

        def cells(n):
            return fn(n, args.k, params).to_strings()

    elif family == "euler":

        def cells(n):
            return sequences.euler_poly(n).to_strings()

    elif family == "bernoulli-order":
        obj["s"] = args.s
        # the cache stays: the identities read it across (k, params)
        fn = _uncached(sequences.bernoulli_order)

        def cells(n):
            return fn(n, args.s).to_strings()

    elif family == "frobenius-euler":
        obj["s"] = args.s
        obj["u"] = rational_to_str(args.u)
        if args.u == 1:
            raise CliError("--u: u = 1 is outside the Frobenius-Euler domain")

        def cells(n):
            return sequences.frobenius_euler(n, args.s, args.u).to_strings()

    else:
        key = "values"
        row = (
            sequences.stirling2_row
            if family == "stirling2"
            else sequences.stirling1_unsigned_row
        )

        def cells(n):
            return list(map(rational_to_str, row(n)))

    ns = range(args.nmax + 1)
    if args.format == "json":
        _emit(_json_rows(obj, key, ((n, cells(n)) for n in ns)), args.output)
    else:
        rows = (f"{n},{';'.join(cells(n))}\n" for n in ns)
        _emit(itertools.chain([f"n,{key}\n"], rows), args.output)
    return 0


def cmd_verify(args) -> int:
    only = None
    if args.only is not None:
        only = [part.strip() for part in args.only.split(",") if part.strip()]
        unknown = [i for i in only if i not in identities.CHECK_IDS]
        if unknown:
            raise CliError(f"--only: unknown check ids: {', '.join(unknown)}")
        if not only:
            raise CliError("--only: no check ids given")
    config = identities.SuiteConfig(n_max=args.nmax)
    reports = identities.run_all(config, only=only)
    all_good = all(r.passed for r in reports)
    obj = {
        "n_max": args.nmax,
        "reports": [r.to_json_obj() for r in reports],
        "passed": all_good,
    }
    _emit([json.dumps(obj, indent=2), "\n"], args.output)
    return 0 if all_good else 1


def cmd_closed_form(args) -> int:
    if args.k > 0:
        raise CliError("--k: closed form exists only for k <= 0")
    params = _params_from_args(args)
    if params.is_equal_limit:
        raise CliError("--p/--q: closed form requires p != q")
    rf = sequences.li_pq_closed_form(args.k, params)
    num = rf.numerator.to_strings()
    den = rf.denominator.to_strings()
    if args.format == "json":
        p, q = params.as_strings()
        obj = dict(k=args.k, p=p, q=q, numerator=num, denominator=den)
        _emit([json.dumps(obj, indent=2), "\n"], args.output)
    else:
        lines = [f"numerator,{';'.join(num)}\n", f"denominator,{';'.join(den)}\n"]
        _emit(lines, args.output)
    return 0


_parser = None


def main(argv=None) -> int:
    """Run the CLI on argv (default: ``sys.argv[1:]``) and return the exit
    code.  The parser is built on the first call and reused by every later
    call in the process: it depends only on this module's constants, and
    argparse's parse, error and help paths read it without changing it."""
    global _parser
    if _parser is None:
        _parser = build_parser()
    args = _parser.parse_args(argv)
    handlers = {
        "gen": cmd_gen,
        "verify": cmd_verify,
        "closed-form": cmd_closed_form,
    }
    try:
        return handlers[args.command](args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
