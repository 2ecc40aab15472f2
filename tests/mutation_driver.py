"""Seeded-defect runs for the identity verification suite.

Each mutation rebinds one internal function to a slightly wrong variant,
then runs a reduced verification grid.  A useful suite must notice every
defect here; the acceptance tests launch each mutation in a fresh process
(caches fill after the rebinding that way) and require a nonempty failure
list.

    python tests/mutation_driver.py stirling2-off-by-one

Prints {"mutation": ..., "failing": [...]} and exits 1 when any check
failed, which is the expected outcome for everything except "none".
"""

import argparse
import json
import sys
from fractions import Fraction
from functools import lru_cache

from pqpoly import families, sequences
from pqpoly.egf import EgfSeries, PowerRows
from pqpoly.identities import SuiteConfig, run_all
from pqpoly.pqcalc import PQParams

# strict subset of the default acceptance grid
REDUCED = SuiteConfig(
    n_max=6,
    k_values=(1, 2),
    s_values=(1,),
    u_values=(Fraction(-1),),
    scale_values=(1, 2),
    param_points=(PQParams(Fraction(1, 2), Fraction(1, 3)),),
)


def mutate_stirling2_off_by_one() -> None:
    """One wrong entry deep inside the second-kind triangle."""
    plain = sequences.stirling2.__wrapped__

    def skewed(n: int, m: int) -> int:
        value = plain(n, m)
        if (n, m) == (4, 2):
            value += 1
        return value

    sequences.stirling2 = lru_cache(maxsize=None)(skewed)


def mutate_cauchy1_sign_flip() -> None:
    """Negate one of the first-kind Cauchy computation routes."""
    route = families.cauchy1_via_weighted_stirling

    def flipped(n, k, params):
        return -route(n, k, params)

    families.cauchy1_via_weighted_stirling = flipped


def mutate_li_forgets_deformation() -> None:
    """Polylogarithm coefficients built from plain integers, as if p = q = 1.

    The identities treat the coefficient weights as opaque, so a wholesale
    parameter-blind rewrite of every [m] in the package would slip through
    any identity suite; seeding the defect at the one coefficient provider
    is the realistic single-site version, and the checks that pin those
    weights against the deformed integers directly must catch it.
    """

    def classical(k: int, params, order: int) -> list[Fraction]:
        if order < 0:
            raise ValueError("order must be nonnegative")
        return [Fraction(0)] + [
            Fraction(m) ** (-k) for m in range(1, order + 1)
        ]

    sequences.li_pq_ordinary_coeffs = classical


def mutate_egf_powers_skip() -> None:
    """The shared power chain jumps from base^2 to base^4.

    pow and every Stirling row read their powers from this one chain, so
    the defect reaches the Stirling side of each route comparison and the
    classical families built on pow.
    """
    chain = EgfSeries.powers

    def skipping(self):
        for m, power in enumerate(chain(self)):
            if m != 3:
                yield power

    EgfSeries.powers = skipping


def mutate_power_rows_drop_cube() -> None:
    """The generating-function row builder loses the inner^3 term.

    compose and every gf route read their powers of an inner series from
    these rows and the Stirling routes never do, so the route comparisons
    must see it.
    """
    row = PowerRows.row

    def dropping(self, j: int) -> tuple:
        entries = row(self, j)
        if j < 3:
            return entries
        return entries[:3] + (entries[3] * 0,) + entries[4:]

    PowerRows.row = dropping


MUTATIONS = {
    "stirling2-off-by-one": mutate_stirling2_off_by_one,
    "cauchy1-stirling-sign-flip": mutate_cauchy1_sign_flip,
    "li-classical": mutate_li_forgets_deformation,
    "egf-powers-skip": mutate_egf_powers_skip,
    "power-rows-drop-cube": mutate_power_rows_drop_cube,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="run the identity suite against one seeded defect"
    )
    parser.add_argument(
        "mutation", choices=sorted(MUTATIONS) + ["none"]
    )
    args = parser.parse_args(argv)
    if args.mutation != "none":
        MUTATIONS[args.mutation]()
    reports = run_all(REDUCED)
    failing = [r.id for r in reports if not r.passed]
    print(json.dumps({"mutation": args.mutation, "failing": failing}))
    return 1 if failing else 0


if __name__ == "__main__":
    sys.exit(main())
