"""Seeded-defect runs for the identity verification suite.

Each mutation rebinds one internal function to a slightly wrong variant,
then runs a reduced verification grid.  A useful suite must notice every
defect here; the acceptance tests launch each mutation in a fresh process
(caches fill after the rebinding that way) and require a nonempty failure
list.

    python tests/mutation_driver.py stirling2-off-by-one

Prints {"mutation": ..., "failing": [...]} and exits 1 when any check
failed, which is the expected outcome for everything except "none".

    python tests/mutation_driver.py --matrix

runs no mutant: it prints, from the recorded kills in mutation_kills.json,
one line per check in registry order with the mutants that kill it, and
marks "(never alone)" a check that no mutant kills on its own, so that a
kill of it always comes with a kill of some other check.
"""

import argparse
import json
import math
import pathlib
import sys
from fractions import Fraction
from functools import lru_cache

from pqpoly import egf, families, identities, pqcalc, sequences
from pqpoly.egf import PowerRows
from pqpoly.exact import XPoly
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


def mutate_cauchy1_integral_at_neg_x() -> None:
    """The first-kind integral route integrates (t_1...t_k + x)_n, the
    falling factorial taken at -x, instead of (t_1...t_k - x)_n."""
    route = families.cauchy1_via_integral_expansion

    def reflected(n, k, params):
        return route(n, k, params).affine(-1, 0)

    families.cauchy1_via_integral_expansion = reflected


def mutate_cauchy2_integral_drops_sign() -> None:
    """The second-kind integral route loses its factor (-1)^n, the sign
    between (x - t_1...t_k)_n and the rising factorial it expands."""
    route = families.cauchy2_via_integral_expansion

    def unsigned(n, k, params):
        return (-1) ** n * route(n, k, params)

    families.cauchy2_via_integral_expansion = unsigned


def mutate_polylog_coeff_exponent_sign() -> None:
    """The polylogarithm coefficients take [m]^k for [m]^(-k).

    Only the gf routes' Li_k and Lif_k columns read those coefficients, so
    they carry the defect; the right sides of invrel1 (Li_k) and invrel2
    and invrel3 (Lif_k) compute [n+1]^(-k) on their own and must see it.
    """

    def li_flipped(m: int, k: int, params) -> Fraction:
        return pqcalc.pq_integer(m, params) ** k if m else Fraction(0)

    def lif_flipped(m: int, k: int, params) -> Fraction:
        return pqcalc.pq_integer(m + 1, params) ** k / math.factorial(m)

    sequences._li_coeff = li_flipped
    sequences._lif_coeff = lif_flipped


def mutate_stirling_weight_exponent_sign() -> None:
    """The weighted-Stirling routes weight term m by [m+1]^k for [m+1]^(-k).

    Only those three routes read families._stirling_weight, looked up on the
    module at each call; the gf routes and the invrel right sides compute
    their own powers, so only the route comparisons must see it.
    """

    def flipped(m: int, k: int, params) -> Fraction:
        return pqcalc.pq_integer(m + 1, params) ** k

    families._stirling_weight = flipped


def mutate_li_forgets_deformation() -> None:
    """Polylogarithm coefficients built from plain integers, as if p = q = 1.

    The identities treat the coefficient weights as opaque, so a wholesale
    parameter-blind rewrite of every [m] in the package would slip through
    any identity suite; seeding the defect at the one per-index Li_k
    coefficient is the realistic single-site version, and the checks that
    pin those weights against the deformed integers directly must catch it.
    """

    def classical(m: int, k: int, params) -> Fraction:
        return Fraction(m) ** (-k) if m else Fraction(0)

    sequences._li_coeff = classical


def mutate_egf_pow_extra_factor() -> None:
    """The power recurrence builds a^(alpha - 1) for alpha < 0, one factor
    too many.

    bernoulli_order and frobenius_euler (and with it euler_poly) grow their
    columns of a^(-s) by egf.grow_power, so the defect reaches the checks
    built on them.
    """
    power = egf.grow_power

    def extra(coeff, alpha: int, r: list, n: int) -> None:
        power(coeff, alpha - 1 if alpha < 0 else alpha, r, n)

    egf.grow_power = extra


def mutate_power_rows_drop_cube() -> None:
    """The row builder loses the inner^3 term.

    compose, every gf route and the four Stirling triangles read their
    powers of a series from these rows.  Both poly-Bernoulli routes lose
    the same term m = 3 (W2(n, 3) reads zero), so they still agree.  The
    three routes of each Cauchy kind lose different terms: the gf route the
    cube of its logarithm, the Stirling route each x^i coefficient of
    W1(n, m) with i + m = 3, and the integral route its m = 3 term, since
    s(n, 3) is read off the plain first-kind table's rows.  So the Cauchy
    route comparisons must see it.
    """
    row = PowerRows.row

    def dropping(self, j: int) -> tuple:
        entries = row(self, j)
        if j < 3:
            return entries
        return entries[:3] + (entries[3] * 0,) + entries[4:]

    PowerRows.row = dropping


def mutate_reciprocal_drops_first_term() -> None:
    """The shared power recurrence loses its i = 1 term for j >= 2.

    The columns of euler_poly, bernoulli_order and frobenius_euler and the
    2/(e^t + 1) column of the poly-Euler gf route all grow by
    egf.grow_power, so this one rebinding reaches both.
    """
    grow = egf.grow_power

    def dropping(coeff, alpha: int, r: list, n: int) -> None:
        grow(coeff, alpha, r, min(n, 1))
        a0 = Fraction(coeff(0))
        for j in range(len(r), n + 1):
            acc = sum(
                math.comb(j, i) * ((alpha + 1) * i - j) * (coeff(i) * r[j - i])
                for i in range(2, j + 1)
            )
            r.append(acc / (j * a0))

    egf.grow_power = dropping


def mutate_appell_high_term() -> None:
    """The Appell expansion adds x^n/7 to every polynomial of degree n >= 3.

    poly_euler, the gf route of poly_bernoulli, the classical families and
    the integral routes of both poly-Cauchy kinds all expand through
    egf.appell, looked up on the module at each call, so this one rebinding
    reaches every one of them.  The Appell checks compare E_n at a shifted
    or scaled argument with a sum over E_i, so the extra term cannot cancel
    there; no other Cauchy route reads egf.appell, so the Cauchy route
    comparisons see it too.
    """
    appell = egf.appell

    def high(base, n: int, sign: int = 1) -> XPoly:
        value = appell(base, n, sign)
        return value + XPoly.monomial(n, Fraction(1, 7)) if n >= 3 else value

    egf.appell = high


def mutate_sum_products_drops_last_term() -> None:
    """The sum-of-products kernel loses the last of four or more terms.

    Every XPoly sum and product goes through XPoly.sum_products, looked up
    on the class at each call: the operators, the EGF products of the gf
    routes, the weighted-Stirling and integral-expansion routes and every
    evaluator side.  The three routes of each Cauchy kind sum different
    terms, so each loses a different one and the Cauchy route comparisons
    must see it.
    """
    kernel = XPoly.sum_products

    def dropping(terms) -> XPoly:
        terms = list(terms)
        return kernel(terms[:-1] if len(terms) >= 4 else terms)

    XPoly.sum_products = staticmethod(dropping)


def mutate_poly_euler_number() -> None:
    """The poly-Euler number is off by 1/7 at n = 2.

    The right sides of appell_i, tid2 and tid3 read E_n(0) through
    families.poly_euler_number, looked up on the module at each call; their
    left sides are poly_euler, the Appell expansion of the poly-Euler column
    read directly, so this defect reaches the right sides only.
    """
    number = families.poly_euler_number

    def skewed(n: int, k: int, params) -> Fraction:
        value = number(n, k, params)
        return value + Fraction(1, 7) if n == 2 else value

    families.poly_euler_number = skewed


def _extra_term(module, name: str) -> None:
    """Entry (3, 1) of one cached two-index table of polynomials, such as a
    weighted Stirling triangle, gains x/7."""
    plain = getattr(module, name).__wrapped__

    def skewed(n: int, m: int) -> XPoly:
        value = plain(n, m)
        if (n, m) == (3, 1):
            value += XPoly.monomial(1, Fraction(1, 7))
        return value

    setattr(module, name, lru_cache(maxsize=None)(skewed))


def mutate_weighted_stirling2_extra_term() -> None:
    """One wrong entry of the second-kind weighted triangle.

    The cross relations from the Cauchy polynomials read it in their
    polynomial inner sums and in their outer sums."""
    _extra_term(sequences, "weighted_stirling2")


def mutate_weighted_stirling1_extra_term() -> None:
    """One wrong entry of the first-kind weighted triangle.

    The cross relations to the Cauchy polynomials read it in their Bernoulli
    inner sum and in their outer sums."""
    _extra_term(sequences, "weighted_stirling1")


def mutate_ws1_neg_x_extra_term() -> None:
    """One wrong entry of the first-kind weighted triangle taken at -x.

    Only the outer sum of cross_chat_from_b reads that triangle, so the
    defect reaches no other check."""
    _extra_term(identities, "_ws1_neg_x")


def mutate_bernoulli_gf_at_neg_x() -> None:
    """The gf route of poly-Bernoulli takes e^(xt) for e^(-xt).

    The route comparison of polyberrel1, and every check that reads
    poly-Bernoulli values, reads it by name through families.compute."""
    route = families.bernoulli_via_gf

    def reflected(n, k, params):
        return route(n, k, params).affine(-1, 0)

    families.bernoulli_via_gf = reflected


def mutate_bernoulli_stirling_drops_top_term() -> None:
    """The weighted-Stirling route of poly-Bernoulli stops at m = n - 1."""

    def short(n, k, params):
        return XPoly.sum_products(
            ((-1) ** (n + m) * math.factorial(m),
             families._stirling_weight(m, k, params),
             sequences.weighted_stirling2(n, m))
            for m in range(n)
        )

    families.bernoulli_via_weighted_stirling = short


def mutate_cauchy1_gf_second_kind_inner() -> None:
    """The first-kind gf route composes Lif_k with -ln(1+t), the second
    kind's inner, for ln(1+t): coefficient n of Lif_k(-ln(1+t)) (1+t)^(-x)
    is the second kind's gf value at -x."""
    second = families.cauchy2_via_gf

    def crossed(n, k, params):
        return second(n, k, params).affine(-1, 0)

    families.cauchy1_via_gf = crossed


def mutate_cauchy2_gf_at_neg_x() -> None:
    """The second-kind gf route takes (1+t)^(-x) for (1+t)^x."""
    route = families.cauchy2_via_gf

    def reflected(n, k, params):
        return route(n, k, params).affine(-1, 0)

    families.cauchy2_via_gf = reflected


def mutate_cauchy2_stirling_drops_sign() -> None:
    """The second-kind weighted-Stirling route loses its factor (-1)^n."""
    route = families.cauchy2_via_weighted_stirling

    def unsigned(n, k, params):
        return (-1) ** n * route(n, k, params)

    families.cauchy2_via_weighted_stirling = unsigned


def mutate_lif_coeff_drops_factorial() -> None:
    """The Lif_k coefficients lose their 1/m!: [m+1]^(-k) for m >= 2.

    Only the gf routes of the two Cauchy kinds read them, through their
    Lif_k columns; invrel2 and invrel3 compute [n+1]^(-k) on their own."""

    def unscaled(m: int, k: int, params) -> Fraction:
        return pqcalc.pq_integer(m + 1, params) ** (-k)

    sequences._lif_coeff = unscaled


def mutate_push_over_skips_rescale() -> None:
    """A column's running denominator grows to the lcm, but the numerators
    it already keeps are not rescaled to it.

    Every gf column (Li_k, Lif_k) and the integral routes' column of
    moments keep their values through families._push_over."""

    def unscaled(nums: list, den: int, c) -> int:
        d = c.denominator
        if den % d:
            den = math.lcm(den, d)
        nums.append(c.numerator * (den // d))
        return den

    families._push_over = unscaled


def mutate_bernoulli_order_extra_term() -> None:
    """B_3^(1)(x), one order-s Bernoulli polynomial, gains x/7; tid3's inner
    sum reads them."""
    _extra_term(sequences, "bernoulli_order")


def mutate_frobenius_euler_extra_term() -> None:
    """Every Frobenius-Euler polynomial of degree 3 gains x/7.

    tid4 reads them, and so does eucls through euler_poly, the
    Frobenius-Euler polynomial at s = 1, u = -1."""
    plain = sequences.frobenius_euler

    def skewed(n: int, s: int, u) -> XPoly:
        value = plain(n, s, u)
        return value + XPoly.monomial(1, Fraction(1, 7)) if n == 3 else value

    sequences.frobenius_euler = skewed


def mutate_weighted_values_drops_last_point() -> None:
    """XPoly.weighted_values leaves out its last point.

    Only tid4's scalar weight of H_l^(s), E_m at the points 0..s, reads it."""
    weighted = XPoly.weighted_values

    def dropping(self, weights, den: int) -> Fraction:
        return weighted(self, list(weights)[:-1], den)

    XPoly.weighted_values = dropping


MUTATIONS = {
    "stirling2-off-by-one": mutate_stirling2_off_by_one,
    "cauchy1-stirling-sign-flip": mutate_cauchy1_sign_flip,
    "cauchy1-integral-at-neg-x": mutate_cauchy1_integral_at_neg_x,
    "cauchy2-integral-drops-sign": mutate_cauchy2_integral_drops_sign,
    "polylog-coeff-exponent-sign": mutate_polylog_coeff_exponent_sign,
    "stirling-weight-exponent-sign": mutate_stirling_weight_exponent_sign,
    "li-classical": mutate_li_forgets_deformation,
    "egf-pow-extra-factor": mutate_egf_pow_extra_factor,
    "power-rows-drop-cube": mutate_power_rows_drop_cube,
    "reciprocal-drops-first-term": mutate_reciprocal_drops_first_term,
    "appell-high-term": mutate_appell_high_term,
    "sum-products-drops-last-term": mutate_sum_products_drops_last_term,
    "poly-euler-number": mutate_poly_euler_number,
    "weighted-stirling2-extra-term": mutate_weighted_stirling2_extra_term,
    "weighted-stirling1-extra-term": mutate_weighted_stirling1_extra_term,
    "ws1-neg-x-extra-term": mutate_ws1_neg_x_extra_term,
    "bernoulli-gf-at-neg-x": mutate_bernoulli_gf_at_neg_x,
    "bernoulli-stirling-drops-top-term": mutate_bernoulli_stirling_drops_top_term,
    "cauchy1-gf-second-kind-inner": mutate_cauchy1_gf_second_kind_inner,
    "cauchy2-gf-at-neg-x": mutate_cauchy2_gf_at_neg_x,
    "cauchy2-stirling-drops-sign": mutate_cauchy2_stirling_drops_sign,
    "lif-coeff-drops-factorial": mutate_lif_coeff_drops_factorial,
    "push-over-skips-rescale": mutate_push_over_skips_rescale,
    "bernoulli-order-extra-term": mutate_bernoulli_order_extra_term,
    "frobenius-euler-extra-term": mutate_frobenius_euler_extra_term,
    "weighted-values-drops-last-point": mutate_weighted_values_drops_last_point,
}


KILLS = pathlib.Path(__file__).with_name("mutation_kills.json")


def print_matrix() -> None:
    """Each check with the mutants recorded as killing it, in table order."""
    kills = json.loads(KILLS.read_text(encoding="utf-8"))
    for check_id in identities.CHECK_IDS:
        killers = [name for name, failing in kills.items() if check_id in failing]
        alone = any(kills[name] == [check_id] for name in killers)
        mark = "" if alone else "  (never alone)"
        print(f"{check_id}: {', '.join(killers)}{mark}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="run the identity suite against one seeded defect"
    )
    parser.add_argument(
        "mutation", nargs="?", choices=sorted(MUTATIONS) + ["none"]
    )
    parser.add_argument(
        "--matrix",
        action="store_true",
        help="print each check's recorded killers instead of running a mutant",
    )
    args = parser.parse_args(argv)
    if args.matrix:
        print_matrix()
        return 0
    if args.mutation is None:
        parser.error("a mutation is required unless --matrix is given")
    if args.mutation != "none":
        MUTATIONS[args.mutation]()
    reports = run_all(REDUCED)
    failing = [r.id for r in reports if not r.passed]
    print(json.dumps({"mutation": args.mutation, "failing": failing}))
    return 1 if failing else 0


if __name__ == "__main__":
    sys.exit(main())
