"""Exact arithmetic for two-parameter poly-Euler, poly-Bernoulli and
poly-Cauchy polynomial families, plus a batch verifier for the identities
connecting them."""

from . import egf, exact, families, identities, pqcalc, sequences

from .exact import (
    XPoly,
    falling_factorial,
    rational_from_printed,
    rational_from_str,
    rational_to_str,
    rising_factorial,
)
from .egf import EgfSeries, compose
from .pqcalc import PQParams, pq_integer, pq_integral_01_monomial
from .sequences import (
    RationalFunction,
    bernoulli_order,
    euler_poly,
    frobenius_euler,
    li_pq_closed_form,
    stirling1_unsigned,
    stirling2,
    weighted_stirling1,
    weighted_stirling2,
)
from .families import (
    ROUTE_GF,
    ROUTE_INTEGRAL,
    ROUTE_STIRLING,
    poly_bernoulli,
    poly_cauchy_1,
    poly_cauchy_2,
    poly_euler,
    poly_euler_number,
)
from .identities import (
    IdentityCheck,
    IdentityReport,
    SuiteConfig,
    CHECK_IDS,
    run_all,
    run_check,
)

__version__ = "0.1.0"


def clear_caches() -> None:
    """Empty every cache in the package.

    Values are cached for the life of the process: each ``lru_cache``, and
    with them the generating-function rows and columns, which their
    ``lru_cache``d factories hold.  After this call the next read
    recomputes from the ingredients bound at that time.
    """
    for module in (exact, pqcalc, egf, sequences, families, identities):
        for value in vars(module).values():
            if hasattr(value, "cache_clear"):
                value.cache_clear()


__all__ = [
    "XPoly",
    "falling_factorial",
    "rising_factorial",
    "rational_from_str",
    "rational_from_printed",
    "rational_to_str",
    "EgfSeries",
    "compose",
    "PQParams",
    "pq_integer",
    "pq_integral_01_monomial",
    "RationalFunction",
    "stirling2",
    "stirling1_unsigned",
    "weighted_stirling1",
    "weighted_stirling2",
    "euler_poly",
    "bernoulli_order",
    "frobenius_euler",
    "li_pq_closed_form",
    "ROUTE_GF",
    "ROUTE_STIRLING",
    "ROUTE_INTEGRAL",
    "poly_euler",
    "poly_euler_number",
    "poly_bernoulli",
    "poly_cauchy_1",
    "poly_cauchy_2",
    "IdentityCheck",
    "IdentityReport",
    "SuiteConfig",
    "CHECK_IDS",
    "run_all",
    "run_check",
    "clear_caches",
    "__version__",
]
