"""Batch verification of the identity inventory as exact polynomial equality.

Each check owns a stable id, enumerates its parameter cells from a
SuiteConfig, and compares two independently computed sides per cell.  A
cell passes only on exact equality of canonical XPoly values; there is no
tolerance anywhere.  Identities carrying a free scalar y are verified at
n + 1 distinct rational y values per cell family.  For appell_ii that is
enough to pin down a polynomial of degree n in y, so a full pass certifies
the bivariate identity.  In the four cross relations the y dependence
cancels: each inner sum is the left side of invrel1, invrel2 or invrel3,
a constant, so the n + 1 y cells of a cross relation compute one value.

Reports are deterministic.  One generator, ``_cells``, lists the cells of
every check but orthogonality in one fixed order: n, then k, then params,
then the check's own axes (s and u for tid3 and tid4, the scale m for
appell_iii, the n + 1 points ``y_samples(n)`` for appell_ii and the cross
relations).  A cell is a tuple in its evaluator's parameter order, (n, k,
params, *axes), or (n, m, direction) for orthogonality, and is passed
positionally; a check that binds more arguments (a family, an inner sum)
binds them in front, by a positional ``partial``.  So a cell builds no
dict and makes no keyword call; the field names are read off the
evaluator's code object only when a cell fails.  The check list has a
fixed order, and the first failing cell (if any) is captured with both
sides serialized, its fields in the cell's order.

Each side that is a sum is built by one ``XPoly.sum_products`` call; eucls,
tid1 and tid2 first sum each basis polynomial's weight as a scalar, and tid2
reads each of its n + 1 poly-Euler numbers once per cell.  Work that does
not depend on the cell is cached: the inner sums of tid3 and tid4
(``_tid3_inner``, and the scalar ``_tid4_weight``, E_m at the points 0..s
under int weights over one denominator, ``XPoly.weighted_values``), the
Frobenius-Euler polynomials tid4 reads, W1(n, m) at -x (``_ws1_neg_x``,
the outer triangle of cross_chat_from_b), the shifted Euler polynomials,
the inner sums Q_m of the cross relations, one polynomial per
(m, k, params) (the Chat one takes each W2(m, l) at -x as it sums, so no
cache keeps W2 at -x), and the right side of each cross relation as a
polynomial in y, whose coefficients R_j = sum_m c_m [y^j]Q_m W(n, m) are
built once per (check, n, k, params); a cell folds sum_j y^j R_j at its y
by Horner, exactly the sum of the Q_m(y) terms, so a Q_m that did depend
on y would still fail cells.  With one coefficient, as for the paper's constant inner
sums, the fold is R_0 and a cell returns the cached R_0 with no kernel call.
The cached Q_n is also the left side of invrel1-3, whose right sides compute
their own [n+1]^(-k).  A cached value may serve one side of several checks,
never both sides of one check, so the two sides stay independent.  No cache
key here holds a bare Fraction, since ``Fraction.__hash__`` computes a
modular inverse on every lookup: tid1 passes its points as ints, tid4 keys
u by its numerator and denominator, and ``PQParams`` is interned, one
object per pair, so it hashes and compares by identity.  appell_ii takes
each power of y = a/b as the int a^(n-i) b^i over one shared 1/b^n.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from functools import lru_cache, partial
from typing import Callable, Iterable, NamedTuple, Optional

from . import egf, families, pqcalc, sequences
from .exact import (
    XPoly,
    check_scalar,
    falling_factorial,
    rational_to_str,
    rising_factorial,
)
from .pqcalc import PQParams

DEFAULT_PARAM_POINTS = (
    PQParams(Fraction(1, 2), Fraction(1, 3)),
    PQParams(Fraction(3, 4), Fraction(1, 5)),
    PQParams(Fraction(1), Fraction(2, 7)),
    PQParams(Fraction(1), Fraction(1)),
    PQParams(Fraction(2, 3), Fraction(2, 3)),
)

# cross relations pair two family evaluations per term; capped separately
CROSS_N_CAP = 8
APPELL_N_CAP = 12


# a NamedTuple may not override __new__, so SuiteConfig validates in a subclass
class _SuiteGrid(NamedTuple):
    n_max: int = 10
    k_values: tuple[int, ...] = (-2, -1, 0, 1, 2, 3)
    s_values: tuple[int, ...] = (1, 2, 3)
    u_values: tuple[Fraction, ...] = (Fraction(-1), Fraction(2), Fraction(1, 2))
    scale_values: tuple[int, ...] = (1, 2, 3)
    param_points: tuple[PQParams, ...] = DEFAULT_PARAM_POINTS


class SuiteConfig(_SuiteGrid):
    """Immutable grid the suite runs over.  Defaults match the acceptance runs."""

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))

    def __new__(cls, *args, **kwargs):
        """Reject a grid no check could run over, naming the field; ``_make``
        and ``_replace`` build through here too."""
        self = super().__new__(cls, *args, **kwargs)
        _check_ints("n_max", (self.n_max,), 0)
        _check_ints("k_values entry", self.k_values, None)
        _check_ints("s_values entry", self.s_values, 0)
        _check_ints("scale_values entry", self.scale_values, 1)
        for u in self.u_values:
            check_scalar(u, "u_values entry")
            if u == 1:
                raise ValueError(
                    "u_values entry u = 1 is outside the Frobenius-Euler domain"
                )
        for params in self.param_points:
            if not isinstance(params, PQParams):
                raise TypeError(
                    f"param_points entry must be PQParams, not {type(params).__name__}"
                )
        return self


def _check_ints(what: str, values: tuple, low: Optional[int]) -> None:
    for value in values:
        if not isinstance(value, int):
            raise TypeError(f"{what} must be int, not {type(value).__name__}")
        if low is not None and value < low:
            raise ValueError(f"{what} must be at least {low}, got {value}")


class IdentityReport:
    """One check's cell counts and its first failing cell, if any."""

    __slots__ = ("id", "cells_total", "cells_passed", "first_failure")

    def __init__(
        self,
        id: str,
        cells_total: int,
        cells_passed: int,
        first_failure: Optional[dict] = None,
    ):
        self.id = id
        self.cells_total = cells_total
        self.cells_passed = cells_passed
        self.first_failure = first_failure

    @property
    def passed(self) -> bool:
        return self.cells_total == self.cells_passed and self.cells_total > 0

    @property
    def vacuous(self) -> bool:
        return self.cells_total == 0

    def to_json_obj(self) -> dict:
        obj = {
            "id": self.id,
            "cells_total": self.cells_total,
            "cells_passed": self.cells_passed,
        }
        if self.first_failure is not None:
            obj["first_failure"] = self.first_failure
        return obj


class IdentityCheck(NamedTuple):
    """One identity: `build_cells` lists its cells for a SuiteConfig, each a
    tuple in `evaluate`'s parameter order, and `evaluate` receives a cell's
    fields as positional arguments and returns the two sides (lhs, rhs),
    which must be exactly equal.  The names of those parameters, read off
    the evaluator's code object, name the fields of a failing cell."""

    id: str
    build_cells: Callable[[SuiteConfig], Iterable[tuple]]
    evaluate: Callable[..., tuple]


def y_samples(n: int) -> list[Fraction]:
    """n + 1 distinct half-integer sample points."""
    return [Fraction(2 * j + 1, 2) for j in range(n + 1)]


def _as_poly(value) -> XPoly:
    return value if isinstance(value, XPoly) else XPoly.const(value)


def _cell_fields(evaluate) -> tuple[str, ...]:
    """The names of a cell's fields: the evaluator's positional parameters,
    read off its code object, after any a ``partial`` binds in front."""
    bound = len(getattr(evaluate, "args", ()))
    code = getattr(evaluate, "func", evaluate).__code__
    return code.co_varnames[bound : code.co_argcount]


def _serialize_cell(evaluate, cell: tuple) -> dict:
    out = {}
    for key, value in zip(_cell_fields(evaluate), cell):
        if key == "params":
            out["p"], out["q"] = value.as_strings()
        elif isinstance(value, Fraction):
            out[key] = rational_to_str(value)
        else:
            out[key] = value
    return out


def run_check(check: IdentityCheck, config: SuiteConfig) -> IdentityReport:
    total = passed = 0
    first_failure = None
    evaluate = check.evaluate
    for cell in check.build_cells(config):
        lhs, rhs = evaluate(*cell)
        total += 1
        if lhs == rhs:
            passed += 1
        elif first_failure is None:
            first_failure = {
                "cell": _serialize_cell(evaluate, cell),
                "lhs": _as_poly(lhs).to_strings(),
                "rhs": _as_poly(rhs).to_strings(),
            }
    return IdentityReport(check.id, total, passed, first_failure)


# ---------------------------------------------------------------------------
# helpers for the evaluators; the cached ones repeat across cells


@lru_cache(maxsize=None)
def _euler_poly_at(n: int, point: int, k: int, params: PQParams) -> Fraction:
    return families.poly_euler(n, k, params)(point)


@lru_cache(maxsize=None)
def _classical_euler_shifted(n: int, j: int) -> XPoly:
    """Classical E_n(x - j) as an XPoly in x."""
    return sequences.euler_poly(n).affine(1, -j)


@lru_cache(maxsize=None)
def _ws1_neg_x(n: int, m: int) -> XPoly:
    return sequences.weighted_stirling1(n, m).affine(-1, 0)


@lru_cache(maxsize=None)
def _inner_cauchy1(m: int, k: int, params: PQParams) -> XPoly:
    """sum_l W2(m, l) C_l, invrel2's left side, read at y by cross_b_from_c."""
    # terms above l = m vanish with the weighted Stirling factor
    return XPoly.sum_products(
        (sequences.weighted_stirling2(m, l), families.poly_cauchy_1(l, k, params))
        for l in range(m + 1)
    )


@lru_cache(maxsize=None)
def _inner_cauchy2(m: int, k: int, params: PQParams) -> XPoly:
    """sum_l W2(m, l)(-x) Chat_l, invrel3's left side, read by cross_b_from_chat."""
    return XPoly.sum_products(
        (sequences.weighted_stirling2(m, l).affine(-1, 0),
         families.poly_cauchy_2(l, k, params))
        for l in range(m + 1)
    )


@lru_cache(maxsize=None)
def _inner_bernoulli(m: int, k: int, params: PQParams) -> XPoly:
    """sum_l W1(m, l) B_l, invrel1's left side, read by the cross relations from B."""
    return XPoly.sum_products(
        (sequences.weighted_stirling1(m, l), families.poly_bernoulli(l, k, params))
        for l in range(m + 1)
    )


# ---------------------------------------------------------------------------
# cell builders


def _cells(config: SuiteConfig, *axes, n_min: int = 0, n_cap: Optional[int] = None):
    """Cells (n, k, params, *axis values), n -> k -> params -> each axis in
    the order given.  An axis is a tuple of values or a function of n that
    returns them (``y_samples``); each n's axis tuples are built once and
    shared by its (k, params)."""
    top = config.n_max if n_cap is None else min(config.n_max, n_cap)
    for n in range(n_min, top + 1):
        rows = list(
            itertools.product(*(axis(n) if callable(axis) else axis for axis in axes))
        )
        for k in config.k_values:
            for params in config.param_points:
                head = (n, k, params)
                for row in rows:
                    yield head + row


def _orthogonality_cells(config: SuiteConfig):
    for n in range(config.n_max + 1):
        for m in range(n + 1):
            yield n, m, "s2_then_s1"
            yield n, m, "s1_then_s2"


# ---------------------------------------------------------------------------
# evaluators


def _eval_appell_i(n, k, params):
    lhs = families.poly_euler(n, k, params)
    rhs = XPoly.sum_products(
        (math.comb(n, i), families.poly_euler_number(i, k, params),
         XPoly.monomial(n - i))
        for i in range(n + 1)
    )
    return lhs, rhs


def _eval_appell_ii(n, k, params, y):
    lhs = families.poly_euler(n, k, params).affine(1, y)
    # C(n, i) y^(n-i) with y = a/b is C(n, i) a^(n-i) b^i over the shared b^n
    a, b = y.numerator, y.denominator
    scale = Fraction(1, b**n)
    rhs = XPoly.sum_products(
        (math.comb(n, i) * a ** (n - i) * b**i, scale,
         families.poly_euler(i, k, params))
        for i in range(n + 1)
    )
    return lhs, rhs


def _eval_appell_iii(n, k, params, m):
    lhs = families.poly_euler(n, k, params).affine(m, 0)
    rhs = XPoly.sum_products(
        (math.comb(n, i) * (m - 1) ** (n - i), families.poly_euler(i, k, params),
         XPoly.monomial(n - i))
        for i in range(n + 1)
    )
    return lhs, rhs


def _eval_appell_iv(n, k, params):
    e_n = families.poly_euler(n, k, params)
    lhs = e_n.affine(1, 1) - e_n
    rhs = XPoly.sum_products(
        (math.comb(n, i), families.poly_euler(i, k, params)) for i in range(n)
    )
    return lhs, rhs


def _eucls_sum(n: int, k: int, params: PQParams, ls: range) -> XPoly:
    powers = [pqcalc.pq_integer(l + 1, params) ** (-k) for l in ls]
    den = math.lcm(*(w.denominator for w in powers))
    nums = [w.numerator * (den // w.denominator) for w in powers]
    return XPoly.sum_products(
        (sum(math.comb(l + 1, j) * a for l, a in zip(ls, nums)),
         Fraction((-1) ** j, den), _classical_euler_shifted(n, j))
        for j in range(ls.stop + 1)
    )


def _eval_eucls(n, k, params):
    return families.poly_euler(n, k, params), _eucls_sum(n, k, params, range(n))


def eucls_tail_term(n: int, k: int, params: PQParams) -> XPoly:
    """Term l = n, the first the eucls check leaves out: from there on the
    sum over j is an (l+1)-fold finite difference of E_n, so zero."""
    return _eucls_sum(n, k, params, range(n, n + 1))


def _stirling_sum(n: int, k: int, params: PQParams, ls, values, basis) -> XPoly:
    # S2(i, l) is zero for i < l, so a term l <= n reads rows l..n; the
    # tail term l = n + 1 lies wholly above the diagonal and reads rows
    # 0..n, so a table that is nonzero there shows in it
    value = values(n, k, params)
    return XPoly.sum_products(
        (egf._scalar_sum(
            (math.comb(n, i) * s2, value(n - i, l))
            for i in range(l if l <= n else 0, n + 1)
            if (s2 := sequences.stirling2(i, l))
        ), basis(l))
        for l in ls
    )


def _tid1_values(n: int, k: int, params: PQParams) -> Callable[[int, int], Fraction]:
    """E_m(-l), the value tid1 weighs the rising factorial of l by."""
    return lambda m, l: _euler_poly_at(m, -l, k, params)


def _eval_tid1(n, k, params):
    rhs = _stirling_sum(n, k, params, range(n + 1), _tid1_values, rising_factorial)
    return families.poly_euler(n, k, params), rhs


def tid1_tail_term(n: int, k: int, params: PQParams) -> XPoly:
    """Term l = n + 1; every Stirling factor in it lies above the diagonal."""
    return _stirling_sum(n, k, params, (n + 1,), _tid1_values, rising_factorial)


def _tid2_values(n: int, k: int, params: PQParams) -> Callable[[int, int], Fraction]:
    """E_m(0) for any l, each of the n + 1 numbers read once per call."""
    numbers = [families.poly_euler_number(m, k, params) for m in range(n + 1)]
    return lambda m, l: numbers[m]


def _eval_tid2(n, k, params):
    rhs = _stirling_sum(n, k, params, range(n + 1), _tid2_values, falling_factorial)
    return families.poly_euler(n, k, params), rhs


def tid2_tail_term(n: int, k: int, params: PQParams) -> XPoly:
    """First term beyond the truncation used by the tid2 check."""
    return _stirling_sum(n, k, params, (n + 1,), _tid2_values, falling_factorial)


@lru_cache(maxsize=None)
def _tid3_inner(m: int, k: int, params: PQParams, s: int) -> XPoly:
    """sum_i C(m, i) E_(m-i) B_i^(s)(x), the inner sum of tid3's right side."""
    return XPoly.sum_products(
        (math.comb(m, i), families.poly_euler_number(m - i, k, params),
         sequences.bernoulli_order(i, s))
        for i in range(m + 1)
    )


def _eval_tid3(n, k, params, s):
    lhs = families.poly_euler(n, k, params)
    rhs = XPoly.sum_products(
        (math.comb(n, l) * sequences.stirling2(l + s, s),
         Fraction(1, math.comb(l + s, s)), _tid3_inner(n - l, k, params, s))
        for l in range(n + 1)
    )
    return lhs, rhs


@lru_cache(maxsize=None)
def _tid4_weight(
    m: int, k: int, params: PQParams, s: int, u_num: int, u_den: int
) -> Fraction:
    """sum_i C(s, i) (-u)^(s-i) E_m(i) / (1 - u)^s, tid4's scalar weight of
    H_l^(s): with u = a/b, the int weights C(s, i) (-a)^(s-i) b^i over
    (b - a)^s, applied to E_m at the points 0..s."""
    a, b = u_num, u_den
    return families.poly_euler(m, k, params).weighted_values(
        [math.comb(s, i) * (-a) ** (s - i) * b**i for i in range(s + 1)],
        (b - a) ** s,
    )


@lru_cache(maxsize=None)
def _tid4_frobenius_euler(l: int, s: int, u_num: int, u_den: int) -> XPoly:
    """The Frobenius-Euler polynomial H_l^(s)(x; u) that tid4 reads."""
    return sequences.frobenius_euler(l, s, Fraction(u_num, u_den))


def _eval_tid4(n, k, params, s, u):
    lhs = families.poly_euler(n, k, params)
    key = (s, u.numerator, u.denominator)
    rhs = XPoly.sum_products(
        (math.comb(n, l), _tid4_weight(n - l, k, params, *key),
         _tid4_frobenius_euler(l, *key))
        for l in range(n + 1)
    )
    return lhs, rhs


def _eval_euler_bernoulli(n, k, params):
    e_n = families.poly_euler(n, k, params)
    lhs = e_n + e_n.affine(1, 1)
    b_n = families.poly_bernoulli(n, k, params)
    rhs = XPoly.sum_products(((2, b_n.affine(-1, 0)), (-2, b_n.affine(-1, 1))))
    return lhs, rhs


def _eval_routes(family, n, k, params):
    """Every route listed for `family` at weight k against the first one."""
    first, *others = families.routes(family, k)
    reference = families.compute(family, n, k, params, first)
    for route in others:
        candidate = families.compute(family, n, k, params, route)
        if candidate != reference:
            return reference, candidate
    return reference, reference


def _eval_orthogonality(n, m, direction):
    ws1, ws2 = sequences.weighted_stirling1, sequences.weighted_stirling2
    # (-1)^(n-l) for s2 then s1, (-1)^(l-m) for s1 then s2
    outer, inner, base = (ws2, ws1, n) if direction == "s2_then_s1" else (ws1, ws2, m)
    lhs = XPoly.sum_products(
        ((-1) ** (base + l), outer(n, l), inner(l, m)) for l in range(m, n + 1)
    )
    return lhs, XPoly.one() if n == m else XPoly.zero()


def _eval_invrel(inner, scale, n, k, params):
    """One inversion relation: the inner sum Q_n against scale(n) [n+1]^(-k)."""
    rhs = scale(n) * pqcalc.pq_integer(n + 1, params) ** (-k)
    return inner(n, k, params), XPoly.const(rhs)


@lru_cache(maxsize=None)
def _cross_rhs_coeffs(
    inner, outer, alternating: bool, by_factorial: bool,
    n: int, k: int, params: PQParams,
) -> tuple[XPoly, ...]:
    """R_j = sum_m c_m [y^j]Q_m W(n, m) for j = 0..max deg Q_m, so that a
    cross relation's right side at y is sum_j y^j R_j.

    Q_m = inner(m, k, params) is the inner sum, W(n, m) = outer(n, m) the
    outer weighted Stirling polynomial, and c_m is (-1)^(n-m) if
    ``alternating`` else (-1)^n, times m! if ``by_factorial`` else 1/m!.
    """
    inners = [inner(m, k, params) for m in range(n + 1)]
    weights = [
        ((-1) ** (n - m if alternating else n),
         math.factorial(m) if by_factorial else Fraction(1, math.factorial(m)))
        for m in range(n + 1)
    ]
    return tuple(
        XPoly.sum_products(
            (*weights[m], q.coeff(j), outer(n, m))
            for m, q in enumerate(inners)
            if j <= q.degree
        )
        for j in range(max(q.degree for q in inners) + 1)
    )


def _eval_cross(family, inner, outer, alternating, by_factorial, n, k, params, y):
    """One cross relation: the family value against sum_j y^j R_j, folded
    by Horner in y, so it is R_0 itself when it is the only coefficient,
    and zero when every inner sum is."""
    lhs = families.compute(family, n, k, params)
    *coeffs, rhs = _cross_rhs_coeffs(
        inner, outer, alternating, by_factorial, n, k, params
    ) or (XPoly.zero(),)
    for r in reversed(coeffs):
        rhs = XPoly.sum_products(((rhs, y), (r,)))
    return lhs, rhs


def _eval_vandermonde(family, other, n, k, params):
    lhs = Fraction((-1) ** n, math.factorial(n)) * families.compute(
        family, n, k, params
    )
    rhs = XPoly.sum_products(
        (Fraction(math.comb(n - 1, m - 1), math.factorial(m)),
         families.compute(other, m, k, params))
        for m in range(1, n + 1)
    )
    return lhs, rhs


# ---------------------------------------------------------------------------
# registry

CHECKS: tuple[IdentityCheck, ...] = (
    IdentityCheck("appell_i", lambda c: _cells(c, n_cap=APPELL_N_CAP), _eval_appell_i),
    IdentityCheck(
        "appell_ii",
        lambda c: _cells(c, y_samples, n_cap=APPELL_N_CAP),
        _eval_appell_ii,
    ),
    IdentityCheck(
        "appell_iii",
        lambda c: _cells(c, c.scale_values, n_cap=APPELL_N_CAP),
        _eval_appell_iii,
    ),
    IdentityCheck(
        "appell_iv", lambda c: _cells(c, n_cap=APPELL_N_CAP), _eval_appell_iv
    ),
    IdentityCheck("eucls", lambda c: _cells(c, n_min=1), _eval_eucls),
    IdentityCheck("tid1", _cells, _eval_tid1),
    IdentityCheck("tid2", _cells, _eval_tid2),
    IdentityCheck("tid3", lambda c: _cells(c, c.s_values), _eval_tid3),
    IdentityCheck("tid4", lambda c: _cells(c, c.s_values, c.u_values), _eval_tid4),
    IdentityCheck(
        "euler_bernoulli", lambda c: _cells(c, n_min=1), _eval_euler_bernoulli
    ),
    IdentityCheck(
        "polyberrel1",
        lambda c: _cells(c, n_min=1),
        partial(_eval_routes, families.FAMILY_POLY_BERNOULLI),
    ),
    IdentityCheck(
        "cauchy_routes_1", _cells, partial(_eval_routes, families.FAMILY_POLY_CAUCHY_1)
    ),
    IdentityCheck(
        "cauchy_routes_2", _cells, partial(_eval_routes, families.FAMILY_POLY_CAUCHY_2)
    ),
    IdentityCheck("orthogonality", _orthogonality_cells, _eval_orthogonality),
    # the inversion relations: (id, inner sum Q_n, scale of [n+1]^(-k))
    *(
        IdentityCheck(i, _cells, partial(_eval_invrel, inner, scale))
        for i, inner, scale in (
            ("invrel1", _inner_bernoulli, math.factorial),
            ("invrel2", _inner_cauchy1, lambda n: 1),
            ("invrel3", _inner_cauchy2, lambda n: (-1) ** n),
        )
    ),
    # the cross relations: (id, family, inner sum, outer weighted Stirling
    # polynomial, alternating sign, times m! rather than over m!); each outer
    # triangle is looked up at the call, so rebinding it reaches the check
    *(
        IdentityCheck(
            check_id,
            lambda c: _cells(c, y_samples, n_cap=CROSS_N_CAP),
            partial(_eval_cross, *relation),
        )
        for check_id, *relation in (
            ("cross_b_from_c", families.FAMILY_POLY_BERNOULLI, _inner_cauchy1,
             lambda n, m: sequences.weighted_stirling2(n, m), True, True),
            ("cross_b_from_chat", families.FAMILY_POLY_BERNOULLI, _inner_cauchy2,
             lambda n, m: sequences.weighted_stirling2(n, m), False, True),
            ("cross_c_from_b", families.FAMILY_POLY_CAUCHY_1, _inner_bernoulli,
             lambda n, m: sequences.weighted_stirling1(n, m), True, False),
            ("cross_chat_from_b", families.FAMILY_POLY_CAUCHY_2, _inner_bernoulli,
             lambda n, m: _ws1_neg_x(n, m), False, False),
        )
    ),
    IdentityCheck(
        "vandermonde_1",
        lambda c: _cells(c, n_min=1),
        partial(
            _eval_vandermonde,
            families.FAMILY_POLY_CAUCHY_1,
            families.FAMILY_POLY_CAUCHY_2,
        ),
    ),
    IdentityCheck(
        "vandermonde_2",
        lambda c: _cells(c, n_min=1),
        partial(
            _eval_vandermonde,
            families.FAMILY_POLY_CAUCHY_2,
            families.FAMILY_POLY_CAUCHY_1,
        ),
    ),
)

CHECK_IDS: tuple[str, ...] = tuple(check.id for check in CHECKS)
_CHECKS_BY_ID = {check.id: check for check in CHECKS}


def run_all(
    config: SuiteConfig, only: Optional[Iterable[str]] = None
) -> list[IdentityReport]:
    """Run the suite (or a subset) serially; reports keep registry order."""
    if only is None:
        selected = CHECKS
    else:
        wanted = list(only)
        unknown = [i for i in wanted if i not in _CHECKS_BY_ID]
        if unknown:
            raise ValueError(f"unknown check ids: {', '.join(unknown)}")
        wanted_set = set(wanted)
        selected = [check for check in CHECKS if check.id in wanted_set]
    return [run_check(check, config) for check in selected]

