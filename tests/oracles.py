"""Independent reference computations for cross-checking the library.

Everything here is deliberately written against plain Fractions and
coefficient lists, with recurrences or brute-force enumeration instead of
generating functions, so a defect in the library's series engine cannot
hide inside its own oracle.  The exceptions reuse library types on
purpose, so that the library can be held to them coefficient type for
coefficient type: ``horner_compose`` reuses the EGF product, to pin
``egf.compose`` and, at p = q, the poly-Bernoulli and poly-Euler families,
and ``binomial_conv`` is the EGF product's coefficient with no term
skipped.  ``derivative`` differentiates an ``XPoly``, ``taylor_coeffs``
divides the coefficient lists of a ``RationalFunction``, and the
weighted Stirling recurrences run over ``XPoly``, whose product is not the
EGF engine.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import permutations
from operator import add

from pqpoly.egf import EgfSeries
from pqpoly.exact import XPoly


# Polynomials as plain lists of Fraction coefficients, index = power of x,
# one Fraction per term; every result is trimmed of trailing zeros, the
# canonical form XPoly keeps.


def poly_trim(a: list[Fraction]) -> list[Fraction]:
    out = [Fraction(c) for c in a]
    while out and out[-1] == 0:
        out.pop()
    return out


def poly_add(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    out = [Fraction(0)] * max(len(a), len(b))
    for i, c in enumerate(a):
        out[i] += c
    for i, c in enumerate(b):
        out[i] += c
    return poly_trim(out)


def poly_neg(a: list[Fraction]) -> list[Fraction]:
    return poly_trim([-c for c in a])


def poly_sub(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    return poly_add(a, poly_neg(b))


def poly_mul(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    if not a or not b:
        return []
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            out[i + j] += ai * bj
    return poly_trim(out)


def poly_eval(a: list[Fraction], x: Fraction) -> Fraction:
    acc = Fraction(0)
    for c in reversed(a):
        acc = acc * x + c
    return acc


def poly_substitute(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    """a(b(x)) by Horner's rule over coefficient lists."""
    acc: list[Fraction] = []
    for c in reversed(a):
        acc = poly_add(poly_mul(acc, b), [c])
    return acc


def falling_factorial_coeffs(n: int) -> list[Fraction]:
    result = [Fraction(1)]
    for j in range(n):
        result = poly_mul(result, [Fraction(-j), Fraction(1)])
    return result


def _triangle_rows(n_max: int, one, weight) -> list[list]:
    """Rows 0..n_max of T(n+1, m) = weight(n, m) T(n, m) + T(n, m-1) with
    T(0, 0) = one, built row by row; row n lists m = 0..n."""
    rows = [[one]]
    for n in range(n_max):
        prev = rows[-1] + [one * 0]
        rows.append(
            [weight(n, 0) * prev[0]]
            + [weight(n, m) * prev[m] + prev[m - 1] for m in range(1, n + 2)]
        )
    return rows


def stirling2_rec(n_max: int) -> list[list[int]]:
    """Rows 0..n_max of S(n+1, m) = m S(n, m) + S(n, m-1)."""
    return _triangle_rows(n_max, 1, lambda n, m: m)


def stirling1_unsigned_rec(n_max: int) -> list[list[int]]:
    """Rows 0..n_max of c(n+1, m) = n c(n, m) + c(n, m-1)."""
    return _triangle_rows(n_max, 1, lambda n, m: n)


def weighted_stirling2_rec(n_max: int) -> list[list[XPoly]]:
    """Rows 0..n_max of S(n+1, m, x) = (x + m) S(n, m, x) + S(n, m-1, x).

    At x = r this is the r-Stirling recurrence of the second kind (Broder,
    "The r-Stirling numbers", Discrete Math. 49, 1984), shifted by r."""
    return _triangle_rows(n_max, XPoly.one(), lambda n, m: XPoly((m, 1)))


def weighted_stirling1_rec(n_max: int) -> list[list[XPoly]]:
    """Rows 0..n_max of s(n+1, m, x) = (x + n) s(n, m, x) + s(n, m-1, x),
    Broder's first-kind r-Stirling recurrence with r = x, shifted by r."""
    return _triangle_rows(n_max, XPoly.one(), lambda n, m: XPoly((n, 1)))


def stirling2_enum(n: int, m: int) -> int:
    """Count partitions of an n-set into m blocks by direct enumeration."""

    def count(element: int, blocks: int) -> int:
        # restricted growth strings: element joins an existing block or
        # opens block number `blocks`
        if element == n:
            return 1 if blocks == m else 0
        total = blocks * count(element + 1, blocks)
        if blocks < m:
            total += count(element + 1, blocks + 1)
        return total

    if n == 0:
        return 1 if m == 0 else 0
    return count(1, 1) if m >= 1 else 0


def cycle_count(perm: tuple[int, ...]) -> int:
    seen = [False] * len(perm)
    cycles = 0
    for start in range(len(perm)):
        if seen[start]:
            continue
        cycles += 1
        j = start
        while not seen[j]:
            seen[j] = True
            j = perm[j]
    return cycles


def stirling1_enum(n: int, m: int) -> int:
    """Count permutations of n elements with exactly m cycles."""
    if n == 0:
        return 1 if m == 0 else 0
    return sum(1 for p in permutations(range(n)) if cycle_count(p) == m)


def euler_polys_rec(n_max: int) -> list[list[Fraction]]:
    """Classical Euler polynomials from 2x^n = E_n(x) + sum binom E_i(x)."""
    polys: list[list[Fraction]] = []
    for n in range(n_max + 1):
        coeffs = [Fraction(0)] * n + [Fraction(1)]
        for i in range(n):
            for j, c in enumerate(polys[i]):
                coeffs[j] -= Fraction(math.comb(n, i), 2) * c
        polys.append(coeffs)
    return polys


def bernoulli_numbers(n_max: int) -> list[Fraction]:
    values = [Fraction(1)]
    for n in range(1, n_max + 1):
        acc = Fraction(0)
        for i in range(n):
            acc += math.comb(n + 1, i) * values[i]
        values.append(-acc / (n + 1))
    return values


def cauchy_numbers(n_max: int) -> list[Fraction]:
    """c_n as the exact integral of the falling factorial over [0, 1]."""
    values = []
    for n in range(n_max + 1):
        coeffs = falling_factorial_coeffs(n)
        values.append(sum(c / (l + 1) for l, c in enumerate(coeffs)))
    return values


def alternating_count(n: int) -> int:
    """Permutations of 1..n rising first and then strictly alternating."""
    if n == 0:
        return 1
    count = 0
    for p in permutations(range(1, n + 1)):
        ok = True
        for i in range(n - 1):
            if i % 2 == 0:
                ok = p[i] < p[i + 1]
            else:
                ok = p[i] > p[i + 1]
            if not ok:
                break
        if ok:
            count += 1
    return count


def euler_numbers_sech(n_max: int) -> list[Fraction]:
    """EGF coefficients of 2/(e^t + e^(-t)) by direct series division."""
    # denominator EGF coefficients: 1, 0, 1, 0, ...
    a = [Fraction(1) if i % 2 == 0 else Fraction(0) for i in range(n_max + 1)]
    r = [Fraction(1)]
    for n in range(1, n_max + 1):
        acc = Fraction(0)
        for i in range(1, n + 1):
            acc += math.comb(n, i) * a[i] * r[n - i]
        r.append(-acc)
    return r


def pq_integer_homogeneous(n: int, p: Fraction, q: Fraction) -> Fraction:
    return sum((p**i) * (q ** (n - 1 - i)) for i in range(n))


def _integral_expansion(n: int, k: int, p: Fraction, q: Fraction, kind: int):
    """Coefficients of the poly-Cauchy polynomial of the given kind by the
    falling-factorial expansion under the iterated deformed integral, one
    Fraction sum per power of x: coefficient l is (-1)^l times
    sum_(m >= l) sign_m c(n, m) C(m, l) I(m - l)^k, with I(j) = 1/[j+1] in
    its homogeneous form, sign_m = (-1)^(n-m) for the first kind and
    (-1)^n for the second."""
    c = stirling1_unsigned_rec(n)[n]
    integral = [1 / pq_integer_homogeneous(j + 1, p, q) ** k for j in range(n + 1)]
    coeffs = []
    for l in range(n + 1):
        acc = Fraction(0)
        for m in range(l, n + 1):
            sign = (-1) ** (n - m) if kind == 1 else (-1) ** n
            acc += sign * c[m] * math.comb(m, l) * integral[m - l]
        coeffs.append((-1) ** l * acc)
    return poly_trim(coeffs)


def cauchy1_integral_oracle(n: int, k: int, p: Fraction, q: Fraction):
    """First-kind poly-Cauchy coefficients, integrating (t_1...t_k - x)_n."""
    return _integral_expansion(n, k, p, q, 1)


def cauchy2_integral_oracle(n: int, k: int, p: Fraction, q: Fraction):
    """Second-kind poly-Cauchy coefficients, integrating (x - t_1...t_k)_n."""
    return _integral_expansion(n, k, p, q, 2)


def li_ordinary(k: int, p: Fraction, q: Fraction, order: int) -> list[Fraction]:
    """Ordinary coefficients 0..order of Li_k: zero, then 1/[m]^k."""
    return [Fraction(0)] + [
        1 / pq_integer_homogeneous(m, p, q) ** k for m in range(1, order + 1)
    ]


def lif_ordinary(k: int, p: Fraction, q: Fraction, order: int) -> list[Fraction]:
    """Ordinary coefficients 0..order of Lif_k, 1/(m! [m+1]^k)."""
    return [
        1 / (math.factorial(m) * pq_integer_homogeneous(m + 1, p, q) ** k)
        for m in range(order + 1)
    ]


def taylor_coeffs(quotient, order: int) -> list[Fraction]:
    """Ordinary coefficients 0..order at z = 0 of a RationalFunction, by
    long division of its numerator's coefficient list by its
    denominator's, whose constant term is nonzero."""
    num = list(quotient.numerator.coeffs)
    num += [Fraction(0)] * (order + 1 - len(num))
    den = quotient.denominator.coeffs
    out: list[Fraction] = []
    for n in range(order + 1):
        acc = num[n]
        for i in range(1, min(n, len(den) - 1) + 1):
            acc -= den[i] * out[n - i]
        out.append(acc / den[0])
    return out


def one_minus_exp_neg_ordinary(order: int) -> list[Fraction]:
    """Ordinary coefficients 0..order of 1 - e^(-t)."""
    return [Fraction(0)] + [
        Fraction(-((-1) ** j), math.factorial(j)) for j in range(1, order + 1)
    ]


def log1p_ordinary(order: int) -> list[Fraction]:
    """Ordinary coefficients 0..order of ln(1 + t)."""
    return [Fraction(0)] + [Fraction((-1) ** (j - 1), j) for j in range(1, order + 1)]


def composed_egf(outer: list[Fraction], inner: list[Fraction], order: int) -> list[Fraction]:
    """EGF coefficients 0..order of sum_m outer[m] inner(t)^m, for an inner
    given by its ordinary coefficients with inner[0] = 0: the ordinary
    powers of inner by truncated list products, one Fraction per term, and
    coefficient j of the sum times j!."""
    total = [Fraction(0)] * (order + 1)
    power = [Fraction(1)] + [Fraction(0)] * order
    for m in range(order + 1):
        total = [t + outer[m] * c for t, c in zip(total, power)]
        power = [
            sum((inner[i] * power[j - i] for i in range(1, j + 1)), Fraction(0))
            for j in range(order + 1)
        ]
    return [math.factorial(j) * t for j, t in enumerate(total)]


def integral_appell(m: int, k: int, p: Fraction, q: Fraction) -> list[Fraction]:
    """Coefficients of sum_l C(m, l) I(m - l)^k (-x)^l, I(j) = 1/[j+1] in
    its homogeneous form: the integral of (t_1...t_k - x)^m."""
    return poly_trim([
        (-1) ** l * math.comb(m, l) / pq_integer_homogeneous(m - l + 1, p, q) ** k
        for l in range(m + 1)
    ])


def poly_bernoulli_negative_k(n: int, k: int) -> int:
    """B_n^(-k) at p = q = 1 by Arakawa and Kaneko's formula
    sum_j (j!)^2 S(n+1, j+1) S(k+1, j+1), S from the integer recurrence
    ("On poly-Bernoulli numbers", Comment. Math. Univ. St. Pauli 48, 1999)."""
    rows = stirling2_rec(max(n, k) + 1)
    return sum(
        math.factorial(j) ** 2 * rows[n + 1][j + 1] * rows[k + 1][j + 1]
        for j in range(min(n, k) + 1)
    )


def horner_compose(outer_coeffs, inner):
    """sum c_m inner^m by Horner's rule over EGF products, for m <= order.

    Each step adds the series c_m + 0 t + ... coefficient by coefficient, so
    a zero of c_m's ring reaches every coefficient, as a series sum would."""
    n = inner.order
    result = EgfSeries.constant(outer_coeffs[n], n)
    for m in range(n - 1, -1, -1):
        constant = EgfSeries.constant(outer_coeffs[m], n)
        result = EgfSeries(map(add, result.mul(inner).coeffs, constant.coeffs))
    return result


def li_equal_params_coeffs(k: int, p: Fraction, order: int) -> list[Fraction]:
    """Ordinary coefficients 0..order of Li_k at p = q, which is
    p^k Li_k(z / p^k) since [m]_(p,p) = m p^(m-1): coefficient m >= 1 is
    b^e / (m^k a^e) with e = k(m - 1) and p = a/b, from int powers."""
    a, b = p.numerator, p.denominator
    coeffs = [Fraction(0)]
    for m in range(1, order + 1):
        e = k * (m - 1)
        if k >= 0:
            coeffs.append(Fraction(b**e, m**k * a**e))
        else:
            coeffs.append(Fraction(m**-k * a**-e, b**-e))
    return coeffs


def _one_minus_exp_neg(order: int) -> EgfSeries:
    """EGF of 1 - e^(-t) to the given order."""
    return EgfSeries([0] + [-((-1) ** j) for j in range(1, order + 1)])


def poly_bernoulli_equal_params(n: int, k: int, p: Fraction) -> XPoly:
    """B_n^(k)(x) at p = q: coefficient n of Li_k(1 - e^(-t)) / (1 - e^(-t))
    times e^(-xt), the quotient as the index-shifted Li_k coefficients."""
    li = li_equal_params_coeffs(k, p, n + 1)
    base = horner_compose(li[1:], _one_minus_exp_neg(n))
    return XPoly(
        [(-1) ** j * math.comb(n, j) * base.coeff(n - j) for j in range(n + 1)]
    )


def poly_euler_equal_params(n: int, k: int, p: Fraction) -> XPoly:
    """E_n^(k)(x) at p = q: coefficient n of 2 Li_k(1 - e^(-t)) / (1 + e^t)
    times e^(xt), with 2/(e^t + 1) read off the Euler polynomials at 0."""
    li = horner_compose(li_equal_params_coeffs(k, p, n), _one_minus_exp_neg(n))
    halves = EgfSeries([e[0] for e in euler_polys_rec(n)])
    base = li.mul(halves)
    return XPoly([math.comb(n, j) * base.coeff(n - j) for j in range(n + 1)])


def binomial_conv(a, b, n: int):
    """Coefficient n of the EGF product of coefficient lists a and b, every
    term multiplied out, zero factors included."""
    acc = a[0] * b[n]
    for i in range(1, n + 1):
        acc = acc + math.comb(n, i) * (a[i] * b[n - i])
    return acc


def derivative(poly: XPoly) -> XPoly:
    """d/dx of an XPoly, term by term."""
    return XPoly([i * c for i, c in enumerate(poly.coeffs)][1:])
