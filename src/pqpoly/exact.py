"""Exact scalars and dense univariate polynomials.

Every scalar in this package is an ``int`` or a ``fractions.Fraction``;
``XPoly`` and ``PQParams`` refuse a float or any other number type with
``TypeError`` (``check_scalar``).  ``XPoly`` is a dense polynomial in one
indeterminate x with rational coefficients, stored the way FLINT's
``fmpq_poly`` stores one: a tuple of ``int`` numerators over one positive
``int`` denominator.  Canonical form is kept by one gcd pass: no trailing
zero numerator, gcd(numerators, denominator) = 1, and denominator 1 for
the zero polynomial, so equality is structural.  All XPoly arithmetic is
one kernel, ``XPoly.sum_products``, which builds a whole sum of products as
one XPoly over one denominator in a single pass over the terms: each
term's factors fold into one unreduced int numerator and denominator and,
when a factor is not constant, one int vector, one integer convolution per
further non-constant factor; a term of constants alone carries no vector.
The first nonzero term sets the denominator of one int accumulator; a
later term over a denominator that divides it is added as soon as it is
read, the way ``fmpq_poly`` adds polynomials that share a denominator, and
any other term is held back while the lcm of its denominator and theirs
is kept.  At the end the accumulator is rescaled once, to that lcm, the
held terms are added over it, and the sum is reduced by one gcd
(Henrici's rule: Knuth, TAOCP vol. 2, 4.5.1); no term takes a gcd of its
own and no arithmetic builds a Fraction per coefficient.  Each term costs
a few int operations: a factor is dispatched on its exact type (``int``,
``Fraction``, ``XPoly``), while ``bool``, XPoly subclasses and any other
type take the ``isinstance`` and ``check_scalar`` path; a scale of 1
multiplies nothing, a scalar term adds one int, and every other term is
added by one indexed loop over its vector (``_add_scaled``).  The operators
``+``, ``-`` and ``*`` are one call of it each.
Calling an XPoly evaluates it at a scalar, by integer Horner, and
``weighted_values`` sums int-weighted values at the points 0, 1, ... the
same way, into one Fraction;
``affine(a, b)`` substitutes a x + b, by an integer Taylor shift and one
scale, and is the only substitution of a polynomial into a polynomial.
The falling and rising factorials are kept in one growing list per step,
each index built from the one before it by one kernel call with one
linear factor; ``falling_factorials`` hands out the falling one's list.

An XPoly also has a second form, the tuple of reduced ``Fraction``
coefficients that ``coeffs`` returns.  Each form is built on first use:
``XPoly(iterable)`` keeps the Fractions it was given and forms the
numerators (over the lcm of their denominators) only when arithmetic needs
them, and an arithmetic result forms its Fractions only when read through
``coeffs``, ``coeff``, ``as_str`` or ``hash``; ``to_strings`` renders them
one at a time without keeping them.  A value that is built and printed
never pays for the numerators, one that is only computed with never pays
for the Fractions, and one computed and then printed does not hold both.

Serialized form of a scalar is the string ``"num/den"`` with the denominator
always written out, e.g. ``"5/1"`` or ``"-3/4"``.  A polynomial serializes as
the list of those strings, index = power of x.
"""

from __future__ import annotations

import math
import re
from decimal import Decimal
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Union

Scalar = Union[int, Fraction]

_RATIONAL_RE = re.compile(r"^[+-]?\d+(?:/\d+)?$")


def check_scalar(value, what: str) -> None:
    """Raise TypeError unless value is an exact scalar (int or Fraction)."""
    if not isinstance(value, (int, Fraction)):
        raise TypeError(
            f"{what} must be int or Fraction, not {type(value).__name__}"
        )


def rational_to_str(value: Scalar) -> str:
    """Render a rational as ``num/den`` with an explicit denominator."""
    f = Fraction(value)
    try:
        return f"{f.numerator}/{f.denominator}"
    except ValueError:  # past the int-to-str digit limit, kept for parsing
        return f"{Decimal(f.numerator)}/{Decimal(f.denominator)}"


def rational_from_str(text: str) -> Fraction:
    """Parse ``num/den`` or a bare integer.  Decimal notation is rejected."""
    s = text.strip()
    if not _RATIONAL_RE.match(s):
        raise ValueError(f"not an exact rational: {text!r}")
    try:
        return Fraction(s)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator: {text!r}") from None


def _fraction(c) -> Fraction:
    check_scalar(c, "XPoly coefficient")
    return Fraction(c)


def _convolve(a: tuple, b: tuple) -> list:
    """The integer product of two coefficient vectors."""
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b, i):
                out[j] += ai * bj
    return out


def _from_ints(num: list, den: int) -> "XPoly":
    """The canonical XPoly num / den, for den > 0; takes ownership of num."""
    while num and not num[-1]:
        num.pop()
    if not num:
        den = 1
    elif den != 1:
        g = math.gcd(den, *num)
        if g != 1:
            num = [c // g for c in num]
            den //= g
    poly = object.__new__(XPoly)
    poly._num = tuple(num)
    poly._den = den
    poly._fracs = None
    return poly


def _add_scaled(acc: list, vec, num: int) -> None:
    """acc += num * vec in place, acc growing to vec's length; a vec of
    None is a scalar term, which adds num to acc[0].  An indexed loop, not
    a comprehension: on the few entries of most terms the comprehension's
    own frame and the slice copy cost twice the adds."""
    if vec is None:
        acc[0] += num
        return
    if len(vec) > len(acc):
        acc += [0] * (len(vec) - len(acc))
    if num == 1:  # v * 1 copies a big int
        for i, v in enumerate(vec):
            acc[i] += v
    else:
        for i, v in enumerate(vec):
            acc[i] += v * num


def _kernel(other, terms) -> "XPoly":
    """``XPoly.sum_products(terms)`` when an operator's other operand is an
    XPoly or an exact scalar; NotImplemented for any other type."""
    if isinstance(other, (XPoly, int, Fraction)):
        return XPoly.sum_products(terms)
    return NotImplemented


class XPoly:
    """Immutable dense polynomial in x: int numerators over one positive
    int denominator, with the reduced Fraction coefficients formed on
    demand.  Either form may be missing until it is first needed."""

    __slots__ = ("_num", "_den", "_fracs")

    def __init__(self, coeffs: Iterable[Scalar] = ()):
        cs = [c if type(c) is Fraction else _fraction(c) for c in coeffs]
        while cs and not cs[-1]:
            cs.pop()
        self._fracs: tuple[Fraction, ...] | None = tuple(cs)
        self._num: tuple[int, ...] | None = None
        self._den = 1

    @classmethod
    def zero(cls) -> "XPoly":
        return cls(())

    @classmethod
    def one(cls) -> "XPoly":
        return cls((1,))

    @classmethod
    def const(cls, value: Scalar) -> "XPoly":
        return cls((value,))

    @classmethod
    def x(cls) -> "XPoly":
        return cls((0, 1))

    @classmethod
    def monomial(cls, power: int, coeff: Scalar = 1) -> "XPoly":
        if power < 0:
            raise ValueError("power must be nonnegative")
        check_scalar(coeff, "XPoly coefficient")
        return _from_ints([0] * power + [coeff.numerator], coeff.denominator)

    def _ints(self) -> tuple[tuple[int, ...], int]:
        """(numerators, denominator), formed from the Fractions on first use."""
        if self._num is None:
            # den is the lcm of reduced denominators, so no prime of it
            # divides every numerator: the pair is canonical as it is
            fracs = self._fracs
            den = math.lcm(*[c.denominator for c in fracs])
            self._num = tuple([c.numerator * (den // c.denominator) for c in fracs])
            self._den = den
        return self._num, self._den

    def to_strings(self) -> list[str]:
        """The coefficients as ``num/den`` strings; a value whose Fractions
        are not formed yet renders each one without keeping it."""
        if self._fracs is None:
            den = self._den
            return [rational_to_str(Fraction(c, den)) for c in self._num]
        return [rational_to_str(c) for c in self._fracs]

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        if self._fracs is None:
            den = self._den
            self._fracs = tuple([Fraction(c, den) for c in self._num])
        return self._fracs

    @property
    def degree(self) -> int:
        """Highest stored power; -1 for the zero polynomial."""
        return len(self._num if self._fracs is None else self._fracs) - 1

    def coeff(self, i: int) -> Fraction:
        if 0 <= i <= self.degree:
            return self.coeffs[i]
        return Fraction(0)

    def __bool__(self) -> bool:
        return self.degree >= 0

    def __add__(self, other) -> "XPoly":
        return _kernel(other, ((self,), (other,)))

    __radd__ = __add__

    def __neg__(self) -> "XPoly":
        return XPoly.sum_products(((-1, self),))

    def __sub__(self, other) -> "XPoly":
        return _kernel(other, ((self,), (-1, other)))

    def __rsub__(self, other) -> "XPoly":
        return _kernel(other, ((other,), (-1, self)))

    def __mul__(self, other) -> "XPoly":
        return _kernel(other, ((self, other),))

    __rmul__ = __mul__

    @staticmethod
    def sum_products(terms: Iterable[tuple]) -> "XPoly":
        """The sum over terms of the product of each term's factors, each an
        int, a Fraction or an XPoly, in one pass over one denominator.

        Each term becomes one int numerator and denominator, not reduced,
        and one int vector, the convolution of its non-constant XPoly
        factors, or None when it has none.  The first nonzero
        term starts an int accumulator over its denominator; a later term
        whose denominator divides that one is added as it is read, and any
        other is held back while the lcm of that denominator and theirs
        grows.  At the end the accumulator is rescaled once, to that lcm,
        the held terms are added over it, and one canonicalisation reduces
        the sum.
        """
        acc, acc_den, held = None, 1, []
        for term in terms:
            num, den, vec = 1, 1, None
            for f in term:
                # exact int, Fraction and XPoly first; bool, subclasses and
                # any other type take the isinstance and check_scalar path
                t = type(f)
                if t is int:
                    num *= f
                elif t is Fraction:
                    num *= f.numerator
                    den *= f.denominator
                elif t is XPoly or isinstance(f, XPoly):
                    a = f._num
                    if a is None:
                        a, da = f._ints()
                    else:
                        da = f._den
                    den *= da
                    if len(a) <= 1:
                        num *= a[0] if a else 0
                    else:
                        vec = a if vec is None else _convolve(vec, a)
                else:
                    check_scalar(f, "sum_products factor")
                    num *= f.numerator
                    den *= f.denominator
            if not num:
                continue
            if acc is None:
                if vec is None:
                    acc = [num]
                elif num == 1:
                    acc = list(vec)
                else:
                    acc = [v * num for v in vec]
                acc_den = grown = den
                continue
            if den != acc_den:
                if acc_den % den:
                    held.append((num, den, vec))
                    if grown % den:
                        grown = math.lcm(grown, den)
                    continue
                num *= acc_den // den
            _add_scaled(acc, vec, num)
        if held:
            up = grown // acc_den
            acc = [c * up for c in acc]
            for num, den, vec in held:
                _add_scaled(acc, vec, num * (grown // den))
            acc_den = grown
        return _from_ints([] if acc is None else acc, acc_den)

    def affine(self, a: Scalar, b: Scalar) -> "XPoly":
        """The polynomial p(a x + b), by an integer Taylor shift.

        With b = u/v, the numerators c_i v^(n-i) are those of v^n p(z/v);
        shifting z by u in place (Horner's Taylor shift, O(n^2) integer
        multiply-adds) gives v^n p(z/v + b), and z = a v x is one scale of
        coefficient i by (a v)^i.  No polynomial product and no per-term
        Fraction is formed.
        """
        check_scalar(a, "affine scale")
        check_scalar(b, "affine shift")
        num, den = self._ints()
        n = len(num) - 1
        if n <= 0:
            return self
        u, v = b.numerator, b.denominator
        c = list(num)
        vpow = 1
        for i in range(n, -1, -1):
            c[i] *= vpow
            vpow *= v
        vpow //= v
        if u:
            for i in range(n):
                for j in range(n - 1, i - 1, -1):
                    c[j] += u * c[j + 1]
        # with a = s/d: coefficient i times (s v)^i d^(n-i), over d^n v^n den
        sv, d = a.numerator * v, a.denominator
        dpow = d**n
        up, down = 1, dpow
        for i in range(n + 1):
            c[i] *= up * down
            up *= sv
            down //= d
        return _from_ints(c, dpow * vpow * den)

    def __call__(self, point: Scalar) -> Fraction:
        """Evaluate at a scalar; substitute a linear polynomial with affine."""
        num, den = self._ints()
        check_scalar(point, "evaluation point")
        # sum c_i u^i / v^i = (sum c_i u^i v^(n-i)) / v^n, by integer Horner
        u, v = point.numerator, point.denominator
        acc, vpow = 0, 1
        for c in reversed(num):
            acc = acc * u + c * vpow
            vpow *= v
        return Fraction(acc, vpow // v * den) if num else Fraction(0)

    def weighted_values(self, weights: Iterable[int], den: int) -> Fraction:
        """sum_i weights[i] p(i) / den over the points i = 0, 1, ..., for int
        weights and a nonzero int den: each p(i) by integer Horner on the
        numerators, and one Fraction over den times p's denominator."""
        num, pden = self._ints()
        total = 0
        for i, w in enumerate(weights):
            if w:
                acc = 0
                for c in reversed(num):
                    acc = acc * i + c
                total += w * acc
        return Fraction(total, pden * den)

    def __eq__(self, other) -> bool:
        if isinstance(other, XPoly):
            if self._fracs is not None and other._fracs is not None:
                return self._fracs == other._fracs
            return self._ints() == other._ints()
        if isinstance(other, (int, Fraction)):
            num, den = self._ints()
            if len(num) > 1:
                return False
            return (num[0] if num else 0) * other.denominator == other.numerator * den
        return NotImplemented

    def __hash__(self) -> int:
        # Constants hash like their scalar value so XPoly.const(c) == c
        # stays consistent with hashing.
        if self.degree <= 0:
            return hash(self.coeff(0))
        return hash(self.coeffs)

    def as_str(self) -> str:
        coeffs = self.coeffs
        if not coeffs:
            return "0"
        parts = []
        for i in range(self.degree, -1, -1):
            c = coeffs[i]
            if c == 0:
                continue
            if i == 0:
                term = str(c)
            else:
                xpart = "x" if i == 1 else f"x^{i}"
                if c == 1:
                    term = xpart
                elif c == -1:
                    term = f"-{xpart}"
                else:
                    term = f"{c}*{xpart}"
            parts.append(term)
        text = parts[0]
        for term in parts[1:]:
            text += f" - {term[1:]}" if term.startswith("-") else f" + {term}"
        return text

    def __repr__(self) -> str:
        return f"XPoly({self.as_str()!r})"


@lru_cache(maxsize=None)
def _factorials(step: int) -> list:
    """The store [x(x + step)...(x + (n-1) step) for n = 0, 1, ...] of one
    step, +1 or -1, which ``_factorial`` extends."""
    return [_from_ints([1], 1)]


def _factorial(n: int, step: int) -> XPoly:
    if n < 0:
        raise ValueError("n must be nonnegative")
    store = _factorials(step)
    for j in range(len(store), n + 1):
        linear = _from_ints([(j - 1) * step, 1], 1)
        store.append(XPoly.sum_products(((store[-1], linear),)))
    return store[n]


def falling_factorial(n: int) -> XPoly:
    """x(x-1)...(x-n+1) as an XPoly; the empty product for n=0."""
    return _factorial(n, -1)


def falling_factorials(n: int) -> list:
    """The store of x(x-1)...(x-j+1) for j = 0, 1, ..., grown through
    index n; the list itself, which callers read and do not change."""
    falling_factorial(n)
    return _factorials(-1)


def rising_factorial(n: int) -> XPoly:
    """x(x+1)...(x+n-1) as an XPoly; the empty product for n=0."""
    return _factorial(n, 1)
