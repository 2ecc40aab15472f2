"""Exact scalars and dense univariate polynomials.

Every number in this package is a ``fractions.Fraction``; the stdlib keeps
them canonical (reduced, positive denominator).  ``XPoly`` is a dense
polynomial in one indeterminate x over those scalars.  Canonical form is
enforced at construction: no trailing zero coefficients are stored, so the
zero polynomial has an empty coefficient tuple and equality is structural.

Serialized form of a scalar is the string ``"num/den"`` with the denominator
always written out, e.g. ``"5/1"`` or ``"-3/4"``.  A polynomial serializes as
the list of those strings, index = power of x.
"""

from __future__ import annotations

import re
from decimal import Decimal
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Union

Scalar = Union[int, Fraction]

_RATIONAL_RE = re.compile(r"^[+-]?\d+(?:/\d+)?$")


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


class XPoly:
    """Immutable dense polynomial in x with Fraction coefficients."""

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs: Iterable[Scalar] = ()):
        cs = [c if type(c) is Fraction else Fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self._coeffs: tuple[Fraction, ...] = tuple(cs)

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
        return cls([0] * power + [coeff])

    @classmethod
    def from_strings(cls, items: Iterable[str]) -> "XPoly":
        return cls(rational_from_str(s) for s in items)

    def to_strings(self) -> list[str]:
        return [rational_to_str(c) for c in self._coeffs]

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        return self._coeffs

    @property
    def degree(self) -> int:
        """Highest stored power; -1 for the zero polynomial."""
        return len(self._coeffs) - 1

    def coeff(self, i: int) -> Fraction:
        if 0 <= i < len(self._coeffs):
            return self._coeffs[i]
        return Fraction(0)

    def __bool__(self) -> bool:
        return bool(self._coeffs)

    def _coerced(self, other) -> "XPoly":
        if isinstance(other, XPoly):
            return other
        if isinstance(other, (int, Fraction)):
            return XPoly((other,))
        return NotImplemented

    def __add__(self, other) -> "XPoly":
        o = self._coerced(other)
        if o is NotImplemented:
            return NotImplemented
        a, b = self._coeffs, o._coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return XPoly(out)

    __radd__ = __add__

    def __neg__(self) -> "XPoly":
        return XPoly([-c for c in self._coeffs])

    def __sub__(self, other) -> "XPoly":
        o = self._coerced(other)
        if o is NotImplemented:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other) -> "XPoly":
        o = self._coerced(other)
        if o is NotImplemented:
            return NotImplemented
        return o + (-self)

    def __mul__(self, other) -> "XPoly":
        o = self._coerced(other)
        if o is NotImplemented:
            return NotImplemented
        a, b = self._coeffs, o._coeffs
        if not a or not b:
            return XPoly(())
        out = [Fraction(0)] * (len(a) + len(b) - 1)
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    out[i + j] += ai * bj
        return XPoly(out)

    __rmul__ = __mul__

    def __call__(self, point):
        """Evaluate at a scalar or substitute another polynomial."""
        acc = point * 0
        for c in reversed(self._coeffs):
            acc = acc * point + c
        return acc

    def __eq__(self, other) -> bool:
        if isinstance(other, XPoly):
            return self._coeffs == other._coeffs
        if isinstance(other, (int, Fraction)):
            return self.degree <= 0 and self.coeff(0) == other
        return NotImplemented

    def __hash__(self) -> int:
        # Constants hash like their scalar value so XPoly.const(c) == c
        # stays consistent with hashing.
        if self.degree <= 0:
            return hash(self.coeff(0))
        return hash(self._coeffs)

    def as_str(self) -> str:
        if not self._coeffs:
            return "0"
        parts = []
        for i in range(self.degree, -1, -1):
            c = self._coeffs[i]
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
def falling_factorial(n: int) -> XPoly:
    """x(x-1)...(x-n+1) as an XPoly; the empty product for n=0."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    result = XPoly.one()
    for j in range(n):
        result = result * XPoly((-j, 1))
    return result


@lru_cache(maxsize=None)
def rising_factorial(n: int) -> XPoly:
    """x(x+1)...(x+n-1) as an XPoly; the empty product for n=0."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    result = XPoly.one()
    for j in range(n):
        result = result * XPoly((j, 1))
    return result

