"""Two-parameter deformation of the integers and the matching integral.

The deformed integer is [n] = (p^n - q^n)/(p - q) for distinct parameters
and its limit n p^(n-1) when p = q.  The deformed integral over [0, 1]
sends x^l to 1/[l+1]; the poly-Cauchy integral routes weight each monomial
of their expansion with this monomial integral.

Parameters live in the closed box 0 < q <= p <= 1.  The boundary p = q is
the equal-limit mode; everything downstream treats it through the limit
value of [n], no formula divides by p - q directly.
"""

from __future__ import annotations

import threading
import weakref
from fractions import Fraction
from functools import lru_cache

from .exact import check_scalar, rational_to_str

# the live PQParams by class and reduced pair, and the lock that keeps two
# threads from making two instances of one pair
_interned = weakref.WeakValueDictionary()
_interning = threading.Lock()


class PQParams:
    """Validated parameter pair with 0 < q <= p <= 1, immutable and interned.

    Every cached function takes one as a key.  Construction returns the one
    live instance of each reduced pair (p, q), so equal parameters are one
    object, and a cache lookup hashes and compares it by identity, in C;
    copies and pickles rebuild through the constructor and get that object
    back.  The registry holds its instances weakly: a pair nothing else
    references is freed.
    """

    __slots__ = ("p", "q", "__weakref__")
    __match_args__ = ("p", "q")

    def __new__(cls, p: Fraction, q: Fraction):
        check_scalar(p, "p")
        check_scalar(q, "q")
        p, q = Fraction(p), Fraction(q)
        if not 0 < q <= p <= 1:
            raise ValueError(
                f"parameters must satisfy 0 < q <= p <= 1, got p={p}, q={q}"
            )
        key = (cls, p.numerator, p.denominator, q.numerator, q.denominator)
        with _interning:
            self = _interned.get(key)
            if self is None:
                self = object.__new__(cls)
                object.__setattr__(self, "p", p)
                object.__setattr__(self, "q", q)
                _interned[key] = self
        return self

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __repr__(self) -> str:
        return f"PQParams(p={self.p!r}, q={self.q!r})"

    def __reduce__(self):
        return PQParams, (self.p, self.q)

    @property
    def is_equal_limit(self) -> bool:
        return self.p == self.q

    def as_strings(self) -> tuple[str, str]:
        return rational_to_str(self.p), rational_to_str(self.q)


@lru_cache(maxsize=None)
def pq_integer(n: int, params: PQParams) -> Fraction:
    """The deformed integer [n]; [0] = 0 and [1] = 1 in every mode."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    if n == 0:
        return Fraction(0)
    p, q = params.p, params.q
    if p == q:
        return n * p ** (n - 1)
    return (p**n - q**n) / (p - q)


def pq_integral_01_monomial(power: int, params: PQParams) -> Fraction:
    """Deformed integral of x^power over [0, 1], equal to 1/[power+1]."""
    if power < 0:
        raise ValueError("power must be nonnegative")
    return 1 / pq_integer(power + 1, params)

