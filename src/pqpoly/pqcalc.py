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

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .exact import check_scalar, rational_from_str, rational_to_str


@dataclass(frozen=True)
class PQParams:
    """Validated parameter pair with 0 < q <= p <= 1.

    Every cached function takes one as a key, so the hash of the pair is
    computed once, at construction; it is the value the dataclass would
    generate, hash((p, q)).
    """

    p: Fraction
    q: Fraction

    def __post_init__(self):
        check_scalar(self.p, "p")
        check_scalar(self.q, "q")
        object.__setattr__(self, "p", Fraction(self.p))
        object.__setattr__(self, "q", Fraction(self.q))
        if not 0 < self.q <= self.p <= 1:
            raise ValueError(
                f"parameters must satisfy 0 < q <= p <= 1, got p={self.p}, q={self.q}"
            )
        object.__setattr__(self, "_hash", hash((self.p, self.q)))

    def __hash__(self) -> int:
        return self._hash

    @property
    def is_equal_limit(self) -> bool:
        return self.p == self.q

    @classmethod
    def parse(cls, p_text: str, q_text: str) -> "PQParams":
        return cls(rational_from_str(p_text), rational_from_str(q_text))

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

