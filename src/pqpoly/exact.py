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
``+``, ``-`` and ``*`` are one call of it each.  A value already formed
is read without a further call: the kernel reads a Fraction factor by one
``as_integer_ratio()``, ``affine`` reads formed numerators and the
denominator directly and calls ``check_scalar`` only for a type that is not
exactly ``int`` or ``Fraction``, and ``==`` compares two values by their
ints whenever both have them formed, by their Fractions when only those
are, and forms the ints otherwise.
Calling an XPoly evaluates it at a scalar, by integer Horner, and
``weighted_values`` sums int-weighted values at the points 0, 1, ... the
same way, into one Fraction;
``affine(a, b)`` substitutes a x + b, by an integer Taylor shift and one
scale, and is the only substitution of a polynomial into a polynomial.
The falling and rising factorials are kept in one growing list per step,
each index built from the one before it by one kernel call with one
linear factor, up to ``_FACTORIAL_CAP``, past the largest index the CLI
reads; an index past it is built on from the last kept one and not kept.
``falling_factorials`` hands out the falling one's list, or past the cap
a longer list of its own.

An XPoly also has a second form, the tuple of reduced ``Fraction``
coefficients that ``coeffs`` returns.  Each form is built on first use:
``XPoly(iterable)`` keeps the Fractions it was given and forms the
numerators (over the lcm of their denominators) only when arithmetic needs
them, and an arithmetic result forms its Fractions only when read through
``coeffs``, ``coeff``, ``as_str`` or ``hash``.  A value that is built and
printed never pays for the numerators, one that is only computed with never
pays for the Fractions, and one computed and then printed does not hold
both: ``to_strings`` prints an arithmetic result from its ints, with no
Fraction.

Serialized form of a scalar is the string ``"num/den"`` with the denominator
always written out, e.g. ``"5/1"`` or ``"-3/4"``.  A polynomial serializes as
the list of those strings, index = power of x.  ``rational_to_str`` writes
an int over 1 and a Fraction from its two ints; ``to_strings`` reduces each
numerator of an arithmetic result against the shared denominator by one
gcd and writes the two quotients, which ``_exact_quotient`` divides out by
recursive division when they are long.  Every printed int goes through one
helper, ``_int_to_decimal``: ``str`` up to the interpreter's default
4,300-digit int-to-str limit, and past it a divide-and-conquer conversion
through the ``decimal`` module, which is exact at any size, subquadratic
and leaves the limit alone.  The limit still bounds ``rational_from_str``,
which parses the CLI's own input; ``rational_from_printed`` reads a printed
value back at any length, through ``_decimal_to_int``, the inverse split,
and leaves the limit alone too.
"""

from __future__ import annotations

import decimal
import math
import re
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


# 2**14284 < 10**4300, so an int of at most this many bits has at most
# 4,300 digits, the default int-to-str limit, and str renders it.  str is
# faster than the split below up to about 8,000 digits (5,000 digits: 0.38
# against 0.45 ms; 10,000: 1.45 against 1.05 ms, on a 2-core host with
# CPython 3.11), so the limit itself is the threshold.
_STR_BITS = 14_284
# Width of the pieces the split converts with Decimal(int) directly; 1,024
# and 2,048 measured alike.
_PIECE_BITS = 2_048


def _int_to_decimal(n: int) -> str:
    """The decimal digits of an int, at any size; every printed number is
    rendered here.  Up to ``_STR_BITS`` bits this is ``str``.  A larger int
    is halved at a bit position, recursively, down to pieces of at most
    ``_PIECE_BITS`` bits, which ``Decimal`` converts, and the halves are
    recombined in ``decimal``, whose large products are subquadratic
    (Knuth's radix conversion, TAOCP vol. 2, 4.4), where ``str`` is
    quadratic and refuses ints past its digit limit.  The limit is not
    changed."""
    if n.bit_length() <= _STR_BITS:
        try:
            return str(n)
        except ValueError:  # the limit was set below its default
            pass
    with decimal.localcontext() as ctx:
        ctx.prec = decimal.MAX_PREC
        ctx.Emax = decimal.MAX_EMAX
        ctx.traps[decimal.Inexact] = True
        digits = str(_decimal_of(abs(n), n.bit_length(), {}))
    return "-" + digits if n < 0 else digits


def _decimal_of(m: int, w: int, powers: dict) -> decimal.Decimal:
    """The Decimal of m, for 0 <= m < 2 ** w, in an exact context: the
    halves of m, split at bit w // 2, recombined.  powers holds 2 ** v for
    each split width v met so far, in this conversion only."""
    if w <= _PIECE_BITS:
        return decimal.Decimal(m)
    h = w >> 1
    hi = m >> h
    return _decimal_of(hi, w - h, powers) * _power_of_two(h, powers) + _decimal_of(
        m - (hi << h), h, powers
    )


def _power_of_two(w: int, powers: dict) -> decimal.Decimal:
    """2 ** w as a Decimal, kept in powers for the rest of the conversion."""
    p = powers.get(w)
    if p is None:
        if w <= _PIECE_BITS:
            p = decimal.Decimal(1 << w)
        elif w - 1 in powers:
            p = powers[w - 1] * 2
        else:
            p = _power_of_two(w >> 1, powers) * _power_of_two(w - (w >> 1), powers)
        powers[w] = p
    return p


# Below this many bits of quotient or divisor the builtin division is used:
# 1,000 to 8,000 measured alike on the reductions of gen's largest rows.
_DIV_BITS = 2_000


def _exact_quotient(a: int, b: int) -> int:
    """a // b, for b > 0 that divides a.  When the quotient and b both pass
    ``_DIV_BITS`` bits, this is Burnikel and Ziegler's recursive division
    (1998), which does its work in multiplications that CPython makes by
    Karatsuba's method, where the builtin division is schoolbook: a is
    divided one b-wide digit at a time, each digit by ``_div2n1n``."""
    if a < 0:
        return -_exact_quotient(-a, b)
    n = b.bit_length()
    if n <= _DIV_BITS or a.bit_length() - n <= _DIV_BITS:
        return a // b
    mask = (1 << n) - 1
    q = r = 0
    for shift in range((a.bit_length() - 1) // n * n, -1, -n):
        digit, r = _div2n1n(r << n | a >> shift & mask, b, n)
        q = q << n | digit
    return q


def _div2n1n(a: int, b: int, n: int) -> tuple[int, int]:
    """divmod(a, b) for b of n bits and 0 <= a < b << n."""
    if a.bit_length() - n <= _DIV_BITS:
        return divmod(a, b)
    pad = n & 1
    if pad:
        a, b, n = a << 1, b << 1, n + 1
    half = n >> 1
    mask = (1 << half) - 1
    b1, b2 = b >> half, b & mask
    q1, r = _div3n2n(a >> n, a >> half & mask, b, b1, b2, half)
    q2, r = _div3n2n(r, a & mask, b, b1, b2, half)
    return q1 << half | q2, r >> pad


def _div3n2n(a12: int, a3: int, b: int, b1: int, b2: int, n: int) -> tuple[int, int]:
    """divmod(a12 << n | a3, b) for b = b1 << n | b2 of 2n bits, b1 of n
    bits, a3 < 2**n and a12 < b: the quotient of a12 by b1, at most 2 too
    large, corrected by one product with b2."""
    if a12 >> n == b1:
        q, r = (1 << n) - 1, a12 - (b1 << n) + b1
    else:
        q, r = _div2n1n(a12, b1, n)
    r = (r << n | a3) - q * b2
    while r < 0:
        q -= 1
        r += b
    return q, r


def rational_to_str(value: Scalar) -> str:
    """Render a rational as ``num/den`` with an explicit denominator.  An
    exact int is written over 1 and a Fraction from its own numerator and
    denominator, with no Fraction built; any other scalar, a bool say, is
    converted to a Fraction first."""
    t = type(value)
    if t is int:
        return f"{_int_to_decimal(value)}/1"
    f = value if t is Fraction else Fraction(value)
    return f"{_int_to_decimal(f.numerator)}/{_int_to_decimal(f.denominator)}"


def rational_from_str(text: str) -> Fraction:
    """Parse ``num/den`` or a bare integer.  Decimal notation is rejected."""
    s = text.strip()
    if not _RATIONAL_RE.match(s):
        raise ValueError(f"not an exact rational: {text!r}")
    try:
        return Fraction(s)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator: {text!r}") from None


def rational_from_printed(text: str) -> Fraction:
    """Parse ``num/den`` or a bare integer, as ``rational_from_str`` does,
    at any length: the reader of the values the CLI prints, which pass the
    interpreter's int-to-str digit limit.  ``rational_from_str`` keeps that
    limit on the CLI's own input; this reader leaves it unchanged too."""
    s = text.strip()
    if not _RATIONAL_RE.match(s):
        raise ValueError(f"not an exact rational: {text!r}")
    num, _, den = s.partition("/")
    powers = {}
    d = _decimal_to_int(den, powers) if den else 1
    if d == 0:
        raise ValueError(f"zero denominator: {text!r}")
    n = _decimal_to_int(num.lstrip("+-"), powers)
    return Fraction(-n if num[0] == "-" else n, d)


# Width in digits of the pieces a long digit string is cut into: at most
# sys.int_info.str_digits_check_threshold (640), below which int converts a
# string whatever the digit limit is set to.
_PIECE_DIGITS = 512


def _decimal_to_int(digits: str, powers: dict) -> int:
    """The int of a string of decimal digits, at any length; the inverse of
    ``_int_to_decimal``.  A string of more than ``_PIECE_DIGITS`` digits is
    cut, recursively, into a low part of ``_PIECE_DIGITS`` times a power of
    two digits and the high part above it, and the parts' ints recombine
    as high * 10 ** width + low.  powers holds 10 ** width for each width
    met so far, in this read only.  Every piece int converts is under the
    digit limit, so the limit is not changed."""
    size = len(digits)
    if size <= _PIECE_DIGITS:
        return int(digits)
    # the largest width _PIECE_DIGITS * 2 ** j below size, at least half of
    # it, so the low parts of every split come in a few widths
    w = _PIECE_DIGITS << ((size - 1) // _PIECE_DIGITS).bit_length() - 1
    p = powers.get(w)
    if p is None:
        p = powers[w] = 10**w
    return _decimal_to_int(digits[:-w], powers) * p + _decimal_to_int(
        digits[-w:], powers
    )


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
        """The coefficients as ``num/den`` strings, as ``rational_to_str``
        writes each of ``coeffs``.  A value whose Fractions are not formed
        is rendered from its ints, with no Fraction built or kept: each
        numerator c over the shared denominator d is reduced by one gcd g
        and written as c // g over d // g, by ``_exact_quotient``."""
        if self._fracs is not None:
            return [rational_to_str(c) for c in self._fracs]
        den = self._den
        if den == 1:
            return [f"{_int_to_decimal(c)}/1" for c in self._num]
        out = []
        for c in self._num:
            g = math.gcd(c, den)
            num_str = _int_to_decimal(_exact_quotient(c, g))
            out.append(f"{num_str}/{_int_to_decimal(_exact_quotient(den, g))}")
        return out

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
                    fn, fd = f.as_integer_ratio()
                    num *= fn
                    den *= fd
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
        if type(a) is not int and type(a) is not Fraction:
            check_scalar(a, "affine scale")
        if type(b) is not int and type(b) is not Fraction:
            check_scalar(b, "affine shift")
        num = self._num
        if num is None:
            num, den = self._ints()
        else:
            den = self._den
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
            num, other_num = self._num, other._num
            if num is not None and other_num is not None:
                return self._den == other._den and num == other_num
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


# The largest index a factorial store keeps: gen reads falling_factorials
# through --nmax, at most 100, and the tail terms read index n + 1.
# An index past it is built from the last kept one and not kept, so a far
# read holds one polynomial at a time, not every index below it.
_FACTORIAL_CAP = 101


@lru_cache(maxsize=None)
def _factorials(step: int) -> list:
    """The store [x(x + step)...(x + (n-1) step) for n = 0, 1, ...] of one
    step, +1 or -1, which ``_factorial`` extends up to ``_FACTORIAL_CAP``."""
    return [_from_ints([1], 1)]


def _times_linear(value: XPoly, j: int, step: int) -> XPoly:
    """Index j of one step's factorials, from value, index j - 1."""
    linear = _from_ints([(j - 1) * step, 1], 1)
    return XPoly.sum_products(((value, linear),))


def _factorial(n: int, step: int) -> XPoly:
    if n < 0:
        raise ValueError("n must be nonnegative")
    store = _factorials(step)
    kept = min(n, _FACTORIAL_CAP)
    for j in range(len(store), kept + 1):
        store.append(_times_linear(store[-1], j, step))
    value = store[kept]
    for j in range(kept + 1, n + 1):
        value = _times_linear(value, j, step)
    return value


def falling_factorial(n: int) -> XPoly:
    """x(x-1)...(x-n+1) as an XPoly; the empty product for n=0."""
    return _factorial(n, -1)


def falling_factorials(n: int) -> list:
    """x(x-1)...(x-j+1) for j = 0, 1, ..., through at least index n.  Up to
    ``_FACTORIAL_CAP`` this is the store itself, which callers read and do
    not change; past it, a new list that is not kept."""
    store = _factorials(-1)
    falling_factorial(min(n, _FACTORIAL_CAP))
    if n <= _FACTORIAL_CAP:
        return store
    values = list(store)
    for j in range(len(values), n + 1):
        values.append(_times_linear(values[-1], j, -1))
    return values


def rising_factorial(n: int) -> XPoly:
    """x(x+1)...(x+n-1) as an XPoly; the empty product for n=0."""
    return _factorial(n, 1)
