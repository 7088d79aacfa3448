"""Exact arithmetic in imaginary quadratic fields Q(sqrt(d)), d < 0 squarefree.

A QuadNum is p + q*sqrt(d) with rational p, q.  The convention throughout is
that sqrt(d) denotes the root with positive imaginary part, so Im(p + q*sqrt(d))
has the sign of q.  Rationals are QuadNums with q == 0 (their d is then just a
field tag and is coerced freely).

The package's exact integer elimination (`_bareiss`), scaling of rational
rows to coprime integers (`_primitive_row`) and reader of the rationals
that arguments and record files hold (`_rational`) live here too.
"""

from __future__ import annotations

import re
from decimal import Decimal
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm

from .errors import Frozen, InvalidConfiguration

# The largest decimal exponent read exactly.  On a 2-CPU Xeon VM reading
# 1.5e+1000000 takes 0.13 s and 1.5e+10000000 5 s, while wp eval takes 6 s
# to print a value of 10^90000 (at z = 1e-30000).
_DECADES = 10 ** 6
# The largest |d| of a field: squarefree_kernel trial-divides up to
# sqrt(|d|), which takes 0.05 s at 10^12 and 5.4 s at 10^16 on that VM.
_FIELD_BOUND = 10 ** 12
_RATIO = re.compile(r"\s*([+-]?[\d_]+)/([\d_]+)\s*")


def squarefree_kernel(n: int) -> int:
    """The squarefree d with n = d*m^2 for an integer m (sign preserved):
    3 for 12, -2 for -8.  n != 0."""
    if n == 0:
        raise ValueError("squarefree kernel of 0 undefined")
    sign = -1 if n < 0 else 1
    n = abs(n)
    out = 1
    p = 2
    while p * p <= n:
        if n % p == 0:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            if e % 2:
                out *= p
        p += 1 if p == 2 else 2
    return sign * out * n


def is_squarefree(n: int) -> bool:
    return n != 0 and squarefree_kernel(n) == n


@lru_cache(maxsize=256)  # every QuadNum result re-checks its field's d
def _checked_d(d, error=ValueError) -> int:
    """d, checked to name a field Q(sqrt(d)): a negative squarefree integer
    of size at most 10^12; else `error` is raised."""
    if not (isinstance(d, int) and -_FIELD_BOUND <= d < 0 and is_squarefree(d)):
        raise error(f"d must be a negative squarefree integer of size at most "
                    f"10^12, got {d!r}")
    return d


def _rational(text, where: str) -> Fraction:
    """The exact rational of the argument or record field named `where`: an
    int, or text (a float's too) that is an integer over a positive integer
    or a finite decimal of exponent at most 10^6 in size.  decimal.Decimal
    reads the digits, so a number of more than 4300 digits needs no
    int-from-str conversion (which Python limits)."""
    if isinstance(text, int):
        return Fraction(text)
    m = _RATIO.fullmatch(str(text))
    try:
        num, den = map(Decimal, m.groups() if m else (str(text), 1))
        if any(x and abs(x.adjusted()) > _DECADES for x in (num, den)):
            raise InvalidConfiguration(f"{where} has a decimal exponent beyond 10^6 "
                                       f"in size: {text!r}")
        if not den:
            raise InvalidConfiguration(f"{where} has a zero denominator: {text!r}")
        return Fraction(*num.as_integer_ratio()) / int(den)
    except (ArithmeticError, ValueError):
        raise InvalidConfiguration(f"cannot parse {where} {text!r}") from None


def _bareiss(rows) -> tuple:
    """(rank, last pivot) of an integer matrix by fraction-free elimination
    (Bareiss, Math. Comp. 22, 1968): every division is exact; rows are
    copied.  The last pivot of a nonsingular square matrix is +-det; a
    positive definite one needs no row swap, as its pivots are its leading
    minors, so there it is det.  A matrix of zero rows gives (0, 1)."""
    rows = [list(r) for r in rows if any(r)]
    ncols = len(rows[0]) if rows else 0
    rank, prev = 0, 1
    for col in range(ncols):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        pr = rows[rank]
        p = pr[col]
        for ri in rows[rank + 1:]:
            f = ri[col]
            for j in range(col + 1, ncols):
                ri[j] = (p * ri[j] - f * pr[j]) // prev
        prev = p
        rank += 1
    return rank, prev


def _primitive_row(row) -> list:
    """The rational row times the positive rational that makes its entries
    coprime integers: the same ratios and signs.  A zero row stays zero."""
    row = [Fraction(x) for x in row]
    scale = lcm(*(x.denominator for x in row))
    ints = [x.numerator * (scale // x.denominator) for x in row]
    g = gcd(*ints) or 1
    return [x // g for x in ints]


def _frac(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"not a rational: {x!r}")


class QuadNum(Frozen):
    """p + q*sqrt(d) with d < 0 squarefree."""

    __slots__ = ("p", "q", "d")

    def __init__(self, p: Fraction, q: Fraction, d: int):
        _set = object.__setattr__
        _set(self, "p", _frac(p))
        _set(self, "q", _frac(q))
        _set(self, "d", _checked_d(d))

    # -- constructors ------------------------------------------------------

    @staticmethod
    def rational(x, d: int = -1) -> "QuadNum":
        return QuadNum(_frac(x), Fraction(0), d)

    # -- field structure ---------------------------------------------------

    def _coerce(self, other) -> "QuadNum":
        if isinstance(other, QuadNum):
            if other.d != self.d and other.q != 0 and self.q != 0:
                raise ValueError(
                    f"incompatible quadratic fields: sqrt({self.d}) vs sqrt({other.d})"
                )
            d = self.d if self.q != 0 else (other.d if other.q != 0 else self.d)
            return QuadNum(other.p, other.q, d)
        if isinstance(other, (int, Fraction)):
            return QuadNum(_frac(other), Fraction(0), self.d)
        return NotImplemented

    def _same_d(self, other: "QuadNum") -> int:
        if self.q == 0:
            return other.d
        return self.d

    def __add__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return QuadNum(self.p + o.p, self.q + o.q, self._same_d(o))

    __radd__ = __add__

    def __neg__(self):
        return QuadNum(-self.p, -self.q, self.d)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        return -(self - other)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        d = self._same_d(o)
        return QuadNum(
            self.p * o.p + self.q * o.q * d,
            self.p * o.q + self.q * o.p,
            d,
        )

    __rmul__ = __mul__

    def norm(self) -> Fraction:
        """p^2 - d q^2 = |value|^2 (d < 0)."""
        return self.p * self.p - self.d * self.q * self.q

    def conj(self) -> "QuadNum":
        return QuadNum(self.p, -self.q, self.d)

    def inverse(self) -> "QuadNum":
        n = self.norm()
        if n == 0:
            raise ZeroDivisionError("inverse of zero")
        return QuadNum(self.p / n, -self.q / n, self.d)

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        return self.inverse() * other

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.q == 0 and self.p == other
        if isinstance(other, QuadNum):
            if self.q == 0 and other.q == 0:
                return self.p == other.p
            return self.d == other.d and self.p == other.p and self.q == other.q
        return NotImplemented

    def __hash__(self):
        if self.q == 0:
            return hash(self.p)
        return hash((self.p, self.q, self.d))

    def is_zero(self) -> bool:
        return self.p == 0 and self.q == 0

    # -- embedding into C --------------------------------------------------

    def abs_sq(self) -> Fraction:
        return self.norm()

    def __complex__(self) -> complex:
        import math

        return complex(self.p) + 1j * float(self.q) * math.sqrt(-self.d)

    def __repr__(self):
        if self.q == 0:
            return f"QuadNum({self.p})"
        return f"QuadNum({self.p} + {self.q}*sqrt({self.d}))"
