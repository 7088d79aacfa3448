"""Certified complex interval (rectangle) arithmetic over mpmath.iv.

Every value is a closed axis-aligned rectangle guaranteed to contain the
true result; all endpoint rounding is outward and handled by mpmath's
interval context.  Comparisons that the enclosure cannot decide raise
rather than guess.
"""

from __future__ import annotations

from fractions import Fraction

from mpmath import iv, mp, mpf

from .errors import PrecisionExhausted

GUARD_BITS = 32


class working_precision:
    """Context manager pinning iv/mp precision (plus guard bits)."""

    def __init__(self, bits: int, guard: int = GUARD_BITS):
        self.bits = bits + guard

    def __enter__(self):
        self._iv, self._mp = iv.prec, mp.prec
        iv.prec = self.bits
        mp.prec = self.bits
        return self

    def __exit__(self, *exc):
        iv.prec, mp.prec = self._iv, self._mp
        return False


# -- real interval helpers --------------------------------------------------

def ri(x):
    """Outward-rounded real interval from int, Fraction, str or mpf."""
    if isinstance(x, Fraction):
        return iv.mpf(x.numerator) / iv.mpf(x.denominator)
    return iv.mpf(x)


def ri_lo(x) -> mpf:
    return mp.mpf(x.a)


def ri_hi(x) -> mpf:
    return mp.mpf(x.b)


def ri_from_endpoints(lo, hi):
    return iv.mpf([lo, hi])


def ri_contains_zero(x) -> bool:
    return ri_lo(x) <= 0 <= ri_hi(x)


def ri_sqrt_hi(x) -> mpf:
    """Certified upper bound for sqrt(sup x), x >= 0."""
    return ri_hi(iv.sqrt(iv.mpf([max(mpf(0), ri_lo(x)), ri_hi(x)])))


def ri_sqrt_lo(x) -> mpf:
    lo = ri_lo(x)
    if lo <= 0:
        return mp.mpf(0)
    return ri_lo(iv.sqrt(iv.mpf([lo, lo])))


class ComplexBox:
    """Rectangle re + i*im with certified ivmpf components."""

    __slots__ = ("re", "im")

    def __init__(self, re, im=0):
        self.re = re if type(re).__name__ == "ivmpf" else ri(re)
        self.im = im if type(im).__name__ == "ivmpf" else ri(im)

    # -- constructors ------------------------------------------------------

    @staticmethod
    def from_complex(z: complex) -> "ComplexBox":
        return ComplexBox(iv.mpf(z.real), iv.mpf(z.imag))

    @staticmethod
    def from_fractions(re: Fraction, im: Fraction = Fraction(0)) -> "ComplexBox":
        return ComplexBox(ri(re), ri(im))

    # -- ring operations ---------------------------------------------------

    def __add__(self, other):
        o = _coerce(other)
        return ComplexBox(self.re + o.re, self.im + o.im)

    __radd__ = __add__

    def __neg__(self):
        return ComplexBox(-self.re, -self.im)

    def __sub__(self, other):
        o = _coerce(other)
        return ComplexBox(self.re - o.re, self.im - o.im)

    def __rsub__(self, other):
        return -(self - other)

    def __mul__(self, other):
        o = _coerce(other)
        return ComplexBox(
            self.re * o.re - self.im * o.im,
            self.re * o.im + self.im * o.re,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = _coerce(other)
        n = o.abs_sq()
        if ri_contains_zero(n):
            raise PrecisionExhausted("division by an interval containing zero")
        conj_num = self * o.conj()
        return ComplexBox(conj_num.re / n, conj_num.im / n)

    def __rtruediv__(self, other):
        return _coerce(other) / self

    def conj(self) -> "ComplexBox":
        return ComplexBox(self.re, -self.im)

    def pow_int(self, n: int) -> "ComplexBox":
        if n < 0:
            return ComplexBox(1) / self.pow_int(-n)
        out = ComplexBox(1)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    # -- metric ------------------------------------------------------------

    def abs_sq(self):
        return self.re * self.re + self.im * self.im

    def abs_hi(self) -> mpf:
        return ri_sqrt_hi(self.abs_sq())

    def abs_lo(self) -> mpf:
        return ri_sqrt_lo(self.abs_sq())

    def contains_zero(self) -> bool:
        return ri_contains_zero(self.re) and ri_contains_zero(self.im)

    def mid(self):
        return mp.mpc(mp.mpf(self.re.mid), mp.mpf(self.im.mid))

    def rad(self) -> mpf:
        """Upper bound on sup |z - mid| over the rectangle."""
        wr = mp.mpf(self.re.delta) / 2
        wi = mp.mpf(self.im.delta) / 2
        return ri_sqrt_hi(ri_from_endpoints(0, wr) ** 2 + ri_from_endpoints(0, wi) ** 2)

    def widened(self, r) -> "ComplexBox":
        """Inflate both components by +-r (r an mpf or ivmpf upper bound)."""
        hi = ri_hi(r) if type(r).__name__ == "ivmpf" else mp.mpf(r)
        pad = ri_from_endpoints(-hi, hi)
        return ComplexBox(self.re + pad, self.im + pad)

    def overlaps(self, other: "ComplexBox") -> bool:
        return (self - other).contains_zero()

    def is_exact(self) -> bool:
        return mp.mpf(self.re.delta) == 0 and mp.mpf(self.im.delta) == 0

    def __repr__(self):
        return f"ComplexBox({self.re}, {self.im})"


def _coerce(x) -> ComplexBox:
    if isinstance(x, ComplexBox):
        return x
    if isinstance(x, (int, Fraction)):
        return ComplexBox(ri(x), iv.mpf(0))
    if isinstance(x, complex):
        return ComplexBox.from_complex(x)
    if type(x).__name__ == "ivmpf" or isinstance(x, mpf):
        return ComplexBox(x, iv.mpf(0))
    raise TypeError(f"cannot coerce {x!r} to ComplexBox")


def exp_2pi_i(z: ComplexBox) -> ComplexBox:
    """Certified e^(2*pi*i*z) via real interval exp/cos/sin."""
    two_pi = 2 * iv.pi
    scale = iv.exp(-two_pi * z.im)
    ang = two_pi * z.re
    return ComplexBox(scale * iv.cos(ang), scale * iv.sin(ang))


def quadnum_box(x) -> ComplexBox:
    """Embed a QuadNum p + q*sqrt(d) (sqrt(d) = i*sqrt(|d|)) as a box."""
    root = iv.sqrt(iv.mpf(-x.d))
    return ComplexBox(ri(x.p), ri(x.q) * root)
