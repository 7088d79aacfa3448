"""Certified complex interval (rectangle) arithmetic over mpmath.iv.

Every value is a closed axis-aligned rectangle guaranteed to contain the
true result; all endpoint rounding is outward, done by mpmath's libmpi
endpoint routines at iv.prec exactly as its interval context does it.
Comparisons that the enclosure cannot decide raise rather than guess.
Numbers enter the arithmetic through as_box and ri only, never as text (text
is read exactly by quadfield._rational first), and leave it exactly through
endpoint_fraction, which refuses an infinite or NaN endpoint.
"""

from __future__ import annotations

from fractions import Fraction

from mpmath import iv, mp, mpf
from mpmath.libmp import (
    fzero,
    from_int,
    from_rational,
    mpf_pi,
    mpf_pos,
    mpf_shift,
    mpf_sign,
    round_ceiling,
    round_floor,
)
from mpmath.libmp.libmpi import (
    mpi_add,
    mpi_cos_sin,
    mpi_div,
    mpi_exp,
    mpi_mul,
    mpi_neg,
    mpi_sub,
)

from .errors import PrecisionExhausted
from .quadfield import QuadNum

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


def _nstr(x, digits: int = 5) -> str:
    """mp.nstr of the (raw) mpf x rounded up to 64 bits: nstr fails on over
    about 14,000 bits of mantissa when |x| < 2^-3500 or |x| > 2^3500."""
    return mp.nstr(mp.make_mpf(mpf_pos(getattr(x, "_mpf_", x), 64, round_ceiling)), digits)


# -- real interval helpers --------------------------------------------------

def ri(x):
    """The least interval at iv.prec holding x, an int, Fraction, float or
    mpf: a Fraction's endpoints are its value rounded down and up.  Text is
    no number here."""
    if isinstance(x, Fraction):
        n, d, p = x.numerator, x.denominator, _IV_PREC[0]
        return _ivmpf((from_rational(n, d, p, round_floor),
                       from_rational(n, d, p, round_ceiling)))
    if isinstance(x, str):
        raise TypeError(f"text is no number: {x!r}")
    return iv.mpf(x)


def ri_lo(x) -> mpf:
    return mp.mpf(x.a)


def ri_hi(x) -> mpf:
    return mp.mpf(x.b)


def ri_from_endpoints(lo, hi):
    return iv.mpf([lo, hi])


def ri_sqrt_hi(x) -> mpf:
    """Certified upper bound for sqrt(sup x), x >= 0."""
    return ri_hi(iv.sqrt(iv.mpf([max(mpf(0), ri_lo(x)), ri_hi(x)])))


class ComplexBox:
    """Rectangle re + i*im with certified ivmpf components."""

    __slots__ = ("re", "im")

    def __init__(self, re, im=0):
        self.re = re if type(re).__name__ == "ivmpf" else ri(re)
        self.im = im if type(im).__name__ == "ivmpf" else ri(im)

    # -- ring operations ---------------------------------------------------
    #
    # The operators work on the endpoint pairs (_mpi_) with mpmath's libmpi
    # routines at iv.prec: the same outward rounding the iv context applies
    # to ivmpf operators, without its argument conversion and dispatch.

    def __add__(self, other):
        o = other if type(other) is ComplexBox else as_box(other)
        p = _IV_PREC[0]
        return _box(mpi_add(self.re._mpi_, o.re._mpi_, p),
                    mpi_add(self.im._mpi_, o.im._mpi_, p))

    __radd__ = __add__

    def __neg__(self):
        p = _IV_PREC[0]
        return _box(mpi_neg(self.re._mpi_, p), mpi_neg(self.im._mpi_, p))

    def __sub__(self, other):
        o = other if type(other) is ComplexBox else as_box(other)
        p = _IV_PREC[0]
        return _box(mpi_sub(self.re._mpi_, o.re._mpi_, p),
                    mpi_sub(self.im._mpi_, o.im._mpi_, p))

    def __rsub__(self, other):
        return as_box(other) - self

    def __mul__(self, other):
        o = other if type(other) is ComplexBox else as_box(other)
        p = _IV_PREC[0]
        re, im = _mul_pairs(self.re._mpi_, self.im._mpi_, o.re._mpi_, o.im._mpi_, p)
        return _box(re, im)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = other if type(other) is ComplexBox else as_box(other)
        p = _IV_PREC[0]
        n = o._divisor_norm(p)
        re, im = _mul_pairs(self.re._mpi_, self.im._mpi_,
                            o.re._mpi_, mpi_neg(o.im._mpi_, p), p)
        return _box(mpi_div(re, n, p), mpi_div(im, n, p))

    def __rtruediv__(self, other):
        return as_box(other) / self

    def inv(self) -> "ComplexBox":
        """1/z as conj(z) / |z|^2, with no product by an exact 1."""
        p = _IV_PREC[0]
        n = self._divisor_norm(p)
        return _box(mpi_div(self.re._mpi_, n, p),
                    mpi_div(mpi_neg(self.im._mpi_, p), n, p))

    def conj(self) -> "ComplexBox":
        return _box(self.re._mpi_, mpi_neg(self.im._mpi_, _IV_PREC[0]))

    def pow_int(self, n: int) -> "ComplexBox":
        if n < 0:
            return self.pow_int(-n).inv()
        if n == 0:
            return ComplexBox(1)
        base = self
        while not n & 1:
            base = base * base
            n >>= 1
        out = base
        n >>= 1
        while n:
            base = base * base
            if n & 1:
                out = out * base
            n >>= 1
        return out

    # -- metric ------------------------------------------------------------

    def _norm(self, p):
        """|z|^2 as an endpoint pair."""
        a, b = self.re._mpi_, self.im._mpi_
        return mpi_add(mpi_mul(a, a, p), mpi_mul(b, b, p), p)

    def _divisor_norm(self, p):
        """|z|^2 as an endpoint pair, certified nonzero."""
        n = self._norm(p)
        if _straddles_zero(n):
            raise PrecisionExhausted(
                "division by an interval containing zero: the divisor's "
                f"radius is {_nstr(self.rad())} and its midpoint modulus "
                f"{_nstr(abs(self.mid()))}; a radius below the modulus "
                "is needed")
        return n

    def abs_sq(self):
        return _ivmpf(self._norm(_IV_PREC[0]))

    def abs_hi(self) -> mpf:
        return ri_sqrt_hi(self.abs_sq())

    def contains_zero(self) -> bool:
        return _straddles_zero(self.re._mpi_) and _straddles_zero(self.im._mpi_)

    def mid(self):
        return mp.mpc(mp.mpf(self.re.mid), mp.mpf(self.im.mid))

    def rad(self) -> mpf:
        """Upper bound on sup |z - mid| over the rectangle."""
        wr = mp.mpf(self.re.delta) / 2
        wi = mp.mpf(self.im.delta) / 2
        return ri_sqrt_hi(ri_from_endpoints(0, wr) ** 2 + ri_from_endpoints(0, wi) ** 2)

    def overlaps(self, other: "ComplexBox") -> bool:
        return (self - other).contains_zero()

    def is_exact(self) -> bool:
        return mp.mpf(self.re.delta) == 0 and mp.mpf(self.im.delta) == 0

    def __repr__(self):
        return f"ComplexBox({self.re}, {self.im})"


_IV_PREC = iv._prec  # iv.prec is _IV_PREC[0]
_IVMPF = iv.mpf
_new = object.__new__
_EXACT_ZERO = (fzero, fzero)


def _ivmpf(v):
    """The ivmpf holding the endpoint pair v."""
    x = _new(_IVMPF)
    x._mpi_ = v
    return x


def _box(re, im) -> ComplexBox:
    """The box with endpoint pairs re, im (no type tests, no conversion)."""
    z = _new(ComplexBox)
    z.re = _ivmpf(re)
    z.im = _ivmpf(im)
    return z


def _mul_pairs(a, b, c, d, p):
    """Endpoint pairs of (a + ib)(c + id)."""
    return (mpi_sub(mpi_mul(a, c, p), mpi_mul(b, d, p), p),
            mpi_add(mpi_mul(a, d, p), mpi_mul(b, c, p), p))


def _straddles_zero(v) -> bool:
    return mpf_sign(v[0]) <= 0 <= mpf_sign(v[1])


def as_box(x) -> ComplexBox:
    """x as a box: a ComplexBox itself; an int, Fraction, complex, mpf or
    ivmpf outward-rounded at iv.prec; a QuadNum through quadnum_box."""
    if isinstance(x, ComplexBox):
        return x
    if type(x) is int:
        p = _IV_PREC[0]
        return _box((from_int(x, p, round_floor), from_int(x, p, round_ceiling)),
                    _EXACT_ZERO)
    if isinstance(x, (int, Fraction)):
        return ComplexBox(ri(x))
    if isinstance(x, QuadNum):
        return quadnum_box(x)
    if isinstance(x, complex):
        return ComplexBox(iv.mpf(x.real), iv.mpf(x.imag))
    if type(x).__name__ == "ivmpf" or isinstance(x, mpf):
        return ComplexBox(x)
    raise TypeError(f"cannot coerce {x!r} to ComplexBox")


def endpoint_fraction(e) -> Fraction:
    """The exact rational value of a raw (libmpf) endpoint, such as either
    half of an ivmpf's _mpi_ or an mpf's _mpf_.  An infinite or NaN endpoint
    has none and raises PrecisionExhausted."""
    sign, man, exp, _ = e
    if not man:
        if exp:
            raise PrecisionExhausted(
                f"an enclosure endpoint is {mp.make_mpf(e)}, not a finite number")
        return Fraction(0)
    man = -int(man) if sign else int(man)
    return Fraction(man << exp) if exp >= 0 else Fraction(man, 1 << -exp)


def exp_2pi_i(z: ComplexBox) -> ComplexBox:
    """Certified e^(2*pi*i*z) = e^(-2 pi Im z) (cos + i sin)(2 pi Re z) on
    the endpoint pairs: libmpi's exp and one cos_sin give the endpoints that
    iv.exp, iv.cos and iv.sin give (each of the last two computes both)."""
    p = _IV_PREC[0]
    two_pi = (mpf_shift(mpf_pi(p, round_floor), 1), mpf_shift(mpf_pi(p, round_ceiling), 1))
    scale = mpi_exp(mpi_mul(mpi_neg(two_pi, p), z.im._mpi_, p), p)
    cos, sin = mpi_cos_sin(mpi_mul(two_pi, z.re._mpi_, p), p)
    return _box(mpi_mul(scale, cos, p), mpi_mul(scale, sin, p))


def quadnum_box(x) -> ComplexBox:
    """Embed a QuadNum p + q*sqrt(d) (sqrt(d) = i*sqrt(|d|)) as a box."""
    root = iv.sqrt(iv.mpf(-x.d))
    return ComplexBox(ri(x.p), ri(x.q) * root)
