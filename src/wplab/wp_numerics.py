"""Certified arbitrary-precision evaluation attached to a lattice: the curve
invariants g2, g3, the doubly periodic functions wp and wp', the covering map
exp_E, the projective group law for Y^2 Z = 4X^3 - g2 X Z^2 - g3 Z^3, and
residual verification of the functional identities (differential equation,
homogeneity, conjugation symmetry, addition, isogeny functoriality).

Every returned bound is an enclosure, never an estimate.  Jacobi theta
series give g2, g3 and the discriminant (from the theta constants, computed
once per model with the quotient factors wp needs) and wp, wp' (as theta
quotients).  The series run on a fixed-point kernel: Gaussian integers at a
scale 2^-P a little finer than the working precision, each carrying a
per-component radius in ulps that every product bounds by the rectangle rule
plus its own rounding, so the running error bound is exact integer
arithmetic.  The geometric tail bound is folded into the radius.  The wp and
wp' quotients run on the same kernel, one integer reciprocal of theta1 among
them, and leave it as outward-rounded rectangles, scaled by (pi/omega1)^2
or -2 (pi/omega1)^3; the invariants, argument reduction and group law are
rectangle interval arithmetic.

Every evaluation first translates its argument into the centered cell.  An
exact argument of an exact lattice is reduced exactly, so a lattice point is
recognized as one and any other point is boxed only once it is reduced; a
boxed argument is reduced in interval arithmetic.  Near the lattice the theta
sums of either run with the bits the reduced argument lies below 2^-16 added,
so the quotients stay certified however near it lies.  The group law works
on the points exp_E builds, the identity [0 : 1 : 0] and affine points with
Z exactly 1, and divides by no Z.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple

from mpmath import iv, mp, mpf
from mpmath.libmp import (
    fone,
    from_man_exp,
    fzero,
    mpf_abs,
    mpf_add,
    mpf_div,
    mpf_lt,
    mpf_mul,
    mpf_neg,
    mpf_pow_int,
    mpf_shift,
    mpf_sqrt,
    mpf_sub,
    round_ceiling,
    round_floor,
)

from .cintervals import (
    ComplexBox,
    _EXACT_ZERO,
    _box,
    _nstr,
    as_box,
    exp_2pi_i,
    quadnum_box,
    ri_hi,
    ri_lo,
    working_precision,
)
from .errors import (
    Frozen,
    IndistinguishableBranch,
    PoleAtLatticePoint,
    PrecisionExhausted,
    UndecidablePoleProximity,
    WplabError,
)
from .lattice_core import Lattice, conjugate, make_lattice
from .quadfield import QuadNum

SERIES_CAP = 1 << 16


class EllipticModel(Frozen):
    """Lattice plus its certified curve invariants at a working precision."""

    __slots__ = ("lattice", "g2", "g3", "precision",
                 "_tau", "_omega1",
                 "_q4",  # q^(1/4), q = e^(i pi tau)
                 # s^2 and -2 s^3 for s = pi/omega1, the scales of wp and wp'
                 "_s2", "_m2s3",
                 # from the theta constants t2, t3, t4 at 0: t2 t3, t4^2 and
                 # (t2^4 + t3^4)/3, the factors of the wp quotient
                 "_t23", "_t4_sq", "_wp_shift")

    def __init__(self, lattice: Lattice, g2: ComplexBox, g3: ComplexBox,
                 precision: int, _tau=None, _omega1=None, _q4=None,
                 _s2=None, _m2s3=None, _t23=None, _t4_sq=None, _wp_shift=None):
        for name, value in zip(self.__slots__, (
                lattice, g2, g3, precision, _tau, _omega1, _q4, _s2, _m2s3,
                _t23, _t4_sq, _wp_shift)):
            object.__setattr__(self, name, value)


_EXACT_ONE = (fone, fone)


class CurvePoint(NamedTuple):
    """Point [X : Y : Z] with boxed coordinates: the identity [0 : 1 : 0]
    has Z exactly 0, every other point Z exactly 1."""

    X: ComplexBox
    Y: ComplexBox
    Z: ComplexBox

    def is_identity(self) -> bool:
        return self.Z.re._mpi_ == _EXACT_ZERO and self.Z.im._mpi_ == _EXACT_ZERO


def identity_point() -> CurvePoint:
    return CurvePoint(ComplexBox(0), ComplexBox(1), ComplexBox(0))


class Residual(NamedTuple):
    """Certified upper bound on an identity's defect."""

    value: mpf
    identity_tag: str


def _box_eq(a: ComplexBox, b: ComplexBox) -> bool:
    return a.re._mpi_ == b.re._mpi_ and a.im._mpi_ == b.im._mpi_


# -- Jacobi theta series ------------------------------------------------------
# With nome q = e^(i pi tau), q^(1/4) = e^(i pi tau/4), w = e^(iv) and
# T(k, +-) = q^(k^2/4) w^(+-k) (DLMF 20.2):
#   theta1(v) = -i sum_{k odd} (-1)^((k-1)/2) (T(k,+) - T(k,-))
#   theta2(v) =    sum_{k odd} (T(k,+) + T(k,-))
#   theta3(v) = 1 + sum_{k even} (T(k,+) + T(k,-))
#   theta4(v) = 1 + sum_{k even} (-1)^(k/2) (T(k,+) + T(k,-))
#
# The sums run on Gaussian integers at the fixed scale 2^-P (an ulp), with
# P = prec + 16 + ceil(b/4 + c) + bit_length(2N) for b = -log2|q| and
# c = log2 max(|w|, 1/|w|), so that the leading terms, as small as |q|^(1/4)
# and as large as |q|^(1/4) |w|, keep prec + 16 bits.  A value is
# (a, b, ra, rb): its real part lies within ra ulps of a, its imaginary part
# within rb ulps of b.  A product (a, b, ra, rb)(c, d, rc, rd) floors its
# midpoint by >> P and bounds its radius by the rectangle rule
#   rad(re) <= (|a| + ra) rc + |c| ra + (|b| + rb) rd + |d| rb,
#   rad(im) <= (|a| + ra) rd + |d| ra + (|b| + rb) rc + |c| rb,
# rounded up to whole ulps, plus 1 ulp when the midpoint's floor drops
# nonzero bits (at most 2 ulps of rounding in all); sums add radii exactly.
# The tail and the magnitudes it needs are libmpf bounds rounded upward; the
# tail is folded into the radii in whole ulps.  At v = 0 (the theta
# constants) T(k,-) = T(k,+) and theta1 = 0, so one chain gives the rest.
#
# The wp quotient stays on these values: 1/theta1 is one integer division
# with a certified radius (_fixed_inv), the products are ordered so that no
# intermediate falls below the magnitudes P was sized for, and the last
# product of each value is exact, at 2^-2P.  A value leaves the kernel as
# a box rounded outward (_leave), once.

_FIXED_GUARD = 16
# the largest fixed-point scale in bits, Im tau up to about 1.18e8 (at
# Im tau = 1e8 a call took 180 MB and 1.8 s on a 2-CPU Xeon VM)
_SCALE_MAX = 1 << 27
_BOUND_PREC = 53  # precision of the directed-rounding magnitude and tail bounds


def _ulps(x, scale: int) -> int:
    """floor(x 2^scale) for a finite raw mpf x."""
    sign, man, exp, _ = x
    if sign:
        man = -man
    shift = exp + scale
    return man << shift if shift >= 0 else man >> -shift


def _fixed_part(v, scale: int):
    """(midpoint, radius) in ulps 2^-scale of the interval with endpoints v."""
    lo, hi = _ulps(v[0], scale), -_ulps(mpf_neg(v[1]), scale)
    mid = (lo + hi) >> 1
    return mid, hi - mid


def _fixed(z: ComplexBox, scale: int):
    a, ra = _fixed_part(z.re._mpi_, scale)
    b, rb = _fixed_part(z.im._mpi_, scale)
    return a, b, ra, rb


def _fixed_mul(x, y, scale: int, low: int):
    """The product at scale 2^-scale; low = 2^scale - 1 masks the bits the
    midpoints' floors discard.  With scale = low = 0 it is the exact
    product, at the sum of the factors' scales."""
    a, b, ra, rb = x
    c, d, rc, rd = y
    re, im = a * c - b * d, a * d + b * c
    ea, eb = abs(a) + ra, abs(b) + rb
    ac, ad = abs(c), abs(d)
    return (re >> scale, im >> scale,
            ((ea * rc + ac * ra + eb * rd + ad * rb + low) >> scale) + ((re & low) != 0),
            ((ea * rd + ad * ra + eb * rc + ac * rb + low) >> scale) + ((im & low) != 0))


def _leave(x, scale: int, prec: int) -> ComplexBox:
    """The kernel value x at scale 2^-scale as a box rounded outward to
    prec bits."""
    a, b, ra, rb = x
    return _box((from_man_exp(a - ra, -scale, prec, round_floor),
                 from_man_exp(a + ra, -scale, prec, round_ceiling)),
                (from_man_exp(b - rb, -scale, prec, round_floor),
                 from_man_exp(b + rb, -scale, prec, round_ceiling)))


def _fixed_inv(x, scale: int):
    """1/x at scale 2^-scale, for x = m + e with midpoint m = a + ib and
    |Re e| <= ra, |Im e| <= rb: 1/x - 1/m = -e conj(m)^2/|m|^4 + e^2/(x m^2).
    The midpoint is conj(m) 2^(2 scale) // |m|^2 (1 ulp of rounding per
    component), the first term is bounded per component by the rectangle
    rule and the second by d^2 / (|m|^2 (|m| - d)) for d >= |e|, with |m|
    bounded below by the integer square root.  When d reaches that bound,
    x may be 0, and PrecisionExhausted states both."""
    a, b, ra, rb = x
    n = a * a + b * b
    d = math.isqrt(ra * ra + rb * rb) + 1
    m = math.isqrt(n)
    if m <= d:
        raise PrecisionExhausted(
            f"theta1(v) not certified nonzero: radius "
            f"{_nstr(from_man_exp(d, -scale))}, needed below its midpoint "
            f"modulus {_nstr(from_man_exp(m, -scale))}")
    one = 1 << 2 * scale
    u, v = abs(a * a - b * b), abs(2 * a * b)  # |Re conj(m)^2|, |Im conj(m)^2|
    nn = n * n
    second = -(-d * d * one // (n * (m - d))) + 1
    return ((a * one) // n, (-b * one) // n,
            -(-(ra * u + rb * v) * one // nn) + second,
            -(-(ra * v + rb * u) * one // nn) + second)


def _abs_hi(z: ComplexBox):
    """Upper bound on |z| as a raw mpf."""
    sq = fzero
    for lo, hi in (z.re._mpi_, z.im._mpi_):
        m = mpf_abs(hi) if mpf_lt(mpf_abs(lo), mpf_abs(hi)) else mpf_abs(lo)
        sq = mpf_add(sq, mpf_mul(m, m, _BOUND_PREC, round_ceiling),
                     _BOUND_PREC, round_ceiling)
    return mpf_sqrt(sq, _BOUND_PREC, round_ceiling)


def _log2(x) -> float:
    """log2 of a positive finite raw mpf, in floating point."""
    _, man, exp, _ = x
    return math.log2(man) + exp


def _pick_terms(b: float, c: float, prec: int) -> int:
    """Least N with N^2 b - 2 N c >= prec + 48, with b = -log2|q| and
    c = log2 max(|w|, 1/|w|): the terms q^(n^2) w^(+-2n) with n >= N are
    below 2^-(prec+48), so the series stop before k = 2N.  N only sizes the
    sums; the tail bound past them is certified whatever N is."""
    n = SERIES_CAP + 1 if b <= 0 else max(
        1, math.ceil((c + math.sqrt(c * c + b * (prec + 48))) / b))
    if n > SERIES_CAP:
        raise PrecisionExhausted(f"series length {n} exceeds cap {SERIES_CAP}")
    return n


def _tail_bound(q4_hi, w_max, n: int):
    """Upper bound past k = 2n: each parity is dominated by a geometric
    series from its first term, of ratio |q|^(2n+1) max(|w|, 1/|w|)^2."""
    bp, up = _BOUND_PREC, round_ceiling
    first = mpf_add(
        mpf_mul(mpf_pow_int(q4_hi, 4 * n * n, bp, up),
                mpf_pow_int(w_max, 2 * n, bp, up), bp, up),
        mpf_mul(mpf_pow_int(q4_hi, (2 * n + 1) ** 2, bp, up),
                mpf_pow_int(w_max, 2 * n + 1, bp, up), bp, up), bp, up)
    ratio = mpf_mul(mpf_pow_int(q4_hi, 4 * (2 * n + 1), bp, up),
                    mpf_pow_int(w_max, 2, bp, up), bp, up)
    if not mpf_lt(ratio, fone):
        raise PrecisionExhausted(
            f"series tail ratio not certified below 1: ratio bound "
            f"{_nstr(ratio)}, needed below 1")
    return mpf_div(mpf_shift(first, 1), mpf_sub(fone, ratio, bp, round_floor),
                   bp, up)


def _series_scale(q4: ComplexBox, w_max):
    """(n, tail, scale) of the theta series at the nome q4^4 and
    max(|w|, 1/|w|) <= w_max: the terms with k < 2n, an upper bound on the
    rest, and the fixed-point scale P in bits."""
    prec = iv.prec
    q4_hi = _abs_hi(q4)
    if not mpf_lt(q4_hi, fone):
        raise PrecisionExhausted(
            f"|q| too close to 1: |q| bound "
            f"{_nstr(mpf_pow_int(q4_hi, 4, _BOUND_PREC, round_ceiling))}, "
            f"needed below 1")
    if not w_max[1]:  # the mantissa of inf and nan
        raise PrecisionExhausted("theta series argument is not finite")
    try:
        b, c = -4 * _log2(q4_hi), max(0.0, _log2(w_max))
    except OverflowError:  # an exponent beyond the float range
        reached = max(abs(q4_hi[2]), abs(w_max[2]))
        raise WplabError(
            f"theta series out of range: binary exponent of magnitude "
            f"{_nstr(mpf(reached))} reached, the limit is 2^1024") from None
    n = _pick_terms(b, c, prec)
    tail = _tail_bound(q4_hi, w_max, n)
    scale = prec + _FIXED_GUARD + math.ceil(b / 4 + c) + (2 * n).bit_length()
    if scale > _SCALE_MAX:
        raise WplabError(
            f"theta series out of range: a fixed-point scale of {scale} bits "
            f"is needed, the limit is {_SCALE_MAX} bits")
    return n, tail, scale


def _theta_sums(q4: ComplexBox, w: ComplexBox):
    """(P, theta1, theta2, theta3, theta4) at v, for w = e^(iv) and the
    nome q4^4: kernel values at the scale 2^-P, with the tail past the last
    term folded into each radius."""
    wi = w.inv()
    w_hi, wi_hi = _abs_hi(w), _abs_hi(wi)
    n, tail, scale = _series_scale(q4, wi_hi if mpf_lt(w_hi, wi_hi) else w_hi)

    q4f = _fixed(q4, scale)
    low = (1 << scale) - 1
    q4sq = _fixed_mul(q4f, q4f, scale, low)
    up = tp = _fixed_mul(q4f, _fixed(w, scale), scale, low)   # q4^(2k+1) w, T(k,+)
    dn = tm = _fixed_mul(q4f, _fixed(wi, scale), scale, low)  # q4^(2k+1)/w, T(k,-)
    # midpoints of S1 = sum_{k odd} (-1)^((k-1)/2) (T(k,+) - T(k,-)) (so
    # theta1 = -i S1), theta2, theta3, theta4; S1 and theta2 share the radii
    # (ra_odd, rb_odd), theta3 and theta4 share (ra_even, rb_even)
    s1a = s1b = s2a = s2b = s3b = s4b = 0
    s3a = s4a = 1 << scale
    ra_odd = rb_odd = ra_even = rb_even = -_ulps(mpf_neg(tail), scale)  # the tail
    for k in range(1, 2 * n):
        if k > 1:
            up = _fixed_mul(up, q4sq, scale, low)
            dn = _fixed_mul(dn, q4sq, scale, low)
            tp, tm = _fixed_mul(tp, up, scale, low), _fixed_mul(tm, dn, scale, low)
        pa, pb, pra, prb = tp
        ma, mb, mra, mrb = tm
        if k & 1:
            s2a += pa + ma
            s2b += pb + mb
            if k & 2:
                s1a -= pa - ma
                s1b -= pb - mb
            else:
                s1a += pa - ma
                s1b += pb - mb
            ra_odd += pra + mra
            rb_odd += prb + mrb
        else:
            s3a += pa + ma
            s3b += pb + mb
            if k & 2:
                s4a -= pa + ma
                s4b -= pb + mb
            else:
                s4a += pa + ma
                s4b += pb + mb
            ra_even += pra + mra
            rb_even += prb + mrb
    return (scale, (s1b, -s1a, rb_odd, ra_odd), (s2a, s2b, ra_odd, rb_odd),
            (s3a, s3b, ra_even, rb_even), (s4a, s4b, ra_even, rb_even))


def _theta_constants(q4: ComplexBox):
    """The theta constants (theta2, theta3, theta4) at v = 0 as boxes: with
    w = 1, T(k,-) = T(k,+) = q4^(k^2) and theta1 = 0, so one chain gives
    each constant as twice its sum (plus 1 for theta3 and theta4)."""
    n, tail, scale = _series_scale(q4, fone)
    q4f = _fixed(q4, scale)
    low = (1 << scale) - 1
    q4sq = _fixed_mul(q4f, q4f, scale, low)
    up = tp = q4f  # q4^(2k-1) and T(k) = q4^(k^2)
    s2a = s2b = s3a = s3b = s4a = s4b = r_odd_a = r_odd_b = r_even_a = r_even_b = 0
    for k in range(1, 2 * n):
        if k > 1:
            up = _fixed_mul(up, q4sq, scale, low)
            tp = _fixed_mul(tp, up, scale, low)
        pa, pb, pra, prb = tp
        if k & 1:
            s2a += pa
            s2b += pb
            r_odd_a += pra
            r_odd_b += prb
        else:
            s3a += pa
            s3b += pb
            if k & 2:
                s4a -= pa
                s4b -= pb
            else:
                s4a += pa
                s4b += pb
            r_even_a += pra
            r_even_b += prb
    one, t = 1 << scale, -_ulps(mpf_neg(tail), scale)
    odd, even = (2 * r_odd_a + t, 2 * r_odd_b + t), (2 * r_even_a + t, 2 * r_even_b + t)
    return tuple(_leave(x, scale, iv.prec) for x in (
        (2 * s2a, 2 * s2b) + odd, (one + 2 * s3a, 2 * s3b) + even,
        (one + 2 * s4a, 2 * s4b) + even))


def invariants(lattice: Lattice, precision: int = 128) -> EllipticModel:
    """Certified g2, g3 of the lattice from the theta constants t2, t3, t4,
    and the factors of the wp quotient that wp, wp' and exp_E use.  The
    relative error radius meets 2^(-precision+8); the discriminant
    16 (pi/omega1)^12 (t2 t3 t4)^8 is certified nonzero."""
    if precision < 53:
        raise ValueError("precision must be at least 53 bits")
    with working_precision(precision):
        tau = lattice.tau_box()
        w1 = lattice.omega1_box()
        q4 = exp_2pi_i(tau * Fraction(1, 8))
        t2, t3, t4 = _theta_constants(q4)
        p2, p3, p4 = (t.pow_int(4) for t in (t2, t3, t4))
        t23 = t2 * t3
        s = ComplexBox(iv.pi) / w1
        s2 = s * s
        s4 = s2 * s2
        g2 = s4 * (p2 * p2 + p3 * p3 + p4 * p4) * Fraction(2, 3)
        g3 = s4 * s2 * (p2 + p3) * (p3 + p4) * (p4 - p2) * Fraction(4, 27)
        for name, g in (("g2", g2), ("g3", g3)):
            tol = mp.ldexp(max(mpf(1), g.abs_hi()), -(precision - 8))
            rad = g.rad()
            if not rad <= tol:
                raise PrecisionExhausted(
                    f"invariant radius exceeds target: {name} radius "
                    f"{_nstr(rad)}, needed {_nstr(tol)}")
        disc = 16 * (s4 * s2).pow_int(2) * (t23 * t4).pow_int(8)
        if disc.contains_zero():
            raise PrecisionExhausted(
                f"discriminant not certified nonzero: radius "
                f"{_nstr(disc.rad())}, needed below |midpoint| "
                f"{_nstr(abs(disc.mid()))}")
        return EllipticModel(lattice, g2, g3, precision, tau, w1, q4, s2,
                             -2 * s2 * s, t23, t4 * t4, (p2 + p3) * Fraction(1, 3))


def model_with(lattice: Lattice, g2: ComplexBox, g3: ComplexBox,
               precision: int) -> EllipticModel:
    """Model with caller-supplied invariants (negative-control harnesses)."""
    m = invariants(lattice, precision)
    return EllipticModel(lattice, g2, g3, precision, m._tau, m._omega1, m._q4,
                         m._s2, m._m2s3, m._t23, m._t4_sq, m._wp_shift)


# -- argument reduction ------------------------------------------------------

def _bits_below(t: ComplexBox) -> int:
    """The bits by which both components of t fall below 2^-16 (0 unless
    both do), read off the exponents of the raw endpoints: a nonzero
    man 2^exp of bc bits is below 2^(exp+bc)."""
    top = max(x[2] + x[3] for v in (t.re._mpi_, t.im._mpi_) for x in v if x[1])
    return max(0, -16 - top)


def _reduce_argument(m: EllipticModel, z) -> ComplexBox:
    """z/omega1 translated by a lattice vector into the centered cell, as a
    box t_red.  An exact argument of an exact lattice is reduced exactly (a
    lattice point raises PoleAtLatticePoint) and boxed only then; a boxed one
    is reduced in interval arithmetic and raises UndecidablePoleProximity
    when it overlaps a lattice point."""
    lat = m.lattice
    if lat.exact and (isinstance(z, (int, Fraction)) or isinstance(z, QuadNum)
                      and (z.q == 0 or z.d == lat.tau.d)):
        tau = lat.tau
        t = z / lat.omega1
        y = t.q / tau.q
        x = t.p - y * tau.p
        x, y = x - round(x), y - round(y)
        if not x and not y:
            raise PoleAtLatticePoint("argument lies on the lattice")
        return quadnum_box(tau * y + x)
    t = as_box(z) / m._omega1
    y = t.im / m._tau.im
    x = t.re - y * m._tau.re
    x = x - int(mp.nint(mp.mpf(x.mid)))
    y = y - int(mp.nint(mp.mpf(y.mid)))
    if ri_lo(x) <= 0 <= ri_hi(x) and ri_lo(y) <= 0 <= ri_hi(y):
        raise UndecidablePoleProximity(
            "argument enclosure overlaps a lattice point")
    return ComplexBox(x) + ComplexBox(y) * m._tau


# -- wp and wp' --------------------------------------------------------------

def _wp_theta(m: EllipticModel, t_red: ComplexBox, want_prime: bool):
    """wp (and optionally wp') at reduced argument t_red = z/omega1:
    wp  = s^2 (f^2 - (t2^4 + t3^4)/3),  f = t2 t3 theta4(v) r,
    wp' = -2 s^3 t4^2 f (theta2(v) r) (t2 t3 r) theta3(v),  r = 1/theta1(v),
    with s = pi/omega1, v = pi*t_red and t2, t3, t4 the theta constants.
    The quotient runs on the kernel values of the theta sums, with one
    integer reciprocal and each product ordered so that no intermediate
    falls below the magnitudes the scale was sized for; it leaves the
    kernel once per value, times s^2 or -2 s^3 as boxes (s carries
    omega1's scale, which the kernel's does not follow).  The theta sums
    gain the bits t_red lies below 2^-16, which keep theta1(v) ~ v tight
    however near the lattice the argument lies."""
    prec = m.precision + _bits_below(t_red)
    if prec == m.precision:
        scale, th1, th2, th3, th4 = _theta_sums(
            m._q4, exp_2pi_i(t_red * Fraction(1, 2)))
    else:
        with working_precision(prec):
            scale, th1, th2, th3, th4 = _theta_sums(
                exp_2pi_i(m.lattice.tau_box() * Fraction(1, 8)),
                exp_2pi_i(t_red * Fraction(1, 2)))
    low = (1 << scale) - 1
    t23 = _fixed(m._t23, scale)
    r = _fixed_inv(th1, scale)
    f = _fixed_mul(_fixed_mul(t23, th4, scale, low), r, scale, low)
    # the last product of each value is exact, at scale 2^-2P, and rounds
    # only when it leaves the kernel
    fa, fb, fra, frb = _fixed_mul(f, f, 0, 0)
    ca, cb, cra, crb = _fixed(m._wp_shift, 2 * scale)
    wp_val = m._s2 * _leave((fa - ca, fb - cb, fra + cra, frb + crb), 2 * scale, iv.prec)
    if not want_prime:
        return wp_val, None
    pp = _fixed_mul(_fixed(m._t4_sq, scale), f, scale, low)
    pp = _fixed_mul(pp, _fixed_mul(th2, r, scale, low), scale, low)
    pp = _fixed_mul(pp, th3, scale, low)
    pp = _fixed_mul(pp, _fixed_mul(t23, r, scale, low), 0, 0)
    return wp_val, m._m2s3 * _leave(pp, 2 * scale, iv.prec)


def wp(m: EllipticModel, z) -> ComplexBox:
    """Certified enclosure of the wp-function at z (reduced modulo the
    lattice first)."""
    with working_precision(m.precision):
        return _wp_theta(m, _reduce_argument(m, z), want_prime=False)[0]


def wp_prime(m: EllipticModel, z) -> ComplexBox:
    with working_precision(m.precision):
        return _wp_theta(m, _reduce_argument(m, z), want_prime=True)[1]


# -- exp_E -------------------------------------------------------------------

def exp_E(m: EllipticModel, z) -> CurvePoint:
    """Covering map z -> [wp(z) : wp'(z) : 1], with [0:1:0] at lattice
    points.  An exact argument is reduced exactly, so a lattice point maps
    to [0:1:0]; any other point maps to the theta quotient, whose sums gain
    the bits that keep theta1(v) certified nonzero however near the lattice
    the point lies, exact or boxed.  A box that overlaps the lattice raises
    UndecidablePoleProximity, and one whose theta1(v) enclosure still meets
    zero PrecisionExhausted; raising the precision recovers the point."""
    with working_precision(m.precision):
        try:
            t_red = _reduce_argument(m, z)
        except PoleAtLatticePoint:
            return identity_point()
        p, pp = _wp_theta(m, t_red, want_prime=True)
        return CurvePoint(p, pp, ComplexBox(1))


# -- group law ---------------------------------------------------------------

def curve_neg(p: CurvePoint) -> CurvePoint:
    return CurvePoint(p.X, -p.Y, p.Z)


def _chord_result(x1, y1, x2, slope) -> CurvePoint:
    x3 = slope * slope * Fraction(1, 4) - x1 - x2
    y3 = -(slope * (x3 - x1) + y1)
    return CurvePoint(x3, y3, ComplexBox(1))


def _is_affine(p: CurvePoint) -> bool:
    """Whether Z is exactly 1 (False when it is exactly 0); any other Z
    raises ValueError."""
    re, im = p.Z.re._mpi_, p.Z.im._mpi_
    if im == _EXACT_ZERO:
        if re == _EXACT_ONE:
            return True
        if re == _EXACT_ZERO:
            return False
    raise ValueError("curve point with Z neither exactly 0 nor exactly 1")


def curve_add(m: EllipticModel, p: CurvePoint, q: CurvePoint) -> CurvePoint:
    """Group law on Y^2 Z = 4X^3 - g2 X Z^2 - g3 Z^3, on the identity and
    affine points (ValueError for any other Z).  Equal/opposite operand
    pairs are recognized structurally (identical or exactly negated boxes);
    an overlap that is neither structural nor certifiably distinct raises
    IndistinguishableBranch rather than guessing the branch."""
    p_affine, q_affine = _is_affine(p), _is_affine(q)
    if not p_affine:
        return q
    if not q_affine:
        return p
    with working_precision(m.precision):
        x1, y1, x2, y2 = p.X, p.Y, q.X, q.Y
        same = _box_eq(x1, x2) and _box_eq(y1, y2)
        opposite = _box_eq(x1, x2) and _box_eq(y1, -y2)
        if same:
            if y1.contains_zero():
                if y1.is_exact():
                    return identity_point()  # exact 2-torsion doubles to O
                raise IndistinguishableBranch(
                    "doubling a point whose Y encloses zero"
                )
            slope = (12 * x1 * x1 - m.g2) / (2 * y1)
            return _chord_result(x1, y1, x1, slope)
        if opposite:
            return identity_point()
        dx = x2 - x1
        if dx.contains_zero():
            raise IndistinguishableBranch(
                "operands not certifiably distinct in X at this radius"
            )
        slope = (y2 - y1) / dx
        return _chord_result(x1, y1, x2, slope)


def curve_smul(m: EllipticModel, n: int, p: CurvePoint) -> CurvePoint:
    if n < 0:
        return curve_smul(m, -n, curve_neg(p))
    acc = identity_point()
    addend = p
    while n:
        if n & 1:
            acc = curve_add(m, acc, addend)
        n >>= 1
        if n:
            addend = curve_add(m, addend, addend)
    return acc


def point_defect(m: EllipticModel, p: CurvePoint, q: CurvePoint) -> mpf:
    """Certified bound on the projective distance between two points, via
    normalized cross products of coordinates."""
    with working_precision(m.precision):
        scale_p = max(p.X.abs_hi(), p.Y.abs_hi(), p.Z.abs_hi())
        scale_q = max(q.X.abs_hi(), q.Y.abs_hi(), q.Z.abs_hi())
        if scale_p == 0 or scale_q == 0:
            raise ValueError("projectively invalid point")
        norm = iv.mpf(scale_p) * iv.mpf(scale_q)
        crosses = (
            p.X * q.Y - p.Y * q.X,
            p.X * q.Z - p.Z * q.X,
            p.Y * q.Z - p.Z * q.Y,
        )
        return max(ri_hi(iv.mpf(c.abs_hi()) / norm) for c in crosses)


# -- residual verification ---------------------------------------------------

def ode_residual(m: EllipticModel, z) -> Residual:
    """|wp'(z)^2 - 4 wp(z)^3 + g2 wp(z) + g3|, certified."""
    with working_precision(m.precision):
        p, pp = _wp_theta(m, _reduce_argument(m, z), want_prime=True)
        defect = pp * pp - (4 * p.pow_int(3) - m.g2 * p - m.g3)
        return Residual(defect.abs_hi(), "ode")


def homogeneity_residual(m: EllipticModel, alpha, z) -> Residual:
    """wp_{alpha*Lambda}(z) = alpha^-2 * wp_Lambda(z/alpha), certified."""
    with working_precision(m.precision):
        a = as_box(alpha)
        scaled = make_lattice(m.lattice.omega1_box() * a,
                              m.lattice.omega2_box() * a)
        ms = invariants(scaled, m.precision)
        zb = as_box(z)
        lhs = wp(ms, zb)
        rhs = wp(m, zb / a) / (a * a)
        return Residual((lhs - rhs).abs_hi(), "homogeneity")


def schwarz_residual(m: EllipticModel, z) -> Residual:
    """wp_{conj(Lambda)}(conj(z)) = conj(wp_Lambda(z)), certified."""
    with working_precision(m.precision):
        mc = invariants(conjugate(m.lattice), m.precision)
        zb = as_box(z)
        lhs = wp(mc, zb.conj())
        rhs = wp(m, zb).conj()
        return Residual((lhs - rhs).abs_hi(), "schwarz")


def addition_residual(m: EllipticModel, z1, z2) -> Residual:
    """exp_E(z1 + z2) = exp_E(z1) + exp_E(z2) under the curve group law."""
    with working_precision(m.precision):
        exactish = (int, Fraction, QuadNum)
        if isinstance(z1, exactish) and isinstance(z2, exactish):
            zsum = z1 + z2
        else:
            zsum = as_box(z1) + as_box(z2)
        lhs = exp_E(m, zsum)
        p1, p2 = exp_E(m, z1), exp_E(m, z2)
        if lhs.is_identity():
            # P1 + P2 = O reduces to the inverse identity P2 = -P1
            return Residual(point_defect(m, curve_neg(p1), p2), "addition")
        rhs = curve_add(m, p1, p2)
        return Residual(point_defect(m, lhs, rhs), "addition")


def isogeny_residual(m: EllipticModel, l2: Lattice, alpha, z) -> Residual:
    """Well-definedness of the isogeny induced by the scalar alpha with
    alpha*Lambda(l2) inside the model's lattice, the direction is_isogenous
    certifies: w -> exp_E(alpha*w) must be Lambda(l2)-periodic.  A sample
    the model cannot evaluate raises its PrecisionError."""
    with working_precision(m.precision):
        a = as_box(alpha)
        zb = as_box(z)
        w1, w2 = l2.omega1_box(), l2.omega2_box()
        base = exp_E(m, a * zb)
        worst = mpf(0)
        for lam in (w1, w2, w1 + w2):
            worst = max(worst, point_defect(m, base, exp_E(m, a * (zb + lam))))
        return Residual(worst, "isogeny:alpha")
