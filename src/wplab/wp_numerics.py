"""Certified arbitrary-precision evaluation attached to a lattice: the curve
invariants g2, g3, the doubly periodic functions wp and wp', the covering map
exp_E, the projective group law for Y^2 Z = 4X^3 - g2 X Z^2 - g3 Z^3, and
residual verification of the functional identities (differential equation,
homogeneity, conjugation symmetry, addition, isogeny functoriality).

Everything is computed in rectangle interval arithmetic; every returned bound
is an enclosure, never an estimate.  Jacobi theta series give g2, g3 and the
discriminant (from the theta constants, computed once per model) and wp, wp'
(as theta quotients); their geometric tail bounds are folded into the result's
radius, so the reported radius is sound by construction.  The quotients stay
certified close to the lattice, wherever the enclosure of theta1(v) excludes
zero, so exp_E uses them at every point off the lattice; nearer than that the
working precision is too low, and raising it recovers the point.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from fractions import Fraction
from typing import Optional

from mpmath import iv, mp, mpf

from .cintervals import (
    ComplexBox,
    exp_2pi_i,
    quadnum_box,
    ri,
    ri_hi,
    ri_lo,
    working_precision,
)
from .errors import (
    IndistinguishableBranch,
    PoleAtLatticePoint,
    PrecisionExhausted,
    UndecidablePoleProximity,
)
from .lattice_core import Lattice, conjugate, make_lattice
from .quadfield import QuadNum

SERIES_CAP = 1 << 16


def _as_box(z) -> ComplexBox:
    if isinstance(z, ComplexBox):
        return z
    if isinstance(z, QuadNum):
        return quadnum_box(z)
    if isinstance(z, complex):
        return ComplexBox.from_complex(z)
    if isinstance(z, (int, Fraction)):
        return ComplexBox(ri(z))
    raise TypeError(f"cannot interpret {z!r} as a complex argument")


@dataclass(frozen=True)
class EllipticModel:
    """Lattice plus its certified curve invariants at a working precision."""

    lattice: Lattice
    g2: ComplexBox
    g3: ComplexBox
    precision: int
    _tau: ComplexBox = field(repr=False, default=None)
    _omega1: ComplexBox = field(repr=False, default=None)
    _q4: ComplexBox = field(repr=False, default=None)  # q^(1/4), q = e^(i pi tau)
    _theta: tuple = field(repr=False, default=None)  # theta2..theta4 at 0
    _pi_w1: ComplexBox = field(repr=False, default=None)


@dataclass(frozen=True)
class CurvePoint:
    """Projective point [X : Y : Z] with boxed coordinates."""

    X: ComplexBox
    Y: ComplexBox
    Z: ComplexBox

    def is_identity(self) -> bool:
        z = self.Z
        return z.is_exact() and ri_lo(z.re) == 0 and ri_lo(z.im) == 0

    def affine(self):
        return self.X / self.Z, self.Y / self.Z


def identity_point() -> CurvePoint:
    return CurvePoint(ComplexBox(0), ComplexBox(1), ComplexBox(0))


@dataclass(frozen=True)
class Residual:
    """Certified upper bound on an identity's defect."""

    value: mpf
    identity_tag: str


def _box_eq(a: ComplexBox, b: ComplexBox) -> bool:
    return (
        ri_lo(a.re) == ri_lo(b.re)
        and ri_hi(a.re) == ri_hi(b.re)
        and ri_lo(a.im) == ri_lo(b.im)
        and ri_hi(a.im) == ri_hi(b.im)
    )


# -- Jacobi theta series ------------------------------------------------------
# With nome q = e^(i pi tau), q^(1/4) = e^(i pi tau/4), w = e^(iv) and
# T(k, +-) = q^(k^2/4) w^(+-k) (DLMF 20.2):
#   theta1(v) = -i sum_{k odd} (-1)^((k-1)/2) (T(k,+) - T(k,-))
#   theta2(v) =    sum_{k odd} (T(k,+) + T(k,-))
#   theta3(v) = 1 + sum_{k even} (T(k,+) + T(k,-))
#   theta4(v) = 1 + sum_{k even} (-1)^(k/2) (T(k,+) + T(k,-))

def _pick_terms(q4_hi: mpf, w_max: mpf) -> int:
    """Least N with N^2 b - 2 N c >= iv.prec + 48, where b = -log2|q| and
    c = log2 max(|w|, 1/|w|): the terms q^(n^2) w^(+-2n) with n >= N are
    below 2^-(prec+48), so the series stop before k = 2N."""
    b = -4 * mp.log(q4_hi, 2)
    if not b > 0:
        raise PrecisionExhausted("|q| too close to 1")
    c = mp.log(w_max, 2)
    n = max(1, int(mp.ceil((c + mp.sqrt(c * c + b * (iv.prec + 48))) / b)))
    if n > SERIES_CAP:
        raise PrecisionExhausted(f"series length {n} exceeds cap {SERIES_CAP}")
    return n


def _theta_sums(q4: ComplexBox, w: ComplexBox):
    """(theta1, theta2, theta3, theta4) at v, for w = e^(iv) and the nome
    q4^4, with the tail past the last term folded into each radius."""
    wi = w.inv()
    w_max = max(w.abs_hi(), wi.abs_hi())
    q4_hi = q4.abs_hi()
    n = _pick_terms(q4_hi, w_max)

    q4sq = q4 * q4
    up, dn = q4 * w, q4 * wi        # q4^(2k+1) w^(+-1), advanced by q4^2
    tp, tm = up, dn                 # T(k, +), T(k, -) at k = 1
    th1 = th2 = ComplexBox(0)
    th3 = th4 = ComplexBox(1)
    for k in range(1, 2 * n):
        if k > 1:
            up, dn = up * q4sq, dn * q4sq
            tp, tm = tp * up, tm * dn
        s = tp + tm
        if k & 1:
            th2 = th2 + s
            th1 = th1 - (tp - tm) if k & 2 else th1 + (tp - tm)
        else:
            th3 = th3 + s
            th4 = th4 - s if k & 2 else th4 + s

    # the tail from k = 2n on: each parity is dominated by a geometric series
    # from its first term, of ratio |q|^(2n+1) max(|w|, 1/|w|)^2
    qh, wm = iv.mpf(q4_hi), iv.mpf(w_max)
    first = (qh ** (4 * n * n) * wm ** (2 * n)
             + qh ** ((2 * n + 1) ** 2) * wm ** (2 * n + 1))
    ratio = qh ** (4 * (2 * n + 1)) * wm * wm
    if not ri_hi(ratio) < 1:
        raise PrecisionExhausted("series tail ratio not certified below 1")
    tail = ri_hi(2 * first / (1 - ratio))
    th1 = ComplexBox(0, -1) * th1
    return tuple(t.widened(tail) for t in (th1, th2, th3, th4))


def invariants(lattice: Lattice, precision: int = 128) -> EllipticModel:
    """Certified g2, g3 of the lattice from the theta constants.  The
    relative error radius meets 2^(-precision+8); the discriminant
    16 (pi/omega1)^12 (theta2 theta3 theta4)^8 is certified nonzero."""
    if precision < 53:
        raise ValueError("precision must be at least 53 bits")
    with working_precision(precision):
        m = model_with(lattice, None, None, precision)
        (t2, t3, t4), s = m._theta, m._pi_w1
        p2, p3, p4 = (t.pow_int(4) for t in (t2, t3, t4))
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
                    f"{mp.nstr(rad, 5)}, needed {mp.nstr(tol, 5)}")
        disc = 16 * (s4 * s2).pow_int(2) * (t2 * t3 * t4).pow_int(8)
        if disc.contains_zero():
            raise PrecisionExhausted("discriminant not certified nonzero")
        return replace(m, g2=g2, g3=g3)


def model_with(lattice: Lattice, g2: ComplexBox, g3: ComplexBox,
               precision: int) -> EllipticModel:
    """Model with caller-supplied invariants (negative-control harnesses),
    holding the theta constants that invariants() derives g2, g3 from."""
    with working_precision(precision):
        tau = lattice.tau_box()
        w1 = lattice.omega1_box()
        q4 = exp_2pi_i(tau * Fraction(1, 8))
        _, t2, t3, t4 = _theta_sums(q4, ComplexBox(1))
        return EllipticModel(lattice, g2, g3, precision, tau, w1, q4,
                             (t2, t3, t4), ComplexBox(iv.pi) / w1)


# -- argument reduction ------------------------------------------------------

def _lattice_coords(m: EllipticModel, z: ComplexBox):
    """Coordinates (x, y) with z = (x + y*tau) * omega1, as intervals."""
    t = z / m._omega1
    y = t.im / m._tau.im
    x = t.re - y * m._tau.re
    return x, y


def _exact_pole(lattice: Lattice, z) -> Optional[bool]:
    """True if an exact argument is exactly a lattice point, False if the
    exactness test applies and rules it out, None when not applicable."""
    if not lattice.exact:
        return None
    if isinstance(z, (int, Fraction)):
        z = QuadNum.rational(z, lattice.tau.d)
    if not isinstance(z, QuadNum):
        return None
    try:
        t = z / lattice.omega1
    except ValueError:
        return None
    tau = lattice.tau
    y = t.q / tau.q
    x = t.p - y * tau.p
    return x.denominator == 1 and y.denominator == 1


def _reduce_argument(m: EllipticModel, z_raw):
    """Translate z by a lattice vector into the centered cell; returns the
    reduced lattice coordinates (intervals) and the reduced z/omega1."""
    z = _as_box(z_raw)
    x, y = _lattice_coords(m, z)
    nx = int(mp.nint(mp.mpf(x.mid)))
    ny = int(mp.nint(mp.mpf(y.mid)))
    xr = x - nx
    yr = y - ny
    t_red = ComplexBox(xr) + ComplexBox(yr) * m._tau
    on_pole = ri_lo(xr) <= 0 <= ri_hi(xr) and ri_lo(yr) <= 0 <= ri_hi(yr)
    if on_pole:
        exact = _exact_pole(m.lattice, z_raw)
        if exact:
            raise PoleAtLatticePoint("argument lies on the lattice")
        if exact is None or not _as_box(z_raw).is_exact():
            raise UndecidablePoleProximity(
                "argument enclosure overlaps a lattice point"
            )
        # exact argument certified off the lattice but enclosure touches it
        raise UndecidablePoleProximity(
            "exact argument too close to a lattice point at this precision"
        )
    return xr, yr, t_red


# -- wp and wp' --------------------------------------------------------------

def _wp_theta(m: EllipticModel, t_red: ComplexBox, want_prime: bool):
    """wp (and optionally wp') at reduced argument t_red = z/omega1:
    wp  = s^2 ((t2 t3 theta4(v) / theta1(v))^2 - (t2^4 + t3^4)/3),
    wp' = -2 s^3 (t2 t3 t4)^2 theta2(v) theta3(v) theta4(v) / theta1(v)^3,
    with s = pi/omega1, v = pi*t_red and t2, t3, t4 the theta constants."""
    w = exp_2pi_i(t_red * Fraction(1, 2))
    th1, th2, th3, th4 = _theta_sums(m._q4, w)
    t2, t3, t4 = m._theta
    s = m._pi_w1
    r = th1.inv()
    g = th4 * r
    a = t2 * t3
    f = a * g
    s2 = s * s
    wp_val = s2 * (f * f - (t2.pow_int(4) + t3.pow_int(4)) * Fraction(1, 3))
    if not want_prime:
        return wp_val, None
    c = a * t4
    wp_prime_val = -2 * s2 * s * c * c * g * th2 * th3 * r * r
    return wp_val, wp_prime_val


def wp(m: EllipticModel, z) -> ComplexBox:
    """Certified enclosure of the wp-function at z (reduced modulo the
    lattice first)."""
    with working_precision(m.precision):
        _, _, t_red = _reduce_argument(m, z)
        val, _ = _wp_theta(m, t_red, want_prime=False)
        return val


def wp_prime(m: EllipticModel, z) -> ComplexBox:
    with working_precision(m.precision):
        _, _, t_red = _reduce_argument(m, z)
        _, val = _wp_theta(m, t_red, want_prime=True)
        return val


# -- exp_E -------------------------------------------------------------------

def _exp_direct(m: EllipticModel, t_red: ComplexBox) -> CurvePoint:
    p, pp = _wp_theta(m, t_red, want_prime=True)
    return CurvePoint(p, pp, ComplexBox(1))


def exp_E(m: EllipticModel, z) -> CurvePoint:
    """Covering map z -> [wp(z) : wp'(z) : 1], with [0:1:0] at certified
    lattice points.  Near a pole the theta quotient holds as long as
    theta1(v) is certified nonzero; otherwise PrecisionExhausted (or
    UndecidablePoleProximity when z overlaps the lattice) asks for more
    precision."""
    with working_precision(m.precision):
        try:
            _, _, t_red = _reduce_argument(m, z)
        except PoleAtLatticePoint:
            return identity_point()
        return _exp_direct(m, t_red)


# -- group law ---------------------------------------------------------------

def curve_neg(p: CurvePoint) -> CurvePoint:
    return CurvePoint(p.X, -p.Y, p.Z)


def _chord_result(m, x1, y1, x2, y2, slope) -> CurvePoint:
    x3 = slope * slope * Fraction(1, 4) - x1 - x2
    y3 = -(slope * (x3 - x1) + y1)
    return CurvePoint(x3, y3, ComplexBox(1))


def curve_add(m: EllipticModel, p: CurvePoint, q: CurvePoint) -> CurvePoint:
    """Group law on Y^2 Z = 4X^3 - g2 X Z^2 - g3 Z^3.  Equal/opposite operand
    pairs are recognized structurally (identical or exactly negated boxes);
    an overlap that is neither structural nor certifiably distinct raises
    IndistinguishableBranch rather than guessing the branch."""
    with working_precision(m.precision):
        if p.is_identity():
            return q
        if q.is_identity():
            return p
        x1, y1 = p.affine()
        x2, y2 = q.affine()
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
            return _chord_result(m, x1, y1, x1, y1, slope)
        if opposite:
            return identity_point()
        dx = x2 - x1
        if dx.contains_zero():
            raise IndistinguishableBranch(
                "operands not certifiably distinct in X at this radius"
            )
        slope = (y2 - y1) / dx
        return _chord_result(m, x1, y1, x2, y2, slope)


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


def on_curve_defect(m: EllipticModel, p: CurvePoint) -> mpf:
    """Certified bound on |Y^2 Z - 4X^3 + g2 X Z^2 + g3 Z^3|, normalized."""
    with working_precision(m.precision):
        x, y, z = p.X, p.Y, p.Z
        lhs = y * y * z
        rhs = 4 * x.pow_int(3) - m.g2 * x * z * z - m.g3 * z.pow_int(3)
        scale = max(mpf(1), lhs.abs_hi(), rhs.abs_hi())
        return (lhs - rhs).abs_hi() / scale


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
        _, _, t_red = _reduce_argument(m, z)
        p, pp = _wp_theta(m, t_red, want_prime=True)
        defect = pp * pp - (4 * p.pow_int(3) - m.g2 * p - m.g3)
        return Residual(defect.abs_hi(), "ode")


def homogeneity_residual(m: EllipticModel, alpha, z) -> Residual:
    """wp_{alpha*Lambda}(z) = alpha^-2 * wp_Lambda(z/alpha), certified."""
    with working_precision(m.precision):
        a = _as_box(alpha)
        scaled = make_lattice(m.lattice.omega1_box() * a,
                              m.lattice.omega2_box() * a)
        ms = invariants(scaled, m.precision)
        zb = _as_box(z)
        lhs = wp(ms, zb)
        rhs = wp(m, zb / a) / (a * a)
        return Residual((lhs - rhs).abs_hi(), "homogeneity")


def schwarz_residual(m: EllipticModel, z) -> Residual:
    """wp_{conj(Lambda)}(conj(z)) = conj(wp_Lambda(z)), certified."""
    with working_precision(m.precision):
        mc = invariants(conjugate(m.lattice), m.precision)
        zb = _as_box(z)
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
            zsum = _as_box(z1) + _as_box(z2)
        lhs = exp_E(m, zsum)
        p1, p2 = exp_E(m, z1), exp_E(m, z2)
        if lhs.is_identity():
            # P1 + P2 = O reduces to the inverse identity P2 = -P1
            return Residual(point_defect(m, curve_neg(p1), p2), "addition")
        rhs = curve_add(m, p1, p2)
        return Residual(point_defect(m, lhs, rhs), "addition")


def isogeny_residual(m: EllipticModel, l2: Lattice, alpha, z) -> Residual:
    """Well-definedness of the isogeny induced by a scalar alpha with
    alpha*Lambda(l2) inside the model's lattice: the map w -> exp_E(c*w) must
    be Lambda(l2)-periodic for c = alpha; the inverse convention c = 1/alpha
    is tried as well and the certified direction is reported in the tag."""
    with working_precision(m.precision):
        a = _as_box(alpha)
        zb = _as_box(z)
        w1, w2 = l2.omega1_box(), l2.omega2_box()
        results = []
        for tag, c in (("isogeny:alpha", a), ("isogeny:alpha_inverse",
                                              ComplexBox(1) / a)):
            try:
                base = exp_E(m, c * zb)
                worst = mpf(0)
                for lam in (w1, w2, w1 + w2):
                    shifted = exp_E(m, c * (zb + lam))
                    worst = max(worst, point_defect(m, base, shifted))
                results.append(Residual(worst, tag))
            except (PrecisionExhausted, UndecidablePoleProximity):
                continue
        if not results:
            raise PrecisionExhausted("neither alpha direction certified")
        return min(results, key=lambda r: r.value)
