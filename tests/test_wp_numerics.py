"""Weierstrass machinery against oracles coded apart from the engine.

The package computes the theta constants, g2, g3, wp and wp' from Jacobi
theta series with certified tails.  Three oracles check it:
- the literal double sum over lattice points, truncated at a radius with a
  crude float tail estimate (low precision, but independent);
- mpmath's Jacobi theta functions at twice the working precision, plus the
  bits jtheta loses to a large |e^(iv)|;
- the certified q-series the theta layer replaced (Eisenstein series for
  g2, g3 and the Lambert-type series for wp, wp'), kept here verbatim so
  that every theta enclosure can be checked to overlap its enclosure.
The anchored group-law route exp_E used to take near the lattice is kept
verbatim as well, with the boxed argument reduction it ran on: wherever it
answers, the theta quotient must answer with a box inside the same
neighbourhood and no wider.  So are the interval theta
sums the fixed-point kernel replaced: every kernel box must overlap theirs,
be no wider and hold mpmath's jtheta value.  So is the ComplexBox wp and wp'
quotient the kernel quotient replaced: the kernel's boxes must overlap its
boxes, hold the jtheta values and be no wider but for a few kernel ulps.
And so is the group law that divided X and Y by Z: on exp_E points the
affine one must give its boxes endpoint for endpoint.
"""

import cmath
import re
from fractions import Fraction
from types import SimpleNamespace

import mpmath
import pytest
from hypothesis import assume, example, given, settings, strategies as st
from mpmath import iv, mp, mpf
from mpmath.libmp import (
    finf,
    fnan,
    fninf,
    from_man_exp,
    fzero,
    round_ceiling,
    round_floor,
)

from wplab.cintervals import (
    ComplexBox,
    as_box,
    exp_2pi_i,
    quadnum_box,
    ri,
    ri_from_endpoints,
    ri_hi,
    ri_lo,
    working_precision,
)
from wplab.cli import lattice_from_tau, parse_value, run
from wplab.errors import (
    IndistinguishableBranch,
    PoleAtLatticePoint,
    PrecisionError,
    PrecisionExhausted,
    UndecidablePoleProximity,
    WplabError,
)
from wplab.lattice_core import is_isogenous, make_lattice
from wplab.quadfield import QuadNum
from wplab import wp_numerics
from wplab.wp_numerics import (
    SERIES_CAP,
    CurvePoint,
    _bits_below,
    _leave,
    _reduce_argument,
    _theta_constants,
    _theta_sums,
    _wp_theta,
    addition_residual,
    curve_add,
    curve_neg,
    curve_smul,
    exp_E,
    identity_point,
    invariants,
    isogeny_residual,
    model_with,
    ode_residual,
    point_defect,
    wp,
    wp_prime,
)

from boxes import abs_lo, widened

SQUARE = make_lattice(QuadNum(1, 0, -1), QuadNum(0, 1, -1))


def _lattice_points(w1: complex, w2: complex, radius: int):
    for m in range(-radius, radius + 1):
        for n in range(-radius, radius + 1):
            if m or n:
                yield m * w1 + n * w2


def oracle_invariants(w1: complex, w2: complex, radius=60):
    g2 = 60 * sum(lam ** -4 for lam in _lattice_points(w1, w2, radius))
    g3 = 140 * sum(lam ** -6 for lam in _lattice_points(w1, w2, radius))
    return g2, g3


def oracle_wp(z: complex, w1: complex, w2: complex, radius=60):
    out = 1 / z ** 2
    for lam in _lattice_points(w1, w2, radius):
        out += 1 / (z - lam) ** 2 - 1 / lam ** 2
    return out


@pytest.fixture(scope="module")
def model():
    return invariants(SQUARE, 128)


def test_invariants_against_lattice_sum(model):
    g2_ref, g3_ref = oracle_invariants(1, 1j, radius=150)
    assert abs(complex(model.g2.mid()) - g2_ref) < 1e-3
    assert abs(complex(model.g3.mid()) - g3_ref) < 1e-3
    assert model.g3.contains_zero()


def test_invariants_rectangular_oracle():
    lat = make_lattice(QuadNum(1, 0, -1), QuadNum(0, 2, -1))
    m = invariants(lat, 128)
    g2_ref, g3_ref = oracle_invariants(1, 2j, radius=150)
    assert abs(complex(m.g2.mid()) - g2_ref) < 1e-3
    assert abs(complex(m.g3.mid()) - g3_ref) < 1e-3


def test_wp_against_lattice_sum(model):
    for z in (0.31 + 0.42j, 0.5, 0.27j + 0.11):
        val = wp(model, as_box(complex(z)))
        ref = oracle_wp(complex(z), 1, 1j)
        assert abs(complex(val.mid()) - ref) < 1e-3


def test_wp_evenness_and_periodicity(model):
    with working_precision(128):
        z = ComplexBox(Fraction(3, 10), Fraction(2, 5))
        a = wp(model, z)
        b = wp(model, -z)
        assert (a - b).contains_zero()
        c = wp(model, z + ComplexBox(1))
        assert (a - c).contains_zero()


def test_wp_prime_odd_and_half_period(model):
    with working_precision(128):
        z = ComplexBox(Fraction(1, 5), Fraction(1, 3))
        assert (wp_prime(model, z) + wp_prime(model, -z)).contains_zero()
        half = wp_prime(model, Fraction(1, 2))
        assert half.contains_zero()


def test_pole_handling(model):
    with pytest.raises(PoleAtLatticePoint):
        wp(model, Fraction(0))
    with pytest.raises(PoleAtLatticePoint):
        wp(model, QuadNum(1, 2, -1))
    with pytest.raises(UndecidablePoleProximity):
        with working_precision(128):
            wp(model, ComplexBox(ri_from_endpoints("-1e-33", "1e-33")))


def test_ode_residual_and_negative_control(model):
    r = ode_residual(model, 0.31 + 0.4j)
    assert r.value <= mp.ldexp(1, -100)
    bad = model_with(SQUARE, model.g2,
                     model.g3 + ComplexBox(Fraction(1, 10 ** 5)), 128)
    assert ode_residual(bad, 0.31 + 0.4j).value >= 1e-6


def on_curve_defect(m, p: CurvePoint):
    """Certified bound on |Y^2 Z - 4X^3 + g2 X Z^2 + g3 Z^3|, normalized."""
    with working_precision(m.precision):
        x, y, z = p.X, p.Y, p.Z
        lhs = y * y * z
        rhs = 4 * x.pow_int(3) - m.g2 * x * z * z - m.g3 * z.pow_int(3)
        scale = max(mpf(1), lhs.abs_hi(), rhs.abs_hi())
        return (lhs - rhs).abs_hi() / scale


def test_exp_E_on_curve_and_group_law(model):
    with working_precision(128):
        p = exp_E(model, Fraction(3, 10))
        q = exp_E(model, Fraction(1, 5))
        assert on_curve_defect(model, p) <= mp.ldexp(1, -100)
        s = curve_add(model, p, q)
        direct = exp_E(model, Fraction(1, 2))
        assert point_defect(model, s, direct) <= mp.ldexp(1, -90)


def test_smul_matches_exp(model):
    with working_precision(128):
        p = exp_E(model, Fraction(1, 7))
        m3 = curve_smul(model, 3, p)
        direct = exp_E(model, Fraction(3, 7))
        assert point_defect(model, m3, direct) <= mp.ldexp(1, -90)
        assert curve_smul(model, 0, p).is_identity()
        neg = curve_smul(model, -1, p)
        assert point_defect(model, neg, curve_neg(p)) <= mp.ldexp(1, -90)


def test_exp_identity_and_inverse(model):
    with working_precision(128):
        assert exp_E(model, 0).is_identity()
        r = addition_residual(model, Fraction(2, 7), Fraction(-2, 7))
        assert r.value <= mp.ldexp(1, -100)


def test_exp_E_auto_near_pole(model):
    with working_precision(128):
        z = ComplexBox(Fraction(1, 2 ** 40), Fraction(1, 2 ** 40))
        p = exp_E(model, z)
        assert on_curve_defect(model, p) <= mp.ldexp(1, -80)


def _same_endpoints(a: ComplexBox, b: ComplexBox) -> bool:
    return a.re._mpi_ == b.re._mpi_ and a.im._mpi_ == b.im._mpi_


def test_exact_argument_is_reduced_exactly():
    """A lattice vector added to an exact argument changes no endpoint of
    wp, wp' or exp_E: only the exactly reduced value is boxed."""
    w1 = QuadNum.rational(Fraction(3, 2), -1)
    tau = QuadNum(Fraction(1, 4), Fraction(3, 2), -1)
    m = invariants(make_lattice(w1, w1 * tau), 128)
    z = (Fraction(3, 7) + Fraction(2, 5) * tau) * w1
    for n1, n2 in ((5, -3), (-40, 17), (1000, 1)):
        shifted = z + (n1 + n2 * tau) * w1
        assert _same_endpoints(wp(m, shifted), wp(m, z))
        assert _same_endpoints(wp_prime(m, shifted), wp_prime(m, z))
        p, q = exp_E(m, shifted), exp_E(m, z)
        assert _same_endpoints(p.X, q.X) and _same_endpoints(p.Y, q.Y)
    assert exp_E(m, (7 - 3 * tau) * w1).is_identity()


@pytest.mark.parametrize("bits", [128, 256, 512])
def test_exact_points_next_to_the_lattice_answer(bits):
    """z = (1 - 2i) 10^-158 + omega1 + 2 omega2: the theta sums run with the
    bits t_red lies below 2^-16 added, so exp_E holds wp = z^-2 + O(z^2) and
    wp' = -2 z^-3 + O(z) to nearly the working precision."""
    w1 = QuadNum.rational(Fraction(3, 2), -1)
    tau = QuadNum(Fraction(1, 4), Fraction(3, 2), -1)
    m = invariants(make_lattice(w1, w1 * tau), bits)
    offset = QuadNum(Fraction(1, 10 ** 158), Fraction(-2, 10 ** 158), -1)
    p = exp_E(m, offset + (1 + 2 * tau) * w1)
    assert _is_affine(p)
    with mp.workprec(4 * bits):
        v = _mpc(offset)
        refs = (v ** -2, -2 * v ** -3)
        slack = mp.mpf(10) ** -300  # bounds the O(z^2) and O(z) terms
        for box, ref in zip((p.X, p.Y), refs):
            assert _box_holds(widened(box, slack), ref)
            assert box.rad() <= mp.ldexp(abs(ref), -(bits - 8))


@pytest.mark.parametrize("bits", [128, 256])
def test_boxed_points_next_to_the_lattice_answer(bits):
    """At tau = i, the boxed decimal z = (1 + i) 10^-37 gains the theta bits
    an exact argument gains: wp(z) has a relative radius below 2^-bits and
    overlaps wp at the exact (1 + i)/10^37."""
    m = invariants(SQUARE, bits)
    digits = "0." + "0" * 36 + "1"
    val = wp(m, parse_value(f"{digits}+{digits}i", bits))
    exact = wp(m, QuadNum(Fraction(1, 10 ** 37), Fraction(1, 10 ** 37), -1))
    with working_precision(bits):
        assert val.rad() <= mp.ldexp(abs_lo(val), -bits)
        assert val.overlaps(exact)


# -- the group law against the one that divided by Z --------------------------

def _box_eq_oracle(a: ComplexBox, b: ComplexBox) -> bool:
    return (
        ri_lo(a.re) == ri_lo(b.re)
        and ri_hi(a.re) == ri_hi(b.re)
        and ri_lo(a.im) == ri_lo(b.im)
        and ri_hi(a.im) == ri_hi(b.im)
    )


def _is_identity_oracle(p) -> bool:
    z = p.Z
    return z.is_exact() and ri_lo(z.re) == 0 and ri_lo(z.im) == 0


def _chord_oracle(x1, y1, x2, slope):
    x3 = slope * slope * Fraction(1, 4) - x1 - x2
    y3 = -(slope * (x3 - x1) + y1)
    return CurvePoint(x3, y3, ComplexBox(1))


def curve_add_oracle(m, p, q):
    """The group law as it was on projective points: X and Y divided by Z
    before the chord."""
    with working_precision(m.precision):
        if _is_identity_oracle(p):
            return q
        if _is_identity_oracle(q):
            return p
        x1, y1 = p.X / p.Z, p.Y / p.Z
        x2, y2 = q.X / q.Z, q.Y / q.Z
        same = _box_eq_oracle(x1, x2) and _box_eq_oracle(y1, y2)
        opposite = _box_eq_oracle(x1, x2) and _box_eq_oracle(y1, -y2)
        if same:
            if y1.contains_zero():
                if y1.is_exact():
                    return identity_point()
                raise IndistinguishableBranch(
                    "doubling a point whose Y encloses zero")
            slope = (12 * x1 * x1 - m.g2) / (2 * y1)
            return _chord_oracle(x1, y1, x1, slope)
        if opposite:
            return identity_point()
        dx = x2 - x1
        if dx.contains_zero():
            raise IndistinguishableBranch(
                "operands not certifiably distinct in X at this radius")
        return _chord_oracle(x1, y1, x2, (y2 - y1) / dx)


def curve_smul_oracle(m, n, p):
    if n < 0:
        return curve_smul_oracle(m, -n, curve_neg(p))
    acc, addend = identity_point(), p
    while n:
        if n & 1:
            acc = curve_add_oracle(m, acc, addend)
        n >>= 1
        if n:
            addend = curve_add_oracle(m, addend, addend)
    return acc


def _outcome(fn, *args):
    """The point's endpoint pairs, or the exception's type and message."""
    try:
        p = fn(*args)
    except WplabError as exc:
        return type(exc), str(exc)
    return tuple((c.re._mpi_, c.im._mpi_) for c in (p.X, p.Y, p.Z))


@pytest.mark.parametrize("bits", [128, 256, 512])
def test_affine_group_law_matches_the_projective_oracle(bits):
    """On exp_E points (identity, interior, near-pole, 2-torsion, exact and
    boxed, and their negatives) curve_add and curve_smul give the oracle's
    boxes endpoint for endpoint, in every pairing: sums, doublings and
    opposites."""
    w1 = QuadNum.rational(Fraction(3, 2), -1)
    tau = QuadNum(Fraction(1, 4), Fraction(3, 2), -1)
    m = invariants(make_lattice(w1, w1 * tau), bits)
    digits = "0." + "0" * 29 + "3"
    args = [
        0,
        (Fraction(3, 10) + Fraction(1, 5) * tau) * w1,
        parse_value("0.31+0.42i", bits),
        QuadNum(Fraction(1, 10 ** 30), Fraction(-2, 10 ** 30), -1) * w1,
        parse_value(f"{digits}+{digits}i", bits),
        w1 * Fraction(1, 2),
    ]
    points = [exp_E(m, z) for z in args]
    points += [curve_neg(p) for p in points]
    for p in points:
        for q in points:
            assert _outcome(curve_add, m, p, q) == _outcome(curve_add_oracle, m, p, q)
        for n in (-3, 0, 1, 2, 5):
            assert _outcome(curve_smul, m, n, p) == _outcome(curve_smul_oracle, m, n, p)


def test_curve_add_refuses_points_off_the_affine_chart(model):
    """A point whose Z is neither exactly 0 nor exactly 1 raises ValueError,
    in either operand and next to the identity too."""
    p = exp_E(model, Fraction(3, 10))
    with working_precision(128):
        scaled = CurvePoint(p.X * 2, p.Y * 2, ComplexBox(2))
        blurred = CurvePoint(p.X, p.Y, widened(ComplexBox(1), mp.ldexp(1, -100)))
    for bad in (scaled, blurred):
        for a, b in ((bad, p), (p, bad), (identity_point(), bad), (bad, identity_point())):
            with pytest.raises(ValueError):
                curve_add(model, a, b)


def test_two_torsion_doubling(model):
    with working_precision(128):
        half = exp_E(model, Fraction(1, 2))
        with pytest.raises(IndistinguishableBranch):
            # doubling a 2-torsion point needs the tangent at a ramification
            # point; the chord slope denominator vanishes
            curve_add(model, half, exp_E(model, ComplexBox(Fraction(1, 2))))
        assert curve_smul(model, 2, identity_point()).is_identity()


def test_hexagonal_g2_vanishes():
    hexa = make_lattice(QuadNum(1, 0, -3),
                        QuadNum(Fraction(1, 2), Fraction(1, 2), -3))
    m = invariants(hexa, 128)
    assert m.g2.contains_zero()
    g2_ref, g3_ref = oracle_invariants(1, cmath.exp(1j * cmath.pi / 3))
    assert abs(complex(m.g3.mid()) - g3_ref) < 1e-3


def theta_wp(tau: complex, z: complex, bits: int):
    """(wp(z), wp'(z)) for the lattice Z + Z*tau by Jacobi theta quotients:
    wp = pi^2 (t2^2 t3^2 (th4/th1)^2 - (t2^4 + t3^4)/3) at v = pi*z, at
    `bits` (twice the precision under test) plus 4 bits per bit of
    c = log2 max(|w|, 1/|w|), w = e^(iv), which jtheta loses to a large |w|."""
    c = int(abs(mp.im(mp.pi * z)) / mp.ln2) + 1
    with mp.workprec(bits + 4 * c):
        q = mp.exp(1j * mp.pi * tau)
        t2, t3 = mpmath.jtheta(2, 0, q), mpmath.jtheta(3, 0, q)
        v = mp.pi * z
        th1, th4 = mpmath.jtheta(1, v, q), mpmath.jtheta(4, v, q)
        th1d, th4d = mpmath.jtheta(1, v, q, 1), mpmath.jtheta(4, v, q, 1)
        a = t2 ** 2 * t3 ** 2
        f = th4 / th1
        fd = (th4d * th1 - th4 * th1d) / th1 ** 2
        wp_val = mp.pi ** 2 * (a * f ** 2 - (t2 ** 4 + t3 ** 4) / 3)
        return +wp_val, +(mp.pi ** 3 * 2 * a * f * fd)


def _box_holds(box: ComplexBox, z) -> bool:
    """z in the box, compared with the exact endpoints (no rounding to the
    mp precision, which may be below the box's)."""
    (re_lo, re_hi), (im_lo, im_hi) = (
        (mp.make_mpf(a), mp.make_mpf(b)) for a, b in (box.re._mpi_, box.im._mpi_))
    return re_lo <= z.real <= re_hi and im_lo <= z.imag <= im_hi


@pytest.mark.parametrize("tau_parts", [
    (Fraction(1, 5), Fraction(6, 5)),
    (Fraction(-1, 4), Fraction(3)),
    (Fraction(1, 3), Fraction(9)),
])
def test_series_against_theta_reference(tau_parts):
    bits = 256
    tau = QuadNum(tau_parts[0], tau_parts[1], -1)
    m = invariants(make_lattice(QuadNum(1, 0, -1), tau), bits)
    with mp.workprec(2 * bits):
        tau_c = mp.mpc(mp.mpf(tau.p.numerator) / tau.p.denominator,
                       mp.mpf(tau.q.numerator) / tau.q.denominator)
    for a, b in ((Fraction(31, 100), Fraction(27, 100)),
                 (Fraction(-1, 5), Fraction(41, 100)),
                 (Fraction(9, 20), Fraction(-1, 8))):
        z = QuadNum.rational(a, -1) + QuadNum.rational(b, -1) * tau
        with mp.workprec(2 * bits):
            z_c = mp.mpf(a.numerator) / a.denominator \
                + mp.mpf(b.numerator) / b.denominator * tau_c
        ref_p, ref_pp = theta_wp(tau_c, z_c, 2 * bits)
        for val, ref in ((wp(m, z), ref_p), (wp_prime(m, z), ref_pp)):
            assert _box_holds(val, ref)
            with working_precision(bits):
                tol = mp.ldexp(max(mp.mpf(1), val.abs_hi()), -(bits - 8))
                assert val.rad() <= tol


# -- the q-series layer the theta series replaced, kept as an oracle ----------

def _q_of(tau: ComplexBox) -> ComplexBox:
    q = exp_2pi_i(tau)
    if not ri_hi(q.abs_sq()) < 1:
        raise PrecisionExhausted("cannot certify |q| < 1 for this tau enclosure")
    return q


def _geom_tail(first_hi: mpf, ratio_hi: mpf) -> mpf:
    """Upper bound for a series dominated by first * ratio^j, j >= 0."""
    if not ratio_hi < 1:
        raise PrecisionExhausted("series tail ratio not certified below 1")
    one = iv.mpf(1)
    bound = iv.mpf(first_hi) / (one - iv.mpf(ratio_hi))
    return ri_hi(bound)


def _pick_terms(q_hi: mpf, extra_bits: int) -> int:
    decay = -mp.log(q_hi, 2)
    if decay <= 0:
        raise PrecisionExhausted("|q| too close to 1")
    n = int(mp.ceil((iv.prec + extra_bits) / decay)) + 4
    if n > SERIES_CAP:
        raise PrecisionExhausted(f"series length {n} exceeds cap {SERIES_CAP}")
    return n


def _eisenstein(q: ComplexBox, weight: int, n_terms: int):
    """sum_{n>=1} n^k q^n / (1 - q^n) for k = weight, with certified tail."""
    total = ComplexBox(0)
    qn = ComplexBox(1)
    for n in range(1, n_terms + 1):
        qn = qn * q
        total = total + n ** weight * qn / (1 - qn)
    q_hi = q.abs_hi()
    first = (iv.mpf(n_terms + 1) ** weight * iv.mpf(q_hi) ** (n_terms + 1)) / (
        1 - iv.mpf(q_hi)
    )
    ratio = iv.mpf(q_hi) * (iv.mpf(n_terms + 2) / iv.mpf(n_terms + 1)) ** weight
    tail = _geom_tail(ri_hi(first), ri_hi(ratio))
    return widened(total, tail)


def _pole_terms(w: ComplexBox, want_prime: bool):
    """w/(1-w)^2 and, if wanted, w(1+w)/(1-w)^3, from one reciprocal."""
    r = (1 - w).inv()
    p = w * r * r
    return p, (p * (1 + w) * r if want_prime else None)


def _wp_series(m, t_red: ComplexBox, want_prime: bool):
    """Scaled q-series for wp (and optionally wp') at reduced argument."""
    q = m._q
    u = exp_2pi_i(t_red)
    q_hi = q.abs_hi()
    u_hi = u.abs_hi()
    u_lo = abs_lo(u)
    if u_lo <= 0:
        raise PrecisionExhausted("argument enclosure too wide for the series")
    extra = 48 + max(0, int(mp.ceil(abs(mp.log(u_hi, 2)))) + int(
        mp.ceil(abs(mp.log(u_lo, 2)))))
    n_terms = _pick_terms(q_hi, extra)

    u_inv = u.inv()
    p_sum, pp_sum = _pole_terms(u, want_prime)
    p_sum = ComplexBox(Fraction(1, 12)) + p_sum
    corr = ComplexBox(0)
    qn = ComplexBox(1)
    for _ in range(n_terms):
        qn = qn * q
        pw, ppw = _pole_terms(qn * u, want_prime)
        pv, ppv = _pole_terms(qn * u_inv, want_prime)
        rq = (1 - qn).inv()
        p_sum = p_sum + pw + pv
        corr = corr + qn * rq * rq
        if want_prime:
            pp_sum = pp_sum + ppw - ppv
    p_sum = p_sum - 2 * corr

    # geometric tails: |q|^(n_terms+1) * max(|u|, 1/|u|) dominates both wings
    qN = iv.mpf(q_hi) ** (n_terms + 1)
    for lead in (iv.mpf(u_hi), 1 / iv.mpf(u_lo)):
        a = qN * lead
        if not ri_hi(a) < mpf("0.5"):
            raise PrecisionExhausted("series tail leading term not small")
        p_first = a / (1 - a) ** 2
        p_sum = widened(p_sum, _geom_tail(ri_hi(p_first), q_hi))
        if want_prime:
            pp_first = a * (1 + a) / (1 - a) ** 3
            pp_sum = widened(pp_sum, _geom_tail(ri_hi(pp_first), q_hi))
    c_first = 2 * qN / (1 - qN) ** 2
    p_sum = widened(p_sum, _geom_tail(ri_hi(c_first), q_hi))

    s = ComplexBox(0, 2 * iv.pi) / m._omega1  # 2*pi*i / omega1
    wp_val = s.pow_int(2) * p_sum
    wp_prime_val = s.pow_int(3) * pp_sum if want_prime else None
    return wp_val, wp_prime_val


def q_series_oracle(lattice, precision):
    """g2, g3 from the Eisenstein series, plus the nome and omega1 that
    _wp_series reads, at the working precision of `precision` bits."""
    with working_precision(precision):
        tau = lattice.tau_box()
        w1 = lattice.omega1_box()
        q = _q_of(tau)
        n_terms = _pick_terms(q.abs_hi(), 48)
        e4 = ComplexBox(1) + 240 * _eisenstein(q, 3, n_terms)
        e6 = ComplexBox(1) - 504 * _eisenstein(q, 5, n_terms)
        two_pi_over_w1 = ComplexBox(2 * iv.pi) / w1
        g2 = two_pi_over_w1.pow_int(4) * e4 * Fraction(1, 12)
        g3 = two_pi_over_w1.pow_int(6) * e6 * Fraction(1, 216)
    return SimpleNamespace(g2=g2, g3=g3, _q=q, _omega1=w1)


# -- theta layer against both oracles -----------------------------------------

def _mpc(x: QuadNum):
    """x = p + q sqrt(d) as an mpc at the current mp precision."""
    return mp.mpc(mp.mpf(x.p.numerator) / x.p.denominator,
                  mp.mpf(x.q.numerator) / x.q.denominator * mp.sqrt(-x.d))


def theta_invariants(tau, w1, bits: int):
    """(g2, g3) of the lattice Z*w1 + Z*tau*w1 from mpmath's theta
    constants: g2 = (2/3) s^4 (t2^8 + t3^8 + t4^8),
    g3 = (4/27) s^6 (t2^4 + t3^4)(t3^4 + t4^4)(t4^4 - t2^4), s = pi/w1."""
    with mp.workprec(bits):
        q = mp.exp(1j * mp.pi * tau)
        t2, t3, t4 = (mpmath.jtheta(n, 0, q) ** 4 for n in (2, 3, 4))
        s = mp.pi / w1
        g2 = Fraction(2, 3) * s ** 4 * (t2 ** 2 + t3 ** 2 + t4 ** 2)
        g3 = Fraction(4, 27) * s ** 6 * (t2 + t3) * (t3 + t4) * (t4 - t2)
        return +g2, +g3


def _reference_invariants(lattice, bits):
    with mp.workprec(bits):
        return theta_invariants(_mpc(lattice.tau), _mpc(lattice.omega1), bits)


def _near_box(box: ComplexBox, ref, bits: int) -> bool:
    """ref, computed at 2*bits, in the box widened by the reference's own
    error, taken as 2^-(2*bits - 32) relative to max(|ref|, 1): a component
    far below the value's magnitude, such as the imaginary part of g2 on a
    nearly rectangular lattice, is not known to the reference any better."""
    with mp.workprec(2 * bits):
        err = mp.ldexp(max(abs(ref), 1), -(2 * bits - 32))
    with working_precision(2 * bits):
        return _box_holds(widened(box, err), ref)


@pytest.mark.parametrize("bits", [128, 256, 512])
@settings(max_examples=30, deadline=None)
@given(re_tau=st.integers(-32, 32), im_tau=st.integers(56, 1920),
       x=st.integers(-512, 512), y=st.integers(-512, 512))
def test_theta_layer_inside_q_series_and_jtheta(bits, re_tau, im_tau, x, y):
    """Im tau from sqrt(3)/2 to 30 (in steps of 1/64, |tau| >= 1) and z
    anywhere in the cell off the lattice (coordinates in steps of 1/1024)."""
    assume(re_tau ** 2 + im_tau ** 2 >= 64 ** 2 and (x, y) != (0, 0))
    tau = QuadNum(Fraction(re_tau, 64), Fraction(im_tau, 64), -1)
    lat = make_lattice(QuadNum(1, 0, -1), tau)
    m = invariants(lat, bits)
    oracle = q_series_oracle(lat, bits)
    g2_ref, g3_ref = _reference_invariants(lat, 2 * bits)
    for new, old, ref in ((m.g2, oracle.g2, g2_ref), (m.g3, oracle.g3, g3_ref)):
        assert new.overlaps(old)
        assert _near_box(new, ref, bits)

    z = QuadNum.rational(Fraction(x, 1024), -1) \
        + QuadNum.rational(Fraction(y, 1024), -1) * tau
    with working_precision(bits):
        t_red = _reduce_argument(m, z)
        old = _wp_series(oracle, t_red, want_prime=True)
    with mp.workprec(2 * bits):
        ref = theta_wp(_mpc(tau), _mpc(z), 2 * bits)
    for new, old_val, ref_val in zip((wp(m, z), wp_prime(m, z)), old, ref):
        assert new.overlaps(old_val)
        assert _near_box(new, ref_val, bits)


@pytest.mark.parametrize("tau_text", ["0+30i:-1", "1/2+1/100i:-1"])
def test_discriminant_certified_at_large_im_tau(tau_text):
    """Delta = 16 (pi/omega1)^12 (t2 t3 t4)^8 has no cancellation: both
    lattices (the second reduces to 1/2 + 25i) are certified at 128 bits."""
    assert run(["wp", "invariants", "--tau", tau_text]) == 0
    lat = lattice_from_tau(parse_value(tau_text, 128), 128)
    m = invariants(lat, 128)
    g2_ref, g3_ref = _reference_invariants(lat, 256)
    assert _near_box(m.g2, g2_ref, 128) and _near_box(m.g3, g3_ref, 128)


# -- the interval theta sums the fixed-point kernel replaced, kept as an oracle

def _theta_pick_terms(q4_hi: mpf, w_max: mpf) -> int:
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


def _interval_theta_sums(q4: ComplexBox, w: ComplexBox):
    """(theta1, theta2, theta3, theta4) at v, for w = e^(iv) and the nome
    q4^4, with the tail past the last term folded into each radius."""
    wi = w.inv()
    w_max = max(w.abs_hi(), wi.abs_hi())
    q4_hi = q4.abs_hi()
    n = _theta_pick_terms(q4_hi, w_max)

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
    return tuple(widened(t, tail) for t in (th1, th2, th3, th4))


# -- the fixed-point theta kernel against the interval sums and jtheta --------

def _corner(z: ComplexBox):
    """The lower-left corner of z as an mpc, exact at the working precision
    of z's bits."""
    return mp.mpc(mp.make_mpf(z.re._mpi_[0]), mp.make_mpf(z.im._mpi_[0]))


def _jtheta_all(q, v, bits: int):
    """jtheta 1..4 at twice the bits plus 4 bits per bit of
    c = log2 max(|w|, 1/|w|), w = e^(iv): jtheta loses bits to a large |w|
    (88 of them at Im tau = 22.7 and c = 49)."""
    c = int(abs(mp.im(v)) / mp.ln2) + 1
    with mp.workprec(2 * bits + 4 * c):
        return [mpmath.jtheta(n, v, q) for n in (1, 2, 3, 4)]


def _boxed_sums(q4: ComplexBox, w: ComplexBox):
    """The kernel's theta sums left as boxes at the working precision, and
    the kernel's scale P."""
    scale, *sums = _theta_sums(q4, w)
    return tuple(_leave(x, scale, iv.prec) for x in sums), scale


def _check_kernel(q4: ComplexBox, w: ComplexBox, refs, bits: int):
    """Each kernel box overlaps the interval sums' box, holds the jtheta
    value and is no wider.  The one exception to the last is theta1 at
    w = 1 exactly: theta1(0) = 0 identically, so its box is rounding error
    alone, which the interval sums make relative to the tiny later terms
    (their first term cancels exactly) and the kernel makes in absolute
    2^-P ulps.  theta1(0) is never used: invariants sums the constants on
    one chain."""
    theta1_at_0 = w.is_exact() and w.overlaps(ComplexBox(1))
    with working_precision(bits):
        new, old = _boxed_sums(q4, w)[0], _interval_theta_sums(q4, w)
        for i, (box, old_box) in enumerate(zip(new, old)):
            assert box.overlaps(old_box)
            assert (i == 0 and theta1_at_0) or box.rad() <= old_box.rad()
    for box, ref in zip(new, refs):
        assert _near_box(box, ref, bits)


_CELL = st.tuples(st.just("cell"), st.integers(-512, 512), st.integers(-512, 512))
_NEAR = st.tuples(st.just("near"), st.integers(-3, 3), st.integers(-3, 3),
                  st.integers(1, 60)).filter(lambda t: t[1:3] != (0, 0))


@pytest.mark.parametrize("bits", [128, 256, 512])
@settings(max_examples=30, deadline=None)
@given(re_tau=st.integers(-32, 32), im_tau=st.integers(64, 1920),
       arg=st.one_of(_CELL, _NEAR))
@example(re_tau=0, im_tau=1920, arg=("cell", 0, 512))
@example(re_tau=5, im_tau=64, arg=("near", 2, -1, 30))
def test_theta_kernel_against_interval_sums(bits, re_tau, im_tau, arg):
    """Im tau from 1 to 30; v = pi t with t = x + y tau in the cell (x, y in
    steps of 1/1024, so |w| up to |q|^(-1/2)) or t = (a + b i) 10^-e next
    to the lattice.  The kernel runs on the boxed q^(1/4) and w, and on
    exact points inside them, whose sums the interval layer rounds at every
    step while the kernel's error is its 2^-P ulps alone."""
    tau = (Fraction(re_tau, 64), Fraction(im_tau, 64))
    if arg[0] == "cell":
        x, y = Fraction(arg[1], 1024), Fraction(arg[2], 1024)
        t = (x + y * tau[0], y * tau[1])
    else:
        _, a, b, e = arg
        t = (Fraction(a, 10 ** e), Fraction(b, 10 ** e))
    with working_precision(bits):
        q4 = exp_2pi_i(ComplexBox(*tau) * Fraction(1, 8))
        w = exp_2pi_i(ComplexBox(*t) * Fraction(1, 2))
    with mp.workprec(2 * bits):
        tau_c, t_c = (mp.mpc(mp.mpf(u.numerator) / u.denominator,
                             mp.mpf(v.numerator) / v.denominator)
                      for u, v in (tau, t))
        refs = _jtheta_all(mp.exp(1j * mp.pi * tau_c), mp.pi * t_c, bits)
    _check_kernel(q4, w, refs, bits)

    with working_precision(bits):
        q4c, wc = _corner(q4), _corner(w)
        q4p, wp_ = (ComplexBox(iv.mpf(z.real), iv.mpf(z.imag)) for z in (q4c, wc))
    with mp.workprec(2 * bits):
        refs = _jtheta_all(q4c ** 4, -1j * mp.log(wc), bits)
    _check_kernel(q4p, wp_, refs, bits)


@pytest.mark.parametrize("bits", [128, 256, 512])
@settings(max_examples=20, deadline=None)
@given(re_tau=st.integers(-32, 32), im_tau=st.integers(56, 1920))
def test_theta_constants_are_the_sums_at_one(bits, re_tau, im_tau):
    """One chain at w = 1 gives the endpoints of theta2, theta3, theta4 that
    the full sums give there, where T(k,-) = T(k,+) and theta1 = 0."""
    with working_precision(bits):
        q4 = exp_2pi_i(ComplexBox(Fraction(re_tau, 64), Fraction(im_tau, 64))
                       * Fraction(1, 8))
        sums = _boxed_sums(q4, ComplexBox(1))[0]
        for new, old in zip(_theta_constants(q4), sums[1:]):
            assert _same_endpoints(new, old)


def test_libmp_internals_the_theta_kernel_relies_on():
    """The kernel reads raw mpf tuples and builds its endpoints with
    from_man_exp; an mpmath release that changes either fails here first."""
    # the tuple layout (sign, man, exp, bc): value (-1)^sign man 2^exp
    assert mpf(-3)._mpf_ == (1, 3, 0, 2)
    assert mpf("0.75")._mpf_ == (0, 3, -2, 2)
    assert mp.make_mpf((1, 5, -3, 3)) == mpf("-0.625")
    # directed rounding of from_man_exp to the given bits
    m = (1 << 60) + 1
    assert from_man_exp(m, -60, 53, round_floor) == mpf(1)._mpf_
    assert from_man_exp(m, -60, 53, round_ceiling) == (0, (1 << 52) + 1, -52, 53)
    assert from_man_exp(-m, -60, 53, round_floor) == (1, (1 << 52) + 1, -52, 53)
    assert from_man_exp(-m, -60, 53, round_ceiling) == mpf(-1)._mpf_
    assert from_man_exp(0, -60, 53, round_floor) == fzero
    # zero is (0, 0, 0, 0); the infinities and nan have man 0 and exp != 0
    assert fzero == mpf(0)._mpf_ == (0, 0, 0, 0)
    for special in (finf, fninf, fnan):
        assert special[1] == 0 and special[2] != 0
    assert mpf("inf")._mpf_ == finf and mpf("-inf")._mpf_ == fninf


def _radii(pattern: str, message: str):
    found = re.fullmatch(pattern, message)
    assert found, message
    return [mp.mpf(v) for v in found.groups()]


def test_nome_failure_states_bound():
    with working_precision(128):
        with pytest.raises(PrecisionExhausted) as info:
            _theta_sums(ComplexBox(Fraction(1)), ComplexBox(1))
    reached, needed = _radii(r"\|q\| too close to 1: \|q\| bound (\S+), "
                             r"needed below (\S+)", str(info.value))
    assert reached >= needed == 1


def test_tail_ratio_failure_states_bound(monkeypatch):
    # one term is too few for |w| = 2^40: the ratio |q|^3 |w|^2 exceeds 1
    monkeypatch.setattr(wp_numerics, "_pick_terms", lambda b, c, prec: 1)
    with working_precision(128):
        with pytest.raises(PrecisionExhausted) as info:
            _theta_sums(ComplexBox(Fraction(1, 2)), ComplexBox(2 ** 40))
    reached, needed = _radii(r"series tail ratio not certified below 1: ratio "
                             r"bound (\S+), needed below (\S+)", str(info.value))
    assert reached >= needed == 1


def test_discriminant_failure_states_radii(monkeypatch):
    # a theta4 constant known only to lie within 2^-400 of 0 keeps g2 and
    # g3 tight but leaves the discriminant's sign of zero undecided
    real = wp_numerics._theta_constants

    def theta4_at_zero(q4):
        t2, t3, _ = real(q4)
        return t2, t3, widened(ComplexBox(0), mp.ldexp(1, -400))

    monkeypatch.setattr(wp_numerics, "_theta_constants", theta4_at_zero)
    with pytest.raises(PrecisionExhausted) as info:
        invariants(SQUARE, 128)
    reached, needed = _radii(r"discriminant not certified nonzero: radius "
                             r"(\S+), needed below \|midpoint\| (\S+)",
                             str(info.value))
    assert reached >= needed


def test_invariant_precision_failure_states_radii():
    # periods known to about 96 bits cannot give g2 to 256
    with working_precision(64):
        lat = make_lattice(ComplexBox(1), ComplexBox(Fraction(1, 3), Fraction(11, 10)))
    with pytest.raises(PrecisionExhausted) as info:
        invariants(lat, 256)
    found = re.fullmatch(r"invariant radius exceeds target: g2 radius (\S+), "
                         r"needed (\S+)", str(info.value))
    assert found
    reached, needed = (mp.mpf(v) for v in found.groups())
    assert reached > needed > mp.ldexp(1, -256)


# -- the ComplexBox quotient the kernel quotient replaced, kept as an oracle --

def _quotient_factors(m):
    """s = pi/omega1, t2 t3, (t2 t3 t4)^2 and (t2^4 + t3^4)/3 as invariants
    computed them for the ComplexBox quotient."""
    with working_precision(m.precision):
        t2, t3, t4 = _theta_constants(m._q4)
        t23 = t2 * t3
        t234 = t23 * t4
        return SimpleNamespace(
            pi_w1=ComplexBox(iv.pi) / m._omega1, t23=t23, t234_sq=t234 * t234,
            wp_shift=(t2.pow_int(4) + t3.pow_int(4)) * Fraction(1, 3))


def wp_theta_oracle(m, t_red: ComplexBox):
    """wp and wp' at reduced argument t_red = z/omega1:
    wp  = s^2 ((t2 t3 theta4(v) / theta1(v))^2 - (t2^4 + t3^4)/3),
    wp' = -2 s^3 (t2 t3 t4)^2 theta2(v) theta3(v) theta4(v) / theta1(v)^3,
    in ComplexBox arithmetic on the theta sums left as boxes, as
    wp_numerics computed it before the quotient moved into the kernel; and
    the scale P of the sums."""
    c = _quotient_factors(m)
    prec = m.precision + _bits_below(t_red)
    if prec == m.precision:
        (th1, th2, th3, th4), scale = _boxed_sums(
            m._q4, exp_2pi_i(t_red * Fraction(1, 2)))
    else:
        with working_precision(prec):
            (th1, th2, th3, th4), scale = _boxed_sums(
                exp_2pi_i(m.lattice.tau_box() * Fraction(1, 8)),
                exp_2pi_i(t_red * Fraction(1, 2)))
    s = c.pi_w1
    r = th1.inv()
    g = th4 * r
    f = c.t23 * g
    s2 = s * s
    wp_val = s2 * (f * f - c.wp_shift)
    wp_prime_val = -2 * s2 * s * c.t234_sq * g * th2 * th3 * r * r
    return wp_val, wp_prime_val, scale


@pytest.mark.parametrize("bits", [128, 256, 512])
@settings(max_examples=25, deadline=None)
@given(re_tau=st.integers(-32, 32), im_tau=st.integers(64, 1920),
       arg=st.one_of(_CELL, _NEAR), boxed=st.booleans())
@example(re_tau=0, im_tau=1920, arg=("cell", 0, 512), boxed=False)
@example(re_tau=7, im_tau=1920, arg=("cell", 300, 3), boxed=False)
@example(re_tau=0, im_tau=130, arg=("cell", 512, 0), boxed=True)
@example(re_tau=0, im_tau=64, arg=("near", 1, 0, 60), boxed=False)
@example(re_tau=5, im_tau=1920, arg=("near", 2, -1, 60), boxed=True)
def test_kernel_quotient_against_box_quotient(bits, re_tau, im_tau, arg, boxed):
    """Im tau from 1 to 30 and z = t on Z + Z tau, t = x + y tau in the cell
    (x, y in steps of 1/1024) or t = (a + b i) 10^-e next to the lattice, as
    an exact argument or as its box: the kernel's wp and wp' overlap the
    ComplexBox quotient's boxes, hold the jtheta values and are no wider,
    up to 2^8 ulps 2^-P of the kernel times the box factor s^2 or 2 s^3.
    The kernel rounds its products to 2^-P, at least 2^16 below the working
    precision's unit, and the interval quotient relative to each value, so
    at a zero of wp' (the half periods) the kernel's box can exceed the
    interval one by a few such ulps (5.8 at most where measured)."""
    assume(re_tau ** 2 + im_tau ** 2 >= 64 ** 2)
    tau = QuadNum(Fraction(re_tau, 64), Fraction(im_tau, 64), -1)
    if arg[0] == "cell":
        assume(arg[1:] != (0, 0))
        z = QuadNum.rational(Fraction(arg[1], 1024), -1) \
            + QuadNum.rational(Fraction(arg[2], 1024), -1) * tau
    else:
        _, a, b, e = arg
        z = QuadNum(Fraction(a, 10 ** e), Fraction(b, 10 ** e), -1)
    m = invariants(make_lattice(QuadNum(1, 0, -1), tau), bits)
    with working_precision(bits):
        t_red = _reduce_argument(m, quadnum_box(z) if boxed else z)
        new = _wp_theta(m, t_red, want_prime=True)
        *old, scale = wp_theta_oracle(m, t_red)
    with mp.workprec(2 * bits):
        ref = theta_wp(_mpc(tau), _mpc(z), 2 * bits)
    for box, old_box, val, factor in zip(new, old, ref, (m._s2, m._m2s3)):
        assert box.overlaps(old_box)
        assert _near_box(box, val, bits)
        with working_precision(bits):
            slack = mp.ldexp(factor.abs_hi(), 8 - scale)
            assert box.rad() <= old_box.rad() + slack


def test_theta1_meeting_zero_states_radius_and_modulus(model):
    """A boxed argument off the lattice whose theta1(v) enclosure still
    reaches 0: the reciprocal refuses it, naming both figures."""
    with working_precision(128):
        z = ComplexBox(ri_from_endpoints(mpf("-1e-5"), mpf("1e-5")),
                       ri_from_endpoints(mpf("1e-6"), mpf("2e-6")))
    with pytest.raises(PrecisionExhausted) as info:
        wp(model, z)
    reached, needed = _radii(r"theta1\(v\) not certified nonzero: radius (\S+), "
                             r"needed below its midpoint modulus (\S+)",
                             str(info.value))
    assert reached >= needed


# -- the anchored near-pole path exp_E used to take, kept as an oracle -------
# with the argument reduction it ran on: boxed lattice coordinates, and an
# exactness test only to settle a pole the boxes could not decide

class _NoSafeAnchor(WplabError):
    """No anchor/n pair placed both points in the safe region."""


def _lattice_coords(m, z: ComplexBox):
    """Coordinates (x, y) with z = (x + y*tau) * omega1, as intervals."""
    t = z / m._omega1
    y = t.im / m._tau.im
    x = t.re - y * m._tau.re
    return x, y


def _exact_pole(lattice, z):
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


def _boxed_reduction(m, z_raw):
    """The reduced box t_red = z/omega1, reduced in interval arithmetic."""
    z = as_box(z_raw)
    x, y = _lattice_coords(m, z)
    xr = x - int(mp.nint(mp.mpf(x.mid)))
    yr = y - int(mp.nint(mp.mpf(y.mid)))
    if ri_lo(xr) <= 0 <= ri_hi(xr) and ri_lo(yr) <= 0 <= ri_hi(yr):
        if _exact_pole(m.lattice, z_raw):
            raise PoleAtLatticePoint("argument lies on the lattice")
        raise UndecidablePoleProximity("argument enclosure overlaps a lattice point")
    return ComplexBox(xr) + ComplexBox(yr) * m._tau


def _exp_direct(m, t_red: ComplexBox):
    """The theta quotient at a reduced box; the anchored path only takes it
    a quarter cell diameter or more from the lattice, above 2^-16, so its
    sums run at the model's precision."""
    p, pp = _wp_theta(m, t_red, want_prime=True)
    return CurvePoint(p, pp, ComplexBox(1))


def _cell_diameter_hi(m) -> mpf:
    w1, w2 = m._omega1, m._omega1 * m._tau
    return max((w1 + w2).abs_hi(), (w1 - w2).abs_hi())


def _dist_to_lattice_lo(m, t_red: ComplexBox) -> mpf:
    """Lower bound for dist(z, Lambda) with z = t_red * omega1 in the
    centered cell; the nearest lattice points are the 9 surrounding ones."""
    best = None
    for a in (-1, 0, 1):
        for b in (-1, 0, 1):
            lam = ComplexBox(a) + ComplexBox(b) * m._tau
            d = abs_lo((t_red - lam) * m._omega1)
            best = d if best is None else min(best, d)
    return best


ANCHOR_FRACTIONS = [
    (Fraction(3, 8), Fraction(3, 8)),
    (Fraction(1, 2), Fraction(3, 8)),
    (Fraction(3, 8), Fraction(1, 2)),
    (Fraction(-3, 8), Fraction(3, 8)),
    (Fraction(1, 4), Fraction(1, 2)),
    (Fraction(1, 2), Fraction(1, 4)),
    (Fraction(-1, 2), Fraction(-3, 8)),
    (Fraction(1, 3), Fraction(1, 3)),
]


def _anchor_box(m, a: tuple) -> ComplexBox:
    return ComplexBox(ri(a[0])) + ComplexBox(ri(a[1])) * m._tau


def anchored_exp_E(m, z):
    """exp_E with the series only beyond a quarter cell diameter from the
    lattice and exp_E(z) = n*(exp_E(b) - exp_E(a)), z = n*(b - a), nearer."""
    with working_precision(m.precision):
        if _exact_pole(m.lattice, z):
            return identity_point()
        try:
            t_red = _boxed_reduction(m, z)
        except PoleAtLatticePoint:
            return identity_point()
        margin = _cell_diameter_hi(m) / 4
        if _dist_to_lattice_lo(m, t_red) >= margin:
            return _exp_direct(m, t_red)
        return _near_pole_auto(m, t_red, margin)


def _near_pole_auto(m, t_red: ComplexBox, margin):
    zb = t_red * m._omega1
    for n in range(2, 7):
        for frac in ANCHOR_FRACTIONS:
            a_box = _anchor_box(m, frac) * m._omega1
            b_box = zb / n + a_box
            xb, yb = _lattice_coords(m, b_box)
            tb = ComplexBox(xb) + ComplexBox(yb) * m._tau
            if _dist_to_lattice_lo(m, tb - ComplexBox(int(mp.nint(mp.mpf(xb.mid))))
                                   - ComplexBox(int(mp.nint(mp.mpf(yb.mid)))) * m._tau) < margin:
                continue
            ta = _anchor_box(m, frac)
            if _dist_to_lattice_lo(m, ta) < margin:
                continue
            try:
                pa = _exp_direct(m, ta)
                pb = anchored_exp_E(m, b_box)
                diff = curve_add(m, pb, curve_neg(pa))
                return curve_smul(m, n, diff)
            except (IndistinguishableBranch, PrecisionExhausted):
                continue
    raise _NoSafeAnchor("no anchor/n pair placed both points in the safe region")


# -- exp_E near the lattice against the anchored path and jtheta --------------

def _reference_point(lattice, z: QuadNum, bits: int):
    """(wp(z), wp'(z)) from jtheta at `bits`, by homogeneity from the
    lattice Z + Z*tau: wp(z) = omega1^-2 wp_tau(z/omega1), and omega1^-3
    for wp'."""
    with mp.workprec(bits):
        w1 = _mpc(lattice.omega1)
        p, pp = theta_wp(_mpc(lattice.tau), _mpc(z) / w1, bits)
        return p / w1 ** 2, pp / w1 ** 3


def _is_affine(p) -> bool:
    return p.Z.is_exact() and p.Z.overlaps(ComplexBox(1))


def _check_near_pole(m, z: QuadNum, offset: QuadNum, old, bits: int):
    """exp_E(z) answers affinely, inside the anchored path's boxes (when
    given) and no wider, and holds the jtheta values at twice the bits.
    z lies a lattice vector away from the small offset, where the reference
    is taken: jtheta near a shifted zero of theta1 loses the bits the shift
    adds."""
    new = exp_E(m, z)
    assert _is_affine(new)
    ref = _reference_point(m.lattice, offset, 2 * bits)
    old_boxes = (None, None) if old is None else (old.X, old.Y)
    for box, val, old_box in zip((new.X, new.Y), ref, old_boxes):
        assert _near_box(box, val, bits)
        if old_box is not None:
            assert box.overlaps(old_box)
            with working_precision(bits):
                assert box.rad() <= old_box.rad()
    return new


@pytest.mark.parametrize("bits", [128, 256, 512])
@settings(max_examples=25, deadline=None)
@given(re_tau=st.integers(-32, 32), im_tau=st.integers(64, 1920),
       scale=st.sampled_from([Fraction(1), Fraction(3, 2)]),
       a=st.integers(-3, 3), b=st.integers(-3, 3), e=st.integers(1, 60),
       shift=st.tuples(st.integers(-2, 2), st.integers(-2, 2)))
@example(re_tau=0, im_tau=64, scale=Fraction(1), a=0, b=-1, e=48, shift=(0, 0))
@example(re_tau=0, im_tau=64, scale=Fraction(1), a=0, b=-1, e=48, shift=(0, 1))
@example(re_tau=0, im_tau=64, scale=Fraction(1), a=0, b=-1, e=49, shift=(0, 0))
def test_exp_E_near_pole_against_anchored_path(bits, re_tau, im_tau, scale,
                                               a, b, e, shift):
    """Im tau from 1 to 30 and z = ((a + b i) 10^-e + n1 + n2 tau) omega1:
    wherever the anchored path answers, so does the theta quotient."""
    assume(re_tau ** 2 + im_tau ** 2 >= 64 ** 2 and (a, b) != (0, 0))
    w1 = QuadNum.rational(scale, -1)
    tau = QuadNum(Fraction(re_tau, 64), Fraction(im_tau, 64), -1)
    m = invariants(make_lattice(w1, w1 * tau), bits)
    offset = QuadNum(Fraction(a, 10 ** e), Fraction(b, 10 ** e), -1) * w1
    z = offset + (shift[0] + shift[1] * tau) * w1
    try:
        old = anchored_exp_E(m, z)
    except (_NoSafeAnchor, PrecisionError):
        return
    # the oracle can round a point just off the lattice to the identity;
    # exp_E is then checked against jtheta alone
    _check_near_pole(m, z, offset, old if _is_affine(old) else None, bits)


def test_exp_E_answers_where_the_anchored_path_gave_up():
    """Im tau = 27356/915 ~ 29.9 at 128 bits and z = (3 + i) 10^-30 omega1:
    no anchor placed the group-law route's points in the safe region, while
    theta1(v) is certified nonzero and the quotient is tight."""
    w1 = QuadNum.rational(Fraction(3, 2), -1)
    tau = QuadNum(0, Fraction(27356, 915), -1)
    m = invariants(make_lattice(w1, w1 * tau), 128)
    z = QuadNum(Fraction(3, 10 ** 30), Fraction(1, 10 ** 30), -1) * w1
    with pytest.raises(_NoSafeAnchor):
        anchored_exp_E(m, z)
    p = _check_near_pole(m, z, z, None, 128)
    with working_precision(128):
        for box in (p.X, p.Y):
            assert box.rad() <= mp.ldexp(box.abs_hi(), -50)


# -- isogeny residual ---------------------------------------------------------

def test_isogeny_residual_checks_the_certified_direction_only(monkeypatch):
    """alpha = 2 maps Lambda(1/2, i/2) into Lambda(1, i).  The residual is
    tagged isogeny:alpha and costs 4 exp_E per sample; at z = 1/2, where
    alpha*z is a lattice point the box cannot decide, it raises rather than
    trying 1/alpha."""
    l1 = make_lattice(QuadNum(1, 0, -1), QuadNum(0, 1, -1))
    l2 = make_lattice(QuadNum(Fraction(1, 2), 0, -1),
                      QuadNum(0, Fraction(1, 2), -1))
    m = invariants(l1, 128)
    v = is_isogenous(l1, l2)
    assert v.alpha == 2
    calls = []
    real_exp_E = wp_numerics.exp_E

    def counted(m, z):
        calls.append(z)
        return real_exp_E(m, z)

    monkeypatch.setattr(wp_numerics, "exp_E", counted)
    r = isogeny_residual(m, l2, v.alpha, 0.31 + 0.17j)
    assert r.identity_tag == "isogeny:alpha"
    assert r.value <= mp.ldexp(1, -100)
    assert len(calls) == 4
    with pytest.raises(UndecidablePoleProximity):
        isogeny_residual(m, l2, v.alpha, 0.5 + 0j)
