"""Weierstrass machinery against direct lattice-sum oracles.

The package computes g2, g3 and wp by theta/q-series with certified tails;
the oracle here is the literal double sum over lattice points, truncated at
a radius with a crude float tail estimate.  Low precision, but independent.
A second oracle, Jacobi theta quotients from mpmath at twice the working
precision, checks the full-precision enclosures.
"""

import cmath
from fractions import Fraction

import mpmath
import pytest
from mpmath import iv, mp

from wplab import wp_numerics
from wplab.cintervals import ComplexBox, ri_hi, ri_lo, working_precision
from wplab.errors import (
    IndistinguishableBranch,
    NoSafeAnchor,
    PoleAtLatticePoint,
    UndecidablePoleProximity,
)
from wplab.lattice_core import make_lattice
from wplab.quadfield import QuadNum
from wplab.wp_numerics import (
    _geom_tail,
    addition_residual,
    curve_add,
    curve_neg,
    curve_smul,
    exp_E,
    identity_point,
    invariants,
    model_with,
    near_pole_eval,
    ode_residual,
    on_curve_defect,
    point_defect,
    wp,
    wp_prime,
)

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
        val = wp(model, ComplexBox.from_complex(complex(z)))
        ref = oracle_wp(complex(z), 1, 1j)
        assert abs(complex(val.mid()) - ref) < 1e-3


def test_wp_evenness_and_periodicity(model):
    with working_precision(128):
        z = ComplexBox.from_fractions(Fraction(3, 10), Fraction(2, 5))
        a = wp(model, z)
        b = wp(model, -z)
        assert (a - b).contains_zero()
        c = wp(model, z + ComplexBox(1))
        assert (a - c).contains_zero()


def test_wp_prime_odd_and_half_period(model):
    with working_precision(128):
        z = ComplexBox.from_fractions(Fraction(1, 5), Fraction(1, 3))
        assert (wp_prime(model, z) + wp_prime(model, -z)).contains_zero()
        half = wp_prime(model, Fraction(1, 2))
        assert half.contains_zero()


def test_pole_handling(model):
    with pytest.raises(PoleAtLatticePoint):
        wp(model, Fraction(0))
    with pytest.raises(PoleAtLatticePoint):
        wp(model, QuadNum(1, 2, -1))
    from wplab.cintervals import ri_from_endpoints

    with pytest.raises(UndecidablePoleProximity):
        with working_precision(128):
            wp(model, ComplexBox(ri_from_endpoints("-1e-33", "1e-33")))


def test_ode_residual_and_negative_control(model):
    r = ode_residual(model, 0.31 + 0.4j)
    assert r.value <= mp.ldexp(1, -100)
    bad = model_with(SQUARE, model.g2,
                     model.g3 + ComplexBox(Fraction(1, 10 ** 5)), 128)
    assert ode_residual(bad, 0.31 + 0.4j).value >= 1e-6


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


def test_near_pole_eval(model):
    with working_precision(128):
        z = ComplexBox.from_fractions(Fraction(1, 2 ** 30), Fraction(1, 2 ** 31))
        p = near_pole_eval(model, z, (Fraction(3, 8), Fraction(3, 8)), 2)
        assert on_curve_defect(model, p) <= mp.ldexp(1, -80)
        # periodicity through the pole neighborhood
        q = near_pole_eval(model, z + ComplexBox(1), (Fraction(3, 8), Fraction(3, 8)), 2)
        assert point_defect(model, p, q) <= mp.ldexp(1, -80)


def test_exp_E_auto_near_pole(model):
    with working_precision(128):
        z = ComplexBox.from_fractions(Fraction(1, 2 ** 40), Fraction(1, 2 ** 40))
        p = exp_E(model, z)
        assert on_curve_defect(model, p) <= mp.ldexp(1, -80)


def test_two_torsion_doubling(model):
    with working_precision(128):
        half = exp_E(model, Fraction(1, 2))
        with pytest.raises((IndistinguishableBranch, NoSafeAnchor)):
            # doubling a 2-torsion point needs the tangent at a ramification
            # point; the chord slope denominator vanishes
            curve_add(model, half, exp_E(model, ComplexBox.from_fractions(
                Fraction(1, 2))))
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
    wp = pi^2 (t2^2 t3^2 (th4/th1)^2 - (t2^4 + t3^4)/3) at v = pi*z."""
    with mp.workprec(bits):
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
    with mp.workprec(2 * 256):
        return (ri_lo(box.re) <= z.real <= ri_hi(box.re)
                and ri_lo(box.im) <= z.imag <= ri_hi(box.im))


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


def _eisenstein_ivmpf(q, weight, n_terms):
    """The Eisenstein sum with n^k built as an ivmpf power and 1 boxed."""
    total = ComplexBox(0)
    qn = ComplexBox(1)
    for n in range(1, n_terms + 1):
        qn = qn * q
        total = total + ComplexBox(iv.mpf(n) ** weight) * qn / (ComplexBox(1) - qn)
    q_hi = q.abs_hi()
    first = (iv.mpf(n_terms + 1) ** weight * iv.mpf(q_hi) ** (n_terms + 1)) / (
        1 - iv.mpf(q_hi)
    )
    ratio = iv.mpf(q_hi) * (iv.mpf(n_terms + 2) / iv.mpf(n_terms + 1)) ** weight
    return total.widened(_geom_tail(ri_hi(first), ri_hi(ratio)))


def _endpoints(box):
    return box.re._mpi_, box.im._mpi_


@pytest.mark.parametrize("bits", [128, 256, 512])
def test_eisenstein_exact_powers_keep_invariant_endpoints(bits, monkeypatch):
    taus = [QuadNum(0, 1, -1), QuadNum(Fraction(1, 2), Fraction(1, 2), -3),
            QuadNum(0, 2, -1), QuadNum(Fraction(1, 3), Fraction(3, 2), -2),
            QuadNum(Fraction(1, 4), Fraction(5, 2), -7)]
    lattices = [make_lattice(QuadNum.rational(1, t.d), t) for t in taus]
    new = [invariants(lat, bits) for lat in lattices]
    monkeypatch.setattr(wp_numerics, "_eisenstein", _eisenstein_ivmpf)
    old = [invariants(lat, bits) for lat in lattices]
    for a, b in zip(new, old):
        assert _endpoints(a.g2) == _endpoints(b.g2)
        assert _endpoints(a.g3) == _endpoints(b.g3)
