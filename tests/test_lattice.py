"""Lattice normalization, reduction, CM detection and isogeny witnesses."""

import cmath
import random
import warnings
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from wplab.cintervals import ComplexBox, ri, working_precision
from wplab.errors import DegenerateLattice, PrecisionExhausted
from wplab.lattice_core import (
    MixedRepresentationWarning,
    cm_field,
    conjugate,
    flt,
    is_isogenous,
    isr_equivalent,
    make_lattice,
    mat_det,
    reduce_tau,
    witness_maps,
)
from wplab.quadfield import QuadNum

I_TAU = QuadNum(0, 1, -1)


def exact_lattice(tau: QuadNum):
    return make_lattice(QuadNum(1, 0, tau.d), tau)


def _float_reduce(tau: complex) -> complex:
    """Independent float Gauss reduction used as an oracle."""
    for _ in range(200):
        t = round(tau.real)
        tau -= t
        if abs(tau) < 1 - 1e-12:
            tau = -1 / tau
        else:
            break
    if abs(tau.real + 0.5) < 1e-9:
        tau += 1
    if abs(abs(tau) - 1) < 1e-9 and tau.real < -1e-9:
        tau = -1 / tau
    return tau


quad_taus = st.builds(
    lambda p, q, d: QuadNum(p, q, d),
    st.fractions(min_value=Fraction(-3), max_value=Fraction(3), max_denominator=6),
    st.fractions(min_value=Fraction(1, 4), max_value=Fraction(3), max_denominator=6),
    st.sampled_from((-1, -2, -3, -5, -7)),
)


def test_reduce_examples():
    red, m = reduce_tau(QuadNum(1, 1, -1))  # 1 + i -> i
    assert red == I_TAU
    assert flt(m, QuadNum(1, 1, -1)) == red
    red, _ = reduce_tau(QuadNum(Fraction(-1, 2), 2, -1))
    assert red == QuadNum(Fraction(1, 2), 2, -1)  # boundary convention


@settings(max_examples=120)
@given(quad_taus)
def test_reduce_matches_float_oracle(tau):
    red, m = reduce_tau(tau)
    assert mat_det(m) in (1, -1)
    assert flt(m, tau) == red
    assert Fraction(-1, 2) < red.p <= Fraction(1, 2)
    assert red.norm() >= 1
    oracle = _float_reduce(complex(tau))
    assert abs(complex(red) - oracle) < 1e-6


@settings(max_examples=60)
@given(quad_taus)
def test_make_lattice_preserves_span(tau):
    lat = exact_lattice(tau)
    (a, b), (c, d) = lat.basis_change
    assert a * d - b * c in (1, -1)
    # stored periods are integer combinations of the originals
    assert lat.omega1 == tau * c + d
    assert lat.omega2 == tau * a + b
    assert lat.omega2 / lat.omega1 == lat.tau


def test_numeric_reduce_strict_boundary():
    with working_precision(64):
        # enclosure straddling |tau| = 1 cannot be reduced strictly
        wide = ComplexBox(ri(Fraction(0)), iv_interval())
        with pytest.raises(PrecisionExhausted):
            reduce_tau(wide, strict=True)
        red, m = reduce_tau(wide, strict=False)
        assert mat_det(m) in (1, -1)


def iv_interval():
    from mpmath import iv

    return iv.mpf(["0.99", "1.01"])


def test_degenerate_lattices():
    with pytest.raises(DegenerateLattice):
        make_lattice(QuadNum(1, 0, -1), QuadNum(2, 0, -1))
    with pytest.raises(DegenerateLattice):
        make_lattice(QuadNum(0, 0, -1), QuadNum(0, 1, -1))


def test_mixed_representation_warns():
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with working_precision(64):
            lat = make_lattice(QuadNum(1, 0, -1), ComplexBox(0, 2))
    assert any(issubclass(w.category, MixedRepresentationWarning) for w in caught)
    assert not lat.exact


def test_cm_field_exact_and_numeric():
    assert cm_field(exact_lattice(I_TAU)) == -1
    assert cm_field(exact_lattice(QuadNum(Fraction(1, 2), Fraction(1, 2), -3))) == -3
    with working_precision(128):
        lat = make_lattice(ComplexBox(1), ComplexBox(0, 2))
        assert cm_field(lat) == -1
        # a high-degree tau yields no certified relation at this bound
        generic = make_lattice(ComplexBox(1),
                               ComplexBox.from_complex(0.2345 + 1.618j))
        assert cm_field(generic, height_bound=20) is None


def test_exact_isogeny_same_field():
    l1 = exact_lattice(I_TAU)
    l2 = exact_lattice(QuadNum(Fraction(1, 3), Fraction(5, 2), -1))
    v = is_isogenous(l1, l2)
    assert v.is_isogenous
    assert mat_det(v.witness) != 0
    assert witness_maps(l1.tau, l2.tau, v.witness)
    # alpha maps Lambda2 into Lambda1: check on both generators numerically
    with working_precision(64):
        a = complex(v.alpha)
        for w in (complex(l2.omega1), complex(l2.omega2)):
            img = a * w
            # img = x*omega1 + y*omega2 with integer x, y
            t = complex(l1.tau)
            y = (img / complex(l1.omega1)).imag / t.imag
            x = (img / complex(l1.omega1)).real - y * t.real
            assert abs(x - round(x)) < 1e-6 and abs(y - round(y)) < 1e-6


def test_exact_isogeny_distinct_fields():
    v = is_isogenous(exact_lattice(I_TAU), exact_lattice(QuadNum(0, 1, -2)))
    assert v.outcome == "not_isogenous"
    assert "distinct CM fields" in v.reason


def test_numeric_isogeny_witness_and_unknown():
    with working_precision(128):
        l1 = make_lattice(ComplexBox(1), ComplexBox(0, 1))
        l2 = make_lattice(ComplexBox(1), ComplexBox(0, 3))
        v = is_isogenous(l1, l2, search_bound=5)
        assert v.is_isogenous
        assert witness_maps(l1.tau, l2.tau, v.witness)
        generic = make_lattice(ComplexBox(1),
                               ComplexBox.from_complex(0.2345 + 1.618j))
        u = is_isogenous(l1, generic, search_bound=3)
        assert u.outcome == "unknown_up_to_bound"
        assert u.bound == 3


def test_witness_symmetry_and_composition():
    rng = random.Random(7)
    for _ in range(20):
        t1 = QuadNum(Fraction(rng.randint(-2, 2), 4), Fraction(rng.randint(2, 6), 2), -2)
        l1 = exact_lattice(t1)
        l2 = exact_lattice(QuadNum(Fraction(1, 4), Fraction(3, 2), -2))
        l3 = exact_lattice(QuadNum(0, 3, -2))
        v12 = is_isogenous(l1, l2)
        v23 = is_isogenous(l2, l3)
        # composing witnesses maps tau1 to tau3
        from wplab.lattice_core import mat_mul

        comp = mat_mul(v23.witness, v12.witness)
        assert witness_maps(l1.tau, l3.tau, comp)
        # symmetry: the reverse direction also certifies
        v21 = is_isogenous(l2, l1)
        assert v21.is_isogenous and witness_maps(l2.tau, l1.tau, v21.witness)


def test_conjugate_involution():
    lat = exact_lattice(QuadNum(Fraction(1, 4), Fraction(3, 2), -1))
    twice = conjugate(conjugate(lat))
    assert twice.tau == lat.tau


def test_isr_reflection_and_negative():
    sq = exact_lattice(I_TAU)
    refl = isr_equivalent(sq, conjugate(sq))
    assert refl.is_isogenous
    v = isr_equivalent(sq, exact_lattice(QuadNum(0, 1, -2)))
    assert v.outcome == "not_isogenous"
    assert v.used_reflection is None


# -- the bounded numeric search against the exhaustive cube scan --------------

def _matrices_up_to(bound):
    """All 2x2 integer matrices ordered by max |entry|, then lexicographic."""
    for k in range(1, bound + 1):
        rng = range(-k, k + 1)
        for a in rng:
            for b in rng:
                for c in rng:
                    for d in rng:
                        if max(abs(a), abs(b), abs(c), abs(d)) != k:
                            continue
                        if a * d - b * c == 0:
                            continue
                        yield ((a, b), (c, d))


def cube_scan_isogeny(l1, l2, bound):
    """Reference search: walk the (2k+1)^4 cube for each k with a float
    midpoint prefilter, certify survivors by the interval residual, and
    return (outcome, witness) of the first hit."""
    t1, t2 = l1.tau_box(), l2.tau_box()
    z1, z2 = complex(t1.mid()), complex(t2.mid())
    slack = float(t1.rad() + t2.rad())
    for m in _matrices_up_to(bound):
        (a, b), (c, d) = m
        den = z1 * c + d
        if abs((z1 * a + b) - z2 * den) > 1e-4 + 16 * slack * (1 + abs(z2)) * (
            abs(a) + abs(b) + abs(c) + abs(d)
        ):
            continue
        den_box = t1 * c + d
        if den_box.contains_zero():
            continue
        if ((t1 * a + b) - t2 * den_box).contains_zero():
            return "isogenous", m
    return "unknown_up_to_bound", None


def _random_tau_box(rng):
    return ComplexBox(ri(Fraction(rng.randint(-500, 500), 1000)),
                      ri(Fraction(rng.randint(900, 2500), 1000)))


def test_numeric_isogeny_matches_cube_scan():
    rng = random.Random(1)
    found = 0
    with working_precision(128):
        for _ in range(22):
            tau1 = _random_tau_box(rng)
            while True:
                m = tuple(tuple(rng.randint(-2, 2) for _ in range(2))
                          for _ in range(2))
                if mat_det(m) != 0:
                    break
            l1 = make_lattice(ComplexBox(1), tau1)
            l2 = make_lattice(ComplexBox(1), flt(m, tau1))
            bound = rng.randint(3, 6)
            v = is_isogenous(l1, l2, bound)
            assert (v.outcome, v.witness) == cube_scan_isogeny(l1, l2, bound)
            found += v.is_isogenous
        for _ in range(3):
            l1 = make_lattice(ComplexBox(1), _random_tau_box(rng))
            l2 = make_lattice(ComplexBox(1), _random_tau_box(rng))
            v = is_isogenous(l1, l2, 10)
            assert (v.outcome, v.witness) == cube_scan_isogeny(l1, l2, 10)
            assert v.outcome == "unknown_up_to_bound" and v.bound == 10
    assert found >= 20
