"""Certified rectangle arithmetic: containment is the invariant under test.

Every operation on ComplexBox enclosures must contain the corresponding
exact complex result; hypothesis drives the containment checks with float
midpoints as the reference."""

import cmath
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st
from mpmath import iv, mp
from mpmath.libmp import from_rational, round_ceiling, round_floor

from wplab.cintervals import (
    GUARD_BITS,
    ComplexBox,
    as_box,
    endpoint_fraction,
    exp_2pi_i,
    quadnum_box,
    ri,
    ri_from_endpoints,
    ri_hi,
    ri_lo,
    working_precision,
)
from wplab.errors import PrecisionExhausted
from wplab.quadfield import QuadNum

from boxes import abs_lo, widened

small_fracs = st.fractions(
    min_value=Fraction(-8), max_value=Fraction(8), max_denominator=64
)
boxes = st.builds(ComplexBox, small_fracs, small_fracs)


def _contains(box: ComplexBox, z: complex, slop=0.0) -> bool:
    return (ri_lo(box.re) - slop <= z.real <= ri_hi(box.re) + slop
            and ri_lo(box.im) - slop <= z.imag <= ri_hi(box.im) + slop)


def test_working_precision_restores():
    before = iv.prec
    with working_precision(256):
        assert iv.prec >= 256
    assert iv.prec == before


def test_ri_fraction_roundtrip():
    with working_precision(64):
        x = ri(Fraction(1, 3))
        assert ri_lo(x) < ri_hi(x)
        assert ri_lo(x) <= mp.mpf(1) / 3 <= ri_hi(x)
        assert ri(Fraction(1, 4)).a == ri(Fraction(1, 4)).b  # dyadic is exact


def test_ri_from_endpoints_and_zero():
    with working_precision(64):
        x = ri_from_endpoints(-1, 2)
        assert ComplexBox(x).contains_zero()
        assert not ComplexBox(ri(1)).contains_zero()


@settings(max_examples=150)
@given(boxes, boxes)
def test_containment_add_mul_sub(a, b):
    with working_precision(64):
        za, zb = complex(a.mid()), complex(b.mid())
        assert _contains(a + b, za + zb, 1e-12)
        assert _contains(a - b, za - zb, 1e-12)
        assert _contains(a * b, za * zb, 1e-9)


@settings(max_examples=100)
@given(boxes, boxes)
def test_containment_div(a, b):
    with working_precision(64):
        if b.contains_zero():
            with pytest.raises(PrecisionExhausted):
                a / b
        else:
            assert _contains(a / b, complex(a.mid()) / complex(b.mid()), 1e-9)


@settings(max_examples=100)
@given(boxes, st.integers(min_value=0, max_value=6))
def test_containment_pow(a, n):
    with working_precision(64):
        assert _contains(a.pow_int(n), complex(a.mid()) ** n, 1e-6)


@given(boxes)
def test_conj_abs(a):
    with working_precision(64):
        z = complex(a.mid())
        assert _contains(a.conj(), z.conjugate())
        assert abs_lo(a) - 1e-12 <= abs(z) <= a.abs_hi() + 1e-12


def test_widened_grows_and_keeps_center():
    with working_precision(64):
        a = ComplexBox(1, 2)
        w = widened(a, mp.mpf("0.5"))
        assert w.rad() >= mp.mpf("0.5")
        assert _contains(w, 1 + 2j)


# integers of up to 400 bits, most wider than 53 + 32 or 128 + 32 bits
wide = st.binary(min_size=1, max_size=50).map(lambda b: int.from_bytes(b, "big"))


@settings(max_examples=100)
@given(wide, wide, st.booleans(), st.sampled_from([53, 128, 512]))
@example(3 ** 300, 7 ** 200 - 1, True, 53)
def test_ri_of_a_rational_is_its_least_interval(n, d, negative, bits):
    # rounding a numerator or denominator wider than the precision before
    # dividing would widen the interval
    x = Fraction(-n if negative else n, d + 1)
    with working_precision(bits):
        p = iv.prec
        assert ri(x)._mpi_ == (from_rational(x.numerator, x.denominator, p, round_floor),
                               from_rational(x.numerator, x.denominator, p, round_ceiling))


def test_ri_reads_no_text():
    with pytest.raises(TypeError, match="text is no number"):
        ri("0.1")


@given(st.integers(min_value=-10 ** 6, max_value=10 ** 6),
       st.integers(min_value=-40, max_value=40))
def test_endpoint_fraction_exact(man, exp):
    x = mp.mpf(man) * mp.mpf(2) ** exp
    assert endpoint_fraction(x._mpf_) == Fraction(man) * Fraction(2) ** exp


@pytest.mark.parametrize("value", ["+inf", "-inf", "nan"])
def test_endpoint_fraction_refuses_non_finite_endpoints(value):
    with pytest.raises(PrecisionExhausted, match="not a finite number"):
        endpoint_fraction(mp.mpf(value)._mpf_)


def test_a_quadnum_coerces_to_its_quadnum_box():
    with working_precision(64):
        for q in (QuadNum(Fraction(1, 3), Fraction(2, 7), -5),
                  QuadNum(Fraction(-5, 2), Fraction(1), -1), QuadNum.rational(3, -7)):
            got, want = as_box(q), quadnum_box(q)
            assert (got.re._mpi_, got.im._mpi_) == (want.re._mpi_, want.im._mpi_)


def test_exp_2pi_i_against_cmath():
    with working_precision(64):
        for t in (0.0, 0.125, 0.3, -0.45):
            box = exp_2pi_i(ComplexBox(iv.mpf(repr(t))))
            assert _contains(box, cmath.exp(2j * cmath.pi * t), 1e-9)


def test_quadnum_box_contains_embedding():
    with working_precision(64):
        q = QuadNum(Fraction(1, 3), Fraction(2, 7), -5)
        assert _contains(quadnum_box(q), complex(q), 1e-12)


def test_division_by_zero_states_radius_and_modulus():
    with working_precision(64):
        # the box [-1, 3] + [0, 0]i: midpoint modulus 1, radius 2
        divisor = ComplexBox(ri_from_endpoints(-1, 3))
        for divide in (lambda: ComplexBox(1) / divisor, divisor.inv):
            with pytest.raises(PrecisionExhausted) as err:
                divide()
            assert str(err.value) == (
                "division by an interval containing zero: the divisor's "
                "radius is 2.0 and its midpoint modulus 1.0; a radius below "
                "the modulus is needed")


def test_division_by_zero_message_at_15000_bits():
    # radius and modulus below 2^-3500 with mantissas of about 15000 bits:
    # mp.nstr of either raises Python's 4300-digit ValueError unrounded
    with working_precision(15000):
        c, r = Fraction(1, 3 * 2 ** 4000), Fraction(1, 3 * 2 ** 3990)
        part = ri_from_endpoints(ri(c - r).a, ri(c + r).b)
        with pytest.raises(PrecisionExhausted) as err:
            ComplexBox(part, part).inv()
    assert str(err.value) == (
        "division by an interval containing zero: the divisor's radius is "
        "3.6619e-1202 and its midpoint modulus 3.5761e-1205; a radius below "
        "the modulus is needed")


def test_is_exact_flags():
    with working_precision(64):
        assert ComplexBox(1, 2).is_exact()
        assert not ComplexBox(ri_from_endpoints(0, 1)).is_exact()


# -- oracle: the same operations spelled with ivmpf operators --------------
#
# ComplexBox's operators call mpmath's libmpi endpoint routines directly.
# The reference below spells each operation with ivmpf operators, which go
# through mpmath's interval context; the two must agree endpoint for endpoint.

def ref_add(a, b):
    return ComplexBox(a.re + b.re, a.im + b.im)


def ref_sub(a, b):
    return ComplexBox(a.re - b.re, a.im - b.im)


def ref_neg(a):
    return ComplexBox(-a.re, -a.im)


def ref_mul(a, b):
    return ComplexBox(a.re * b.re - a.im * b.im, a.re * b.im + a.im * b.re)


def ref_abs_sq(a):
    return a.re * a.re + a.im * a.im


def ref_div(a, b):
    n = ref_abs_sq(b)
    if ri_lo(n) <= 0 <= ri_hi(n):
        raise PrecisionExhausted("division by an interval containing zero")
    c = ref_mul(a, ComplexBox(b.re, -b.im))
    return ComplexBox(c.re / n, c.im / n)


def ref_inv(a):
    n = ref_abs_sq(a)
    if ri_lo(n) <= 0 <= ri_hi(n):
        raise PrecisionExhausted("division by an interval containing zero")
    return ComplexBox(a.re / n, -a.im / n)


def ref_pow_int(a, n):
    """The square-and-multiply chain, started from an exact 1."""
    if n < 0:
        return ref_div(ComplexBox(1), ref_pow_int(a, -n))
    out, base = ComplexBox(1), a
    while n:
        if n & 1:
            out = ref_mul(out, base)
        base = ref_mul(base, base)
        n >>= 1
    return out


def endpoints(z):
    if isinstance(z, ComplexBox):
        return z.re._mpi_, z.im._mpi_
    return z._mpi_


def same_or_both_raise(f, g, *args):
    try:
        want = endpoints(g(*args))
    except PrecisionExhausted:
        with pytest.raises(PrecisionExhausted):
            f(*args)
        return
    assert endpoints(f(*args)) == want


# Intervals from two sorted rationals: point intervals, intervals on one side
# of zero and intervals straddling zero all occur; 1/3-type endpoints are
# rounded outward, so the endpoints use every bit of the precision.
intervals = st.tuples(small_fracs, small_fracs).map(sorted)
wide_boxes = st.tuples(intervals, intervals)


def make_box(parts):
    (a, b), (c, d) = parts
    return ComplexBox(ri_from_endpoints(ri(a), ri(b)),
                      ri_from_endpoints(ri(c), ri(d)))


@pytest.mark.parametrize("bits", [53, 128, 512])
@settings(max_examples=120, deadline=None)
@given(wide_boxes, wide_boxes)
def test_box_operators_match_ivmpf_formulas(bits, pa, pb):
    with working_precision(bits - GUARD_BITS):
        a, b = make_box(pa), make_box(pb)
        assert endpoints(a + b) == endpoints(ref_add(a, b))
        assert endpoints(a - b) == endpoints(ref_sub(a, b))
        assert endpoints(-a) == endpoints(ref_neg(a))
        assert endpoints(a * b) == endpoints(ref_mul(a, b))
        assert endpoints(a.abs_sq()) == endpoints(ref_abs_sq(a))
        assert endpoints(a.conj()) == endpoints(ComplexBox(a.re, -a.im))
        same_or_both_raise(lambda x, y: x / y, ref_div, a, b)
        same_or_both_raise(ComplexBox.inv, ref_inv, b)


@pytest.mark.parametrize("bits", [53, 128, 512])
@settings(max_examples=40, deadline=None)
@given(wide_boxes, st.integers(min_value=-5, max_value=5))
def test_mixed_operands_match_ivmpf_formulas(bits, pa, k):
    with working_precision(bits - GUARD_BITS):
        a = make_box(pa)
        kb = ComplexBox(ri(k), iv.mpf(0))
        assert endpoints(k + a) == endpoints(ref_add(kb, a))
        assert endpoints(k - a) == endpoints(ref_sub(kb, a))
        assert endpoints(a - k) == endpoints(ref_sub(a, kb))
        assert endpoints(k * a) == endpoints(ref_mul(a, kb))
        assert endpoints(Fraction(1, 3) * a) == endpoints(
            ref_mul(a, ComplexBox(ri(Fraction(1, 3)), iv.mpf(0))))
        same_or_both_raise(lambda x: k / x, lambda x: ref_div(kb, x), a)


def ref_exp_2pi_i(z):
    """exp_2pi_i as the ivmpf operators and iv.exp, iv.cos, iv.sin spell it."""
    two_pi = 2 * iv.pi
    scale = iv.exp(-two_pi * z.im)
    ang = two_pi * z.re
    return ComplexBox(scale * iv.cos(ang), scale * iv.sin(ang))


@pytest.mark.parametrize("bits", [53, 128, 512])
@settings(max_examples=100, deadline=None)
@given(st.one_of(wide_boxes, st.tuples(small_fracs, small_fracs).map(
    lambda p: ((p[0], p[0]), (p[1], p[1])))))
def test_exp_2pi_i_matches_ivmpf_formulas(bits, parts):
    """Wide boxes, straddling zero or not, and point boxes (exact zero
    included) give the same endpoints on libmpi as through iv."""
    with working_precision(bits):
        z = make_box(parts)
        assert endpoints(exp_2pi_i(z)) == endpoints(ref_exp_2pi_i(z))
        assert endpoints(exp_2pi_i(z * Fraction(1, 8))) == endpoints(
            ref_exp_2pi_i(z * Fraction(1, 8)))


@pytest.mark.parametrize("bits", [53, 128])
@settings(max_examples=60, deadline=None)
@given(wide_boxes)
def test_pow_int_matches_square_and_multiply(bits, pa):
    with working_precision(bits - GUARD_BITS):
        a = make_box(pa)
        for n in range(-3, 9):
            same_or_both_raise(ComplexBox.pow_int, ref_pow_int, a, n)


@given(st.tuples(st.integers(-6, 6), st.integers(-6, 6)))
def test_pow_int_exact_matches_repeated_multiplication(parts):
    # On point boxes with small integer parts every product is exact, so
    # any multiplication order gives the same endpoints.
    with working_precision(128 - GUARD_BITS):
        a = ComplexBox(*parts)
        for n in range(-3, 9):
            rep = ComplexBox(1)
            for _ in range(abs(n)):
                rep = rep * a
            same_or_both_raise(a.pow_int, lambda k: rep.inv() if k < 0 else rep, n)


def test_pow_int_product_count(monkeypatch):
    products = []
    mul = ComplexBox.__mul__

    def counted(self, other):
        products.append(1)
        return mul(self, other)

    monkeypatch.setattr(ComplexBox, "__mul__", counted)
    with working_precision(64):
        a = ComplexBox(Fraction(1, 3), Fraction(2, 7))
        for n in range(1, 9):
            products.clear()
            a.pow_int(n)
            # n.bit_length() - 1 squarings, one product per further set bit
            assert len(products) == n.bit_length() - 1 + bin(n).count("1") - 1
