"""Box helpers that only the tests use: a box widened by a radius, and a
lower bound on the modulus over a box."""

from mpmath import iv, mp

from wplab.cintervals import ComplexBox, ri_from_endpoints, ri_hi, ri_lo


def widened(z: ComplexBox, r) -> ComplexBox:
    """z with both components inflated by +-r (r an mpf or ivmpf upper bound)."""
    hi = ri_hi(r) if type(r).__name__ == "ivmpf" else mp.mpf(r)
    pad = ri_from_endpoints(-hi, hi)
    return z + ComplexBox(pad, pad)


def abs_lo(z: ComplexBox):
    """A certified lower bound on |w| over w in z."""
    lo = ri_lo(z.abs_sq())
    return mp.mpf(0) if lo <= 0 else ri_lo(iv.sqrt(iv.mpf([lo, lo])))
