"""Certified evaluation of the Weierstrass elliptic function: interval
enclosures whose radii bound the true error, residual checks for the
defining differential equation, and safe evaluation near poles."""

from fractions import Fraction

from mpmath import mp

from wplab.cintervals import ComplexBox, working_precision
from wplab.lattice_core import make_lattice
from wplab.quadfield import QuadNum
from wplab.wp_numerics import (
    curve_add,
    exp_E,
    invariants,
    ode_residual,
    point_defect,
    wp,
)

F = Fraction

with working_precision(128):
    # Invariants of the square lattice: g3 is exactly zero by symmetry,
    # and the certified enclosure shows it.
    sq = make_lattice(QuadNum(1, 0, -1), QuadNum(0, 1, -1))
    m = invariants(sq, 128)
    print(f"g2 = {m.g2.mid()}  (radius {mp.nstr(m.g2.rad(), 3)})")
    print(f"g3 encloses zero: {m.g3.contains_zero()}")

    # The differential equation wp'^2 = 4wp^3 - g2 wp - g3 holds to within
    # the certified radius at any non-lattice argument.
    z = ComplexBox(F(1, 3), F(1, 5))
    r = ode_residual(m, z)
    print(f"\nODE residual at z = 1/3 + i/5: {mp.nstr(r.value, 3)}")

    # exp_E packages (wp, wp') as a curve point; the group law on the curve
    # mirrors addition of arguments.
    p = exp_E(m, ComplexBox(F(1, 3), F(1, 5)))
    q = exp_E(m, ComplexBox(F(1, 7), F(1, 4)))
    s_group = curve_add(m, p, q)
    s_direct = exp_E(m, ComplexBox(F(1, 3) + F(1, 7), F(1, 5) + F(1, 4)))
    print(f"group-law defect: {mp.nstr(point_defect(m, s_group, s_direct), 3)}")

    # Close to a pole the theta quotient still holds: exp_E stays certified
    # as long as theta1 is bounded away from zero, and agrees with wp.
    tiny = ComplexBox(F(1, 2 ** 20), F(0))
    near = exp_E(m, tiny)
    print(f"\nnear-pole |wp| ~ {mp.nstr(abs(near.X.mid()), 5)} "
          f"(relative radius {mp.nstr(near.X.rad() / near.X.abs_hi(), 3)})")
    print(f"agrees with wp: {near.X.overlaps(wp(m, tiny))}")
