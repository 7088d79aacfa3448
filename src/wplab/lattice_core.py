"""Lattice algebra: normalization, fundamental-domain reduction, complex
multiplication detection, isogeny and reflection equivalence with witnesses.

A lattice is span_Z(omega1, omega2) with tau = omega2/omega1 normalized to
Im(tau) > 0 and Gauss-reduced.  Periods are either exact (QuadNum, imaginary
quadratic) or certified rectangles (ComplexBox).  Exact lattices admit exact
isogeny decisions by comparing their quadratic fields; numeric lattices get a
bounded witness search that returns "unknown up to bound" rather than a
negative it cannot certify.
"""

from __future__ import annotations

import warnings
from fractions import Fraction
from math import gcd
from typing import NamedTuple, Optional, Union

from mpmath import iv, mp

from .cintervals import ComplexBox, quadnum_box, ri, ri_hi, ri_lo
from .errors import DegenerateLattice, PrecisionExhausted, UnknownUpToBound
from .quadfield import QuadNum, squarefree_kernel

ExactComplex = Union[QuadNum, ComplexBox]

IDENTITY = ((1, 0), (0, 1))
SWAP = ((0, 1), (1, 0))
INVERT = ((0, -1), (1, 0))


class MixedRepresentationWarning(UserWarning):
    """Exact operand silently downgraded to a numeric box."""


def mat_mul(m, n):
    return (
        (m[0][0] * n[0][0] + m[0][1] * n[1][0], m[0][0] * n[0][1] + m[0][1] * n[1][1]),
        (m[1][0] * n[0][0] + m[1][1] * n[1][0], m[1][0] * n[0][1] + m[1][1] * n[1][1]),
    )


def mat_det(m):
    return m[0][0] * m[1][1] - m[0][1] * m[1][0]


def translation(t: int):
    return ((1, -t), (0, 1))


def flt(m, tau):
    """Fractional-linear action (a*tau + b)/(c*tau + d); exact or boxed."""
    (a, b), (c, d) = m
    return (tau * a + b) / (tau * c + d)


# -- Gauss reduction ---------------------------------------------------------

def _round_half_up(x: Fraction) -> int:
    from math import floor

    return floor(x + Fraction(1, 2))


def _reduce_exact(tau: QuadNum):
    """Reduce to |Re| <= 1/2, |tau| >= 1 with Re in (-1/2, 1/2] and
    Re >= 0 on the |tau| = 1 boundary."""
    m = IDENTITY
    while True:
        t = _round_half_up(tau.p)
        if t:
            tau = QuadNum(tau.p - t, tau.q, tau.d)
            m = mat_mul(translation(t), m)
        if tau.norm() < 1:
            n = tau.norm()
            tau = QuadNum(-tau.p / n, tau.q / n, tau.d)
            m = mat_mul(INVERT, m)
        else:
            break
    if tau.p == Fraction(-1, 2):
        tau = QuadNum(Fraction(1, 2), tau.q, tau.d)
        m = mat_mul(translation(-1), m)
    if tau.norm() == 1 and tau.p < 0:
        tau = QuadNum(-tau.p, tau.q, tau.d)
        m = mat_mul(INVERT, m)
    return tau, m


def _reduce_numeric(tau: ComplexBox, strict: bool):
    """Interval Gauss reduction.  With strict=True an enclosure straddling
    the fundamental-domain boundary raises PrecisionExhausted; otherwise the
    loop stops at the best certified position (sound for all downstream
    series bounds, which use the actual enclosure of tau)."""
    m = IDENTITY
    max_steps = 64 + iv.prec
    for _ in range(max_steps):
        t = int(mp.nint(mp.mpf(tau.re.mid)))
        if t:
            tau = tau - t
            m = mat_mul(translation(t), m)
        n = tau.abs_sq()
        if ri_hi(n) < 1:
            tau = -(ComplexBox(1) / tau)
            m = mat_mul(INVERT, m)
        elif ri_lo(n) >= 1 or not strict:
            return tau, m
        else:
            raise PrecisionExhausted(
                "tau enclosure straddles the |tau| = 1 boundary"
            )
    raise PrecisionExhausted("Gauss reduction did not terminate")


# -- Lattice -----------------------------------------------------------------

class Lattice(NamedTuple):
    """Normalized lattice.  basis_change maps the constructor's (omega1,
    omega2) to the stored pair: omega1' = c*w2 + d*w1, omega2' = a*w2 + b*w1
    for basis_change = ((a, b), (c, d)), det = +-1."""

    omega1: ExactComplex
    omega2: ExactComplex
    tau: ExactComplex
    basis_change: tuple

    @property
    def exact(self) -> bool:
        return isinstance(self.tau, QuadNum)

    def omega1_box(self) -> ComplexBox:
        return quadnum_box(self.omega1) if self.exact else self.omega1

    def omega2_box(self) -> ComplexBox:
        return quadnum_box(self.omega2) if self.exact else self.omega2

    def tau_box(self) -> ComplexBox:
        return quadnum_box(self.tau) if self.exact else self.tau


def _lift_rational(w, partner):
    """A rational period joins the quadratic field of an exact partner, stays
    exact beside a rational one and is boxed beside a numeric one."""
    if not isinstance(w, (int, Fraction)):
        return w
    if isinstance(partner, QuadNum):
        return QuadNum.rational(w, partner.d)
    if isinstance(partner, (int, Fraction)):
        return QuadNum.rational(w)
    return ComplexBox(ri(w))


def _coerce_pair(w1, w2):
    """Bring the two periods to a common representation."""
    w1 = _lift_rational(w1, w2)
    w2 = _lift_rational(w2, w1)
    if isinstance(w1, QuadNum) and isinstance(w2, QuadNum):
        if w1.q != 0 and w2.q != 0 and w1.d != w2.d:
            warnings.warn(
                "periods live in different quadratic fields; downgrading to numeric",
                MixedRepresentationWarning,
            )
            return quadnum_box(w1), quadnum_box(w2)
        return w1, w2
    if isinstance(w1, QuadNum):
        warnings.warn("mixing exact and numeric periods; downgrading to numeric",
                      MixedRepresentationWarning)
        return quadnum_box(w1), w2
    if isinstance(w2, QuadNum):
        warnings.warn("mixing exact and numeric periods; downgrading to numeric",
                      MixedRepresentationWarning)
        return w1, quadnum_box(w2)
    return w1, w2


def make_lattice(w1: ExactComplex, w2: ExactComplex) -> Lattice:
    """Normalize (w1, w2): orient so Im(tau) > 0, then Gauss-reduce tau.
    The Z-span is unchanged (basis_change has determinant +-1)."""
    w1, w2 = _coerce_pair(w1, w2)
    if isinstance(w1, QuadNum):
        if w1.is_zero() or w2.is_zero():
            raise DegenerateLattice("zero period")
        tau0 = w2 / w1
        if tau0.q == 0:
            raise DegenerateLattice("periods have a real ratio")
        m = IDENTITY
        if tau0.q < 0:
            tau0 = 1 / tau0
            m = SWAP
        tau, red = _reduce_exact(tau0)
        m = mat_mul(red, m)
    else:
        tau0 = w2 / w1
        if ri_lo(tau0.im) > 0:
            m = IDENTITY
        elif ri_hi(tau0.im) < 0:
            tau0 = ComplexBox(1) / tau0
            m = SWAP
        else:
            raise DegenerateLattice(
                "cannot certify R-linear independence at this radius"
            )
        tau, red = _reduce_numeric(tau0, strict=False)
        m = mat_mul(red, m)
    (a, b), (c, d) = m
    new_w1 = w2 * c + w1 * d
    new_w2 = w2 * a + w1 * b
    return Lattice(new_w1, new_w2, tau, m)


def reduce_tau(tau: ExactComplex, strict: bool = True):
    """Gauss-reduce a period ratio.  Returns (tau_reduced, unimodular) with
    the matrix acting by fractional-linear maps."""
    if isinstance(tau, QuadNum):
        if tau.q <= 0:
            raise DegenerateLattice("tau must have positive imaginary part")
        return _reduce_exact(tau)
    if not ri_lo(tau.im) > 0:
        raise DegenerateLattice("cannot certify Im(tau) > 0")
    return _reduce_numeric(tau, strict=strict)


def conjugate(lattice: Lattice) -> Lattice:
    """Lattice of the coordinatewise-conjugated periods, renormalized."""
    return make_lattice(lattice.omega1.conj(), lattice.omega2.conj())


# -- complex multiplication --------------------------------------------------

def _integers_in(interval, bound, widen=0):
    """Integers of the interval, widened by `widen` on each side and clamped
    to [-bound, bound], in increasing order."""
    lo = int(mp.ceil(ri_lo(interval))) - widen
    hi = int(mp.floor(ri_hi(interval))) + widen
    return range(max(lo, -bound), min(hi, bound) + 1)


def cm_field(lattice: Lattice, height_bound: int = 100) -> Optional[int]:
    """The d of the CM field Q(sqrt(d)), or None when no integer quadratic
    relation a*tau^2 + b*tau + c = 0 with coefficients up to the bound
    survives interval certification."""
    tau = lattice.tau
    if isinstance(tau, QuadNum):
        return tau.d
    tau2 = tau * tau
    candidates = set()
    for a in range(1, height_bound + 1):
        # Im part: a*Im(tau^2) + b*Im(tau) = 0 pins b to one interval.
        b_iv = -(tau2.im * a) / tau.im
        for b in _integers_in(b_iv, height_bound):
            c_iv = -(tau2.re * a + tau.re * b)
            for c in _integers_in(c_iv, height_bound):
                if gcd(gcd(a, abs(b)), abs(c)) != 1:
                    continue
                disc = b * b - 4 * a * c
                if disc >= 0:
                    continue
                if (tau2 * a + tau * b + c).contains_zero():
                    candidates.add(squarefree_kernel(disc))
    if not candidates:
        return None
    if len(candidates) == 1:
        return candidates.pop()
    raise UnknownUpToBound(
        height_bound,
        f"several quadratic relations survive up to bound {height_bound}: "
        f"{sorted(candidates)}",
    )


# -- isogeny -----------------------------------------------------------------

class IsogenyVerdict(NamedTuple):
    outcome: str  # "isogenous" | "not_isogenous" | "unknown_up_to_bound"
    witness: Optional[tuple] = None  # 2x2 integer matrix, det != 0
    alpha: Optional[ExactComplex] = None  # alpha * Lambda2 subset Lambda1
    reason: Optional[str] = None
    bound: Optional[int] = None
    used_reflection: Optional[bool] = None

    @property
    def is_isogenous(self) -> bool:
        return self.outcome == "isogenous"


def _clear_matrix(m_frac):
    """Scale a rational 2x2 matrix to coprime integer entries."""
    from math import lcm

    denoms = [x.denominator for row in m_frac for x in row]
    scale = 1
    for d in denoms:
        scale = lcm(scale, d)
    ints = [[int(x * scale) for x in row] for row in m_frac]
    g = 0
    for row in ints:
        for x in row:
            g = gcd(g, abs(x))
    if g > 1:
        ints = [[x // g for x in row] for row in ints]
    return (tuple(ints[0]), tuple(ints[1]))


def witness_maps(tau1, tau2, m) -> bool:
    """Soundness of a fractional-linear witness: m . tau1 == tau2, exactly
    for QuadNum, within the combined enclosures for boxes."""
    if isinstance(tau1, QuadNum) and isinstance(tau2, QuadNum):
        return flt(m, tau1) == tau2
    t1 = tau1 if isinstance(tau1, ComplexBox) else quadnum_box(tau1)
    t2 = tau2 if isinstance(tau2, ComplexBox) else quadnum_box(tau2)
    (a, b), (c, d) = m
    residual = (t1 * a + b) - t2 * (t1 * c + d)
    return residual.contains_zero()


def _alpha_for(l1: Lattice, l2: Lattice, m):
    """Scalar with alpha * Lambda(l2) subset Lambda(l1) for tau2 = m.tau1:
    alpha = omega1(l1) * (c*tau1 + d) / omega1(l2)."""
    (_, _), (c, d) = m
    if l1.exact and l2.exact:
        return l1.omega1 * (l1.tau * c + d) / l2.omega1
    return l1.omega1_box() * (l1.tau_box() * c + d) / l2.omega1_box()


def _exact_isogeny(l1: Lattice, l2: Lattice) -> IsogenyVerdict:
    t1, t2 = l1.tau, l2.tau
    if t1.d != t2.d:
        return IsogenyVerdict(
            "not_isogenous",
            reason=f"distinct CM fields Q(sqrt({t1.d})) vs Q(sqrt({t2.d}))",
        )
    r = t2.q / t1.q
    m_frac = [[r, t2.p - t1.p * r], [Fraction(0), Fraction(1)]]
    m = _clear_matrix(m_frac)
    assert mat_det(m) != 0
    assert witness_maps(t1, t2, m), "exact witness failed its own check"
    return IsogenyVerdict("isogenous", witness=m, alpha=_alpha_for(l1, l2, m))


def _numeric_isogeny(l1: Lattice, l2: Lattice, bound: int) -> IsogenyVerdict:
    """Least witness by (max |entry|, a, b, c, d) with entries up to the
    bound.  (c, d) is swept by max(|c|, |d|); a*tau1 + b = tau2*(c*tau1 + d)
    then pins a by its imaginary part and b by its real part, each widened
    by one integer, and the residual check certifies every candidate."""
    t1, t2 = l1.tau_box(), l2.tau_box()
    best = None
    for k in range(bound + 1):
        if best is not None and k > best[0]:
            break
        for c in range(-k, k + 1):
            for d in range(-k, k + 1):
                if max(abs(c), abs(d)) != k:
                    continue
                den_box = t1 * c + d
                if den_box.contains_zero():
                    continue
                rhs = t2 * den_box
                for a in _integers_in(rhs.im / t1.im, bound, widen=1):
                    t1a = t1 * a
                    for b in _integers_in(rhs.re - t1a.re, bound, widen=1):
                        key = (max(abs(a), abs(b), k), a, b, c, d)
                        if best is not None and key >= best:
                            continue
                        if a * d - b * c == 0:
                            continue
                        if ((t1a + b) - rhs).contains_zero():
                            best = key
    if best is not None:
        m = (best[1:3], best[3:5])
        return IsogenyVerdict("isogenous", witness=m,
                              alpha=_alpha_for(l1, l2, m))
    return IsogenyVerdict("unknown_up_to_bound", bound=bound,
                          reason=f"no witness with entries up to {bound}")


def is_isogenous(l1: Lattice, l2: Lattice, search_bound: int = 10) -> IsogenyVerdict:
    """Isogeny test.  Exact CM lattices are decided by comparing quadratic
    fields (with an explicit fractional-linear witness); numeric lattices get
    an exhaustive bounded search with a certified witness or an honest
    unknown verdict."""
    if l1.exact and l2.exact:
        return _exact_isogeny(l1, l2)
    if l1.exact != l2.exact:
        warnings.warn("mixed exact/numeric isogeny test; downgrading to numeric",
                      MixedRepresentationWarning)
    return _numeric_isogeny(l1, l2, search_bound)


def isr_equivalent(l1: Lattice, l2: Lattice, search_bound: int = 10) -> IsogenyVerdict:
    """Isogeny-or-Schwarz-reflection equivalence: isogenous to l2 or to its
    conjugate lattice; used_reflection records the successful branch."""
    direct = is_isogenous(l1, l2, search_bound)
    if direct.is_isogenous:
        return direct._replace(used_reflection=False)
    reflected = is_isogenous(l1, conjugate(l2), search_bound)
    if reflected.is_isogenous:
        return reflected._replace(used_reflection=True)
    outcome = (
        "not_isogenous"
        if direct.outcome == "not_isogenous" and reflected.outcome == "not_isogenous"
        else "unknown_up_to_bound"
    )
    return IsogenyVerdict(
        outcome,
        reason=f"direct: {direct.reason}; reflected: {reflected.reason}",
        bound=search_bound if outcome == "unknown_up_to_bound" else None,
        used_reflection=None,
    )
