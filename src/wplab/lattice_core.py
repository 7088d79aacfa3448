"""Lattice algebra: normalization, fundamental-domain reduction, complex
multiplication detection, isogeny and reflection equivalence with witnesses.

A lattice is span_Z(omega1, omega2) with tau = omega2/omega1 normalized to
Im(tau) > 0 and Gauss-reduced.  Periods are either exact (QuadNum, imaginary
quadratic) or certified rectangles (ComplexBox).  Exact lattices admit exact
isogeny decisions by comparing their quadratic fields; numeric lattices get a
bounded witness search that returns "unknown up to bound" rather than a
negative it cannot certify.

Both numeric searches, the CM relation a*tau^2 + b*tau + c = 0 and the
isogeny witness a*tau1 + b = tau2*(c*tau1 + d), are one integer-relation
search (_integer_relations): a Kannan embedding of the boxes' exact dyadic
centers, reduced by an integral LLL (Lenstra-Lenstra-Lovasz, Math. Ann. 261,
1982; Cohen, Alg. 2.6.7) and enumerated by Fincke-Pohst (Math. Comp. 44,
1985) inside a norm bound derived from the boxes' radii.  That bound holds
every coefficient vector whose residual box contains zero, so the searches
miss no witness below their bound; without a relation among narrow boxes
their cost barely grows with the bound.  A positive verdict still means an
interval residual that contains zero.
"""

from __future__ import annotations

import warnings
from fractions import Fraction
from math import ceil, floor, gcd, isqrt
from typing import NamedTuple, Optional, Union

from mpmath import iv, mp

from .cintervals import ComplexBox, as_box, endpoint_fraction, quadnum_box, ri, ri_hi, ri_lo
from .errors import DegenerateLattice, PrecisionExhausted, UnknownUpToBound
from .quadfield import QuadNum, _bareiss, _primitive_row, squarefree_kernel

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


# -- integer relations -------------------------------------------------------

def _center_radius(box: ComplexBox):
    """Exact dyadic center (re, im) and the larger half-width of a box; a
    box with an infinite endpoint raises PrecisionExhausted."""
    (rlo, rhi), (ilo, ihi) = (
        [endpoint_fraction(e) for e in part._mpi_] for part in (box.re, box.im))
    return (rlo + rhi) / 2, (ilo + ihi) / 2, max(rhi - rlo, ihi - ilo) / 2


def _lll(rows):
    """Integral LLL with delta = 3/4 (Cohen, Alg. 2.6.7) on independent
    integer rows.  Returns the reduced rows b, the Gram determinants d
    (d[0] = 1, d[i] of the first i rows) and lam[i][j] = d[j+1] * mu_ij, so
    |b*_i|^2 = d[i+1]/d[i] exactly."""
    n = len(rows)
    b = [None] + [list(r) for r in rows]
    d = [1] + [0] * n
    lam = [[0] * (n + 1) for _ in range(n + 1)]

    def dot(u, v):
        return sum(x * y for x, y in zip(u, v))

    def red(k, l):
        if 2 * abs(lam[k][l]) > d[l]:
            q = (2 * lam[k][l] + d[l]) // (2 * d[l])
            b[k] = [x - q * y for x, y in zip(b[k], b[l])]
            lam[k][l] -= q * d[l]
            for i in range(1, l):
                lam[k][i] -= q * lam[l][i]

    def swap(k):
        b[k], b[k - 1] = b[k - 1], b[k]
        for j in range(1, k - 1):
            lam[k][j], lam[k - 1][j] = lam[k - 1][j], lam[k][j]
        mu = lam[k][k - 1]
        new = (d[k - 2] * d[k] + mu * mu) // d[k - 1]
        for i in range(k + 1, kmax + 1):
            t = lam[i][k]
            lam[i][k] = (d[k] * lam[i][k - 1] - mu * t) // d[k - 1]
            lam[i][k - 1] = (new * t + mu * lam[i][k]) // d[k]
        d[k - 1] = new

    d[1] = dot(b[1], b[1])
    k, kmax = 2, 1
    while k <= n:
        if k > kmax:
            kmax = k
            for j in range(1, k + 1):
                u = dot(b[k], b[j])
                for i in range(1, j):
                    u = (d[i] * u - lam[k][i] * lam[j][i]) // d[i - 1]
                if j < k:
                    lam[k][j] = u
                else:
                    d[k] = u
        red(k, k - 1)
        if 4 * d[k] * d[k - 2] < 3 * d[k - 1] ** 2 - 4 * lam[k][k - 1] ** 2:
            swap(k)
            k = max(2, k - 1)
        else:
            for l in range(k - 2, 0, -1):
                red(k, l)
            k += 1
    return b[1:], d, [row[1:] for row in lam[1:]]


def _short_vectors(b, d, lam, norm2):
    """Fincke-Pohst: every nonzero integer combination of the LLL-reduced
    rows b with squared norm at most norm2.  Level i adds
    (d[i+1] x_i + N_i)^2 / (d[i+1] d[i]) with N_i = sum_{j>i} lam[j][i] x_j,
    so each range of x_i is exact integer arithmetic."""
    n = len(b)
    x = [0] * n

    def level(i, budget):
        di = d[i + 1]
        nn = sum(lam[j][i] * x[j] for j in range(i + 1, n))
        s = isqrt(floor(budget * di * d[i]))
        for xi in range(-((s + nn) // di), (s - nn) // di + 1):
            x[i] = xi
            if i:
                yield from level(i - 1, budget - Fraction((di * xi + nn) ** 2, di * d[i]))
            elif any(x):
                yield [sum(xj * row[c] for xj, row in zip(x, b)) for c in range(len(b[0]))]
        x[i] = 0

    return level(n - 1, Fraction(norm2))


def _integer_relations(boxes, slack, bound: int, doubling: bool = False):
    """Every integer vector n with max |n_j| <= bound that could satisfy
    sum n_j m_j = 0 for the complex boxes m_j, in increasing order of
    (max |n_j|, n): a superset of the vectors on which the residual filters
    of cm_field and _numeric_isogeny accept, so a caller after the least
    accepted vector stops at the first.

    Let mu_j be the exact dyadic center of m_j and rho_j its larger
    half-width, |z| = max(|Re z|, |Im z|) and p = iv.prec.  The caller's
    slack g_j bounds what the radii of its residual owe to n_j; with the
    outward rounding, a filter whose residual box contains 0 accepts only
    vectors with |sum n_j mu_j| <= sum |n_j| sigma_j, where
    sigma_j = g_j + 2^(6-p) (1 + |mu_j| + rho_j):
    - the cm_field residual, the box sum of n_j m_j, lies within
      sum n_j mu_j +- sum |n_j| rho_j, so g_j = rho_j;
    - a real interval product X Y lies within x y +- (|x| h_Y + |y| h_X +
      h_X h_Y) and has half-width at least |x| h_Y + |y| h_X (x, y the
      centers, h the half-widths).  So the isogeny residual
      (t1 a + b) - t2 (t1 c + d) on the boxes (t1, 1, -t1 t2, -t2) lies
      within its value at the centers +- (|a| rho1 + |c| rho3 + |d| rho4 +
      2 |c| rho1 rho4), and that value is within |c| rho3 of
      sum n_j mu_j, since the product of the centers lies in m3; so
      g = (rho1, 0, 2 rho3 + 2 rho1 rho4, rho4);
    - outward rounding at p bits moves an endpoint by at most 2^(1-p) times
      its magnitude.  The magnitudes in either residual, times the factor
      that later products apply to them, are at most
      2 sum |n_j| (1 + |mu_j| + rho_j): in the isogeny residual t1 c + d is
      multiplied by t2, and |t1| |t2| <= sqrt(2) |m3| as m3 holds every
      product.  The moves, with what later products make of them, add up
      to less than 16 times that.

    A nonzero candidate has a first nonzero entry n_j in the order of
    decreasing sigma_j, and the search has one level for each j.  Level j
    works on the coordinates S from j on, where |sum n_l mu_l| <= E =
    B sum_{l in S} sigma_l for B = max |n_l|.  Its Kannan embedding rows
    [2^w e_l | round(2^s Re mu_l), round(2^s Im mu_l)], l in S, have a
    column scale 2^s and an identity weight 2^w, one of them 1, such that
    2^s E is about 2^w B.  They turn n into a lattice vector whose first
    entries are 2^w n_l and whose two last entries are at most
    T = ceil(2^s E) + |S| B (rounding the columns costs at most |S| B / 2),
    so its norm is at most R, R^2 = |S| 4^w B^2 + 2 T^2.  LLL reduces the
    rows once, Fincke-Pohst enumerates the lattice vectors of norm at most
    R, and those with n_j != 0, max |n_l| <= B and both columns within T are
    the level's candidates.  No candidate is missed, so a search that
    accepts none has no solution up to the bound and "unknown up to bound"
    is an honest verdict.

    The weight and the levels keep the enumeration near the candidates
    when the slacks are large or far apart, as for the box of tau^2 at
    Im tau = 10^30 and 128 bits, about 2^39 wide beside the exact box of 1.
    Every enumerated vector has max |n_l| <= R / 2^w, a few times B.  A
    vector with n_j != 0 is at least as long as the distance of the row of
    j from the span of the other rows, whose square is the quotient of
    their Gram determinants: LLL's, and the last pivot of _bareiss on the
    other rows' Gram matrix, positive definite as the rows are independent.
    So a level where that distance exceeds R is skipped; this is what
    happens when a wide box also has a huge center, and the later levels
    then see only the narrow boxes' slack.  One ball for all coordinates
    would hold every n with n_j = 0 whose sum stays within B sigma_j, most
    of them far from any candidate.

    The cost is set by the number of lattice vectors of norm at most R.
    Without a relation and with boxes narrow against 1/B that number is
    small at every bound (the shortest vector has length near
    2^(2s/|S|), far above R), so the cost barely grows with the bound;
    boxes wide enough for many n to pass the residual give many
    candidates, as they did for the interval sweeps.  One enumeration at
    the bound serves a caller that reads every candidate.  With doubling,
    Fincke-Pohst runs for B = 1, 2, 4, ..., bound and each run yields the
    vectors with B/2 < max |n_j| <= B, so a caller that stops at its first
    accepted vector pays for an enumeration at about twice that vector's
    height, not at the bound: an isogeny witness of height 1 at bound 1000
    takes about 1.5 ms, against 98 ms for one enumeration (2-CPU Xeon VM).
    Each run repeats the earlier ones, so a caller that reads every
    candidate would pay about twice as much."""
    k = len(boxes)
    cols = [_center_radius(m) for m in boxes]
    eps = Fraction(2) ** (6 - iv.prec)
    sigma = [g + eps * (1 + max(abs(x), abs(y)) + r) for g, (x, y, r) in zip(slack, cols)]
    order = sorted(range(k), key=lambda j: sigma[j], reverse=True)
    levels = []
    for i in range(k):
        part = order[i:]
        unit = sum(sigma[j] for j in part)
        e = unit.denominator.bit_length() - unit.numerator.bit_length()
        s, w = max(e, 0), max(-e, 0)
        rows = [[int(j == l) << w for l in part] +
                [round(cols[j][0] * 2 ** s), round(cols[j][1] * 2 ** s)] for j in part]
        reduced = _lll(rows)
        others = _bareiss([[sum(x * y for x, y in zip(u, v)) for v in rows[1:]]
                           for u in rows[1:]])[1]
        levels.append((part, unit * 2 ** s, w, reduced, Fraction(reduced[1][-1], others)))
    done = 0
    while done < bound:
        top = min(bound, 2 * done or 1) if doubling else bound
        shell = []
        for part, scaled, w, reduced, gap in levels:
            m = len(part)
            t = ceil(top * scaled) + m * top
            norm2 = m * (top << w) ** 2 + 2 * t * t
            if gap > norm2:
                continue
            for v in _short_vectors(*reduced, norm2):
                n = [0] * k
                for j, x in zip(part, v):
                    n[j] = x >> w
                if n[part[0]] and done < max(map(abs, n)) <= top \
                        and abs(v[m]) <= t and abs(v[m + 1]) <= t:
                    shell.append(tuple(n))
        yield from sorted(shell, key=lambda n: (max(map(abs, n)), n))
        done = top


# -- complex multiplication --------------------------------------------------

def cm_field(lattice: Lattice, height_bound: int = 100) -> Optional[int]:
    """The d of the CM field Q(sqrt(d)), or None when no primitive integer
    quadratic relation a*tau^2 + b*tau + c = 0 (a > 0, b^2 - 4ac < 0) with
    coefficients up to the bound survives interval certification.  The
    candidates are the relations _integer_relations finds among the boxes
    (tau^2, tau, 1); several surviving fields raise UnknownUpToBound."""
    tau = lattice.tau
    if isinstance(tau, QuadNum):
        return tau.d
    tau2 = tau * tau
    boxes = (tau2, tau, ComplexBox(1))
    candidates = set()
    for n in _integer_relations(boxes, [_center_radius(m)[2] for m in boxes], height_bound):
        a, b, c = n if n[0] > 0 else (-x for x in n)
        disc = b * b - 4 * a * c
        if gcd(a, b, c) == 1 and disc < 0 and (tau2 * a + tau * b + c).contains_zero():
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


def witness_maps(tau1, tau2, m) -> bool:
    """Soundness of a fractional-linear witness: m . tau1 == tau2, exactly
    for QuadNum, within the combined enclosures for boxes."""
    if isinstance(tau1, QuadNum) and isinstance(tau2, QuadNum):
        return flt(m, tau1) == tau2
    t1, t2 = as_box(tau1), as_box(tau2)
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
    a, b, c, d = _primitive_row((r, t2.p - t1.p * r, 0, 1))
    m = ((a, b), (c, d))
    assert mat_det(m) != 0
    assert witness_maps(t1, t2, m), "exact witness failed its own check"
    return IsogenyVerdict("isogenous", witness=m, alpha=_alpha_for(l1, l2, m))


def _numeric_isogeny(l1: Lattice, l2: Lattice, bound: int) -> IsogenyVerdict:
    """Least witness by (max |entry|, a, b, c, d) with entries up to the
    bound.  a*tau1 + b = tau2*(c*tau1 + d) is the integer relation
    (a, b, c, d) among the boxes (tau1, 1, -tau1*tau2, -tau2);
    _integer_relations yields the candidates in key order, and the first
    that witness_maps certifies is the witness."""
    t1, t2 = l1.tau_box(), l2.tau_box()
    boxes = (t1, ComplexBox(1), -(t1 * t2), -t2)
    r1, _, r3, r4 = (_center_radius(m)[2] for m in boxes)
    slack = (r1, 0, 2 * r3 + 2 * r1 * r4, r4)
    for a, b, c, d in _integer_relations(boxes, slack, bound, doubling=True):
        m = ((a, b), (c, d))
        if mat_det(m) != 0 and not (t1 * c + d).contains_zero() \
                and witness_maps(t1, t2, m):
            return IsogenyVerdict("isogenous", witness=m, alpha=_alpha_for(l1, l2, m))
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
