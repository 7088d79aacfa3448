"""Reference computations for the benchmark, coded apart from wplab.

Nothing here calls into the engine's arithmetic: the Weierstrass function
comes from mpmath's Jacobi theta functions at about twice the working
precision, ranks are recomputed by a separate elimination over Q and
Q(sqrt(d)), counts come from brute force, and isogeny witnesses are checked
as exact integer-matrix identities.  The engine's boxes are read only
through their raw endpoints.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

import mpmath
from mpmath import mp

# -- enclosures --------------------------------------------------------------


def endpoints(x):
    """Exact (lo, hi) mpf endpoints of an mpmath ivmpf."""
    lo, hi = x._mpi_
    return mp.make_mpf(lo), mp.make_mpf(hi)


def box_contains(box, value, bits: int) -> bool:
    """True when the complex number lies in the box, allowing the oracle's
    own error of 2^-bits relative to max(|value|, 1)."""
    with mp.workprec(bits + 64):
        value = mp.mpc(value)
        tol = mp.ldexp(max(abs(value), 1), -bits)
        re_lo, re_hi = endpoints(box.re)
        im_lo, im_hi = endpoints(box.im)
        return (re_lo - tol <= value.real <= re_hi + tol
                and im_lo - tol <= value.imag <= im_hi + tol)


def certified_bits(box) -> float:
    """-log2(rad / max(|mid|, 1)) of a rectangle, from its endpoints."""
    with mp.workprec(2048):
        re_lo, re_hi = endpoints(box.re)
        im_lo, im_hi = endpoints(box.im)
        rad = mp.sqrt(((re_hi - re_lo) / 2) ** 2 + ((im_hi - im_lo) / 2) ** 2)
        mid = mp.mpc((re_lo + re_hi) / 2, (im_lo + im_hi) / 2)
        if rad == 0:
            return float("inf")
        return float(-mp.log(rad / max(abs(mid), 1), 2))


# -- Weierstrass function from Jacobi theta functions -------------------------


def _theta_parts(tau, w1):
    q = mp.exp(1j * mp.pi * mp.mpc(tau))
    t2 = mpmath.jtheta(2, 0, q)
    t3 = mpmath.jtheta(3, 0, q)
    t4 = mpmath.jtheta(4, 0, q)
    return q, t2, t3, t4, mp.pi / mp.mpc(w1)


def wp_theta(tau, w1, z, bits: int):
    """(wp(z), wp'(z)) for the lattice Z*w1 + Z*tau*w1, via
    wp = s^2 (t2^2 t3^2 (th4/th1)^2 - (t2^4 + t3^4)/3), s = pi/w1, v = s*z."""
    with mp.workprec(bits):
        q, t2, t3, _, s = _theta_parts(tau, w1)
        v = s * mp.mpc(z)
        th1 = mpmath.jtheta(1, v, q)
        th4 = mpmath.jtheta(4, v, q)
        th1d = mpmath.jtheta(1, v, q, 1)
        th4d = mpmath.jtheta(4, v, q, 1)
        a = t2 ** 2 * t3 ** 2
        f = th4 / th1
        fd = (th4d * th1 - th4 * th1d) / th1 ** 2
        wp = s ** 2 * (a * f ** 2 - (t2 ** 4 + t3 ** 4) / 3)
        wp_prime = s ** 3 * 2 * a * f * fd
        return +wp, +wp_prime


def invariants_theta(tau, w1, bits: int):
    """(g2, g3) from the half-period values e1, e2, e3."""
    with mp.workprec(bits):
        _, t2, t3, t4, s = _theta_parts(tau, w1)
        e1 = s ** 2 * (t3 ** 4 + t4 ** 4) / 3
        e2 = s ** 2 * (t2 ** 4 - t4 ** 4) / 3
        e3 = -s ** 2 * (t2 ** 4 + t3 ** 4) / 3
        return +(2 * (e1 ** 2 + e2 ** 2 + e3 ** 2)), +(4 * e1 * e2 * e3)


# -- integer matrices ----------------------------------------------------------


def mat_mul(m, n):
    return (
        (m[0][0] * n[0][0] + m[0][1] * n[1][0], m[0][0] * n[0][1] + m[0][1] * n[1][1]),
        (m[1][0] * n[0][0] + m[1][1] * n[1][0], m[1][0] * n[0][1] + m[1][1] * n[1][1]),
    )


def det(m) -> int:
    return m[0][0] * m[1][1] - m[0][1] * m[1][0]


def unimodular_inverse(m):
    d = det(m)
    if d not in (1, -1):
        raise ValueError(f"matrix {m} is not unimodular")
    return ((m[1][1] * d, -m[0][1] * d), (-m[1][0] * d, m[0][0] * d))


def primitive_height(m) -> int:
    """max |entry| after dividing out the content of the matrix."""
    entries = [x for row in m for x in row]
    g = 0
    for x in entries:
        g = gcd(g, abs(x))
    return max(abs(x) for x in entries) // g


def proportional(w, m) -> bool:
    """w = lambda * m for a nonzero rational lambda (same Mobius map)."""
    a = [x for row in w for x in row]
    b = [x for row in m for x in row]
    if not any(a) or not any(b):
        return False
    return all(a[i] * b[j] == a[j] * b[i] for i in range(4) for j in range(4))


NEGATE = ((-1, 0), (0, 1))


# -- Q(sqrt(d)) numbers as (p, q) Fraction pairs --------------------------------


def quad_div(x, y, d):
    (p, q), (r, s) = x, y
    n = r * r - d * s * s
    return ((p * r - d * q * s) / n, (q * r - p * s) / n)


def quad_flt(m, x, d):
    (a, b), (c, e) = m
    num = (a * x[0] + b, a * x[1])
    den = (c * x[0] + e, c * x[1])
    return quad_div(num, den, d)


def cm_expected(x, y, d, bound, basis_change):
    """What cm_field must return for tau = x + y*sqrt(d) after the lattice's
    basis change: d when the primitive minimal polynomial of the reduced tau
    has coefficients up to the bound, None otherwise."""
    x, y = quad_flt(basis_change, (Fraction(x), Fraction(y)), d)
    coeffs = [Fraction(1), -2 * x, x * x - d * y * y]
    scale = 1
    for c in coeffs:
        scale = scale * c.denominator // gcd(scale, c.denominator)
    ints = [int(c * scale) for c in coeffs]
    g = 0
    for c in ints:
        g = gcd(g, abs(c))
    ints = [c // g for c in ints]
    return d if max(abs(c) for c in ints) <= bound else None


# -- exact rank over Q and Q(sqrt(d)) ------------------------------------------


class _Rational:
    @staticmethod
    def lift(x):
        return Fraction(x)

    @staticmethod
    def is_zero(x):
        return x == 0

    @staticmethod
    def sub(x, y):
        return x - y

    @staticmethod
    def mul(x, y):
        return x * y

    @staticmethod
    def div(x, y):
        return x / y


class _Quadratic:
    """Elements (p, q) = p + q*sqrt(d)."""

    def __init__(self, d):
        self.d = d

    def lift(self, x):
        if isinstance(x, tuple):
            return (Fraction(x[0]), Fraction(x[1]))
        return (Fraction(x), Fraction(0))

    @staticmethod
    def is_zero(x):
        return x[0] == 0 and x[1] == 0

    @staticmethod
    def sub(x, y):
        return (x[0] - y[0], x[1] - y[1])

    def mul(self, x, y):
        return (x[0] * y[0] + self.d * x[1] * y[1], x[0] * y[1] + x[1] * y[0])

    def div(self, x, y):
        return quad_div(x, y, self.d)


def rank(rows, field) -> int:
    """Rank by reduced row echelon form with unit pivots."""
    mat = [[field.lift(x) for x in r] for r in rows]
    if not mat:
        return 0
    out = 0
    for col in range(len(mat[0])):
        pivot = next((i for i in range(out, len(mat))
                      if not field.is_zero(mat[i][col])), None)
        if pivot is None:
            continue
        mat[out], mat[pivot] = mat[pivot], mat[out]
        pv = mat[out][col]
        mat[out] = [field.div(x, pv) for x in mat[out]]
        for i in range(len(mat)):
            if i != out and not field.is_zero(mat[i][col]):
                f = mat[i][col]
                mat[i] = [field.sub(a, field.mul(f, b))
                          for a, b in zip(mat[i], mat[out])]
        out += 1
    return out


# -- predimension by exhaustive subsets ------------------------------------------


class PredimOracle:
    """td, grk and delta of a configuration description (the benchmark's own
    input record, not the engine object), with subsets as bitmasks."""

    def __init__(self, desc):
        self.coords = desc["coordinates"]
        self.n = len(self.coords)
        self.index = {c: i for i, c in enumerate(self.coords)}
        self.matroid = [[Fraction(x) for x in row] for row in desc["matroid"]]
        self.slots = desc["slots"]
        self.points = desc["points"]
        self.relations = {int(k): v for k, v in desc["relations"].items()}
        self._td = {}
        self._grk = {}

    def field(self, slot):
        kind = self.slots[slot]
        if kind["kind"] == "wp_cm":
            return _Quadratic(kind["d"])
        return _Rational

    def td(self, mask):
        if mask not in self._td:
            cols = [i for i in range(self.n) if mask >> i & 1]
            self._td[mask] = rank([[row[i] for row in self.matroid]
                                   for i in cols], _Rational)
        return self._td[mask]

    def grk(self, slot, mask):
        key = (slot, mask)
        if key not in self._grk:
            pts = [p for p in self.points if p[0] == slot]
            rows = [[tuple(x) if isinstance(x, list) else x for x in r]
                    for r in self.relations.get(slot, [])]
            for pos, (_, b, e) in enumerate(pts):
                if mask >> self.index[b] & 1 and mask >> self.index[e] & 1:
                    rows.append([1 if k == pos else 0 for k in range(len(pts))])
            self._grk[key] = rank(rows, self.field(slot))
        return self._grk[key]

    def delta(self, slots, s_mask, c_mask=0):
        s_mask |= c_mask
        out = self.td(s_mask) - self.td(c_mask)
        for i in slots:
            out -= self.grk(i, s_mask) - self.grk(i, c_mask)
        return out

    def supersets(self, base):
        free = [i for i in range(self.n) if not base >> i & 1]
        for bits in range(1 << len(free)):
            s = base
            for j, i in enumerate(free):
                if bits >> j & 1:
                    s |= 1 << i
            yield s

    def dim(self, slots, a_mask, c_mask):
        return min(self.delta(slots, s, c_mask)
                   for s in self.supersets(a_mask | c_mask))

    def is_strong(self, slots, a_mask):
        return all(self.delta(slots, s, a_mask) >= 0
                   for s in self.supersets(a_mask))

    def mask(self, names):
        out = 0
        for c in names:
            out |= 1 << self.index[c]
        return out


# -- counting ------------------------------------------------------------------


def totient_count(height: int) -> int:
    """Positive rationals of height <= H: 2 * sum(phi(k)) - 1."""
    phi = list(range(height + 1))
    for i in range(2, height + 1):
        if phi[i] == i:
            for j in range(i, height + 1, i):
                phi[j] -= phi[j] // i
    return 2 * sum(phi[1:]) - 1


def rationals(height: int, lo=None, hi=None):
    """Brute-force list of a/b in lowest terms, height <= H, lo < a/b < hi."""
    out = []
    for a in range(1, height + 1):
        for b in range(1, height + 1):
            if gcd(a, b) == 1:
                v = Fraction(a, b)
                if (lo is None or v > lo) and (hi is None or v < hi):
                    out.append(v)
    return out


def expwplog_confirmed(w1: int, t: Fraction, lo, hi, height: int, eps):
    """Pairs (p, q) of height <= H with |exp(wp(log p)) - q| < eps for the
    rectangular lattice w1 * (Z + i t Z), and the pairs within 2^-100 of
    the eps boundary (where an engine may honestly report undetermined)."""
    confirmed = 0
    borderline = 0
    ps = rationals(height, lo, hi)
    qs = rationals(height)
    bits = 256
    with mp.workprec(bits):
        tau = mp.mpc(0, mp.mpf(t.numerator) / t.denominator)
        for p in ps:
            x = mp.log(mp.mpf(p.numerator) / p.denominator)
            wp, _ = wp_theta(tau, w1, x, bits)
            h = mp.exp(wp.real)
            for q in qs:
                gap = abs(h - mp.mpf(q.numerator) / q.denominator)
                e = mp.mpf(eps.numerator) / eps.denominator
                if abs(gap - e) < mp.ldexp(1, -100):
                    borderline += 1
                elif gap < e:
                    confirmed += 1
    return confirmed, borderline
