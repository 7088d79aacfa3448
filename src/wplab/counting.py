"""Rational points of bounded height near the graph of h(t) = exp(g(log t)).

Heights are max(|numerator|, |denominator|) in lowest terms.  Exact
membership h(p) = q is numerically undecidable, so each candidate pair gets
a certified trichotomy: ConfirmedEps when the enclosure of h(p) - q sits
inside (-eps, eps), Excluded when it stays outside, Undetermined otherwise.
Counts N(H) feed a descriptive least-squares fit of log N against
log log H, reported with residuals and no claim beyond the data.

Rationals of height <= H are integer pairs (a, b) in increasing order,
from the Farey next-term recurrence (no gcd, no sort).  Enclosure endpoints
are exact rationals and the trichotomy cross-multiplies integers, so the
per-pair classification is exact given the (certified) function enclosure;
running at higher precision can only shrink enclosures, never flip a
confirmation into an exclusion at the same eps.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from fractions import Fraction
from itertools import accumulate
from math import gcd, log
from typing import NamedTuple, Optional, Sequence

from mpmath import iv, mp

from .cintervals import (
    ComplexBox,
    endpoint_fraction,
    ri,
    ri_from_endpoints,
    ri_hi,
    ri_lo,
    working_precision,
)
from .errors import Frozen, InvalidConfiguration, PrecisionError, PrecisionExhausted
from .lattice_core import Lattice
from .quadfield import QuadNum
from .wp_numerics import EllipticModel, invariants, wp


class RationalQ(Frozen):
    """Positive rational in lowest terms with its height."""

    __slots__ = ("numerator", "denominator")

    def __init__(self, numerator: int, denominator: int):
        if denominator <= 0 or numerator <= 0:
            raise InvalidConfiguration("RationalQ must be positive")
        if gcd(numerator, denominator) != 1:
            raise InvalidConfiguration("RationalQ must be in lowest terms")
        object.__setattr__(self, "numerator", numerator)
        object.__setattr__(self, "denominator", denominator)

    @property
    def height(self) -> int:
        return max(self.numerator, self.denominator)

    @property
    def value(self) -> Fraction:
        return Fraction(self.numerator, self.denominator)


class Domain(NamedTuple):
    """Open interval with rational (or infinite) endpoints."""

    lo: Optional[Fraction] = None
    hi: Optional[Fraction] = None


def _farey_pairs(height: int) -> list:
    """The pairs (a, b) of the positive rationals a/b in lowest terms with
    max(a, b) <= H, in increasing order.  Below 1 these are the Farey
    sequence of order H, each term following from the two before it;
    above 1 they are the reciprocals of those terms in reverse order."""
    if height < 1:
        return []
    below = []
    a, b, c, d = 0, 1, 1, height
    while d > 1:
        below.append((c, d))
        k = (height + b) // d
        a, b, c, d = c, d, k * c - a, k * d - b
    return below + [(1, 1)] + [(d, c) for c, d in reversed(below)]


def _bisect_pairs(pairs, num: int, den: int, right: bool = False) -> int:
    """Index of the first of the increasing pairs (a, b) with a/b >= num/den,
    or a/b > num/den when `right`; den > 0, so the sign of a*den - num*b is
    the sign of a/b - num/den."""
    find = bisect_right if right else bisect_left
    return find(pairs, 0, key=lambda ab: ab[0] * den - num * ab[1])


def _in_domain(pairs, domain: Domain) -> list:
    """The increasing pairs that lie inside the open domain."""
    lo, hi = domain.lo, domain.hi
    i0 = 0 if lo is None else _bisect_pairs(pairs, lo.numerator,
                                            lo.denominator, right=True)
    i1 = len(pairs) if hi is None else _bisect_pairs(pairs, hi.numerator,
                                                     hi.denominator)
    return pairs[i0:i1]


def enumerate_rationals(height_bound: int, domain: Domain) -> list:
    """All positive rationals of height <= H in the domain, increasing;
    none when H < 1, as no positive rational has height below 1."""
    return [RationalQ(a, b)
            for a, b in _in_domain(_farey_pairs(height_bound), domain)]


# -- target functions --------------------------------------------------------

class Identity:
    """h(t) = t; enclosures are exact."""

    def __init__(self, domain: Domain = Domain(Fraction(0), None)):
        self.domain = domain

    def enclosure(self, p: Fraction, precision: int):
        return p, p


class Composite:
    """h(t) = exp(g(log t)) with g the wp-function of a rectangular lattice
    restricted to the real line."""

    def __init__(self, lattice: Lattice, domain: Domain):
        self.lattice = lattice
        self.domain = domain
        self._models = {}
        self._cache = {}
        self._check_rectangular()
        self._check_pole_margin()

    def _check_rectangular(self):
        tau = self.lattice.tau
        if isinstance(tau, QuadNum):
            if tau.p != 0:
                raise InvalidConfiguration(
                    "lattice must be rectangular (tau purely imaginary) for "
                    "a real-valued inner function"
                )
        else:
            with working_precision(64):
                if not (ri_lo(tau.re) == 0 and ri_hi(tau.re) == 0):
                    raise InvalidConfiguration(
                        "numeric tau must have exactly zero real part"
                    )
        w1 = self.lattice.omega1_box()
        with working_precision(64):
            if not (ri_lo(w1.im) == 0 and ri_hi(w1.im) == 0 and ri_lo(w1.re) > 0):
                raise InvalidConfiguration(
                    "omega1 must be a positive real period"
                )

    def _check_pole_margin(self):
        """The image of the domain under log must stay a certified margin
        omega1/64 away from the real lattice points n * omega1."""
        if self.domain.lo is None or self.domain.lo <= 0 or self.domain.hi is None:
            raise InvalidConfiguration(
                "composite targets need a bounded positive domain"
            )
        with working_precision(64):
            w1 = self.lattice.omega1_box().re
            margin = w1 / 64
            lo = ri_lo(iv.log(ri(self.domain.lo)) - margin)
            hi = ri_hi(iv.log(ri(self.domain.hi)) + margin)
            # every n with n * omega1 possibly in [lo, hi]
            ns = ri_from_endpoints(lo, hi) / w1
            for n in range(int(mp.floor(ri_lo(ns))), int(mp.ceil(ri_hi(ns))) + 1):
                pole = n * w1
                if not (ri_hi(pole) < lo or ri_lo(pole) > hi):
                    raise InvalidConfiguration(
                        "domain's log-image is not certified outside the "
                        "margin of a wp pole"
                    )

    def _model(self, precision: int) -> EllipticModel:
        m = self._models.get(precision)
        if m is None:
            m = invariants(self.lattice, precision)
            self._models[precision] = m
        return m

    def enclosure(self, p: Fraction, precision: int):
        key = (p, precision)
        hit = self._cache.get(key)
        if hit is not None:
            return hit
        m = self._model(precision)
        with working_precision(precision):
            x = iv.log(ri(p))
            w = wp(m, ComplexBox(x, iv.mpf(0)))
            if not (ri_lo(w.im) <= 0 <= ri_hi(w.im)):
                raise PrecisionExhausted(
                    "inner value not certified real on the real segment"
                )
            h = iv.exp(w.re)
            lo, hi = h._mpi_
            out = (endpoint_fraction(lo), endpoint_fraction(hi))
        self._cache[key] = out
        return out


class ExpWpLog(Composite):
    """The concrete h(t) = exp(wp(log t)) target."""


# -- classification ----------------------------------------------------------

CONFIRMED = "confirmed_eps"
EXCLUDED = "excluded"
UNDETERMINED = "undetermined"


def _trichotomy(lo, hi, a: int, b: int, eps) -> str:
    """Class of the enclosure [lo, hi] of h(p) minus q = a/b (b > 0) against
    eps.  CONFIRMED when -eps < lo - q and hi - q < eps; EXCLUDED when
    [lo - q, hi - q] misses 0 and reaches no nearer than eps to it from
    either side; UNDETERMINED otherwise.  Each inequality is tested exactly,
    multiplied through by a positive common denominator."""
    ln, ld, hn, hd = lo.numerator, lo.denominator, hi.numerator, hi.denominator
    en, ed = eps.numerator, eps.denominator
    dlo = (ln * b - a * ld) * ed  # (lo - q) * ld*b*ed
    dhi = (hn * b - a * hd) * ed  # (hi - q) * hd*b*ed
    elo, ehi = en * ld * b, en * hd * b  # eps on the same two scales
    if -elo < dlo and dhi < ehi:
        return CONFIRMED
    if (dlo > 0 or dhi < 0) and (dlo >= elo or dhi <= -ehi):
        return EXCLUDED
    return UNDETERMINED


def default_eps(precision: int) -> Fraction:
    return Fraction(1, 2 ** (precision // 2))


# -- counting and the log-log fit --------------------------------------------

class CountReport(NamedTuple):
    h_schedule: tuple
    counts: tuple
    undetermined: tuple
    fit: Optional[tuple]  # (c, k, sum of squared residuals)
    eps: Fraction
    precision: int


def fit_log_counts(h_schedule: Sequence[int], counts: Sequence[int]):
    """Least squares of log N against log log H over H with N > 0; returns
    (c, k, ssr) or None below 3 usable data points."""
    xs, ys = [], []
    for H, n in zip(h_schedule, counts):
        if n > 0 and log(H) > 0:
            xs.append(log(log(H)))
            ys.append(log(n))
    if len(xs) < 3:
        return None
    n = len(xs)
    mx = sum(xs) / n
    my = sum(ys) / n
    sxx = sum((x - mx) ** 2 for x in xs)
    if sxx == 0:
        return None
    k = sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sxx
    b = my - k * mx
    ssr = sum((y - (k * x + b)) ** 2 for x, y in zip(xs, ys))
    from math import exp as _exp

    return (_exp(b), k, ssr)


def _counts_up_to(per_height, schedule) -> tuple:
    """For each H of the schedule, the sum of per_height[1..H]; 0 for H < 1."""
    upto = list(accumulate(per_height))
    return tuple(upto[H] if H > 0 else 0 for H in schedule)


def count_report(h, h_schedule: Sequence[int], eps=None,
                 precision: int = 128) -> CountReport:
    """N(H) over the schedule: confirmed pairs (p, q) with p in the domain
    and both heights <= H.  The qs are the Farey pairs of height <= max H
    and the ps their slice inside the domain.  Each p's enclosure [lo, hi]
    is computed once; only the qs in [lo - eps, hi + eps], found by
    bisection, go through the integer trichotomy, and the rest are excluded
    by construction.  Counts are prefix sums of per-height histograms."""
    schedule = list(h_schedule)
    if schedule != sorted(schedule) or len(set(schedule)) != len(schedule):
        raise InvalidConfiguration("H schedule must be strictly increasing")
    eps = Fraction(eps) if eps is not None else default_eps(precision)
    if eps <= 0:
        raise InvalidConfiguration("eps must be positive")
    h_max = max(schedule[-1], 0) if schedule else 0
    qs = _farey_pairs(h_max)
    pad, ed = eps.numerator, eps.denominator  # eps = pad/ed
    confirmed = [0] * (h_max + 1)
    undetermined = [0] * (h_max + 1)
    for pa, pb in _in_domain(qs, h.domain):
        ph = max(pa, pb)
        try:
            lo, hi = h.enclosure(Fraction(pa, pb), precision)
        except PrecisionError:
            for qa, qb in qs:
                undetermined[max(ph, qa, qb)] += 1
            continue
        ld, hd = lo.denominator, hi.denominator
        i0 = _bisect_pairs(qs, lo.numerator * ed - pad * ld, ld * ed)
        i1 = _bisect_pairs(qs, hi.numerator * ed + pad * hd, hd * ed,
                           right=True)
        for qa, qb in qs[i0:i1]:
            k = _trichotomy(lo, hi, qa, qb, eps)
            if k == CONFIRMED:
                confirmed[max(ph, qa, qb)] += 1
            elif k == UNDETERMINED:
                undetermined[max(ph, qa, qb)] += 1
    counts = _counts_up_to(confirmed, schedule)
    return CountReport(tuple(schedule), counts,
                       _counts_up_to(undetermined, schedule),
                       fit_log_counts(schedule, counts), eps, precision)
