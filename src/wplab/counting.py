"""Rational points of bounded height near the graph of h(t) = exp(g(log t)).

Heights are max(|numerator|, |denominator|) in lowest terms.  Exact
membership h(p) = q is numerically undecidable, so each candidate pair gets
a certified trichotomy: ConfirmedEps when the enclosure of h(p) - q sits
inside (-eps, eps), Excluded when it stays outside, Undetermined otherwise.
Counts N(H) feed a descriptive least-squares fit of log N against
log log H, reported with residuals and no claim beyond the data.

Enclosure endpoints are converted to exact rationals before comparison, so
the per-pair classification is exact given the (certified) function
enclosure; running at higher precision can only shrink enclosures, never
flip a confirmation into an exclusion at the same eps.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, log
from typing import Optional, Sequence

from mpmath import iv, mp

from .cintervals import (
    ComplexBox,
    ri,
    ri_from_endpoints,
    ri_hi,
    ri_lo,
    working_precision,
)
from .errors import InvalidConfiguration, PrecisionError, PrecisionExhausted
from .lattice_core import Lattice
from .quadfield import QuadNum
from .wp_numerics import EllipticModel, invariants, wp


def mpf_to_fraction(x) -> Fraction:
    sign, man, exp, _ = mp.mpf(x)._mpf_
    if man == 0 and exp != 0:
        raise ValueError("non-finite endpoint")
    val = Fraction(int(man), 1)
    val = val * Fraction(2) ** exp
    return -val if sign else val


@dataclass(frozen=True, order=True)
class RationalQ:
    """Positive rational in lowest terms with its height."""

    numerator: int
    denominator: int

    def __post_init__(self):
        if self.denominator <= 0 or self.numerator <= 0:
            raise InvalidConfiguration("RationalQ must be positive")
        if gcd(self.numerator, self.denominator) != 1:
            raise InvalidConfiguration("RationalQ must be in lowest terms")

    @property
    def height(self) -> int:
        return max(self.numerator, self.denominator)

    @property
    def value(self) -> Fraction:
        return Fraction(self.numerator, self.denominator)


@dataclass(frozen=True)
class Domain:
    """Open interval with rational (or infinite) endpoints."""

    lo: Optional[Fraction] = None
    hi: Optional[Fraction] = None

    def contains(self, x: Fraction) -> bool:
        if self.lo is not None and not x > self.lo:
            return False
        if self.hi is not None and not x < self.hi:
            return False
        return True


def enumerate_rationals(height_bound: int, domain: Domain) -> list:
    """All positive rationals of height <= H in the domain, increasing."""
    if height_bound < 1:
        raise InvalidConfiguration("height bound must be >= 1")
    out = []
    for b in range(1, height_bound + 1):
        for a in range(1, height_bound + 1):
            if gcd(a, b) != 1:
                continue
            v = Fraction(a, b)
            if domain.contains(v):
                out.append(RationalQ(a, b))
    out.sort(key=lambda r: r.value)
    return out


# -- target functions --------------------------------------------------------

class Identity:
    """h(t) = t; enclosures are exact."""

    descriptor = "identity"

    def __init__(self, domain: Domain = Domain(Fraction(0), None)):
        self.domain = domain

    def enclosure(self, p: Fraction, precision: int):
        return p, p


class Composite:
    """h(t) = exp(g(log t)) with g the wp-function of a rectangular lattice
    restricted to the real line."""

    descriptor = "composite"

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
            out = (mpf_to_fraction(ri_lo(h)), mpf_to_fraction(ri_hi(h)))
        self._cache[key] = out
        return out


class ExpWpLog(Composite):
    """The concrete h(t) = exp(wp(log t)) target."""

    descriptor = "exp_wp_log"


# -- classification ----------------------------------------------------------

CONFIRMED = "confirmed_eps"
EXCLUDED = "excluded"
UNDETERMINED = "undetermined"


@dataclass(frozen=True)
class PointVerdict:
    p: RationalQ
    q: RationalQ
    klass: str
    interval: tuple  # exact rational enclosure of h(p) - q


def _classify_enclosure(lo: Fraction, hi: Fraction, eps: Fraction) -> str:
    if -eps < lo and hi < eps:
        return CONFIRMED
    if (lo > 0 or hi < 0) and (lo >= eps or hi <= -eps):
        return EXCLUDED
    return UNDETERMINED


def default_eps(precision: int) -> Fraction:
    return Fraction(1, 2 ** (precision // 2))


def classify_point(h, p: RationalQ, q: RationalQ, eps: Fraction,
                   precision: int = 128) -> PointVerdict:
    """Certified trichotomy for h(p) - q."""
    if not h.domain.contains(p.value):
        raise InvalidConfiguration("p outside the target's domain")
    try:
        lo, hi = h.enclosure(p.value, precision)
    except PrecisionError:
        return PointVerdict(p, q, UNDETERMINED, (None, None))
    dlo, dhi = lo - q.value, hi - q.value
    return PointVerdict(p, q, _classify_enclosure(dlo, dhi, Fraction(eps)),
                        (dlo, dhi))


# -- counting and the log-log fit --------------------------------------------

@dataclass(frozen=True)
class CountReport:
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


def _q_window(qvals, lo: Fraction, hi: Fraction, eps: Fraction):
    """Index range [i0, i1) of the sorted q values inside
    [lo - |eps|, hi + |eps|]; every q outside it is EXCLUDED against the
    enclosure [lo, hi] by construction."""
    pad = abs(eps)
    return bisect_left(qvals, lo - pad), bisect_right(qvals, hi + pad)


def count_report(h, h_schedule: Sequence[int], eps=None,
                 precision: int = 128) -> CountReport:
    """N(H) over the schedule: confirmed pairs (p, q) with p in the domain
    and both heights <= H.  Enclosures are computed once per p at the
    largest height and reused across the schedule; only the qs in each p's
    window are classified, the rest are excluded by construction."""
    schedule = list(h_schedule)
    if schedule != sorted(schedule) or len(set(schedule)) != len(schedule):
        raise InvalidConfiguration("H schedule must be strictly increasing")
    eps = Fraction(eps) if eps is not None else default_eps(precision)
    h_max = schedule[-1] if schedule else 0
    q_domain = Domain(Fraction(0), None)
    ps = enumerate_rationals(h_max, h.domain) if h_max else []
    qs = enumerate_rationals(h_max, q_domain) if h_max else []
    qvals = [q.value for q in qs]
    confirmed_heights = []
    undetermined_heights = []
    for p in ps:
        try:
            lo, hi = h.enclosure(p.value, precision)
        except PrecisionError:
            for q in qs:
                undetermined_heights.append(max(p.height, q.height))
            continue
        i0, i1 = _q_window(qvals, lo, hi, eps)
        for q in qs[i0:i1]:
            k = _classify_enclosure(lo - q.value, hi - q.value, eps)
            if k == CONFIRMED:
                confirmed_heights.append(max(p.height, q.height))
            elif k == UNDETERMINED:
                undetermined_heights.append(max(p.height, q.height))
    counts = tuple(
        sum(1 for h_ in confirmed_heights if h_ <= H) for H in schedule
    )
    undet = tuple(
        sum(1 for h_ in undetermined_heights if h_ <= H) for H in schedule
    )
    return CountReport(tuple(schedule), counts, undet,
                       fit_log_counts(schedule, counts), eps, precision)
