"""Height-bounded rational enumeration and the certified counting harness."""

import copy
import pickle
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import example, given, settings, strategies as st

from wplab.cintervals import ComplexBox, ri, ri_from_endpoints, ri_lo, working_precision
from wplab.counting import (
    CONFIRMED,
    EXCLUDED,
    UNDETERMINED,
    Domain,
    ExpWpLog,
    Identity,
    RationalQ,
    _trichotomy,
    count_report,
    default_eps,
    enumerate_rationals,
    fit_log_counts,
)
from wplab.errors import InvalidConfiguration, PrecisionError, UndecidablePoleProximity
from wplab.lattice_core import make_lattice
from wplab.quadfield import QuadNum

F = Fraction


def _inside(lo, hi, v):
    return (lo is None or v > lo) and (hi is None or v < hi)


def stern_brocot(height):
    """Independent enumeration oracle: expand the Stern-Brocot tree until
    both numerator and denominator exceed the bound."""
    out = []
    stack = [((0, 1), (1, 0))]
    while stack:
        (a, b), (c, d) = stack.pop()
        m = (a + c, b + d)
        if m[0] > height or m[1] > height:
            continue
        out.append(F(m[0], m[1]))
        stack.append(((a, b), m))
        stack.append((m, (c, d)))
    return sorted(out)


def test_enumeration_matches_stern_brocot():
    for h in (1, 2, 5, 12):
        ours = [r.value for r in enumerate_rationals(h, Domain(F(0), None))]
        assert ours == stern_brocot(h)


@settings(max_examples=80, deadline=None)
@given(data=st.data(), height=st.integers(1, 40))
def test_enumeration_against_stern_brocot(data, height):
    """Domain ends absent, exactly on a rational of the set (open ends), or
    anywhere, negative included; lo >= hi leaves nothing."""
    oracle = stern_brocot(height)
    end = st.one_of(st.none(), st.sampled_from(oracle),
                    st.fractions(-2, height + 1, max_denominator=2 * height))
    lo, hi = data.draw(end), data.draw(end)
    got = enumerate_rationals(height, Domain(lo, hi))
    assert [r.value for r in got] == [v for v in oracle if _inside(lo, hi, v)]


def test_enumeration_respects_domain():
    got = [r.value for r in enumerate_rationals(3, Domain(F(1, 2), F(2)))]
    assert got == [F(2, 3), F(1), F(3, 2)]
    assert F(1, 2) not in got  # open endpoints


@pytest.mark.parametrize("height", [0, -1, -7])
def test_enumeration_below_height_one_is_empty(height):
    """No positive rational has height below 1: the enumeration is empty
    there, as count_report's zeros say."""
    assert enumerate_rationals(height, Domain(F(0), None)) == []
    assert count_report(Identity(Domain(F(0), None)), (height,)).counts == (0,)


def test_rationalq_invariants():
    assert RationalQ(3, 2).height == 3
    with pytest.raises(InvalidConfiguration):
        RationalQ(2, 4)
    with pytest.raises(InvalidConfiguration):
        RationalQ(-1, 2)


def test_rationalq_is_an_immutable_value():
    r = RationalQ(3, 2)
    assert r == RationalQ(3, 2) and hash(r) == hash(RationalQ(3, 2))
    assert r != RationalQ(2, 3) and repr(r) == "RationalQ(numerator=3, denominator=2)"
    assert copy.copy(r) == pickle.loads(pickle.dumps(r)) == r
    with pytest.raises(AttributeError):
        r.numerator = 5
    with pytest.raises(AttributeError):
        del r.denominator


def test_rationalq_is_not_ordered():
    # fields would order 2/1 before 3/5 by numerator, not by value
    with pytest.raises(TypeError):
        RationalQ(2, 1) < RationalQ(3, 5)


def classify(h, p: RationalQ, q: RationalQ, eps, precision=128) -> str:
    """The class of the pair (p, q), as criterion 9 reads it: the enclosure
    of h(p) against q under _trichotomy; a precision failure is
    undetermined, as in count_report."""
    try:
        lo, hi = h.enclosure(p.value, precision)
    except PrecisionError:
        return UNDETERMINED
    return _trichotomy(lo, hi, q.numerator, q.denominator, eps)


def test_classification_trichotomy():
    eps = F(1, 100)
    ident = Identity(Domain(F(0), None))
    assert classify(ident, RationalQ(1, 2), RationalQ(1, 2), eps) == CONFIRMED
    assert classify(ident, RationalQ(1, 2), RationalQ(1, 3), eps) == EXCLUDED
    # |diff| = eps, outside the open band
    assert classify(ident, RationalQ(1, 2), RationalQ(51, 100), eps) == EXCLUDED
    assert _trichotomy(-eps / 2, 2 * eps, 0, 1, eps) == UNDETERMINED


def test_identity_counts():
    rep = count_report(Identity(Domain(F(0), None)), (2, 10))
    assert rep.counts == (3, 63)
    assert rep.undetermined == (0, 0)
    assert rep.fit is None  # two data points only


def test_schedule_must_increase():
    with pytest.raises(InvalidConfiguration):
        count_report(Identity(Domain(F(0), None)), (10, 2))


def test_fit_recovers_exponent():
    import math

    hs = [10, 100, 1000, 10 ** 4, 10 ** 5]
    counts = [round(2.0 * math.log(h) ** 3) for h in hs]
    c, k, ssr = fit_log_counts(hs, counts)
    assert abs(k - 3) < 0.05
    assert abs(c - 2) < 0.3
    assert ssr < 1e-3


RECT = make_lattice(QuadNum(1, 0, -1), QuadNum(0, 2, -1))


def test_composite_requires_rectangular():
    skew = make_lattice(QuadNum(1, 0, -1), QuadNum(F(1, 4), 2, -1))
    with pytest.raises(InvalidConfiguration):
        ExpWpLog(skew, Domain(F(11, 10), F(5, 2)))


def test_composite_pole_margin():
    # log-image of a domain containing 1 touches the pole at 0
    with pytest.raises(InvalidConfiguration):
        ExpWpLog(RECT, Domain(F(1, 2), F(2)))
    with pytest.raises(InvalidConfiguration):
        ExpWpLog(RECT, Domain(F(11, 10), None))  # unbounded
    for lo, hi in ((F(2), F(1)), (F(2), F(2))):  # empty, not an mpmath assertion
        with pytest.raises(InvalidConfiguration, match="with lo < hi, got 2:"):
            ExpWpLog(RECT, Domain(lo, hi))


def test_composite_pole_margin_is_certified():
    # omega1 = 1 exactly; the pole at 1 sits at log(e) and the margin is 1/64
    with pytest.raises(InvalidConfiguration):  # log(27/10) = 1 - 0.0067
        ExpWpLog(RECT, Domain(F(11, 10), F(27, 10)))
    ExpWpLog(RECT, Domain(F(11, 10), F(5, 2)))  # log(5/2) = 1 - 0.084
    # omega1 only known to lie in [1, 51/50]: the pole at -omega1 may sit
    # at -1.02, within the margin of log(357/1000) = -1.0300, although
    # -1 (the pole at the lower end of omega1) is 0.03 away.
    with working_precision(64):
        w1 = ComplexBox(ri_from_endpoints(ri(1), ri(F(51, 50))))
        wide = make_lattice(w1, ComplexBox(0, 2))
    assert ri_lo(wide.omega1_box().re) == 1
    with pytest.raises(InvalidConfiguration):
        ExpWpLog(wide, Domain(F(1, 4), F(357, 1000)))
    ExpWpLog(wide, Domain(F(1, 4), F(34, 100)))  # log(0.34) = -1.079


def test_composite_enclosures_nest_across_precision():
    h = ExpWpLog(RECT, Domain(F(11, 10), F(5, 2)))
    p = F(3, 2)
    lo1, hi1 = h.enclosure(p, 128)
    lo2, hi2 = h.enclosure(p, 256)
    assert lo1 < hi1 and lo2 < hi2
    assert lo1 <= lo2 and hi2 <= hi1  # higher precision only shrinks
    assert hi1 - lo1 < F(1, 2 ** 100)


def test_no_confirmed_excluded_flip_same_eps():
    h = ExpWpLog(RECT, Domain(F(11, 10), F(5, 2)))
    eps = default_eps(128)
    for p in enumerate_rationals(6, h.domain):
        for q in enumerate_rationals(6, Domain(F(0), None)):
            k1 = classify(h, p, q, eps, 128)
            k2 = classify(h, p, q, eps, 256)
            assert {k1, k2} != {CONFIRMED, EXCLUDED}


def test_count_report_composite_smoke():
    h = ExpWpLog(RECT, Domain(F(11, 10), F(5, 2)))
    rep = count_report(h, (3, 6), precision=128)
    assert rep.counts == (0, 0)
    assert rep.undetermined == (0, 0)


# -- count_report against a brute-force all-pairs oracle ----------------------

def all_pairs_oracle(h, schedule, eps, precision=128):
    """(counts, undetermined) from classifying every (p, q) pair by the
    trichotomy's definition in Fraction arithmetic, with no window, over
    the Stern-Brocot rationals: excluded needs h(p) != q certified, which
    decides pairs at eps <= 0.  A p whose enclosure fails leaves all its
    pairs undetermined."""
    qs = stern_brocot(schedule[-1])
    confirmed, undetermined = [], []
    for p in qs:
        if not _inside(h.domain.lo, h.domain.hi, p):
            continue
        try:
            lo, hi = h.enclosure(p, precision)
        except PrecisionError:
            lo = hi = None
        for q in qs:
            height = max(p.numerator, p.denominator, q.numerator, q.denominator)
            if lo is None:
                undetermined.append(height)
            elif -eps < lo - q and hi - q < eps:
                confirmed.append(height)
            elif not ((lo - q > 0 or hi - q < 0)  # certified h(p) != q
                      and (lo - q >= eps or hi - q <= -eps)):
                undetermined.append(height)
    return (tuple(sum(1 for x in confirmed if x <= H) for H in schedule),
            tuple(sum(1 for x in undetermined if x <= H) for H in schedule))


class WideQuadratic:
    """h(t) = t^2/3 + 1/7, known only to within +-1/100."""

    def __init__(self, domain=Domain(F(0), None), pole=None):
        self.domain = domain
        self.pole = pole

    def enclosure(self, p, precision):
        if p == self.pole:
            raise UndecidablePoleProximity("enclosure touches a pole")
        v = p * p / 3 + F(1, 7)
        return v - F(1, 100), v + F(1, 100)


def test_count_report_matches_all_pairs_oracle():
    cases = [
        (Identity(Domain(F(0), None)), (2, 5, 9), default_eps(128)),
        (Identity(Domain(F(1, 3), F(5, 2))), (3, 7, 12), default_eps(128)),
        (Identity(Domain(F(0), None)), (4, 8), F(1, 6)),
        (ExpWpLog(RECT, Domain(F(11, 10), F(5, 2))), (3, 6), default_eps(128)),
        (ExpWpLog(RECT, Domain(F(11, 10), F(5, 2))), (4, 7), F(1, 2)),
        (WideQuadratic(), (3, 6, 9), F(1, 20)),
    ]
    for h, schedule, eps in cases:
        rep = count_report(h, schedule, eps, 128)
        assert (rep.counts, rep.undetermined) == all_pairs_oracle(h, schedule, eps)


@settings(max_examples=60, deadline=None)
@given(target=st.sampled_from(["identity", "wide", "wide_with_pole"]),
       lo=st.one_of(st.none(), st.fractions(-1, 3, max_denominator=4)),
       hi=st.one_of(st.none(), st.fractions(0, 6, max_denominator=4)),
       schedule=st.lists(st.integers(-3, 10), min_size=1, max_size=4,
                         unique=True).map(sorted).filter(lambda s: s[-1] >= 1),
       eps=st.sampled_from([F(1, 2 ** 64), F(1, 64)]))
@example(target="wide_with_pole", lo=None, hi=None, schedule=[-1, 0, 1, 3, 7],
         eps=F(1, 64))
@example(target="identity", lo=F(1, 3), hi=None, schedule=[0, 2, 5],
         eps=F(1, 2 ** 64))
def test_count_report_against_all_pairs_oracle(target, lo, hi, schedule, eps):
    """Schedules with entries below 1 read 0 there; a pole at 3/2 (or 2,
    if 3/2 is outside the domain) makes the enclosure raise PrecisionError."""
    domain = Domain(lo, hi)
    if target == "identity":
        h = Identity(domain)
    elif target == "wide":
        h = WideQuadratic(domain)
    else:
        h = WideQuadratic(domain, pole=F(3, 2) if _inside(lo, hi, F(3, 2)) else F(2))
    rep = count_report(h, schedule, eps, 128)
    assert (rep.counts, rep.undetermined) == all_pairs_oracle(h, schedule, eps)


@pytest.mark.parametrize("eps", [F(0), F(-1, 64)])
def test_count_report_rejects_an_eps_that_is_not_positive(eps):
    # no pair is confirmed within eps <= 0, so such a count says nothing
    with pytest.raises(InvalidConfiguration, match="eps must be positive"):
        count_report(Identity(), (2, 5), eps)


def test_wide_enclosures_reach_all_three_classes():
    h = WideQuadratic()
    eps = F(1, 20)
    qs = enumerate_rationals(9, Domain(F(0), None))
    seen = {classify(h, p, q, eps)
            for p in enumerate_rationals(9, h.domain) for q in qs}
    assert seen == {CONFIRMED, EXCLUDED, UNDETERMINED}
    rep = count_report(h, (9,), eps)
    assert rep.counts[0] > 0 and rep.undetermined[0] > 0


def test_precision_error_counts_as_undetermined():
    h = WideQuadratic(pole=F(2))
    assert classify(h, RationalQ(2, 1), RationalQ(1, 1), F(1, 20)) == UNDETERMINED
    rep = count_report(h, (2, 3), F(1, 20))
    assert (rep.counts, rep.undetermined) == all_pairs_oracle(h, (2, 3), F(1, 20))
    clean = count_report(WideQuadratic(), (2, 3), F(1, 20))
    # p = 2 (height 2) pairs with 3 qs up to H = 2 and 7 up to H = 3; all
    # turn undetermined, including its one confirmed pair (2, 3/2)
    assert tuple(u - c for u, c in zip(rep.undetermined, clean.undetermined)) == (3, 7)
    assert tuple(c - n for c, n in zip(clean.counts, rep.counts)) == (0, 1)
