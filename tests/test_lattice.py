"""Lattice normalization, reduction, CM detection and isogeny witnesses."""

import cmath
import random
import warnings
from fractions import Fraction
from itertools import product
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st
from mpmath import iv, mp

from wplab.cintervals import (ComplexBox, as_box, quadnum_box, ri, ri_from_endpoints, ri_hi,
                              ri_lo, working_precision)
from wplab.errors import DegenerateLattice, PrecisionExhausted, UnknownUpToBound
from wplab import lattice_core
from wplab.lattice_core import (
    MixedRepresentationWarning,
    _center_radius,
    _integer_relations,
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
from wplab.quadfield import QuadNum, squarefree_kernel

from boxes import widened

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
                               as_box(0.2345 + 1.618j))
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
                               as_box(0.2345 + 1.618j))
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


# -- the relation search against the interval sweeps it replaced --------------

def _integers_in(interval, bound, widen=0):
    lo = int(mp.ceil(ri_lo(interval))) - widen
    hi = int(mp.floor(ri_hi(interval))) + widen
    return range(max(lo, -bound), min(hi, bound) + 1)


def sweep_isogeny(l1, l2, bound):
    """Reference search: (c, d) by shells of max(|c|, |d|); the imaginary
    and real parts of a*tau1 + b = tau2*(c*tau1 + d) pin a and b to
    intervals widened by one; (outcome, witness) of the least key."""
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
                        if a * d - b * c != 0 and ((t1a + b) - rhs).contains_zero():
                            best = key
    if best is None:
        return "unknown_up_to_bound", None
    return "isogenous", (best[1:3], best[3:5])


def sweep_isr(l1, l2, bound):
    direct = sweep_isogeny(l1, l2, bound)
    if direct[0] == "isogenous":
        return direct + (False,)
    reflected = sweep_isogeny(l1, conjugate(l2), bound)
    return reflected + (True if reflected[0] == "isogenous" else None,)


def sweep_cm_kernels(lattice, bound):
    """Reference cm_field sweep: a over 1..bound pins b by the imaginary
    part and c by the real part; the kernels of the surviving relations."""
    tau = lattice.tau
    tau2 = tau * tau
    kernels = set()
    for a in range(1, bound + 1):
        for b in _integers_in(-(tau2.im * a) / tau.im, bound):
            for c in _integers_in(-(tau2.re * a + tau.re * b), bound):
                disc = b * b - 4 * a * c
                if gcd(a, b, c) == 1 and disc < 0 and \
                        (tau2 * a + tau * b + c).contains_zero():
                    kernels.add(squarefree_kernel(disc))
    return kernels


def _verdict(v):
    return v.outcome, v.witness


def _transcendental_box(rng):
    """(e^s - 2) + i e^r for rationals s, r: no relation of small height."""
    s = Fraction(rng.randint(406, 916), 1000)
    r = Fraction(rng.randint(100, 900), 1000)
    return ComplexBox(iv.exp(ri(s)) - 2, iv.exp(ri(r)))


def _primitive_matrix(rng, height):
    while True:
        m = tuple(tuple(rng.randint(-height, height) for _ in range(2)) for _ in range(2))
        entries = [abs(x) for row in m for x in row]
        if max(entries) == height and mat_det(m) != 0 and gcd(*entries) == 1:
            return m


SEARCH_BOUNDS = (3, 5, 10, 20, 40)


def test_relation_search_matches_the_isogeny_sweep():
    rng = random.Random(22)
    bounds = iter(SEARCH_BOUNDS * 6)
    with working_precision(128):
        found = 0
        for height in range(1, 9):
            for _ in range(2):
                tau1 = _transcendental_box(rng)
                m = _primitive_matrix(rng, height)
                l1 = make_lattice(ComplexBox(1), tau1)
                l2 = make_lattice(ComplexBox(1), flt(m, tau1))
                bound = next(bounds)
                v = is_isogenous(l1, l2, bound)
                assert _verdict(v) == sweep_isogeny(l1, l2, bound)
                found += v.is_isogenous
        assert found >= 8
        for height in (1, 2, 3, 4, 6):
            tau1 = _transcendental_box(rng)
            m = _primitive_matrix(rng, height)
            l1 = make_lattice(ComplexBox(1), tau1)
            image = flt(m, tau1)
            l2 = make_lattice(ComplexBox(1), ComplexBox(-image.re, image.im))
            bound = next(bounds)
            v = isr_equivalent(l1, l2, bound)
            assert (v.outcome, v.witness, v.used_reflection) == sweep_isr(l1, l2, bound)
        l1 = make_lattice(ComplexBox(1), _transcendental_box(rng))
        l2 = make_lattice(ComplexBox(1), _transcendental_box(rng))
        for bound in SEARCH_BOUNDS:
            v = is_isogenous(l1, l2, bound)
            assert _verdict(v) == sweep_isogeny(l1, l2, bound)
            assert v.outcome == "unknown_up_to_bound" and v.bound == bound


@settings(max_examples=25, deadline=None)
@given(st.integers(-400, 400), st.integers(900, 2500),
       st.tuples(*[st.integers(-3, 3)] * 4), st.integers(3, 5))
def test_relation_search_matches_the_sweep_on_rational_boxes(x, y, entries, bound):
    m = (entries[:2], entries[2:])
    with working_precision(96):
        tau1 = ComplexBox(ri(Fraction(x, 1000)), ri(Fraction(y, 1000)))
        l1 = make_lattice(ComplexBox(1), tau1)
        tau2 = flt(m, tau1) if mat_det(m) else _transcendental_box(random.Random(x))
        l2 = make_lattice(ComplexBox(1), tau2)
        assert _verdict(is_isogenous(l1, l2, bound)) == sweep_isogeny(l1, l2, bound)


def test_planted_witness_at_the_bound_is_found():
    rng = random.Random(5)
    with working_precision(128):
        for bound in (3, 10, 40, 1000):
            tau1 = _transcendental_box(rng)
            l1 = make_lattice(ComplexBox(1), tau1)
            l2 = make_lattice(ComplexBox(1), flt(((bound, 1), (0, 1)), tau1))
            v = is_isogenous(l1, l2, bound)
            assert v.is_isogenous and witness_maps(l1.tau, l2.tau, v.witness)
            assert max(abs(x) for row in v.witness for x in row) == bound
            assert is_isogenous(l1, l2, bound - 1).outcome == "unknown_up_to_bound"


def test_relation_search_matches_the_cm_sweep():
    rng = random.Random(3)
    with working_precision(128):
        for d in (-1, -2, -3, -7, -11, -15):
            for _ in range(2):
                den = rng.randint(1, 5)
                tau = QuadNum(Fraction(rng.randint(-den, den), 2 * den),
                              Fraction(rng.randint(den, 3 * den), den), d)
                lat = make_lattice(ComplexBox(1), quadnum_box(tau))
                for bound in (100, 200):
                    kernels = sweep_cm_kernels(lat, bound)
                    assert len(kernels) <= 1
                    assert cm_field(lat, bound) == (kernels.pop() if kernels else None)
        for _ in range(3):
            lat = make_lattice(ComplexBox(1), _transcendental_box(rng))
            for bound in (100, 200):
                assert sweep_cm_kernels(lat, bound) == set()
                assert cm_field(lat, bound) is None


def test_cm_field_names_every_surviving_field():
    # a box around both i and i*sqrt(2) keeps tau^2 + 1 and tau^2 + 2
    with working_precision(64):
        wide = ComplexBox(iv.mpf(["-0.01", "0.01"]), iv.mpf(["0.99", "1.42"]))
        lat = make_lattice(ComplexBox(1), wide)
        kernels = sweep_cm_kernels(lat, 3)
        with pytest.raises(UnknownUpToBound) as caught:
            cm_field(lat, 3)
    assert {-1, -2} <= kernels
    assert caught.value.bound == 3
    assert str(caught.value) == ("several quadratic relations survive up to "
                                 f"bound 3: {sorted(kernels)}")


# boxes much wider than 1: tau^2 is about 2^39 wide at Im tau = 10^30 and
# 128 bits, 2^10 at 10^16 and 64 bits, 2^83 at 10^22 and 32 bits; the pairs
# are related by tau2 = 3 tau1 - 1/10 or 2 tau1 + 1/10 (height 30 or 20)
WIDE_PAIRS = ((128, (Fraction(1, 10), 10 ** 30), (Fraction(1, 5), 3 * 10 ** 30)),
              (64, (Fraction(1, 10), 10 ** 16), (Fraction(3, 10), 2 * 10 ** 16)),
              (32, (Fraction(1, 10), 10 ** 22), (Fraction(1, 5), 3 * 10 ** 22)))


def test_wide_boxes_match_the_sweeps_with_few_vectors(monkeypatch):
    enumerated = []
    short_vectors = lattice_core._short_vectors

    def counted(*args):
        for v in short_vectors(*args):
            enumerated.append(v)
            yield v

    monkeypatch.setattr(lattice_core, "_short_vectors", counted)
    for prec, tau1, tau2 in WIDE_PAIRS:
        with working_precision(prec):
            l1, l2 = (make_lattice(ComplexBox(1), ComplexBox(ri(x), ri(y))) for x, y in (tau1, tau2))
            for bound in (3, 10, 40):
                del enumerated[:]
                kernels = sweep_cm_kernels(l1, bound)
                assert cm_field(l1, bound) == (kernels.pop() if kernels else None)
                assert _verdict(is_isogenous(l1, l2, bound)) == sweep_isogeny(l1, l2, bound)
                v = isr_equivalent(l1, l2, bound)
                assert (v.outcome, v.witness, v.used_reflection) == sweep_isr(l1, l2, bound)
                if prec > 32:  # at 32 bits the residuals themselves pass thousands
                    assert len(enumerated) <= 100
        assert v.is_isogenous and max(abs(x) for row in v.witness for x in row) in (20, 30)


def _radii(boxes):
    """The slack of a plain box sum: each box's larger half-width."""
    return [_center_radius(m)[2] for m in boxes]


def test_center_radius_refuses_an_infinite_endpoint():
    # read as 0, the endpoint +inf gave [1, +inf] + 2i the center 1/2 + 2i
    # and half-width 0: a point box far from the box it stands for
    with working_precision(64):
        box = ComplexBox(iv.mpf([1, mp.inf]), ri(2))
        with pytest.raises(PrecisionExhausted, match="not a finite number"):
            _center_radius(box)
        assert _center_radius(ComplexBox(ri_from_endpoints(1, 2), ri(2))) == (
            Fraction(3, 2), Fraction(2), Fraction(1, 2))


def test_integer_relations_cover_the_cube():
    # half-integer centers give exact relations and wide boxes many near
    # ones; every vector whose box sum contains zero must be a candidate
    rng = random.Random(11)
    with working_precision(64):
        for _ in range(4):
            boxes = [widened(ComplexBox(ri(Fraction(rng.randint(-6, 6), 2)),
                                        ri(Fraction(rng.randint(-6, 6), 2))),
                             mp.mpf(rng.randint(0, 5)) / 100) for _ in range(3)]
            boxes.append(ComplexBox(1))
            found = list(_integer_relations(boxes, _radii(boxes), 3))
            cube = {n for n in product(range(-3, 4), repeat=4) if any(n)
                    and sum((m * c for m, c in zip(boxes, n)), ComplexBox(0)).contains_zero()}
            assert cube and cube <= set(found)
            # each vector once, in increasing (max |n_j|, n), within the bound
            assert found == sorted(set(found), key=lambda n: (max(map(abs, n)), n))
            assert max(map(abs, found[-1])) <= 3


def test_integer_relations_reach_the_edge_of_wide_boxes():
    # square boxes of radius 40-80 around large integer centers, the last
    # placed so that the box sum for n = (1, 1, 1, 1) has zero on its edge:
    # a search whose slack fell short of the radii by any factor misses it
    rng = random.Random(13)
    with working_precision(64):
        for _ in range(5):
            radii = [rng.randint(40, 80) for _ in range(4)]
            centers = [(rng.randint(-10 ** 4, 10 ** 4), rng.randint(-10 ** 4, 10 ** 4))
                       for _ in range(3)]
            centers.append((sum(radii) - sum(x for x, _ in centers), -sum(y for _, y in centers)))
            boxes = [widened(ComplexBox(ri(x), ri(y)), r) for (x, y), r in zip(centers, radii)]
            assert sum(boxes[1:], boxes[0]).contains_zero()
            found = list(_integer_relations(boxes, _radii(boxes), 2))
            cube = {n for n in product(range(-2, 3), repeat=4) if any(n)
                    and sum((m * c for m, c in zip(boxes, n)), ComplexBox(0)).contains_zero()}
            assert (1, 1, 1, 1) in cube and cube <= set(found)


def test_integer_relations_absorb_the_column_rounding():
    # exact point boxes x1..x7 and 3*(x1 + ... + x7): the relation
    # (3, ..., 3, -1) has an exact zero sum, but its rounded Kannan columns
    # can add up to several units; the column bound must still admit it
    rng = random.Random(8)
    relation = (3,) * 7 + (-1,)
    with working_precision(64):
        bits = iv.prec - 6
        for _ in range(60):
            xs = [ComplexBox(*(ri(Fraction(rng.randrange(2 ** (bits - 1), 2 ** bits), 2 ** bits))
                               for _ in range(2))) for _ in range(7)]
            boxes = xs + [sum(xs[1:], xs[0]) * 3]
            assert all(box.is_exact() for box in boxes)
            assert relation in set(_integer_relations(boxes, _radii(boxes), 3))


def test_a_negative_search_runs_one_lll_per_level(monkeypatch):
    # four boxes give four levels; the Gram determinant of the rows after
    # the lead one is the last Bareiss pivot, not a second reduction
    from wplab.cli import parse_value

    calls = []
    lll = lattice_core._lll
    monkeypatch.setattr(lattice_core, "_lll", lambda rows: calls.append(rows) or lll(rows))
    with working_precision(128):
        l1, l2 = (make_lattice(ComplexBox(1), parse_value(tau, 128))
                  for tau in ("0.3+1.7i", "0.1234567+1.3i"))
        v = is_isogenous(l1, l2, 10)
    assert v.outcome == "unknown_up_to_bound" and len(calls) == 4
