"""Exact quadratic field arithmetic: field axioms and numeric agreement;
the integer elimination and row scaling against the rational oracle."""

import math
import pickle
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from wplab.errors import InvalidConfiguration
from wplab.oracles import rank_det
from wplab.quadfield import (
    QuadNum,
    _bareiss,
    _checked_d,
    _primitive_row,
    _rational,
    is_squarefree,
    squarefree_kernel,
)

DS = (-1, -2, -3, -5, -7, -11)

fracs = st.fractions(
    min_value=Fraction(-50), max_value=Fraction(50), max_denominator=12
)


def quads(d):
    return st.builds(lambda p, q: QuadNum(p, q, d), fracs, fracs)


def test_squarefree_kernel():
    assert squarefree_kernel(-4) == -1
    assert squarefree_kernel(-8) == -2
    assert squarefree_kernel(-12) == -3
    assert squarefree_kernel(-28900) == -1
    assert squarefree_kernel(-7) == -7


def test_is_squarefree():
    assert is_squarefree(-1) and is_squarefree(-2) and is_squarefree(-105)
    assert not is_squarefree(-4) and not is_squarefree(-12)


def test_quadnum_is_immutable_and_pickles():
    a = QuadNum(Fraction(1, 2), 3, -7)
    with pytest.raises(AttributeError):
        a.p = Fraction(0)
    b = pickle.loads(pickle.dumps(a))
    assert b == a and hash(b) == hash(a) and type(b.q) is Fraction


def test_constructor_rejects_bad_d():
    # twice over: the second pass reads the cached squarefree test
    for _ in range(2):
        for d in (4, 0, -4, -12):
            with pytest.raises(ValueError):
                QuadNum(1, 1, d)
        assert QuadNum(1, 1, -3).d == -3


def test_a_field_d_is_bounded_where_it_is_read():
    # squarefree_kernel trial-divides up to sqrt(|d|): a 31-digit d took
    # longer than 20 s before it was refused
    big = -1000000000000000000000000000057
    for d in (big, -10 ** 12 - 1):
        with pytest.raises(ValueError, match="at most 10\\^12, got"):
            QuadNum(0, 1, d)
    with pytest.raises(InvalidConfiguration, match="at most 10\\^12, got -2.5"):
        _checked_d(-2.5, InvalidConfiguration)
    assert QuadNum(0, 1, -999999999989).d == -999999999989  # a prime


@pytest.mark.parametrize("text, value", [
    (3, Fraction(3)), ("-3/4", Fraction(-3, 4)), (" 1_000/3 ", Fraction(1000, 3)),
    ("0.25", Fraction(1, 4)), ("-0", Fraction(0)), ("1.5e-3", Fraction(3, 2000)),
    ("2E+2", Fraction(200)), (0.1, Fraction(1, 10)), (1e22, Fraction(10 ** 22)),
    ("9.8e-2451", Fraction(98, 10 ** 2452)), ("1e1000000", Fraction(10 ** 1000000)),
    # beyond Python's 4300-digit int/str limit
    ("7" * 5000 + "/3", Fraction(int("7" * 1000) * 10 ** 4000 + int("7" * 4000), 3)),
])
def test_rational_reads_integers_ratios_and_decimals_exactly(text, value):
    assert _rational(text, "x") == value


@pytest.mark.parametrize("text, message", [
    ("1/0", "x has a zero denominator: '1/0'"),
    ("0/0", "x has a zero denominator: '0/0'"),
    ("1e1000001", "x has a decimal exponent beyond 10^6 in size: '1e1000001'"),
    ("1e-100000000", "x has a decimal exponent beyond 10^6 in size: '1e-100000000'"),
    ("1" * 1000002, "x has a decimal exponent beyond 10^6 in size: "),
    ("nan", "cannot parse x 'nan'"), ("-Infinity", "cannot parse x '-Infinity'"),
    (float("inf"), "cannot parse x inf"), ("1.5/2", "cannot parse x '1.5/2'"),
    ("1/-2", "cannot parse x '1/-2'"), ("[0.1,0.2]", "cannot parse x '[0.1,0.2]'"),
    ("", "cannot parse x ''"), (None, "cannot parse x None"),
], ids=["zero-denominator", "zero-over-zero", "exponent", "negative-exponent",
        "million-digits", "nan", "infinity", "float-infinity", "decimal-over",
        "signed-denominator", "interval", "empty", "none"])
def test_rational_refuses_what_is_no_finite_rational(text, message):
    with pytest.raises(InvalidConfiguration) as info:
        _rational(text, "x")
    assert str(info.value).startswith(message)


@given(quads(-5), quads(-5), quads(-5))
def test_ring_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert (a * b) * c == a * (b * c)
    assert a * b == b * a
    assert a * (b + c) == a * b + a * c


@given(quads(-3))
def test_field_inverse(a):
    if a.is_zero():
        with pytest.raises(ZeroDivisionError):
            a.inverse()
    else:
        assert a * a.inverse() == QuadNum(1, 0, -3)
        assert 1 / a == a.inverse()


@given(quads(-7), quads(-7))
def test_norm_multiplicative(a, b):
    assert (a * b).norm() == a.norm() * b.norm()


@given(quads(-2))
def test_conj_involution(a):
    assert a.conj().conj() == a
    assert a * a.conj() == QuadNum(a.norm(), 0, -2)


@given(quads(-11))
def test_complex_agrees_with_float(a):
    z = complex(a)
    ref = float(a.p) + float(a.q) * math.sqrt(11) * 1j
    assert abs(z - ref) <= 1e-9 * (1 + abs(ref))


def test_rational_coercion_across_fields():
    # a purely rational value may move between fields, a genuine surd may not
    a = QuadNum(Fraction(3, 2), 0, -1)
    b = QuadNum(1, 1, -2)
    assert (a + b).d == -2
    with pytest.raises(ValueError):
        QuadNum(0, 1, -1) + QuadNum(0, 1, -2)


@given(fracs, quads(-5))
def test_scalar_ops(r, a):
    assert a + r == a + QuadNum(r, 0, -5)
    assert a * r == QuadNum(a.p * r, a.q * r, -5)
    assert r - a == -(a - r)


# -- integer elimination and row scaling ----------------------------------------

def test_rank_det_signs_and_fields():
    # a row swap flips the sign; over Q(sqrt(-1)), (1, i) and (i, -1) are dependent
    assert rank_det([[0, 1], [1, 0]]) == (2, -1)
    assert rank_det([[1, "1/2"], [2, 1], [0, 0]]) == (1, None)
    assert rank_det([[1, (0, 1)], [(0, 1), -1]], -1) == (1, (0, 0))
    assert rank_det([[(0, 1), 1], [1, 0]], -1) == (2, (-1, 0))


entries = st.one_of(st.integers(-3, 3), st.integers(-10 ** 9, 10 ** 9))
shapes = st.tuples(st.integers(0, 5), st.integers(0, 5))


@settings(max_examples=200, deadline=None)
@given(shapes.flatmap(lambda s: st.lists(st.lists(entries, min_size=s[1], max_size=s[1]),
                                         min_size=s[0], max_size=s[0])))
def test_bareiss_rank_and_last_pivot_match_fractions(rows):
    rank, pivot = _bareiss(rows)
    rank0, det = rank_det(rows)
    assert rank == rank0
    if det:  # nonsingular and square: the last pivot is +-det
        assert abs(pivot) == abs(det)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 6).flatmap(
    lambda n: st.lists(st.lists(entries, min_size=n, max_size=n), min_size=0, max_size=4)))
def test_bareiss_last_pivot_of_a_gram_matrix_is_its_determinant(rows):
    gram = [[sum(x * y for x, y in zip(u, v)) for v in rows] for u in rows]
    rank, det = rank_det(gram)
    if rank == len(rows):  # independent rows: positive definite, no row swap
        assert _bareiss(gram) == (rank, det) and det > 0
    else:
        assert _bareiss(gram)[0] == rank


@given(st.lists(st.fractions(max_denominator=10 ** 6), max_size=6))
def test_primitive_row_gives_coprime_integers_of_the_same_ratios(row):
    ints = _primitive_row(row)
    assert all(type(x) is int for x in ints) and len(ints) == len(row)
    assert gcd(*ints) == (1 if any(row) else 0)
    assert all((x > 0) == (r > 0) and (x < 0) == (r < 0) for x, r in zip(ints, row))
    assert all(x * r2 == y * r1 for x, r1 in zip(ints, row) for y, r2 in zip(ints, row))
