"""Exact quadratic field arithmetic: field axioms and numeric agreement."""

import math
import pickle
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from wplab.quadfield import QuadNum, is_squarefree, squarefree_kernel

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
