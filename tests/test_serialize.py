"""Record round trips: exact data survives exactly, boxed data by enclosure."""

from fractions import Fraction

import pytest
from mpmath import mp

from wplab import serialize as S
from wplab.cintervals import ComplexBox, ri, working_precision
from wplab.differentials import GENERIC, NUMERIC_POINT, FieldPresentation, \
    der_dimension
from wplab.errors import InvalidConfiguration
from wplab.lattice_core import make_lattice
from wplab.predim_engine import Configuration, FunctionSlot, GroupPoint, delta
from wplab.quadfield import QuadNum
from wplab.wp_numerics import invariants

F = Fraction


def test_frac_str_roundtrip():
    for x in (F(0), F(-3, 7), F(5), F(22, 6)):
        assert S.parse_frac(S.frac_str(x)) == x
    assert S.parse_frac(4) == 4


def test_quad_roundtrip():
    q = QuadNum(F(-2, 3), F(5, 7), -11)
    assert S.parse_quad(S.quad_record(q)) == q


def test_box_roundtrip_is_enclosure_widening():
    with working_precision(128):
        z = ComplexBox(ri(F(1, 3)), ri(F(-7, 11)))
        back = S.parse_box(S.box_record(z, 128))
        assert (back - z).contains_zero()
        assert back.rad() >= z.rad()


def test_box_record_midpoint_full_precision_outside_scope():
    model = invariants(make_lattice(QuadNum(1, 0, -1), QuadNum(0, 1, -1)), 256)
    rec = S.box_record(model.g2, 256)  # no precision scope is active here
    with mp.workprec(600):
        err = mp.mpf(rec["err"])
        for key, part in (("re", model.g2.re), ("im", model.g2.im)):
            mid = mp.mpf(rec[key])
            assert abs(mid - mp.mpf(part.a)) <= err
            assert abs(mid - mp.mpf(part.b)) <= err


def test_lattice_roundtrip_exact():
    lat = make_lattice(QuadNum(1, 0, -1), QuadNum(F(1, 4), F(3, 2), -1))
    rec = S.loads(S.dumps(S.lattice_record(lat)))
    back = S.parse_lattice(rec)
    assert back.tau == lat.tau and back.omega1 == lat.omega1


def test_lattice_roundtrip_numeric():
    with working_precision(128):
        lat = make_lattice(ComplexBox(1), ComplexBox(ri(F(1, 3)), ri(F(5, 4))))
        back = S.parse_lattice(S.loads(S.dumps(S.lattice_record(lat, 128))))
        assert (back.tau_box() - lat.tau_box()).contains_zero()


def test_lattice_unknown_rep():
    with pytest.raises(InvalidConfiguration):
        S.parse_lattice({"rep": "weird"})


def test_configuration_roundtrip():
    cfg = Configuration(
        ("a", "b", "x", "y"),
        [[F(1), 0, 0, 0], [0, F(1), 0, 0], [0, 0, F(1), 0], [0, 0, 0, F(1)]],
        [FunctionSlot(0, "exp"), FunctionSlot(1, "wp_cm", -1)],
        [GroupPoint(0, "a", "b"), GroupPoint(1, "x", "y"),
         GroupPoint(1, "a", "b")],
        {1: [[(F(0), F(1)), (F(-1), F(0))]]},
        base=("a",),
    )
    back = S.parse_configuration(S.loads(S.dumps(S.configuration_record(cfg))))
    assert back.coordinates == cfg.coordinates
    assert back.base == cfg.base
    assert back.slots[1].d == -1
    r1 = delta(cfg, (0, 1), cfg.coordinates)
    r2 = delta(back, (0, 1), back.coordinates)
    assert r1 == r2


def test_presentation_roundtrip_generic():
    p = FieldPresentation(GENERIC, ("a", "e"))
    rec = S.loads(S.dumps(S.presentation_record(p, [(0, 0, 1, "e")])))
    back, forms = S.parse_presentation(rec)
    assert back.generators == ("a", "e")
    assert der_dimension(back, forms) == 1


def test_presentation_roundtrip_numeric():
    with working_precision(128):
        pt = {"x": ComplexBox(2), "y": ComplexBox(4)}
    p = FieldPresentation(NUMERIC_POINT, ("x", "y"), ("y - x**2",), pt, 128)
    rec = S.loads(S.dumps(S.presentation_record(p, [(None, 0, 1, F(4))])))
    back, forms = S.parse_presentation(rec)
    assert der_dimension(back, forms) == 1


def test_dumps_is_canonical():
    a = S.dumps({"b": 1, "a": [2, 3]})
    b = S.dumps({"a": [2, 3], "b": 1})
    assert a == b == '{"a":[2,3],"b":1}'
