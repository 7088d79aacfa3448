"""Record round trips: exact data survives exactly, boxed data by enclosure."""

import random
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
from wplab.quadfield import QuadNum, _rational
from wplab.wp_numerics import invariants

from boxes import widened
from records import parse_quad, presentation_record

F = Fraction


def test_frac_str_roundtrip():
    for x in (F(0), F(-3, 7), F(5), F(22, 6)):
        assert _rational(S.frac_str(x), "value") == x
    assert _rational(4, "value") == 4


@pytest.mark.parametrize("value, read", [
    (3, 3), (-2, -2), (3.0, 3), (1e22, 10 ** 22), ("3", 3), ("6/2", 3), ("3e2", 300),
    (0.9, "x is not an integer: 0.9"), (-2.5, "x is not an integer: -2.5"),
    (float("inf"), "x is not an integer: inf"), (float("nan"), "x is not an integer: nan"),
    ("1/2", "x is not an integer: '1/2'"), ([3], "x is not an integer: [3]"),
    (None, "x is not an integer: None"), ("three", "cannot parse x 'three'"),
])
def test_record_integers_are_exactly_integers(value, read):
    if isinstance(read, int):
        assert S._int(value, "x") == read
    else:
        with pytest.raises(InvalidConfiguration) as info:
            S._int(value, "x")
        assert str(info.value) == read


def test_quad_roundtrip():
    q = QuadNum(F(-2, 3), F(5, 7), -11)
    assert parse_quad(S.quad_record(q)) == q


def test_box_roundtrip_is_enclosure_widening():
    with working_precision(128):
        z = ComplexBox(ri(F(1, 3)), ri(F(-7, 11)))
        back = S.parse_box(S.box_record(z, 128))
        assert (back - z).contains_zero()
        assert back.rad() >= z.rad()


def _random_box(rng):
    """(box, precision): a box of |value| between 2^-200 and 2^200, built
    at 53 to 512 bits and widened by up to its own magnitude times
    2^-precision."""
    precision = rng.randint(53, 512)
    e = rng.randint(-200, 200)
    with working_precision(precision):
        re, im = (F(rng.randint(-2 ** 60, 2 ** 60), 2 ** 60) * F(2) ** e
                  for _ in range(2))
        z = ComplexBox(ri(re), ri(im))
        if rng.random() < 0.5:
            z = widened(z, mp.ldexp(rng.random(), e - rng.randint(0, precision)))
    return z, precision


def _holds(outer: ComplexBox, inner: ComplexBox) -> bool:
    return all(o.a <= i.a and i.b <= o.b
               for o, i in ((outer.re, inner.re), (outer.im, inner.im)))


def test_printed_boxes_hold_their_boxes():
    # a midpoint rounded to int(0.302 * precision) + 3 digits can move
    # farther than the radius plus 2^-precision once |value| is large
    rng = random.Random(24)
    for _ in range(400):
        z, precision = _random_box(rng)
        rec = S.loads(S.dumps(S.box_record(z, precision)))
        assert _holds(S.parse_box(rec), z), (rec, z)


def test_decimal_at_least_rounds_up_to_eight_digits():
    at_least = lambda x, bound: S.decimal_at_least(mp.mpf(x), bound)
    assert at_least("1.5e-40", F(1, 10 ** 40)) == "1.5e-40"
    assert at_least("1.0492646e+30", 11 * F(10) ** 31) == "1.1e+32"
    assert at_least("0.0", F(123456781, 10 ** 12)) == "0.00012345679"
    assert at_least("9.9999999e+10", F(99999999100)) == "1.0e+11"
    assert at_least("0.0", F(10) ** 5000 + 1) == "1.0000001e+5000"


def test_boxes_of_more_than_4300_digits_round_trip():
    # Python refuses an int-from-str conversion of more than 4300 digits;
    # at 16,000 bits the midpoint has 4835 and the radius a 16,032-bit
    # mantissa below 2^-3500 or, for the second box, above 2^3500
    precision = 16000
    with working_precision(precision):
        for z in (ComplexBox(F(10) ** 50 / 3, F(-2, 7)),
                  ComplexBox(F(2) ** 16000 / 3, F(2) ** 4000 / 7)):
            rec = S.box_record(z, precision)
            assert len(rec["re"]) > 4300
            assert _holds(S.parse_box(S.loads(S.dumps(rec))), z), rec["err"]


def test_parse_box_reads_finite_decimals_only():
    box = {"re": "1.5", "im": "0", "err": "0.25"}
    back = S.parse_box(box)
    assert (back.re.a, back.re.b, back.im.a, back.im.b) == (1.25, 1.75, -0.25, 0.25)
    assert S.parse_box({**box, "im": "0e-999999999999"}).im.b == 0.25
    for key, bad in (("re", "nan"), ("im", "inf"), ("err", "[0.1,0.2]"), ("re", [1]),
                     ("im", "1e+1000001"), ("err", "1e-999999999999")):
        with pytest.raises(InvalidConfiguration, match=rf"cannot parse box\.{key} |"
                           rf"box\.{key} has a decimal exponent beyond 10\^6 in size"):
            S.parse_box({**box, key: bad})
    with pytest.raises(InvalidConfiguration, match="box.err is negative"):
        S.parse_box({**box, "err": "-0.25"})


def test_box_record_midpoint_full_precision_outside_scope():
    model = invariants(make_lattice(QuadNum(1, 0, -1), QuadNum(0, 1, -1)), 256)
    rec = S.box_record(model.g2, 256)  # no precision scope is active here
    with mp.workprec(600):
        err = mp.mpf(rec["err"])
        for key, part in (("re", model.g2.re), ("im", model.g2.im)):
            mid = mp.mpf(rec[key])
            assert abs(mid - mp.mpf(part.a)) <= err
            assert abs(mid - mp.mpf(part.b)) <= err


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
    rec = S.loads(S.dumps(presentation_record(p, [(0, 0, 1, "e")])))
    back, forms = S.parse_presentation(rec)
    assert back.generators == ("a", "e")
    assert der_dimension(back, forms) == 1


def test_presentation_roundtrip_numeric():
    with working_precision(128):
        pt = {"x": ComplexBox(2), "y": ComplexBox(4)}
    p = FieldPresentation(NUMERIC_POINT, ("x", "y"), ("y - x**2",), pt, 128)
    rec = S.loads(S.dumps(presentation_record(p, [(None, 0, 1, F(4))])))
    back, forms = S.parse_presentation(rec)
    assert der_dimension(back, forms) == 1


def test_dumps_is_canonical():
    a = S.dumps({"b": 1, "a": [2, 3]})
    b = S.dumps({"a": [2, 3], "b": 1})
    assert a == b == '{"a":[2,3],"b":1}'
