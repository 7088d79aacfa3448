"""Derivation spaces from finite presentations, generic and at points."""

import random
from fractions import Fraction

import pytest
import sympy

from wplab.cintervals import ComplexBox, working_precision
from wplab.differentials import (
    GENERIC,
    NUMERIC_POINT,
    FieldPresentation,
    der_dimension,
    extend_derivation,
    f_forms,
    hcl_witness,
    omega_presentation,
    rows_rank,
)
from wplab.errors import InvalidConfiguration, SingularSpecialization

F = Fraction


def _boxes(**vals):
    with working_precision(128):
        return {k: ComplexBox.from_complex(complex(v)) for k, v in vals.items()}


def test_generic_single_generator():
    p = FieldPresentation(GENERIC, ("t",))
    assert der_dimension(p, []) == 1


def test_generic_exp_form_cuts_one_dimension():
    p = FieldPresentation(GENERIC, ("b", "e"))
    forms = f_forms(p, [(0, 0, 1, "e")])  # e db - de
    assert der_dimension(p, forms) == 1
    assert forms[0].vector[1] == sympy.Integer(-1)


def test_generic_mode_rejects_relations_and_points():
    with pytest.raises(InvalidConfiguration):
        FieldPresentation(GENERIC, ("x",), ("x**2 - 1",))
    with pytest.raises(InvalidConfiguration):
        FieldPresentation(GENERIC, ("x",), point={"x": None})


def test_numeric_relation_rows():
    pt = _boxes(x=2, y=4)
    p = FieldPresentation(NUMERIC_POINT, ("x", "y"), ("y - x**2",), pt, 128)
    rows = omega_presentation(p)
    assert len(rows) == 1
    # gradient (-2x, 1) at x = 2
    assert (rows[0][0] + 4).contains_zero()
    assert (rows[0][1] - 1).contains_zero()
    assert der_dimension(p, []) == 1


def test_numeric_relation_must_vanish():
    with pytest.raises(InvalidConfiguration):
        FieldPresentation(NUMERIC_POINT, ("x",), ("x - 3",), _boxes(x=2), 128)


def test_cusp_is_singular():
    # y^2 - x^3 at the origin: zero gradient, no certified row
    pt = _boxes(x=0, y=0)
    p = FieldPresentation(NUMERIC_POINT, ("x", "y"), ("y**2 - x**3",), pt, 128)
    with pytest.raises(SingularSpecialization):
        omega_presentation(p)


def test_numeric_chain_rule_dimension():
    # y = x^2 with the matching graph form is one condition, not two
    pt = _boxes(x=2, y=4)
    p = FieldPresentation(NUMERIC_POINT, ("x", "y"), ("y - x**2",), pt, 128)
    forms = f_forms(p, [(None, 0, 1, F(4))])  # f'(2) = 4
    assert der_dimension(p, forms) == 1
    off = f_forms(p, [(None, 0, 1, F(3))])
    assert der_dimension(p, off) == 0


def test_extend_unique_family_inconsistent():
    p = FieldPresentation(GENERIC, ("b", "e"))
    forms = f_forms(p, [(0, 0, 1, F(5))])
    res = extend_derivation(p, forms, {"b": 1})
    assert res.kind == "unique"
    assert res.assignment["e"] == 5
    fam = extend_derivation(p, forms, {})
    assert fam.kind == "family" and fam.dimension == 1
    clash = extend_derivation(p, forms, {"b": 1, "e": 6})
    assert clash.kind == "inconsistent"
    assert clash.certificate_row is not None


def test_extend_with_target():
    p = FieldPresentation(GENERIC, ("a", "b"))
    res = extend_derivation(p, [], {}, target=("b", 7))
    assert res.kind == "family" and res.dimension == 2
    assert res.assignment["b"] == 7


def test_extend_numeric():
    pt = _boxes(x=2, y=4)
    p = FieldPresentation(NUMERIC_POINT, ("x", "y"), ("y - x**2",), pt, 128)
    res = extend_derivation(p, [], {"x": 1})
    assert res.kind == "unique"
    assert (res.assignment["y"] - 4).contains_zero()  # dy = 2x dx
    clash = extend_derivation(p, [], {"x": 1, "y": 3})
    assert clash.kind == "inconsistent"


def test_hcl_witness_generic():
    p = FieldPresentation(GENERIC, ("b", "e"))
    forms = f_forms(p, [(0, 0, 1, "e")])
    v = hcl_witness(p, forms, 0)
    assert not v.in_closure
    assert v.witness["b"] == 1


def test_hcl_witness_numeric_closure():
    # x is determined by the relations: every derivation kills it
    pt = _boxes(x=2, y=4, z=8)
    p = FieldPresentation(
        NUMERIC_POINT, ("x", "y", "z"),
        ("y - x**2", "z - x**3", "z - 2*y"), pt, 128,
    )
    v = hcl_witness(p, [], 0)
    assert v.in_closure


def test_symbolic_annihilation_matches_rank():
    p = FieldPresentation(GENERIC, ("a", "e", "t"))
    forms = f_forms(p, [(0, 0, 1, "e")])
    assert rows_rank(p, [list(f.vector) for f in forms]) == 1
    assert der_dimension(p, forms) == 2


def _random_generic_case(rng):
    gens = tuple(f"g{i}" for i in range(rng.randint(2, 4)))
    p = FieldPresentation(GENERIC, gens)
    specs = []
    for _ in range(rng.randint(0, 3)):
        b, fb = rng.sample(range(len(gens)), 2)
        fprime = rng.choice((rng.choice(gens), F(rng.randint(-3, 3)),
                             f"{rng.choice(gens)}*{rng.choice(gens)}"))
        specs.append((0, b, fb, fprime))
    return p, f_forms(p, specs)


def _random_numeric_case(rng):
    m = rng.randint(2, 4)
    gens = tuple(f"x{i}" for i in range(m))
    values = [F(rng.randint(1, 3)) for _ in range(m)]
    relations = []
    for j in range(1, m):
        if rng.random() < 0.5:  # x_j a square or a multiple of an earlier x_i
            i = rng.randrange(j)
            c = rng.randint(1, 3)
            if rng.random() < 0.5:
                relations.append(f"x{j} - x{i}**2")
                values[j] = values[i] ** 2
            else:
                relations.append(f"x{j} - {c}*x{i}")
                values[j] = c * values[i]
    p = FieldPresentation(NUMERIC_POINT, gens, tuple(relations),
                          _boxes(**{g: v for g, v in zip(gens, values)}), 128)
    specs = []
    for _ in range(rng.randint(0, 2)):
        b, fb = rng.sample(range(m), 2)
        specs.append((0, b, fb, F(rng.randint(-3, 3))))
    return p, f_forms(p, specs)


@pytest.mark.parametrize("make_case", [_random_generic_case, _random_numeric_case],
                         ids=["generic", "numeric"])
def test_hcl_witness_against_the_rank_comparison(make_case):
    # oracle: b is in the closure iff the unit row at b lies in the row space
    rng = random.Random(31)
    with working_precision(128):
        zero, one = ComplexBox(0), ComplexBox(1)
    verdicts = set()
    for _ in range(30):
        p, forms = make_case(rng)
        b = rng.randrange(p.m)
        rows = [list(r) for r in omega_presentation(p)]
        rows += [list(f.vector) for f in forms]
        if p.mode == GENERIC:
            unit = [sympy.Integer(int(j == b)) for j in range(p.m)]
        else:
            unit = [one if j == b else zero for j in range(p.m)]
        in_closure = rows_rank(p, rows + [unit]) == rows_rank(p, rows)
        v = hcl_witness(p, forms, b)
        assert v.in_closure == in_closure
        verdicts.add(in_closure)
        if in_closure:
            assert v.witness is None
            continue
        w = [v.witness[g] for g in p.generators]
        if p.mode == GENERIC:
            assert w[b] == 1
            for row in rows:
                assert sympy.simplify(sum(c * x for c, x in zip(row, w))) == 0
        else:
            with working_precision(p.precision):
                assert (w[b] - 1).contains_zero()
                for row in rows:
                    acc = zero
                    for c, x in zip(row, w):
                        acc = acc + c * x
                    assert acc.contains_zero()
    assert verdicts == {True, False}
