"""Derivation spaces from finite presentations, generic and at points."""

import random
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from wplab.cintervals import ComplexBox, as_box, working_precision
from wplab.differentials import (
    GENERIC,
    NUMERIC_POINT,
    ExtensionResult,
    FieldPresentation,
    _numeric_rref,
    der_dimension,
    extend_derivation,
    f_forms,
    hcl_witness,
    omega_presentation,
)
from wplab.errors import (
    InvalidConfiguration,
    RankNotCertified,
    SingularSpecialization,
)
from wplab.laurent import Laurent, parse

F = Fraction


def _boxes(**vals):
    with working_precision(128):
        return {k: as_box(complex(v)) for k, v in vals.items()}


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
    assert _oracle_rank(p, [list(f.vector) for f in forms]) == 1
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
        in_closure = _oracle_rank(p, rows + [unit]) == _oracle_rank(p, rows)
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


# -- oracle: the two-pass solvers the single reduction replaced ---------------
# Each system was eliminated twice: a rank or rref pass, then sympy's
# linsolve (generic) or a second interval elimination (numeric).


def _sympify(expr, symbols):
    if isinstance(expr, (int, Fraction)):
        return sympy.Rational(expr)
    if isinstance(expr, str):
        return sympy.sympify(expr, locals={s.name: s for s in symbols})
    return sympy.sympify(expr)


def _symbols(p):
    return tuple(sympy.Symbol(g) for g in p.generators)


def _generic_rank(rows, m) -> int:
    if not rows:
        return 0
    mat = sympy.Matrix([[sympy.simplify(sympy.sympify(e)) for e in r]
                        for r in rows])
    return mat.rank()


def _numeric_rank(rows, m) -> int:
    pivots, _ = _numeric_rref(rows, m)
    return len(pivots)


def _solve_generic(p, rows, fixed, target):
    syms = list(_symbols(p))
    unknowns = [sympy.Symbol(f"_d_{g}") for g in p.generators]
    eqs = []
    for row in rows:
        eqs.append(sum(sympy.sympify(c) * u for c, u in zip(row, unknowns)))
    for name, value in fixed.items():
        eqs.append(unknowns[p.generators.index(name)] - _sympify(value, syms))
    a_mat, b_vec = sympy.linear_eq_to_matrix(eqs, unknowns)
    aug = a_mat.row_join(-b_vec)
    red, piv = aug.rref()
    n = len(unknowns)
    for i in range(red.rows):
        if all(sympy.simplify(red[i, j]) == 0 for j in range(n)) and \
                sympy.simplify(red[i, n]) != 0:
            return ExtensionResult(
                "inconsistent",
                certificate_row=tuple(red.row(i)),
            )
    dim = n - sum(1 for c in piv if c < n)
    eqs_t = list(eqs)
    if target is not None:
        name, value = target
        eqs_t.append(unknowns[p.generators.index(name)] - _sympify(value, syms))
    sol = sympy.linsolve(eqs_t, unknowns)
    if not sol:
        return ExtensionResult(
            "inconsistent",
            certificate_row=("target incompatible with the row space",),
        )
    particular = next(iter(sol))
    subs = {u: 0 for u in particular.free_symbols
            if str(u).startswith("_d_") or str(u).startswith("tau")}
    assignment = {
        g: sympy.simplify(v.subs(subs))
        for g, v in zip(p.generators, particular)
    }
    if dim == 0:
        return ExtensionResult("unique", assignment)
    return ExtensionResult("family", assignment, dim)


def _solve_numeric(p, rows, fixed, target):
    with working_precision(p.precision):
        m = p.m
        sys_rows = []
        for row in rows:
            sys_rows.append(list(row) + [ComplexBox(0)])
        for name, value in fixed.items():
            row = [ComplexBox(0)] * (m + 1)
            row[p.generators.index(name)] = ComplexBox(1)
            row[m] = value if isinstance(value, ComplexBox) else ComplexBox(
                Fraction(value))
            sys_rows.append(row)
        dim = m - _numeric_rank([r[:m] for r in sys_rows], m)
        if target is not None:
            name, value = target
            row = [ComplexBox(0)] * (m + 1)
            row[p.generators.index(name)] = ComplexBox(1)
            row[m] = value if isinstance(value, ComplexBox) else ComplexBox(
                Fraction(value))
            sys_rows.append(row)
        pivots, red = _numeric_rref(sys_rows, m + 1)
        if m in pivots:
            for row in red:
                if all(row[j].contains_zero() for j in range(m)):
                    return ExtensionResult(
                        "inconsistent", certificate_row=tuple(row)
                    )
            raise RankNotCertified("inconsistency row not isolated")
        # back-substitute with free unknowns set to zero
        values = [ComplexBox(0)] * m
        for pos in range(len(pivots) - 1, -1, -1):
            col = pivots[pos]
            row = red[pos]
            acc = row[m]
            for j in range(col + 1, m):
                acc = acc - row[j] * values[j]
            values[col] = acc / row[col]
        assignment = {g: values[i] for i, g in enumerate(p.generators)}
        if dim == 0:
            return ExtensionResult("unique", assignment)
        return ExtensionResult("family", assignment, dim)


def _oracle_solve(p, rows, fixed, target):
    solve = _solve_generic if p.mode == GENERIC else _solve_numeric
    return solve(p, rows, fixed, target)


def _oracle_rank(p, rows):
    if p.mode == GENERIC:
        return _generic_rank(rows, p.m)
    with working_precision(p.precision):
        return _numeric_rank(rows, p.m)


def _shown(res):
    """What the CLI prints of an extension: kind, dimension and the str of
    each assignment value and certificate entry."""
    return (res.kind, res.dimension,
            res.assignment and {g: str(v) for g, v in res.assignment.items()},
            res.certificate_row and [str(x) for x in res.certificate_row])


def _random_system(rng, make_case):
    """A random presentation and forms with a boundary, an optional target
    and a generator to test for the closure."""
    p, forms = make_case(rng)
    boundary = {g: F(rng.randint(-3, 3)) for g in p.generators
                if rng.random() < 0.4}
    target = None
    if rng.random() < 0.5:
        target = (rng.choice(p.generators), F(rng.randint(-3, 3)))
    return p, forms, boundary, target, rng.randrange(p.m)


def compare_with_oracle(p, forms, boundary, target, b):
    """The single-reduction driver against the two-pass oracle on one
    system.  Returns the name of the intended output change the extension
    shows, or None when the two agree on everything the CLI prints."""
    rows = [list(r) for r in omega_presentation(p)]
    rows += [list(f.vector) for f in forms]
    assert der_dimension(p, forms) == p.m - _oracle_rank(p, rows)
    old = _oracle_solve(p, rows, {}, (p.generators[b], 1))
    new = hcl_witness(p, forms, b)
    if old.kind == "inconsistent":
        assert new.in_closure and new.witness is None
    else:
        assert not new.in_closure
        assert {g: str(v) for g, v in new.witness.items()} == _shown(old)[2]
    old = _oracle_solve(p, rows, boundary, target)
    new = extend_derivation(p, forms, boundary, target)
    if _shown(new) == _shown(old):
        return None
    if p.mode == GENERIC and not rows and not boundary and target is None:
        # the empty system: every derivation, not an inconsistency
        assert old.kind == "inconsistent" and new.kind == "family"
        assert new.dimension == p.m
        assert all(v == 0 for v in new.assignment.values())
        return "empty system"
    assert target is not None and new.kind == old.kind == "inconsistent"
    if p.mode == NUMERIC_POINT:
        # an inconsistent boundary is certified by its own rows
        assert _shown(new) == _shown(_oracle_solve(p, rows, boundary, None))
        return "numeric boundary certificate"
    # the target's incompatibility is certified by the reduced row
    assert old.certificate_row == ("target incompatible with the row space",)
    assert all(e == 0 for e in new.certificate_row[:-1])
    assert new.certificate_row[-1] != 0
    return "generic target certificate"


@pytest.mark.parametrize("make_case, shown", [
    (_random_generic_case, {None, "empty system", "generic target certificate"}),
    (_random_numeric_case, {None, "numeric boundary certificate"}),
], ids=["generic", "numeric"])
def test_single_reduction_against_the_two_pass_oracle(make_case, shown):
    # the seed's 15 cases show every intended change of the mode
    rng = random.Random(8)
    changes = {compare_with_oracle(*_random_system(rng, make_case))
               for _ in range(15)}
    assert changes == shown


def test_empty_generic_system_is_a_family():
    p = FieldPresentation(GENERIC, ("a", "b"))
    res = extend_derivation(p, [], {})
    assert res.kind == "family" and res.dimension == 2
    assert {g: str(v) for g, v in res.assignment.items()} == {"a": "0", "b": "0"}


# -- oracle: the sympy elimination the gain graph replaced --------------------
# Generic systems were one sympy rref of [A | -b], read with the free
# unknowns at 0, each value printed through simplify.


def _sympy_extension(p, forms, fixed, target=None):
    m, syms = p.m, _symbols(p)
    zero, one = sympy.Integer(0), sympy.Integer(1)

    def units(fixed):
        out = []
        for name, value in fixed.items():
            row = [zero] * (m + 1)
            row[p.generators.index(name)] = one
            row[m] = -_sympify(value, syms)
            out.append(row)
        return out

    def rref(rows):
        red, pivots = sympy.Matrix(
            len(rows), m + 1, [e for r in rows for e in r]).rref()
        return list(pivots), [list(red.row(i)) for i in range(len(pivots))]

    system = [[sympy.sympify(e) for e in f.vector] + [zero] for f in forms]
    system += units(fixed)
    pivots, red = rref(system)
    dim = m - len(pivots)
    if target is not None and m not in pivots:
        pivots, red = rref(system + units(dict([target])))
    if m in pivots:
        return ExtensionResult("inconsistent", certificate_row=tuple(red[-1]))
    values = [zero] * m
    for col, row in reversed(list(zip(pivots, red))):
        acc = -row[m]
        for j in range(col + 1, m):
            acc = acc - row[j] * values[j]
        values[col] = acc / row[col]
    assignment = dict(zip(p.generators, (sympy.simplify(v) for v in values)))
    if dim == 0:
        return ExtensionResult("unique", assignment)
    return ExtensionResult("family", assignment, dim)


def _monomial_text(rng, gens):
    """A monomial as a presentation would write it, negative powers too."""
    factors = [rng.choice(("1", "-1", "2", "1/2", "-3/2", "3"))]
    for g in rng.sample(gens, rng.randint(0, min(2, len(gens)))):
        k = rng.choice((-2, -1, 1, 2))
        factors.append(g if k == 1 else f"{g}**{k}" if k > 0 else f"{g}**({k})")
    return "*".join(factors)


def _random_gain_system(rng):
    """A generic presentation whose forms may be self-forms, zero forms,
    parallel forms or close cycles, with monomial boundary and target
    values."""
    gens = tuple(rng.sample(("g0", "g1", "g2", "g10", "B", "x_1"),
                            rng.randint(1, 4)))
    p = FieldPresentation(GENERIC, gens)
    specs = []
    for _ in range(rng.randint(0, 4)):
        b, fb = rng.randrange(p.m), rng.randrange(p.m)
        specs.append((0, b, fb, rng.choice(
            (_monomial_text(rng, gens), "0", "1", gens[fb]))))
    boundary = {g: _monomial_text(rng, gens) for g in gens
                if rng.random() < 0.3}
    target = None
    if rng.random() < 0.5:
        target = (rng.choice(gens), _monomial_text(rng, gens))
    return p, f_forms(p, specs), boundary, target, rng.randrange(p.m)


@pytest.mark.parametrize("make", [
    lambda rng: _random_system(rng, _random_generic_case),
    _random_gain_system,
], ids=["tests-corpus", "gain-graph-shapes"])
def test_gain_graph_against_the_sympy_elimination(make):
    # 100 systems each, and the hcl system of each: kind, dimension and the
    # printed values and certificate equal the sympy path's
    rng = random.Random(21)
    for _ in range(100):
        p, forms, boundary, target, b = make(rng)
        got = extend_derivation(p, forms, boundary, target)
        assert _shown(got) == _shown(_sympy_extension(p, forms, boundary, target))
        want = _sympy_extension(p, forms, {p.generators[b]: 1})
        v = hcl_witness(p, forms, b)
        assert v.in_closure == (want.kind == "inconsistent")
        if not v.in_closure:
            assert {g: str(x) for g, x in v.witness.items()} == _shown(want)[2]


NAMES = ("g0", "g1", "g2", "g10", "B", "x_1")
monomials = st.builds(
    lambda c, exps: Laurent({tuple(sorted((n, k) for n, k in exps.items() if k)): c}),
    st.fractions(min_value=-40, max_value=40, max_denominator=40),
    st.dictionaries(st.sampled_from(NAMES), st.integers(-4, 4), max_size=4))


@settings(max_examples=100, deadline=None)
@given(monomials)
def test_monomials_print_as_sympy_and_parse_back(m):
    text = str(m)
    assert text == str(sympy.simplify(sympy.sympify(text)))
    assert parse(text, NAMES, "value") == m
    assert sympy.sympify(m) == sympy.sympify(text)


def test_gain_graph_zero_components():
    p = FieldPresentation(GENERIC, ("a", "b", "c", "d"))
    # a -> b with gain 2 and back with gain 1/3: the cycle's product is 2/3
    cycle = f_forms(p, [(0, 0, 1, 2), (0, 1, 0, F(1, 3))])
    # c's self-form with f' = c forces c to 0; f' = 0 forces d, not c
    self_and_zero = f_forms(p, [(0, 2, 2, "c"), (0, 2, 3, 0)])
    assert der_dimension(p, cycle) == 2
    assert der_dimension(p, self_and_zero) == 2
    assert der_dimension(p, f_forms(p, [(0, 2, 2, 1)])) == 4
    res = extend_derivation(p, cycle, {"c": 1}, ("a", 0))
    assert _shown(res) == ("family", 1, {"a": "0", "b": "0", "c": "1", "d": "0"},
                           None)
    clash = extend_derivation(p, cycle, {"a": 1})
    assert _shown(clash) == ("inconsistent", 0, None, ["0"] * 4 + ["1"])


def test_generic_values_are_exact_monomials():
    p = FieldPresentation(GENERIC, ("a", "e"))
    forms = f_forms(p, [(0, 0, 1, "e**2/(3*a)")])
    res = extend_derivation(p, forms, {"a": "1.5"})
    assert {g: str(v) for g, v in res.assignment.items()} == \
        {"a": "3/2", "e": "e**2/(2*a)"}
    for bad, why in [("a + 1", "is a sum"), ("sin(a)", "'sin' is not a generator"),
                     ("x", "'x' is not a generator"), ("a**0.5", "integer")]:
        with pytest.raises(InvalidConfiguration, match="boundary a") as err:
            extend_derivation(p, forms, {"a": bad})
        assert why in str(err.value)
    with pytest.raises(InvalidConfiguration, match=r"forms\[0\]\.fprime"):
        f_forms(p, [(0, 0, 1, "e - 1")])


def test_numeric_inputs_outside_the_grammar():
    pt = _boxes(x=2, y=4)
    p = FieldPresentation(NUMERIC_POINT, ("x", "y"), ("y - x**2",), pt, 128)
    with pytest.raises(InvalidConfiguration, match="boundary x: cannot read '1/0'"):
        extend_derivation(p, [], {"x": "1/0"})
    with pytest.raises(InvalidConfiguration, match="target y: 'x' is not a rational"):
        extend_derivation(p, [], {}, ("y", "x"))
    with pytest.raises(InvalidConfiguration, match=r"relations\[0\].*not a polynomial"):
        FieldPresentation(NUMERIC_POINT, ("x", "y"), ("y - 8/x",), pt, 128)
    with pytest.raises(InvalidConfiguration, match=r"relations\[0\].*'cos'"):
        FieldPresentation(NUMERIC_POINT, ("x", "y"), ("y - cos(x)",), pt, 128)
    # the message quotes the relation as written
    with pytest.raises(InvalidConfiguration, match=r"relation y-x\*\*3 does not"):
        FieldPresentation(NUMERIC_POINT, ("x", "y"), ("y-x**3",), pt, 128)
