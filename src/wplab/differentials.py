"""Finite presentations of differential modules and derivation spaces.

A FieldPresentation gives generators g1..gm over a base, either Generic
(no relations; exact rational-function arithmetic in the coefficients) or
NumericPoint (polynomial relations whose Jacobian rows are evaluated at a
certified point as complex rectangles).  On top of it:

  * omega_presentation: the relation differentials as rows in the dg-basis;
  * f_forms: the function-graph forms  f'(b) db - d(f(b));
  * der_dimension: dim of the common annihilator = m - rank(rows);
  * extend_derivation: unique / one-parameter / inconsistent extension of a
    boundary assignment, with an explicit certificate row on failure;
  * hcl_witness: either "the coordinate is forced to derivative zero" or an
    explicit derivation with derivative 1 there.

Each system is reduced once, by the one elimination of its arithmetic:
sympy's exact rref for generic presentations, interval Gauss-Jordan
elimination at numeric points.  The rank (the pivot count), an
inconsistency (a pivot in the right-hand column, whose row is the
certificate) and a particular solution (back-substitution with the free
unknowns at 0) are all read from that reduction.

Numeric elimination is interval-certified: a pivot is accepted only when its
rectangle excludes zero, and rows left over after elimination must all
enclose zero; anything else raises RankNotCertified rather than letting a
tolerance decide.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple, Optional, Sequence

import sympy

from .cintervals import ComplexBox, working_precision
from .errors import (
    Frozen,
    InvalidConfiguration,
    RankNotCertified,
    SingularSpecialization,
)

GENERIC = "generic"
NUMERIC_POINT = "numeric_point"


def _sympify(expr, symbols):
    if isinstance(expr, (int, Fraction)):
        return sympy.Rational(expr)
    if isinstance(expr, str):
        return sympy.sympify(expr, locals={s.name: s for s in symbols})
    return sympy.sympify(expr)


class FieldPresentation(Frozen):
    """Generators and relations presenting an extension B over a base C."""

    __slots__ = ("mode", "generators", "relations", "point", "precision")

    def __init__(self, mode: str, generators: tuple, relations: tuple = (),
                 point: Optional[dict] = None, precision: int = 128):
        if mode not in (GENERIC, NUMERIC_POINT):
            raise InvalidConfiguration(f"unknown mode {mode!r}")
        generators = tuple(generators)
        if len(set(generators)) != len(generators):
            raise InvalidConfiguration("duplicate generator names")
        syms = tuple(sympy.Symbol(g) for g in generators)
        rels = tuple(_sympify(r, syms) for r in relations)
        for name, value in zip(self.__slots__,
                               (mode, generators, rels, point, precision)):
            object.__setattr__(self, name, value)
        if mode == GENERIC:
            if rels:
                raise InvalidConfiguration(
                    "generic mode presents a purely transcendental extension; "
                    "relations require numeric_point mode"
                )
            if self.point is not None:
                raise InvalidConfiguration("generic mode takes no point")
        else:
            if self.point is None or set(self.point) != set(self.generators):
                raise InvalidConfiguration(
                    "numeric_point mode needs a value for every generator"
                )
            self._check_relations_vanish()

    @property
    def symbols(self):
        return tuple(sympy.Symbol(g) for g in self.generators)

    @property
    def m(self) -> int:
        return len(self.generators)

    def _check_relations_vanish(self):
        with working_precision(self.precision):
            for rel in self.relations:
                val = _eval_box(rel, self.generators, self.point)
                if not val.contains_zero():
                    raise InvalidConfiguration(
                        f"relation {rel} does not vanish at the point"
                    )


def _eval_box(expr, names, point) -> ComplexBox:
    """Evaluate a sympy polynomial at boxed generator values."""
    expr = sympy.expand(expr)
    out = ComplexBox(0)
    poly = sympy.Poly(expr, *[sympy.Symbol(n) for n in names]) \
        if not expr.is_number else None
    if poly is None:
        return ComplexBox(Fraction(sympy.Rational(expr)))
    for monom, coeff in poly.terms():
        term = ComplexBox(Fraction(sympy.Rational(coeff)))
        for name, power in zip(names, monom):
            if power:
                term = term * point[name].pow_int(power)
        out = out + term
    return out


class FForm(NamedTuple):
    """The form f'(b) db - d f(b) as a coefficient vector over dg1..dgm."""

    slot: Optional[int]
    b_index: int
    fb_index: int
    fprime: object
    vector: tuple


# -- row construction --------------------------------------------------------

def omega_presentation(p: FieldPresentation):
    """Rows spanning the relation differentials in the dg-basis."""
    syms = p.symbols
    rows = []
    if p.mode == GENERIC:
        return rows
    with working_precision(p.precision):
        for rel in p.relations:
            row = [
                _eval_box(sympy.diff(rel, s), p.generators, p.point)
                for s in syms
            ]
            if all(entry.contains_zero() for entry in row):
                raise SingularSpecialization(
                    f"the gradient of {rel} is not certified nonzero at "
                    "the point (every entry encloses zero)"
                )
            rows.append(row)
    return rows


def f_forms(p: FieldPresentation, points: Sequence[tuple]):
    """One FForm per (slot, b_index, fb_index, fprime) tuple; fprime is an
    exact expression in the generators (Generic) or a box (NumericPoint)."""
    out = []
    for slot, b_idx, fb_idx, fprime in points:
        if not (0 <= b_idx < p.m and 0 <= fb_idx < p.m):
            raise InvalidConfiguration("form indices out of range")
        if p.mode == GENERIC:
            fp = _sympify(fprime, p.symbols)
            vec = [sympy.Integer(0)] * p.m
            vec[b_idx] += fp
            vec[fb_idx] += sympy.Integer(-1)
        else:
            if isinstance(fprime, ComplexBox):
                fp = fprime
            elif isinstance(fprime, complex):
                fp = ComplexBox.from_complex(fprime)
            else:
                fp = ComplexBox(Fraction(fprime))
            vec = [ComplexBox(0)] * p.m
            vec[b_idx] = vec[b_idx] + fp
            vec[fb_idx] = vec[fb_idx] - 1
        out.append(FForm(slot, b_idx, fb_idx, fprime, tuple(vec)))
    return out


def _all_rows(p: FieldPresentation, forms):
    rows = [list(r) for r in omega_presentation(p)]
    rows += [list(f.vector) for f in forms]
    return rows


# -- one reduction per arithmetic --------------------------------------------

def _numeric_rref(rows, m):
    """Interval Gaussian elimination.  Returns (pivot column list, reduced
    rows); every accepted pivot excludes zero and every fully processed
    leftover row must enclose zero in all entries."""
    work = [list(r) for r in rows]
    pivots = []
    r = 0
    for col in range(m):
        best = None
        best_mag = None
        for i in range(r, len(work)):
            e = work[i][col]
            if not e.contains_zero():
                mag = abs(e.mid())
                if best is None or mag > best_mag:
                    best, best_mag = i, mag
        if best is None:
            continue
        work[r], work[best] = work[best], work[r]
        piv = work[r][col]
        for i in range(len(work)):
            if i == r:
                continue
            factor = work[i][col] / piv
            work[i] = [work[i][j] - factor * work[r][j] for j in range(m)]
        pivots.append(col)
        r += 1
    for i in range(r, len(work)):
        for e in work[i]:
            if not e.contains_zero():
                raise RankNotCertified(
                    "a leftover row is certified nonzero but no pivot "
                    "column excludes zero; raise the working precision"
                )
    return pivots, work[:r]


def _reduce(p: FieldPresentation, rows, width):
    """(pivot columns, reduced pivot rows) of one elimination: sympy's exact
    rref for generic presentations, the certified interval elimination at
    numeric points (call it under the presentation's working precision)."""
    if p.mode == GENERIC:
        red, pivots = sympy.Matrix(
            len(rows), width, [e for r in rows for e in r]).rref()
        return list(pivots), [list(red.row(i)) for i in range(len(pivots))]
    return _numeric_rref(rows, width)


def rows_rank(p: FieldPresentation, rows) -> int:
    with working_precision(p.precision):
        return len(_reduce(p, rows, p.m)[0])


def der_dimension(p: FieldPresentation, forms) -> int:
    """dim of the derivations annihilating all relation and form rows."""
    return p.m - rows_rank(p, _all_rows(p, forms))


# -- derivation extension ----------------------------------------------------

class ExtensionResult(NamedTuple):
    kind: str  # "unique" | "family" | "inconsistent"
    assignment: Optional[dict] = None
    dimension: int = 0
    certificate_row: Optional[tuple] = None


def _scalars(p: FieldPresentation):
    """0 and 1 in the presentation's arithmetic."""
    if p.mode == GENERIC:
        return sympy.Integer(0), sympy.Integer(1)
    return ComplexBox(0), ComplexBox(1)


def _system(p: FieldPresentation, rows, fixed: dict):
    """The augmented rows of "annihilate every row, take the fixed values":
    [A | -b] for generic presentations (sympy's sign), [A | b] at numeric
    points."""
    zero, one = _scalars(p)
    system = [list(row) + [zero] for row in rows]
    for name, value in fixed.items():
        row = [zero] * (p.m + 1)
        row[p.generators.index(name)] = one
        if p.mode == GENERIC:
            row[p.m] = -_sympify(value, p.symbols)
        else:
            row[p.m] = value if isinstance(value, ComplexBox) else \
                ComplexBox(Fraction(value))
        system.append(row)
    return system


def _solve(p: FieldPresentation, rows, fixed: dict, target=None):
    """Reduce the system once and read everything off the reduction: its
    rank, an inconsistency (a pivot in the right-hand column, whose row is
    the certificate) or a particular solution (back-substitution with every
    free unknown at 0).  A target (generator, value) costs one more
    reduction and never counts in the dimension."""
    m = p.m
    with working_precision(p.precision):
        system = _system(p, rows, fixed)
        pivots, red = _reduce(p, system, m + 1)
        dim = m - len(pivots)
        if target is not None and m not in pivots:
            pivots, red = _reduce(p, system + _system(p, [], dict([target])),
                                  m + 1)
        if m in pivots:
            row = red[-1]
            if p.mode == NUMERIC_POINT and \
                    not all(e.contains_zero() for e in row[:m]):
                raise RankNotCertified("inconsistency row not isolated")
            return ExtensionResult("inconsistent", certificate_row=tuple(row))
        values = [_scalars(p)[0]] * m
        for col, row in reversed(list(zip(pivots, red))):
            acc = -row[m] if p.mode == GENERIC else row[m]
            for j in range(col + 1, m):
                acc = acc - row[j] * values[j]
            values[col] = acc / row[col]
    if p.mode == GENERIC:
        values = [sympy.simplify(v) for v in values]
    assignment = dict(zip(p.generators, values))
    if dim == 0:
        return ExtensionResult("unique", assignment)
    return ExtensionResult("family", assignment, dim)


def extend_derivation(p: FieldPresentation, forms, boundary: dict,
                      target: Optional[tuple] = None) -> ExtensionResult:
    """Extend a boundary assignment (values on a sub-presentation's
    generators) to a derivation annihilating all rows.  Unique when the
    residual solution space is 0-dimensional, Family(dim) with a particular
    solution honoring the optional target (generator, value), Inconsistent
    with a certificate row otherwise.  The reported dimension never counts
    the target equation."""
    rows = _all_rows(p, forms)
    for name in boundary:
        if name not in p.generators:
            raise InvalidConfiguration(f"boundary names unknown {name!r}")
    if target is not None and target[0] not in p.generators:
        raise InvalidConfiguration(f"target names unknown {target[0]!r}")
    return _solve(p, rows, boundary, target)


# -- holomorphic-closure witness ---------------------------------------------

class HclVerdict(NamedTuple):
    in_closure: bool
    witness: Optional[dict] = None


def hcl_witness(p: FieldPresentation, forms, b_index: int) -> HclVerdict:
    """InClosure iff every annihilating derivation kills generator b_index;
    otherwise an explicit derivation normalized to derivative 1 there."""
    if not 0 <= b_index < p.m:
        raise InvalidConfiguration("b_index out of range")
    # b is in the closure exactly when no annihilating derivation takes the
    # value 1 there, i.e. when the rows with that value are inconsistent
    res = _solve(p, _all_rows(p, forms), {p.generators[b_index]: 1})
    if res.kind == "inconsistent":
        return HclVerdict(True)
    return HclVerdict(False, res.assignment)
