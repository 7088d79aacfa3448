"""Finite presentations of differential modules and derivation spaces.

A FieldPresentation gives generators g1..gm over a base, either Generic
(no relations; exact Laurent-monomial coefficients) or NumericPoint
(polynomial relations whose Jacobian rows are evaluated at a certified
point as complex rectangles).  On top of it:

  * omega_presentation: the relation differentials as rows in the dg-basis;
  * f_forms: the function-graph forms  f'(b) db - d(f(b));
  * der_dimension: dim of the common annihilator = m - rank(rows);
  * extend_derivation: unique / one-parameter / inconsistent extension of a
    boundary assignment, with an explicit certificate row on failure;
  * hcl_witness: either "the coordinate is forced to derivative zero" or an
    explicit derivation with derivative 1 there.

A generic system has no relation rows, so each of its rows is a graph form
x_fb = f'·x_b or a unit row x_g = v, and it is solved directly as a gain
graph: one BFS per connected component gives each generator its gain
relative to the component's root; a cycle whose gain product is not 1, a
self-form with f' != 1 or a form with f' = 0 forces its component to 0;
unit rows fix a component's scalar or certify an inconsistency.  The
dimension counts the components that are free and unfixed, and the
particular solution sets them to 0.  At numeric points each system is
reduced once by interval Gauss-Jordan elimination: the rank (the pivot
count), an inconsistency (a pivot in the right-hand column, whose row is
the certificate) and a particular solution (back-substitution with the free
unknowns at 0) are all read from that reduction.

Numeric elimination is interval-certified: a pivot is accepted only when its
rectangle excludes zero, and rows left over after elimination must all
enclose zero; anything else raises RankNotCertified rather than letting a
tolerance decide.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple, Optional, Sequence

from .cintervals import ComplexBox, as_box, working_precision
from .errors import (
    Frozen,
    InvalidConfiguration,
    RankNotCertified,
    SingularSpecialization,
)
from .laurent import Laurent, parse

GENERIC = "generic"
NUMERIC_POINT = "numeric_point"
_ZERO, _ONE = Laurent(), Laurent({(): 1})


def _value(p, value, field: str):
    """An fprime, boundary or target value read exactly: a Laurent monomial
    in generic mode; a rational, or a box as given, at numeric points."""
    if isinstance(value, (Laurent, ComplexBox)):
        out = value
    elif isinstance(value, (int, Fraction)):
        out = Laurent({(): value})
    else:
        out = parse(str(value), p.generators, field)
    if p.mode == GENERIC:
        if not out.is_monomial():
            raise InvalidConfiguration(f"{field}: {str(value)!r} is a sum; "
                                       "generic values are monomials")
        return out
    if isinstance(out, ComplexBox):
        return out
    if set(out.terms) - {()}:
        raise InvalidConfiguration(
            f"{field}: {str(value)!r} is not a rational number")
    return out.terms.get((), Fraction(0))


class FieldPresentation(Frozen):
    """Generators and relations presenting an extension B over a base C.
    The relations are kept as written; `polynomials` parses them."""

    __slots__ = ("mode", "generators", "relations", "point", "precision")

    def __init__(self, mode: str, generators: tuple, relations: tuple = (),
                 point: Optional[dict] = None, precision: int = 128):
        if mode not in (GENERIC, NUMERIC_POINT):
            raise InvalidConfiguration(f"unknown mode {mode!r}")
        generators = tuple(generators)
        if len(set(generators)) != len(generators):
            raise InvalidConfiguration("duplicate generator names")
        rels = tuple(str(r) for r in relations)
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
    def m(self) -> int:
        return len(self.generators)

    def polynomials(self) -> tuple:
        """The relations parsed as polynomials in the generators."""
        out = []
        for k, rel in enumerate(self.relations):
            poly = parse(rel, self.generators, f"relations[{k}]")
            if any(e < 0 for mono in poly.terms for _, e in mono):
                raise InvalidConfiguration(
                    f"relations[{k}]: {rel!r} is not a polynomial")
            out.append(poly)
        return tuple(out)

    def _check_relations_vanish(self):
        with working_precision(self.precision):
            for rel, poly in zip(self.relations, self.polynomials()):
                val = _eval_box(poly, self.generators, self.point)
                if not val.contains_zero():
                    raise InvalidConfiguration(
                        f"relation {rel} does not vanish at the point"
                    )


def _eval_box(poly: Laurent, names, point) -> ComplexBox:
    """Evaluate a polynomial at boxed generator values, term by term in the
    order of sympy's Poly.terms(), a constant as one box."""
    terms = poly.exponent_terms(names)
    if not any(any(exps) for exps, _ in terms):
        return ComplexBox(terms[0][1] if terms else Fraction(0))
    out = ComplexBox(0)
    for monom, coeff in terms:
        term = ComplexBox(coeff)
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
    rows = []
    if p.mode == GENERIC:
        return rows
    with working_precision(p.precision):
        for rel, poly in zip(p.relations, p.polynomials()):
            row = [_eval_box(poly.diff(g), p.generators, p.point)
                   for g in p.generators]
            if all(entry.contains_zero() for entry in row):
                raise SingularSpecialization(
                    f"the gradient of {rel} is not certified nonzero at "
                    "the point (every entry encloses zero)"
                )
            rows.append(row)
    return rows


def f_forms(p: FieldPresentation, points: Sequence[tuple]):
    """One FForm per (slot, b_index, fb_index, fprime) tuple; fprime becomes
    an exact Laurent monomial in the generators (Generic) or a box
    (NumericPoint)."""
    out = []
    for k, (slot, b_idx, fb_idx, fprime) in enumerate(points):
        if not (0 <= b_idx < p.m and 0 <= fb_idx < p.m):
            raise InvalidConfiguration("form indices out of range")
        if p.mode == GENERIC:
            fp = _value(p, fprime, f"forms[{k}].fprime")
            vec = [_ZERO] * p.m
            vec[b_idx] += fp
            vec[fb_idx] -= 1
        else:
            fp = as_box(fprime)
            vec = [ComplexBox(0)] * p.m
            vec[b_idx] = vec[b_idx] + fp
            vec[fb_idx] = vec[fb_idx] - 1
        out.append(FForm(slot, b_idx, fb_idx, fp, tuple(vec)))
    return out


def _all_rows(p: FieldPresentation, forms):
    rows = [list(r) for r in omega_presentation(p)]
    rows += [list(f.vector) for f in forms]
    return rows


# -- numeric points: one interval elimination --------------------------------

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


def der_dimension(p: FieldPresentation, forms) -> int:
    """dim of the derivations annihilating all relation and form rows."""
    if p.mode == GENERIC:
        root, _, zero = _gains(p, forms)
        return len(set(root) - zero)
    with working_precision(p.precision):
        return p.m - len(_numeric_rref(_all_rows(p, forms), p.m)[0])


# -- derivation extension ----------------------------------------------------

class ExtensionResult(NamedTuple):
    kind: str  # "unique" | "family" | "inconsistent"
    assignment: Optional[dict] = None
    dimension: int = 0
    certificate_row: Optional[tuple] = None


def _extension(p: FieldPresentation, values, dim: int) -> ExtensionResult:
    assignment = dict(zip(p.generators, values))
    if dim == 0:
        return ExtensionResult("unique", assignment)
    return ExtensionResult("family", assignment, dim)


# -- generic systems: a gain graph -------------------------------------------

def _gains(p: FieldPresentation, forms):
    """(root, gain, zero): for each generator the root of its component and
    its gain, the value it takes where the root takes 1, and the set of
    roots whose component every annihilating derivation sets to 0."""
    m = p.m
    edges = [[] for _ in range(m)]
    zero_at = set()
    for f in forms:
        b, fb, fp = f.b_index, f.fb_index, f.fprime
        if b == fb or not fp:
            if fp != 1:  # (f' - 1) x_b = 0, or x_fb = 0 where f' = 0
                zero_at.add(fb)
        else:
            edges[b].append((fb, fp))
            edges[fb].append((b, 1 / fp))
    root, gain, zero = [None] * m, [None] * m, set()
    for r in range(m):
        if root[r] is not None:
            continue
        root[r], gain[r], queue = r, _ONE, [r]
        for v in queue:
            if v in zero_at:
                zero.add(r)
            for w, g in edges[v]:
                if root[w] is None:
                    root[w], gain[w] = r, gain[v] * g
                    queue.append(w)
                elif gain[w] != gain[v] * g:  # a cycle of gain product != 1
                    zero.add(r)
    return root, gain, zero


def _solve_gains(p: FieldPresentation, forms, fixed: dict, target=None):
    """Each unit row x_g = v fixes the scalar of g's component to
    v / gain(g), or certifies an inconsistency (certificate row
    0, ..., 0, 1).  Free unfixed components count in the dimension and take
    0 in the particular solution."""
    root, gain, zero = _gains(p, forms)
    scalar = {}

    def consistent(name, value) -> bool:
        g = p.generators.index(name)
        if root[g] in zero:
            return not value
        s = value / gain[g]
        return scalar.setdefault(root[g], s) == s

    ok = all(consistent(name, value) for name, value in fixed.items())
    dim = len(set(root) - zero - scalar.keys())
    if ok and target is not None:
        ok = consistent(*target)
    if not ok:
        return ExtensionResult("inconsistent",
                               certificate_row=(_ZERO,) * p.m + (_ONE,))
    return _extension(p, [scalar.get(r, _ZERO) * g for r, g in zip(root, gain)],
                      dim)


def _numeric_system(p: FieldPresentation, rows, fixed: dict):
    """The augmented rows [A | b] of "annihilate every row, take the fixed
    values"."""
    zero, one = ComplexBox(0), ComplexBox(1)
    system = [list(row) + [zero] for row in rows]
    for name, value in fixed.items():
        row = [zero] * (p.m + 1)
        row[p.generators.index(name)] = one
        row[p.m] = value if isinstance(value, ComplexBox) else \
            ComplexBox(Fraction(value))
        system.append(row)
    return system


def _solve_numeric(p: FieldPresentation, rows, fixed: dict, target=None):
    """Reduce the system once and read everything off the reduction: its
    rank, an inconsistency (a pivot in the right-hand column, whose row is
    the certificate) or a particular solution (back-substitution with every
    free unknown at 0).  A target (generator, value) costs one more
    reduction and never counts in the dimension."""
    m = p.m
    with working_precision(p.precision):
        system = _numeric_system(p, rows, fixed)
        pivots, red = _numeric_rref(system, m + 1)
        dim = m - len(pivots)
        if target is not None and m not in pivots:
            pivots, red = _numeric_rref(
                system + _numeric_system(p, [], dict([target])), m + 1)
        if m in pivots:
            row = red[-1]
            if not all(e.contains_zero() for e in row[:m]):
                raise RankNotCertified("inconsistency row not isolated")
            return ExtensionResult("inconsistent", certificate_row=tuple(row))
        values = [ComplexBox(0)] * m
        for col, row in reversed(list(zip(pivots, red))):
            acc = row[m]
            for j in range(col + 1, m):
                acc = acc - row[j] * values[j]
            values[col] = acc / row[col]
    return _extension(p, values, dim)


def _solve(p: FieldPresentation, forms, fixed: dict, target=None):
    if p.mode == GENERIC:
        return _solve_gains(p, forms, fixed, target)
    return _solve_numeric(p, _all_rows(p, forms), fixed, target)


def extend_derivation(p: FieldPresentation, forms, boundary: dict,
                      target: Optional[tuple] = None) -> ExtensionResult:
    """Extend a boundary assignment (values on a sub-presentation's
    generators) to a derivation annihilating all rows.  Unique when the
    residual solution space is 0-dimensional, Family(dim) with a particular
    solution honoring the optional target (generator, value), Inconsistent
    with a certificate row otherwise.  The reported dimension never counts
    the target equation."""
    for name in boundary:
        if name not in p.generators:
            raise InvalidConfiguration(f"boundary names unknown {name!r}")
    if target is not None and target[0] not in p.generators:
        raise InvalidConfiguration(f"target names unknown {target[0]!r}")
    boundary = {name: _value(p, value, f"boundary {name}")
                for name, value in boundary.items()}
    if target is not None:
        target = (target[0], _value(p, target[1], f"target {target[0]}"))
    return _solve(p, forms, boundary, target)


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
    res = _solve(p, forms, {p.generators[b_index]: 1})
    if res.kind == "inconsistent":
        return HclVerdict(True)
    return HclVerdict(False, res.assignment)
