"""UTF-8 text records for lattices, configurations, presentations, reports.

All records are JSON objects: rationals as "a/b" strings, big floats as
decimal strings with explicit precision and error fields, so round trips
are value-faithful (exact for rational data, enclosure-widening never
enclosure-shrinking for boxed data).
"""

from __future__ import annotations

import math
from fractions import Fraction

from mpmath import mp

from .cintervals import ComplexBox, _nstr, endpoint_fraction, ri, ri_from_endpoints, working_precision
from .errors import InvalidConfiguration
from .lattice_core import Lattice
from .quadfield import QuadNum, _rational


def frac_str(x: Fraction) -> str:
    x = Fraction(x)
    return f"{x.numerator}/{x.denominator}" if x.denominator != 1 else str(x.numerator)


_MISSING = object()
_KINDS = {dict: "a JSON object", list: "a list", str: "a string"}


def _typed(value, kind, where):
    """value, checked to be of the JSON kind a record field needs."""
    if not isinstance(value, kind):
        raise InvalidConfiguration(f"{where} is not {_KINDS[kind]}")
    return value


def _field(rec, key, where, kind=None, default=_MISSING):
    """rec[key] of the record named `where`, of JSON kind `kind` when given;
    `default` when the key is absent and a default is given."""
    _typed(rec, dict, where)
    if key not in rec:
        if default is _MISSING:
            raise InvalidConfiguration(f"{where} has no {key!r} field")
        return default
    value = rec[key]
    return value if kind is None else _typed(value, kind, f"{where}.{key}")


def _int(value, where) -> int:
    """The integer of the record field named `where`: an int, or a float or
    text whose value is exactly an integer."""
    x = _rational(value, where) if isinstance(value, str) else value
    if isinstance(x, float) and x.is_integer():
        x = int(x)
    if isinstance(x, (int, Fraction)) and x.denominator == 1:
        return int(x)
    raise InvalidConfiguration(f"{where} is not an integer: {value!r}")


# the most bits a --precision option or a record's precision field may ask for
PRECISION_LIMIT = 100000


def _precision(value, where) -> int:
    """The working precision in bits that the option or record field named
    `where` gives: an integer from 1 to PRECISION_LIMIT."""
    bits = _int(value, where)
    if not 1 <= bits <= PRECISION_LIMIT:
        raise InvalidConfiguration(
            f"{where} must be from 1 to {PRECISION_LIMIT} bits, got {value!r}")
    return bits


def _names(value, where) -> list:
    return [_typed(c, str, f"{where}[{k}]")
            for k, c in enumerate(_typed(value, list, where))]


def _decimal(x, precision: int) -> str:
    return mp.nstr(mp.mpf(x), int(precision * 0.302) + 3, strip_zeros=False)


def _decade(x: Fraction) -> int:
    """The e with 10^e <= x < 10^(e + 1), for x > 0, found from bit lengths
    rather than from the digits of x."""
    e = math.floor((x.numerator.bit_length() - x.denominator.bit_length())
                   * math.log10(2))
    while Fraction(10) ** e > x:
        e -= 1
    while Fraction(10) ** (e + 1) <= x:
        e += 1
    return e


def decimal_at_least(x, bound: Fraction) -> str:
    """x >= 0 in 8 significant digits, rounded up to 64 bits first (_nstr),
    when that is at least bound; else the least decimal of 8 significant
    digits that is, printed the same way."""
    text = _nstr(x, 8)
    if _rational(text, "value") >= bound:
        return text
    e = _decade(bound)
    with mp.workprec(64):
        return mp.nstr(mp.mpf(f"{math.ceil(bound / Fraction(10) ** (e - 7))}e{e - 7}"), 8)


def _far(mid: str, part) -> Fraction:
    """The largest distance from the printed midpoint to an endpoint of the
    component part."""
    lo, hi = (endpoint_fraction(e) for e in part._mpi_)
    m = _rational(mid, "value")
    return max(hi - m, m - lo)


def box_record(z: ComplexBox, precision: int) -> dict:
    """The box's midpoint printed to about `precision` bits and an err that
    bounds the distance from it to every point of the box in each component,
    so the printed box holds z: the radius plus 2^-precision, or the least
    8-digit decimal above the distance where the midpoint's rounding
    moved it farther."""
    with working_precision(precision):
        mid = z.mid()
        re, im = _decimal(mid.real, precision), _decimal(mid.imag, precision)
        err = z.rad() + mp.ldexp(1, -precision)
        return {
            "re": re,
            "im": im,
            "err": decimal_at_least(err, max(_far(re, z.re), _far(im, z.im))),
            "precision": precision,
        }


def parse_box(rec: dict) -> ComplexBox:
    """The box [re +- err] + [im +- err]i of the record, its numbers read
    exactly and its endpoints rounded outward at the record's precision."""
    precision = _precision(_field(rec, "precision", "box", default=128), "box.precision")
    err = _rational(_field(rec, "err", "box"), "box.err")
    if err < 0:
        raise InvalidConfiguration(f"box.err is negative: {rec['err']!r}")
    re, im = (_rational(_field(rec, k, "box"), f"box.{k}") for k in ("re", "im"))
    with working_precision(precision):
        return ComplexBox(*(ri_from_endpoints(ri(c - err).a, ri(c + err).b) for c in (re, im)))


def quad_record(z: QuadNum) -> dict:
    return {"p": frac_str(z.p), "q": frac_str(z.q), "d": z.d}


def value_record(x, precision: int) -> dict:
    """The record of an exact QuadNum or of a box."""
    return quad_record(x) if isinstance(x, QuadNum) else box_record(x, precision)


def lattice_record(l: Lattice, precision: int = 128) -> dict:
    return {
        "rep": "quad" if l.exact else "num",
        "omega1": value_record(l.omega1, precision),
        "omega2": value_record(l.omega2, precision),
        "tau": value_record(l.tau, precision),
        "basis_change": [list(r) for r in l.basis_change],
    }


# -- configurations ----------------------------------------------------------

def configuration_record(cfg: Configuration) -> dict:
    slots = []
    for s in cfg.slots:
        entry = {"kind": s.kind}
        if s.d is not None:
            entry["d"] = s.d
        if s.label is not None:
            entry["label"] = s.label
        slots.append(entry)
    relations = []
    for i, rel in enumerate(cfg.relations):
        if not rel:
            continue
        if cfg.slots[i].kind == "wp_cm":
            rows = [[[frac_str(x), frac_str(y)] for (x, y) in row] for row in rel]
        else:
            rows = [[frac_str(x) for x in row] for row in rel]
        relations.append({"slot": i, "rows": rows})
    return {
        "coordinates": list(cfg.coordinates),
        "matroid": {"rows": [[frac_str(x) for x in row] for row in cfg.matroid]},
        "slots": slots,
        "points": [{"slot": p.slot, "b": p.b, "e": p.e} for p in cfg.points],
        "relations": relations,
        "base": sorted(cfg.base),
    }


def parse_configuration(rec: dict) -> Configuration:
    from .predim_engine import Configuration, FunctionSlot, GroupPoint

    where = "configuration"
    slots = []
    for i, s in enumerate(_field(rec, "slots", where, list, [])):
        at = f"slots[{i}]"
        d = _field(s, "d", at, default=None)
        slots.append(FunctionSlot(i, _field(s, "kind", at, str),
                                  None if d is None else _int(d, f"{at}.d"),
                                  _field(s, "label", at, default=None)))
    points = []
    for k, p in enumerate(_field(rec, "points", where, list, [])):
        at = f"points[{k}]"
        points.append(GroupPoint(_int(_field(p, "slot", at), f"{at}.slot"),
                                 _field(p, "b", at, str), _field(p, "e", at, str)))
    relations = {}
    for k, entry in enumerate(_field(rec, "relations", where, list, [])):
        at = f"relations[{k}]"
        i = _int(_field(entry, "slot", at), f"{at}.slot")
        if not 0 <= i < len(slots):
            raise InvalidConfiguration(f"{at}.slot names a missing slot")
        rows = [_typed(row, list, f"{at}.rows[{r}]")
                for r, row in enumerate(_field(entry, "rows", at, list))]
        if slots[i].kind == "wp_cm":
            for r, row in enumerate(rows):
                for j, x in enumerate(row):
                    if not (isinstance(x, list) and len(x) == 2):
                        raise InvalidConfiguration(
                            f"{at}.rows[{r}][{j}] is not an [x, y] pair")
            rows = [[(_rational(x, f"{at}.rows[{r}][{j}][0]"),
                      _rational(y, f"{at}.rows[{r}][{j}][1]"))
                     for j, (x, y) in enumerate(row)]
                    for r, row in enumerate(rows)]
        else:
            rows = [[_rational(x, f"{at}.rows[{r}][{j}]")
                     for j, x in enumerate(row)] for r, row in enumerate(rows)]
        relations[i] = rows
    matroid = _field(_field(rec, "matroid", where, dict), "rows",
                     f"{where}.matroid", list)
    return Configuration(
        _names(_field(rec, "coordinates", where), f"{where}.coordinates"),
        [[_rational(x, f"{where}.matroid.rows[{r}][{j}]")
          for j, x in enumerate(_typed(row, list, f"{where}.matroid.rows[{r}]"))]
         for r, row in enumerate(matroid)],
        slots,
        points,
        relations,
        _names(_field(rec, "base", where, default=[]), f"{where}.base"),
    )


# -- presentations -----------------------------------------------------------

def parse_presentation(rec: dict):
    from .differentials import FieldPresentation, GENERIC, f_forms

    where = "presentation"
    mode = _field(rec, "mode", where, str)
    point = None
    if mode != GENERIC:
        point = {k: parse_box(v) for k, v in
                 _field(rec, "point", where, dict, {}).items()}
    p = FieldPresentation(
        mode,
        _names(_field(rec, "generators", where), f"{where}.generators"),
        _field(rec, "relations", where, list, ()),
        point,
        _precision(_field(rec, "precision", where, default=128), f"{where}.precision"),
    )
    specs = []
    for k, f in enumerate(_field(rec, "forms", where, list, ())):
        at = f"forms[{k}]"
        fprime = _field(f, "fprime", at)
        if mode != GENERIC:
            fprime = _rational(fprime, f"{at}.fprime")
        specs.append((f.get("slot"), _int(_field(f, "b", at), f"{at}.b"),
                      _int(_field(f, "fb", at), f"{at}.fb"), fprime))
    forms = f_forms(p, specs) if specs else []
    return p, forms


def dumps(rec: dict) -> str:
    import json  # here, so that a CLI call that prints text never loads it

    return json.dumps(rec, sort_keys=True, separators=(",", ":"))


def loads(text: str) -> dict:
    import json

    return json.loads(text)
