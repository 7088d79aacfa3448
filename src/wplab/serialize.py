"""UTF-8 text records for lattices, configurations, presentations, reports.

All records are JSON objects: rationals as "a/b" strings, big floats as
decimal strings with explicit precision and error fields, so round trips
are value-faithful (exact for rational data, enclosure-widening never
enclosure-shrinking for boxed data).
"""

from __future__ import annotations

import json
from fractions import Fraction

from mpmath import iv, mp

from .cintervals import ComplexBox, ri_hi, working_precision
from .errors import InvalidConfiguration
from .lattice_core import Lattice, make_lattice
from .quadfield import QuadNum


def frac_str(x: Fraction) -> str:
    x = Fraction(x)
    return f"{x.numerator}/{x.denominator}" if x.denominator != 1 else str(x.numerator)


def parse_frac(s) -> Fraction:
    if isinstance(s, int):
        return Fraction(s)
    return Fraction(str(s))


def _decimal(x, precision: int) -> str:
    return mp.nstr(mp.mpf(x), int(precision * 0.302) + 3, strip_zeros=False)


def box_record(z: ComplexBox, precision: int) -> dict:
    with working_precision(precision):
        mid = z.mid()
        return {
            "re": _decimal(mid.real, precision),
            "im": _decimal(mid.imag, precision),
            "err": mp.nstr(z.rad() + mp.ldexp(1, -precision), 8),
            "precision": precision,
        }


def parse_box(rec: dict) -> ComplexBox:
    precision = int(rec.get("precision", 128))
    with working_precision(precision):
        err = iv.mpf(rec["err"])
        pad = iv.mpf([-ri_hi(err), ri_hi(err)])
        return ComplexBox(iv.mpf(rec["re"]) + pad, iv.mpf(rec["im"]) + pad)


def quad_record(z: QuadNum) -> dict:
    return {"p": frac_str(z.p), "q": frac_str(z.q), "d": z.d}


def parse_quad(rec: dict) -> QuadNum:
    return QuadNum(parse_frac(rec["p"]), parse_frac(rec["q"]), int(rec["d"]))


def lattice_record(l: Lattice, precision: int = 128) -> dict:
    if l.exact:
        return {
            "rep": "quad",
            "omega1": quad_record(l.omega1),
            "omega2": quad_record(l.omega2),
            "tau": quad_record(l.tau),
            "basis_change": [list(r) for r in l.basis_change],
        }
    return {
        "rep": "num",
        "omega1": box_record(l.omega1, precision),
        "omega2": box_record(l.omega2, precision),
        "tau": box_record(l.tau, precision),
        "basis_change": [list(r) for r in l.basis_change],
    }


def parse_lattice(rec: dict) -> Lattice:
    rep = rec.get("rep")
    if rep == "quad":
        return make_lattice(parse_quad(rec["omega1"]), parse_quad(rec["omega2"]))
    if rep == "num":
        return make_lattice(parse_box(rec["omega1"]), parse_box(rec["omega2"]))
    raise InvalidConfiguration(f"unknown lattice rep {rep!r}")


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

    slots = [
        FunctionSlot(i, s["kind"], s.get("d"), s.get("label"))
        for i, s in enumerate(rec.get("slots", []))
    ]
    points = [
        GroupPoint(int(p["slot"]), p["b"], p["e"])
        for p in rec.get("points", [])
    ]
    relations = {}
    for entry in rec.get("relations", []):
        i = int(entry["slot"])
        if slots[i].kind == "wp_cm":
            rows = [
                [(parse_frac(x), parse_frac(y)) for x, y in row]
                for row in entry["rows"]
            ]
        else:
            rows = [[parse_frac(x) for x in row] for row in entry["rows"]]
        relations[i] = rows
    return Configuration(
        rec["coordinates"],
        [[parse_frac(x) for x in row] for row in rec["matroid"]["rows"]],
        slots,
        points,
        relations,
        rec.get("base", ()),
    )


# -- presentations -----------------------------------------------------------

def presentation_record(p, forms=()) -> dict:
    from .differentials import GENERIC

    rec = {
        "mode": p.mode,
        "generators": list(p.generators),
        "relations": [str(r) for r in p.relations],
        "precision": p.precision,
    }
    if p.mode != GENERIC:
        rec["point"] = {
            name: box_record(val, p.precision) for name, val in p.point.items()
        }
    if forms:
        rec["forms"] = [
            {
                "slot": f if isinstance(f, int) else f[0],
                "b": f[1],
                "fb": f[2],
                "fprime": f[3] if isinstance(f[3], str) else str(f[3]),
            }
            for f in forms
        ]
    return rec


def parse_presentation(rec: dict):
    from .differentials import FieldPresentation, GENERIC, f_forms

    mode = rec["mode"]
    point = None
    if mode != GENERIC:
        point = {k: parse_box(v) for k, v in rec.get("point", {}).items()}
    p = FieldPresentation(
        mode,
        rec["generators"],
        rec.get("relations", ()),
        point,
        int(rec.get("precision", 128)),
    )
    specs = []
    for f in rec.get("forms", ()):
        fprime = f["fprime"]
        if mode != GENERIC:
            try:
                fprime = Fraction(fprime)
            except ValueError:
                raise InvalidConfiguration(
                    "numeric presentations need rational fprime values in files"
                )
        specs.append((f.get("slot"), int(f["b"]), int(f["fb"]), fprime))
    forms = f_forms(p, specs) if specs else []
    return p, forms


def dumps(rec: dict) -> str:
    return json.dumps(rec, sort_keys=True, separators=(",", ":"))


def loads(text: str) -> dict:
    return json.loads(text)
