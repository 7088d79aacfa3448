"""Record helpers that only the tests use: the `deriv` input record of a
presentation, and the QuadNum of a quad record."""

from wplab.differentials import GENERIC
from wplab.quadfield import QuadNum, _rational
from wplab.serialize import box_record


def presentation_record(p, forms=()) -> dict:
    rec = {
        "mode": p.mode,
        "generators": list(p.generators),
        "relations": list(p.relations),
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


def parse_quad(rec: dict) -> QuadNum:
    return QuadNum(_rational(rec["p"], "quad.p"), _rational(rec["q"], "quad.q"),
                   int(rec["d"]))
