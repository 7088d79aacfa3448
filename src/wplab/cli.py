"""Command-line surface.

Subcommands: lattice {normalize|reduce|cm|isogenous|isr},
wp {invariants|eval|verify}, predim {report|strong|hull|dim|chain|lemma7|
certificate}, deriv {rank|extend|hcl}, count, selftest.

Exit codes: 0 success, 1 for valid negative mathematical answers
(not isogenous, not strong, point excluded), 2 for failures to decide or
operate (precision, parsing, search bounds).  Identical invocations produce
byte-identical output.

A call pays little before it computes.  Each subcommand imports its own
engine when it runs, so a call loads only the layers it uses: json only to
print or read a record, no sympy, and no layer imports dataclasses (with its
inspect, ast and dis).  A call names its
command first, and argparse builds that command's subtree alone; a first
argument that names no command gets the whole tree, so help and usage
errors read as before.
"""

from __future__ import annotations

import argparse
import re
import sys
import warnings
from fractions import Fraction

from mpmath import mp

from . import serialize
from .cintervals import ComplexBox, endpoint_fraction, ri, working_precision
from .errors import WplabError
from .lattice_core import (
    IsogenyVerdict,
    Lattice,
    cm_field,
    is_isogenous,
    isr_equivalent,
    make_lattice,
    reduce_tau,
)
from .quadfield import QuadNum, _rational


class CliError(WplabError):
    pass


QUAD_RE = re.compile(
    r"^\s*(?:(?P<p>[+-]?\d+(?:/\d+)?)\s*(?=[+-]))?(?P<q>[+-]?(?:\d+(?:/\d+)?)?)i\s*:\s*(?P<d>-\d+)\s*$"
)
# a fraction has an integer numerator: '1/2', not '1.5/2' or '1e-2/3'
_NUMBER = r"(?:\d+/\d+|(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d+)?)"
# 'a+bi', 'a-i', 'bi', '-i': a real part is followed by a sign or the end,
# so '1.5i' is purely imaginary.
COMPLEX_RE = re.compile(
    rf"^(?P<re>[+-]?{_NUMBER}(?=[+-]|$))?(?:(?P<im>[+-]?(?:{_NUMBER})?)i)?$"
)
# The options that take a number; argparse reads '-0.25+1.5i' as an option.
VALUE_OPTIONS = ("--tau", "--tau1", "--tau2", "--z", "--eps")
SIGNED_VALUE_RE = re.compile(r"^-[\d.i]")


def parse_value(text: str, precision: int):
    """Parse 'p+qi:d' (exact quadratic), 'a+bi' (numeric box), 'i', or a
    plain real number (an exact Fraction).  Every number is read exactly,
    and a box's parts are then rounded outward."""
    s = text.strip()
    if s in ("i", "+i", "1i"):
        return QuadNum(Fraction(0), Fraction(1), -1)
    m = QUAD_RE.match(s)
    if m:
        qs = m.group("q")
        if qs in ("", "+", "-"):
            qs += "1"
        return QuadNum(_rational(m.group("p") or 0, "value"), _rational(qs, "value"),
                       int(m.group("d")))
    if "i" not in s:
        return _rational(text, "value")
    mm = COMPLEX_RE.match("".join(s.split()))
    if not mm:
        raise CliError(f"cannot parse complex value {text!r}")
    im_part = mm.group("im")
    if im_part in ("", "+", "-"):
        im_part += "1"
    with working_precision(precision):
        return ComplexBox(*(ri(_rational(part, "value"))
                            for part in (mm.group("re") or 0, im_part)))


def lattice_from_tau(tau, precision: int) -> Lattice:
    if isinstance(tau, QuadNum):
        return make_lattice(QuadNum.rational(1, tau.d), tau)
    with working_precision(precision):
        return make_lattice(ComplexBox(1), tau)


def parse_subset(text):
    if text is None or text.strip() == "":
        return ()
    return tuple(x.strip() for x in text.split(",") if x.strip())


def parse_slots(text, cfg):
    if text is None or text.strip() == "":
        return tuple(range(len(cfg.slots)))
    return tuple(int(x) for x in text.split(","))


def box_str(z: ComplexBox, precision: int) -> str:
    rec = serialize.box_record(z, precision)
    return f"{rec['re']} + {rec['im']}i (err {rec['err']})"


def value_str(z, precision: int) -> str:
    if isinstance(z, QuadNum):
        return f"{serialize.frac_str(z.p)} + {serialize.frac_str(z.q)}*sqrt({z.d})"
    return box_str(z, precision)


def emit(args, text_lines, record):
    if args.format == "record":
        print(serialize.dumps(record))
    else:
        for line in text_lines:
            print(line)


def _verdict_exit(v: IsogenyVerdict) -> int:
    if v.outcome == "isogenous":
        return 0
    if v.outcome == "not_isogenous":
        return 1
    return 2


def _verdict_record(v: IsogenyVerdict, precision):
    rec = {"outcome": v.outcome}
    if v.witness is not None:
        rec["witness"] = [list(r) for r in v.witness]
    if v.alpha is not None:
        rec["alpha"] = serialize.value_record(v.alpha, precision)
    if v.reason:
        rec["reason"] = v.reason
    if v.bound is not None:
        rec["bound"] = v.bound
    if v.used_reflection is not None:
        rec["used_reflection"] = v.used_reflection
    return rec


# -- lattice -----------------------------------------------------------------

def cmd_lattice(args) -> int:
    prec = args.precision
    if args.action == "normalize":
        w1 = parse_value(args.w1, prec)
        w2 = parse_value(args.w2, prec)
        with working_precision(prec):
            lat = make_lattice(w1, w2)
            rec = serialize.lattice_record(lat, prec)
        emit(args, [
            f"tau = {value_str(lat.tau, prec)}",
            f"basis_change = {lat.basis_change}",
        ], rec)
        return 0
    if args.action == "reduce":
        tau = parse_value(args.tau, prec)
        with working_precision(prec):
            red, mat = reduce_tau(QuadNum.rational(tau)
                                  if isinstance(tau, Fraction) else tau)
        rec = {
            "tau_reduced": serialize.value_record(red, prec),
            "unimodular": [list(r) for r in mat],
        }
        emit(args, [
            f"tau_reduced = {value_str(red, prec)}",
            f"unimodular = {mat}",
        ], rec)
        return 0
    if args.action == "cm":
        tau = parse_value(args.tau, prec)
        lat = lattice_from_tau(tau, prec)
        with working_precision(prec):
            d = cm_field(lat, args.bound)
        rec = {"cm_d": d}
        lines = [f"cm_d = {d}"]
        if d is None:
            reason = ("no quadratic relation with coefficients up to bound "
                      f"{args.bound}")
            rec.update(bound=args.bound, reason=reason)
            lines.append(f"reason = {reason}")
        emit(args, lines, rec)
        return 0 if d is not None else 2
    tau1 = parse_value(args.tau1, prec)
    tau2 = parse_value(args.tau2, prec)
    l1 = lattice_from_tau(tau1, prec)
    l2 = lattice_from_tau(tau2, prec)
    with working_precision(prec):
        if args.action == "isogenous":
            v = is_isogenous(l1, l2, args.bound)
        else:
            v = isr_equivalent(l1, l2, args.bound)
    rec = _verdict_record(v, prec)
    lines = [f"outcome = {v.outcome}"]
    if v.witness is not None:
        lines.append(f"witness = {v.witness}")
    if v.used_reflection is not None:
        lines.append(f"used_reflection = {v.used_reflection}")
    if v.reason:
        lines.append(f"reason = {v.reason}")
    emit(args, lines, rec)
    return _verdict_exit(v)


# -- wp ----------------------------------------------------------------------

def _random_cell_points(lat: Lattice, count: int, seed: int, precision: int):
    import random

    rng = random.Random(seed)
    with working_precision(precision):
        tau = complex(lat.tau_box().mid())
        w1 = complex(lat.omega1_box().mid())
    out = []
    for _ in range(count):
        x = rng.uniform(0.12, 0.44)
        y = rng.uniform(0.12, 0.44)
        out.append((x + y * tau) * w1)
    return out


def cmd_wp(args) -> int:
    from .wp_numerics import (
        addition_residual,
        homogeneity_residual,
        invariants,
        isogeny_residual,
        ode_residual,
        schwarz_residual,
        wp,
        wp_prime,
    )

    prec = args.precision
    if args.action == "verify" and args.samples < 1:
        raise CliError("--samples must be at least 1")
    tau = parse_value(args.tau, prec)
    lat = lattice_from_tau(tau, prec)
    model = invariants(lat, prec)
    if args.action == "invariants":
        rec = {
            "g2": serialize.box_record(model.g2, prec),
            "g3": serialize.box_record(model.g3, prec),
            "precision": prec,
        }
        emit(args, [
            f"g2 = {box_str(model.g2, prec)}",
            f"g3 = {box_str(model.g3, prec)}",
        ], rec)
        return 0
    if args.action == "eval":
        z = parse_value(args.z, prec)
        with working_precision(prec):
            p_val = wp(model, z)
            pp_val = wp_prime(model, z)
        rec = {
            "wp": serialize.box_record(p_val, prec),
            "wp_prime": serialize.box_record(pp_val, prec),
        }
        emit(args, [
            f"wp(z) = {box_str(p_val, prec)}",
            f"wp'(z) = {box_str(pp_val, prec)}",
        ], rec)
        return 0
    # verify
    zs = _random_cell_points(lat, args.samples, args.seed, prec)
    worst = mp.mpf(0)
    tag = args.identity
    with working_precision(prec):
        if tag == "isogeny":
            tau2 = parse_value(args.tau2, prec) if args.tau2 else None
            l2 = (lattice_from_tau(tau2, prec) if tau2 is not None
                  else make_lattice(lat.omega1, lat.omega2 * 2))
            v = is_isogenous(lat, l2, args.bound)
            if not v.is_isogenous:
                raise CliError("lattices not certified isogenous")
        for z in zs:
            if tag == "ode":
                r = ode_residual(model, z)
            elif tag == "homogeneity":
                r = homogeneity_residual(model, Fraction(3, 2), z)
            elif tag == "schwarz":
                r = schwarz_residual(model, z)
            elif tag == "addition":
                r = addition_residual(model, z, 0.7 * z + 0.11)
            else:  # isogeny
                r = isogeny_residual(model, l2, v.alpha, z)
            worst = max(worst, r.value)
    # rounded up: the printed bound is never below the certified one
    bound_str = serialize.decimal_at_least(worst, endpoint_fraction(worst._mpf_))
    rec = {
        "identity": tag,
        "samples": args.samples,
        "precision": prec,
        "max_residual": bound_str,
    }
    emit(args, [f"max residual over {args.samples} samples = {bound_str}"], rec)
    return 0


# -- predim ------------------------------------------------------------------

def _load_config(path):
    with open(path, encoding="utf-8") as fh:
        return serialize.parse_configuration(serialize.loads(fh.read()))


def cmd_predim(args) -> int:
    from .predim_engine import (
        chain_decompose,
        check_semimodularity,
        delta,
        independence_certificate,
        is_strong,
        predim_dim,
        strong_hull,
    )

    cfg = _load_config(args.config)
    subset = parse_subset(getattr(args, "set", None))
    base = parse_subset(getattr(args, "base", None))
    slots = parse_slots(getattr(args, "slots", None), cfg)
    if args.action == "report":
        rep = delta(cfg, slots, subset, base)
        rec = {
            "td": rep.td,
            "grk_per_slot": list(rep.grk_per_slot),
            "grk_total": rep.grk_total,
            "delta": rep.delta,
        }
        emit(args, [
            f"td = {rep.td}",
            f"grk = {list(rep.grk_per_slot)} (total {rep.grk_total})",
            f"delta = {rep.delta}",
        ], rec)
        return 0
    if args.action == "strong":
        ok, witness = is_strong(cfg, subset, slots)
        rec = {"strong": ok}
        lines = [f"strong = {ok}"]
        if witness is not None:
            rec["violating_subset"] = sorted(witness)
            lines.append(f"violating_subset = {sorted(witness)}")
        emit(args, lines, rec)
        return 0 if ok else 1
    if args.action == "hull":
        hull = strong_hull(cfg, subset, slots)
        rec = {"hull": sorted(hull)}
        emit(args, [f"hull = {sorted(hull)}"], rec)
        return 0
    if args.action == "dim":
        dim, witness = predim_dim(cfg, subset, base, slots, with_witness=True)
        rec = {"dim": dim, "witness": sorted(witness)}
        emit(args, [f"dim = {dim}", f"witness = {sorted(witness)}"], rec)
        return 0
    if args.action == "chain":
        target = parse_subset(args.target) or cfg.coordinates
        chain = chain_decompose(cfg, subset, target, slots)
        rec = {
            "base": sorted(chain.base),
            "steps": [
                {"subset": sorted(s.subset), "tag": s.tag, "delta": s.delta}
                for s in chain.steps
            ],
        }
        lines = [f"base = {sorted(chain.base)}"] + [
            f"step {i + 1}: {s.tag} -> {sorted(s.subset)} (delta {s.delta})"
            for i, s in enumerate(chain.steps)
        ]
        emit(args, lines, rec)
        return 0
    if args.action == "lemma7":
        b = parse_subset(args.b)
        rep = check_semimodularity(cfg, subset, b, base, slots)
        rec = {
            "grk_upper_semimodular": rep.grk_upper_semimodular,
            "td_lower_semimodular": rep.td_lower_semimodular,
            "delta_submodular": rep.delta_submodular,
            "grk_monotone": rep.grk_monotone,
        }
        emit(args, [f"{k} = {v}" for k, v in rec.items()], rec)
        return 0 if rep.all_hold else 1
    # certificate
    f1 = tuple(int(x) for x in args.f1.split(","))
    f2 = tuple(int(x) for x in args.f2.split(","))
    fa = parse_subset(args.fa)
    cert = independence_certificate(cfg, f1, f2, subset, fa, base)
    rec = {
        "d0": cert.d0, "d1": cert.d1, "d2": cert.d2, "d3": cert.d3,
        "delta0_A": cert.delta0_a,
        "A": sorted(cert.a_intersection),
        "semimodular_bound_holds": cert.semimodular_bound_holds,
        "d3_bound_holds": cert.d3_bound_holds,
        "hypotheses_hold": cert.hypotheses_hold,
        "conclusion_holds": cert.conclusion_holds,
        "certified": cert.certified,
    }
    if cert.note:
        rec["note"] = cert.note
    lines = [
        f"d0={cert.d0} d1={cert.d1} d2={cert.d2} d3={cert.d3}",
        f"delta0(A/C) = {cert.delta0_a} over A = {sorted(cert.a_intersection)}",
        f"delta0(A/C) <= d1+d2-d3: {cert.semimodular_bound_holds}",
        f"d3 <= min(d1,d2): {cert.d3_bound_holds}",
        f"hypotheses hold: {cert.hypotheses_hold}",
        f"conclusion holds: {cert.conclusion_holds}",
        f"certified: {cert.certified}",
    ]
    if cert.note:
        lines.append(cert.note)
    emit(args, lines, rec)
    return 0 if cert.certified else 1


# -- deriv -------------------------------------------------------------------

def _load_presentation(path):
    with open(path, encoding="utf-8") as fh:
        return serialize.parse_presentation(serialize.loads(fh.read()))


def _parse_assignments(text):
    out = {}
    if not text:
        return out
    for part in text.split(","):
        name, _, value = part.partition("=")
        if not _:
            raise CliError(f"expected name=value, got {part!r}")
        out[name.strip()] = value.strip()
    return out


def _derivation_value(v, args, precision: int):
    """A derivation value as printed: a box at a numeric point as its box
    record or box_str, so the enclosure shows; a generic value as written."""
    if not isinstance(v, ComplexBox):
        return str(v)
    if args.format == "record":
        return serialize.box_record(v, precision)
    return box_str(v, precision)


def cmd_deriv(args) -> int:
    from .differentials import der_dimension, extend_derivation, hcl_witness

    p, forms = _load_presentation(args.presentation)
    if args.action == "rank":
        dim = der_dimension(p, forms)
        rec = {"der_dimension": dim, "generators": len(p.generators)}
        emit(args, [f"der_dimension = {dim}"], rec)
        return 0
    if args.action == "extend":
        boundary = _parse_assignments(args.boundary)
        target = None
        if args.target:
            t = _parse_assignments(args.target)
            if len(t) != 1:
                raise CliError("target must be a single name=value")
            target = next(iter(t.items()))
        res = extend_derivation(p, forms, boundary, target)
        rec = {"kind": res.kind}
        lines = [f"kind = {res.kind}"]
        if res.kind == "family":
            rec["dimension"] = res.dimension
            lines.append(f"dimension = {res.dimension}")
        if res.assignment is not None:
            shown = {k: _derivation_value(v, args, p.precision)
                     for k, v in res.assignment.items()}
            rec["assignment"] = shown
            lines.append(f"assignment = {shown}")
        if res.certificate_row is not None:
            rec["certificate_row"] = [_derivation_value(x, args, p.precision)
                                      for x in res.certificate_row]
            lines.append(f"certificate_row = {rec['certificate_row']}")
        emit(args, lines, rec)
        return 0 if res.kind != "inconsistent" else 1
    # hcl
    b_index = p.generators.index(args.b) if args.b in p.generators \
        else int(args.b)
    verdict = hcl_witness(p, forms, b_index)
    rec = {"in_closure": verdict.in_closure}
    lines = [f"in_closure = {verdict.in_closure}"]
    if verdict.witness is not None:
        shown = {k: _derivation_value(v, args, p.precision)
                 for k, v in verdict.witness.items()}
        rec["witness"] = shown
        lines.append(f"witness = {shown}")
    emit(args, lines, rec)
    return 0


# -- count -------------------------------------------------------------------

def cmd_count(args) -> int:
    from .counting import Domain, ExpWpLog, Identity, count_report, default_eps

    prec = args.precision
    lo, _, hi = args.domain.partition(":")
    domain = Domain(
        _rational(lo, "--domain") if lo else None,
        _rational(hi, "--domain") if hi else None,
    )
    if args.h == "identity":
        target = Identity(domain)
    else:
        tau = parse_value(args.tau, prec)
        lat = lattice_from_tau(tau, prec)
        target = ExpWpLog(lat, domain)
    schedule = [int(x) for x in args.heights.split(",")]
    eps = _rational(args.eps, "--eps") if args.eps else default_eps(prec)
    rep = count_report(target, schedule, eps, prec)
    rec = {
        "h": args.h,
        "heights": list(rep.h_schedule),
        "counts": list(rep.counts),
        "undetermined": list(rep.undetermined),
        "eps": serialize.frac_str(rep.eps),
        "precision": prec,
    }
    lines = ["H\tN(H)\tundetermined"]
    for H, n, u in zip(rep.h_schedule, rep.counts, rep.undetermined):
        lines.append(f"{H}\t{n}\t{u}")
    if rep.fit is not None:
        c, k, ssr = rep.fit
        rec["fit"] = {"c": f"{c:.6g}", "k": f"{k:.6g}", "ssr": f"{ssr:.6g}"}
        lines.append(f"fit: N ~ {c:.6g} * (log H)^{k:.6g} (ssr {ssr:.3g})")
    else:
        lines.append("fit: not reported (need >= 3 nonzero data points)")
    emit(args, lines, rec)
    return 0


# -- selftest ----------------------------------------------------------------

def cmd_selftest(args) -> int:
    from . import acceptance

    selected = None
    if args.criteria:
        selected = [int(x) for x in args.criteria.split(",")]
    results = acceptance.run_all(selected, seed=args.seed)
    all_ok = True
    for num, ok, detail in results:
        status = "PASS" if ok else "FAIL"
        print(f"criterion {num:2d}: {status} - {detail}")
        all_ok = all_ok and ok
    return 0 if all_ok else 1


# -- entry point -------------------------------------------------------------

_COMMON = {
    "precision": dict(type=int, default=128),
    "bound": dict(type=int, default=10),
    "seed": dict(type=int, default=20260824),
    "format": dict(choices=("text", "record"), default="text"),
}


def _common(sp, *names):
    """Add the common options the subcommand reads, and no others."""
    for name in names:
        sp.add_argument(f"--{name}", **_COMMON[name])


COMMANDS = ("lattice", "wp", "predim", "deriv", "count", "selftest")


def build_parser(command=None) -> argparse.ArgumentParser:
    """The whole command tree, or only the subtree of `command` when it
    names a command; a call parses with the subtree of its argv[0]."""
    ap = argparse.ArgumentParser(
        prog="wplab",
        description="lattice, wp-function, predimension, derivation and "
                    "point-counting workbench",
    )
    # with one command the usage line still lists them all, as in the
    # whole tree (an error past the command prints it)
    sub = ap.add_subparsers(
        dest="command", required=True,
        metavar=None if command is None else "{" + ",".join(COMMANDS) + "}")

    if command in (None, "lattice"):
        lat = sub.add_parser("lattice")
        lat_sub = lat.add_subparsers(dest="action", required=True)
        p = lat_sub.add_parser("normalize")
        p.add_argument("--w1", required=True)
        p.add_argument("--w2", required=True)
        _common(p, "precision", "format")
        p = lat_sub.add_parser("reduce")
        p.add_argument("--tau", required=True)
        _common(p, "precision", "format")
        p = lat_sub.add_parser("cm")
        p.add_argument("--tau", required=True)
        _common(p, "precision", "bound", "format")
        for name in ("isogenous", "isr"):
            p = lat_sub.add_parser(name)
            p.add_argument("--tau1", required=True)
            p.add_argument("--tau2", required=True)
            _common(p, "precision", "bound", "format")

    if command in (None, "wp"):
        wp_p = sub.add_parser("wp")
        wp_sub = wp_p.add_subparsers(dest="action", required=True)
        p = wp_sub.add_parser("invariants")
        p.add_argument("--tau", required=True)
        _common(p, "precision", "format")
        p = wp_sub.add_parser("eval")
        p.add_argument("--tau", required=True)
        p.add_argument("--z", required=True)
        _common(p, "precision", "format")
        p = wp_sub.add_parser("verify")
        p.add_argument("--tau", required=True)
        p.add_argument("--tau2")
        p.add_argument(
            "--identity", required=True,
            choices=("ode", "homogeneity", "schwarz", "addition", "isogeny"),
        )
        p.add_argument("--samples", type=int, default=100)
        _common(p, "precision", "bound", "seed", "format")

    if command in (None, "predim"):
        pd = sub.add_parser("predim")
        pd_sub = pd.add_subparsers(dest="action", required=True)
        for name in ("report", "strong", "hull", "dim", "chain", "lemma7",
                     "certificate"):
            p = pd_sub.add_parser(name)
            p.add_argument("--config", required=True)
            p.add_argument("--set", default="")
            p.add_argument("--base", default="")
            p.add_argument("--slots", default="")
            if name == "chain":
                p.add_argument("--target", default="")
            if name == "lemma7":
                p.add_argument("--b", default="")
            if name == "certificate":
                p.add_argument("--f1", required=True)
                p.add_argument("--f2", required=True)
                p.add_argument("--fa", required=True)
            _common(p, "format")

    if command in (None, "deriv"):
        dv = sub.add_parser("deriv")
        dv_sub = dv.add_subparsers(dest="action", required=True)
        for name in ("rank", "extend", "hcl"):
            # no abbreviations: --bound would be read as --boundary
            p = dv_sub.add_parser(name, allow_abbrev=False)
            p.add_argument("--presentation", required=True)
            if name == "extend":
                p.add_argument("--boundary", default="")
                p.add_argument("--target", default="")
            if name == "hcl":
                p.add_argument("--b", required=True)
            _common(p, "format")

    if command in (None, "count"):
        p = sub.add_parser("count")
        p.add_argument("--h", choices=("identity", "expwplog"),
                       default="identity")
        p.add_argument("--tau", default="2i:-1")
        p.add_argument("--domain", default="0:")
        p.add_argument("--heights", default="2,10")
        p.add_argument("--eps", default="")
        _common(p, "precision", "format")

    if command in (None, "selftest"):
        p = sub.add_parser("selftest")
        p.add_argument("--criteria", default="")
        _common(p, "seed")
    return ap


def _attach_signed_values(argv):
    """Pass a value such as '-0.25+1.5i' to a value option as
    '--tau2=-0.25+1.5i', so that argparse does not take it for an option."""
    out = []
    for tok in argv:
        if out and out[-1] in VALUE_OPTIONS and SIGNED_VALUE_RE.match(tok):
            out[-1] = f"{out[-1]}={tok}"
        else:
            out.append(tok)
    return out


def _show_warning(message, category, filename, lineno, file=None, line=None):
    print(f"warning: {message}", file=sys.stderr)


def run(argv) -> int:
    """One CLI call; a warning prints as one `warning: ...` line, without
    changing how warnings show outside the call."""
    with warnings.catch_warnings():
        warnings.showwarning = _show_warning
        return _run(argv)


def _run(argv) -> int:
    ap = build_parser(argv[0] if argv and argv[0] in COMMANDS else None)
    try:
        args = ap.parse_args(_attach_signed_values(argv))
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        if args.command == "lattice":
            return cmd_lattice(args)
        if args.command == "wp":
            return cmd_wp(args)
        if args.command == "predim":
            return cmd_predim(args)
        if args.command == "deriv":
            return cmd_deriv(args)
        if args.command == "count":
            return cmd_count(args)
        return cmd_selftest(args)
    except WplabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
