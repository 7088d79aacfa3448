"""CLI surface: parsing, exit-code conventions, record output, determinism."""

import argparse
import contextlib
import io
import json
import re
import subprocess
import sys
import time
import warnings
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from wplab import serialize
from wplab.cintervals import ComplexBox, endpoint_fraction, ri, working_precision
from wplab.cli import CliError, build_parser, parse_value, run
from wplab.differentials import GENERIC, FieldPresentation
from wplab.predim_engine import Configuration, FunctionSlot, GroupPoint
from wplab.quadfield import QuadNum

from records import parse_quad, presentation_record

F = Fraction


def invoke(*args):
    out = subprocess.run(
        [sys.executable, "-m", "wplab.cli", *args],
        capture_output=True, text=True, timeout=300,
    )
    return out.returncode, out.stdout, out.stderr


def test_parse_value_literals():
    assert parse_value("i", 64) == QuadNum(0, 1, -1)
    assert parse_value("1/2+3/2i:-3", 64) == QuadNum(F(1, 2), F(3, 2), -3)
    assert parse_value("-1+2i:-1", 64) == QuadNum(F(-1), F(2), -1)
    # a pure imaginary exact value, as in count's default --tau
    assert parse_value("2i:-1", 64) == QuadNum(0, 2, -1)
    assert parse_value("-i:-3", 64) == QuadNum(0, -1, -3)
    box = parse_value("0.25+1.5i", 64)
    assert isinstance(box, ComplexBox)
    assert abs(complex(box.mid()) - (0.25 + 1.5j)) < 1e-12
    assert parse_value("3/4", 64) == F(3, 4)  # a rational stays exact
    assert parse_value("-0.25", 64) == F(-1, 4)


def test_parse_value_numeric_forms():
    def parts(text):
        box = parse_value(text, 64)
        assert isinstance(box, ComplexBox) and box.is_exact()
        return complex(box.mid())

    assert parts("1.5i") == 1.5j  # a lone number before i is imaginary
    assert parts("-2i") == -2j
    assert parts("-i") == -1j
    assert parts("-1/2+i") == -0.5 + 1j
    assert parts("1/2+3/4i") == 0.5 + 0.75j
    assert parts("1/4-3/2i") == 0.25 - 1.5j
    assert parts("-.5+1.5i") == -0.5 + 1.5j
    with pytest.raises(CliError):
        parse_value("i+1", 64)
    # a fraction's numerator is an integer
    for text in ("1.5/2+i", "1e-2/3i"):
        with pytest.raises(CliError, match="cannot parse complex value"):
            parse_value(text, 64)

    def decimal(text):
        box = parse_value(text, 64)
        assert isinstance(box, ComplexBox)
        return box

    # an exponent reads as in a plain real value
    for text, value in (("1e-20+0i", 1e-20), ("2.5e3-1e-2i", 2500 - 0.01j),
                        ("1e-2i", 0.01j), ("3E-4-2E2i", 0.0003 - 200j)):
        assert complex(decimal(text).mid()) == pytest.approx(value, rel=1e-15)
    a, b = decimal("1e-20+0i"), decimal("0.00000000000000000001+0i")
    assert a.re._mpi_ == b.re._mpi_ and a.im._mpi_ == b.im._mpi_


def test_exit_codes():
    code, _, _ = invoke("lattice", "isogenous", "--tau1", "0+1i:-1",
                        "--tau2", "0+2i:-1")
    assert code == 0
    code, _, _ = invoke("lattice", "isogenous", "--tau1", "0+1i:-1",
                        "--tau2", "0+1i:-2")
    assert code == 1  # certified negative
    code, _, err = invoke("lattice", "reduce", "--tau", "nonsense")
    assert code == 2 and "error" in err


def test_cm_without_relation_exits_unknown():
    code, out, _ = invoke("lattice", "cm", "--tau", "0.2345+1.618i",
                          "--bound", "20")
    reason = "no quadratic relation with coefficients up to bound 20"
    assert code == 2 and out == f"cm_d = None\nreason = {reason}\n"
    code, out, _ = invoke("lattice", "cm", "--tau", "0.2345+1.618i",
                          "--bound", "20", "--format", "record")
    assert code == 2 and json.loads(out) == {"cm_d": None, "bound": 20,
                                             "reason": reason}


def test_record_format_is_json(tmp_path):
    code, out, _ = invoke("wp", "invariants", "--tau", "i",
                          "--format", "record")
    assert code == 0
    rec = json.loads(out)
    assert set(rec) == {"g2", "g3", "precision"}
    assert rec["precision"] == 128


def test_reduce_command():
    code, out, _ = invoke("lattice", "reduce", "--tau", "1+1i:-1",
                          "--format", "record")
    rec = json.loads(out)
    assert rec["tau_reduced"] == {"p": "0", "q": "1", "d": -1}


def test_predim_commands(tmp_path):
    cfg = Configuration(
        ("b", "e"), [[F(1), F(0)], [F(0), F(1)]],
        [FunctionSlot(0, "exp")], [GroupPoint(0, "b", "e")],
    )
    path = tmp_path / "cfg.json"
    path.write_text(serialize.dumps(serialize.configuration_record(cfg)))
    code, out, _ = invoke("predim", "report", "--config", str(path),
                          "--set", "b,e", "--format", "record")
    assert code == 0
    assert json.loads(out) == {
        "td": 2, "grk_per_slot": [1], "grk_total": 1, "delta": 1,
    }
    code, out, _ = invoke("predim", "dim", "--config", str(path),
                          "--set", "b", "--format", "record")
    assert json.loads(out)["dim"] == 1


CM_CONFIG = {
    "coordinates": ["b1", "e1", "b2", "e2"],
    "matroid": {"rows": [["1", "0", "0", "0"], ["0", "1", "0", "0"],
                         ["0", "0", "1", "0"], ["0", "0", "0", "1"]]},
    "slots": [{"kind": "wp_cm", "d": -1}],
    "points": [{"slot": 0, "b": "b1", "e": "e1"}, {"slot": 0, "b": "b2", "e": "e2"}],
    "relations": [{"slot": 0, "rows": [[["0", "1"], ["-1", "0"]]]}],
    "base": [],
}


@pytest.mark.parametrize("argv, record, message", [
    (["predim", "hull", "--config"],
     dict(CM_CONFIG, relations=[{"slot": 0, "rows": [[1, ["-1", "0"]]]}]),
     "relations[0].rows[0][0] is not an [x, y] pair"),
    (["predim", "hull", "--config"],
     {k: v for k, v in CM_CONFIG.items() if k != "matroid"},
     "configuration has no 'matroid' field"),
    (["predim", "hull", "--config"], [CM_CONFIG],
     "configuration is not a JSON object"),
    (["deriv", "rank", "--presentation"],
     {"mode": "generic", "generators": ["a", "e"], "forms": [{"b": 0, "fb": 1}]},
     "forms[0] has no 'fprime' field"),
    (["predim", "hull", "--config"],
     dict(CM_CONFIG, matroid={"rows": [["1", "0", "0", "0"], ["0", "1/0", "0", "0"],
                                       ["0", "0", "1", "0"], ["0", "0", "0", "1"]]}),
     "configuration.matroid.rows[1][1] has a zero denominator: '1/0'"),
    (["predim", "hull", "--config"],
     dict(CM_CONFIG, relations=[{"slot": 0, "rows": [[["0", "1/0"], ["-1", "0"]]]}]),
     "relations[0].rows[0][0][1] has a zero denominator: '1/0'"),
    (["deriv", "rank", "--presentation"],
     {"mode": "generic", "generators": ["a", "e"],
      "forms": [{"b": 0, "fb": 1, "fprime": "e + 1"}]},
     "forms[0].fprime: 'e + 1' is a sum; generic values are monomials"),
    (["deriv", "rank", "--presentation"],
     {"mode": "generic", "generators": ["a", "e"],
      "forms": [{"b": 0, "fb": 1, "fprime": "exp(e)"}]},
     "forms[0].fprime: cannot read 'exp(e)': 'exp' is not a generator"),
    (["deriv", "rank", "--presentation"],
     {"mode": "numeric_point", "generators": ["x"], "relations": [],
      "point": {"x": {"re": "2", "im": "0", "err": "0", "precision": 128}},
      "forms": [{"b": 0, "fb": 0, "fprime": "1/0"}]},
     "forms[0].fprime has a zero denominator: '1/0'"),
], ids=["cm-entry-not-a-pair", "no-matroid", "top-level-list", "form-without-fprime",
        "matroid-zero-denominator", "relation-zero-denominator", "fprime-sum",
        "fprime-function", "numeric-fprime-zero-denominator"])
def test_malformed_record_files_exit_2(argv, record, message, tmp_path):
    path = tmp_path / "record.json"
    path.write_text(json.dumps(record))
    code, out, err = invoke(*argv, str(path))
    assert (code, out) == (2, "")
    assert err == f"error: {message}\n"


def test_count_command():
    code, out, _ = invoke("count", "--h", "identity", "--heights", "2,10",
                          "--format", "record")
    rec = json.loads(out)
    assert code == 0 and rec["counts"] == [3, 63]


@pytest.mark.parametrize("heights", ["--heights=-2", "--heights=-3,-1",
                                     "--heights=0", "--heights=-1,0"])
def test_count_schedules_below_one_read_zero(heights, capsys):
    # no positive rational has height below 1, so such a schedule counts
    # nothing, whether it ends below 0 or at 0
    code = run(["count", "--h", "identity", heights, "--format", "record"])
    rec = json.loads(capsys.readouterr().out)
    zeros = [0] * len(rec["heights"])
    assert code == 0 and rec["counts"] == zeros and rec["undetermined"] == zeros


def test_deriv_extend_on_the_empty_system_is_a_family(tmp_path):
    # a generic presentation with no forms and no boundary: every
    # derivation extends, so the answer is the whole space, not exit 1
    path = tmp_path / "pres.json"
    path.write_text(serialize.dumps(presentation_record(
        FieldPresentation(GENERIC, ("a", "b")))))
    code, out, _ = invoke("deriv", "extend", "--presentation", str(path))
    assert code == 0
    assert out == ("kind = family\ndimension = 2\n"
                   "assignment = {'a': '0', 'b': '0'}\n")


@pytest.mark.parametrize("value, message", [
    ("e+a", "boundary a: 'e+a' is a sum; generic values are monomials"),
    ("sin(e)", "boundary a: cannot read 'sin(e)': 'sin' is not a generator"),
    ("b", "boundary a: cannot read 'b': 'b' is not a generator"),
    ("1/(e-e)", "boundary a: cannot read '1/(e-e)': division by zero"),
], ids=["sum", "function", "unknown-name", "division-by-zero"])
def test_deriv_values_outside_the_grammar_exit_2(value, message, tmp_path, capsys):
    path = tmp_path / "pres.json"
    path.write_text(serialize.dumps(presentation_record(
        FieldPresentation(GENERIC, ("a", "e")), [(0, 0, 1, "e")])))
    argv = ["deriv", "extend", "--presentation", str(path), "--boundary"]
    assert run(argv + [f"a={value}"]) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")
    # decimals are exact, and what is printed reads back as itself
    assert run(argv + ["a=-1.5/e**2", "--format", "record"]) == 0
    shown = json.loads(capsys.readouterr().out)["assignment"]
    assert shown == {"a": "-3/(2*e**2)", "e": "-3/(2*e)"}
    assert run(argv + [f"a={shown['a']}", "--format", "record"]) == 0
    assert json.loads(capsys.readouterr().out)["assignment"] == shown


def test_determinism_same_bytes():
    args = ("wp", "verify", "--tau", "i", "--identity", "schwarz",
            "--samples", "4")
    first = invoke(*args)
    second = invoke(*args)
    assert first == second and first[0] == 0


def test_run_in_process_matches_subprocess(capsys):
    code = run(["lattice", "cm", "--tau", "0+1i:-3"])
    out = capsys.readouterr().out
    assert code == 0 and "cm_d = -3" in out


def test_values_with_a_leading_minus():
    base = ("lattice", "isogenous", "--tau1", "0.25+1.5i")
    spaced = invoke(*base, "--tau2", "-0.25+1.5i")
    joined = invoke(*base, "--tau2=-0.25+1.5i")
    assert spaced[:2] == joined[:2] and spaced[0] == 0
    assert run(["wp", "eval", "--tau", "-1/2+i", "--z", "-1/3"]) == 0
    assert run(["wp", "invariants", "--tau", "-i"]) == 0


def test_exact_rational_z_on_the_lattice_is_a_certified_pole():
    for z in ("0", "1", "-2"):
        code, out, err = invoke("wp", "eval", "--tau", "i", "--z", z)
        assert code == 2 and out == ""
        assert err == "error: argument lies on the lattice\n"
    # off the lattice an exact rational prints what its box prints
    assert invoke("wp", "eval", "--tau", "i", "--z", "1/3") \
        == invoke("wp", "eval", "--tau", "i", "--z", "1/3+0i")
    # a real number is still no period ratio, and periods may be rational
    assert run(["lattice", "reduce", "--tau", "3/4"]) == 2
    assert run(["lattice", "normalize", "--w1", "2", "--w2", "1/2+3/2i"]) == 0


def test_rational_period_beside_an_exact_one_stays_exact():
    code, out, err = invoke("lattice", "normalize", "--w1", "1", "--w2", "i",
                            "--format", "record")
    assert code == 0 and err == ""
    rec = json.loads(out)
    assert rec["rep"] == "quad"
    assert parse_quad(rec["tau"]) == QuadNum(0, 1, -1)


def test_two_rational_periods_are_certified_degenerate():
    code, out, err = invoke("lattice", "normalize", "--w1", "1", "--w2", "2")
    assert (code, out, err) == (2, "", "error: periods have a real ratio\n")


def test_rational_tau_is_certified_degenerate():
    code, out, err = invoke("lattice", "reduce", "--tau", "1/2")
    assert (code, out, err) == (
        2, "", "error: tau must have positive imaginary part\n")


COMMON = {"--precision", "--bound", "--seed", "--format"}
PF = {"--precision", "--format"}
PBF = {"--precision", "--bound", "--format"}
READ = {
    ("lattice", "normalize"): PF, ("lattice", "reduce"): PF,
    ("lattice", "cm"): PBF, ("lattice", "isogenous"): PBF,
    ("lattice", "isr"): PBF,
    ("wp", "invariants"): PF, ("wp", "eval"): PF, ("wp", "verify"): COMMON,
    **{("predim", a): {"--format"} for a in (
        "report", "strong", "hull", "dim", "chain", "lemma7", "certificate")},
    **{("deriv", a): {"--format"} for a in ("rank", "extend", "hcl")},
    ("count",): PF,
    ("selftest",): {"--seed"},
}


def _leaves(parser, path=()):
    subs = [a for a in parser._actions
            if isinstance(a, argparse._SubParsersAction)]
    if not subs:
        yield path, parser
        return
    for name, child in subs[0].choices.items():
        yield from _leaves(child, path + (name,))


def test_each_subcommand_takes_only_the_common_options_it_reads():
    leaves = dict(_leaves(build_parser()))
    assert set(leaves) == set(READ)
    for path, parser in leaves.items():
        options = {s for a in parser._actions for s in a.option_strings}
        assert options & COMMON == READ[path], path
    assert sum(len(v) for v in READ.values()) == 34


@pytest.mark.parametrize("argv", [
    ["predim", "hull", "--config", "cfg.json", "--precision", "128"],
    ["deriv", "rank", "--presentation", "pres.json", "--seed", "1"],
    # not an abbreviation of --boundary
    ["deriv", "extend", "--presentation", "pres.json", "--bound", "5"],
    ["selftest", "--format", "record"],
    ["count", "--bound", "5"],
    ["wp", "eval", "--tau", "i", "--z", "1/3", "--seed", "1"],
    ["lattice", "cm", "--tau", "i", "--seed", "1"],
])
def test_unread_common_options_exit_2(argv, capsys):
    assert run(argv) == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def _help(parser, argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), pytest.raises(SystemExit):
        parser.parse_args(argv)
    return out.getvalue()


@pytest.mark.parametrize("command", sorted({path[0] for path in READ}))
def test_a_command_parser_prints_the_full_trees_help(command):
    # a call parses with the subtree of its command; every help text it can
    # print, and the top-level usage an error prints, match the whole tree
    full, own = build_parser(), build_parser(command)
    assert own.format_help() == full.format_help()
    paths = [(command,)] + [p for p in READ if p[0] == command and len(p) > 1]
    for path in paths:
        argv = [*path, "--help"]
        assert _help(own, argv) == _help(full, argv), argv


@pytest.mark.parametrize("argv, message", [
    (["wp", "eval", "--tau", "i", "--z", "1/0"], "value has a zero denominator: '1/0'"),
    (["wp", "eval", "--tau", "i", "--z", "1/0+i"], "value has a zero denominator: '1/0'"),
    (["wp", "eval", "--tau", "1/0i:-1", "--z", "1"],
     "value has a zero denominator: '1/0'"),
    (["lattice", "normalize", "--w1", "1/0", "--w2", "i"],
     "value has a zero denominator: '1/0'"),
    (["count", "--domain", "1/0:"], "--domain has a zero denominator: '1/0'"),
    (["count", "--eps", "1/0"], "--eps has a zero denominator: '1/0'"),
    (["wp", "invariants", "--tau", "1e400i"],
     "theta series out of range: binary exponent of magnitude 1.1331e+400 "
     "reached, the limit is 2^1024"),
    (["wp", "eval", "--tau", "1e400i", "--z", "1/3"],
     "theta series out of range: binary exponent of magnitude 1.1331e+400 "
     "reached, the limit is 2^1024"),
    (["wp", "verify", "--tau", "i", "--identity", "ode", "--samples", "0"],
     "--samples must be at least 1"),
    (["wp", "verify", "--tau", "i", "--identity", "ode", "--samples", "-3"],
     "--samples must be at least 1"),
    (["count", "--eps", "0"], "eps must be positive"),
    (["count", "--eps=-1/2"], "eps must be positive"),
    (["count", "--eps", "-1/2"], "eps must be positive"),
    (["wp", "invariants", "--tau", "1e12i"],
     "theta series out of range: a fixed-point scale of 1133090035635 bits "
     "is needed, the limit is 134217728 bits"),
    (["wp", "invariants", "--tau", "1e20i"],
     "theta series out of range: a fixed-point scale of "
     "113309003545679839410 bits is needed, the limit is 134217728 bits"),
    (["wp", "eval", "--tau", "i", "--z", "nan"], "cannot parse value 'nan'"),
    (["lattice", "cm", "--tau", "nan"], "cannot parse value 'nan'"),
    (["wp", "eval", "--tau", "i", "--z", "inf"], "cannot parse complex value 'inf'"),
    # mpmath's interval literals are not values
    (["wp", "eval", "--tau", "i", "--z", "[0.1,0.2]"], "cannot parse value '[0.1,0.2]'"),
    (["wp", "eval", "--tau", "i", "--z", "0.3+-0.01"], "cannot parse value '0.3+-0.01'"),
], ids=["zero-denominator-z", "zero-denominator-complex-z",
        "zero-denominator-tau", "zero-denominator-w1",
        "zero-denominator-domain", "zero-denominator-eps", "invariants-1e400i",
        "eval-1e400i", "samples-0", "samples-minus-3", "eps-0",
        "eps-joined-minus-half", "eps-minus-half", "invariants-1e12i",
        "invariants-1e20i", "z-nan", "tau-nan", "z-inf", "z-interval",
        "z-plus-minus"])
def test_inputs_that_answer_nothing_exit_2_with_one_error_line(argv, message,
                                                              capsys):
    assert run(argv) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")


def test_a_printed_box_near_a_pole_holds_the_value(capsys):
    # wp(z) = 1/z^2 + O(z^2): rounding the 41-digit midpoint of about
    # 1.1e73 moves it 1.1e32, far beyond the box's own radius
    assert run(["wp", "eval", "--tau", "i", "--z", "3e-37", "--format", "record"]) == 0
    box = json.loads(capsys.readouterr().out)["wp"]
    err = Fraction(box["err"])
    assert abs(Fraction(box["re"]) - 1 / Fraction(3, 10 ** 37) ** 2) <= err
    assert abs(Fraction(box["im"])) <= err


def test_a_large_but_sized_tau_still_answers(capsys):
    # the scale cap leaves Im tau = 1e7 (11 million bits) computing
    assert run(["wp", "invariants", "--tau", "1e7i"]) == 0
    assert capsys.readouterr().out.startswith("g2 = 129.878788045336582981")


def test_numeric_derivation_values_print_their_enclosures(tmp_path, capsys):
    # y - x**2 at x = 2: the boundary x = 1/3 forces y = 4/3; each printed
    # box must contain the exact value, in both formats
    path = tmp_path / "pres.json"
    path.write_text(json.dumps(
        {"mode": "numeric_point", "generators": ["x", "y"], "relations": ["y - x**2"],
         "precision": 128,
         "point": {"x": {"re": "2", "im": "0", "err": "0", "precision": 128},
                   "y": {"re": "4", "im": "0", "err": "0", "precision": 128}}}))
    argv = ["deriv", "extend", "--presentation", str(path), "--boundary", "x=1/3"]
    assert run(argv + ["--format", "record"]) == 0
    shown = json.loads(capsys.readouterr().out)["assignment"]
    assert run(argv) == 0
    text = capsys.readouterr().out
    assert text.startswith("kind = unique\nassignment = {")
    for name, exact in (("x", F(1, 3)), ("y", F(4, 3))):
        rec = shown[name]
        assert abs(F(rec["re"]) - exact) <= F(rec["err"]) and F(rec["im"]) == 0
        assert f"'{name}': '{rec['re']} + {rec['im']}i (err {rec['err']})'" in text


def test_wp_verify_isogeny_default_partner_keeps_the_representation():
    # the default partner 2*omega2 of an exact lattice is exact too: no
    # mixed-representation warning reaches stderr
    code, out, err = invoke("wp", "verify", "--tau", "0+1i:-1", "--identity",
                            "isogeny", "--samples", "3")
    assert (code, err) == (0, "")
    assert out.startswith("max residual over 3 samples = ")


def test_wp_verify_prints_its_bound_rounded_up(capsys):
    # the worst ODE residual at these samples is 1.836348339...e-42, which
    # rounded to nearest printed as 1.8363483e-42, below the certified bound
    from wplab.cintervals import endpoint_fraction, working_precision
    from wplab.cli import _random_cell_points, lattice_from_tau
    from wplab.wp_numerics import invariants, ode_residual

    assert run(["wp", "verify", "--tau", "i", "--identity", "ode", "--samples", "3",
                "--seed", "20260824"]) == 0
    printed = capsys.readouterr().out.rsplit(" = ", 1)[1].strip()
    lat = lattice_from_tau(QuadNum(0, 1, -1), 128)
    model = invariants(lat, 128)
    with working_precision(128):
        worst = max(ode_residual(model, z).value
                    for z in _random_cell_points(lat, 3, 20260824, 128))
    assert printed == "1.8363484e-42"
    assert Fraction(printed) >= endpoint_fraction(worst._mpf_)


def test_warnings_print_as_one_line():
    code, out, err = invoke("lattice", "isogenous", "--tau1", "i", "--tau2", "0.3+1.7i")
    assert code == 0 and out.startswith("outcome = isogenous")
    assert err.splitlines()[0] == ("warning: mixed exact/numeric isogeny test; "
                                   "downgrading to numeric")
    # a library caller keeps Python's own warning display
    shown = warnings.showwarning
    assert run(["lattice", "isogenous", "--tau1", "i", "--tau2", "0.3+1.7i"]) == 0
    assert warnings.showwarning is shown


# -- the input contract ------------------------------------------------------
#
# Every leaf of the parser, run in process with options drawn from valid
# literals and from hostile ones, and with record files whose fields are
# hostile: a call raises nothing, prints no traceback and exits 0, 1 or 2.
# Exit 1 comes only with the command's certified-negative verdict line, and
# exit 2 with one error line or an unknown-up-to-bound reason line.

# numbers read exactly or as boxes, near 0 and near a lattice point too
VALID = ("i", "2i:-1", "1/2+3/2i:-3", "-1+2i:-1", "0.25+1.5i", "-0.25+1.5i", "1.5i",
         "-1/2+i", "0.3+1.7i", "1/3", "0", "0.25", "1e-30", "1+1e-25i", "3e-37")
HOSTILE = ("1/0", "0/0", "1/0+i", "1e400", "1e400i", "1e12i", "-0", "9" * 5000, "nan",
           "inf", "[0.1,0.2]", "0.3+-0.01", "", "0.5/2", "x", "1i:-4",
           # decimals beyond mpmath's outward rounding and beyond the exponent
           # limit, and a field d beyond its limit
           "9.8e-2451+1i", "1e-2500", "1.5e+2500i", "1e10000000", "1e100000000",
           "1i:-1000000000000000000000000000057")
VALUES = VALID + HOSTILE
# names of coordinates that both configurations below have
NAMES = (None, "", "b1", "b1,e1", "e1", ",")
INTEGERS = ("x", "1e400", "-1", "9" * 5000)
PRECISION = (None, "53", "128", "512", "15000", "0", "-5") + INTEGERS
FORMAT = (None, "text", "record", "json")

OPTIONS = {
    ("lattice", "normalize"): {"--w1": VALUES, "--w2": VALUES},
    ("lattice", "reduce"): {"--tau": VALUES},
    ("lattice", "cm"): {"--tau": VALUES, "--bound": (None, "1", "20") + INTEGERS},
    **{("lattice", a): {"--tau1": VALUES, "--tau2": VALUES,
                        "--bound": (None, "1", "10", "100") + INTEGERS}
       for a in ("isogenous", "isr")},
    ("wp", "invariants"): {"--tau": VALUES},
    ("wp", "eval"): {"--tau": VALUES, "--z": VALUES},
    ("wp", "verify"): {"--tau": VALUES, "--tau2": (None,) + VALUES,
                       "--identity": ("ode", "homogeneity", "schwarz", "addition",
                                      "isogeny", "x"),
                       "--samples": ("1", "2", "0") + INTEGERS,
                       "--bound": (None, "10"), "--seed": (None, "1") + INTEGERS},
    **{("predim", a): {"--config": ("cm", "exp", "missing", "not-json"),
                       "--set": NAMES, "--base": NAMES,
                       "--slots": (None, "0", "-1") + INTEGERS, **extra}
       for a, extra in (("report", {}), ("strong", {}), ("hull", {}), ("dim", {}),
                        ("chain", {"--target": NAMES}), ("lemma7", {"--b": NAMES}),
                        ("certificate", {"--f1": ("0", "-1", "x"), "--f2": ("0",),
                                         "--fa": NAMES}))},
    ("deriv", "rank"): {"--presentation": ("generic", "numeric", "missing")},
    ("deriv", "extend"): {
        "--presentation": ("generic", "numeric", "missing"),
        "--boundary": (None, "a=1", "a=1,b=e", "x=1", "y=1/3", "a=1/0", "a=", "=1",
                       "a=nan", "q=1", "a", "x=1e400"),
        "--target": (None, "w=t/e", "b=1,w=1", "y=2", "a=1e400")},
    ("deriv", "hcl"): {"--presentation": ("generic", "numeric", "missing"),
                       "--b": ("e", "a", "z", "4", "99", "-1", "x")},
    ("count",): {"--h": (None, "identity", "expwplog", "x"), "--tau": (None,) + VALUES,
                 "--domain": (None, "1/3:7/2", "11/10:5/2", ":", "1/0:", "nan:",
                              "1e400:", "x"),
                 "--heights": (None, "5,20", "3,2", "0", "-1,0", "2,1e400") + INTEGERS,
                 "--eps": (None, "1/1000", "1e-40", "0", "1/0", "-1/2", "x"),
                 "--precision": (None, "53", "128", "512", "0", "x", "1e400")},
    # criterion numbers only: no --criteria runs every criterion, for seconds
    ("selftest",): {"--criteria": ("2", "8", "2,8", "x")},
}
for path, options in OPTIONS.items():
    for name in READ[path] - {"--seed"} - set(options):
        options[name] = {"--precision": PRECISION, "--bound": (None, "10"),
                         "--format": FORMAT}[name]

# the certified-negative verdict line of each command that can exit 1, in
# either format; a selftest criterion that raised is no verdict
NEGATIVE = {
    **{("lattice", a): r'outcome = not_isogenous|"outcome":"not_isogenous"'
       for a in ("isogenous", "isr")},
    ("predim", "strong"): r'strong = False|"strong":false',
    ("predim", "lemma7"): r' = False|":false',
    ("predim", "certificate"): r'certified: False|"certified":false',
    ("deriv", "extend"): r'kind = inconsistent|"kind":"inconsistent"',
    ("selftest",): r"criterion +\d+: FAIL - (?!raised)",
}

# record files by name: valid ones, and ones whose fields are hostile
EXP_CONFIG = {"coordinates": ["b1", "e1", "u"],
              "matroid": {"rows": [["1", "0", "1/2"], ["0", "1", "0"]]},
              "slots": [{"kind": "exp"}, {"kind": "wp_generic"}],
              "points": [{"slot": 0, "b": "b1", "e": "e1"}, {"slot": 1, "b": "e1", "e": "u"}]}
GENERIC_PRESENTATION = {
    "mode": "generic", "generators": ["a", "e", "b", "w", "t"], "relations": [],
    "forms": [{"slot": 0, "b": 0, "fb": 1, "fprime": "e"},
              {"slot": 1, "b": 2, "fb": 3, "fprime": "t/e**2"}]}
NUMERIC_PRESENTATION = {
    "mode": "numeric_point", "generators": ["x", "y", "z"],
    "relations": ["y - x**2", "z - x*y"], "precision": 128,
    "point": {name: {"re": re, "im": "0", "err": "0", "precision": 128}
              for name, re in (("x", "1.5"), ("y", "2.25"), ("z", "3.375"))},
    "forms": [{"slot": 0, "b": 0, "fb": 2, "fprime": "2"}]}


def _with(record, path, raw):
    """The JSON text of record with the field at path (keys and indices)
    written as the raw JSON text `raw`, such as 1e400 or NaN."""
    record = json.loads(json.dumps(record))
    *head, last = path
    inner = record
    for key in head:
        inner = inner[key]
    inner[last] = "@RAW@"
    return json.dumps(record).replace('"@RAW@"', raw)


RECORDS = {
    "cm": json.dumps(CM_CONFIG), "exp": json.dumps(EXP_CONFIG), "not-json": "{",
    "generic": json.dumps(GENERIC_PRESENTATION),
    "numeric": json.dumps(NUMERIC_PRESENTATION),
    "cm-slot-nan": _with(CM_CONFIG, ("points", 0, "slot"), "NaN"),
    "cm-slot-text": _with(CM_CONFIG, ("points", 0, "slot"), '"x"'),
    "cm-d-text": _with(CM_CONFIG, ("slots", 0, "d"), '"-1/0"'),
    "cm-d-4": _with(CM_CONFIG, ("slots", 0, "d"), "-4"),
    "cm-entry-inf": _with(CM_CONFIG, ("matroid", "rows", 0, 0), "1e400"),
    "cm-entry-nan": _with(CM_CONFIG, ("matroid", "rows", 0, 0), '"nan"'),
    "cm-entry-ratio": _with(CM_CONFIG, ("relations", 0, "rows", 0, 0, 1), '"0.5/2"'),
    "exp-entry-zero": _with(EXP_CONFIG, ("matroid", "rows", 0, 2), '"1/0"'),
    "numeric-fprime-zero": _with(NUMERIC_PRESENTATION, ("forms", 0, "fprime"), '"1/0"'),
    "numeric-err-nan": _with(NUMERIC_PRESENTATION, ("point", "x", "err"), '"nan"'),
    "numeric-re-huge": _with(NUMERIC_PRESENTATION, ("point", "x", "re"), '"1e+1000001"'),
    "numeric-precision-text": _with(NUMERIC_PRESENTATION, ("precision",), '"x"'),
    "generic-fprime-zero": _with(GENERIC_PRESENTATION, ("forms", 0, "fprime"), '"1/0"'),
    # integer fields that are no integers, and a d and decimal exponents
    # beyond their limits
    "cm-slot-huge": _with(CM_CONFIG, ("points", 0, "slot"), "1e400"),
    "cm-slot-fraction": _with(CM_CONFIG, ("points", 0, "slot"), "0.9"),
    "cm-d-fraction": _with(CM_CONFIG, ("slots", 0, "d"), "-2.5"),
    "cm-d-huge": _with(CM_CONFIG, ("slots", 0, "d"), "-1000000000000000000000000000057"),
    "exp-entry-huge": _with(EXP_CONFIG, ("matroid", "rows", 0, 2), '"1e10000000"'),
    "numeric-fprime-huge": _with(NUMERIC_PRESENTATION, ("forms", 0, "fprime"),
                                 '"1e10000000"'),
    "numeric-b-fraction": _with(NUMERIC_PRESENTATION, ("forms", 0, "b"), "0.9"),
    "numeric-precision-inf": _with(NUMERIC_PRESENTATION, ("precision",), "1e400"),
    "generic-fprime-huge": _with(GENERIC_PRESENTATION, ("forms", 0, "fprime"),
                                 '"1e10000000"'),
    # a known breach (below), so in no pool
    "breach-precision-huge": _with(NUMERIC_PRESENTATION, ("precision",), "1e300"),
}
HOSTILE_CONFIGS = tuple(k for k in RECORDS if k.startswith(("cm-", "exp-")))
HOSTILE_PRESENTATIONS = tuple(k for k in RECORDS if k.startswith(("numeric-", "generic-")))
for path, options in OPTIONS.items():
    for name, records in (("--config", HOSTILE_CONFIGS),
                          ("--presentation", HOSTILE_PRESENTATIONS)):
        if name in options:
            options[name] += records


@pytest.fixture(scope="module")
def record_dir(tmp_path_factory):
    folder = tmp_path_factory.mktemp("records")
    for name, text in RECORDS.items():
        (folder / f"{name}.json").write_text(text)
    return folder


@st.composite
def _calls(draw, path):
    argv = list(path)
    for name, pool in OPTIONS[path].items():
        value = draw(st.sampled_from(pool))
        if value is not None:
            argv.append(f"{name}={value}")
    return argv


def _record_paths(argv, record_dir):
    """argv with the record names it gives read from record_dir."""
    return [a.replace("=", f"={record_dir}/", 1) + ".json"
            if a.startswith(("--config=", "--presentation=")) else a for a in argv]


def _contract(argv, record_dir):
    """The broken clauses of the contract for one call, as text ("" for
    none)."""
    argv = _record_paths(argv, record_dir)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = run(argv)
        except Exception as exc:  # a process would print a traceback, exit 1
            return f"raised {type(exc).__name__}: {str(exc)[:200]}"
    out, err = out.getvalue(), err.getvalue()
    errors = [line for line in err.splitlines() if "error: " in line]
    reason = re.search(r'^reason = |"reason":', out, re.M)
    path = tuple(a for a in argv[:2] if not a.startswith("-"))
    if "Traceback" in err:
        return "a traceback on stderr"
    if code not in (0, 1, 2):
        return f"exit {code}"
    if code == 1 and not re.search(NEGATIVE.get(path, r"(?!)"), out):
        return f"exit 1 without a certified-negative verdict: {out[:200]!r}"
    if code == 2 and not (len(errors) == 1 or (reason and not errors)):
        return f"exit 2 with {len(errors)} error lines: {err[:200]!r}"
    if code != 2 and errors:
        return f"exit {code} with an error line: {errors[0][:200]!r}"
    return ""


def test_the_contract_covers_every_leaf():
    assert set(OPTIONS) == set(dict(_leaves(build_parser())))
    for path, options in OPTIONS.items():
        assert READ[path] - {"--seed"} <= set(options), path


@pytest.mark.parametrize("path", sorted(OPTIONS), ids=" ".join)
@settings(max_examples=12, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_every_call_keeps_the_exit_code_contract(path, data, record_dir):
    argv = data.draw(_calls(path), label="argv")
    assert _contract(argv, record_dir) == ""


# inputs outside the pools above that still break the contract, each kept
# strict so that its mend shows
BREACHES = [
    pytest.param(argv, id=name, marks=pytest.mark.xfail(strict=True, reason=reason))
    for name, argv, reason in (
        ("predim-name-outside-the-configuration",
         ["predim", "hull", "--config=cm", "--set=a"], "a KeyError traceback"),
        ("predim-slot-outside-the-configuration",
         ["predim", "strong", "--config=cm", "--slots=5"], "an IndexError traceback"),
        ("count-negative-precision", ["count", "--precision=-5"],
         "a TypeError traceback from default_eps"),
        ("count-reversed-domain", ["count", "--h=expwplog", "--domain=2:1"],
         "an AssertionError traceback from mpmath"),
        ("selftest-unknown-criterion", ["selftest", "--criteria=99"],
         "exit 1 with a FAIL line for a KeyError"),
        ("deriv-record-precision-1e300",
         ["deriv", "rank", "--presentation=breach-precision-huge"],
         "an OverflowError traceback"),
    )]


@pytest.mark.parametrize("argv", BREACHES)
def test_known_breaches_of_the_contract(argv, record_dir):
    assert _contract(argv, record_dir) == ""


# -- numbers read from outside -------------------------------------------------

def _timed_run(argv):
    """(exit code, stderr, seconds) of one in-process call."""
    err = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = run(argv)
    return code, err.getvalue(), time.perf_counter() - start


def test_a_tiny_decimal_part_sits_in_its_box():
    # mpmath's decimal reader rounds outward only up to a decimal exponent
    # of about 400: this real part's box ended below 9.8e-2451
    box = parse_value("9.8e-2451+1i", 128)
    lo, hi = (endpoint_fraction(e) for e in box.re._mpi_)
    assert lo <= F(98, 10 ** 2452) <= hi


@settings(max_examples=60, deadline=None)
@given(st.integers(1000, 9999), st.integers(-2600, 2600), st.sampled_from([53, 128, 512]))
def test_decimal_parts_read_as_their_least_box(digits, exponent, precision):
    text = f"{digits // 1000}.{digits % 1000:03d}e{exponent}"
    box = parse_value(f"-{text}+{text}i", precision)
    with working_precision(precision):
        least = ri(F(digits, 1000) * F(10) ** exponent)
        assert box.im._mpi_ == least._mpi_ and box.re._mpi_ == (-least)._mpi_


@pytest.mark.parametrize("argv, message", [
    (["wp", "eval", "--tau=i", "--z=1e10000000"], "value"),
    (["predim", "hull", "--config=exp-entry-huge"], "configuration.matroid.rows[0][2]"),
    (["deriv", "rank", "--presentation=numeric-fprime-huge"], "forms[0].fprime"),
    (["deriv", "rank", "--presentation=generic-fprime-huge"], "forms[0].fprime"),
    (["deriv", "extend", "--presentation=generic", "--boundary=a=1e10000000"], "boundary a"),
], ids=["z", "matroid-entry", "numeric-fprime", "generic-fprime", "boundary"])
def test_a_decimal_exponent_beyond_the_limit_exits_2_at_once(argv, message, record_dir):
    code, err, seconds = _timed_run(_record_paths(argv, record_dir))
    assert (code, err) == (2, f"error: {message} has a decimal exponent beyond 10^6 "
                              "in size: '1e10000000'\n")
    assert seconds < 1


@pytest.mark.parametrize("record, message", [
    ("cm-slot-huge", "points[0].slot is not an integer: inf"),
    ("cm-slot-nan", "points[0].slot is not an integer: nan"),
    ("cm-slot-fraction", "points[0].slot is not an integer: 0.9"),
    ("cm-d-fraction", "slots[0].d is not an integer: -2.5"),
])
def test_record_integers_are_exactly_integers(record, message, record_dir):
    argv = _record_paths(["predim", "hull", f"--config={record}"], record_dir)
    assert _timed_run(argv)[:2] == (2, f"error: {message}\n")


@pytest.mark.parametrize("argv", [["lattice", "cm", "--tau=1i:-1000000000000000000000000000057"],
                                  ["predim", "hull", "--config=cm-d-huge"]],
                         ids=["argument", "record"])
def test_a_field_d_beyond_the_limit_exits_2_within_a_second(argv, record_dir):
    code, err, seconds = _timed_run(_record_paths(argv, record_dir))
    assert code == 2 and err.startswith("error: d must be a negative squarefree integer "
                                        "of size at most 10^12, got ")
    assert seconds < 1
