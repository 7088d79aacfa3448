"""CLI surface: parsing, exit-code conventions, record output, determinism."""

import argparse
import contextlib
import io
import json
import subprocess
import sys
import warnings
from fractions import Fraction

import pytest

from wplab import serialize
from wplab.cintervals import ComplexBox
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
     "numeric presentations need rational fprime values in files"),
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
    (["wp", "eval", "--tau", "i", "--z", "1/0"], "zero denominator in '1/0'"),
    (["wp", "eval", "--tau", "i", "--z", "1/0+i"], "zero denominator in '1/0'"),
    (["wp", "eval", "--tau", "1/0i:-1", "--z", "1"], "zero denominator in '1/0'"),
    (["lattice", "normalize", "--w1", "1/0", "--w2", "i"],
     "zero denominator in '1/0'"),
    (["count", "--domain", "1/0:"], "zero denominator in '1/0'"),
    (["count", "--eps", "1/0"], "zero denominator in '1/0'"),
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
