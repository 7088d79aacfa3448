"""Source hygiene: every module-level import in src/wplab is used, every
private helper is referenced, no module calls a sympy solver (the
predimension ranks are one elimination over the integers, without
QuadNum), no module imports dataclasses or sympy, and the CLI loads only
the layers a subcommand runs (json only for records, sympy never)."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "wplab"


def parse(path: Path):
    return ast.parse(path.read_text(encoding="utf-8"))


def module_imports(tree):
    """(node, alias) for each module-level import of a parsed file."""
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                yield node, alias


def unused_imports(path: Path):
    tree = parse(path)
    imported = {(alias.asname or alias.name).split(".")[0]: node.lineno
                for node, alias in module_imports(tree)}
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted((line, name) for name, line in imported.items()
                  if name not in used)


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_module_imports(path):
    assert unused_imports(path) == []


# hooks another library calls by name: sympify calls a value's _sympy_
LIBRARY_HOOKS = {"_sympy_"}


def test_every_private_helper_is_referenced():
    # a helper a refactor left behind: defined with a leading underscore,
    # named nowhere in src/wplab (dunder methods are called implicitly)
    trees = [parse(path) for path in sorted(SRC.glob("*.py"))]
    defined = {node.name for tree in trees for node in ast.walk(tree)
               if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                    ast.ClassDef))
               and node.name.startswith("_") and not node.name.endswith("__")}
    defined -= LIBRARY_HOOKS
    referenced = set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
            elif isinstance(node, ast.alias):
                referenced.add(node.name)
    assert sorted(defined - referenced) == []


def test_no_module_imports_sympy_at_module_level():
    # sympy is a test dependency: laurent imports it only inside _sympy_
    def imports_sympy(node, alias):
        name = node.module if isinstance(node, ast.ImportFrom) else alias.name
        return name is not None and name.split(".")[0] == "sympy"

    importers = sorted(path.name for path in SRC.glob("*.py")
                       if any(imports_sympy(*imp) for imp in module_imports(parse(path))))
    assert importers == []


def imports_module(path: Path, name: str) -> bool:
    """Whether the file imports the module anywhere, at any depth."""
    for node in ast.walk(parse(path)):
        if isinstance(node, ast.Import):
            if any(a.name.split(".")[0] == name for a in node.names):
                return True
        elif isinstance(node, ast.ImportFrom) and node.level == 0 \
                and node.module.split(".")[0] == name:
            return True
    return False


def test_no_module_imports_dataclasses():
    # dataclasses pulls in inspect, ast, dis and tokenize, and runs an exec
    # per decorated class: start-up work every CLI call paid for nothing
    assert [p.name for p in sorted(SRC.glob("*.py"))
            if imports_module(p, "dataclasses")] == []


def second_eliminations(path: Path):
    """The sympy solvers a module names besides Matrix.rref: linsolve,
    linear_eq_to_matrix, or a .rank() call."""
    solvers = {"linsolve", "linear_eq_to_matrix"}
    found = set()
    for node in ast.walk(parse(path)):
        if isinstance(node, ast.Name) and node.id in solvers:
            found.add(node.id)
        elif isinstance(node, ast.Attribute) and node.attr in solvers:
            found.add(node.attr)
        elif isinstance(node, ast.alias) and node.name in solvers:
            found.add(node.name)
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) \
                and node.func.attr == "rank":
            found.add("Matrix.rank")
    return sorted(found)


def test_one_symbolic_elimination_routine():
    # generic derivation systems are solved as a gain graph, numeric ones by
    # the one interval elimination: no module reaches for a sympy solver
    found = {path.name: second_eliminations(path) for path in SRC.glob("*.py")}
    assert {name: names for name, names in found.items() if names} == {}


def test_predimension_ranks_do_not_use_quadnum():
    # a CM slot is ranked over Q on two columns per point, so the integer
    # elimination is the engine's only arithmetic
    assert "QuadNum" not in (SRC / "predim_engine.py").read_text(encoding="utf-8")


# the module list is taken before the runner itself imports json
RUN_IN_FRESH_INTERPRETER = """
import contextlib, io, sys
from wplab import cli
with contextlib.redirect_stdout(io.StringIO()) as out:
    code = cli.run(sys.argv[1:])
modules = sorted(sys.modules)
import json
print(json.dumps({"code": code, "out": out.getvalue(), "modules": modules}))
"""


def run_fresh(*argv):
    """cli.run(argv) in a new interpreter: its exit code, its stdout and the
    names of the modules loaded by the end of the call."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC.parent), env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c", RUN_IN_FRESH_INTERPRETER, *argv],
        capture_output=True, text=True, timeout=300, env=env, check=True,
    )
    rec = json.loads(proc.stdout)
    return rec["code"], rec["out"], set(rec["modules"])


CONFIG = {
    "coordinates": ["b", "e"],
    "matroid": {"rows": [["1", "0"], ["0", "1"]]},
    "slots": [{"kind": "exp"}],
    "points": [{"slot": 0, "b": "b", "e": "e"}],
    "relations": [],
    "base": [],
}
PRESENTATION = {
    "mode": "generic",
    "generators": ["a", "e"],
    "relations": [],
    "precision": 128,
    "forms": [{"slot": 0, "b": 0, "fb": 1, "fprime": "e"}],
}
# what no call loads: sympy, and the inspect that sympy and dataclasses need
HEAVY = {"sympy", "dataclasses", "inspect"}
# what every call but `deriv` and `selftest` leaves unloaded
LIGHT = HEAVY | {"wplab.differentials", "wplab.laurent"}
# a text-format call that reads no file does not load json
TEXT = LIGHT | {"json"}


@pytest.mark.parametrize("argv, absent", [
    (("wp", "invariants", "--tau", "i"),
     TEXT | {"wplab.predim_engine", "wplab.counting"}),
    (("wp", "eval", "--tau", "i", "--z", "0.3+0.2i"),
     TEXT | {"wplab.predim_engine", "wplab.counting"}),
    (("wp", "invariants", "--tau", "i", "--format", "record"),
     LIGHT | {"wplab.predim_engine", "wplab.counting"}),
    (("lattice", "isogenous", "--tau1", "0+1i:-1", "--tau2", "0+2i:-1"),
     TEXT),
    (("lattice", "cm", "--tau", "0+1i:-3"), TEXT),
    (("count", "--h", "identity", "--heights", "2,5"), TEXT),
    (("count", "--h", "identity", "--heights", "2,5", "--format", "record"),
     LIGHT),
    (("predim", "hull", "--config", "{config}", "--set", "b"), LIGHT),
    (("deriv", "rank", "--presentation", "{pres}"),
     HEAVY | {"wplab.predim_engine", "wplab.counting"}),
    (("deriv", "hcl", "--presentation", "{pres}", "--b", "a"),
     HEAVY | {"wplab.predim_engine", "wplab.counting"}),
    # criterion 7 is the derivation one; the run imports every layer
    (("selftest", "--criteria", "7"), HEAVY),
], ids=["wp invariants", "wp eval", "wp invariants record", "lattice isogenous",
        "lattice cm", "count", "count record", "predim hull", "deriv rank",
        "deriv hcl", "selftest"])
def test_subcommand_loads_only_its_layers(argv, absent, tmp_path):
    config, pres = tmp_path / "cfg.json", tmp_path / "pres.json"
    config.write_text(json.dumps(CONFIG), encoding="utf-8")
    pres.write_text(json.dumps(PRESENTATION), encoding="utf-8")
    code, out, modules = run_fresh(*(a.format(config=config, pres=pres)
                                     for a in argv))
    assert code == 0 and out
    assert modules.isdisjoint(absent), sorted(modules & absent)


def test_deriv_still_answers_in_a_fresh_interpreter(tmp_path):
    pres = tmp_path / "pres.json"
    pres.write_text(json.dumps(PRESENTATION), encoding="utf-8")
    code, out, modules = run_fresh("deriv", "extend", "--presentation",
                                   str(pres), "--boundary", "a=1")
    assert code == 0 and out.startswith("kind = unique\n")
    assert modules.isdisjoint(HEAVY | {"wplab.predim_engine"}), \
        sorted(modules & HEAVY)
