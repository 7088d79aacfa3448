"""The golden corpus of `wplab lattice`: argv, exit code, stdout and the
first stderr line of each call, in tests/golden/lattice.json.

    PYTHONPATH=src python3 tests/golden/make_lattice.py

rewrites the corpus from the current source; tests/test_golden.py runs the
same calls and compares them byte for byte.  The calls cover every lattice
leaf with exact and decimal taus, the searches at bounds 3, 10 and 40,
searches on boxes much wider than 1 (huge Im tau, low precision), and
the lattice calls of the benchmark's cli_calls workload at seeds 1-4, all
in both output formats, and the calls that mix an exact and a numeric
lattice, whose first stderr line is a `warning:` line.  A call runs in this
process (a fresh interpreter per call would cost about 0.1 s each).
"""

import contextlib
import io
import json
import random
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
CORPUS = Path(__file__).with_name("lattice.json")
BOUNDS = (3, 10, 40)
FORMATS = ("text", "record")

NORMALIZE = (("1", "i"), ("2", "1+3i:-1"), ("1+1i:-1", "2i:-1"),
             ("1", "0.3+1.7i"), ("2+1i", "1+3i"), ("1", "0.3-1.7i"), ("1", "2"))
REDUCE = ("1/3+5/2i:-1", "-1/2+2i:-1", "7/2+1/3i:-2",
          "0.3+1.7i", "1.2+0.5i", "-3.7+0.2i", "0.3-1.7i")
CM = ("i", "1/2+1/2i:-3", "1/3+5/2i:-7",
      "0+2i", "0.25+1.5i", "0.1+1.3i", "0.3+1.7i", "0.1234567+1.3i", "1.2+0.5i")
# decimal pairs: 3*tau + 1, (2*tau + 1)/5 and (tau + 1)/2 of 0.3+1.7i, an
# unrelated pair, two integer points, and a reflection
ISOGENOUS = (("i", "1/3+5/2i:-1"), ("i", "1i:-2"), ("1/2+1/2i:-3", "2i:-3"),
             ("0.3+1.7i", "1.9+5.1i"), ("0.3+1.7i", "0.32+0.68i"),
             ("0.3+1.7i", "0.65+0.85i"), ("0.3+1.7i", "0.1234567+1.3i"),
             ("0+1i", "0+3i"), ("0.3+1.7i", "-0.3+1.7i"))
ISR = (("i", "1/3+5/2i:-1"), ("i", "1i:-2"),
       ("0.3+1.7i", "-0.3+1.7i"), ("0.3+1.7i", "-0.65+0.85i"),
       ("0.3+1.7i", "0.1234567+1.3i"))
OTHER = (["lattice", "cm", "--tau", "0.3+1.7i", "--precision", "64", "--bound", "40"],
         ["lattice", "cm", "--tau", "1e20i", "--bound", "40"],
         ["lattice", "isogenous", "--tau1", "1e20i", "--tau2", "2e20i"],
         ["lattice", "isogenous", "--tau1", "0.3+1e15i", "--tau2", "0.1+3e15i",
          "--bound", "40"],
         ["lattice", "isogenous", "--tau1", "0.3+1.7i", "--tau2", "0.65+0.85i",
          "--precision", "64"],
         # boxes much wider than 1 (huge Im tau, low precision): the search
         # must stay near the bound and answer at once
         ["lattice", "cm", "--tau", "0.1+1e22i", "--bound", "10"],
         ["lattice", "cm", "--tau", "0.1+1e30i", "--bound", "40"],
         ["lattice", "cm", "--tau", "0.1+1e12i", "--precision", "64", "--bound", "10"],
         ["lattice", "cm", "--tau", "0.1+1e16i", "--precision", "64", "--bound", "40"],
         ["lattice", "isogenous", "--tau1", "0.1+1e22i", "--tau2", "0.2+3e22i", "--bound", "3"],
         ["lattice", "isogenous", "--tau1", "0.1+1e30i", "--tau2", "0.2+3e30i", "--bound", "40"],
         ["lattice", "isr", "--tau1", "0.1+1e30i", "--tau2", "0.2+3e30i", "--bound", "10"],
         ["lattice", "isogenous", "--tau1", "0.1+1e16i", "--tau2", "0.3+2e16i",
          "--precision", "64", "--bound", "10"],
         ["lattice", "isr", "--tau1", "0.1+1e22i", "--tau2", "0.2+3e22i",
          "--precision", "32", "--bound", "40"],
         ["lattice", "isogenous", "--tau1", "0.3+1.7i", "--tau2", "x"],
         ["lattice", "cm", "--tau", "0.3+0i"],
         ["lattice", "cm"],
         # an exact and a numeric lattice: one warning line, then the
         # numeric answer
         ["lattice", "isogenous", "--tau1", "i", "--tau2", "0.3+1.7i"],
         ["lattice", "normalize", "--w1", "i", "--w2", "0.3+1.7i"])


def cli_calls_workload(workdir=ROOT / "benchmarks" / "out", api=None):
    """The benchmark's cli_calls workload, writing its input files to
    workdir through api.serialize."""
    sys.path.insert(0, str(ROOT / "benchmarks"))
    write_bytecode, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:  # no __pycache__ under benchmarks/
        import workloads
    finally:
        sys.dont_write_bytecode = write_bytecode
        sys.path.pop(0)
    return workloads.CliCalls(api, ROOT, workdir)


def benchmark_argv(command="lattice", seeds=(1, 2, 3, 4)):
    """The calls of one command of the cli_calls workload for the given
    seeds, as benchmarks/run.py generates them (format options included)."""
    workload = cli_calls_workload()
    out = []
    for seed in seeds:
        inputs = workload.generate(random.Random(f"cli_calls:{seed}"))
        out += [c["argv"] for c in inputs["commands"] if c["argv"][0] == command]
    return out


def calls():
    argvs = [["lattice", "normalize", "--w1", w1, "--w2", w2] for w1, w2 in NORMALIZE]
    argvs += [["lattice", "reduce", "--tau", tau] for tau in REDUCE]
    for bound in BOUNDS:
        b = ["--bound", str(bound)]
        argvs += [["lattice", "cm", "--tau", tau] + b for tau in CM]
        argvs += [["lattice", "isogenous", "--tau1", t1, "--tau2", t2] + b
                  for t1, t2 in ISOGENOUS]
        argvs += [["lattice", "isr", "--tau1", t1, "--tau2", t2] + b for t1, t2 in ISR]
    argvs += list(OTHER)
    return [argv + ["--format", fmt] for argv in argvs for fmt in FORMATS]


def run_call(argv):
    """(exit code, stdout, first stderr line) of one in-process call."""
    from wplab.cli import run

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(list(argv))
    lines = err.getvalue().splitlines()
    return code, out.getvalue(), lines[0] if lines else ""


def main():
    corpus = []
    for argv in calls() + benchmark_argv():
        code, stdout, stderr = run_call(argv)
        corpus.append({"argv": argv, "code": code, "stdout": stdout,
                       "stderr_first_line": stderr})
    CORPUS.write_text(json.dumps(corpus, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {len(corpus)} calls to {CORPUS}")


if __name__ == "__main__":
    main()
