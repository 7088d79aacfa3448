"""The golden corpus of `wplab deriv`: input files, argv, exit code, stdout
and the first stderr line of each call, in tests/golden/deriv.json.

    PYTHONPATH=src python3 tests/golden/make_deriv.py

rewrites the corpus from the current source; tests/test_golden.py writes
each call's files to an empty directory, runs the call there and compares
it byte for byte.  The calls cover `deriv rank`, `extend` (unique, family,
inconsistent, with a target) and `hcl` on a generic presentation and at a
numeric point, the `deriv extend` calls of the benchmark's cli_calls
workload at seeds 1-4, and the usage errors of an unknown boundary name and
of a target that is not one assignment, all in both output formats.
"""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from make_predim import benchmark_calls, write_corpus  # noqa: E402

CORPUS = Path(__file__).with_name("deriv.json")
FORMATS = ("text", "record")


def _box(re, im="0"):
    return {"re": re, "im": im, "err": "0", "precision": 128}


# exp and a wp-map graph form on five generators: e' = e at a, w' = t/e at b
GENERIC = {
    "mode": "generic", "generators": ["a", "e", "b", "w", "t"], "relations": [],
    "precision": 128,
    "forms": [{"slot": 0, "b": 0, "fb": 1, "fprime": "e"},
              {"slot": 1, "b": 2, "fb": 3, "fprime": "t/e**2"}],
}
# y = x^2, z = x y and s = 2 at x = 3/2, with a graph form f(x) = t, f'(x) = 2
NUMERIC = {
    "mode": "numeric_point", "generators": ["x", "y", "z", "t", "s"],
    "relations": ["y - x**2", "z - x*y", "s - 2"], "precision": 128,
    "point": {"x": _box("1.5"), "y": _box("2.25"), "z": _box("3.375"),
              "t": _box("0.5", "0.25"), "s": _box("2")},
    "forms": [{"slot": 0, "b": 0, "fb": 3, "fprime": "2"}],
}
GENERIC_ACTIONS = (["rank"],
                   ["extend", "--boundary", "a=1,b=e"],
                   ["extend", "--boundary", "a=1"],
                   ["extend", "--boundary", "a=1", "--target", "w=t/e"],
                   ["extend", "--boundary", "a=1,b=e,t=e**2"],
                   ["extend", "--boundary", "a=1,e=2"],
                   ["hcl", "--b", "e"],
                   ["hcl", "--b", "4"],
                   ["extend", "--boundary", "q=1"],
                   ["extend", "--boundary", "a=1", "--target", "b=1,w=1"])
NUMERIC_ACTIONS = (["rank"],
                   ["extend", "--boundary", "x=1"],
                   ["extend", "--boundary", "y=1/3"],
                   ["extend", "--boundary", "x=1,z=2"],
                   ["extend", "--boundary", "x=1,y=3"],
                   ["hcl", "--b", "z"],
                   ["hcl", "--b", "s"],
                   ["hcl", "--b", "0"])


def calls():
    inputs = []
    for record, actions in ((GENERIC, GENERIC_ACTIONS), (NUMERIC, NUMERIC_ACTIONS)):
        files = {"presentation.json": json.dumps(record)}
        inputs += [(["deriv", a[0], "--presentation", "presentation.json"] + a[1:], files)
                   for a in actions]
    return [(argv + ["--format", fmt], files) for argv, files in inputs for fmt in FORMATS]


if __name__ == "__main__":
    write_corpus(CORPUS, calls() + benchmark_calls("deriv"))
