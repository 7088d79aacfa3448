"""The golden corpus of `wplab predim`: input files, argv, exit code, stdout
and the first stderr line of each call, in tests/golden/predim.json.

    PYTHONPATH=src python3 tests/golden/make_predim.py

rewrites the corpus from the current source; tests/test_golden.py writes
each call's files to an empty directory, runs the call there and compares
it byte for byte.  The calls cover the `predim report` of `wplab selftest`
criterion 10 with a lemma7 and criterion 8's certificate on its
configuration, the `predim hull` calls of the benchmark's cli_calls workload
at seeds 1-4, every `predim` action on a configuration with rational
relations between exp points and on one with a wp_cm slot, and the usage
errors of a `1/0` matroid entry and of a relation matrix below full rank,
all in both output formats.
"""

import json
import os
import random
import sys
import tempfile
import types
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from make_lattice import cli_calls_workload, run_call  # noqa: E402

CORPUS = Path(__file__).with_name("predim.json")
FORMATS = ("text", "record")

# three exp points with one rational relation, a wp_generic slot, and a
# matroid with rational entries and one dependent column
RELATION = {
    "coordinates": ["b1", "e1", "b2", "e2", "b3", "e3", "u"],
    "matroid": {"rows": [["1", "0", "0", "0", "1/2", "0", "0"],
                         ["0", "1", "0", "0", "0", "-2/3", "0"],
                         ["0", "0", "1", "0", "0", "0", "3/4"],
                         ["0", "0", "0", "1", "0", "0", "0"],
                         ["1/3", "0", "0", "0", "0", "1", "0"]]},
    "slots": [{"kind": "exp"}, {"kind": "wp_generic"}],
    "points": [{"slot": 0, "b": "b1", "e": "e1"}, {"slot": 0, "b": "b2", "e": "e2"},
               {"slot": 0, "b": "b3", "e": "e3"}, {"slot": 1, "b": "b1", "e": "b2"},
               {"slot": 1, "b": "e3", "e": "u"}],
    "relations": [{"slot": 0, "rows": [["1/2", "-3/4", "0"]]}],
    "base": [],
}
# a CM slot over Q(sqrt(-3)) with the relations (1/2 + 1/2 sqrt(-3)) p0 = p1
# and 2/3 p1 = sqrt(-3)/5 p0 - p2
CM = {
    "coordinates": ["a", "b", "c", "d", "e", "f", "t"],
    "matroid": {"rows": [["1", "0", "0", "0", "0", "0", "0"],
                         ["0", "1", "0", "0", "0", "0", "1"],
                         ["0", "0", "1", "0", "0", "0", "0"],
                         ["0", "0", "0", "1", "0", "0", "-1/2"],
                         ["0", "0", "0", "0", "1", "0", "0"],
                         ["0", "0", "0", "0", "0", "1", "0"]]},
    "slots": [{"kind": "wp_cm", "d": -3}, {"kind": "exp"}],
    "points": [{"slot": 0, "b": "a", "e": "b"}, {"slot": 0, "b": "c", "e": "d"},
               {"slot": 0, "b": "e", "e": "f"}, {"slot": 1, "b": "a", "e": "t"}],
    "relations": [{"slot": 0, "rows": [[["1/2", "1/2"], ["-1", "0"], ["0", "0"]],
                                       [["0", "1/5"], ["-2/3", "0"], ["-1", "0"]]]}],
    "base": [],
}
ACTIONS = (["report", "--set", "b1,e1,b2,e2"],
           ["report", "--set", "b3,e3", "--base", "b1,e1", "--slots", "0"],
           ["strong", "--set", "b1,e1"],
           ["strong", "--set", "b1,e1,b2,e2,b3,e3,u"],
           ["hull", "--set", "b1"],
           ["hull", "--set", "e3", "--slots", "1"],
           ["dim", "--set", "b1,e1"],
           ["dim", "--set", "u", "--base", "b2"],
           ["chain"],
           ["chain", "--set", "b1", "--target", "b1,e1,b2,e2"],
           ["lemma7", "--set", "b1,e1,b2", "--b", "b2,e2,u"],
           ["certificate", "--f1", "0", "--f2", "1", "--set", "b1,e1,b2,e2", "--fa", "u"])
CM_ACTIONS = (["report", "--set", "a,b,c,d"],
              ["report", "--set", "e,f", "--base", "a,b", "--slots", "0"],
              ["strong", "--set", "a,b"],
              ["strong", "--set", "a,b,c,d,e,f,t"],
              ["hull", "--set", "a"],
              ["dim", "--set", "a,b"],
              ["chain", "--target", "a,b,c,d,e,f"],
              ["lemma7", "--set", "a,b,c", "--b", "c,d,t"],
              ["certificate", "--f1", "0", "--f2", "0,1", "--set", "a,b,c,d", "--fa", "t"])
USAGE_ERRORS = (
    (dict(CM, matroid={"rows": [["1/0"] + ["0"] * 6] + CM["matroid"]["rows"][1:]}),
     ["hull"]),
    (dict(RELATION, relations=[{"slot": 0, "rows": [["1/2", "-3/4", "0"],
                                                    ["-1", "3/2", "0"]]}]),
     ["report"]))


def run_with_files(argv, files):
    """run_call in a new empty directory that holds the named input files,
    so that argv names them by relative paths."""
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        for name, text in files.items():
            Path(tmp, name).write_text(text, encoding="utf-8")
        os.chdir(tmp)
        try:
            return run_call(argv)
        finally:
            os.chdir(cwd)


def benchmark_calls(command, seeds=(1, 2, 3, 4)):
    """(argv, files) of the calls of one command of the cli_calls workload
    for the given seeds, with the input files that the benchmark writes."""
    from wplab import serialize

    out = []
    with tempfile.TemporaryDirectory() as tmp:
        workload = cli_calls_workload(Path(tmp), types.SimpleNamespace(serialize=serialize))
        for seed in seeds:
            inputs = workload.generate(random.Random(f"cli_calls:{seed}"))
            workload.write_files(inputs["files"])
            texts = {name: Path(tmp, name).read_text(encoding="utf-8")
                     for name in inputs["files"]}
            for c in inputs["commands"]:
                if c["argv"][0] != command:
                    continue
                argv = [Path(a).name if a.startswith(tmp) else a for a in c["argv"]]
                out.append((argv, {n: t for n, t in texts.items() if n in argv}))
    return out


def calls():
    from wplab import serialize
    from wplab.acceptance import worked_certificate

    worked = serialize.dumps(serialize.configuration_record(worked_certificate()[0]))
    inputs = [(["predim", "report", "--config", "config.json", "--set", "a1,e1,fa"],
               {"config.json": worked}),
              (["predim", "lemma7", "--config", "config.json", "--set", "a1,e1,fa",
                "--b", "a2,w2,fa"], {"config.json": worked}),
              (["predim", "certificate", "--config", "config.json", "--f1", "0", "--f2", "1",
                "--set", "a1,e1,a2,w2", "--fa", "fa"], {"config.json": worked})]
    for record, actions in ((RELATION, ACTIONS), (CM, CM_ACTIONS)) + tuple(
            (rec, [action]) for rec, action in USAGE_ERRORS):
        files = {"config.json": json.dumps(record)}
        inputs += [(["predim", a[0], "--config", "config.json"] + a[1:], files)
                   for a in actions]
    return [(argv + ["--format", fmt], files) for argv, files in inputs for fmt in FORMATS]


def write_corpus(path, calls):
    corpus = []
    for argv, files in calls:
        code, stdout, stderr = run_with_files(argv, files)
        corpus.append({"files": files, "argv": argv, "code": code, "stdout": stdout,
                       "stderr_first_line": stderr})
    path.write_text(json.dumps(corpus, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {len(corpus)} calls to {path}")


if __name__ == "__main__":
    write_corpus(CORPUS, calls() + benchmark_calls("predim"))
