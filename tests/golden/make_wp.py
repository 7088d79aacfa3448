"""The golden corpus of `wplab wp`: argv, exit code, stdout and the first
stderr line of each call, in tests/golden/wp.json.

    PYTHONPATH=src python3 tests/golden/make_wp.py

rewrites the corpus from the current source.  tests/test_golden.py runs the
same calls and compares them enclosure-aware: the same exit code, first
stderr line, text and record keys, every printed box overlapping its golden
box and no wider, every residual bound no larger.  The calls cover the `wp`
commands of `wplab selftest` criterion 10, the `wp` calls of the benchmark's
cli_calls workload at seeds 1-4, every `wp verify` identity, and exact and
boxed arguments 10^-37 and 10^-20 from the lattice of `--tau i`, all in both
output formats.
"""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from make_lattice import benchmark_argv, run_call  # noqa: E402

CORPUS = Path(__file__).with_name("wp.json")
FORMATS = ("text", "record")

CRITERION_10 = (["wp", "verify", "--tau", "i", "--identity", "ode", "--samples", "3"],
                ["wp", "invariants", "--tau", "0+1i:-3"])
VERIFY = [["wp", "verify", "--tau", tau, "--identity", identity, "--samples", "3"]
          for tau in ("1/4+3/2i:-1", "0.3+1.7i")
          for identity in ("ode", "homogeneity", "schwarz", "addition", "isogeny")]
VERIFY += [["wp", "verify", "--tau", "i", "--identity", "isogeny", "--tau2", "1/3+5/2i:-1",
            "--samples", "2"],
           ["wp", "verify", "--tau", "1/2+1/2i:-3", "--identity", "addition",
            "--samples", "3", "--precision", "256"]]
# exact (a Fraction, or a QuadNum in the field of tau) and boxed (a decimal
# complex) arguments next to the lattice point 0 of Z + Zi
NEAR_LATTICE = ("1e-37", f"1/{10 ** 37}+1/{10 ** 37}i:-1",
                "0.0000000000000000000000000000000000001"
                "+0.0000000000000000000000000000000000001i",
                "1e-20", "1e-20+0i")
NEAR = [["wp", "eval", "--tau", "i", "--z", z] + p
        for z in NEAR_LATTICE for p in ([], ["--precision", "256"])]


def calls():
    argvs = list(CRITERION_10) + VERIFY + NEAR
    return [argv + ["--format", fmt] for argv in argvs for fmt in FORMATS]


def main():
    corpus = []
    for argv in calls() + benchmark_argv("wp"):
        code, stdout, stderr = run_call(argv)
        corpus.append({"argv": argv, "code": code, "stdout": stdout,
                       "stderr_first_line": stderr})
    CORPUS.write_text(json.dumps(corpus, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {len(corpus)} calls to {CORPUS}")


if __name__ == "__main__":
    main()
