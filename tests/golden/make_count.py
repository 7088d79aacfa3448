"""The golden corpus of `wplab count`: argv, exit code, stdout and the
first stderr line of each call, in tests/golden/count.json.

    PYTHONPATH=src python3 tests/golden/make_count.py

rewrites the corpus from the current source; tests/test_golden.py runs the
same calls and compares them byte for byte.  The calls cover the `count`
command of `wplab selftest` criterion 10, the `count` calls of the
benchmark's cli_calls workload at seeds 1-4, exp(wp(log t)) on a bounded
domain for an exact and a decimal tau, a bounded identity domain, and the
usage errors, all in both output formats.
"""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from make_lattice import benchmark_argv, run_call  # noqa: E402

CORPUS = Path(__file__).with_name("count.json")
FORMATS = ("text", "record")

CRITERION_10 = (["count", "--h", "identity", "--heights", "2,10"],)
EXPWPLOG = [["count", "--h", "expwplog", "--domain", "11/10:5/2", "--tau", tau] + heights
            for tau in ("2i:-1", "2.5i") for heights in ([], ["--heights", "10,50"])]
IDENTITY = (["count", "--h", "identity", "--domain", "1/3:7/2", "--heights", "5,20,50"],)
USAGE_ERRORS = (["count", "--heights", "3,2"],
                ["count", "--eps", "0"],
                ["count", "--eps", "1/0"],
                ["count", "--h", "expwplog", "--domain", "1:"])


def calls():
    argvs = list(CRITERION_10) + EXPWPLOG + list(IDENTITY) + list(USAGE_ERRORS)
    return [argv + ["--format", fmt] for argv in argvs for fmt in FORMATS]


def main():
    corpus = []
    for argv in calls() + benchmark_argv("count"):
        code, stdout, stderr = run_call(argv)
        corpus.append({"argv": argv, "code": code, "stdout": stdout,
                       "stderr_first_line": stderr})
    CORPUS.write_text(json.dumps(corpus, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {len(corpus)} calls to {CORPUS}")


if __name__ == "__main__":
    main()
