"""The `wplab lattice` calls of tests/golden/lattice.json give the same exit
code, stdout and first stderr line, byte for byte.  After an intended output
change, regenerate the corpus with tests/golden/make_lattice.py and list the
change in CHANGES.md."""

import importlib.util
import json
from pathlib import Path

import pytest

GOLDEN = Path(__file__).resolve().parent / "golden"
CORPUS = json.loads((GOLDEN / "lattice.json").read_text(encoding="utf-8"))


def _maker():
    spec = importlib.util.spec_from_file_location("make_lattice", GOLDEN / "make_lattice.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


run_call = _maker().run_call


@pytest.mark.parametrize("call", CORPUS, ids=lambda c: " ".join(c["argv"][1:]))
def test_lattice_call_matches_the_corpus(call):
    assert run_call(call["argv"]) == (call["code"], call["stdout"],
                                      call["stderr_first_line"])
