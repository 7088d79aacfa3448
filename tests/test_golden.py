"""The CLI golden corpora under tests/golden.

The `wplab lattice` calls of lattice.json and the `wplab count` calls of
count.json give the same exit code, stdout and first stderr line, byte for
byte; so do the `wplab predim` calls of predim.json and the `wplab deriv`
calls of deriv.json, each run in an empty directory that holds its input
files.  The `wplab wp` calls of wp.json are compared enclosure-aware: the
same exit code, first stderr line, text with its numbers masked and record
keys; every printed box overlaps its golden box and is no wider; every
residual bound is no larger.  After an intended
output change, regenerate a corpus with its maker (tests/golden/make_*.py)
and list the change in CHANGES.md."""

import importlib.util
import json
import re
from pathlib import Path

import pytest
from mpmath import mp

GOLDEN = Path(__file__).resolve().parent / "golden"


def _corpus(name):
    return json.loads((GOLDEN / f"{name}.json").read_text(encoding="utf-8"))


def _maker(name):
    spec = importlib.util.spec_from_file_location(name, GOLDEN / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


run_call = _maker("make_lattice").run_call
run_with_files = _maker("make_predim").run_with_files


@pytest.mark.parametrize("call", _corpus("lattice"), ids=lambda c: " ".join(c["argv"][1:]))
def test_lattice_call_matches_the_corpus(call):
    assert run_call(call["argv"]) == (call["code"], call["stdout"],
                                      call["stderr_first_line"])


@pytest.mark.parametrize("call", _corpus("count"), ids=lambda c: " ".join(c["argv"][1:]))
def test_count_call_matches_the_corpus(call):
    assert run_call(call["argv"]) == (call["code"], call["stdout"],
                                      call["stderr_first_line"])


@pytest.mark.parametrize("call", _corpus("predim") + _corpus("deriv"),
                         ids=lambda c: " ".join(c["argv"]))
def test_predim_and_deriv_call_matches_the_corpus(call):
    assert run_with_files(call["argv"], call["files"]) == (
        call["code"], call["stdout"], call["stderr_first_line"])


# -- the enclosure-aware comparison of wp.json --------------------------------

_NUM = r"-?[0-9][0-9.]*(?:e[-+]?[0-9]+)?"
_BOX = re.compile(rf"({_NUM}) \+ ({_NUM})i \(err ({_NUM})\)")
_BOUND = re.compile(rf"(= )({_NUM})$", re.M)
_BOX_KEYS = {"re", "im", "err", "precision"}
_BOUND_KEYS = {"max_residual"}


def _numbers(stdout):
    """(boxes, bounds, skeleton) of one call's stdout: each box as its
    (re, im, err) strings, each residual bound as a string, and the output
    with both masked (a record keeps its keys and other values)."""
    boxes, bounds = [], []
    if stdout.startswith("{"):
        def walk(rec):
            if isinstance(rec, dict) and set(rec) == _BOX_KEYS:
                boxes.append((rec["re"], rec["im"], rec["err"]))
                return {"box": rec["precision"]}
            if isinstance(rec, dict):
                out = {}
                for key, value in rec.items():
                    if key in _BOUND_KEYS:
                        bounds.append(value)
                        value = "<bound>"
                    out[key] = walk(value)
                return out
            return rec

        return boxes, bounds, walk(json.loads(stdout))
    skeleton = _BOX.sub(lambda m: boxes.append(m.groups()) or "<box>", stdout)
    skeleton = _BOUND.sub(lambda m: bounds.append(m.group(2)) or "= <bound>", skeleton)
    return boxes, bounds, skeleton


def _box_matches(got, gold) -> bool:
    """The printed squares [re +- err] + [im +- err]i overlap, |re - re0| and
    |im - im0| <= err + err0, and the new err is no larger.  Each printed
    err bounds the distance from its printed midpoint to the box it stands
    for in each component, so no slack for the midpoint's rounding is
    needed."""
    with mp.workprec(4096):
        err, err0 = mp.mpf(got[2]), mp.mpf(gold[2])
        return err <= err0 and all(abs(mp.mpf(a) - mp.mpf(b)) <= err + err0
                                   for a, b in zip(got[:2], gold[:2]))


@pytest.mark.parametrize("call", _corpus("wp"), ids=lambda c: " ".join(c["argv"][1:]))
def test_wp_call_matches_the_corpus(call):
    code, stdout, stderr = run_call(call["argv"])
    assert (code, stderr) == (call["code"], call["stderr_first_line"])
    boxes, bounds, skeleton = _numbers(stdout)
    boxes0, bounds0, skeleton0 = _numbers(call["stdout"])
    assert skeleton == skeleton0
    assert len(boxes) == len(boxes0) and len(bounds) == len(bounds0)
    for got, gold in zip(boxes, boxes0):
        assert _box_matches(got, gold), (got, gold)
    for got, gold in zip(bounds, bounds0):
        assert mp.mpf(got) <= mp.mpf(gold), (got, gold)
