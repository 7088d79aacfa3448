"""Each workload of BENCHMARK.json runs one round of its warm-up sessions
through the benchmark's own code (benchmarks/run.py, harness.py and
workloads.py) and passes its oracle checks, so an API change that would
make the benchmark command fail shows up here first.  The `predim hull`
calls of a few cli_calls rounds, whose configurations carry CM and generic
relation rows, run the same way."""

import importlib.util
import json
import random
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]


@pytest.fixture(scope="module")
def bench():
    spec = importlib.util.spec_from_file_location("benchmark_run", ROOT / "benchmarks" / "run.py")
    run = importlib.util.module_from_spec(spec)
    write_bytecode, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:  # no __pycache__ under benchmarks/
        spec.loader.exec_module(run)
    finally:
        sys.dont_write_bytecode = write_bytecode
    return run


@pytest.mark.parametrize("name", WORKLOADS)
def test_warm_up_round_is_answered_and_checked(bench, name, tmp_path):
    harness = bench.harness
    api = bench.load_program()
    workload = bench.make_workload(name, api, tmp_path)
    sessions = workload.build(workload.warmup(random.Random(f"{name}:1:warm-up")))
    phase = harness.run_rounds(sessions, 0, api.errors, max_rounds=1,
                               classify_result=getattr(workload, "classify_result", None))
    assert phase.records
    assert [(r.kind, r.status, r.detail) for r in phase.records
            if r.status != harness.OK] == []
    assert workload.check(sessions, phase.records, phase.states)["wrong"] == []


@pytest.mark.parametrize("seed", [5, 12, 13])
def test_cli_calls_predim_hull_commands_are_answered_and_checked(bench, seed, tmp_path):
    harness = bench.harness
    api = bench.load_program()
    workload = bench.make_workload("cli_calls", api, tmp_path)
    inputs = workload.generate(random.Random(f"cli_calls:{seed}"))
    hulls = [c for c in inputs["commands"] if c["kind"] == "hull"]
    assert hulls
    sessions = workload.build(dict(inputs, commands=hulls))
    phase = harness.run_rounds(sessions, 0, api.errors, max_rounds=1,
                               classify_result=workload.classify_result)
    assert [(r.kind, r.status, r.detail) for r in phase.records
            if r.status != harness.OK] == []
    assert workload.check(sessions, phase.records, phase.states)["wrong"] == []
