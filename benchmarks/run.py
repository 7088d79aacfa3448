#!/usr/bin/env python3
"""wplab benchmark: one seeded workload, measured end to end or traced.

    python3 benchmarks/run.py --workload wp_session --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the program is imported from src/.  The
last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics: the end-to-end metrics with --trace 0, the
per-layer metrics with --trace 1.  The lines before it print every metric
by name with its unit, the checks, and the environment.  The exit code is
1 when an answer disagrees with its oracle, and 2 when the program cannot be
found or run.

--selfcheck runs the benchmark's own checks instead: the same seed gives
the same inputs and the same exact counts, traced and untraced runs give
the same answers, and the trace is well formed.

See benchmarks/README.md for the workloads and the metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import math
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
import types
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import harness  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

WORKLOADS = ("wp_session", "isogeny_search", "predim_hull", "height_count", "cli_calls")
SETUP_REPEATS = 7
TAIL_BEYOND = 10  # task runs that must lie beyond the tail percentile


# -- set-up ------------------------------------------------------------------


def load_program():
    src = ROOT / "src"
    if not (src / "wplab" / "cli.py").is_file():
        raise FileNotFoundError(f"wplab sources not found under {src}")
    sys.path.insert(0, str(src))
    names = tracing.LAYERS + ("errors",)
    return types.SimpleNamespace(**{n: importlib.import_module(f"wplab.{n}") for n in names})


def fresh_import_seconds() -> float:
    """Wall time of a new interpreter importing the CLI and all it pulls in."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import wplab.cli"], cwd=ROOT, env=env,
                   check=True, capture_output=True, timeout=120)
    return time.perf_counter() - start


def make_workload(name, api, workdir):
    if name == "cli_calls":
        return workloads.CliCalls(api, ROOT, workdir)
    cls = {"wp_session": workloads.WpSession, "isogeny_search": workloads.IsogenySearch,
           "predim_hull": workloads.PredimHull, "height_count": workloads.HeightCount}[name]
    return cls(api)


def inputs_digest(inputs, workdir) -> str:
    text = json.dumps(inputs, sort_keys=True, default=str).replace(str(workdir), "<work>")
    return hashlib.sha256(text.encode()).hexdigest()


def reference_now() -> float:
    """The reference loop's time now: the least of three runs, since a
    moment's interruption only adds time."""
    return min(harness.reference() for _ in range(3))


def setup(workload, seed, api):
    """Set up SETUP_REPEATS times: a fresh-interpreter import, input
    generation and an untimed warm-up on distinct inputs.  Returns the
    sessions, the per-repeat totals (at the reference speed, the import and
    the rest each scaled by the reference loop around it) and raw import
    times, and the input digests."""
    totals, imports, digests = [], [], set()
    sessions = None
    cpus = sorted(os.sched_getaffinity(0))
    scale = harness.REFERENCE_SECONDS
    for i in range(SETUP_REPEATS):
        os.sched_setaffinity(0, {cpus[i % len(cpus)]})
        ref0 = reference_now()
        imports.append(fresh_import_seconds())
        ref1 = reference_now()
        start = time.perf_counter()
        inputs = workload.generate(random.Random(f"{workload.name}:{seed}"))
        warm = workload.warmup(random.Random(f"{workload.name}:{seed}:warm-up"))
        sessions = workload.build(inputs)
        harness.run_rounds(workload.build(warm), 0, api.errors, max_rounds=2,
                           classify_result=getattr(workload, "classify_result", None))
        rest = time.perf_counter() - start
        ref2 = reference_now()
        totals.append(imports[-1] * scale / ((ref0 + ref1) / 2)
                      + rest * scale / ((ref1 + ref2) / 2))
        digests.add(inputs_digest(inputs, getattr(workload, "workdir", "")))
    os.sched_setaffinity(0, cpus)
    return sessions, totals, imports, digests


# -- end-to-end figures -------------------------------------------------------


def quantile(values, pct):
    """Harrell-Davis estimate of the pct-th percentile: a weighted mean of the
    order statistics, so it does not jump when two tasks near the percentile
    trade places between runs."""
    import mpmath

    xs = sorted(values)
    n = len(xs)
    p = pct / 100
    a, b = p * (n + 1), (1 - p) * (n + 1)
    cdf = [float(mpmath.betainc(a, b, 0, i / n, regularized=True)) for i in range(n + 1)]
    return sum((cdf[i + 1] - cdf[i]) * x for i, x in enumerate(xs))


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024


def consistency(workload, phase):
    """Later rounds must give round 1's answers; returns the differences and
    round 1's summaries."""
    first = {}
    wrong = []
    for rec in phase.records:
        key = (rec.session, rec.index)
        text = workload.summary(rec)
        if rec.round == 1:
            first[key] = text
        elif first.get(key) != text:
            wrong.append(f"round {rec.round} answer of task {key} differs from round 1")
    return wrong, first


def task_seconds(records, scaled=True):
    """Each task's median run over the rounds, at the reference speed or, with
    scaled=False, as the wall clock read it."""
    runs = {}
    for r in records:
        runs.setdefault((r.session, r.index), []).append(r.scaled if scaled else r.seconds)
    return [statistics.median(v) for v in runs.values()]


def end_to_end(phase, round1, report, setup_totals, min_rounds):
    secs = task_seconds(phase.records)
    answered = sum(1 for r in round1 if r.status == harness.OK)
    # each task stands for at least `min_rounds` runs, all as slow as its time
    beyond = math.ceil(TAIL_BEYOND / min_rounds)
    tail_pct = 100 * (1 - beyond / len(round1)) if len(round1) > 2 * beyond else 50.0
    und, classified = report["undetermined"]
    raw = task_seconds(phase.records, scaled=False)
    return {
        "task_p50_ms": (quantile(secs, 50) * 1e3, "ms"),
        "task_tail_ms": (quantile(secs, tail_pct) * 1e3, "ms"),
        "tasks_per_s": (len(secs) / sum(secs), "1/s"),
        "answered_share": (answered / len(round1), "share"),
        "setup_s": (statistics.median(setup_totals), "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }, {
        "tail_percentile": tail_pct,
        "tasks_done": len(phase.records),
        "rounds": phase.rounds,
        "wall_task_p50_ms": quantile(raw, 50) * 1e3,
        "wall_task_tail_ms": quantile(raw, tail_pct) * 1e3,
        "wall_tasks_per_s": len(raw) / sum(raw),
        "machine_speed": statistics.median(harness.REFERENCE_SECONDS / r.ref
                                           for r in phase.records),
        "failed_share": 1 - answered / len(round1),
        "cert_bits_min": min(report["cert_bits"]) if report["cert_bits"] else None,
        "undetermined_share": und / classified if classified else 0.0,
    }


# -- per-layer figures ---------------------------------------------------------


def mean(xs):
    return sum(xs) / len(xs) if xs else 0.0


def per_layer(an, records, untraced_round1, imports):
    """Per-layer metrics of the traced round (and the CLI's in-process
    replay); task ids are record indices, replay ids follow them."""
    t = an.tracer
    totals = an.layer_totals()
    roots = [i for i in range(len(t.start)) if t.parent[i] < 0]

    def tot(layer, k):
        return totals.get(layer, (0, 0.0, 0.0))[k]

    def ids(*kinds):
        return {i for i, r in enumerate(records) if r.kind in kinds}

    def durs(names, tasks=None):
        return [an.dur[i] for i in an.spans(names, tasks)]

    ops = tuple(f"cintervals.ComplexBox.{name}" for name in tracing.OPERATORS)

    def op(*names):
        return tuple(f"cintervals.ComplexBox.__{n}__" for n in names)
    search = ids("search", "isr")
    searches = ("lattice_core.is_isogenous", "lattice_core.isr_equivalent")
    search_spans = [i for i in an.spans(searches)  # isr_equivalent calls is_isogenous
                    if t.parent[i] < 0 or t.names[t.name[t.parent[i]]] not in searches]
    search_tasks = {t.task_id[i] for i in search_spans}
    near = ids("exp_E_near")
    identity = ids("count_identity", "count_bounded")
    first_layer = {}
    for i in range(len(t.start)):
        p = t.parent[i]
        if p >= 0 and t.parent[p] < 0 and t.task_id[i] not in first_layer:
            first_layer[t.task_id[i]] = an.layer_of_name[t.name[i]]
    failed = {}
    for i, r in enumerate(records):
        if r.status != harness.OK:
            layer = first_layer.get(i, "bench")
            failed[layer] = failed.get(layer, 0) + 1
    traced_s = sum(r.seconds for r in records)
    found = sum(1 for i in search if records[i].status == harness.OK
                and getattr(records[i].result, "outcome", "") == "isogenous")
    m = {
        "cintervals.calls": (tot("cintervals", 0), "count"),
        "cintervals.busy_s": (tot("cintervals", 2), "s"),
        "cintervals.mul_us": (mean(durs(op("mul", "rmul"))) * 1e6, "us"),
        "cintervals.div_us": (mean(durs(op("truediv", "rtruediv"))) * 1e6, "us"),
        "cintervals.add_us": (mean(durs(op("add", "radd"))) * 1e6, "us"),
        "cintervals.ops_per_task": (len(an.spans(ops)) / len(roots), "ops/task"),
        "quadfield.calls": (tot("quadfield", 0), "count"),
        "quadfield.busy_s": (tot("quadfield", 2), "s"),
        "wp_numerics.calls": (tot("wp_numerics", 0), "count"),
        "wp_numerics.self_s": (tot("wp_numerics", 1), "s"),
        "wp_numerics.invariants_ms": (mean(durs("wp_numerics.invariants")) * 1e3, "ms"),
        "wp_numerics.wp_ms": (mean(durs("wp_numerics.wp")) * 1e3, "ms"),
        "wp_numerics.near_pole_ms": (mean(durs("bench.exp_E_near")) * 1e3, "ms"),
        "wp_numerics.curve_add_per_near_pole": (
            len(an.spans("wp_numerics.curve_add", near)) / len(near) if near else 0.0,
            "adds/task"),
        "wp_numerics.failed": (failed.get("wp_numerics", 0), "count"),
        "lattice_core.calls": (tot("lattice_core", 0), "count"),
        "lattice_core.self_s": (tot("lattice_core", 1), "s"),
        "lattice_core.search_ms": (mean([an.dur[i] for i in search_spans]) * 1e3, "ms"),
        "lattice_core.box_ops_per_search": (len(an.spans(ops, search_tasks)) / len(search_spans)
                                            if search_spans else 0.0, "ops/search"),
        "lattice_core.cm_field_ms": (mean(durs("lattice_core.cm_field")) * 1e3, "ms"),
        "lattice_core.witness_found_ratio": (found / len(search) if search else 0.0, "ratio"),
        "predim_engine.calls": (tot("predim_engine", 0), "count"),
        "predim_engine.self_s": (tot("predim_engine", 1), "s"),
        "predim_engine.delta_evals": (len(an.spans(("predim_engine.Configuration.td_mask",
                                                    "predim_engine.Configuration.grk_mask"))),
                                      "count"),
        "predim_engine.hull_ms": (mean(durs("predim_engine.strong_hull")) * 1e3, "ms"),
        "differentials.calls": (tot("differentials", 0), "count"),
        "differentials.busy_s": (tot("differentials", 2), "s"),
        "differentials.extend_ms": (mean(durs("differentials.extend_derivation")) * 1e3, "ms"),
        "counting.calls": (tot("counting", 0), "count"),
        "counting.enumerate_s": (sum(durs("counting.enumerate_rationals")), "s"),
        "counting.pair_loop_s": (sum(an.self_time[i] for i in
                                     an.spans("counting.count_report", identity)), "s"),
        "counting.enclosure_calls": (len(an.spans("counting.Composite.enclosure")), "count"),
        "counting.enclosure_s": (sum(durs("counting.Composite.enclosure")), "s"),
        "serialize.calls": (tot("serialize", 0), "count"),
        "serialize.busy_s": (tot("serialize", 2), "s"),
        "cli.process_ms": (mean([r.seconds for r in records if r.kind.startswith("cli_")]) * 1e3,
                           "ms"),
        "cli.in_process_ms": (mean(durs("cli.run")) * 1e3, "ms"),
        "cli.import_s": (statistics.median(imports), "s"),
        "trace.tasks_per_s": (len(records) / traced_s, "1/s"),
        "trace.slowdown": (traced_s / sum(r.seconds for r in untraced_round1), "ratio"),
    }
    return m


def check_trace(an, task_seconds):
    """No open spans (analyse raises), self times add up to the root spans,
    and the root spans cover the measured task time."""
    t = an.tracer
    problems = []
    root_total = sum(an.dur[i] for i in range(len(t.start)) if t.parent[i] < 0)
    self_total = math.fsum(an.self_time)
    if abs(self_total - root_total) > 1e-6 * max(root_total, 1e-9) + 1e-9:
        problems.append(f"self times sum to {self_total:.6f} s, root spans to {root_total:.6f} s")
    if min(an.self_time, default=0.0) < -1e-6:
        problems.append("a span has negative self time")
    if not 0.98 * task_seconds <= root_total <= task_seconds * (1 + 1e-9):
        problems.append(f"root spans cover {root_total:.6f} s of {task_seconds:.6f} s of tasks")
    return problems


def traced_round(workload, sessions, api, replay):
    """Round 1 under tracing; for the CLI workload also replay each call in
    process with cli.run so the layers behind the CLI are traced."""
    import contextlib
    import io

    tracer = tracing.Tracer()
    tracer.install()
    try:
        phase = harness.run_rounds(sessions, 0, api.errors, tracer, max_rounds=1,
                                   classify_result=getattr(workload, "classify_result", None))
        replay_out = []
        replay_seconds = 0.0
        for j, argv in enumerate(replay):
            out, err = io.StringIO(), io.StringIO()
            start = time.perf_counter()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = tracer.task(len(phase.records) + j, "cli_in_process",
                                   lambda a=argv: api.cli.run(a))
            replay_seconds += time.perf_counter() - start
            replay_out.append((code, out.getvalue().encode()))
    finally:
        tracer.uninstall()
    return tracer, phase, replay_out, replay_seconds


# -- environment ---------------------------------------------------------------


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unavailable (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    path = ROOT / ".git" / ref[5:]
    if path.is_file():
        return path.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(ref[5:]):
                return line.split()[0]
    return "unavailable"


def environment(args):
    import mpmath
    import sympy

    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "wplab").glob("*.py")):
        digest.update(path.name.encode() + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "mpmath": mpmath.__version__,
        "mpmath_backend": mpmath.libmp.BACKEND,
        "sympy": sympy.__version__,
        "git_commit": git_commit(),
        "src_sha256": digest.hexdigest(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "traced": bool(args.trace),
    }


# -- main ----------------------------------------------------------------------


def print_metrics(title, metrics, notes=None):
    print(title)
    for name, (value, unit) in metrics.items():
        note = f"  ({notes[name]})" if notes and name in notes else ""
        print(f"  {name:40s} {value:16.6g} {unit}{note}")


def run(args, api, workdir):
    workload = make_workload(args.workload, api, workdir)
    env = environment(args)
    print("# env " + json.dumps(env, sort_keys=True))
    sessions, setup_totals, imports, digests = setup(workload, args.seed, api)
    wrong = [] if len(digests) == 1 else ["the same seed generated different inputs"]
    classify = getattr(workload, "classify_result", None)
    phase = harness.run_rounds(sessions, args.seconds, api.errors, classify_result=classify,
                               min_rounds=workload.min_rounds)
    round1 = [r for r in phase.records if r.round == 1]
    report = workload.check(sessions, round1, phase.states)
    differ, first = consistency(workload, phase)
    wrong += report["wrong"] + differ
    if args.workload == "cli_calls":
        wrong += repeat_cli(workload, sessions, first, args.seed)
    e2e, extra = end_to_end(phase, round1, report, setup_totals, workload.min_rounds)
    print(f"# inputs sha256 {digests.pop() if len(digests) == 1 else 'differs'}; "
          f"rounds {phase.rounds}; round-1 tasks {len(round1)}; "
          f"setup repeats {[round(s, 4) for s in setup_totals]}")
    errors = [r for r in phase.records if r.status == harness.ERROR]
    metrics = e2e
    if args.trace:
        replay = [s.data["cmd"]["argv"] for s in sessions] if args.workload == "cli_calls" else []
        tracer, traced, replay_out, replay_s = traced_round(workload, sessions, api, replay)
        traced_first = {(r.session, r.index): workload.summary(r) for r in traced.records}
        if traced_first != first:
            wrong.append("the traced round's answers differ from the untraced round's")
        for (code, out), rec in zip(replay_out, round1):
            if (code, out) != rec.result[:2]:
                wrong.append(f"in-process cli.run output differs from the process for "
                             f"{' '.join(sessions[rec.session].data['cmd']['argv'][:2])}")
        try:
            an = tracer.analyse()
            problems = check_trace(an, sum(r.seconds for r in traced.records) + replay_s)
        except RuntimeError as exc:
            an, problems = None, [str(exc)]
        wrong += [f"trace: {p}" for p in problems]
        if an is not None:
            metrics = per_layer(an, traced.records, round1, imports)
        tracer.write(HERE / "out" / f"trace-{args.workload}-seed{args.seed}",
                     {"env": env, "tasks": [{"id": i, "kind": r.kind, "status": r.status,
                                             "session": sessions[r.session].key}
                                            for i, r in enumerate(traced.records)]})
    print_metrics(f"end-to-end, {args.workload}, seed {args.seed}"
                  + (" (untraced phase)" if args.trace else ""), e2e,
                  {"task_tail_ms": f"p{extra['tail_percentile']:.1f}, "
                                   f"{extra['tasks_done']} tasks done"})
    extra["wrong_results"] = len(wrong)
    extra["known_defects"] = len(report["known_defects"])
    print("checks and counts")
    for k, v in extra.items():
        print(f"  {k:40s} {v}")
    for line in report["known_defects"]:
        print(f"  known defect: {line}")
    for line in wrong[:20]:
        print(f"  WRONG: {line}")
    for rec in errors[:3]:
        print(f"  ERROR in {rec.kind}: {rec.detail.splitlines()[-1] if rec.detail else ''}")
    if args.trace:
        print_metrics("per-layer (traced round 1)", metrics)
    result = {
        "correct": not wrong,
        "attempted": len(phase.records),
        "failed": len(errors),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if not wrong else 1


def repeat_cli(workload, sessions, first, seed):
    """Three seeded calls run again after the timed phase: same exit code,
    byte-identical standard output."""
    rng = random.Random(f"cli_calls:{seed}:repeat")
    wrong = []
    for si in rng.sample(range(len(sessions)), 3):
        rec = harness.Record(0, si, 0, "", harness.OK,
                             0.0, workload.run_cli(sessions[si].data["cmd"]["argv"]))
        if workload.summary(rec) != first.get((si, 0)):
            wrong.append(f"repeated call {sessions[si].key} is not byte-identical")
    return wrong


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selfcheck", action="store_true")
    args = ap.parse_args(argv)
    try:
        api = load_program()
    except (FileNotFoundError, ImportError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    workdir = HERE / "out" / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    try:
        if args.selfcheck:
            return selfcheck(args, api, workdir)
        return run(args, api, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def selfcheck(args, api, workdir) -> int:
    workload = make_workload(args.workload, api, workdir)
    problems = []
    a = workload.generate(random.Random(f"{workload.name}:{args.seed}"))
    b = workload.generate(random.Random(f"{workload.name}:{args.seed}"))
    if inputs_digest(a, workdir) != inputs_digest(b, workdir):
        problems.append("same seed, different inputs")
    sessions = workload.build(a)
    classify = getattr(workload, "classify_result", None)
    untraced = harness.run_rounds(sessions, 0, api.errors, max_rounds=1, classify_result=classify)
    base = {(r.session, r.index): workload.summary(r) for r in untraced.records}
    rep = workload.check(sessions, untraced.records, untraced.states)
    runs = []
    for _ in range(2):
        tracer, traced, _, _ = traced_round(workload, sessions, api, [])
        an = tracer.analyse()
        problems += check_trace(an, sum(r.seconds for r in traced.records))
        if {(r.session, r.index): workload.summary(r) for r in traced.records} != base:
            problems.append("traced answers differ from untraced answers")
        trep = workload.check(sessions, traced.records, traced.states)
        exact = (min(trep["cert_bits"], default=None), trep["undetermined"],
                 {k: v for k, v in per_layer(an, traced.records, untraced.records,
                                             [0.0]).items() if k.endswith(".calls")})
        runs.append(exact)
    if runs[0] != runs[1] or runs[0][:2] != (min(rep["cert_bits"], default=None),
                                              rep["undetermined"]):
        problems.append(f"exact counts differ between runs: {runs[0]} vs {runs[1]}")
    problems += rep["wrong"]
    for p in problems:
        print(f"FAIL: {p}")
    print(f"selfcheck {args.workload} seed {args.seed}: {'FAIL' if problems else 'PASS'} "
          f"({len(untraced.records)} tasks, exact counts {runs[0][2]})")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
