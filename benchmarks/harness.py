"""Closed-loop task runner shared by the workloads.

A workload is a list of sessions; a session is an ordered list of tasks that
share state (a model, a configuration) the way one researcher's calls would.
Each task is one public-API call or one CLI invocation.  One client runs the
tasks back to back, each after the previous answer, in one thread.

A run repeats the same session list in whole rounds until the time budget
is spent.  A round runs every session once, on fresh objects, and rounds
alternate between the CPUs the process may use, so each task's runs are
spread over the whole run and over both cores.  The first round is the
certification round: oracles and exact counts look only at it, so they
repeat exactly for a seed.  Every other round re-runs the same inputs and
must reproduce its answers.

On a host whose cores are shared with other tenants the machine runs 1.5-2
times slower in spells lasting from a fraction of a second to a whole run,
and a spell slows every piece of interpreter work alike.  So each task is
bracketed by a fixed reference loop that is not the program's code, and its
time is also given scaled to the speed at which that loop takes
REFERENCE_SECONDS: a task's time divided by the reference loop's time right
around it changes by a few percent where the raw time changes by half.
"""

from __future__ import annotations

import gc
import os
import time
import traceback
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Any, Callable, Optional

# Seconds the reference loop takes on the reference machine (a 2-CPU Xeon VM)
# at its fast moments; task times are reported at this speed.
REFERENCE_SECONDS = 0.0016

OK = "ok"            # a certified answer, including "unknown up to bound"
REFUSED = "refused"  # the program declined to certify (a documented error)
ERROR = "error"      # the call raised outside the program's error contract


@dataclass
class Task:
    kind: str
    call: Callable[[dict], Any]
    needs: tuple = ()       # state keys that must exist, else not attempted
    required: bool = False  # no answer ends the session
    store: Optional[str] = None


@dataclass
class Session:
    key: str
    tasks: list
    prepare: Optional[Callable[[], dict]] = None  # untimed; fresh state
    data: dict = field(default_factory=dict)


@dataclass
class Record:
    round: int
    session: int
    index: int
    kind: str
    status: str
    seconds: float
    result: Any
    detail: str = ""
    ref: float = REFERENCE_SECONDS  # reference loop seconds around the task

    @property
    def scaled(self) -> float:
        """The task's seconds at the reference speed."""
        return self.seconds * REFERENCE_SECONDS / self.ref


@dataclass
class Phase:
    records: list
    rounds: int
    states: list  # session states of the first round, kept for the checks


def classify(exc: BaseException, errors) -> tuple:
    """(status, detail) for an exception raised by a task."""
    if isinstance(exc, errors.UnknownUpToBound):
        return OK, f"UnknownUpToBound: {exc}"
    if isinstance(exc, errors.WplabError):
        return REFUSED, f"{type(exc).__name__}: {exc}"
    return ERROR, "".join(traceback.format_exception(exc)).strip()


def _reference_work():
    acc, table = 0, {}
    for i in range(6000):
        acc = (acc * 31 + i) % 1000003
        table[i & 255] = acc
    total = Fraction(0)
    for i in range(1, 300):
        total += Fraction(1, i)
    return acc, total


def reference(clock=time.perf_counter) -> float:
    """Seconds a fixed piece of interpreter work (small-int, dict, big-int and
    Fraction arithmetic, none of it the program's) takes right now.  The
    garbage collector is paused so that the program's live objects do not
    change it."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = clock()
        _reference_work()
        return clock() - start
    finally:
        if enabled:
            gc.enable()


def run_rounds(sessions, seconds: float, errors, tracer=None,
               max_rounds: Optional[int] = None, classify_result=None,
               min_rounds: int = 1) -> Phase:
    """Run whole rounds until `seconds` have passed and at least `min_rounds`
    rounds are done, or until `max_rounds` rounds are done.  Round k runs on
    the k-th CPU the process may use, in turn.  With a tracer every task runs
    inside a root span whose task id is the record's index."""
    allowed = sorted(os.sched_getaffinity(0))
    try:
        return _rounds(sessions, seconds, errors, tracer, max_rounds, min_rounds,
                       classify_result, allowed)
    finally:
        os.sched_setaffinity(0, allowed)


def _rounds(sessions, seconds, errors, tracer, max_rounds, min_rounds, classify_result,
            cpus) -> Phase:
    records = []
    states = []
    clock = time.perf_counter
    t0 = clock()
    rnd = 0
    while True:
        rnd += 1
        os.sched_setaffinity(0, {cpus[(rnd - 1) % len(cpus)]})
        for si, session in enumerate(sessions):
            state = session.prepare() if session.prepare else {}
            if rnd == 1:
                states.append(state)
            _session(session, si, state, rnd, records, errors, tracer,
                     classify_result, clock)
        if rnd == max_rounds or (rnd >= min_rounds and clock() - t0 >= seconds):
            return Phase(records, rnd, states)


def _session(session, si, state, run, records, errors, tracer, classify_result, clock):
    for ti, task in enumerate(session.tasks):
        if any(k not in state for k in task.needs):
            continue
        detail = ""
        ref = reference(clock)
        start = clock()
        try:
            if tracer is None:
                result = task.call(state)
            else:
                result = tracer.task(len(records), task.kind, lambda: task.call(state))
            status = OK
        except Exception as exc:  # recorded and reported, never fatal
            result = exc
            status, detail = classify(exc, errors)
        seconds_taken = clock() - start
        ref = (ref + reference(clock)) / 2
        if status == OK and classify_result is not None:
            status, detail = classify_result(task, result)
        records.append(Record(run, si, ti, task.kind, status, seconds_taken, result, detail,
                              ref))
        if status == OK and task.store:
            state[task.store] = result
        if status != OK and task.required:
            break
