"""Span tracing installed from outside the program.

`Tracer.install` wraps every public function of the wplab layer modules,
every public method of the classes they define, and the arithmetic
operators of ComplexBox and QuadNum.  A wrapped module-level function is
replaced in every loaded wplab module namespace that imported it, so calls
between modules are traced too.  `uninstall` puts the originals back.

Spans live in columnar arrays (name id, start, end, parent index, task id)
so that a traced round of a few million calls stays small; they are
written out once, when the run ends.  The benchmark opens one root span per
task with `task`; calls made outside a task are not recorded, so every span
belongs to a task.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from array import array
from pathlib import Path

LAYERS = ("quadfield", "cintervals", "lattice_core", "wp_numerics",
          "predim_engine", "differentials", "counting", "serialize", "cli")

OPERATORS = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__",
             "__rmul__", "__truediv__", "__rtruediv__", "__neg__")
OPERATOR_CLASSES = ("ComplexBox", "QuadNum")


class Tracer:
    def __init__(self):
        self.names = []
        self._name_ids = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.task_id = array("i")
        self._stack = [-1]
        self.current_task = -1
        self._patches = []

    # -- recording -------------------------------------------------------------

    def _name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _wrap(self, fn, name: str):
        nid = self._name_id(name)
        names, starts, ends = self.name, self.start, self.end
        parents, tasks, stack = self.parent, self.task_id, self._stack
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer.current_task < 0:  # outside a task: untimed preparation
                return fn(*args, **kwargs)
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            tasks.append(tracer.current_task)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()

        return traced

    def task(self, task_id: int, kind: str, fn):
        """Run fn() inside a root span 'bench.<kind>' for the given task."""
        self.current_task = task_id
        try:
            return self._wrap(fn, f"bench.{kind}")()
        finally:
            self.current_task = -1

    # -- installation ----------------------------------------------------------

    def install(self, package: str = "wplab"):
        originals = {}
        for layer in LAYERS:
            module = sys.modules[f"{package}.{layer}"]
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isfunction(obj):
                    if inspect.isgeneratorfunction(obj):
                        continue
                    originals[id(obj)] = (obj, self._wrap(obj, f"{layer}.{attr}"))
                elif inspect.isclass(obj) and not issubclass(obj, BaseException):
                    self._install_class(layer, obj)
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == package or mod_name.startswith(package + ".")):
                continue
            for attr, obj in list(vars(module).items()):
                hit = originals.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._patches.append((module, attr, obj))
                    setattr(module, attr, hit[1])

    def _install_class(self, layer: str, cls):
        ops = OPERATORS if cls.__name__ in OPERATOR_CLASSES else ()
        for attr, raw in list(vars(cls).items()):
            if attr.startswith("_") and attr not in ops:
                continue
            name = f"{layer}.{cls.__name__}.{attr}"
            if isinstance(raw, staticmethod):
                wrapped = staticmethod(self._wrap(raw.__func__, name))
            elif isinstance(raw, classmethod):
                wrapped = classmethod(self._wrap(raw.__func__, name))
            elif inspect.isfunction(raw):
                wrapped = self._wrap(raw, name)
            else:
                continue
            self._patches.append((cls, attr, raw))
            setattr(cls, attr, wrapped)

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- analysis --------------------------------------------------------------

    def analyse(self):
        """Per-span layer, duration, self time and whether it is the
        outermost span of its layer on its stack.  Raises if a span is still
        open or a child ends outside its parent."""
        n = len(self.start)
        if self._stack != [-1] or any(e == 0.0 for e in self.end):
            raise RuntimeError("trace has open spans")
        layer_of_name = [nm.split(".", 1)[0] for nm in self.names]
        layer_bits = {}
        bit_of_name = [layer_bits.setdefault(l, 1 << len(layer_bits)) for l in layer_of_name]
        dur = [e - s for s, e in zip(self.start, self.end)]
        child = [0.0] * n
        mask = [0] * n
        outermost = [False] * n
        for i in range(n):
            p = self.parent[i]
            bit = bit_of_name[self.name[i]]
            if p >= 0:
                if self.start[i] < self.start[p] or self.end[i] > self.end[p]:
                    raise RuntimeError("span ends outside its parent")
                child[p] += dur[i]
                outermost[i] = not mask[p] & bit
                mask[i] = mask[p] | bit
            else:
                outermost[i] = True
                mask[i] = bit
        self_time = [d - c for d, c in zip(dur, child)]
        return Analysis(self, layer_of_name, dur, self_time, outermost)

    def write(self, path: Path, header: dict):
        """Columns as raw arrays in <path>.bin, described by <path>.json."""
        path.parent.mkdir(parents=True, exist_ok=True)
        columns = [("name", self.name), ("start", self.start), ("end", self.end),
                   ("parent", self.parent), ("task", self.task_id)]
        with open(path.with_suffix(".bin"), "wb") as fh:
            for _, col in columns:
                col.tofile(fh)
        meta = dict(header, spans=len(self.start), names=self.names,
                    columns=[{"name": c, "type": col.typecode, "itemsize": col.itemsize}
                             for c, col in columns])
        path.with_suffix(".json").write_text(json.dumps(meta, indent=1))


class Analysis:
    def __init__(self, tracer, layer_of_name, dur, self_time, outermost):
        self.tracer = tracer
        self.layer_of_name = layer_of_name
        self.dur = dur
        self.self_time = self_time
        self.outermost = outermost
        self.by_name = {}
        for i, nid in enumerate(tracer.name):
            self.by_name.setdefault(nid, []).append(i)

    def spans(self, names, tasks=None):
        """Indices of spans with one of the given names, limited to a set of
        task ids when given."""
        t = self.tracer
        if isinstance(names, str):
            names = (names,)
        out = []
        for name in names:
            nid = t._name_ids.get(name)
            out.extend(i for i in self.by_name.get(nid, ())
                       if tasks is None or t.task_id[i] in tasks)
        return sorted(out)

    def layer_totals(self):
        """{layer: (calls, self_s, busy_s)} over every span."""
        out = {}
        for nid, idx in self.by_name.items():
            layer = self.layer_of_name[nid]
            calls, self_s, busy = out.get(layer, (0, 0.0, 0.0))
            out[layer] = (calls + len(idx),
                          self_s + sum(self.self_time[i] for i in idx),
                          busy + sum(self.dur[i] for i in idx if self.outermost[i]))
        return out
