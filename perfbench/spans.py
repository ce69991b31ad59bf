"""Span tracing of the calls into sympjoint, installed from the benchmark.

``Tracer.install`` wraps every public function and method of the loaded
``sympjoint`` modules, plus the arithmetic dunders of ``MultiPoly`` and
``ExactMatrix``, and rebinds the names other sympjoint modules imported with
``from .x import y``.  Each wrapped call is a span with a name
(``layer.qualname``), a layer (the defining module), a start, an end, a
parent span and the id of the benchmark op that caused it.

Spans that share a name, a parent and an op are merged into one record that
keeps the first start, the last end, the call count and the summed
duration.  That keeps memory bounded when a hot accessor is called millions
of times, and it keeps self time exact: a record's self time is its summed
duration minus the summed durations of its child records.

Stdlib ``Fraction`` arithmetic and comparison dunders are counted (not
spanned) as ``rat_ops``.  ``uninstall`` restores every patched attribute, so
the untimed and timed passes of a run never see the wrappers.
"""

import fractions
import functools
import inspect
import itertools
import json
import sys
import time
from collections import Counter

_DUNDERS = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__", "__neg__", "__pow__", "__matmul__")
_RAT_BINARY = (
    "__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__", "__truediv__", "__rtruediv__",
    "__floordiv__", "__rfloordiv__", "__mod__", "__rmod__", "__pow__", "__rpow__",
    "__eq__", "__lt__", "__le__", "__gt__", "__ge__",
)
_RAT_UNARY = ("__neg__", "__pos__", "__abs__")

# record fields
NAME, LAYER, PARENT, OP, START, END, CALLS, TOTAL = range(8)


class Tracer:
    def __init__(self):
        self.records = []  # [name, layer, parent, op, start, end, calls, total]
        self.index = {}  # (parent, name) -> record id
        self.stack = []  # record ids of the open spans; empty outside an op
        self.counts = Counter()
        self._rat_ticks = None
        self._patched = []

    # -- op roots ---------------------------------------------------------
    def begin_op(self, op_name):
        rid = self._record(None, "op." + op_name, "bench", op_name)
        self.stack[:] = [rid]
        return rid

    def end_op(self, rid, start, end):
        rec = self.records[rid]
        if not rec[CALLS]:
            rec[START] = start
        rec[END] = end
        rec[CALLS] += 1
        rec[TOTAL] += end - start
        self.stack.clear()

    def _record(self, parent, name, layer, op):
        key = (parent, name)
        rid = self.index.get(key)
        if rid is None:
            rid = len(self.records)
            self.records.append([name, layer, parent, op, 0.0, 0.0, 0, 0.0])
            self.index[key] = rid
        return rid

    # -- wrapping ---------------------------------------------------------
    def _wrap(self, fn, name, layer, hook=None):
        stack, records, index, record = self.stack, self.records, self.index, self._record
        counts = self.counts
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not stack:  # called outside any op (set-up): not a span
                return fn(*args, **kwargs)
            parent = stack[-1]
            rid = index.get((parent, name))
            if rid is None:
                rid = record(parent, name, layer, records[parent][OP])
            stack.append(rid)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                rec = records[rid]
                if not rec[CALLS]:
                    rec[START] = t0
                rec[END] = t1
                rec[CALLS] += 1
                rec[TOTAL] += t1 - t0
            if hook is not None:
                hook(counts, args, result)
            return result

        return wrapper

    def _patch(self, owner, attr, value):
        self._patched.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self, hooks=None):
        """Wrap the loaded sympjoint modules; hooks maps a span name to
        ``hook(counts, args, result)``, run after each call."""
        hooks = hooks or {}
        modules = {
            name: mod
            for name, mod in sys.modules.items()
            if mod is not None and (name == "sympjoint" or name.startswith("sympjoint."))
        }
        wrapped = {}  # id(original function) -> wrapper
        for modname, mod in modules.items():
            if modname == "sympjoint":
                continue
            layer = modname.split(".", 1)[1]
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != modname:
                    continue
                if inspect.isfunction(obj):
                    name = f"{layer}.{attr}"
                    wrapped[id(obj)] = self._wrap(obj, name, layer, hooks.get(name))
                elif inspect.isclass(obj):
                    self._wrap_class(obj, layer, hooks)
        for mod in modules.values():
            for attr, obj in list(vars(mod).items()):
                w = wrapped.get(id(obj))
                if w is not None:
                    self._patch(mod, attr, w)
        self._count_rat_ops()

    def _wrap_class(self, cls, layer, hooks):
        for attr, obj in list(vars(cls).items()):
            if attr.startswith("_") and attr not in _DUNDERS:
                continue
            name = f"{layer}.{cls.__name__}.{attr}"
            if inspect.isfunction(obj):
                self._patch(cls, attr, self._wrap(obj, name, layer, hooks.get(name)))
            elif isinstance(obj, classmethod):
                self._patch(cls, attr, classmethod(self._wrap(obj.__func__, name, layer, hooks.get(name))))

    def _count_rat_ops(self):
        """Count Fraction operations made inside ops (not in the checks)."""
        self._rat_ticks = itertools.count()
        tick, stack = self._rat_ticks.__next__, self.stack
        F = fractions.Fraction

        def binary(fn):
            def counted(a, b):
                if stack:
                    tick()
                return fn(a, b)
            return counted

        def unary(fn):
            def counted(a):
                if stack:
                    tick()
                return fn(a)
            return counted

        for attr in _RAT_BINARY:
            self._patch(F, attr, binary(F.__dict__[attr]))
        for attr in _RAT_UNARY:
            self._patch(F, attr, unary(F.__dict__[attr]))

    def uninstall(self):
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)
        self.counts["rat_ops"] += next(self._rat_ticks)  # ticks so far

    # -- analysis ---------------------------------------------------------
    def self_times(self):
        child = [0.0] * len(self.records)
        for rec in self.records:
            if rec[PARENT] is not None:
                child[rec[PARENT]] += rec[TOTAL]
        return [rec[TOTAL] - c for rec, c in zip(self.records, child)]

    def outermost(self, names):
        """Records in ``names`` with no ancestor in ``names`` (no double count)."""
        out = []
        for rid, rec in enumerate(self.records):
            if rec[NAME] not in names:
                continue
            p = rec[PARENT]
            while p is not None and self.records[p][NAME] not in names:
                p = self.records[p][PARENT]
            if p is None:
                out.append(rec)
        return out

    def dump(self, path):
        """Write one JSON line per span record."""
        selfs = self.self_times()
        with open(path, "w") as fh:
            for rid, (rec, s) in enumerate(zip(self.records, selfs)):
                fh.write(json.dumps({
                    "id": rid, "name": rec[NAME], "layer": rec[LAYER], "parent": rec[PARENT], "op": rec[OP],
                    "start": rec[START], "end": rec[END], "calls": rec[CALLS], "total_s": rec[TOTAL], "self_s": s,
                }) + "\n")
