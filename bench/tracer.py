"""Span tracing of the spikegraph modules, installed from outside ``src/``.

``Tracer.install`` replaces every public function and method of the traced
modules with a wrapper that records a span (name, start, end, parent), and
rebinds every module attribute that referred to the original, since
modules import names such as ``sn_layer`` and ``record_op`` directly.
``tensor.record_op`` is wrapped so that each backward closure it records
runs inside a span named after the op that recorded it (``<op>.bwd``).
``remove`` restores every original binding.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import Counter

import numpy as np

import checks

TRACED_MODULES = ("data", "encoding", "fusion", "blocks", "neurons", "tensor",
                  "module", "network", "profiler")
STEP = "bench.step"
SPIKE_CHECK = "bench.check_spikes"


class Tracer:
    def __init__(self):
        # span: [name, start, end, parent index]; parents precede children
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.nonbinary: list[str] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- spans ---------------------------------------------------------------

    def open(self, name: str) -> list:
        span = [name, time.perf_counter(), 0.0, self.stack[-1] if self.stack else -1]
        self.stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def close(self, span: list) -> None:
        span[2] = time.perf_counter()
        self.stack.pop()

    def in_step(self) -> bool:
        return bool(self.stack) and self.spans[self.stack[0]][0] == STEP

    def _timed(self, name: str, fn):
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        def wrapper(*args, **kwargs):
            span = [name, clock(), 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
        return wrapper

    # -- special wrappers ----------------------------------------------------

    def _record_op(self, original):
        spans, stack, timed = self.spans, self.stack, self._timed

        def record_op(inputs, outputs, backward):
            owner = spans[stack[-1]][0] if stack else "bench"
            return original(inputs, outputs, timed(owner + ".bwd", backward))
        return record_op

    def _backward(self, original):
        timed = self._timed("tensor.backward", original)
        counts = self.counts

        def backward(loss, tape):
            if self.in_step():
                counts["tensor.tape_records"] += len(tape)
            return timed(loss, tape)
        return backward

    def _sn_layer(self, original):
        timed = self._timed("neurons.sn_layer", original)
        counts = self.counts

        def sn_layer(x, cfg, relaxed=False):
            out = timed(x, cfg, relaxed)
            span = self.open(SPIKE_CHECK)
            data = out.data
            if self.in_step():
                counts["neurons.sn_layer_elements"] += data.size
                counts["neurons.sn_layer_ones"] += int(np.count_nonzero(data == 1.0))
            if not relaxed and not checks.check_spikes_binary(data):
                self.nonbinary.append(f"sn_layer output of shape {data.shape} is not in {{0, 1}}")
            self.close(span)
            return out
        return sn_layer

    # -- patching ------------------------------------------------------------

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        special = {"tensor.record_op": self._record_op, "tensor.backward": self._backward,
                   "neurons.sn_layer": self._sn_layer}
        replaced: dict[int, object] = {}
        for short in TRACED_MODULES:
            mod = sys.modules[f"spikegraph.{short}"]
            for name, obj in list(vars(mod).items()):
                if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    key = f"{short}.{name}"
                    make = special.get(key)
                    replaced[id(obj)] = functools.wraps(obj)(
                        make(obj) if make else self._timed(key, obj))
                elif inspect.isclass(obj):
                    self._patch_class(obj, f"{short}.{name}")
        for modname, mod in list(sys.modules.items()):
            if modname != "spikegraph" and not modname.startswith("spikegraph."):
                continue
            for name, obj in list(vars(mod).items()):
                wrapper = replaced.get(id(obj))
                if wrapper is not None and wrapper.__wrapped__ is obj:
                    self._set(mod, name, obj, wrapper)

    def _patch_class(self, cls, prefix: str) -> None:
        for name, member in list(vars(cls).items()):
            if name.startswith("_"):
                continue
            key = f"{prefix}.{name}"
            if isinstance(member, classmethod):
                wrapped = classmethod(self._timed(key, member.__func__))
            elif isinstance(member, staticmethod):
                wrapped = staticmethod(self._timed(key, member.__func__))
            elif inspect.isfunction(member):
                wrapped = functools.wraps(member)(self._timed(key, member))
            else:
                continue  # properties and class constants
            self._set(cls, name, member, wrapped)

    def _set(self, owner, name: str, original, replacement) -> None:
        self._patches.append((owner, name, original))
        setattr(owner, name, replacement)

    def remove(self) -> None:
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches.clear()

    # -- aggregation ---------------------------------------------------------

    def summarize(self) -> dict:
        """Totals per span name, split into spans under a step and the rest.

        Inclusive totals count only the outermost span of each name, so a
        function that calls itself is not counted twice.  Self time is a
        span's duration minus that of its direct children.
        """
        spans = self.spans
        n = len(spans)
        root = [0] * n
        child_time = [0.0] * n
        for i, (name, start, end, parent) in enumerate(spans):
            root[i] = i if parent < 0 else root[parent]
            if parent >= 0:
                child_time[parent] += end - start
        step_incl: Counter = Counter()
        step_calls: Counter = Counter()
        step_self: Counter = Counter()
        other_incl: Counter = Counter()
        other_calls: Counter = Counter()
        steps = 0
        step_total = 0.0
        for i, (name, start, end, parent) in enumerate(spans):
            dur = end - start
            in_step = spans[root[i]][0] == STEP
            if name == STEP and parent < 0:
                steps += 1
                step_total += dur
            outermost = True
            p = parent
            while p >= 0:
                if spans[p][0] == name:
                    outermost = False
                    break
                p = spans[p][3]
            if in_step:
                step_calls[name] += 1
                step_self[name.split(".")[0]] += dur - child_time[i]
                if outermost:
                    step_incl[name] += dur
            else:
                other_calls[name] += 1
                if outermost:
                    other_incl[name] += dur
        return {"steps": steps, "step_total_s": step_total,
                "step_incl_s": step_incl, "step_calls": step_calls,
                "step_self_s": step_self, "other_incl_s": other_incl,
                "other_calls": other_calls}

    def dump(self, path) -> None:
        import json

        names = sorted({s[0] for s in self.spans})
        index = {name: i for i, name in enumerate(names)}
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start_s", "end_s", "parent"], "names": names,
                       "spans": [[index[s[0]], round(s[1], 7), round(s[2], 7), s[3]]
                                 for s in self.spans]}, fh, separators=(",", ":"))
