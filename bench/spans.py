"""Span recording around kimdiff's public functions, installed from outside.

The tracer rebinds every public function of the layer modules to a wrapper
that records one span per call: name, start, end, parent span and workload
call id.  Names that other kimdiff modules bound with ``from ... import`` are
rebound too, because those calls never look the module attribute up again.
Spans stay in memory; the runner writes them out when the run ends.

Observers are optional callbacks keyed by span name.  They receive the call's
fact dict, the bound arguments and the result, and record counts or values
that only the call itself can see (mode counts, bytes read, solver steps).
Counters wrap a kernel bound in a layer module without opening a span, so
the layer's self time still includes the kernel.
"""

import functools
import inspect
import sys
import time

PACKAGE = "kimdiff"
LAYERS = ("scenario", "fixation", "spectral", "evolution", "fd")


class Tracer:
    def __init__(self, observers, counters):
        self.observers = observers
        self.counters = counters
        self.spans = []  # [name, start_ns, end_ns, parent index, call id]
        self.facts = {}  # call id -> {fact name: value}
        self.stack = []
        self.call_id = None
        self._bindings = []  # (namespace owner, attribute, original)

    def _wrap_span(self, name, fn):
        observe = self.observers.get(name)
        signature = inspect.signature(fn) if observe else None
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            record = [name, time.perf_counter_ns(), 0, stack[-1] if stack else -1,
                      self.call_id]
            spans.append(record)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = time.perf_counter_ns()
                stack.pop()
            if observe:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                observe(self.facts.setdefault(self.call_id, {}), bound.arguments, result)
            return result

        return wrapper

    def _wrap_counter(self, fn, observe):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            observe(self.facts.setdefault(self.call_id, {}), args, kwargs)
            return fn(*args, **kwargs)

        return wrapper

    def install(self):
        replaced = {}
        for layer in LAYERS:
            module = sys.modules[f"{PACKAGE}.{layer}"]
            for attr, obj in list(vars(module).items()):
                if (attr.startswith("_") or not inspect.isfunction(obj)
                        or obj.__module__ != module.__name__):
                    continue
                replaced[id(obj)] = (obj, self._wrap_span(f"{layer}.{attr}", obj))
        for qualified, observe in self.counters.items():
            layer, attr = qualified.split(".")
            module = sys.modules[f"{PACKAGE}.{layer}"]
            obj = getattr(module, attr, None)
            if obj is not None:
                self._bindings.append((module, attr, obj))
                setattr(module, attr, self._wrap_counter(obj, observe))
        # rebind the module attributes and every from-import alias of them
        for name, module in list(sys.modules.items()):
            if module is None or not (name == PACKAGE or name.startswith(PACKAGE + ".")):
                continue
            for attr, obj in list(vars(module).items()):
                hit = replaced.get(id(obj))
                if hit is not None:
                    self._bindings.append((module, attr, obj))
                    setattr(module, attr, hit[1])

    def uninstall(self):
        for module, attr, original in reversed(self._bindings):
            setattr(module, attr, original)
        self._bindings.clear()

    def on_warning(self, message, category, filename, lineno, file=None, line=None):
        """warnings.showwarning replacement: count per layer of the innermost span."""
        layer = self.spans[self.stack[-1]][0].split(".")[0] if self.stack else "other"
        facts = self.facts.setdefault(self.call_id, {})
        facts[f"{layer}.warnings"] = facts.get(f"{layer}.warnings", 0) + 1

    def call_spans(self, call_id):
        """Spans of one workload call with their self time in ns.

        Self time is the span's duration minus the time its direct children
        cover; one caller runs the calls sequentially, so children never
        overlap and their durations add up."""
        picked = [i for i, s in enumerate(self.spans) if s[4] == call_id]
        child_ns = {}
        for i in picked:
            parent = self.spans[i][3]
            if parent >= 0:
                child_ns[parent] = child_ns.get(parent, 0) + self.spans[i][2] - self.spans[i][1]
        return [
            (self.spans[i][0], self.spans[i][2] - self.spans[i][1],
             self.spans[i][2] - self.spans[i][1] - child_ns.get(i, 0))
            for i in picked
        ]
