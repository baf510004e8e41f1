"""In-memory span tracer that instruments haarforge from the outside.

The tracer rebinds each public function of the package to a recording
wrapper.  Every alias is rebound: the module attribute, each
``from ... import`` copy held by another haarforge module, and the methods
of ``RandomStream`` (rebound on the class, so every instance sees them).
``restore`` puts every original object back and ``restored`` checks that
each rebound name ``is`` its original again.

A span is ``[name, start_ns, end_ns, parent, op, work]``: ``name`` indexes
``Tracer.names``, ``parent`` is the index of the enclosing span (-1 at top
level), ``op`` is the benchmark op that was running, and ``work`` is what
the function's work extractor (``layers.WORK``) made of its arguments and
result.  Hot per-node functions get call counters instead of spans, keyed
by the innermost open span, so the traced run stays close to the timed one.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import time
from collections import Counter


class Tracer:
    def __init__(self, modules, class_methods, counted, work):
        """``modules``: the haarforge modules whose public functions get spans;
        ``class_methods``: {class: [method names]} to wrap on the class;
        ``counted``: qualified names ("linalg.determinant") that get counters;
        ``work``: {qualified name: fn(args, kwargs, result)} extractors."""
        self.modules = list(modules)
        self.class_methods = class_methods
        self.counted = set(counted)
        self.work = work
        self.names: list[str] = []
        self.spans: list[list] = []
        self.counts: Counter = Counter()  # (name, innermost span name) -> calls
        self.op = None
        self.recording = True
        self._stack: list[int] = []
        self._rebound: list[tuple] = []  # (owner, attribute, original)

    # -- instrumentation --------------------------------------------------

    def _name_index(self, name: str) -> int:
        self.names.append(name)
        return len(self.names) - 1

    def _span_wrapper(self, qual: str, fn):
        idx = self._name_index(qual)
        work = self.work.get(qual)
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.recording:
                return fn(*args, **kwargs)
            rec = [idx, 0, 0, stack[-1] if stack else -1, self.op, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if work is not None:
                rec[5] = work(args, kwargs, result)
            return result

        return wrapper

    def _count_wrapper(self, qual: str, fn):
        counts, stack, spans = self.counts, self._stack, self.spans

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.recording:
                counts[(qual, self.names[spans[stack[-1]][0]] if stack else None)] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self) -> None:
        wrappers = {}  # id(original) -> (original, wrapper)
        for mod in self.modules:
            short = mod.__name__.rpartition(".")[2]
            for name, obj in vars(mod).items():
                if (name.startswith("_") or not inspect.isfunction(obj)
                        or obj.__module__ != mod.__name__):
                    continue
                qual = f"{short}.{name}"
                make = self._count_wrapper if qual in self.counted else self._span_wrapper
                wrappers[id(obj)] = (obj, make(qual, obj))
        for mod in self.modules:
            for name, obj in list(vars(mod).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._rebound.append((mod, name, obj))
                    setattr(mod, name, hit[1])
        for cls, methods in self.class_methods.items():
            short = cls.__module__.rpartition(".")[2]
            for name in methods:
                obj = cls.__dict__[name]
                self._rebound.append((cls, name, obj))
                setattr(cls, name, self._span_wrapper(f"{short}.{cls.__name__}.{name}", obj))

    def restore(self) -> None:
        for owner, name, obj in reversed(self._rebound):
            setattr(owner, name, obj)

    def restored(self) -> bool:
        """True when every rebound name holds its original object again."""
        return all(
            (owner.__dict__[name] if inspect.isclass(owner) else getattr(owner, name)) is obj
            for owner, name, obj in self._rebound)

    @property
    def rebound(self):
        return list(self._rebound)

    @contextlib.contextmanager
    def paused(self):
        """Calls made inside (the benchmark's own output checks) are not recorded."""
        self.recording = False
        try:
            yield
        finally:
            self.recording = True

    # -- analysis ------------------------------------------------------------

    def self_times_ns(self) -> list[int]:
        """Span duration minus the time its direct children cover."""
        child = [0] * len(self.spans)
        for rec in self.spans:
            if rec[3] >= 0:
                child[rec[3]] += rec[2] - rec[1]
        return [rec[2] - rec[1] - c for rec, c in zip(self.spans, child)]

    def dump(self) -> dict:
        return {"names": self.names,
                "fields": ["name", "start_ns", "end_ns", "parent", "op", "work"],
                "spans": self.spans,
                "counters": [[k[0], k[1], v] for k, v in sorted(
                    self.counts.items(), key=lambda kv: (kv[0][0], str(kv[0][1])))]}
