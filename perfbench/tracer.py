"""In-memory span recorder for the traced benchmark run.

``Tracer.install`` wraps every public function of the given modules and
every public method of the classes they define.  Modules bind helpers with
``from .matfun import operator_norm``, so after wrapping, every module-level
name (and every value of a module-level dict, such as
``scenarios.TRIAL_RUNNERS``) that still refers to an original function is
rebound to its wrapper.  ``scipy.linalg.schur`` is wrapped too, so Schur
fallbacks show up as child spans of the matfun kernel that made them.

A span is (name, start, end, parent); spans stay in memory and are
aggregated by ``layer_metrics`` after the traced phase ends.
"""

from __future__ import annotations

import functools
import inspect
import time
from collections import defaultdict

SCHUR = "scipy.linalg.schur"


class Tracer:
    def __init__(self):
        self.names = []
        self.start = []
        self.end = []
        self.parent = []
        self._stack = [-1]

    def wrap(self, fn, name):
        names, start, end, parent, stack = (self.names, self.start, self.end,
                                            self.parent, self._stack)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(names)
            names.append(name)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(i)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[i] = clock()
                stack.pop()

        return traced

    def install(self, modules):
        """Wrap the public surface of ``modules`` and rebind every import
        site.  Call once; the wrappers stay for the life of the process."""
        wrappers = {}
        for mod in modules:
            short = mod.__name__.rsplit(".", 1)[-1]
            for name, obj in list(vars(mod).items()):
                if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrappers[obj] = self.wrap(obj, f"{short}.{name}")
                elif inspect.isclass(obj):
                    self._wrap_methods(obj, f"{short}.{obj.__name__}")
        for mod in modules:
            for name, obj in list(vars(mod).items()):
                if isinstance(obj, dict):
                    for key, value in list(obj.items()):
                        if _hashable(value) and value in wrappers:
                            obj[key] = wrappers[value]
                elif _hashable(obj) and obj in wrappers:
                    setattr(mod, name, wrappers[obj])
        import scipy.linalg
        scipy.linalg.schur = self.wrap(scipy.linalg.schur, SCHUR)

    def _wrap_methods(self, cls, prefix):
        for name, attr in list(vars(cls).items()):
            if name.startswith("_"):
                continue
            if isinstance(attr, staticmethod):
                setattr(cls, name, staticmethod(self.wrap(attr.__func__,
                                                          f"{prefix}.{name}")))
            elif isinstance(attr, classmethod):
                setattr(cls, name, classmethod(self.wrap(attr.__func__,
                                                         f"{prefix}.{name}")))
            elif inspect.isfunction(attr):
                setattr(cls, name, self.wrap(attr, f"{prefix}.{name}"))

    def spans(self):
        """Per-span (name, duration, self time, parent index)."""
        dur = [e - s for s, e in zip(self.start, self.end)]
        child = [0.0] * len(dur)
        for i, p in enumerate(self.parent):
            if p >= 0:
                child[p] += dur[i]
        return [(self.names[i], dur[i], dur[i] - child[i], self.parent[i])
                for i in range(len(dur))]


def _hashable(obj):
    try:
        hash(obj)
    except TypeError:
        return False
    return True


def group_totals(spans, members):
    """calls, inclusive seconds and self seconds of the spans named in
    ``members``.  A span nested inside another member span is counted in
    self time only, so recursion and helper-calls-helper are not counted
    twice."""
    calls, incl, self_s = 0, 0.0, 0.0
    for name, dur, own, parent in spans:
        if name not in members:
            continue
        self_s += own
        p = parent
        while p >= 0 and spans[p][0] not in members:
            p = spans[p][3]
        if p < 0:
            calls += 1
            incl += dur
    return calls, incl, self_s


def children_named(spans, child, parent_prefix):
    """Count spans named ``child`` whose parent span name starts with
    ``parent_prefix``."""
    return sum(1 for name, _, _, p in spans
               if name == child and p >= 0 and spans[p][0].startswith(parent_prefix))


def summary(spans):
    """calls, inclusive and self seconds for every span name."""
    out = defaultdict(lambda: [0, 0.0, 0.0])
    for name, dur, own, _ in spans:
        row = out[name]
        row[0] += 1
        row[1] += dur
        row[2] += own
    return dict(out)
