"""In-memory span recorder for the traced benchmark run.

The tracer wraps public functions of the ``endflow`` package from the
outside: while it is installed, every binding of a wrapped function in
an ``endflow`` module (the defining module and every module that
imported it by name) is replaced by a wrapper that records a span
``[name, start, end, parent]``.  Nothing under ``src/`` is edited.

Spans of one operation are kept in memory and folded into per-name
totals when the operation ends, so memory stays bounded on long runs:

* ``calls``  - number of spans with the name;
* ``total``  - wall time of the outermost spans with the name (nested
  spans of the same name are not counted twice);
* ``self``   - span time minus the time of its direct child spans.

A target that no longer exists (a renamed or deleted internal) is
recorded as a note and reads as zero calls, so the traced run survives
refactors that remove the code it used to time.
"""

from __future__ import annotations

import functools
import importlib
import sys
from time import perf_counter


class Tracer:
    def __init__(self, cli_library=()):
        self.active = False
        self.notes = []
        self.calls = {}
        self.total = {}
        self.self_time = {}
        self.counts = {}
        # time of the calls named in ``cli_library`` made directly under a
        # "cli.*" span; the rest of the CLI span is its own overhead
        self.cli_library_s = 0.0
        self._lib_names = frozenset(cli_library)
        self._spans = []
        self._stack = []
        self._open = {}
        self._bindings = []

    # -- recording -----------------------------------------------------------

    def enter(self, name: str) -> int:
        idx = len(self._spans)
        parent = self._stack[-1] if self._stack else -1
        depth = self._open.get(name, 0)
        self._open[name] = depth + 1
        self._spans.append([name, perf_counter(), 0.0, parent, depth == 0])
        self._stack.append(idx)
        return idx

    def exit(self, idx: int):
        span = self._spans[idx]
        span[2] = perf_counter()
        self._stack.pop()
        self._open[span[0]] -= 1

    def count(self, name: str, amount: int):
        self.counts[name] = self.counts.get(name, 0) + amount

    def end_operation(self):
        """Fold the finished operation's spans into the totals."""
        spans = self._spans
        child = [0.0] * len(spans)
        for (name, start, end, parent, outermost) in spans:
            if parent >= 0:
                child[parent] += end - start
        lib = self._lib_names
        for i, (name, start, end, parent, outermost) in enumerate(spans):
            dur = end - start
            self.calls[name] = self.calls.get(name, 0) + 1
            self.self_time[name] = self.self_time.get(name, 0.0) + dur - child[i]
            if outermost:
                self.total[name] = self.total.get(name, 0.0) + dur
            if name in lib:
                self._attribute_library(spans, parent, dur)
        self._spans = []
        self._stack = []
        self._open = {}

    def _attribute_library(self, spans, parent, dur):
        # the library call counts only when no other library span sits
        # between it and the enclosing CLI span
        p = parent
        while p >= 0:
            pname = spans[p][0]
            if pname in self._lib_names:
                return
            if pname.startswith("cli."):
                self.cli_library_s += dur
                return
            p = spans[p][3]

    def span(self, name: str):
        return _Span(self, name)

    # -- wrapping ------------------------------------------------------------

    def wrap(self, name: str, module: str, attr: str, after=None):
        """Prepare a wrapper for ``module.attr`` (``attr`` may be
        ``Class.method``) under the span ``name``; ``after(tracer, args,
        kwargs, result)`` runs once the call returns, outside the span."""
        target = _resolve(module, attr)
        if target is None:
            self.notes.append(f"{module}.{attr} not found; {name} reads 0 calls")
            return
        owner, key, orig = target
        wrapper = self._wrapper(name, orig, after)
        if isinstance(owner, type):
            self._bindings.append((owner, key, orig, wrapper))
            return
        for mod in _endflow_modules():
            for k, v in list(vars(mod).items()):
                if v is orig:
                    self._bindings.append((mod, k, orig, wrapper))

    def wrap_cached_properties(self, name: str, module: str, cls_name: str):
        """Prepare wrappers for the compute function of every
        ``cached_property`` of a class (the lazily derived structure of
        its instances)."""
        cls = _resolve(module, cls_name)
        if cls is None:
            self.notes.append(f"{module}.{cls_name} not found; {name} reads 0")
            return
        props = [
            p for p in vars(cls[2]).values()
            if isinstance(p, functools.cached_property)
        ]
        if not props:
            self.notes.append(f"{module}.{cls_name} has no cached properties")
        for prop in props:
            wrapper = self._wrapper(name, prop.func, None)
            self._bindings.append((prop, "func", prop.func, wrapper))

    def install(self):
        """Put the prepared wrappers in place (cheap: attribute stores)."""
        for owner, key, _, wrapper in self._bindings:
            setattr(owner, key, wrapper)

    def uninstall(self):
        for owner, key, orig, _ in reversed(self._bindings):
            setattr(owner, key, orig)

    def _wrapper(self, name, fn, after):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            idx = tracer.enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.exit(idx)
            if after is not None:
                tracer.active = False
                try:
                    after(tracer, args, kwargs, result)
                except (AttributeError, IndexError, KeyError, TypeError) as e:
                    # a counter that reads a changed signature or result
                    note = f"{name}: counter skipped ({type(e).__name__}: {e})"
                    if note not in tracer.notes:
                        tracer.notes.append(note)
                finally:
                    tracer.active = True
            return result

        return traced


class _Span:
    __slots__ = ("tracer", "name", "idx")

    def __init__(self, tracer, name):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        if self.tracer.active:
            self.idx = self.tracer.enter(self.name)
        else:
            self.idx = None
        return self

    def __exit__(self, *exc):
        if self.idx is not None:
            self.tracer.exit(self.idx)
        return False


def _endflow_modules():
    return [
        m
        for n, m in list(sys.modules.items())
        if m is not None and (n == "endflow" or n.startswith("endflow."))
    ]


def _resolve(module: str, attr: str):
    """(owner, key, object) for ``module.attr``, or None if absent."""
    try:
        owner = importlib.import_module(module)
    except ImportError:
        return None
    parts = attr.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    key = parts[-1]
    if isinstance(owner, type):
        obj = owner.__dict__.get(key)
    else:
        obj = getattr(owner, key, None)
    if obj is None:
        return None
    return owner, key, obj
