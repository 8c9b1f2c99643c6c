"""Spans around the public functions of the hpqkd modules, recorded from outside.

A traced function is replaced, in every loaded ``hpqkd`` module that refers
to it, by a wrapper that records one span: ``[name, start, end, parent,
tag]``.  ``parent`` is the index of the enclosing span (-1 for a root) and
``tag`` is an optional dict a hook may fill in.  Nothing inside the package
is edited; a function reached through a private table (``protocol._RUNNERS``
holds the four mode runners) is covered by the span of its caller.

Spans stay in memory until the traced process ends.  The process is single
threaded, so a child span always nests inside its parent and a span's self
time is its duration minus the durations of its direct children.
"""
from __future__ import annotations

import functools
import inspect
import sys
import time

#: Modules whose public functions the full trace wraps.
TRACED_MODULES = ("scenario", "keystream", "optics", "protocol", "attacks", "reporting", "cli")

NAME, START, END, PARENT, TAG = range(5)


def public_functions(module) -> list[str]:
    """Names of the functions a module defines and does not mark private."""
    return [
        name
        for name, obj in vars(module).items()
        if inspect.isfunction(obj) and obj.__module__ == module.__name__ and not name.startswith("_")
    ]


class Tracer:
    """Span store plus the counters that hooks add to."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, float] = {}
        self._stack: list[int] = []

    def reset(self) -> None:
        """Forget every span and count; installed wrappers keep recording."""
        self.spans.clear()
        self.counts.clear()
        self._stack.clear()

    def add(self, counter: str, amount) -> None:
        self.counts[counter] = self.counts.get(counter, 0) + amount

    def wrap(self, name: str, fn, hook=None):
        """Wrap ``fn`` so each call records a span named ``name``.

        ``hook(tracer, span, bound_arguments, result)`` runs after the span has
        closed, so its own cost is charged to the caller's span.  A call that
        raises still closes its span.
        """
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        signature = inspect.signature(fn) if hook else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            span[START] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = clock()
                stack.pop()
            if hook is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                hook(self, span, bound.arguments, result)
            return result

        return traced

    def install(self, targets: dict) -> None:
        """Wrap each ``"module.function"`` in ``targets`` (value: hook or None)."""
        for qualname, hook in targets.items():
            replace(qualname, lambda fn, name=qualname, hook=hook: self.wrap(name, fn, hook))


def replace(qualname: str, make_wrapper) -> None:
    """Replace ``hpqkd.<qualname>`` by ``make_wrapper(current function)``.

    Every reference held by a loaded ``hpqkd`` module is replaced, so
    ``from .x import f`` bindings are wrapped as well as ``x.f`` lookups.
    """
    modules = [m for n, m in list(sys.modules.items()) if n == "hpqkd" or n.startswith("hpqkd.")]
    module_name, func_name = qualname.split(".", 1)
    original = getattr(sys.modules[f"hpqkd.{module_name}"], func_name)
    wrapper = make_wrapper(original)
    for module in modules:
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, wrapper)


def durations(spans) -> list[float]:
    return [span[END] - span[START] for span in spans]


def self_times(spans) -> list[float]:
    """Duration of each span minus the durations of its direct children."""
    own = durations(spans)
    out = list(own)
    for span, duration in zip(spans, own):
        if span[PARENT] >= 0:
            out[span[PARENT]] -= duration
    return out


def aggregate(spans) -> dict[str, dict]:
    """Per span name: call count, busy (inclusive) seconds and self seconds."""
    table: dict[str, dict] = {}
    for span, duration, own in zip(spans, durations(spans), self_times(spans)):
        row = table.setdefault(span[NAME], {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["busy_s"] += duration
        row["self_s"] += own
    return table


def nearest_ancestor(spans, index: int, name: str) -> int:
    """Index of the closest enclosing span called ``name``, or -1."""
    parent = spans[index][PARENT]
    while parent >= 0 and spans[parent][NAME] != name:
        parent = spans[parent][PARENT]
    return parent
