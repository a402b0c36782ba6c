"""In-memory spans around carpetquant functions, recorded from outside the package.

carpetquant's callers look their collaborators up through module globals, so a
traced run can replace those attributes with timing wrappers and put the
originals back afterwards without editing the package.  Spans are kept in a
list and summarised once the run ends.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int | None = None
    attrs: dict[str, Any] = field(default_factory=dict)


class Tracer:
    """Nested spans plus named counters, all in memory."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: dict[str, float] = {}
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str, **attrs: Any) -> Iterator[Span]:
        parent = self._open[-1] if self._open else None
        sp = Span(name=name, start=time.perf_counter(), parent=parent, attrs=attrs)
        self.spans.append(sp)
        self._open.append(len(self.spans) - 1)
        try:
            yield sp
        finally:
            sp.end = time.perf_counter()
            self._open.pop()

    def count(self, name: str, amount: float = 1.0) -> None:
        self.counts[name] = self.counts.get(name, 0.0) + amount


def _covered(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of intervals."""
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: list[Span]) -> list[float]:
    """Per span: its duration minus the part of it that its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for sp in spans:
        if sp.parent is not None:
            parent = spans[sp.parent]
            lo, hi = max(sp.start, parent.start), min(sp.end, parent.end)
            if hi > lo:
                children.setdefault(sp.parent, []).append((lo, hi))
    return [
        (sp.end - sp.start) - _covered(children.get(i, [])) for i, sp in enumerate(spans)
    ]


Hook = Callable[[Tracer, Span, tuple, dict, Any], None]


def wrap(tracer: Tracer, fn: Callable, name: str, hook: Hook | None = None) -> Callable:
    """A stand-in for fn that records one span per call.

    hook(tracer, span, args, kwargs, result) runs after the span closes, so
    work it does (counting, probing) is not charged to the span.
    """

    def traced(*args, **kwargs):
        with tracer.span(name) as sp:
            result = fn(*args, **kwargs)
        if hook is not None:
            hook(tracer, sp, args, kwargs, result)
        return result

    return traced


@contextmanager
def patched(replacements: list[tuple[Any, str, Callable]]) -> Iterator[list[str]]:
    """Set module attributes for the duration of the block, then restore them.

    Each replacement is (module, attribute, factory); factory(original)
    returns the stand-in.  Attributes the module does not have are skipped
    and their dotted names yielded, so a renamed function shows up as
    untraced instead of failing the run.
    """
    saved: list[tuple[Any, str, Any]] = []
    missing: list[str] = []
    try:
        for module, attr, factory in replacements:
            if not hasattr(module, attr):
                missing.append(f"{module.__name__}.{attr}")
                continue
            original = getattr(module, attr)
            saved.append((module, attr, original))
            setattr(module, attr, factory(original))
        yield missing
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)
