"""In-memory span tracing of relufreq's public functions, installed from outside.

A Tracer replaces each traced function at every module attribute that holds
it, so a caller that looks the name up at call time (``trainer.forward``
inside ``trainer.train``, ``cli.emit_csv`` inside a subcommand) runs the
wrapper. Each call records one span: name, start, end, parent span and the
invocation it belongs to. Spans stay in memory; totals are computed after
the traced work has finished.
"""

from __future__ import annotations

import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Callable, Dict, Iterable, List, Optional, Sequence


class Span:
    __slots__ = ("name", "start", "end", "parent", "request", "detail")

    def __init__(self, name, start, parent, request, detail=None):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.request = request
        self.detail = detail


class Tracer:
    """Records nested spans around wrapped callables.

    ``details`` maps a span name to a function of the call's arguments whose
    result is stored on the span (for example the batch size a forward pass
    ran on), so counts derived from arguments are taken where the work
    happens but computed after timing ends.
    """

    def __init__(self, details: Optional[Dict[str, Callable]] = None):
        self.spans: List[Span] = []
        self.request = 0
        self._stack: List[int] = []
        self._details = details or {}

    def wrap(self, name: str, fn: Callable) -> Callable:
        spans, stack = self.spans, self._stack
        detail_of = self._details.get(name)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            detail = detail_of(*args, **kwargs) if detail_of is not None else None
            span = Span(name, clock(), stack[-1] if stack else -1, self.request, detail)
            stack.append(len(spans))
            spans.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                span.end = clock()
                stack.pop()

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def installed(self, targets: Dict[str, Callable], modules: Sequence[object]):
        """Wrap every attribute of ``modules`` that is one of ``targets``.

        ``targets`` maps span names to the original functions. Attributes are
        restored on exit, so untraced work in the same process runs unwrapped.
        """
        wrappers = {id(fn): self.wrap(name, fn) for name, fn in targets.items()}
        patched = []
        for module in modules:
            for attr, value in list(vars(module).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    patched.append((module, attr, value))
                    setattr(module, attr, wrapper)
        try:
            yield self
        finally:
            for module, attr, value in patched:
                setattr(module, attr, value)


def covered(intervals: Iterable[tuple]) -> float:
    """Length of the union of (start, end) intervals."""
    total = 0.0
    reach = float("-inf")
    for start, end in sorted(intervals):
        if end <= reach:
            continue
        total += end - max(start, reach)
        reach = end
    return total


def self_times(spans: Sequence[Span]) -> List[float]:
    """Each span's duration minus the part of it its child spans cover."""
    children: Dict[int, List[tuple]] = defaultdict(list)
    for span in spans:
        if span.parent >= 0:
            children[span.parent].append((span.start, span.end))
    out = []
    for i, span in enumerate(spans):
        inside = [
            (max(s, span.start), min(e, span.end))
            for s, e in children.get(i, ())
            if e > span.start and s < span.end
        ]
        out.append((span.end - span.start) - covered(inside))
    return out


def totals(spans: Sequence[Span]) -> Dict[str, Dict[str, float]]:
    """Per span name: call count, inclusive seconds and self seconds."""
    out: Dict[str, Dict[str, float]] = defaultdict(
        lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0}
    )
    for span, own in zip(spans, self_times(spans)):
        row = out[span.name]
        row["calls"] += 1
        row["total_s"] += span.end - span.start
        row["self_s"] += own
    return dict(out)
