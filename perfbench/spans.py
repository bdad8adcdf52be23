"""Outside-in span tracing and the benchmark's statistics.

:class:`SpanRecorder` wraps calls into the program's layers from the
benchmark's side: a wrapper replaces a class attribute, or the module
attribute through which a function is looked up, and records one span
per call with its name, start, end, parent span, thread and root id.
Spans of one call tree (everything under one ``optimize_batch``, say)
share the id of their root span. Spans stay in memory; self times are
computed after the run.
"""

from __future__ import annotations

import functools
import itertools
import math
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Sequence


@dataclass
class Span:
    name: str
    id: int
    parent: int | None
    root: int
    thread: int
    start: float
    end: float = math.nan
    #: Numbers an exit hook read off the call (rows, hits, ...).
    attrs: Dict[str, float] = field(default_factory=dict)


class SpanRecorder:
    """Records a span around every call of the functions it wraps."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.spans: List[Span] = []
        #: While set, wrapped calls run unrecorded (the benchmark's own
        #: checks call into the same layers).
        self.paused = False
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._installed: List[tuple] = []

    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, owner, attr: str, name: str, on_exit=None) -> None:
        """Replace ``owner.attr`` with a recording wrapper.

        ``on_exit(span, args, kwargs, result)`` may add attributes.
        """
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        if isinstance(original, (staticmethod, classmethod)):
            raise TypeError(f"cannot wrap {name}: {type(original).__name__}")
        recorder = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if recorder.paused:
                return original(*args, **kwargs)
            stack = recorder._stack()
            parent = stack[-1] if stack else None
            span_id = next(recorder._ids)
            span = Span(
                name=name,
                id=span_id,
                parent=None if parent is None else parent.id,
                root=span_id if parent is None else parent.root,
                thread=threading.get_ident(),
                start=recorder.clock(),
            )
            stack.append(span)
            try:
                result = original(*args, **kwargs)
            finally:
                span.end = recorder.clock()
                stack.pop()
                recorder.spans.append(span)
            if on_exit is not None:
                on_exit(span, args, kwargs, result)
            return result

        setattr(owner, attr, wrapper)
        self._installed.append((owner, attr, original))

    def uninstall(self) -> None:
        """Restore every wrapped attribute, last wrapped first."""
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)


# ----------------------------------------------------------------------
# Span arithmetic
# ----------------------------------------------------------------------
def covered(start: float, end: float, intervals: Sequence[tuple]) -> float:
    """Length of ``[start, end]`` covered by the union of ``intervals``."""
    total = 0.0
    reach = start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, reach), min(hi, end)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total


def self_times(spans: Sequence[Span]) -> Dict[int, float]:
    """Span id -> its duration minus the part its child spans cover."""
    children: Dict[int, List[tuple]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append((span.start, span.end))
    return {
        span.id: (span.end - span.start)
        - covered(span.start, span.end, children.get(span.id, ()))
        for span in spans
    }


def layer_totals(spans: Sequence[Span]) -> Dict[str, Dict[str, float]]:
    """Per span name: call count, total self time (ms), summed attrs."""
    selfs = self_times(spans)
    out: Dict[str, Dict[str, float]] = {}
    for span in spans:
        row = out.setdefault(span.name, {"calls": 0, "self_ms": 0.0})
        row["calls"] += 1
        row["self_ms"] += selfs[span.id] * 1000.0
        for key, value in span.attrs.items():
            row[key] = row.get(key, 0) + value
    return out


# ----------------------------------------------------------------------
# Statistics
# ----------------------------------------------------------------------
def quantile(samples: Sequence[float], q: float) -> float:
    """Nearest-rank ``q``-quantile (0 < q <= 1) of ``samples``."""
    ordered = sorted(samples)
    if not ordered:
        raise ValueError("no samples")
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1]


def median(samples: Sequence[float]) -> float:
    ordered = sorted(samples)
    if not ordered:
        raise ValueError("no samples")
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2.0


def tail(samples: Sequence[float], percentile: float, beyond: int = 10) -> dict:
    """The percentile rule: report ``percentile`` only when at least
    ``beyond`` samples lie above it; otherwise the median alone.

    Returns ``{"n", "p50", "percentile", "value", "beyond"}`` where
    ``percentile`` is the one reported (50 when the tail is too thin).
    """
    p50 = median(samples)
    value = quantile(samples, percentile / 100.0)
    above = sum(1 for x in samples if x > value)
    if above >= beyond:
        return {"n": len(samples), "p50": p50, "percentile": percentile,
                "value": value, "beyond": above}
    return {"n": len(samples), "p50": p50, "percentile": 50,
            "value": p50, "beyond": sum(1 for x in samples if x > p50)}


def block_rate(done_at: Sequence[tuple], blocks: int = 15) -> float:
    """Median, over ``blocks`` consecutive runs of completions, of
    operations completed per second of measured time.

    ``done_at`` holds ``(time, operations)`` pairs in measured time from
    0. Each block spans from the last completion of the block before
    (0 for the first) to its own last completion, so the blocks tile
    the run; a transient stall moves one block's rate, not the median.
    """
    done = sorted(done_at)
    blocks = max(1, min(blocks, len(done)))
    rates = []
    start = 0.0
    for k in range(blocks):
        part = done[k * len(done) // blocks:(k + 1) * len(done) // blocks]
        end = part[-1][0]
        rates.append(sum(n for _, n in part) / (end - start))
        start = end
    return median(rates)
