"""Benchmark-side spans: recorded around public plant calls, kept in memory.

A :class:`Tracer` records one span per call it wraps: name, start, end,
parent span and the id of the op it ran under.  The workloads open spans
around the public calls they make; :func:`patched` additionally wraps the
module attributes the plant calls through internally
(``max_min_fair_rates``, ``k_shortest_paths``, ``FlatTree.materialize``)
for the duration of the traced pass only, and restores them afterwards.

The timed pass uses :data:`NULL_TRACER`, whose spans do nothing.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from time import perf_counter
from typing import Any, Dict, Iterator, List, Optional


class _NullSpan:
    __slots__ = ()

    def __enter__(self) -> None:
        return None

    def __exit__(self, *exc: object) -> bool:
        return False


_NULL_SPAN = _NullSpan()


class NullTracer:
    """The timed pass's tracer: every span is a shared no-op."""

    def span(self, name: str, **attrs: Any) -> _NullSpan:
        return _NULL_SPAN


NULL_TRACER = NullTracer()


class Span:
    """One recorded call. ``parent`` is an index into ``Tracer.spans``."""

    __slots__ = ("name", "start", "end", "parent", "op", "attrs")

    def __init__(self, name: str, parent: int, op: Optional[int],
                 attrs: Dict[str, Any]) -> None:
        self.name = name
        self.start = self.end = 0.0
        self.parent = parent
        self.op = op
        self.attrs = attrs

    @property
    def dur(self) -> float:
        return self.end - self.start


class _OpenSpan:
    __slots__ = ("tracer", "name", "attrs")

    def __init__(self, tracer: "Tracer", name: str,
                 attrs: Dict[str, Any]) -> None:
        self.tracer = tracer
        self.name = name
        self.attrs = attrs

    def __enter__(self) -> Span:
        tracer = self.tracer
        stack = tracer._stack
        span = Span(self.name, stack[-1] if stack else -1, tracer.op,
                    self.attrs)
        stack.append(len(tracer.spans))
        tracer.spans.append(span)
        span.start = perf_counter()
        return span

    def __exit__(self, *exc: object) -> bool:
        end = perf_counter()
        self.tracer.spans[self.tracer._stack.pop()].end = end
        return False


class Tracer:
    """Collects spans in memory; single-threaded, like the workloads."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._stack: List[int] = []
        #: Op id stamped on every span opened while it is set.
        self.op: Optional[int] = None

    def span(self, name: str, **attrs: Any) -> _OpenSpan:
        return _OpenSpan(self, name, attrs)

    def wrap(self, fn: Any, name: str, active_arg: Optional[int] = None) -> Any:
        """``fn`` with a span around every call.

        ``active_arg`` names a positional argument whose length is
        recorded as the span's ``active`` attribute (the flow count of a
        fair-share call).
        """

        def wrapped(*args: Any, **kwargs: Any) -> Any:
            attrs = {} if active_arg is None else {"active": len(args[active_arg])}
            with _OpenSpan(self, name, attrs):
                return fn(*args, **kwargs)

        wrapped.__wrapped__ = fn  # type: ignore[attr-defined]
        return wrapped

    def self_times(self) -> List[float]:
        """Each span's duration minus the time its child spans cover.

        Children of one span never overlap (one thread, strict nesting),
        so the time they cover is the sum of their durations.
        """
        own = [span.dur for span in self.spans]
        for span in self.spans:
            if span.parent >= 0:
                own[span.parent] -= span.dur
        return own

    def dump(self, path: str) -> None:
        """Write every span as one JSON line (after the pass has ended)."""
        with open(path, "w", encoding="utf-8") as out:
            for index, span in enumerate(self.spans):
                out.write(json.dumps({
                    "id": index, "name": span.name, "start": span.start,
                    "end": span.end, "parent": span.parent, "op": span.op,
                    "attrs": span.attrs}, sort_keys=True) + "\n")


@contextmanager
def patched(tracer: Tracer) -> Iterator[None]:
    """Wrap the attributes the plant calls through, then restore them."""
    import repro.core.controller as controller
    import repro.flowsim.simulator as simulator
    import repro.routing.ksp as ksp
    from repro.core.flattree import FlatTree

    targets = [
        (simulator, "max_min_fair_rates", "flowsim.fairshare", 1),
        (controller, "k_shortest_paths", "routing.ksp", None),
        (ksp, "k_shortest_paths", "routing.ksp", None),
        (FlatTree, "materialize", "core.flattree.materialize", None),
    ]
    saved = [(owner, attr, getattr(owner, attr))
             for owner, attr, _, _ in targets]
    try:
        for (owner, attr, name, active), (_, _, original) in zip(targets, saved):
            setattr(owner, attr, tracer.wrap(original, name, active))
        yield
    finally:
        for owner, attr, original in saved:
            setattr(owner, attr, original)
