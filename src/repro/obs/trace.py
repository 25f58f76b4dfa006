"""Spans and tracers (the timing half of :mod:`repro.obs`).

A :class:`Span` is one timed region — monotonic start, duration, parent
id, free-form attributes, and point-in-time events (the supervisor records
retries and fallbacks as events on the enclosing step-2 span).  A
:class:`Tracer` allocates span ids and buffers finished spans for export.

Concurrency model
-----------------
* **Threads** — the *current span* lives in a :mod:`contextvars` context
  variable, so concurrently running threads (and tasks) each see their own
  ancestry; the span buffer itself is appended under a lock.
* **Processes** — ``fork`` gives every pool worker a copy-on-write snapshot
  of the parent's tracer which the parent can never see again, so workers
  never record into it: the executor passes an *enable* flag through the
  pool initializer, each worker task builds a fresh per-process
  :class:`Tracer`, and its exported spans ride home in the task's result
  tuple, where :meth:`Tracer.adopt` reparents them under the parent's
  shard span (worker ids are remapped into the parent's id space and the
  worker timeline is rebased — ``perf_counter`` origins differ between
  processes).

Everything is a no-op while no tracer is active: :func:`span` costs one
module-attribute check, which keeps the instrumented hot paths within the
"near-zero overhead when disabled" budget.

:data:`clock` is the blessed monotonic clock; instrumented modules (see
repro-check rule RC105) must route timing through it — or through
:class:`Timer`/:func:`span` — instead of calling ``time.perf_counter``
directly, so there is exactly one place the project's notion of time is
defined.
"""

from __future__ import annotations

import contextvars
import threading
import time
from collections.abc import Callable, Iterator, Sequence
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import wraps
from typing import Any, TypeVar

__all__ = [
    "Span",
    "Timer",
    "Tracer",
    "activate",
    "active",
    "add_event",
    "clock",
    "current_span_id",
    "span",
    "traced",
]

#: The project's monotonic clock.  One assignment, many call sites: RC105
#: forbids instrumented modules from calling ``time.perf_counter`` behind
#: the observability layer's back.
clock = time.perf_counter

#: A serialized span as it crosses process boundaries (JSON-able).
SpanDict = dict[str, Any]

_F = TypeVar("_F", bound=Callable[..., Any])


@dataclass
class Span:
    """One timed region of a run.

    ``start`` is a :data:`clock` reading (process-local monotonic seconds);
    ``duration`` is ``None`` while the span is open.  ``events`` are
    point-in-time annotations holding their offset from the span start, so
    they survive cross-process rebasing unchanged.
    """

    name: str
    span_id: int
    parent_id: int | None
    start: float
    duration: float | None = None
    attributes: dict[str, Any] = field(default_factory=dict)
    events: list[dict[str, Any]] = field(default_factory=list)

    def set_attrs(self, **attrs: Any) -> None:
        """Attach or overwrite attributes."""
        self.attributes.update(attrs)

    def add_event(self, name: str, **attrs: Any) -> None:
        """Record a point-in-time event at the current clock reading."""
        event: dict[str, Any] = {"name": name, "offset": clock() - self.start}
        event.update(attrs)
        self.events.append(event)

    def end(self, at: float | None = None) -> None:
        """Close the span (idempotent; the first close wins)."""
        if self.duration is None:
            self.duration = (clock() if at is None else at) - self.start

    def to_dict(self) -> SpanDict:
        """JSON-able representation (the run report's ``spans`` rows)."""
        return {
            "name": self.name,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "start": self.start,
            "duration": self.duration,
            "attributes": dict(self.attributes),
            "events": [dict(e) for e in self.events],
        }

    @classmethod
    def from_dict(cls, data: SpanDict) -> Span:
        """Inverse of :meth:`to_dict`."""
        return cls(
            name=data["name"],
            span_id=int(data["span_id"]),
            parent_id=None if data.get("parent_id") is None else int(data["parent_id"]),
            start=float(data["start"]),
            duration=None if data.get("duration") is None else float(data["duration"]),
            attributes=dict(data.get("attributes", {})),
            events=[dict(e) for e in data.get("events", ())],
        )


class Tracer:
    """Allocates span ids and buffers spans for export."""

    def __init__(self, meta: dict[str, Any] | None = None) -> None:
        self.meta: dict[str, Any] = dict(meta or {})
        self._spans: list[Span] = []
        self._next_id = 1
        self._lock = threading.Lock()

    def __len__(self) -> int:
        with self._lock:
            return len(self._spans)

    def _alloc_id(self) -> int:
        span_id = self._next_id
        self._next_id += 1
        return span_id

    def start_span(
        self, name: str, parent_id: int | None = None, **attrs: Any
    ) -> Span:
        """Open a span; parent defaults to the context's current span."""
        if parent_id is None:
            parent_id = current_span_id()
        with self._lock:
            created = Span(
                name=name,
                span_id=self._alloc_id(),
                parent_id=parent_id,
                start=clock(),
                attributes=dict(attrs),
            )
            self._spans.append(created)
        return created

    def record(
        self,
        name: str,
        duration: float,
        parent_id: int | None = None,
        start: float | None = None,
        **attrs: Any,
    ) -> Span:
        """Record a region that already finished (e.g. a shard's remote wall).

        When *start* is omitted the span is backdated so it *ends* now —
        the executor's merge loop records each shard's span this way.
        """
        if parent_id is None:
            parent_id = current_span_id()
        begin = clock() - duration if start is None else start
        with self._lock:
            created = Span(
                name=name,
                span_id=self._alloc_id(),
                parent_id=parent_id,
                start=begin,
                duration=duration,
                attributes=dict(attrs),
            )
            self._spans.append(created)
        return created

    def adopt(
        self,
        spans: Sequence[SpanDict],
        parent_id: int | None,
        rebase: tuple[float, float] | None = None,
    ) -> list[Span]:
        """Graft spans exported by another process under *parent_id*.

        Ids are remapped into this tracer's id space; internal parent links
        are preserved and foreign roots reparent to *parent_id*.  *rebase*
        shifts the foreign timeline: a foreign ``start`` of ``rebase[0]``
        lands at local time ``rebase[1]`` (monotonic clocks have
        per-process origins, so raw foreign starts are meaningless here).
        Spans must arrive parent-before-child, which :meth:`export`
        guarantees (spans are buffered in creation order).
        """
        idmap: dict[int, int] = {}
        adopted: list[Span] = []
        with self._lock:
            for data in spans:
                copied = Span.from_dict(data)
                # Resolve the parent link before registering this span's own
                # id: a stale foreign parent equal to the span's own id (a
                # fork-inherited context var, say) must reparent to
                # *parent_id*, not to the span itself.
                copied.parent_id = (
                    idmap.get(copied.parent_id, parent_id)
                    if copied.parent_id is not None
                    else parent_id
                )
                idmap[copied.span_id] = copied.span_id = self._alloc_id()
                if rebase is not None:
                    copied.start = copied.start - rebase[0] + rebase[1]
                self._spans.append(copied)
                adopted.append(copied)
        return adopted

    @property
    def spans(self) -> list[Span]:
        """The buffered spans, in creation (= parent-before-child) order."""
        with self._lock:
            return list(self._spans)

    def export(self) -> list[SpanDict]:
        """Serialize every buffered span (open spans export as open)."""
        with self._lock:
            return [s.to_dict() for s in self._spans]


#: The tracer of the run in flight, or None.  Module state on purpose —
#: instrumentation spans pipeline, executor, supervisor and the hardware
#: models without threading a tracer through every signature (the same
#: pattern as :mod:`repro.core.determinism`).  Parent-process only:
#: workers get a fresh tracer per task, never this one.
_ACTIVE: Tracer | None = None

#: Current span id of the executing context (thread/task local).
_CURRENT: contextvars.ContextVar[int | None] = contextvars.ContextVar(
    "repro_obs_current_span", default=None
)


def active() -> Tracer | None:
    """The currently active tracer, if any."""
    return _ACTIVE


@contextmanager
def activate(tracer: Tracer | None) -> Iterator[Tracer | None]:
    """Make *tracer* current for the dynamic extent.

    Unlike the detsan recorder, ``activate(None)`` *deactivates* tracing
    for the extent — pool workers use this to shed the fork-inherited
    parent tracer before deciding locally whether to trace.
    """
    global _ACTIVE
    previous = _ACTIVE
    _ACTIVE = tracer
    try:
        yield tracer
    finally:
        _ACTIVE = previous


def reset() -> None:
    """Drop the ambient tracer and current-span context unconditionally.

    Pool initializers call this: under ``fork`` a worker inherits a
    copy-on-write snapshot of the parent's active tracer, and anything
    recorded into that copy is silently unreachable from the parent.  The
    current-span context var is cleared too — the inherited id belongs to
    the parent's id space and would otherwise leak into the worker's first
    span as a meaningless (or worse, colliding) parent link.
    """
    global _ACTIVE
    _ACTIVE = None
    _CURRENT.set(None)


def current_span_id() -> int | None:
    """Span id of the innermost open :func:`span`, or None."""
    return _CURRENT.get()


@contextmanager
def span(name: str, **attrs: Any) -> Iterator[Span | None]:
    """Open a child span of the current context; no-op when not tracing.

    Yields the :class:`Span` (or ``None`` when tracing is off, so callers
    can guard optional attribute updates with ``if sp is not None``).
    """
    tracer = _ACTIVE
    if tracer is None:
        yield None
        return
    opened = tracer.start_span(name, **attrs)
    token = _CURRENT.set(opened.span_id)
    try:
        yield opened
    finally:
        _CURRENT.reset(token)
        opened.end()


def add_event(name: str, **attrs: Any) -> None:
    """Attach an event to the innermost open span; no-op when not tracing."""
    tracer = _ACTIVE
    if tracer is None:
        return
    current = _CURRENT.get()
    if current is None:
        return
    # Spans are few (one per stage/shard); a reverse scan over the
    # ``spans`` snapshot is simpler and cheaper than an id->span map.  Only
    # this context's thread mutates its own open span, so the event needs
    # no lock once the snapshot is taken.
    for candidate in reversed(tracer.spans):
        if candidate.span_id == current:
            candidate.add_event(name, **attrs)
            return


def traced(name: str | None = None, **attrs: Any) -> Callable[[_F], _F]:
    """Decorator form of :func:`span` (span named after the function)."""

    def decorate(fn: _F) -> _F:
        label = name or fn.__qualname__

        @wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            if _ACTIVE is None:
                return fn(*args, **kwargs)
            with span(label, **attrs):
                return fn(*args, **kwargs)

        return wrapper  # type: ignore[return-value]

    return decorate


@dataclass
class Timer:
    """Accumulating stopwatch over :data:`clock`, usable as a context manager.

    The project's one stopwatch (the clock RC004 points timing code at)
    and the primitive behind
    :meth:`repro.core.profile.PipelineProfile.timing`.
    """

    seconds: float = 0.0
    _t0: float = field(default=0.0, repr=False)

    def __enter__(self) -> Timer:
        self._t0 = clock()
        return self

    def __exit__(self, *exc: object) -> None:
        self.seconds += clock() - self._t0

    def reset(self) -> None:
        """Zero the accumulator."""
        self.seconds = 0.0
