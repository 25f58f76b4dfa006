"""The service flight recorder: last-N request records + trace documents.

Two bounded ring buffers, both keyed by request id:

* :class:`FlightRecorder` — one compact :class:`FlightRecord` per
  *terminal* request outcome (served, shed, deadline, error), carrying
  the status, the latency breakdown (queue/dispatch/step1/step2/step3), the
  retry/fallback/breaker events observed on the request's span tree and
  the shed reason.  Served at ``GET /debug/requests`` and dumped to disk
  on SIGTERM drain, it answers "what did the last N requests experience"
  without any external collector.
* :class:`RequestTraceStore` — the full span tree of the last N traced
  requests, served at ``GET /debug/trace/<request id>``.

Both are internally locked with a plain ``threading.Lock`` rather than a
locksan-instrumented one: ``obs/`` sits *below* the serving layer (the
static lock model and RC30x scope cover ``serve/``), must stay importable
with zero ``serve``/``core`` dependencies, and every method here is a
short O(1)/O(N) critical section with no blocking calls inside.
"""

from __future__ import annotations

import json
import threading
from collections import OrderedDict, deque
from dataclasses import dataclass, field
from typing import Any

__all__ = ["FLIGHT_VERSION", "FlightRecord", "FlightRecorder", "RequestTraceStore"]

#: Bumped on any breaking change to the flight-record shape
#: (mirrored by ``schemas/flight_record.schema.json``).
FLIGHT_VERSION = 2


@dataclass(frozen=True)
class FlightRecord:
    """One request's terminal outcome, compact enough to keep N thousand.

    ``breakdown`` keys are seconds: ``queue`` (admission wait),
    ``step1``/``step2``/``step3`` (pipeline phase walls — ``step3`` is
    the gapped extension stage), ``dispatch`` (handler wall not
    attributed to a pipeline phase: fault injection, healing, breaker
    accounting, response formatting) and ``total`` (handler wall).  Event
    counts come from the request's span tree, so they are zero when
    tracing is disabled.
    """

    request_id: str
    trace_id: str
    request_index: int | None
    status: str  # ok | shed | deadline | error | draining
    code: int
    breakdown: dict[str, float] = field(default_factory=dict)
    retry_events: int = 0
    fallback_events: int = 0
    breaker_events: tuple[str, ...] = ()
    shed_reason: str | None = None
    retry_after: float | None = None
    degraded: bool | None = None
    alignments: int | None = None
    error: str | None = None

    def to_dict(self) -> dict[str, Any]:
        """JSON-ready row (breaker events as a list)."""
        return {
            "request_id": self.request_id,
            "trace_id": self.trace_id,
            "request_index": self.request_index,
            "status": self.status,
            "code": self.code,
            "breakdown": dict(self.breakdown),
            "retry_events": self.retry_events,
            "fallback_events": self.fallback_events,
            "breaker_events": list(self.breaker_events),
            "shed_reason": self.shed_reason,
            "retry_after": self.retry_after,
            "degraded": self.degraded,
            "alignments": self.alignments,
            "error": self.error,
        }


class FlightRecorder:
    """Bounded ring of the last *capacity* :class:`FlightRecord` rows.

    Appends never block and never fail: once full, the oldest record is
    evicted and counted in :attr:`dropped` — a flight recorder that could
    stall or OOM the service it observes would be worse than none.
    """

    def __init__(self, capacity: int = 256) -> None:
        if capacity < 1:
            raise ValueError("flight recorder capacity must be >= 1")
        self.capacity = capacity
        self._records: deque[FlightRecord] = deque(maxlen=capacity)
        self._lock = threading.Lock()
        self._recorded = 0

    def record(self, record: FlightRecord) -> None:
        """Append one terminal-outcome record (evicting the oldest if full)."""
        with self._lock:
            self._records.append(record)
            self._recorded += 1

    @property
    def recorded(self) -> int:
        """Total records ever appended (eviction does not decrement)."""
        with self._lock:
            return self._recorded

    @property
    def dropped(self) -> int:
        """Records evicted by the ring bound."""
        with self._lock:
            return self._recorded - len(self._records)

    def snapshot(self, limit: int | None = None) -> list[dict[str, Any]]:
        """Newest-first JSON rows (at most *limit* when given)."""
        with self._lock:
            rows = list(self._records)
        rows.reverse()
        if limit is not None:
            rows = rows[: max(0, limit)]
        return [r.to_dict() for r in rows]

    def find(self, request_id: str) -> dict[str, Any] | None:
        """The newest record for *request_id*, or ``None``."""
        with self._lock:
            rows = list(self._records)
        for record in reversed(rows):
            if record.request_id == request_id:
                return record.to_dict()
        return None

    def to_dict(self, limit: int | None = None) -> dict[str, Any]:
        """The schema-versioned ``/debug/requests`` document."""
        return {
            "version": FLIGHT_VERSION,
            "capacity": self.capacity,
            "recorded": self.recorded,
            "dropped": self.dropped,
            "records": self.snapshot(limit),
        }

    def dump(self, path: str) -> None:
        """Write the full document to *path* (the SIGTERM-drain dump)."""
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")


class RequestTraceStore:
    """Bounded id-keyed ring of per-request trace documents.

    Holds the last *capacity* schema-versioned trace documents (see
    ``REQUEST_TRACE_SCHEMA`` in :mod:`repro.obs.export`) for
    ``GET /debug/trace/<id>``.  A repeated request id replaces the older
    document — the newest trace wins, matching client retry semantics.
    """

    def __init__(self, capacity: int = 64) -> None:
        if capacity < 1:
            raise ValueError("trace store capacity must be >= 1")
        self.capacity = capacity
        self._docs: OrderedDict[str, dict[str, Any]] = OrderedDict()
        self._lock = threading.Lock()

    def retain(self, doc: dict[str, Any]) -> None:
        """Store *doc* under its ``request_id``, evicting the oldest."""
        request_id = str(doc["request_id"])
        with self._lock:
            self._docs.pop(request_id, None)
            self._docs[request_id] = doc
            while len(self._docs) > self.capacity:
                self._docs.popitem(last=False)

    def get(self, request_id: str) -> dict[str, Any] | None:
        """The stored trace document for *request_id*, or ``None``."""
        with self._lock:
            return self._docs.get(request_id)

    def ids(self) -> list[str]:
        """Stored request ids, oldest first."""
        with self._lock:
            return list(self._docs)
