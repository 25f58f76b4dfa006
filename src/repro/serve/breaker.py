"""Circuit breaker around the warm worker pool.

The supervisor already recovers a single bad dispatch (retry, rebuild,
in-process fallback), but a persistently failing pool would make *every*
request pay the full retry ladder before its fallback.  The breaker cuts
that short: after ``failure_threshold`` consecutive pool-path failures it
opens, and requests are routed straight to the in-process degraded path —
correct (bit-identical) results at pool-less speed, with none of the
retry latency.  After ``reset_seconds`` a single half-open probe request
is allowed back onto the pool path; its success closes the breaker, its
failure re-opens it.

::

    CLOSED ──failure × threshold──> OPEN ──reset_seconds──> HALF_OPEN
      ^                              ^                          │
      └───────── probe ok ───────────┼────── probe fails ───────┘

Thread safety: state transitions are guarded by a lock held only for
constant-time bookkeeping (never across a dispatch), so handler threads
cannot observe a torn state.
"""

from __future__ import annotations

import enum
import threading
from dataclasses import dataclass

from ..obs import trace

__all__ = ["BreakerState", "BreakerConfig", "CircuitBreaker"]


class BreakerState(enum.Enum):
    """Where the breaker routes the next request."""

    #: Pool path; failures accumulate toward the trip threshold.
    CLOSED = "closed"
    #: Degraded in-process path; the pool is presumed broken.
    OPEN = "open"
    #: One probe request is trying the pool path right now.
    HALF_OPEN = "half-open"


#: Numeric encoding of each state for the ``serve_breaker_state`` gauge.
STATE_VALUES = {
    BreakerState.CLOSED: 0,
    BreakerState.OPEN: 1,
    BreakerState.HALF_OPEN: 2,
}


@dataclass(frozen=True)
class BreakerConfig:
    """Trip and recovery policy.

    Attributes
    ----------
    failure_threshold:
        Consecutive pool-path failures that open the breaker.
    reset_seconds:
        Open-state dwell before a half-open probe is allowed.
    """

    failure_threshold: int = 3
    reset_seconds: float = 5.0

    def __post_init__(self) -> None:
        if self.failure_threshold < 1:
            raise ValueError("failure_threshold must be >= 1")
        if self.reset_seconds < 0:
            raise ValueError("reset_seconds must be >= 0")


class CircuitBreaker:
    """Consecutive-failure breaker with a timed half-open probe."""

    def __init__(self, config: BreakerConfig | None = None) -> None:
        self.config = config or BreakerConfig()
        self._lock = threading.Lock()
        self._state = BreakerState.CLOSED
        self._consecutive_failures = 0
        self._opened_at = 0.0
        self._trips = 0

    @property
    def trips(self) -> int:
        """Lifetime count of CLOSED/HALF_OPEN → OPEN transitions."""
        with self._lock:
            return self._trips

    @property
    def state(self) -> BreakerState:
        """Current state (transitioning OPEN → HALF_OPEN when due)."""
        with self._lock:
            self._maybe_half_open()
            return self._state

    def allows_pool(self) -> bool:
        """Route the next request: pool path (true) or degraded (false).

        In the half-open state this keeps answering true — the service's
        single dispatcher thread serialises requests, so exactly one probe
        is in flight at a time by construction.
        """
        with self._lock:
            self._maybe_half_open()
            return self._state is not BreakerState.OPEN

    def record_success(self) -> None:
        """A pool-path request completed with a healthy run."""
        with self._lock:
            if self._state is BreakerState.HALF_OPEN:
                trace.add_event("breaker.close")
            self._state = BreakerState.CLOSED
            self._consecutive_failures = 0

    def record_failure(self) -> None:
        """A pool-path request needed recovery (or raised outright)."""
        with self._lock:
            self._consecutive_failures += 1
            if self._state is BreakerState.HALF_OPEN or (
                self._state is BreakerState.CLOSED
                and self._consecutive_failures >= self.config.failure_threshold
            ):
                self._state = BreakerState.OPEN
                self._opened_at = trace.clock()
                self._trips += 1
                trace.add_event(
                    "breaker.open", consecutive=self._consecutive_failures
                )

    def _maybe_half_open(self) -> None:
        """OPEN → HALF_OPEN once the reset dwell has elapsed (lock held)."""
        if (
            self._state is BreakerState.OPEN
            and trace.clock() - self._opened_at >= self.config.reset_seconds
        ):
            self._state = BreakerState.HALF_OPEN
            trace.add_event("breaker.half_open")
