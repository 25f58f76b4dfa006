"""Opt-in sampling wall-clock profiler (stdlib ``signal.setitimer``).

A :class:`SamplingProfiler` arms ``ITIMER_REAL`` so ``SIGALRM`` fires
every *interval*; the handler walks ``sys._current_frames()`` and bumps a
counter per ``(thread, stack)`` — collapsed-stack output (flamegraph
input) plus a per-pipeline-phase attribution derived from recognisable
frame names (``_step1`` → step1, ``run_step2``/``run_stream`` →
step2, ``gapped_stage`` → step3, ``_dispatch_loop`` → dispatch).

Signal-safety rules this module lives by (documented in DESIGN §10):

* ``signal.signal`` is **main-thread only** — :meth:`install` must run at
  boot from the main thread (the serve CLI does).  ``signal.setitimer``
  is callable from any thread, so the ``/debug/profile`` handler thread
  only arms/disarms an already-installed handler.
* The handler **takes no locks** and calls nothing that does: it touches
  one plain dict owned by this profiler (handlers always run in the main
  thread, so handler-vs-handler races cannot happen) and reads are only
  allowed while the timer is disarmed (:meth:`report` enforces this).
* **Fork-awareness**: interval timers are *not* inherited across
  ``fork()`` but signal dispositions *are* — a pool worker forked while
  profiling would die to an unhandled-in-context SIGALRM state.
  :meth:`install` registers an ``os.register_at_fork`` hook that disarms
  the timer and resets ``SIGALRM`` in every child.
* Samples are wall-clock (``ITIMER_REAL``), so blocked/parked threads
  are visible — the right choice for a service whose latency is mostly
  waiting, not CPU.
"""

from __future__ import annotations

import os
import signal
import sys
import threading
from types import FrameType
from typing import Any

__all__ = ["PROFILE_VERSION", "PHASE_MARKERS", "SamplingProfiler"]

#: Bumped on any breaking change to the profile document shape.
PROFILE_VERSION = 2

#: Frame (function) names that anchor a sample to a pipeline phase.
#: Scanned leaf-first, first match wins; unmatched samples are "other".
PHASE_MARKERS: dict[str, str] = {
    "_step1": "step1",
    "run_step2": "step2",
    "run_stream": "step2",
    "gapped_stage": "step3",
    "_handle": "dispatch",
    "_dispatch_loop": "dispatch",
    "serve_forever": "idle",
}

#: Deepest stack recorded per thread per sample (beyond it, frames are
#: summarised as a single truncation marker).
_MAX_DEPTH = 64

#: Never-set module event whose ``wait(timeout=...)`` is the sanctioned
#: bounded sleep (same idiom as ``serve/client.py``; RC303).
_SLEEP = threading.Event()


def _disarm_in_child() -> None:
    """``os.register_at_fork`` child hook: no profiling in pool workers.

    The itimer itself does not survive fork, but the handler disposition
    does; reset both so a worker's signal state matches a cold start.
    """
    try:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
    except (ValueError, OSError):  # pragma: no cover - exotic platforms
        pass


class SamplingProfiler:
    """Wall-clock sampling profiler for the serving process.

    One instance per process; :meth:`install` wires the SIGALRM handler
    (main thread only), then either :meth:`start`/:meth:`stop` bracket a
    whole session (the ``--profile-out`` mode) or :meth:`run_for`
    profiles a bounded window on demand (the ``/debug/profile`` mode —
    single-flight, refused while a session profile is running).
    """

    def __init__(self, interval_seconds: float = 0.01) -> None:
        if interval_seconds <= 0:
            raise ValueError("interval_seconds must be positive")
        self.interval_seconds = interval_seconds
        #: (thread ident, stack tuple) → sample count.  Only ever mutated
        #: from the SIGALRM handler (main thread); read while disarmed.
        self._samples: dict[tuple[int, tuple[str, ...]], int] = {}
        self._ticks = 0
        self._armed = False
        self._continuous = False
        self._installed = False
        #: Single-flight guard for :meth:`run_for`.
        self._flight = threading.Lock()

    # -- lifecycle ------------------------------------------------------
    def install(self) -> None:
        """Install the SIGALRM handler (call once, from the main thread)."""
        if self._installed:
            return
        if threading.current_thread() is not threading.main_thread():
            raise RuntimeError(
                "SamplingProfiler.install() must run on the main thread "
                "(signal.signal is main-thread only)"
            )
        signal.signal(signal.SIGALRM, self._sample)
        os.register_at_fork(after_in_child=_disarm_in_child)
        self._installed = True

    @property
    def installed(self) -> bool:
        """True once the SIGALRM handler is wired."""
        return self._installed

    @property
    def running(self) -> bool:
        """True while the session (continuous) profile is armed."""
        return self._continuous

    def _arm(self) -> None:
        signal.setitimer(
            signal.ITIMER_REAL, self.interval_seconds, self.interval_seconds
        )
        self._armed = True

    def _disarm(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        self._armed = False

    def start(self) -> None:
        """Begin a session-long profile (``--profile-out``)."""
        if not self._installed:
            raise RuntimeError("install() the profiler before start()")
        if self._continuous:
            return
        self._continuous = True
        self._arm()

    def stop(self) -> None:
        """End the session profile; :meth:`report` becomes readable."""
        if not self._continuous:
            return
        self._disarm()
        self._continuous = False

    def run_for(self, seconds: float) -> dict[str, Any] | None:
        """Profile a bounded window and return its report.

        Callable from any thread (only ``setitimer`` is touched, never
        ``signal.signal``).  Returns ``None`` when another window is
        already in flight or a session profile is running — the caller
        maps that to HTTP 409.
        """
        if not self._installed or self._continuous:
            return None
        if not self._flight.acquire(blocking=False):
            return None
        try:
            self._samples = {}
            self._ticks = 0
            self._arm()
            _SLEEP.wait(timeout=max(0.0, seconds))
            self._disarm()
            return self.report(seconds=seconds)
        finally:
            self._flight.release()

    # -- sampling -------------------------------------------------------
    def _sample(self, signum: int, frame: FrameType | None) -> None:
        """SIGALRM handler: one wall-clock sample of every thread."""
        for ident, top in sys._current_frames().items():
            stack: list[str] = []
            f: FrameType | None = top
            depth = 0
            while f is not None:
                if depth >= _MAX_DEPTH:
                    stack.append("<truncated>")
                    break
                code = f.f_code
                if code.co_name != "_sample":  # skip this handler frame
                    stack.append(
                        f"{f.f_globals.get('__name__', '?')}.{code.co_name}"
                    )
                f = f.f_back
                depth += 1
            stack.reverse()
            key = (ident, tuple(stack))
            self._samples[key] = self._samples.get(key, 0) + 1
        self._ticks += 1

    # -- reporting ------------------------------------------------------
    def report(self, seconds: float | None = None) -> dict[str, Any]:
        """Schema-versioned profile document (read only while disarmed)."""
        if self._armed:
            raise RuntimeError("stop the profiler before reading its samples")
        names = {t.ident: t.name for t in threading.enumerate() if t.ident}
        collapsed: list[str] = []
        phases: dict[str, int] = {}
        total = 0
        for (ident, stack), count in sorted(
            self._samples.items(), key=lambda kv: (-kv[1], kv[0])
        ):
            total += count
            thread = names.get(ident, f"thread-{ident}")
            collapsed.append(f"{thread};{';'.join(stack)} {count}")
            phase = "other"
            for entry in reversed(stack):  # leaf-first
                marker = PHASE_MARKERS.get(entry.rpartition(".")[2])
                if marker is not None:
                    phase = marker
                    break
            phases[phase] = phases.get(phase, 0) + count
        return {
            "version": PROFILE_VERSION,
            "interval_seconds": self.interval_seconds,
            "window_seconds": seconds,
            "ticks": self._ticks,
            "samples": total,
            "phases": dict(sorted(phases.items())),
            "collapsed": collapsed,
        }
