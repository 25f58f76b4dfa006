"""Opt-in sampling wall-clock profiler (a daemon sampler thread).

While a :class:`SamplingProfiler` samples, a daemon thread waits
*interval* on a stop event, walks ``sys._current_frames()`` (skipping
itself) and bumps a counter per ``(thread, stack)`` — collapsed-stack
output (flamegraph input) plus a per-pipeline-phase attribution derived
from recognisable frame names (``_step1`` → step1, ``run_step2``/
``run_stream`` → step2, ``gapped_stage`` → step3, ``_dispatch_loop`` →
dispatch).

Design rules (DESIGN §10):

* **Plain thread code, one lock.**  Samples and the lifecycle state live
  under ``_lock``; no signal handler, no main-thread rule, no at-fork
  state — a pool forked mid-profile gets no sampler thread, and the
  child never touches the profiler.
* **GIL-bound rate.**  The sampler needs the GIL to wake and to walk the
  frames, so under a busy pure-Python thread it samples at roughly one
  tick per interval plus one switch interval (``sys.getswitchinterval``),
  not at the nominal rate; ``ticks`` records what was actually taken.
* Samples are wall-clock, so blocked/parked threads are visible — the
  right choice for a service whose latency is mostly waiting, not CPU.
"""

from __future__ import annotations

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

#: (thread ident, stack tuple) → sample count.
_Samples = dict[tuple[int, tuple[str, ...]], int]

#: Never-set module event whose ``wait(timeout=...)`` is the sanctioned
#: bounded sleep (same idiom as ``serve/client.py``; RC303).
_SLEEP = threading.Event()


def _stack(top: FrameType | None) -> tuple[str, ...]:
    """Root-first ``module.function`` names of one thread's frames."""
    stack: list[str] = []
    f = top
    while f is not None:
        if len(stack) >= _MAX_DEPTH:
            stack.append("<truncated>")
            break
        stack.append(f"{f.f_globals.get('__name__', '?')}.{f.f_code.co_name}")
        f = f.f_back
    stack.reverse()
    return tuple(stack)


class SamplingProfiler:
    """Wall-clock sampling profiler for the serving process.

    Either :meth:`start`/:meth:`stop` bracket a whole session (the
    ``--profile-out`` mode) or :meth:`run_for` profiles a bounded window
    on demand (the ``/debug/profile`` mode).  Only one sampler runs at a
    time: a window is refused while another window or a session runs.
    """

    def __init__(self, interval_seconds: float = 0.01) -> None:
        if interval_seconds <= 0:
            raise ValueError("interval_seconds must be positive")
        self.interval_seconds = interval_seconds
        #: Guards every field below.
        self._lock = threading.Lock()
        self._samples: _Samples = {}
        self._ticks = 0
        #: The live sampler thread, ``None`` when idle.
        self._thread: threading.Thread | None = None
        self._continuous = False
        self._stop = threading.Event()

    # -- lifecycle ------------------------------------------------------
    @property
    def running(self) -> bool:
        """True while the session (continuous) profile is sampling."""
        with self._lock:
            return self._continuous

    def _begin(self, continuous: bool) -> bool:
        """Start a fresh sampler; ``False`` if one is already running."""
        with self._lock:
            if self._thread is not None:
                return False
            self._samples = {}
            self._ticks = 0
            self._continuous = continuous
            self._stop.clear()
            self._thread = threading.Thread(
                target=self._run, name="profile-sampler", daemon=True
            )
            self._thread.start()
            return True

    def _end(self) -> tuple[_Samples, int]:
        """Stop the sampler; return its samples and ticks.

        The snapshot is taken in the same critical section that frees the
        sampler slot, so a window that begins right after cannot reset
        the samples before this caller reads them.
        """
        with self._lock:
            thread = self._thread
        if thread is not None:
            self._stop.set()
            thread.join()
        with self._lock:
            self._thread = None
            self._continuous = False
            return dict(self._samples), self._ticks

    def start(self) -> None:
        """Begin a session-long profile (``--profile-out``)."""
        if self.running:
            return
        if not self._begin(continuous=True):
            raise RuntimeError("a profiling window is in flight")

    def stop(self) -> None:
        """End the session profile; :meth:`report` becomes readable."""
        if self.running:
            self._end()

    def run_for(self, seconds: float) -> dict[str, Any] | None:
        """Profile a bounded window and return its report.

        Callable from any thread.  Returns ``None`` when another window
        is already in flight or a session profile is running — the
        caller maps that to HTTP 409.
        """
        if not self._begin(continuous=False):
            return None
        try:
            _SLEEP.wait(timeout=max(0.0, seconds))
        finally:
            samples, ticks = self._end()
        return _document(self.interval_seconds, samples, ticks, seconds)

    # -- sampling -------------------------------------------------------
    def _run(self) -> None:
        """Sampler thread: one wall-clock sample of every other thread."""
        me = threading.get_ident()
        while not self._stop.wait(self.interval_seconds):
            stacks = [
                (ident, _stack(top))
                for ident, top in sys._current_frames().items()
                if ident != me
            ]
            with self._lock:
                for key in stacks:
                    self._samples[key] = self._samples.get(key, 0) + 1
                self._ticks += 1

    # -- reporting ------------------------------------------------------
    def report(self, seconds: float | None = None) -> dict[str, Any]:
        """Schema-versioned profile document (read only while stopped)."""
        with self._lock:
            if self._thread is not None:
                raise RuntimeError(
                    "stop the profiler before reading its samples"
                )
            samples = dict(self._samples)
            ticks = self._ticks
        return _document(self.interval_seconds, samples, ticks, seconds)


def _document(
    interval_seconds: float,
    samples: _Samples,
    ticks: int,
    seconds: float | None,
) -> dict[str, Any]:
    """The profile document for one window or session."""
    names = {t.ident: t.name for t in threading.enumerate() if t.ident}
    collapsed: list[str] = []
    phases: dict[str, int] = {}
    total = 0
    for (ident, stack), count in sorted(
        samples.items(), key=lambda kv: (-kv[1], kv[0])
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
        "interval_seconds": interval_seconds,
        "window_seconds": seconds,
        "ticks": ticks,
        "samples": total,
        "phases": dict(sorted(phases.items())),
        "collapsed": collapsed,
    }
