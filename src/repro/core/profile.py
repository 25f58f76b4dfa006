"""Per-step instrumentation.

Every performance table in the paper is a statement about *where time goes*
(Tables 1 and 7) or *how long a step takes* (Tables 2–4).  The pipeline
therefore records, for each of the three steps, both wall-clock seconds of
this Python implementation **and** platform-independent operation counts.
The cost models in :mod:`repro.rasc.host` translate counts into modelled
Itanium2/RASC-100 seconds; wall-clock is reported alongside for honesty.
"""

from __future__ import annotations

from collections.abc import Iterator
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from typing import Any

from ..obs import metrics as obsmetrics
from ..obs import trace
from ..util.reporting import fractions
from .partition import partition_imbalance

__all__ = ["StepCounters", "ShardTiming", "RunHealth", "PipelineProfile"]


@dataclass
class StepCounters:
    """Counts and wall time for one pipeline step."""

    wall_seconds: float = 0.0
    #: Step-specific primary operation count:
    #: step 1 — residues indexed; step 2 — window cells scored;
    #: step 3 — DP cells computed.
    operations: int = 0
    #: Items processed (sequences, pairs, extensions).
    items: int = 0

    def merge(self, other: StepCounters) -> None:
        """Accumulate another step's counters."""
        self.wall_seconds += other.wall_seconds
        self.operations += other.operations
        self.items += other.items

    def as_dict(self) -> dict[str, Any]:
        """JSON-able form (run-report ``profile`` section)."""
        return {
            "wall_seconds": self.wall_seconds,
            "operations": self.operations,
            "items": self.items,
        }


@dataclass(frozen=True)
class ShardTiming:
    """Step-2 record of one executor shard (sharding ↔ the paper's FPGAs).

    One is recorded per shard per run even in single-process mode, so
    Table-7-style breakdowns can always decompose step 2 into its units of
    parallel work and their batch shapes.
    """

    shard: int
    entries: int
    pairs: int
    hits: int
    wall_seconds: float
    #: Kernel invocations and largest single batch within this shard.
    batches: int
    max_batch_pairs: int
    #: Dispatches the supervisor needed before this shard produced a valid
    #: result (1 = first try; >1 means retries after crash/hang/corruption).
    attempts: int = 1
    #: Where the accepted result was computed: ``"pool"`` for a worker
    #: process, ``"local"`` for the in-process engine (single-worker runs
    #: and the supervisor's last-resort fallback).
    via: str = "pool"
    #: Wall seconds the supervisor spent on this shard's *abandoned*
    #: dispatches (timeouts, crashes, rejected results) before the accepted
    #: one.  ``wall_seconds`` covers only the accepted attempt, so without
    #: this the cost of retries vanishes from shard-level accounting.
    retry_wall_seconds: float = 0.0

    def as_dict(self) -> dict[str, Any]:
        """JSON-able form (run-report ``profile.step2_shards`` rows)."""
        return {
            "shard": self.shard,
            "entries": self.entries,
            "pairs": self.pairs,
            "hits": self.hits,
            "wall_seconds": self.wall_seconds,
            "batches": self.batches,
            "max_batch_pairs": self.max_batch_pairs,
            "attempts": self.attempts,
            "via": self.via,
            "retry_wall_seconds": self.retry_wall_seconds,
        }


@dataclass
class RunHealth:
    """Supervision counters of one sharded step-2 run.

    ``shards`` counts units of dispatched work; the failure counters
    classify every abandoned dispatch.  A fault-free run has every counter
    except ``shards`` at zero — :attr:`healthy` is that predicate, and
    :attr:`degraded` flags runs that only completed through the in-process
    fallback (correct output, pool-less speed).
    """

    shards: int = 0
    #: Re-dispatches beyond each shard's first attempt.
    retries: int = 0
    #: Dispatches abandoned at their deadline.
    timeouts: int = 0
    #: Dispatches that died (worker exit, broken pool, raised errors).
    crashes: int = 0
    #: Results rejected because the hit arrays disagreed with their stats.
    truncated: int = 0
    #: Dispatches rejected by the worker's bank-view digest check.
    corrupt: int = 0
    #: Fresh pools built after the first (timeout/broken-pool recovery).
    pool_rebuilds: int = 0
    #: Shards completed by the in-process engine after retries ran out.
    fallback_shards: int = 0
    #: Shards abandoned because a request-level deadline
    #: (:attr:`~repro.core.supervisor.SupervisorConfig.deadline`) expired.
    #: Each cancelled shard is counted here exactly once — never *also* as a
    #: timeout or crash for the dispatch the cancellation interrupted.
    cancelled: int = 0
    #: Multi-worker runs routed straight to the in-process engine because
    #: the workload fell below ``min_pairs_per_shard`` — a sizing decision,
    #: not a fault, so it does not affect :attr:`healthy`.
    small_workload_fallbacks: int = 0

    @property
    def healthy(self) -> bool:
        """True when the run saw no fault of any kind."""
        return (
            self.retries == 0
            and self.timeouts == 0
            and self.crashes == 0
            and self.truncated == 0
            and self.corrupt == 0
            and self.pool_rebuilds == 0
            and self.fallback_shards == 0
            and self.cancelled == 0
        )

    @property
    def degraded(self) -> bool:
        """True when at least one shard fell back to in-process scoring."""
        return self.fallback_shards > 0

    def merge(self, other: RunHealth) -> None:
        """Accumulate another run's health counters."""
        self.shards += other.shards
        self.retries += other.retries
        self.timeouts += other.timeouts
        self.crashes += other.crashes
        self.truncated += other.truncated
        self.corrupt += other.corrupt
        self.pool_rebuilds += other.pool_rebuilds
        self.fallback_shards += other.fallback_shards
        self.cancelled += other.cancelled
        self.small_workload_fallbacks += other.small_workload_fallbacks

    def publish(self, stage: str) -> None:
        """Expose the supervision counters in the active registry as one
        labelled counter family, ``<stage>_supervisor_events_total``.

        Every kind is published (zeros included) so a fault-free run exposes
        the same series set as a faulty one — dashboards and diffs never have
        to special-case missing series.
        """
        registry = obsmetrics.active()
        if registry is None:
            return
        family = f"{stage}_supervisor_events_total"
        for kind, value in self.as_dict().items():
            if kind not in ("shards", "healthy", "degraded"):
                registry.counter(family, kind=kind).inc(value)

    def as_dict(self) -> dict[str, Any]:
        """JSON-able form (run-report ``run_health`` section)."""
        return {
            "shards": self.shards,
            "retries": self.retries,
            "timeouts": self.timeouts,
            "crashes": self.crashes,
            "truncated": self.truncated,
            "corrupt": self.corrupt,
            "pool_rebuilds": self.pool_rebuilds,
            "fallback_shards": self.fallback_shards,
            "cancelled": self.cancelled,
            "small_workload_fallbacks": self.small_workload_fallbacks,
            "healthy": self.healthy,
            "degraded": self.degraded,
        }


@dataclass
class PipelineProfile:
    """Profile of one pipeline run (steps 1–3)."""

    step1: StepCounters = field(default_factory=StepCounters)
    step2: StepCounters = field(default_factory=StepCounters)
    step3: StepCounters = field(default_factory=StepCounters)
    #: Per-shard step-2 timings of the most recent run (empty when a custom
    #: step-2 engine bypasses the sharded executor).
    step2_shards: list[ShardTiming] = field(default_factory=list)
    #: Supervision counters of the sharded step-2 runs folded into this
    #: profile (all-zero when step 2 ran unsupervised/in-process).
    run_health: RunHealth = field(default_factory=RunHealth)

    @contextmanager
    def timing(
        self, step: StepCounters, span_name: str | None = None, **attrs: Any
    ) -> Iterator[StepCounters]:
        """Context manager adding elapsed wall time to *step*.

        With *span_name* the region is also recorded as an observability
        span (one shared clock read — the span and the counter can never
        disagree about where time went).  Timing goes through
        :class:`repro.obs.trace.Timer` rather than ``time.perf_counter``;
        see repro-check rule RC105.
        """
        timer = trace.Timer()
        cm = trace.span(span_name, **attrs) if span_name else nullcontext()
        try:
            with cm, timer:
                yield step
        finally:
            step.wall_seconds += timer.seconds

    @property
    def total_wall(self) -> float:
        """Total wall seconds across steps."""
        return self.step1.wall_seconds + self.step2.wall_seconds + self.step3.wall_seconds

    @property
    def step2_retry_wall(self) -> float:
        """Wall seconds lost to abandoned step-2 dispatches (retries)."""
        return sum(s.retry_wall_seconds for s in self.step2_shards)

    def wall_fractions(self) -> tuple[float, float, float]:
        """Fractions of wall time per step (the shape of paper Table 1)."""
        return fractions(
            (
                self.step1.wall_seconds,
                self.step2.wall_seconds,
                self.step3.wall_seconds,
            )
        )

    def step2_shard_imbalance(self) -> float:
        """Makespan imbalance of the step-2 shards (1.0 = perfect/serial)."""
        return partition_imbalance([s.wall_seconds for s in self.step2_shards])

    def merge(self, other: PipelineProfile) -> None:
        """Accumulate another run's profile."""
        self.step1.merge(other.step1)
        self.step2.merge(other.step2)
        self.step3.merge(other.step3)
        self.step2_shards.extend(other.step2_shards)
        self.run_health.merge(other.run_health)

    def as_dict(self) -> dict[str, Any]:
        """JSON-able form (run-report ``profile`` section)."""
        return {
            "step1": self.step1.as_dict(),
            "step2": self.step2.as_dict(),
            "step3": self.step3.as_dict(),
            "total_wall": self.total_wall,
            "wall_fractions": list(self.wall_fractions()),
            "step2_shards": [s.as_dict() for s in self.step2_shards],
            "step2_retry_wall": self.step2_retry_wall,
            "step2_shard_imbalance": self.step2_shard_imbalance(),
            "run_health": self.run_health.as_dict(),
        }
