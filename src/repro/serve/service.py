"""The search service: admission queue → circuit breaker → warm pool.

:class:`SearchService` is the transport-independent core the HTTP layer
(and tests) drive.  One dispatcher thread drains the admission queue and
executes requests serially against the single warm pool — serialisation
is what makes the half-open breaker probe race-free and keeps the pool's
shard fan-out the only parallelism knob, exactly like the paper's host
feeding its two FPGAs one query at a time.

Request lifecycle::

    submit() ── draining? 503 ── QUEUE_OVERFLOW fault / queue full? 429
        │
        └─> Ticket ──queue──> dispatcher ── service faults (POOL_DEATH,
              CORRUPT_WARM_BANK + CRC self-heal) ── breaker route:
                ├─ closed/half-open: warm pool (deadline plumbed into
                │    SupervisorConfig; outcome feeds the breaker)
                └─ open: in-process degraded path (bit-identical, slower)

Every completed request's alignments are bit-identical to a cold
one-shot :meth:`~repro.core.pipeline.SeedComparisonPipeline.compare_banks`
run of the same query bank — whichever route, fault or retry served it.
"""

from __future__ import annotations

import itertools
import json
import logging
import os
import threading
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

from ..core.config import PipelineConfig
from ..core.executor import live_segment_names
from ..core.faults import FaultKind, FaultPlan
from ..core.pipeline import SeedComparisonPipeline
from ..core.supervisor import DeadlineExceeded
from ..obs import metrics as obsmetrics
from ..obs import trace
from ..obs.context import RequestContext
from ..obs.flight import FlightRecord, FlightRecorder, RequestTraceStore
from ..obs.metrics import prometheus_text
from ..obs.slo import SloConfig, SloTracker
from .admission import AdmissionQueue, Ticket
from .breaker import STATE_VALUES, BreakerConfig, BreakerState, CircuitBreaker
from .pool import WARM_MIN_PAIRS_PER_SHARD, WarmPool

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..core.profile import PipelineProfile
    from ..core.results import ComparisonReport
    from ..seqs.sequence import SequenceBank

__all__ = ["TRACE_VERSION", "ServiceConfig", "SearchService"]

_log = logging.getLogger(__name__)

#: Version of the per-request trace document (``/debug/trace/<id>`` and
#: ``--trace-dir`` spool files); mirrored by
#: ``schemas/request_trace.schema.json``.
TRACE_VERSION = 1


@dataclass(frozen=True)
class ServiceConfig:
    """Service-level policy knobs (everything above the supervisor).

    Attributes
    ----------
    workers:
        Warm-pool worker process count.
    min_pairs_per_shard:
        Step-2 pair floor per worker below which a request scores
        in-process instead of on the warm pool (``0``: every shardable
        request goes to the pool).
    queue_depth:
        Admission queue capacity; requests beyond it shed with 429.
    retry_after_seconds:
        ``Retry-After`` hint returned with a shed.
    default_deadline_seconds:
        Deadline applied when the request names none (``None`` = no
        default — unbounded requests allowed).
    max_wait_seconds:
        Hard cap a handler thread parks on its ticket, deadline or not;
        the backstop that keeps a wedged dispatcher from pinning handler
        threads forever.
    deadline_grace_seconds:
        Extra park time past a request's deadline (or past the
        ``max_wait_seconds`` cap) so the dispatcher can finish cancelling
        and fill in the 504 before the handler gives up with a 500.
    poll_seconds:
        Dispatcher queue-poll granularity (bounds drain latency).
    tracing:
        Record a span tree per request (the ``/debug/trace/<id>``
        surface).  Off, requests still get ids and flight records but
        event counts in those records stay zero.
    flight_records:
        Flight-recorder ring capacity (last N request records).
    trace_records:
        Per-request trace documents retained for ``/debug/trace/<id>``.
    trace_dir:
        When set, every per-request trace document is also spooled to
        ``<trace_dir>/trace-<index>-<request id>.json`` and the flight
        recorder is dumped there on drain.
    slo:
        Declared service-level objectives (see :class:`SloConfig`).
    """

    workers: int = 2
    min_pairs_per_shard: int = WARM_MIN_PAIRS_PER_SHARD
    queue_depth: int = 8
    retry_after_seconds: float = 1.0
    default_deadline_seconds: float | None = None
    max_wait_seconds: float = 120.0
    deadline_grace_seconds: float = 5.0
    poll_seconds: float = 0.1
    breaker: BreakerConfig = field(default_factory=BreakerConfig)
    tracing: bool = True
    flight_records: int = 256
    trace_records: int = 64
    trace_dir: str | None = None
    slo: SloConfig = field(default_factory=SloConfig)


class SearchService:
    """Long-lived search core over one resident bank.

    Parameters
    ----------
    config:
        Pipeline configuration (seed model, thresholds, backend …).
    resident:
        The resident bank every query is compared against.
    service:
        Service policy (:class:`ServiceConfig`).
    fault_plan:
        Deterministic chaos: worker-addressed specs fire inside warm
        workers, request-addressed specs at the service fault sites.
    registry:
        Metrics registry backing ``/metrics``; a private one is created
        when not given.
    """

    def __init__(
        self,
        config: PipelineConfig | None = None,
        resident: SequenceBank | None = None,
        service: ServiceConfig | None = None,
        fault_plan: FaultPlan | None = None,
        registry: obsmetrics.MetricsRegistry | None = None,
    ) -> None:
        if resident is None:
            raise ValueError("a resident bank is required")
        self.config = config or PipelineConfig()
        self.service = service or ServiceConfig()
        self.fault_plan = fault_plan
        self.registry = registry or obsmetrics.MetricsRegistry()
        self.pool = WarmPool(
            self.config,
            resident,
            workers=self.service.workers,
            fault_plan=fault_plan,
            min_pairs_per_shard=self.service.min_pairs_per_shard,
        )
        self.breaker = CircuitBreaker(self.service.breaker)
        self.queue = AdmissionQueue(self.service.queue_depth, self.registry)
        self.flight = FlightRecorder(self.service.flight_records)
        self.traces = RequestTraceStore(self.service.trace_records)
        self.slo = SloTracker(self.service.slo, self.registry)
        self._counter = itertools.count()
        self._draining = threading.Event()
        self._stopped = threading.Event()
        self._busy = threading.Event()  # set while a request is dispatched
        self._idle_tick = threading.Event()  # pulsed by the dispatcher
        self._work = threading.Event()  # pulsed by submit() on admission
        # Dequeue-and-mark-busy happens atomically under this lock, and
        # drain() samples its idle condition under the same lock — so a
        # ticket can never be invisible (out of the queue, _busy not yet
        # set) at the moment drain decides the service is idle.
        self._dispatch_lock = threading.Lock()
        self._dispatcher = threading.Thread(
            target=self._dispatch_loop, name="serve-dispatcher", daemon=True
        )
        # An Event, not a bool: ``ready`` is read from HTTP handler threads
        # while ``start()`` runs on the owner's thread; a sync primitive
        # makes the handoff explicit (and the lock model exempts it).
        self._started = threading.Event()

    # -- lifecycle ------------------------------------------------------
    def start(self, warm: bool = True) -> None:
        """Spawn the dispatcher (and, by default, the warm pool)."""
        if self._started.is_set():
            return
        self._started.set()
        if warm:
            self.pool.warm_up()
        self._set_breaker_gauge()
        # Pre-register every unlabelled serve family so /metrics exposes
        # the full surface (with zeros) from boot, not only after the
        # first shed/heal/degrade — dashboards and the metrics-schema
        # gate both rely on the complete set being present.
        for name in (
            "serve_shed_total",
            "serve_degraded_requests_total",
            "serve_bank_heals_total",
        ):
            self.registry.counter(name).inc(0)
        self.registry.gauge("serve_queue_depth").set_max(0)
        self.registry.gauge("serve_queue_depth_current").set(0)
        self.registry.gauge("serve_resident_bank_bytes").set(
            self.pool.resident_bytes
        )
        self._set_pool_gauge()
        self.slo.register_gauges()
        self.registry.histogram(
            "serve_queue_wait_seconds", boundaries=obsmetrics.SECONDS_BUCKETS
        )
        self.registry.histogram(
            "serve_request_seconds", boundaries=obsmetrics.SECONDS_BUCKETS
        )
        self._dispatcher.start()

    @property
    def ready(self) -> bool:
        """True while accepting: started, not draining, not stopped."""
        return (
            self._started.is_set()
            and not self._draining.is_set()
            and not self._stopped.is_set()
        )

    @property
    def draining(self) -> bool:
        """True once a drain began (``/readyz`` flips 503)."""
        return self._draining.is_set()

    def drain(self, timeout: float = 30.0) -> bool:
        """Graceful shutdown: stop admitting, finish in-flight, release.

        Returns true when the queue fully drained inside *timeout* (the
        pool and staged segment are released either way — after a drain
        the process holds zero shared-memory segments, which
        :func:`repro.core.executor.live_segment_names` lets callers
        assert).
        """
        self._draining.set()
        deadline = trace.clock() + max(0.0, timeout)
        drained = False
        while trace.clock() < deadline:
            with self._dispatch_lock:
                idle = self.queue.empty() and not self._busy.is_set()
            if idle:
                drained = True
                break
            self._idle_tick.wait(timeout=self.service.poll_seconds)
            self._idle_tick.clear()
        self._stopped.set()
        if self._dispatcher.is_alive():
            self._dispatcher.join(timeout=max(1.0, 2 * self.service.poll_seconds))
        self.pool.close()
        self._set_pool_gauge()
        if self.service.trace_dir is not None:
            # The flight recorder's black-box moment: persist the last N
            # request records before the process goes away.
            try:
                self.flight.dump(
                    os.path.join(self.service.trace_dir, "flight_records.json")
                )
            except OSError as exc:  # pragma: no cover - disk trouble
                _log.warning("flight-recorder dump failed: %r", exc)
        if not drained:
            _log.warning("drain timed out with requests still queued")
        return drained

    # -- request path ---------------------------------------------------
    def submit(
        self,
        queries: SequenceBank,
        deadline_seconds: float | None = None,
        max_alignments: int | None = None,
        request_id: str | None = None,
    ) -> dict[str, Any]:
        """Admit one request and block until its response is ready.

        Returns a response dict with an HTTP-shaped ``code``:
        200 (served), 429 (shed, with ``retry_after``), 503 (draining),
        504 (deadline expired), 500 (runtime fault).  *request_id* is the
        client-supplied identity (already validated at the HTTP edge);
        one is minted when absent.  Every response carries
        ``request_id`` and every terminal outcome — including sheds and
        draining rejections — leaves a flight record under that id.
        """
        if not self.ready:
            ctx = RequestContext.new(request_id)
            self.flight.record(
                FlightRecord(
                    request_id=ctx.request_id,
                    trace_id=ctx.trace_id,
                    request_index=None,
                    status="draining",
                    code=503,
                )
            )
            return {
                "code": 503,
                "status": "draining",
                "error": "not accepting",
                "request_id": ctx.request_id,
            }
        request_index = next(self._counter)
        if deadline_seconds is None:
            deadline_seconds = self.service.default_deadline_seconds
        deadline_at = (
            None if deadline_seconds is None else trace.clock() + deadline_seconds
        )
        ctx = RequestContext.new(
            request_id, request_index=request_index, deadline_at=deadline_at
        )
        ticket = Ticket(
            request_index,
            queries,
            deadline_at,
            max_alignments=max_alignments,
            ctx=ctx,
        )
        forced = None
        if self.fault_plan is not None:
            forced = self.fault_plan.service_fault(
                request_index, FaultKind.QUEUE_OVERFLOW
            )
        if not self.queue.offer(ticket, force_shed=forced is not None):
            self._count_request("shed")
            retry_after = self.service.retry_after_seconds
            self.flight.record(
                FlightRecord(
                    request_id=ctx.request_id,
                    trace_id=ctx.trace_id,
                    request_index=request_index,
                    status="shed",
                    code=429,
                    shed_reason="injected" if forced is not None else "queue-full",
                    retry_after=retry_after,
                )
            )
            # A shed is the admission policy working, not the service
            # failing: it spends no availability budget.
            self.slo.record(True, 0.0, ctx.request_id)
            return {
                "code": 429,
                "status": "shed",
                "request": request_index,
                "request_id": ctx.request_id,
                "retry_after": retry_after,
            }
        self._work.set()
        wait = self.service.max_wait_seconds
        remaining = ticket.remaining()
        if remaining is not None:
            # Park until the deadline (never past the max_wait backstop),
            # plus a grace window for the dispatcher to finish cancelling
            # and fill in the 504 before the handler gives up.
            wait = min(wait, remaining) + self.service.deadline_grace_seconds
        if not ticket.done.wait(timeout=wait):
            self._count_request("error")
            self.flight.record(
                FlightRecord(
                    request_id=ctx.request_id,
                    trace_id=ctx.trace_id,
                    request_index=request_index,
                    status="error",
                    code=500,
                    error="dispatcher unresponsive",
                )
            )
            self.slo.record(False, trace.clock() - ticket.enqueued_at, ctx.request_id)
            return {
                "code": 500,
                "status": "error",
                "request": request_index,
                "request_id": ctx.request_id,
                "error": "dispatcher unresponsive",
            }
        return self._response(ticket)

    def _response(self, ticket: Ticket) -> dict[str, Any]:
        self._count_request(ticket.status)
        if ticket.status == "deadline":
            return {
                "code": 504,
                "status": "deadline",
                "request": ticket.request_index,
                "request_id": ticket.ctx.request_id,
                "error": ticket.error or "deadline expired",
            }
        if ticket.status != "ok" or ticket.result is None:
            return {
                "code": 500,
                "status": "error",
                "request": ticket.request_index,
                "request_id": ticket.ctx.request_id,
                "error": ticket.error or "internal error",
            }
        body = dict(ticket.result)
        body["code"] = 200
        body["status"] = "ok"
        body["request"] = ticket.request_index
        body["request_id"] = ticket.ctx.request_id
        return body

    # -- dispatcher -----------------------------------------------------
    def _dispatch_loop(self) -> None:
        while not self._stopped.is_set():
            with self._dispatch_lock:
                ticket = self.queue.take_nowait()
                if ticket is not None:
                    self._busy.set()
            if ticket is None:
                self._idle_tick.set()
                self._work.wait(timeout=self.service.poll_seconds)
                self._work.clear()
                continue
            try:
                self._handle(ticket)
            finally:
                self._busy.clear()
                self._idle_tick.set()
                ticket.done.set()

    def _handle(self, ticket: Ticket) -> None:
        # One tracer per request: spans recorded anywhere down the path
        # (pipeline stages, supervisor events, adopted worker spans) form
        # this request's tree and nothing else's.  The dispatcher is the
        # only thread that runs requests, so activating the ambient
        # tracer/registry here is race-free; handler threads never trace.
        tracer = (
            trace.Tracer(
                meta={
                    "request_id": ticket.ctx.request_id,
                    "trace_id": ticket.ctx.trace_id,
                }
            )
            if self.service.tracing
            else None
        )
        timer = trace.Timer()
        profile: PipelineProfile | None = None
        with trace.activate(tracer), obsmetrics.activate(self.registry):
            with timer:
                with trace.span(
                    "serve.request",
                    request_id=ticket.ctx.request_id,
                    request=ticket.request_index,
                ):
                    profile = self._process(ticket)
        self.registry.histogram(
            "serve_request_seconds", boundaries=obsmetrics.SECONDS_BUCKETS
        ).observe(timer.seconds)
        self._observe_request(ticket, tracer, timer.seconds, profile)

    def _process(self, ticket: Ticket) -> PipelineProfile | None:
        """Execute one ticket inside its request span; returns the profile."""
        self._apply_service_faults(ticket.request_index)
        if self.pool.heal_if_corrupt():
            self.registry.counter("serve_bank_heals_total").inc()
        if ticket.expired():
            ticket.status = "deadline"
            ticket.error = "deadline expired before dispatch"
            return None
        use_pool = self.breaker.allows_pool()
        probing = self.breaker.state is BreakerState.HALF_OPEN
        if not use_pool:
            self.registry.counter("serve_degraded_requests_total").inc()
        pipeline = self._make_pipeline(ticket, use_pool)
        try:
            report, health_ok = self._run(pipeline, ticket)
        except DeadlineExceeded as exc:
            ticket.status = "deadline"
            ticket.error = str(exc)
            if use_pool:
                # A deadline miss on the pool path counts against the
                # breaker only when the pool actually misbehaved —
                # an aggressive client deadline alone must not trip it.
                self._record_breaker(not self._pool_misbehaved(), probing)
            return pipeline.profile
        except Exception as exc:  # noqa: BLE001 - request must answer
            _log.warning(
                "request %d failed: %r", ticket.request_index, exc
            )
            ticket.status = "error"
            ticket.error = repr(exc)
            if use_pool:
                self._record_breaker(False, probing)
            return pipeline.profile
        if use_pool:
            self._record_breaker(health_ok, probing)
        ticket.result = self._format(ticket, report)
        return pipeline.profile

    def _apply_service_faults(self, request_index: int) -> None:
        plan = self.fault_plan
        if plan is None:
            return
        if plan.service_fault(request_index, FaultKind.POOL_DEATH) is not None:
            _log.warning("injecting POOL_DEATH before request %d", request_index)
            self.pool.kill_workers()
        if (
            plan.service_fault(request_index, FaultKind.CORRUPT_WARM_BANK)
            is not None
        ):
            _log.warning(
                "injecting CORRUPT_WARM_BANK before request %d", request_index
            )
            self.pool.corrupt_staged_bank(request_index)
            if self.pool.heal_if_corrupt():
                self.registry.counter("serve_bank_heals_total").inc()

    def _make_pipeline(
        self, ticket: Ticket, use_pool: bool
    ) -> SeedComparisonPipeline:
        """The per-request pipeline (built separately so its profile
        survives a :class:`DeadlineExceeded` raised mid-run)."""
        return SeedComparisonPipeline(
            self.config,
            step2=lambda index: self.pool.step2(
                index,
                deadline_at=ticket.deadline_at,
                use_pool=use_pool,
                request_id=ticket.ctx.request_id,
            ),
            deadline_at=ticket.deadline_at,
        )

    def _run(
        self, pipeline: SeedComparisonPipeline, ticket: Ticket
    ) -> tuple[ComparisonReport, bool]:
        """Run the pipeline for one ticket; returns (report, pool-healthy).

        Step 2 and step 3 each stop at the ticket's deadline themselves
        (step 3 at its next row step or extension); the check here covers
        only what follows the last of those ticks.
        """
        report = pipeline.compare_against_index(
            ticket.queries, self.pool.resident_index
        )
        health = self.pool.last_health
        if ticket.expired():
            raise DeadlineExceeded(
                "request deadline expired during gapped extension",
                health,
                (),
            )
        return report, health.healthy

    def _observe_request(
        self,
        ticket: Ticket,
        tracer: trace.Tracer | None,
        total_seconds: float,
        profile: PipelineProfile | None,
    ) -> None:
        """Flight record + SLO accounting + trace document for one ticket."""
        status = ticket.status
        code = {"ok": 200, "deadline": 504}.get(status, 500)
        breakdown = {
            "queue": ticket.queue_seconds,
            "total": total_seconds,
        }
        if profile is not None:
            step1 = profile.step1.wall_seconds
            step2 = profile.step2.wall_seconds
            step3 = profile.step3.wall_seconds
            breakdown.update(
                step1=step1,
                step2=step2,
                step3=step3,
                dispatch=max(0.0, total_seconds - step1 - step2 - step3),
            )
        retry_events = fallback_events = 0
        breaker_events: list[str] = []
        if tracer is not None:
            for recorded in tracer.spans:
                for event in recorded.events:
                    name = str(event["name"])
                    if name == "step2.retry":
                        retry_events += 1
                    elif name == "step2.fallback":
                        fallback_events += 1
                    elif name.startswith("breaker.") or name == "serve.bank_heal":
                        breaker_events.append(name)
        degraded: bool | None = None
        alignments: int | None = None
        if ticket.result is not None:
            degraded = bool(ticket.result.get("degraded"))
            alignments = ticket.result.get("n_alignments")
        self.flight.record(
            FlightRecord(
                request_id=ticket.ctx.request_id,
                trace_id=ticket.ctx.trace_id,
                request_index=ticket.request_index,
                status=status,
                code=code,
                breakdown=breakdown,
                retry_events=retry_events,
                fallback_events=fallback_events,
                breaker_events=tuple(breaker_events),
                degraded=degraded,
                alignments=alignments,
                error=ticket.error,
            )
        )
        self.slo.record(status == "ok", total_seconds, ticket.ctx.request_id)
        self._set_pool_gauge()
        if tracer is None:
            return
        doc = {
            "version": TRACE_VERSION,
            "request_id": ticket.ctx.request_id,
            "trace_id": ticket.ctx.trace_id,
            "request_index": ticket.request_index,
            "status": status,
            "code": code,
            "duration_seconds": total_seconds,
            "spans": tracer.export(),
        }
        self.traces.retain(doc)
        if self.service.trace_dir is not None:
            # Request ids pass the edge's charset filter, so embedding one
            # in the spool filename is safe by construction.
            path = os.path.join(
                self.service.trace_dir,
                f"trace-{ticket.request_index:06d}-{ticket.ctx.request_id}.json",
            )
            try:
                with open(path, "w", encoding="utf-8") as fh:
                    json.dump(doc, fh, indent=2, sort_keys=True)
                    fh.write("\n")
            except OSError as exc:  # pragma: no cover - disk trouble
                _log.warning("trace spool failed for %s: %r", path, exc)

    def _pool_misbehaved(self) -> bool:
        """True when the last run's counters show real pool faults.

        Cancellations alone are the *client's* deadline, not the pool's
        fault; crashes/timeouts/corruption/rebuilds are the pool's.
        """
        h = self.pool.last_health
        return bool(
            h.crashes or h.timeouts or h.truncated or h.corrupt or h.pool_rebuilds
        )

    def _record_breaker(self, success: bool, probing: bool) -> None:
        if success:
            self.breaker.record_success()
            if probing:
                self.registry.counter("serve_breaker_probes_total", result="ok").inc()
        else:
            self.breaker.record_failure()
            if probing:
                self.registry.counter(
                    "serve_breaker_probes_total", result="failed"
                ).inc()
        self._set_breaker_gauge()

    def _set_breaker_gauge(self) -> None:
        self.registry.gauge("serve_breaker_state").set(
            STATE_VALUES[self.breaker.state]
        )
        trips = self.breaker.trips
        counter = self.registry.counter("serve_breaker_trips_total")
        if trips > counter.value:
            counter.inc(trips - counter.value)

    def _count_request(self, status: str) -> None:
        self.registry.counter("serve_requests_total", status=status).inc()

    def _set_pool_gauge(self) -> None:
        self.registry.gauge("serve_pool_workers").set(
            float(self.pool.workers if self.pool.pool_alive else 0)
        )

    def _format(
        self, ticket: Ticket, report: ComparisonReport
    ) -> dict[str, Any]:
        """JSON-ready response body for one served request."""
        limit = ticket.max_alignments
        alignments = report.alignments
        if limit is not None:
            alignments = alignments[: max(0, int(limit))]
        health = self.pool.last_health
        return {
            "n_seed_pairs": report.n_seed_pairs,
            "n_ungapped_hits": report.n_ungapped_hits,
            "n_gapped_extensions": report.n_gapped_extensions,
            "n_alignments": len(report.alignments),
            "alignments": [
                {
                    "query": a.seq0_name,
                    "subject": a.seq1_name,
                    "query_range": [a.start0, a.end0],
                    "subject_range": [a.start1, a.end1],
                    "raw_score": a.raw_score,
                    "ungapped_score": a.ungapped_score,
                    "bit_score": a.bit_score,
                    "evalue": a.evalue,
                }
                for a in alignments
            ],
            "degraded": health.degraded or not self.breaker.allows_pool(),
            "run_health": health.as_dict(),
        }

    # -- introspection --------------------------------------------------
    def metrics_text(self) -> str:
        """The ``/metrics`` exposition, with scrape-time gauges refreshed.

        Burn rates and the pool/queue gauges are derived state — refreshed
        here once per scrape instead of on every request.
        """
        self.slo.publish()
        self._set_pool_gauge()
        return prometheus_text(self.registry)

    def debug_requests(self, limit: int | None = None) -> dict[str, Any]:
        """The ``/debug/requests`` document: flight records + SLO state."""
        doc = self.flight.to_dict(limit)
        doc["slo"] = self.slo.snapshot()
        return doc

    def health_snapshot(self) -> dict[str, Any]:
        """``/healthz`` body: liveness plus the load-bearing gauges."""
        return {
            "ok": True,
            "ready": self.ready,
            "draining": self.draining,
            "breaker": self.breaker.state.value,
            "breaker_trips": self.breaker.trips,
            "pool_alive": self.pool.pool_alive,
            "bank_heals": self.pool.bank_heals,
            "live_segments": list(live_segment_names()),
        }
