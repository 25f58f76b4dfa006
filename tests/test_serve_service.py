"""Service-level tests: bit-identity, chaos recovery, drain, metrics.

These run real warm worker pools (small banks, 2 workers) — the serving
analogue of ``tests/test_executor.py``'s end-to-end chaos runs.  The
load-bearing assertion throughout: every request the service *completes*
returns alignments bit-identical to a cold one-shot
``SeedComparisonPipeline.compare_banks`` of the same query bank, whatever
faults were injected around it.
"""

import threading
import time
from multiprocessing.process import BaseProcess

import numpy as np
import pytest

from repro.core.config import PipelineConfig
from repro.core.executor import ShardedStep2Executor, live_segment_names
from repro.core.faults import FaultKind, FaultPlan, FaultSpec
from repro.core.pipeline import SeedComparisonPipeline
from repro.core.profile import RunHealth
from repro.core.supervisor import DeadlineExceeded
from repro.index.kmer import BankIndex, TwoBankIndex
from repro.obs.export import validate_serve_metrics
from repro.obs.metrics import prometheus_text
from repro.seqs.sequence import BankBuilder
from repro.serve import (
    BreakerConfig,
    BreakerState,
    SearchService,
    ServiceConfig,
)
from repro.serve.pool import WARM_MIN_PAIRS_PER_SHARD, WarmPool

AA = "ACDEFGHIKLMNPQRSTVWY"


def _rand_seq(rng, n):
    return "".join(AA[i] for i in rng.integers(0, 20, n))


@pytest.fixture(scope="module")
def serve_workload():
    """Resident bank + query bank sharing a planted motif (real hits)."""
    rng = np.random.default_rng(11)
    motif = _rand_seq(rng, 60)
    rb = BankBuilder()
    for i in range(10):
        rb.add(f"res{i}", _rand_seq(rng, 50) + motif + _rand_seq(rng, 50))
    qb = BankBuilder()
    for i in range(3):
        qb.add(f"qry{i}", _rand_seq(rng, 20) + motif + _rand_seq(rng, 20))
    return qb.build(), rb.build()


@pytest.fixture(scope="module")
def cold_rows(serve_workload):
    """The ground truth: a cold one-shot single-process run."""
    queries, resident = serve_workload
    report = SeedComparisonPipeline(PipelineConfig(workers=1)).compare_banks(
        queries, resident
    )
    return report_rows(report)


def report_rows(report):
    return [
        (a.seq0_name, a.seq1_name, a.start0, a.end0, a.start1, a.end1,
         a.raw_score, a.ungapped_score, a.bit_score, a.evalue)
        for a in report.alignments
    ]


def response_rows(body):
    return [
        (r["query"], r["subject"], *r["query_range"], *r["subject_range"],
         r["raw_score"], r["ungapped_score"], r["bit_score"], r["evalue"])
        for r in body["alignments"]
    ]


def metric_value(text, series):
    """Value of one exposed series (name plus labels) in a scrape."""
    for line in text.splitlines():
        if line.startswith(series + " "):
            return float(line.rsplit(" ", 1)[1])
    raise AssertionError(f"{series} not exposed")


def make_service(serve_workload, fault_plan=None, **service_kw):
    queries, resident = serve_workload
    service_kw.setdefault("workers", 2)
    # These banks sit far below the warm pair floor; a floor of 0 keeps
    # every shardable request on the pool, which is what these tests test.
    service_kw.setdefault("min_pairs_per_shard", 0)
    svc = SearchService(
        PipelineConfig(workers=2),
        resident,
        ServiceConfig(**service_kw),
        fault_plan=fault_plan,
    )
    svc.start(warm=True)
    return svc, queries


class TestBitIdentity:
    def test_warm_pool_matches_cold_run(self, serve_workload, cold_rows):
        svc, queries = make_service(serve_workload)
        try:
            first = svc.submit(queries)
            second = svc.submit(queries)
            assert first["code"] == 200 and second["code"] == 200
            assert response_rows(first) == cold_rows
            assert response_rows(second) == cold_rows
            assert first["n_alignments"] == len(cold_rows)
            assert not first["degraded"]
        finally:
            assert svc.drain(timeout=30)

    def test_degraded_path_matches_cold_run(self, serve_workload, cold_rows):
        svc, queries = make_service(serve_workload)
        try:
            # Force the breaker open: the in-process degraded path must be
            # correct-but-slower, not approximately correct.
            for _ in range(svc.breaker.config.failure_threshold):
                svc.breaker.record_failure()
            assert svc.breaker.state is BreakerState.OPEN
            out = svc.submit(queries)
            assert out["code"] == 200
            assert out["degraded"]
            assert response_rows(out) == cold_rows
        finally:
            svc.drain(timeout=30)

    def test_single_worker_service_matches_cold_run(
        self, serve_workload, cold_rows
    ):
        svc, queries = make_service(serve_workload, workers=1)
        try:
            out = svc.submit(queries)
            assert out["code"] == 200
            assert response_rows(out) == cold_rows
        finally:
            svc.drain(timeout=30)

    def test_max_alignments_truncates_response_not_counts(
        self, serve_workload, cold_rows
    ):
        svc, queries = make_service(serve_workload)
        try:
            out = svc.submit(queries, max_alignments=2)
            assert out["code"] == 200
            assert len(out["alignments"]) == 2
            assert out["n_alignments"] == len(cold_rows)
            assert response_rows(out) == cold_rows[:2]
        finally:
            svc.drain(timeout=30)


class TestPipelineEquivalence:
    def test_compare_against_index_equals_compare_banks(self, serve_workload):
        from repro.index.kmer import BankIndex

        queries, resident = serve_workload
        config = PipelineConfig(workers=1)
        cold = SeedComparisonPipeline(config).compare_banks(queries, resident)
        resident_index = BankIndex(resident, config.seed_model)
        warm = SeedComparisonPipeline(config).compare_against_index(
            queries, resident_index
        )
        assert report_rows(warm) == report_rows(cold)
        assert warm.n_seed_pairs == cold.n_seed_pairs
        assert warm.n_ungapped_hits == cold.n_ungapped_hits


class TestChaos:
    def test_seeded_chaos_recovers_and_stays_bit_identical(
        self, serve_workload, cold_rows
    ):
        plan = FaultPlan(
            seed=2201,
            specs=(
                FaultSpec(kind=FaultKind.POOL_DEATH, request=1),
                FaultSpec(kind=FaultKind.QUEUE_OVERFLOW, request=2),
                FaultSpec(kind=FaultKind.CORRUPT_WARM_BANK, request=3),
            ),
        )
        svc, queries = make_service(serve_workload, fault_plan=plan)
        try:
            outcomes = [svc.submit(queries) for _ in range(5)]
            codes = [o["code"] for o in outcomes]
            assert codes == [200, 200, 429, 200, 200]
            shed = outcomes[2]
            assert shed["status"] == "shed"
            assert shed["retry_after"] == pytest.approx(1.0)
            for out in outcomes:
                if out["code"] == 200:
                    assert response_rows(out) == cold_rows
            # the pool death shows up as an unhealthy run, then recovery
            assert svc.pool.bank_heals == 1
            snap = svc.health_snapshot()
            assert snap["bank_heals"] == 1
            assert snap["pool_alive"]
        finally:
            assert svc.drain(timeout=30)
        assert live_segment_names() == ()

    def test_breaker_trips_and_recovers_under_repeated_pool_death(
        self, serve_workload, cold_rows
    ):
        threshold = 3
        plan = FaultPlan(
            seed=99,
            specs=tuple(
                FaultSpec(kind=FaultKind.POOL_DEATH, request=i)
                for i in range(threshold)
            ),
        )
        # A dwell no slow run can outlast: the open-phase assertions below
        # must observe the breaker before its reset, and wall-clock sleeps
        # made this racy (slow pool-death requests burned through a short
        # dwell before the degraded submit).  The recovery phase rewinds
        # ``_opened_at`` instead of sleeping.
        dwell = 300.0
        svc, queries = make_service(
            serve_workload,
            fault_plan=plan,
            breaker=BreakerConfig(failure_threshold=threshold, reset_seconds=dwell),
        )
        try:
            for i in range(threshold):
                out = svc.submit(queries)
                assert out["code"] == 200
                assert response_rows(out) == cold_rows
            assert svc.breaker.trips == 1
            # while open: degraded but still bit-identical
            degraded = svc.submit(queries)
            assert degraded["code"] == 200
            assert degraded["degraded"]
            assert response_rows(degraded) == cold_rows
            # after the dwell the half-open probe succeeds and closes it;
            # expire the dwell deterministically rather than sleeping it out
            svc.breaker._opened_at -= dwell
            probe = svc.submit(queries)
            assert probe["code"] == 200
            assert response_rows(probe) == cold_rows
            assert svc.breaker.state is BreakerState.CLOSED
            assert svc.breaker.trips == 1
        finally:
            svc.drain(timeout=30)

    def test_corrupt_warm_bank_heals_via_crc(self, serve_workload, cold_rows):
        svc, queries = make_service(serve_workload)
        try:
            svc.pool.corrupt_staged_bank(request=0)
            assert svc.pool.heal_if_corrupt()
            assert svc.pool.bank_heals == 1
            assert not svc.pool.heal_if_corrupt()  # already pristine
            out = svc.submit(queries)
            assert out["code"] == 200
            assert response_rows(out) == cold_rows
        finally:
            svc.drain(timeout=30)


class TestDeadlines:
    def test_expired_deadline_answers_504(self, serve_workload):
        svc, queries = make_service(serve_workload)
        try:
            out = svc.submit(queries, deadline_seconds=0.0)
            assert out["code"] == 504
            assert out["status"] == "deadline"
        finally:
            svc.drain(timeout=30)

    def test_deadline_miss_leaves_survivors_bit_identical(
        self, serve_workload, cold_rows
    ):
        svc, queries = make_service(serve_workload)
        try:
            missed = svc.submit(queries, deadline_seconds=0.0)
            assert missed["code"] == 504
            # the cancelled request must not poison the warm state: the
            # next request is served and bit-identical
            survivor = svc.submit(queries)
            assert survivor["code"] == 200
            assert response_rows(survivor) == cold_rows
            # a client's aggressive deadline alone must not trip the breaker
            assert svc.breaker.trips == 0
        finally:
            svc.drain(timeout=30)

    def test_default_deadline_from_config(self, serve_workload):
        svc, queries = make_service(
            serve_workload, default_deadline_seconds=0.0
        )
        try:
            out = svc.submit(queries)
            assert out["code"] == 504
        finally:
            svc.drain(timeout=30)

    def test_mid_run_deadline_with_healthy_pool_spares_breaker(
        self, serve_workload
    ):
        # A deadline that expires *after* dispatch (not caught by the
        # pre-dispatch expiry check) with a healthy pool is purely the
        # client's miss: it must record a breaker success, never a
        # failure counting toward the trip threshold.
        svc, queries = make_service(serve_workload)

        def expire_mid_run(ticket, use_pool):
            svc.pool.last_health = RunHealth(shards=2)
            raise DeadlineExceeded(
                "request deadline expired during gapped extension",
                svc.pool.last_health,
                (),
            )

        svc._run = expire_mid_run
        try:
            out = svc.submit(queries, deadline_seconds=30.0)
            assert out["code"] == 504
            assert svc.breaker.trips == 0
            assert svc.breaker.state is BreakerState.CLOSED
            assert svc.breaker._consecutive_failures == 0
        finally:
            svc.drain(timeout=30)

    def test_mid_run_deadline_with_pool_fault_counts_failure(
        self, serve_workload
    ):
        # The same mid-run expiry caused by a real pool fault must count:
        # with a threshold of 1 it trips the breaker outright.
        svc, queries = make_service(
            serve_workload,
            breaker=BreakerConfig(failure_threshold=1, reset_seconds=300.0),
        )

        def crash_mid_run(ticket, use_pool):
            svc.pool.last_health = RunHealth(shards=2, crashes=1)
            raise DeadlineExceeded(
                "run deadline expired with 1 shard(s) unfinished",
                svc.pool.last_health,
                (1,),
            )

        svc._run = crash_mid_run
        try:
            out = svc.submit(queries, deadline_seconds=30.0)
            assert out["code"] == 504
            assert svc.breaker.trips == 1
            assert svc.breaker.state is BreakerState.OPEN
        finally:
            svc.drain(timeout=30)

    def test_mid_step2_deadline_miss_reaches_metrics(self, serve_workload):
        # Shard 0 hangs past the request deadline, so the supervisor
        # cancels the run mid step 2.  The engine publishes the cut-off
        # run's health before DeadlineExceeded propagates, so /metrics
        # counts the cancellation, not only pool.last_health.
        plan = FaultPlan(
            seed=3,
            specs=(
                FaultSpec(FaultKind.HANG, shard=0, attempt=0, hang_seconds=30.0),
            ),
        )
        svc, queries = make_service(serve_workload, fault_plan=plan)
        try:
            out = svc.submit(queries, deadline_seconds=1.0)
            assert out["code"] == 504
            assert svc.pool.last_health.cancelled >= 1
            cancelled = metric_value(
                svc.metrics_text(),
                'step2_supervisor_events_total{kind="cancelled"}',
            )
            assert cancelled >= 1
        finally:
            svc.drain(timeout=30)

    def test_in_process_step3_stops_at_the_deadline(
        self, serve_workload, monkeypatch
    ):
        # The breaker is open, so step 3 runs in-process.  The clock jumps
        # past the deadline on the third lockstep row step: the request
        # answers 504 and step 3 stops right there, one cancelled unit.
        from repro.core import pipeline
        from repro.obs import trace

        svc, queries = make_service(serve_workload)
        skew, rows, expire_at = [0.0], [], [None]
        clock, lockstep = trace.clock, pipeline.lockstep_halves
        monkeypatch.setattr(trace, "clock", lambda: clock() + skew[0])

        def late_rows(*args, tick, **kwargs):
            def row():
                rows.append(1)
                if len(rows) == expire_at[0]:
                    skew[0] = 3600.0
                tick()

            return lockstep(*args, tick=row, **kwargs)

        monkeypatch.setattr(pipeline, "lockstep_halves", late_rows)
        try:
            for _ in range(svc.breaker.config.failure_threshold):
                svc.breaker.record_failure()
            full = svc.submit(queries, deadline_seconds=30.0)
            assert full["code"] == 200 and full["degraded"]
            all_rows, rows[:] = len(rows), []
            expire_at[0] = 3
            out = svc.submit(queries, deadline_seconds=30.0)
            assert out["code"] == 504
            assert "gapped extension" in out["error"]
            assert len(rows) == 3 < all_rows
            cancelled = metric_value(
                svc.metrics_text(), 'step3_supervisor_events_total{kind="cancelled"}'
            )
            assert cancelled == 1
        finally:
            skew[0] = 0.0
            svc.drain(timeout=30)

    def test_deadline_outlasting_max_wait_is_served_not_500(
        self, serve_workload, cold_rows
    ):
        # The handler parks min(max_wait, deadline) + grace on its
        # ticket: with a tiny max_wait but a generous grace, a dispatch
        # slower than max_wait must still answer 200, not a spurious
        # "dispatcher unresponsive" 500.
        svc, queries = make_service(
            serve_workload, max_wait_seconds=0.05, deadline_grace_seconds=60.0
        )
        real_handle = svc._handle

        def slow_handle(ticket):
            time.sleep(0.3)
            real_handle(ticket)

        svc._handle = slow_handle
        try:
            out = svc.submit(queries, deadline_seconds=30.0)
            assert out["code"] == 200
            assert response_rows(out) == cold_rows
        finally:
            svc.drain(timeout=30)


class TestDrain:
    def test_drain_releases_everything_and_rejects_new_work(
        self, serve_workload
    ):
        svc, queries = make_service(serve_workload)
        served = svc.submit(queries)
        assert served["code"] == 200
        assert live_segment_names() != ()  # staged bank is resident
        assert svc.drain(timeout=30)
        assert live_segment_names() == ()  # no shm leak after drain
        assert not svc.pool.pool_alive
        late = svc.submit(queries)
        assert late["code"] == 503
        assert not svc.ready
        # drain is idempotent
        assert svc.drain(timeout=5)

    def test_drain_cannot_race_a_just_dequeued_request(
        self, serve_workload, cold_rows
    ):
        # Regression: drain() used to sample "queue empty and not busy"
        # without coordination, so in the window between the dispatcher
        # dequeuing a ticket and setting _busy it could declare the
        # service idle and close the pool under the live request.  The
        # dequeue now happens inside the dispatch lock drain samples
        # under, so that window is unobservable.
        svc, queries = make_service(serve_workload)
        in_window = threading.Event()
        release = threading.Event()
        real_take = svc.queue.take_nowait

        def gated_take():
            ticket = real_take()
            if ticket is not None:
                in_window.set()
                release.wait(timeout=30)
            return ticket

        svc.queue.take_nowait = gated_take
        out = []
        worker = threading.Thread(
            target=lambda: out.append(svc.submit(queries))
        )
        worker.start()
        try:
            assert in_window.wait(timeout=30)
            # The ticket is out of the queue and _busy is not yet set —
            # exactly the old race window.  It sits inside the dispatch
            # lock, so drain's idle sample cannot run here:
            acquired = svc._dispatch_lock.acquire(timeout=0.2)
            if acquired:  # pragma: no cover - the regression itself
                svc._dispatch_lock.release()
            assert not acquired
            drained = []
            drainer = threading.Thread(
                target=lambda: drained.append(svc.drain(timeout=30))
            )
            drainer.start()
            release.set()
            drainer.join(timeout=60)
            worker.join(timeout=60)
            assert drained == [True]
            # the just-dequeued request was finished, not cut off
            assert out and out[0]["code"] == 200
            assert response_rows(out[0]) == cold_rows
        finally:
            release.set()
            svc.drain(timeout=5)


class TestForkOutsideLock:
    """No pool worker is forked while ``ShardedStep2Executor._pool_lock``
    (the warm pool's, by inheritance) is held: the child would inherit the
    lock locked and deadlock on its first acquire.  Under the ``fork``
    context ``ProcessPoolExecutor`` forks at its first ``submit``, not at
    construction, so the spy sits on the process start itself."""

    def test_workers_start_with_the_pool_lock_free(
        self, serve_workload, monkeypatch
    ):
        queries, resident = serve_workload
        config = PipelineConfig(workers=2)
        pool = WarmPool(config, resident, workers=2, min_pairs_per_shard=0)
        index = TwoBankIndex(
            BankIndex(queries, config.seed_model), pool.resident_index
        )
        held = []
        start = BaseProcess.start

        def spy(proc):
            held.append(pool._pool_lock.locked())
            start(proc)

        monkeypatch.setattr(BaseProcess, "start", spy)
        try:
            pool.warm_up()
            assert held == [False, False]
            pool.step2(index)
            assert [t.via for t in pool.last_timings] == ["pool", "pool"]
            pool.kill_workers()
            pool.step2(index)
            assert pool.last_health.pool_rebuilds >= 1
        finally:
            pool.close()
        assert len(held) >= 4
        assert not any(held)


class TestPoolUnavailable:
    """Where no pool can be had (``make_pool`` raises ``OSError``: no
    forks, no semaphores) the server still boots, and a request takes the
    in-process route with a warning — the one-shot's fallback — counted
    against the breaker, while the resident bank stays staged for the
    next request."""

    def test_request_falls_back_in_process(self, serve_workload, monkeypatch):
        queries, resident = serve_workload
        svc, _ = make_service(serve_workload)
        try:
            pooled = svc.submit(queries)
        finally:
            svc.drain(timeout=30)
        assert pooled["code"] == 200 and pooled["run_health"]["fallback_shards"] == 0

        def no_pool(self, bank, workers):
            raise OSError("no forks in this environment")

        monkeypatch.setattr(ShardedStep2Executor, "make_pool", no_pool)
        svc = SearchService(
            PipelineConfig(workers=2),
            resident,
            ServiceConfig(
                workers=2,
                min_pairs_per_shard=0,
                breaker=BreakerConfig(failure_threshold=2),
            ),
        )
        with pytest.warns(RuntimeWarning, match="warm-up pool unavailable"):
            svc.start(warm=True)
        try:
            staged = live_segment_names()
            assert len(staged) == 1
            for state in (BreakerState.CLOSED, BreakerState.OPEN):
                with pytest.warns(RuntimeWarning, match="pool unavailable"):
                    out = svc.submit(queries)
                assert out["code"] == 200
                # Everything but the run's health is the pooled response.
                for key in ("alignments", "n_alignments", "n_seed_pairs",
                            "n_ungapped_hits", "n_gapped_extensions"):
                    assert out[key] == pooled[key], key
                assert out["run_health"]["fallback_shards"] >= 1
                assert not svc.pool.last_health.healthy
                assert svc.breaker.state is state
                assert live_segment_names() == staged
                assert svc.pool.resident_bytes > 0
        finally:
            svc.drain(timeout=30)
        assert live_segment_names() == ()


class TestMetricsSurface:
    def test_exposition_matches_schema_after_traffic(
        self, serve_workload
    ):
        plan = FaultPlan(
            seed=5,
            specs=(FaultSpec(kind=FaultKind.QUEUE_OVERFLOW, request=1),),
        )
        svc, queries = make_service(serve_workload, fault_plan=plan)
        try:
            assert svc.submit(queries)["code"] == 200
            assert svc.submit(queries)["code"] == 429
            text = prometheus_text(svc.registry)
            assert validate_serve_metrics(text) == []
            assert 'serve_requests_total{status="ok"} 1' in text
            assert 'serve_requests_total{status="shed"} 1' in text
            assert "serve_shed_total 1" in text
            assert "serve_breaker_state 0" in text
        finally:
            svc.drain(timeout=30)

    def test_pooled_truncate_counts_one_retry(self, serve_workload, cold_rows):
        # Step-2 health is published once per run, by the engine: a second
        # publisher (the service used to add its own) would report 2.
        plan = FaultPlan(
            seed=4, specs=(FaultSpec(FaultKind.TRUNCATE, shard=0, attempt=0),)
        )
        svc, queries = make_service(serve_workload, fault_plan=plan)
        try:
            out = svc.submit(queries)
            assert out["code"] == 200
            assert response_rows(out) == cold_rows
            text = svc.metrics_text()
            for kind in ("retries", "truncated"):
                series = f'step2_supervisor_events_total{{kind="{kind}"}}'
                assert metric_value(text, series) == 1
        finally:
            svc.drain(timeout=30)

    def test_step3_funnel_after_a_request(self, serve_workload):
        svc, queries = make_service(serve_workload)
        try:
            out = svc.submit(queries)
            assert out["code"] == 200
            text = svc.metrics_text()
            anchors = metric_value(text, "step3_anchors_total")
            extensions = metric_value(text, "step3_extensions_total")
            assert anchors == out["n_ungapped_hits"]
            assert extensions == out["n_gapped_extensions"] > 0
            assert metric_value(text, "step3_contained_total") == anchors - extensions
            assert metric_value(text, "step3_cells_total") > 0
            alignments = metric_value(text, "step3_alignments_total")
            assert alignments == out["n_alignments"] == len(out["alignments"])
            assert 0 < alignments <= extensions
        finally:
            svc.drain(timeout=30)

    def test_full_surface_present_from_boot(self, serve_workload):
        svc, _ = make_service(serve_workload)
        try:
            text = prometheus_text(svc.registry)
            for family in (
                "serve_shed_total",
                "serve_queue_depth",
                "serve_queue_wait_seconds",
                "serve_request_seconds",
                "serve_breaker_state",
                "serve_breaker_trips_total",
                "serve_degraded_requests_total",
                "serve_bank_heals_total",
            ):
                assert f"# TYPE {family} " in text
        finally:
            svc.drain(timeout=30)

    def test_health_snapshot_shape(self, serve_workload):
        svc, _ = make_service(serve_workload)
        try:
            snap = svc.health_snapshot()
            assert snap["ok"] and snap["ready"]
            assert snap["breaker"] == "closed"
            assert snap["pool_alive"]
            assert isinstance(snap["live_segments"], (list, tuple))
            assert len(snap["live_segments"]) == 1
        finally:
            svc.drain(timeout=30)


@pytest.fixture(scope="module")
def route_workload():
    """A ledger-shaped resident bank (4000 proteins of 200 aa) and two
    requests on either side of the warm pair floor at 2 workers."""
    rng = np.random.default_rng(31)
    rb = BankBuilder()
    for i in range(4000):
        rb.add(f"res{i}", _rand_seq(rng, 200))
    small, large = BankBuilder(), BankBuilder()
    for i in range(3):
        small.add(f"short{i}", _rand_seq(rng, 100))
    for i in range(24):
        large.add(f"long{i}", _rand_seq(rng, 100))
    return rb.build(), small.build(), large.build()


class TestWarmRoute:
    """``WarmPool.step2`` follows the engine's one route rule."""

    def test_pair_floor_routes_small_requests_in_process(self, route_workload):
        resident, small, large = route_workload
        config = PipelineConfig(workers=2)
        pool = WarmPool(config, resident, workers=2)
        floor = 2 * WARM_MIN_PAIRS_PER_SHARD
        try:
            pool.warm_up()
            for queries, via, fallbacks in (
                (small, ["local"], 1),
                (large, ["pool", "pool"], 0),
            ):
                index = TwoBankIndex(
                    BankIndex(queries, config.seed_model), pool.resident_index
                )
                if via == ["local"]:
                    # The floor was measured on ~11 k-pair requests.
                    assert 8_000 < index.total_pairs < 16_000
                    assert index.n_shared_keys >= 2 * pool.workers
                else:
                    assert index.total_pairs > floor
                hits = pool.step2(index)
                assert [t.via for t in pool.last_timings] == via
                assert pool.last_health.small_workload_fallbacks == fallbacks
                assert pool.last_health.healthy
                ref = ShardedStep2Executor(config.ungapped_config()).run(index)
                assert np.array_equal(hits.offsets0, ref.offsets0)
                assert np.array_equal(hits.offsets1, ref.offsets1)
                assert np.array_equal(hits.scores, ref.scores)
                assert hits.scores.dtype == ref.scores.dtype
                assert hits.stats == ref.stats
        finally:
            pool.close()
        assert live_segment_names() == ()

    def test_serve_cli_default_is_the_warm_floor(self):
        from repro.cli import build_parser

        parser = build_parser()
        serve = parser.parse_args(["serve", "bank.fasta"])
        assert serve.min_pairs_per_shard == WARM_MIN_PAIRS_PER_SHARD
        compare = parser.parse_args(["compare", "q.fasta", "g.fasta"])
        assert compare.min_pairs_per_shard == 1 << 18
        assert ServiceConfig().min_pairs_per_shard == WARM_MIN_PAIRS_PER_SHARD
