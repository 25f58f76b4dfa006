"""Unit tests: request context, flight recorder, SLO tracker, profiler, top.

The serve-integration twins (ids over HTTP, span adoption across pool
death) live in ``tests/test_serve_tracing.py``; everything here runs
without a server, and only the profiler's fork test starts a (two-worker)
process pool.
"""

import json
import re
import threading

import pytest

from repro.obs.context import RequestContext, accept_request_id, mint_request_id
from repro.obs.export import validate_flight_records
from repro.obs.flight import FlightRecord, FlightRecorder, RequestTraceStore
from repro.obs.metrics import MetricsRegistry
from repro.obs.profile import PROFILE_VERSION, SamplingProfiler
from repro.obs.slo import SloConfig, SloTracker
from repro.serve.top import histogram_quantile, parse_prometheus, render_frame


class TestRequestContext:
    def test_minted_ids_are_wellformed_and_unique(self):
        ids = {mint_request_id() for _ in range(64)}
        assert len(ids) == 64
        assert all(re.fullmatch(r"[0-9a-f]{32}", i) for i in ids)

    def test_wellformed_inbound_id_is_honoured(self):
        assert accept_request_id("client-42.A_b") == "client-42.A_b"

    @pytest.mark.parametrize(
        "bad",
        [None, "", "a/b", "../etc", "a b", "-leading", "x" * 65, "a\nb"],
    )
    def test_malformed_inbound_id_is_replaced(self, bad):
        got = accept_request_id(bad)
        assert got != bad
        assert re.fullmatch(r"[0-9a-f]{32}", got)

    def test_context_new_always_mints_a_fresh_trace_id(self):
        a = RequestContext.new("same-id")
        b = RequestContext.new("same-id")
        assert a.request_id == b.request_id == "same-id"
        assert a.trace_id != b.trace_id

    def test_context_is_frozen(self):
        ctx = RequestContext.new()
        with pytest.raises(AttributeError):
            ctx.request_id = "other"


def _record(i, **over):
    kw = dict(
        request_id=f"req-{i}",
        trace_id=f"trace-{i}",
        request_index=i,
        status="ok",
        code=200,
        breakdown={"queue": 0.001, "total": 0.1},
        degraded=False,
    )
    kw.update(over)
    return FlightRecord(**kw)


class TestFlightRecorder:
    def test_ring_keeps_newest_and_counts_drops(self):
        recorder = FlightRecorder(capacity=4)
        for i in range(10):
            recorder.record(_record(i))
        assert recorder.recorded == 10
        assert recorder.dropped == 6
        snapshot = recorder.snapshot()
        assert [r["request_index"] for r in snapshot] == [9, 8, 7, 6]
        assert [r["request_index"] for r in recorder.snapshot(limit=2)] == [9, 8]

    def test_find_returns_newest_match(self):
        recorder = FlightRecorder(capacity=8)
        recorder.record(_record(0, request_id="dup", status="error", code=500))
        recorder.record(_record(1, request_id="dup"))
        found = recorder.find("dup")
        assert found is not None and found["request_index"] == 1
        assert recorder.find("absent") is None

    def test_document_is_schema_valid_and_dumpable(self, tmp_path):
        recorder = FlightRecorder(capacity=4)
        recorder.record(_record(0))
        recorder.record(
            _record(
                1,
                status="shed",
                code=429,
                shed_reason="queue-full",
                retry_after=0.5,
            )
        )
        doc = recorder.to_dict()
        assert validate_flight_records(doc) == []
        out = tmp_path / "flight.json"
        recorder.dump(str(out))
        assert validate_flight_records(json.loads(out.read_text())) == []

    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            FlightRecorder(capacity=0)


class TestRequestTraceStore:
    def test_eviction_and_newest_wins(self):
        store = RequestTraceStore(capacity=2)
        store.retain({"request_id": "a", "n": 1})
        store.retain({"request_id": "b", "n": 1})
        store.retain({"request_id": "a", "n": 2})  # refresh: a becomes newest
        store.retain({"request_id": "c", "n": 1})  # evicts b, not a
        assert store.get("b") is None
        assert store.get("a") == {"request_id": "a", "n": 2}
        assert store.ids() == ["a", "c"]


class TestSloTracker:
    def make(self, **cfg):
        cfg.setdefault("latency_objective_seconds", 1.0)
        cfg.setdefault("windows", (("5m", 300.0),))
        registry = MetricsRegistry()
        return SloTracker(SloConfig(**cfg), registry), registry

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SloConfig(latency_objective_seconds=0.0)
        with pytest.raises(ValueError):
            SloConfig(latency_target=1.0)
        with pytest.raises(ValueError):
            SloConfig(windows=())
        with pytest.raises(ValueError):
            SloConfig(windows=(("zero", 0.0),))

    def test_burn_rate_math(self):
        tracker, _ = self.make(availability_target=0.99, latency_target=0.95)
        now = 10_000.0
        for i in range(98):
            tracker.record(True, 0.1, f"ok-{i}", now=now)
        tracker.record(False, 0.1, "bad-0", now=now)
        tracker.record(False, 0.1, "bad-1", now=now)
        burns = tracker.burn_rates(now=now)["5m"]
        # 2 bad of 100 against a 1% budget: burning 2x the budget.
        assert burns["availability"] == pytest.approx(2.0)
        assert burns["latency"] == 0.0

    def test_slow_ok_requests_burn_latency_budget_only(self):
        tracker, _ = self.make(latency_target=0.95)
        now = 10_000.0
        for i in range(9):
            tracker.record(True, 0.1, f"fast-{i}", now=now)
        tracker.record(True, 5.0, "slow-0", now=now)
        burns = tracker.burn_rates(now=now)["5m"]
        assert burns["availability"] == 0.0
        # 1 slow of 10 against a 5% budget: burning 2x.
        assert burns["latency"] == pytest.approx(2.0)

    def test_old_buckets_age_out_of_the_window(self):
        tracker, _ = self.make()
        tracker.record(False, 0.1, "old", now=1_000.0)
        assert tracker.burn_rates(now=1_000.0)["5m"]["availability"] > 0
        assert tracker.burn_rates(now=2_000.0)["5m"]["availability"] == 0.0

    def test_empty_window_burns_zero(self):
        tracker, _ = self.make()
        assert tracker.burn_rates(now=0.0)["5m"] == {
            "availability": 0.0,
            "latency": 0.0,
        }

    def test_publish_registers_and_refreshes_gauges(self):
        tracker, registry = self.make()
        tracker.register_gauges()
        gauge = registry.gauge("serve_slo_burn_rate", slo="availability", window="5m")
        assert gauge.value == 0.0
        now = 10_000.0
        tracker.record(False, 0.1, "bad", now=now)
        tracker.publish(now=now)
        assert gauge.value > 0

    def test_snapshot_carries_exemplars_by_bucket_edge(self):
        tracker, _ = self.make()
        now = 10_000.0
        tracker.record(True, 0.0005, "sub-ms", now=now)
        tracker.record(True, 2.0, "two-sec", now=now)
        snap = tracker.snapshot(now=now)
        assert snap["objectives"]["latency_objective_seconds"] == 1.0
        # 0.0005 s lands at the 0.001 edge, 2.0 s at the 3 edge.
        assert snap["latency_exemplars"]["0.001"] == "sub-ms"
        assert snap["latency_exemplars"]["3"] == "two-sec"


def _square(x):
    return x * x


class TestSamplingProfiler:
    def test_interval_validation(self):
        with pytest.raises(ValueError):
            SamplingProfiler(interval_seconds=0.0)

    def test_run_for_collects_samples_with_phases(self):
        profiler = SamplingProfiler(interval_seconds=0.002)
        report = profiler.run_for(0.2)
        assert report is not None
        assert report["version"] == PROFILE_VERSION
        assert report["ticks"] > 0 and report["samples"] > 0
        assert report["window_seconds"] == 0.2
        # The waiting main thread is in run_for → _SLEEP.wait: some stack
        # must exist and each collapsed line ends with its count.
        assert all(
            line.rsplit(" ", 1)[1].isdigit() for line in report["collapsed"]
        )
        assert sum(report["phases"].values()) == report["samples"]
        # The sampler never samples itself.
        assert not any("profile-sampler" in line for line in report["collapsed"])

    def test_gapped_stage_samples_count_as_step3(self):
        stop = threading.Event()

        def gapped_stage():
            while not stop.is_set():
                pass

        profiler = SamplingProfiler(interval_seconds=0.002)
        worker = threading.Thread(target=gapped_stage)
        worker.start()
        try:
            report = profiler.run_for(0.2)
        finally:
            stop.set()
            worker.join()
        assert report is not None
        assert report["phases"].get("step3", 0) > 0
        assert "merge" not in report["phases"]

    def test_busy_thread_does_not_starve_the_sampler(self):
        # The sampler needs the GIL to wake, so a pure-Python busy loop
        # slows it to about one tick per interval plus one switch
        # interval; 25 of a nominal 100 ticks is a loose floor for CI.
        stop = threading.Event()

        def gapped_stage():
            while not stop.is_set():
                pass

        profiler = SamplingProfiler(interval_seconds=0.01)
        worker = threading.Thread(target=gapped_stage)
        worker.start()
        try:
            report = profiler.run_for(1.0)
        finally:
            stop.set()
            worker.join()
        assert report is not None
        assert report["ticks"] >= 25
        assert report["phases"].get("step3", 0) >= 25

    def test_run_for_refused_while_session_running(self):
        profiler = SamplingProfiler(interval_seconds=0.005)
        profiler.start()
        try:
            assert profiler.running
            assert profiler.run_for(0.01) is None
        finally:
            profiler.stop()
        assert not profiler.running
        assert profiler.report()["version"] == PROFILE_VERSION

    def test_run_for_refused_while_window_in_flight(self):
        profiler = SamplingProfiler(interval_seconds=0.005)
        reports = []
        first = threading.Thread(target=lambda: reports.append(profiler.run_for(0.5)))
        first.start()
        try:
            # Wait (bounded) until the first window's sampler is running.
            for _ in range(400):
                if any(t.name == "profile-sampler" for t in threading.enumerate()):
                    break
                first.join(timeout=0.001)
            assert profiler.run_for(0.01) is None
            with pytest.raises(RuntimeError):
                profiler.start()
        finally:
            first.join(timeout=5.0)
        assert not first.is_alive()
        assert reports[0] is not None and reports[0]["ticks"] > 0

    def test_racing_windows_never_run_two_samplers(self):
        # Many racing windows under a tiny switch interval: all finish,
        # each admitted report is whole, and no second sampler thread is
        # ever seen while one is alive.
        import sys

        profiler = SamplingProfiler(interval_seconds=0.001)
        done = threading.Event()
        admitted = []
        peak = [0]

        def monitor():
            while not done.is_set():
                live = sum(
                    t.name == "profile-sampler" for t in threading.enumerate()
                )
                peak[0] = max(peak[0], live)

        def racer():
            for _ in range(5):
                report = profiler.run_for(0.01)
                if report is not None:
                    admitted.append(report)

        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        watcher = threading.Thread(target=monitor)
        racers = [threading.Thread(target=racer) for _ in range(6)]
        try:
            watcher.start()
            for t in racers:
                t.start()
            for t in racers:
                t.join(timeout=30.0)
        finally:
            done.set()
            watcher.join(timeout=5.0)
            sys.setswitchinterval(old)
        assert not any(t.is_alive() for t in racers)
        assert peak[0] == 1
        assert admitted
        assert all(sum(r["phases"].values()) == r["samples"] for r in admitted)

    def test_report_refused_while_armed(self):
        profiler = SamplingProfiler(interval_seconds=0.01)
        profiler.start()
        try:
            with pytest.raises(RuntimeError):
                profiler.report()
        finally:
            profiler.stop()

    def test_fork_pool_inside_session(self):
        # No at-fork state: a fork pool started mid-session runs normally
        # (the child gets no sampler thread) and the session report stays
        # readable afterwards.
        import multiprocessing as mp
        from concurrent.futures import ProcessPoolExecutor

        profiler = SamplingProfiler(interval_seconds=0.002)
        profiler.start()
        try:
            with ProcessPoolExecutor(
                max_workers=2, mp_context=mp.get_context("fork")
            ) as pool:
                results = list(pool.map(_square, range(8), timeout=60.0))
        finally:
            profiler.stop()
        assert results == [x * x for x in range(8)]
        report = profiler.report()
        assert report["version"] == PROFILE_VERSION
        assert report["ticks"] > 0
        assert sum(report["phases"].values()) == report["samples"]


SCRAPE = """\
# TYPE serve_requests_total counter
serve_requests_total{status="ok"} 9
serve_requests_total{status="error"} 1
# TYPE serve_shed_total counter
serve_shed_total 2
# TYPE serve_queue_depth_current gauge
serve_queue_depth_current 1
# TYPE serve_pool_workers gauge
serve_pool_workers 2
# TYPE serve_resident_bank_bytes gauge
serve_resident_bank_bytes 1048576
# TYPE serve_breaker_state gauge
serve_breaker_state 0
# TYPE serve_slo_burn_rate gauge
serve_slo_burn_rate{slo="availability",window="5m"} 1.5
# TYPE serve_request_seconds histogram
serve_request_seconds_bucket{le="0.1"} 6
serve_request_seconds_bucket{le="1"} 9
serve_request_seconds_bucket{le="+Inf"} 10
serve_request_seconds_sum 4.2
serve_request_seconds_count 10
"""


class TestServeTop:
    def test_parse_prometheus(self):
        sample = parse_prometheus(SCRAPE)
        assert sample[("serve_requests_total", (("status", "ok"),))] == 9.0
        assert sample[("serve_shed_total", ())] == 2.0
        assert (
            sample[("serve_request_seconds_bucket", (("le", "+Inf"),))] == 10.0
        )
        # Garbage lines are skipped, not fatal.
        assert parse_prometheus("not a metric\n# comment\n") == {}

    def test_histogram_quantile_interpolates(self):
        buckets = [(0.1, 6.0), (1.0, 9.0), (float("inf"), 10.0)]
        # p50: rank 5 inside the first bucket → 0.1 * 5/6.
        assert histogram_quantile(buckets, 0.50) == pytest.approx(0.1 * 5 / 6)
        # p90: rank 9 lands exactly on the 1s edge.
        assert histogram_quantile(buckets, 0.90) == pytest.approx(1.0)
        # p99 falls in +Inf: reports the highest finite edge.
        assert histogram_quantile(buckets, 0.99) == pytest.approx(1.0)
        assert histogram_quantile([], 0.5) is None
        assert histogram_quantile([(0.1, 0.0)], 0.5) is None

    def test_render_frame_first_sample_and_delta(self):
        cur = {
            "at": 100.0,
            "metrics": parse_prometheus(SCRAPE),
            "debug": {
                "records": [
                    {
                        "request_id": "abc",
                        "status": "ok",
                        "code": 200,
                        "breakdown": {"total": 0.25},
                        "retry_events": 1,
                    }
                ]
            },
        }
        first = render_frame(None, cur, "localhost", 8641)
        assert "first sample" in first and "abc" in first
        assert "breaker closed" in first
        assert "availability/5m=1.50" in first
        later = dict(cur, at=110.0, metrics=parse_prometheus(
            SCRAPE.replace('status="ok"} 9', 'status="ok"} 29')
        ))
        frame = render_frame(cur, later, "localhost", 8641)
        assert "qps    2.00" in frame  # 20 served over 10 s

    def test_render_frame_unreachable(self):
        assert "unreachable" in render_frame(None, None, "localhost", 1)
