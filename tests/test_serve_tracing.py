"""Per-request observability through the real serve stack.

The tentpole contract under test: every request that reaches the
dispatcher yields one complete span tree — one ``serve.request`` root,
zero orphans, worker spans re-parented under their shard spans — joined
to a flight record and to the client's view by one request id, and that
contract survives the nastiest path we have: every warm worker killed
between admission and dispatch (``POOL_DEATH``), forcing the
supervisor's submit-time retry and a pool rebuild mid-request.
"""

import json
import threading

import numpy as np
import pytest

from repro.core.config import PipelineConfig
from repro.core.faults import FaultKind, FaultPlan, FaultSpec
from repro.obs.export import (
    validate_flight_records,
    validate_request_trace,
    validate_serve_metrics,
)
from repro.obs import trace as obstrace
from repro.seqs.sequence import BankBuilder
from repro.serve import SearchHTTPServer, SearchService, ServiceConfig
from repro.serve.client import run_load, search_request
from repro.serve.top import main as top_main

AA = "ACDEFGHIKLMNPQRSTVWY"


def _rand_seq(rng, n):
    return "".join(AA[i] for i in rng.integers(0, 20, n))


@pytest.fixture(scope="module")
def serve_workload():
    rng = np.random.default_rng(11)
    motif = _rand_seq(rng, 60)
    rb = BankBuilder()
    for i in range(10):
        rb.add(f"res{i}", _rand_seq(rng, 50) + motif + _rand_seq(rng, 50))
    qb = BankBuilder()
    for i in range(3):
        qb.add(f"qry{i}", _rand_seq(rng, 20) + motif + _rand_seq(rng, 20))
    return qb.build(), rb.build()


def make_service(serve_workload, fault_plan=None, **service_kw):
    queries, resident = serve_workload
    service_kw.setdefault("workers", 2)
    svc = SearchService(
        PipelineConfig(workers=2),
        resident,
        ServiceConfig(**service_kw),
        fault_plan=fault_plan,
    )
    svc.start(warm=True)
    return svc, queries


def span_forest_shape(spans):
    """(root names, orphan count) of an exported span list."""
    ids = {s["span_id"] for s in spans}
    roots = [s["name"] for s in spans if s["parent_id"] is None]
    orphans = [
        s for s in spans if s["parent_id"] is not None and s["parent_id"] not in ids
    ]
    return roots, len(orphans)


def wait_for_broken_pool(svc, timeout=10.0):
    """Block until the killed pool's executor has noticed it is broken.

    Submitting before the executor flips ``_broken`` would fail on the
    futures instead of at submit — a different (also handled) path; the
    deterministic test wants the submit-time one.
    """
    deadline = obstrace.clock() + timeout
    while obstrace.clock() < deadline:
        pool = svc.pool._pool
        if pool is None or getattr(pool, "_broken", False):
            return
        threading.Event().wait(timeout=0.05)
    raise AssertionError("pool never reported itself broken")


class TestSpanTreePerRequest:
    def test_complete_span_tree_and_flight_record(self, serve_workload):
        svc, queries = make_service(serve_workload)
        try:
            out = svc.submit(queries, request_id="req-base")
            assert out["code"] == 200 and out["request_id"] == "req-base"
            doc = svc.traces.get("req-base")
            assert doc is not None
            assert validate_request_trace(doc) == []
            assert doc["trace_id"] and doc["status"] == "ok"
            roots, orphans = span_forest_shape(doc["spans"])
            assert roots == ["serve.request"] and orphans == 0
            names = {s["name"] for s in doc["spans"]}
            assert {"step1.index", "step2.ungapped", "step2.shard",
                    "step2.worker", "step3.gapped"} <= names
            # Worker spans crossed the process boundary and re-parented
            # under their shard spans, each carrying the request id.
            shard_ids = {
                s["span_id"] for s in doc["spans"] if s["name"] == "step2.shard"
            }
            workers = [s for s in doc["spans"] if s["name"] == "step2.worker"]
            assert workers and all(s["parent_id"] in shard_ids for s in workers)
            assert all(
                s["attributes"]["request_id"] == "req-base"
                for s in doc["spans"]
                if s["name"] == "step2.shard"
            )
            record = svc.flight.find("req-base")
            assert record is not None
            assert record["trace_id"] == doc["trace_id"]
            assert record["status"] == "ok" and record["retry_events"] == 0
            breakdown = record["breakdown"]
            assert breakdown["total"] > 0
            assert set(breakdown) == {
                "queue", "step1", "step2", "step3", "dispatch", "total"
            }
            assert validate_serve_metrics(svc.metrics_text()) == []
        finally:
            assert svc.drain(timeout=30)

    def test_pool_death_retry_keeps_one_tree(self, serve_workload):
        svc, queries = make_service(serve_workload)
        try:
            warm = svc.submit(queries)
            assert warm["code"] == 200
            svc.pool.kill_workers()
            wait_for_broken_pool(svc)
            out = svc.submit(queries, request_id="req-retry")
            assert out["code"] == 200 and not out["degraded"]
            doc = svc.traces.get("req-retry")
            assert doc is not None and validate_request_trace(doc) == []
            roots, orphans = span_forest_shape(doc["spans"])
            assert roots == ["serve.request"] and orphans == 0
            # The rebuilt pool's worker spans still adopt under the same
            # request root — no second tree, no strays.
            shard_ids = {
                s["span_id"] for s in doc["spans"] if s["name"] == "step2.shard"
            }
            workers = [s for s in doc["spans"] if s["name"] == "step2.worker"]
            assert len(workers) >= 1
            assert all(s["parent_id"] in shard_ids for s in workers)
            # Exactly one submit-time retry event, attributed to this
            # request, on a span inside the tree.
            retries = [
                (s["name"], e)
                for s in doc["spans"]
                for e in s["events"]
                if e["name"] == "step2.retry"
            ]
            assert len(retries) == 1
            assert retries[0][1]["reason"] == "pool-broken"
            assert retries[0][1]["request_id"] == "req-retry"
            record = svc.flight.find("req-retry")
            assert record is not None
            assert record["status"] == "ok"
            assert record["retry_events"] == 1
        finally:
            assert svc.drain(timeout=30)

    def test_tracing_off_keeps_flight_records(self, serve_workload):
        svc, queries = make_service(serve_workload, tracing=False)
        try:
            out = svc.submit(queries, request_id="req-dark")
            assert out["code"] == 200 and out["request_id"] == "req-dark"
            assert svc.traces.get("req-dark") is None
            record = svc.flight.find("req-dark")
            assert record is not None and record["status"] == "ok"
        finally:
            assert svc.drain(timeout=30)

    def test_tracing_off_keeps_worker_metrics(self, serve_workload):
        # Workers record whenever the run is observed — a live metrics
        # registry is enough, as for an in-process request.
        svc, queries = make_service(serve_workload, tracing=False)
        try:
            out = svc.submit(queries, request_id="req-dark-pool")
            assert out["code"] == 200
            timings = svc.pool.last_timings
            assert timings and all(t.via == "pool" for t in timings)
            counts = [
                line for line in svc.metrics_text().splitlines()
                if line.startswith("step2_batch_pairs_count")
            ]
            assert counts and int(counts[0].split()[-1]) >= len(timings)
        finally:
            assert svc.drain(timeout=30)


class TestShedDrainSpool:
    def test_injected_shed_is_recorded_with_id(self, serve_workload):
        plan = FaultPlan(
            (FaultSpec(FaultKind.QUEUE_OVERFLOW, request=0),), seed=5
        )
        svc, queries = make_service(serve_workload, fault_plan=plan)
        try:
            out = svc.submit(queries, request_id="req-shed")
            assert out["code"] == 429 and out["request_id"] == "req-shed"
            record = svc.flight.find("req-shed")
            assert record is not None
            assert record["status"] == "shed"
            assert record["shed_reason"] == "injected"
            assert record["retry_after"] == out["retry_after"]
            ok = svc.submit(queries, request_id="req-after-shed")
            assert ok["code"] == 200
        finally:
            assert svc.drain(timeout=30)

    def test_trace_dir_spools_traces_and_drain_dumps_flight(
        self, serve_workload, tmp_path
    ):
        svc, queries = make_service(serve_workload, trace_dir=str(tmp_path))
        try:
            out = svc.submit(queries, request_id="req-spool")
            assert out["code"] == 200
        finally:
            assert svc.drain(timeout=30)
        spooled = list(tmp_path.glob("trace-*-req-spool.json"))
        assert len(spooled) == 1
        assert validate_request_trace(json.loads(spooled[0].read_text())) == []
        dump = tmp_path / "flight_records.json"
        assert dump.exists()
        doc = json.loads(dump.read_text())
        assert validate_flight_records(doc) == []
        assert any(r["request_id"] == "req-spool" for r in doc["records"])

    def test_draining_rejection_carries_id(self, serve_workload):
        svc, queries = make_service(serve_workload)
        assert svc.drain(timeout=30)
        out = svc.submit(queries, request_id="req-late")
        assert out["code"] == 503 and out["request_id"] == "req-late"
        record = svc.flight.find("req-late")
        assert record is not None and record["status"] == "draining"


@pytest.fixture(scope="module")
def http_server(serve_workload):
    queries, resident = serve_workload
    svc = SearchService(
        PipelineConfig(workers=2), resident, ServiceConfig(workers=2)
    )
    svc.start(warm=True)
    server = SearchHTTPServer(("127.0.0.1", 0), svc)
    thread = threading.Thread(
        target=server.serve_forever,
        kwargs={"poll_interval": 0.1},
        daemon=True,
    )
    thread.start()
    try:
        yield server.server_address[1], svc, queries
    finally:
        server.shutdown()
        server.server_close()
        svc.drain(timeout=30)
        thread.join(timeout=10)


def http_get(port, path, headers=None):
    import http.client

    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
    try:
        conn.request("GET", path, headers=headers or {})
        response = conn.getresponse()
        body = response.read()
        return response.status, dict(response.headers), body
    finally:
        conn.close()


class TestDebugProfile:
    def test_profile_window_attributes_live_searches(self, serve_workload):
        # ROADMAP item 4 acceptance: /debug/profile on a live server under
        # load returns a window whose samples land in pipeline phases.
        from repro.obs.profile import SamplingProfiler

        queries, resident = serve_workload
        svc = SearchService(
            PipelineConfig(workers=2), resident, ServiceConfig(workers=2)
        )
        svc.start(warm=True)
        server = SearchHTTPServer(
            ("127.0.0.1", 0), svc, profiler=SamplingProfiler(0.002)
        )
        thread = threading.Thread(
            target=server.serve_forever,
            kwargs={"poll_interval": 0.1},
            daemon=True,
        )
        thread.start()
        port = server.server_address[1]
        workload = [(queries.names[i], queries[i].text()) for i in range(3)]
        stop = threading.Event()
        statuses = []

        def drive():
            while not stop.is_set():
                out = search_request("127.0.0.1", port, workload, timeout=30)
                statuses.append(out["http_status"])

        driver = threading.Thread(target=drive, daemon=True)
        driver.start()
        try:
            status, _, body = http_get(port, "/debug/profile?seconds=1")
        finally:
            stop.set()
            driver.join(timeout=30)
            server.shutdown()
            server.server_close()
            svc.drain(timeout=30)
            thread.join(timeout=10)
        assert status == 200
        report = json.loads(body)
        assert report["ticks"] > 0
        assert sum(report["phases"].values()) == report["samples"]
        phases = report["phases"]
        assert any(phases.get(p, 0) > 0 for p in ("step1", "step2", "step3", "dispatch"))
        assert statuses and set(statuses) == {200}


class TestHttpIdEcho:
    def test_wellformed_id_is_echoed_everywhere(self, http_server):
        port, _, _ = http_server
        for path in ("/healthz", "/readyz", "/metrics", "/nonsense"):
            _, headers, _ = http_get(
                port, path, headers={"X-Request-Id": "probe-7"}
            )
            assert headers["X-Request-Id"] == "probe-7", path

    def test_malformed_id_is_replaced(self, http_server):
        port, _, _ = http_server
        _, headers, _ = http_get(
            port, "/healthz", headers={"X-Request-Id": "not ok/../"}
        )
        assert headers["X-Request-Id"] != "not ok/../"
        assert len(headers["X-Request-Id"]) == 32

    def test_search_roundtrip_joins_client_and_server(self, http_server):
        port, svc, queries = http_server
        workload = [(queries.names[i], queries[i].text()) for i in range(3)]
        out = search_request("127.0.0.1", port, workload, request_id="join-1")
        assert out["http_status"] == 200
        assert out["request_id"] == "join-1"
        assert out["request_id_header"] == "join-1"
        assert out["request_id"] == out["request_id_header"]
        # The id joins to the server-side trace and flight record.
        status, _, body = http_get(port, "/debug/trace/join-1")
        assert status == 200
        doc = json.loads(body)
        assert validate_request_trace(doc) == []
        assert doc["request_id"] == "join-1"
        status, _, body = http_get(port, "/debug/requests?limit=4")
        assert status == 200
        flight = json.loads(body)
        assert validate_flight_records(flight) == []
        assert "slo" in flight
        assert any(r["request_id"] == "join-1" for r in flight["records"])

    def test_malformed_post_gets_an_id_too(self, http_server):
        port, _, _ = http_server
        import http.client

        conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
        try:
            conn.request(
                "POST", "/search", body=b"not json",
                headers={"X-Request-Id": "bad-body", "Content-Length": "8"},
            )
            response = conn.getresponse()
            response.read()
            assert response.status == 400
            assert response.headers["X-Request-Id"] == "bad-body"
        finally:
            conn.close()

    def test_debug_endpoints_reject_bad_input(self, http_server):
        port, _, _ = http_server
        status, _, _ = http_get(port, "/debug/requests?limit=banana")
        assert status == 400
        status, _, _ = http_get(port, "/debug/trace/absent-id")
        assert status == 404
        # No profiler wired into this server: 503, not a crash.
        status, _, _ = http_get(port, "/debug/profile")
        assert status == 503

    def test_run_load_reports_zero_id_mismatches(self, http_server):
        port, _, queries = http_server
        workload = [(queries.names[i], queries[i].text()) for i in range(3)]
        summary = run_load("127.0.0.1", port, [workload] * 4, concurrency=2)
        assert summary["errors"] == 0
        assert summary["id_mismatches"] == 0
        assert all(
            r["request_id_header"] == r["request_id"] for r in summary["results"]
        )

    def test_serve_top_once_renders_a_frame(self, http_server, capsys):
        port, _, _ = http_server
        assert top_main(["--port", str(port), "--once"]) == 0
        out = capsys.readouterr().out
        assert "repro-serve-top" in out
        assert "breaker closed" in out
        assert "first sample" in out
