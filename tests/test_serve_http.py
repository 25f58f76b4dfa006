"""HTTP-layer tests: endpoints, error paths, shed headers, load client.

Boots a real :class:`SearchHTTPServer` on an ephemeral port with a tiny
resident bank (1 worker keeps spawn cost down — bit-identity under the
warm pool is covered by ``test_serve_service.py``).
"""

import json
import socket
import threading
from http.client import HTTPConnection

import numpy as np
import pytest

from repro.core.config import PipelineConfig
from repro.core.faults import FaultKind, FaultPlan, FaultSpec
from repro.core.pipeline import SeedComparisonPipeline
from repro.seqs.sequence import BankBuilder
from repro.serve import SearchService, ServiceConfig
from repro.serve.client import run_load, search_request
from repro.serve.server import SearchHTTPServer

AA = "ACDEFGHIKLMNPQRSTVWY"


def _rand_seq(rng, n):
    return "".join(AA[i] for i in rng.integers(0, 20, n))


@pytest.fixture(scope="module")
def http_workload():
    rng = np.random.default_rng(23)
    motif = _rand_seq(rng, 50)
    rb = BankBuilder()
    for i in range(4):
        rb.add(f"res{i}", _rand_seq(rng, 30) + motif + _rand_seq(rng, 30))
    qb = BankBuilder()
    qb.add("qry0", _rand_seq(rng, 10) + motif + _rand_seq(rng, 10))
    return qb.build(), rb.build()


@pytest.fixture()
def live_server(http_workload):
    """Booted server on an ephemeral port; yields (host, port, service, queries)."""
    queries, resident = http_workload
    svc = SearchService(
        PipelineConfig(workers=1), resident, ServiceConfig(workers=1)
    )
    svc.start(warm=True)
    server = SearchHTTPServer(("127.0.0.1", 0), svc)
    thread = threading.Thread(
        target=server.serve_forever, kwargs={"poll_interval": 0.05}, daemon=True
    )
    thread.start()
    host, port = server.server_address[0], server.server_address[1]
    try:
        yield host, port, svc, queries
    finally:
        server.drain_and_shutdown(timeout=30)
        server.server_close()
        thread.join(timeout=10)


def _get(host, port, path):
    conn = HTTPConnection(host, port, timeout=10)
    try:
        conn.request("GET", path)
        resp = conn.getresponse()
        return resp.status, resp.read()
    finally:
        conn.close()


def _post(host, port, body, path="/search", headers=None):
    conn = HTTPConnection(host, port, timeout=10)
    try:
        payload = body if isinstance(body, bytes) else json.dumps(body).encode()
        conn.request(
            "POST", path, body=payload,
            headers={"Content-Type": "application/json", **(headers or {})},
        )
        resp = conn.getresponse()
        return resp.status, resp.read(), dict(resp.getheaders())
    finally:
        conn.close()


def _query_payload(queries):
    return {
        "queries": [
            [queries.names[i], queries[i].text()] for i in range(len(queries))
        ]
    }


class TestEndpoints:
    def test_search_round_trip(self, live_server):
        host, port, _svc, queries = live_server
        status, body, _ = _post(host, port, _query_payload(queries))
        assert status == 200
        out = json.loads(body)
        assert out["status"] == "ok"
        assert out["n_alignments"] > 0
        assert {"query", "subject", "query_range", "subject_range"} <= set(
            out["alignments"][0]
        )

    def test_healthz_reports_snapshot(self, live_server):
        host, port, _svc, _q = live_server
        status, body = _get(host, port, "/healthz")
        assert status == 200
        snap = json.loads(body)
        assert snap["ok"] and snap["breaker"] == "closed"

    def test_readyz_flips_on_drain(self, live_server):
        host, port, svc, _q = live_server
        status, body = _get(host, port, "/readyz")
        assert status == 200 and json.loads(body)["ready"]
        svc.drain(timeout=30)
        status, body = _get(host, port, "/readyz")
        assert status == 503
        out = json.loads(body)
        assert not out["ready"] and out["draining"]

    def test_metrics_is_prometheus_text(self, live_server):
        host, port, _svc, _q = live_server
        status, body = _get(host, port, "/metrics")
        assert status == 200
        assert b"# TYPE serve_breaker_state gauge" in body

    def test_unknown_paths_404(self, live_server):
        host, port, _svc, queries = live_server
        assert _get(host, port, "/nope")[0] == 404
        assert _post(host, port, _query_payload(queries), path="/nope")[0] == 404


class TestBadRequests:
    def test_empty_body_413(self, live_server):
        host, port, _svc, _q = live_server
        status, _, _ = _post(host, port, b"")
        assert status == 413

    def test_garbage_json_400(self, live_server):
        host, port, _svc, _q = live_server
        status, body, _ = _post(host, port, b"{not json")
        assert status == 400
        assert b"bad search request" in body

    def test_missing_queries_400(self, live_server):
        host, port, _svc, _q = live_server
        assert _post(host, port, {"deadline_ms": 10})[0] == 400
        assert _post(host, port, {"queries": []})[0] == 400

    def test_expired_deadline_504(self, live_server):
        host, port, _svc, queries = live_server
        payload = {**_query_payload(queries), "deadline_ms": 0}
        status, body, _ = _post(host, port, payload)
        assert status == 504
        assert json.loads(body)["status"] == "deadline"

    def test_bad_max_alignments_400_not_500(self, live_server):
        # A malformed limit is the client's error: it must answer 400
        # before submit(), never become a dispatcher 500 that counts
        # against the breaker.
        host, port, svc, queries = live_server
        for bad in ("five", -1, 2.5, True):
            payload = {**_query_payload(queries), "max_alignments": bad}
            status, body, _ = _post(host, port, payload)
            assert status == 400, f"max_alignments={bad!r}"
            assert b"bad search request" in body
        assert svc.breaker.trips == 0
        # a legal limit still flows through
        payload = {**_query_payload(queries), "max_alignments": 0}
        status, body, _ = _post(host, port, payload)
        assert status == 200
        assert json.loads(body)["alignments"] == []


class TestShedding:
    def test_shed_carries_retry_after_header(self, http_workload):
        queries, resident = http_workload
        plan = FaultPlan(
            seed=7, specs=(FaultSpec(kind=FaultKind.QUEUE_OVERFLOW, request=0),)
        )
        svc = SearchService(
            PipelineConfig(workers=1),
            resident,
            ServiceConfig(workers=1, retry_after_seconds=2.5),
            fault_plan=plan,
        )
        svc.start(warm=False)
        server = SearchHTTPServer(("127.0.0.1", 0), svc)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            host, port = server.server_address[0], server.server_address[1]
            status, body, headers = _post(host, port, _query_payload(queries))
            assert status == 429
            assert json.loads(body)["status"] == "shed"
            assert headers.get("Retry-After") == "2.5"
            # next request goes through
            status, _, _ = _post(host, port, _query_payload(queries))
            assert status == 200
        finally:
            server.drain_and_shutdown(timeout=30)
            server.server_close()
            thread.join(timeout=10)


class TestClient:
    def test_search_request_helper(self, live_server):
        host, port, _svc, queries = live_server
        pairs = [(queries.names[0], queries[0].text())]
        out = search_request(host, port, pairs)
        assert out["http_status"] == 200
        assert out["status"] == "ok"
        assert out["wall_seconds"] >= 0
        assert out["n_alignments"] > 0

    def test_search_request_connection_refused_is_status_zero(self):
        out = search_request("127.0.0.1", 1, [("q", "ACDEF")], timeout=0.5)
        assert out["http_status"] == 0
        assert "error" in out

    def test_run_load_summary(self, live_server):
        host, port, _svc, queries = live_server
        pairs = [(queries.names[0], queries[0].text())]
        summary = run_load(host, port, [pairs] * 4, concurrency=2)
        assert summary["requests"] == 4
        assert summary["served"] == 4
        assert summary["shed"] == 0 and summary["errors"] == 0
        assert summary["qps"] > 0
        assert summary["time_to_first_hit_seconds"] is not None
        assert summary["shed_rate"] == 0.0

    def test_run_load_applies_slow_client_fault(self, live_server):
        host, port, _svc, queries = live_server
        pairs = [(queries.names[0], queries[0].text())]
        plan = FaultPlan(
            seed=3,
            specs=(
                FaultSpec(
                    kind=FaultKind.SLOW_CLIENT, request=0, hang_seconds=0.3
                ),
            ),
        )
        summary = run_load(
            host, port, [pairs] * 2, concurrency=1, fault_plan=plan
        )
        # the stalled request still completes (stall < socket timeout)
        assert summary["served"] == 2
        assert summary["wall_seconds"] >= 0.3


class _RecordingSocket:
    """An accepted socket that records every ``sendall`` made on it, and
    whether TCP_NODELAY was set at the time."""

    def __init__(self, sock, sends):
        self._sock = sock
        self._sends = sends

    def sendall(self, data):
        nodelay = self._sock.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY)
        self._sends.append((bytes(data), nodelay))
        return self._sock.sendall(data)

    def __getattr__(self, name):
        return getattr(self._sock, name)


class _RecordingServer(SearchHTTPServer):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.sends = []

    def get_request(self):
        sock, addr = super().get_request()
        return _RecordingSocket(sock, self.sends), addr


def _reference_rows(queries, resident):
    report = SeedComparisonPipeline(PipelineConfig(workers=1)).compare_banks(
        queries, resident
    )
    return [
        [a.seq0_name, a.seq1_name, [a.start0, a.end0], [a.start1, a.end1],
         a.raw_score, a.ungapped_score, a.bit_score, a.evalue]
        for a in report.alignments
    ]


def _response_rows(body):
    return [
        [r["query"], r["subject"], r["query_range"], r["subject_range"],
         r["raw_score"], r["ungapped_score"], r["bit_score"], r["evalue"]]
        for r in json.loads(body)["alignments"]
    ]


class TestTransport:
    """Responses leave in one write on a TCP_NODELAY socket — checked on
    the socket calls themselves, not by timing."""

    def test_each_response_is_one_sendall_on_a_nodelay_socket(
        self, http_workload
    ):
        queries, resident = http_workload
        plan = FaultPlan(
            seed=7, specs=(FaultSpec(kind=FaultKind.QUEUE_OVERFLOW, request=0),)
        )
        svc = SearchService(
            PipelineConfig(workers=1),
            resident,
            ServiceConfig(workers=1, retry_after_seconds=2.5),
            fault_plan=plan,
        )
        svc.start(warm=False)
        server = _RecordingServer(("127.0.0.1", 0), svc)
        thread = threading.Thread(
            target=server.serve_forever, kwargs={"poll_interval": 0.05},
            daemon=True,
        )
        thread.start()
        try:
            host, port = server.server_address[0], server.server_address[1]
            shed = _post(host, port, _query_payload(queries))
            ok = _post(host, port, _query_payload(queries))
            metrics = _get(host, port, "/metrics")
            bad = _post(host, port, b"{not json")
        finally:
            server.drain_and_shutdown(timeout=30)
            server.server_close()
            thread.join(timeout=10)
        assert shed[0] == 429 and shed[2].get("Retry-After") == "2.5"
        assert ok[0] == 200 and metrics[0] == 200 and bad[0] == 400
        bodies = [shed[1], ok[1], metrics[1], bad[1]]
        assert len(server.sends) == len(bodies)
        for (data, nodelay), code, body in zip(
            server.sends, (429, 200, 200, 400), bodies, strict=True
        ):
            assert nodelay
            head, sep, rest = data.partition(b"\r\n\r\n")
            assert sep and rest == body
            assert head.startswith(f"HTTP/1.1 {code} ".encode())
            assert b"\r\nX-Request-Id: " in head
            assert f"\r\nContent-Length: {len(body)}".encode() in head

    def test_keep_alive_client_with_nagle_on(self, live_server, http_workload):
        # A plain http.client connection (Nagle left on) reused for 20
        # requests: every response arrives whole and correct.
        host, port, _svc, queries = live_server
        reference = _reference_rows(*http_workload)
        assert reference
        payload = json.dumps(_query_payload(queries)).encode()
        conn = HTTPConnection(host, port, timeout=10)
        try:
            for i in range(20):
                conn.request(
                    "POST", "/search", body=payload,
                    headers={"Content-Type": "application/json"},
                )
                resp = conn.getresponse()
                body = resp.read()
                assert resp.status == 200, i
                assert resp.getheader("X-Request-Id")
                assert _response_rows(body) == reference
        finally:
            conn.close()
