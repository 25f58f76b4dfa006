"""Stdlib HTTP front end for :class:`~repro.serve.service.SearchService`.

Endpoints::

    POST /search   {"queries": [["name", "SEQ…"], …],
                    "deadline_ms": 2000, "max_alignments": 50}
    GET  /healthz  liveness + breaker/pool snapshot (always 200 while up)
    GET  /readyz   200 while accepting, 503 once draining
    GET  /metrics  Prometheus text exposition of the service registry
    GET  /debug/requests[?limit=N]  flight recorder + SLO snapshot
    GET  /debug/trace/<request id>  the request's span-tree document
    GET  /debug/profile[?seconds=S] sampling profile (needs --profile)

Every response — including 400/413/429/500 error paths — carries an
``X-Request-Id`` header: the inbound header's value when well-formed, a
server-minted id otherwise, so client and server views of one request
always join on one key.

One handler thread per connection (``ThreadingHTTPServer``); actual
search execution is serialised by the service's dispatcher, so handler
threads only parse, enqueue and wait.  Connections carry a socket
timeout, so a slow client (the ``SLOW_CLIENT`` chaos kind) stalls one
handler thread at most — never the dispatcher, never admission.

Graceful drain: SIGTERM (and SIGINT) flips ``/readyz`` to 503, new
``/search`` requests answer 503, in-flight requests finish, the warm pool
and staged shared memory are released, and the process exits with zero
live segments — the ``serve-chaos`` CI job asserts exactly that.
"""

from __future__ import annotations

import json
import logging
import signal
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import TYPE_CHECKING, Any
from urllib.parse import parse_qs, urlsplit

from ..obs.context import accept_request_id
from ..seqs.sequence import BankBuilder

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..obs.profile import SamplingProfiler
    from .service import SearchService

__all__ = ["SearchHTTPServer", "serve_forever"]

_log = logging.getLogger(__name__)

#: Per-connection socket timeout: a client that stops reading or writing
#: is cut loose after this long (RC107's no-unbounded-blocking contract
#: at the socket layer).
CONNECTION_TIMEOUT = 30.0

#: Largest accepted request body (queries are meant to be small; the
#: resident bank is the big side and it lives server-side).
MAX_BODY_BYTES = 8 << 20


class _Handler(BaseHTTPRequestHandler):
    """Request handler; ``self.server`` is the :class:`SearchHTTPServer`."""

    server: SearchHTTPServer  # narrowed for type checkers
    server_version = "repro-serve/1.0"
    protocol_version = "HTTP/1.1"
    #: BaseHTTPRequestHandler honors this as the connection socket timeout.
    timeout = CONNECTION_TIMEOUT
    #: StreamRequestHandler sets TCP_NODELAY on each accepted socket: a
    #: response leaves when it is written, not when the client's delayed
    #: ACK for the previous segment arrives.
    disable_nagle_algorithm = True

    # -- plumbing -------------------------------------------------------
    def log_message(self, format: str, *args: Any) -> None:  # noqa: A002
        _log.debug("%s %s", self.address_string(), format % args)

    def _send(
        self,
        code: int,
        content_type: str,
        payload: bytes,
        headers: dict[str, str],
    ) -> None:
        """Write one whole response — status line, headers, body — in one
        ``sendall``, so a client that leaves Nagle on is not stalled by a
        headers-then-body pair of small sends either.

        The head is what ``send_response``/``send_header`` would buffer;
        ``end_headers`` would then send it apart from the body.
        """
        self.log_request(code)
        reason = self.responses.get(code, ("",))[0]
        lines = [
            f"{self.protocol_version} {code} {reason}",
            f"Server: {self.version_string()}",
            f"Date: {self.date_time_string()}",
            f"Content-Type: {content_type}",
            f"Content-Length: {len(payload)}",
            *(f"{name}: {value}" for name, value in headers.items()),
        ]
        head = ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1")
        self.wfile.write(head + payload)

    def _send_json(
        self,
        code: int,
        body: dict[str, Any],
        retry_after: float | None = None,
        request_id: str | None = None,
    ) -> None:
        headers: dict[str, str] = {}
        if request_id is not None:
            headers["X-Request-Id"] = request_id
        if retry_after is not None:
            headers["Retry-After"] = f"{retry_after:g}"
        self._send(
            code, "application/json", json.dumps(body).encode("utf-8"), headers
        )

    def _request_id(self) -> str:
        """The request's identity: honoured from the header or minted."""
        return accept_request_id(self.headers.get("X-Request-Id"))

    # -- GET ------------------------------------------------------------
    def do_GET(self) -> None:  # noqa: N802 - http.server API
        service = self.server.service
        rid = self._request_id()
        parts = urlsplit(self.path)
        path, query = parts.path, parse_qs(parts.query)
        if path == "/healthz":
            self._send_json(200, service.health_snapshot(), request_id=rid)
        elif path == "/readyz":
            if service.ready:
                self._send_json(200, {"ready": True}, request_id=rid)
            else:
                self._send_json(
                    503,
                    {"ready": False, "draining": service.draining},
                    request_id=rid,
                )
        elif path == "/metrics":
            self._send(
                200,
                "text/plain; version=0.0.4",
                service.metrics_text().encode("utf-8"),
                {"X-Request-Id": rid},
            )
        elif path == "/debug/requests":
            limit = None
            if "limit" in query:
                try:
                    limit = max(0, int(query["limit"][0]))
                except ValueError:
                    self._send_json(
                        400, {"error": "limit must be an integer"}, request_id=rid
                    )
                    return
            self._send_json(200, service.debug_requests(limit), request_id=rid)
        elif path.startswith("/debug/trace/"):
            wanted = path[len("/debug/trace/") :]
            doc = service.traces.get(wanted)
            if doc is None:
                self._send_json(
                    404,
                    {"error": f"no trace retained for request id {wanted!r}"},
                    request_id=rid,
                )
            else:
                self._send_json(200, doc, request_id=rid)
        elif path == "/debug/profile":
            self._profile(query, rid)
        else:
            self._send_json(
                404, {"error": f"unknown path {self.path}"}, request_id=rid
            )

    def _profile(self, query: dict[str, list[str]], rid: str) -> None:
        """``/debug/profile?seconds=S``: one bounded profiling window."""
        profiler = self.server.profiler
        if profiler is None:
            self._send_json(
                503,
                {"error": "profiler not enabled (start the server with --profile)"},
                request_id=rid,
            )
            return
        seconds = 5.0
        if "seconds" in query:
            try:
                seconds = float(query["seconds"][0])
            except ValueError:
                self._send_json(
                    400, {"error": "seconds must be a number"}, request_id=rid
                )
                return
        if not 0.0 < seconds <= 30.0:
            self._send_json(
                400, {"error": "seconds must be in (0, 30]"}, request_id=rid
            )
            return
        report = profiler.run_for(seconds)
        if report is None:
            self._send_json(
                409,
                {
                    "error": "profiler busy (another window or a session "
                    "profile is running)"
                },
                request_id=rid,
            )
            return
        self._send_json(200, report, request_id=rid)

    # -- POST -----------------------------------------------------------
    def do_POST(self) -> None:  # noqa: N802 - http.server API
        rid = self._request_id()
        if self.path != "/search":
            self._send_json(
                404, {"error": f"unknown path {self.path}"}, request_id=rid
            )
            return
        try:
            length = int(self.headers.get("Content-Length", "0"))
        except ValueError:
            self._send_json(400, {"error": "bad Content-Length"}, request_id=rid)
            return
        if length <= 0 or length > MAX_BODY_BYTES:
            self._send_json(
                413,
                {"error": "request body missing or too large"},
                request_id=rid,
            )
            return
        # The socket timeout (``timeout`` above) bounds this read; a slow
        # client times out its own connection, nothing else.
        raw = self.rfile.read(length)
        try:
            request = json.loads(raw)
            queries = request["queries"]
            if not isinstance(queries, list) or not queries:
                raise ValueError("queries must be a non-empty list")
            builder = BankBuilder()
            for i, item in enumerate(queries):
                name, text = item
                builder.add(str(name) or f"query{i}", str(text))
            bank = builder.build()
            deadline_ms = request.get("deadline_ms")
            deadline = None if deadline_ms is None else float(deadline_ms) / 1e3
            max_alignments = request.get("max_alignments")
            if max_alignments is not None:
                # Reject rather than coerce: a malformed limit is the
                # client's error (400), never a dispatcher 500 that would
                # count against the breaker.
                if isinstance(max_alignments, bool) or not isinstance(
                    max_alignments, int
                ):
                    raise ValueError("max_alignments must be an integer")
                if max_alignments < 0:
                    raise ValueError("max_alignments must be >= 0")
        except (KeyError, ValueError, TypeError, json.JSONDecodeError) as exc:
            self._send_json(
                400, {"error": f"bad search request: {exc}"}, request_id=rid
            )
            return
        result = self.server.service.submit(
            bank,
            deadline_seconds=deadline,
            max_alignments=max_alignments,
            request_id=rid,
        )
        code = int(result.pop("code", 200))
        retry_after = result.get("retry_after")
        self._send_json(
            code,
            result,
            retry_after=retry_after,
            request_id=str(result.get("request_id", rid)),
        )


class SearchHTTPServer(ThreadingHTTPServer):
    """Threaded HTTP server bound to one :class:`SearchService`.

    *profiler* is the optional process-wide
    :class:`~repro.obs.profile.SamplingProfiler` backing
    ``/debug/profile`` (each request runs one bounded window on its
    handler thread).
    """

    daemon_threads = True

    def __init__(
        self,
        address: tuple[str, int],
        service: SearchService,
        profiler: SamplingProfiler | None = None,
    ) -> None:
        super().__init__(address, _Handler)
        self.service = service
        self.profiler = profiler

    def drain_and_shutdown(self, timeout: float = 30.0) -> None:
        """Stop accepting, finish in-flight work, release resources."""
        self.service.drain(timeout=timeout)
        self.shutdown()


def serve_forever(
    server: SearchHTTPServer,
    install_signals: bool = True,
    poll_seconds: float = 0.5,
) -> None:
    """Run *server* until SIGTERM/SIGINT, then drain gracefully.

    The signal handler only sets a flag and kicks the shutdown thread —
    all real work (drain, pool stop, shm release) happens outside signal
    context: ``shutdown()`` waits for this loop, which the handler
    interrupts, so draining inside the handler would hang.  Nothing
    releases segments at signal time, which would yank the staged bank
    out from under in-flight requests; the drain releases them in order,
    and the executor's atexit registration backstops any path where the
    drain never completes.  ``test_serve_http.py::TestSignalDrain`` pins
    this on a real ``serve`` process.
    """
    stop = threading.Event()

    def _stop_handler(signum: int, frame: Any) -> None:
        _log.info("signal %d received; draining", signum)
        stop.set()
        threading.Thread(
            target=server.drain_and_shutdown, name="serve-drain", daemon=True
        ).start()

    if install_signals:
        signal.signal(signal.SIGTERM, _stop_handler)
        signal.signal(signal.SIGINT, _stop_handler)
    try:
        server.serve_forever(poll_interval=poll_seconds)
    finally:
        server.server_close()
        if not stop.is_set():
            # serve_forever ended without a signal (test harness called
            # shutdown() directly): still drain so nothing leaks.
            server.service.drain(timeout=poll_seconds)
