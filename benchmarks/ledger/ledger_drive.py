"""Drive the real program: a ``serve`` process over HTTP, or ``compare`` runs.

The load comes from this one process over one persistent HTTP/1.1
connection.  Responses are kept raw while timing and decoded and checked
afterwards, so the client adds as little as possible between requests.
"""

from __future__ import annotations

import ctypes
import http.client
import json
import multiprocessing.resource_tracker
import os
import signal
import socket
import subprocess
import sys
import time
from collections.abc import Iterable
from dataclasses import dataclass, field
from pathlib import Path

clock = time.perf_counter

#: Per-request client timeout; a request this slow is a failure.
REQUEST_TIMEOUT = 60.0

#: How long processes a program left behind may take to end before
#: they are killed (and the run counts a failure).
STRAY_TIMEOUT = 10.0

_PR_SET_PDEATHSIG = 1
_PR_SET_CHILD_SUBREAPER = 36
_libc = ctypes.CDLL(None, use_errno=True)


def adopt_orphans() -> None:
    """Make this process the reaper of its descendants' orphans.

    A program's helpers (its multiprocessing resource tracker, workers
    that outlive it) are re-parented here instead of to init, so
    :func:`reap_new_children` can wait for each of them to end.
    """
    if _libc.prctl(_PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0) != 0:
        raise OSError(ctypes.get_errno(), "prctl(PR_SET_CHILD_SUBREAPER) failed")


def _terminate_with_parent() -> None:
    """``preexec_fn``: SIGTERM the child if this process dies first."""
    _libc.prctl(_PR_SET_PDEATHSIG, signal.SIGTERM, 0, 0, 0)


def own_children() -> set[int]:
    """Pids of this process's children, zombies included."""
    me = os.getpid()
    pids: set[int] = set()
    for task in os.listdir(f"/proc/{me}/task"):
        try:
            text = Path(f"/proc/{me}/task/{task}/children").read_text()
        except OSError:
            continue
        pids.update(int(p) for p in text.split())
    return pids


def reap_new_children(before: set[int], timeout: float = STRAY_TIMEOUT) -> list[int]:
    """Wait until every child not in *before* has ended and been reaped.

    Children that are still running after *timeout* seconds are killed;
    their pids are returned.
    """
    deadline = clock() + timeout
    killed: list[int] = []
    while left := own_children() - before:
        overdue = clock() > deadline
        for pid in left:
            try:
                if os.waitpid(pid, os.WNOHANG)[0] or not overdue:
                    continue
                os.kill(pid, signal.SIGKILL)
                killed.append(pid)
                os.waitpid(pid, 0)
            except (ChildProcessError, ProcessLookupError):
                pass
        time.sleep(0.005)
    return killed


def stop_resource_tracker() -> None:
    """End this process's own multiprocessing resource tracker, if any.

    It would otherwise exit only after this process did, asynchronously.
    """
    multiprocessing.resource_tracker._resource_tracker._stop()


def shm_segments() -> set[str]:
    """Python shared-memory segments currently in ``/dev/shm``."""
    try:
        return {n for n in os.listdir("/dev/shm") if n.startswith("psm_")}
    except FileNotFoundError:
        return set()


@dataclass
class Sample:
    """One request as the client saw it."""

    index: int
    kind: str
    names: list[str]
    sent: float = 0.0
    done: float = 0.0
    status: int = 0
    body: bytes = b""
    request_id: str = ""
    error: str | None = None

    @property
    def wall(self) -> float:
        return self.done - self.sent

    def as_dict(self) -> dict[str, object]:
        return {
            "index": self.index,
            "kind": self.kind,
            "sent": self.sent,
            "done": self.done,
            "status": self.status,
            "request_id": self.request_id,
            "error": self.error,
        }


class _NoDelayHTTPConnection(http.client.HTTPConnection):
    """``http.client`` writes headers and body separately; TCP_NODELAY
    keeps Nagle's algorithm from holding the body back, as HTTP client
    libraries that set the option do.  Stalls left are the server's."""

    def connect(self) -> None:
        super().connect()
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)


class Connection:
    """One keep-alive client connection to ``POST /search``."""

    def __init__(self, port: int) -> None:
        self.port = port
        self._conn: http.client.HTTPConnection | None = None

    def _open(self) -> http.client.HTTPConnection:
        if self._conn is None:
            self._conn = _NoDelayHTTPConnection(
                "127.0.0.1", self.port, timeout=REQUEST_TIMEOUT
            )
        return self._conn

    def search(self, sample: Sample, queries: list[tuple[str, str]]) -> None:
        payload = json.dumps({"queries": [[n, s] for n, s in queries]}).encode()
        conn = self._open()
        sample.sent = clock()
        try:
            conn.request(
                "POST",
                "/search",
                payload,
                {"Content-Type": "application/json", "X-Request-Id": sample.request_id},
            )
            response = conn.getresponse()
            sample.body = response.read()
            sample.status = response.status
        except (OSError, http.client.HTTPException) as exc:
            sample.error = repr(exc)
            self.close()
        sample.done = clock()

    def get_json(self, path: str) -> tuple[int, dict]:
        conn = self._open()
        try:
            conn.request("GET", path)
            response = conn.getresponse()
            return response.status, json.loads(response.read() or b"{}")
        except (OSError, http.client.HTTPException, ValueError):
            self.close()
            return 0, {}

    def close(self) -> None:
        if self._conn is not None:
            self._conn.close()
            self._conn = None


class ServeProcess:
    """``python -m repro.cli serve RESIDENT --port 0 --workers 2``."""

    def __init__(self, resident: Path, workdir: Path, env: dict[str, str]) -> None:
        self.resident = resident
        self.workdir = workdir
        self.env = env
        self.proc: subprocess.Popen[bytes] | None = None
        self.port = 0
        self._children_before: set[int] = set()
        #: Processes the server left running after its drain, then killed.
        self.stray: list[int] = []

    def start(self, timeout: float = 120.0) -> float:
        """Launch and wait for ``/readyz`` 200; returns launch → ready seconds."""
        log = self.workdir / "serve.out"
        self._children_before = own_children()
        with open(log, "wb") as out:
            t0 = clock()
            self.proc = subprocess.Popen(
                [sys.executable, "-m", "repro.cli", "serve", str(self.resident),
                 "--port", "0", "--workers", "2"],
                stdout=out,
                stderr=subprocess.STDOUT,
                env=self.env,
                preexec_fn=_terminate_with_parent,
            )
        deadline = t0 + timeout
        while not self.port:
            text = log.read_text(errors="replace")
            if "http://" in text:
                self.port = int(text.split("http://", 1)[1].split()[0].rsplit(":", 1)[1])
                break
            if self.proc.poll() is not None or clock() > deadline:
                raise RuntimeError(f"serve did not start:\n{text}")
            time.sleep(0.002)
        probe = Connection(self.port)
        try:
            while probe.get_json("/readyz")[0] != 200:
                if clock() > deadline:
                    raise RuntimeError("serve never became ready")
                time.sleep(0.002)
        finally:
            probe.close()
        return clock() - t0

    def peak_rss_mb(self) -> float:
        """Sum of ``VmHWM`` over the server and its child processes."""
        assert self.proc is not None
        total_kb = 0
        for pid in [self.proc.pid, *_children(self.proc.pid)]:
            try:
                status = Path(f"/proc/{pid}/status").read_text()
            except OSError:
                continue
            for line in status.splitlines():
                if line.startswith("VmHWM:"):
                    total_kb += int(line.split()[1])
        return total_kb / 1024.0

    def stop(self, timeout: float = 60.0) -> int:
        """SIGTERM drain, then wait for every process the server left.

        Returns the exit code (killed servers count as -9).
        """
        if self.proc is None:
            return 0
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=timeout)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait(timeout=timeout)
        code = self.proc.returncode
        self.proc = None
        self.stray = reap_new_children(self._children_before)
        return code


def _children(pid: int) -> list[int]:
    try:
        text = Path(f"/proc/{pid}/task/{pid}/children").read_text()
    except OSError:
        return []
    return [int(p) for p in text.split()]


def closed_loop(
    port: int,
    requests: Iterable[tuple[str, list[tuple[str, str]]]],
    seconds: float | None,
    prefix: str,
) -> list[Sample]:
    """One connection; the next request leaves when the last one returned.

    Runs until *seconds* have passed (finishing the request in flight),
    or through every request when *seconds* is ``None``.
    """
    conn = Connection(port)
    samples: list[Sample] = []
    t_end = None if seconds is None else clock() + seconds
    try:
        for i, (kind, queries) in enumerate(requests):
            if t_end is not None and clock() >= t_end:
                break
            sample = Sample(i, kind, [n for n, _ in queries],
                            request_id=f"{prefix}-{i:06d}")
            conn.search(sample, queries)
            samples.append(sample)
    finally:
        conn.close()
    return samples


@dataclass
class CompareRun:
    wall: float
    returncode: int
    stdout: str
    leaked_segments: list[str] = field(default_factory=list)
    stray: list[int] = field(default_factory=list)


def run_compare(
    proteins: Path,
    genome: Path,
    env: dict[str, str],
    extra: tuple[str, ...] = (),
    timeout: float = 170.0,
) -> CompareRun:
    """One ``compare --workers 2`` subprocess, timed launch to exit;
    then waits for every process it left."""
    before = shm_segments()
    children = own_children()
    try:
        t0 = clock()
        proc = subprocess.run(
            [sys.executable, "-m", "repro.cli", "compare", str(proteins), str(genome),
             "--workers", "2", *extra],
            env=env,
            capture_output=True,
            text=True,
            timeout=timeout,
            check=False,
            preexec_fn=_terminate_with_parent,
        )
        wall = clock() - t0
    finally:
        stray = reap_new_children(children)
    return CompareRun(
        wall, proc.returncode, proc.stdout, sorted(shm_segments() - before), stray
    )
