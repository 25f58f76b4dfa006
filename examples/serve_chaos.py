"""End-to-end serve chaos drill: the CI ``serve-chaos`` job's driver.

Boots a real ``repro-psc serve`` process on the demo protein bank with a
pinned fault plan (three pool deaths — enough to trip the breaker — plus
one staged-bank corruption), drives it over HTTP with the stdlib load
client, and asserts the full resilience story from the *outside*:

1. every non-shed request is served (the supervisor rebuilds the pool,
   the CRC check self-heals the staged bank),
2. the circuit breaker trips, then closes again after its dwell,
3. the ``/metrics`` scrape validates against the checked-in serve schema,
4. SIGTERM drains cleanly: exit code 0, no shared-memory segments left
   in ``/dev/shm``, and no ``leaked shared_memory objects`` warning from
   the resource tracker on the server's stderr — the tracker unlinks any
   segment the server forgot, so ``/dev/shm`` alone cannot see a missing
   unlink.

Run:  PYTHONPATH=src python examples/serve_chaos.py [--port N]
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys
import tempfile
import threading
import time
import urllib.request
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
DATA = REPO / "examples" / "data" / "demo_proteins.fasta"

#: Pinned chaos plan: breaker threshold (3) consecutive pool deaths on
#: the first three requests, a corrupted staged bank on the fifth.
FAULT_PLAN = {
    "seed": 20260808,
    "specs": [
        {"kind": "pool-death", "request": 0},
        {"kind": "pool-death", "request": 1},
        {"kind": "pool-death", "request": 2},
        {"kind": "corrupt-warm-bank", "request": 4},
    ],
}

BREAKER_RESET_SECONDS = 1.0


def get_json(port: int, path: str) -> dict:
    with urllib.request.urlopen(
        f"http://127.0.0.1:{port}{path}", timeout=10
    ) as resp:
        return json.loads(resp.read())


def wait_ready(port: int, proc: subprocess.Popen, timeout: float = 60.0) -> None:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if proc.poll() is not None:
            raise SystemExit(f"server exited early with {proc.returncode}")
        try:
            if get_json(port, "/readyz").get("ready"):
                return
        except OSError:
            time.sleep(0.2)
    raise SystemExit("server never became ready")


def drive(port: int, requests: int, out: Path) -> dict:
    cmd = [
        sys.executable, "-m", "repro.serve.client",
        "--port", str(port), "--fasta", str(DATA),
        # the full demo bank per request: a small query set can share too
        # few seed keys to shard and route in-process, which would never
        # exercise the injected pool deaths
        "--requests", str(requests), "--per-request", "6",
        "--concurrency", "1", "--out", str(out),
    ]
    subprocess.run(cmd, check=True, cwd=REPO)
    return json.loads(out.read_text())


def shm_entries() -> set[str]:
    try:
        return set(os.listdir("/dev/shm"))
    except FileNotFoundError:  # platform without a visible shm mount
        return set()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--port", type=int, default=8641)
    args = parser.parse_args(argv)

    shm_before = shm_entries()
    with tempfile.TemporaryDirectory(prefix="serve-chaos") as tmp:
        plan_path = Path(tmp) / "plan.json"
        plan_path.write_text(json.dumps(FAULT_PLAN))
        server = subprocess.Popen(
            [
                sys.executable, "-m", "repro.cli", "serve", str(DATA),
                "--port", str(args.port), "--workers", "2",
                # the demo bank sits far below the warm pair floor: a floor
                # of 0 keeps every request on the pool the plan kills
                "--min-pairs-per-shard", "0",
                "--fault-plan", str(plan_path),
                "--breaker-threshold", "3",
                "--breaker-reset-seconds", str(BREAKER_RESET_SECONDS),
            ],
            cwd=REPO,
            stderr=subprocess.PIPE,
            text=True,
        )
        # Drain the server's log while it runs (a full pipe would block
        # it).  EOF comes once every writer is gone — the resource
        # tracker, which reports leaked segments as it exits, included.
        log: list[str] = []
        reader = threading.Thread(target=lambda: log.extend(server.stderr), daemon=True)
        reader.start()
        try:
            wait_ready(args.port, server)

            # Phase 1: six requests through the chaos plan.  Requests 0-2
            # each kill the pool (supervisor rebuilds, request still
            # served); the third trips the breaker, so request 3 runs
            # degraded; request 4 additionally corrupts the staged bank.
            summary = drive(args.port, 6, Path(tmp) / "load1.json")
            assert summary["served"] == 6, summary
            assert summary["errors"] == 0, summary
            health = get_json(args.port, "/healthz")
            assert health["breaker_trips"] == 1, health
            assert health["bank_heals"] == 1, health
            print("phase 1 ok: 6/6 served through pool deaths + corruption")

            # Phase 2: past the dwell, the half-open probe must close the
            # breaker again.
            time.sleep(BREAKER_RESET_SECONDS + 0.2)
            summary = drive(args.port, 2, Path(tmp) / "load2.json")
            assert summary["served"] == 2, summary
            health = get_json(args.port, "/healthz")
            assert health["breaker"] == "closed", health
            assert health["breaker_trips"] == 1, health
            print("phase 2 ok: breaker re-closed after its dwell")

            # Phase 3: the metrics scrape honours the checked-in schema.
            scrape = Path(tmp) / "metrics.prom"
            with urllib.request.urlopen(
                f"http://127.0.0.1:{args.port}/metrics", timeout=10
            ) as resp:
                scrape.write_bytes(resp.read())
            subprocess.run(
                [
                    sys.executable, "-m", "repro.obs.export", str(scrape),
                    "--kind", "serve-metrics",
                    "--schema", str(REPO / "schemas" / "serve_metrics.schema.json"),
                ],
                check=True, cwd=REPO,
            )
            print("phase 3 ok: /metrics matches schemas/serve_metrics.schema.json")
        finally:
            if server.poll() is None:
                server.send_signal(signal.SIGTERM)
            rc = server.wait(timeout=60)
            reader.join(timeout=30)
        err = "".join(log)
        sys.stderr.write(err)

    assert rc == 0, f"server exited {rc} after SIGTERM"
    assert "leaked shared_memory" not in err, "the resource tracker unlinked a leaked segment"
    leaked = shm_entries() - shm_before
    assert not leaked, f"shared memory leaked: {sorted(leaked)}"
    print("phase 4 ok: clean SIGTERM drain, zero shm leaks")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
