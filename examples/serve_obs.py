"""End-to-end observability drill: the CI ``obs-serve`` job's driver.

Boots a real ``repro-psc serve`` process with request tracing, a trace
spool directory, the sampling profiler (``--profile``) and a pinned chaos
plan (one pool death, one injected shed), drives it over HTTP with
client-minted request ids, and asserts the per-request observability
contract from the *outside*:

1. every response carries the client's ``X-Request-Id`` back (including
   the shed 429), and the load summary reports zero id mismatches; a
   one-second ``/debug/profile`` window taken during the load attributes
   samples to a pipeline phase;
2. every *non-shed* request's ``/debug/trace/<id>`` document validates
   against ``schemas/request_trace.schema.json`` and is one complete
   span tree — exactly one root, zero orphans — even for the request
   whose warm pool was killed under it;
3. ``/debug/requests`` validates against
   ``schemas/flight_record.schema.json``, joins to the client's ids, and
   counts the pool-death retry and the injected shed;
4. SIGTERM drains cleanly, spooling per-request traces and the flight
   dump into ``--trace-dir``.

Run:  PYTHONPATH=src python examples/serve_obs.py [--port N]
"""

from __future__ import annotations

import argparse
import json
import signal
import subprocess
import sys
import tempfile
import time
import urllib.request
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
DATA = REPO / "examples" / "data" / "demo_proteins.fasta"
SCHEMAS = REPO / "schemas"

#: Pinned chaos plan: the pool dies under request 1, request 3 is shed.
FAULT_PLAN = {
    "seed": 20260808,
    "specs": [
        {"kind": "pool-death", "request": 1},
        {"kind": "queue-overflow", "request": 3},
    ],
}

REQUESTS = 6


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


def validate(path: Path, kind: str, schema: str) -> None:
    subprocess.run(
        [
            sys.executable, "-m", "repro.obs.export", str(path),
            "--kind", kind, "--schema", str(SCHEMAS / schema),
        ],
        check=True, cwd=REPO,
    )


def span_tree_shape(spans: list[dict]) -> tuple[list[str], int]:
    ids = {s["span_id"] for s in spans}
    roots = [s["name"] for s in spans if s["parent_id"] is None]
    orphans = [
        s for s in spans if s["parent_id"] is not None and s["parent_id"] not in ids
    ]
    return roots, len(orphans)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--port", type=int, default=8642)
    args = parser.parse_args(argv)

    with tempfile.TemporaryDirectory(prefix="serve-obs") as tmp:
        tmp_path = Path(tmp)
        plan_path = tmp_path / "plan.json"
        plan_path.write_text(json.dumps(FAULT_PLAN))
        trace_dir = tmp_path / "traces"
        server = subprocess.Popen(
            [
                sys.executable, "-m", "repro.cli", "serve", str(DATA),
                "--port", str(args.port), "--workers", "2",
                # keep the demo's small requests on the pool the plan kills
                "--min-pairs-per-shard", "0",
                "--fault-plan", str(plan_path),
                "--trace-dir", str(trace_dir), "--profile",
            ],
            cwd=REPO,
        )
        try:
            wait_ready(args.port, server)

            # Phase 1: drive with client-minted ids; the big per-request
            # workload keeps every request on the warm pool so the
            # injected pool death actually lands under a request.  One
            # profiling window is taken while the load runs.
            out = tmp_path / "load.json"
            load = subprocess.Popen(
                [
                    sys.executable, "-m", "repro.serve.client",
                    "--port", str(args.port), "--fasta", str(DATA),
                    "--requests", str(REQUESTS), "--per-request", "6",
                    "--concurrency", "1", "--out", str(out),
                ],
                cwd=REPO,
            )
            profile = get_json(args.port, "/debug/profile?seconds=1")
            assert load.wait(timeout=300) == 0, "load client failed"
            assert profile["ticks"] > 0, profile
            phases = profile["phases"]
            assert sum(phases.values()) == profile["samples"], profile
            assert any(
                phases.get(p, 0) > 0
                for p in ("step1", "step2", "step3", "dispatch")
            ), phases
            summary = json.loads(out.read_text())
            assert summary["served"] == REQUESTS - 1, summary
            assert summary["shed"] == 1, summary
            assert summary["errors"] == 0, summary
            assert summary["id_mismatches"] == 0, summary
            by_status = {
                r["http_status"]: r["request_id"] for r in summary["results"]
            }
            assert set(by_status) == {200, 429}, sorted(by_status)
            print("phase 1 ok: ids echoed on every response, shed included; "
                  f"profile window phases {phases}")

            # Phase 2: every served request's trace document is one
            # complete span tree, fetched by the id the client minted.
            retried = 0
            for record in summary["results"]:
                if record["http_status"] != 200:
                    continue
                request_id = record["request_id"]
                doc = get_json(args.port, f"/debug/trace/{request_id}")
                doc_path = tmp_path / f"trace-{request_id}.json"
                doc_path.write_text(json.dumps(doc))
                validate(doc_path, "request-trace", "request_trace.schema.json")
                roots, orphans = span_tree_shape(doc["spans"])
                assert roots == ["serve.request"], (request_id, roots)
                assert orphans == 0, (request_id, orphans)
                retried += sum(
                    1
                    for s in doc["spans"]
                    for e in s["events"]
                    if e["name"] == "step2.retry"
                )
            assert retried >= 1, "the pool death never produced a retry event"
            print(f"phase 2 ok: {REQUESTS - 1} complete span trees, "
                  f"{retried} retry event(s) recorded")

            # Phase 3: the flight recorder joins to the same ids and
            # counts the chaos the plan injected.
            flight_path = tmp_path / "flight.json"
            flight_path.write_text(json.dumps(
                get_json(args.port, "/debug/requests")
            ))
            validate(flight_path, "flight-records", "flight_record.schema.json")
            flight = json.loads(flight_path.read_text())
            by_id = {r["request_id"]: r for r in flight["records"]}
            client_ids = {r["request_id"] for r in summary["results"]}
            assert client_ids <= set(by_id), "flight records missed requests"
            shed_record = by_id[by_status[429]]
            assert shed_record["status"] == "shed", shed_record
            assert shed_record["shed_reason"] == "injected", shed_record
            assert sum(r["retry_events"] for r in by_id.values()) >= 1
            assert "slo" in flight and "burn_rates" in flight["slo"]
            print("phase 3 ok: flight records join client ids, "
                  "retry + shed accounted")
        finally:
            if server.poll() is None:
                server.send_signal(signal.SIGTERM)
            rc = server.wait(timeout=60)
        assert rc == 0, f"server exited {rc} after SIGTERM"

        # Phase 4: the drain spooled traces and the flight dump to disk.
        spooled = sorted(trace_dir.glob("trace-*.json"))
        assert len(spooled) == REQUESTS - 1, [p.name for p in spooled]
        validate(spooled[0], "request-trace", "request_trace.schema.json")
        dump = trace_dir / "flight_records.json"
        assert dump.exists(), "drain never dumped the flight recorder"
        validate(dump, "flight-records", "flight_record.schema.json")
        print("phase 4 ok: clean drain, traces spooled, flight dumped")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
