"""Layer ledger: one benchmark for the search service and one-shot ``compare``.

Usage (from the repository root)::

    python3 benchmarks/ledger/run.py --workload NAME --seed S \\
        [--seconds 30] [--trace 0|1] [--out FILE] [--smoke]

Without ``--workload`` every workload runs in turn.  ``--trace 0`` (the
default) times the real program with its defaults and reports the
end-to-end metrics; ``--trace 1`` drives a fixed sample of the workload,
then replays it in-process with one span per layer and reports the
per-layer metrics (see ``README.md``).  Every response is checked
against a reference computed before timing starts; the process exits 0
only when all of them match, no shared memory leaked and no process the
programs started had to be killed.  The last line
of standard output is the run's JSON summary.
"""

from __future__ import annotations

import argparse
import dataclasses
import itertools
import json
import os
import platform
import resource
import shutil
import signal
import subprocess
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[2]
SRC = ROOT / "src"

#: Workload names; why each exists is in BENCHMARK.json and README.md.
WORKLOADS = ("homolog-closed", "short-closed", "genome-oneshot")

END_TO_END = {
    "setup_s": "s",
    "latency_p50_s": "s",
    "latency_tail_s": "s",
    "throughput_per_s": "1/s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "client.overhead_s": "s",
    "step1.s": "s",
    "step1.residues_per_s": "1/s",
    "step2.s": "s",
    "step2.shard_max_s": "s",
    "step2.outside_shard_s": "s",
    "step2.pairs": "count",
    "step2.hits": "count",
    "step2.pairs_per_s": "1/s",
    "step2.bytes_to_workers": "bytes",
    "step3.s": "s",
    "step3.extensions": "count",
    "step3.cells": "count",
    "step3.cells_per_s": "1/s",
    "format.s": "s",
    "client.share": "share",
    "step1.share": "share",
    "step2.share": "share",
    "step3.share": "share",
    "format.share": "share",
    "coverage": "share",
}

#: Per-layer counts: they repeat exactly for a seed on any host.
COUNTS = ("step2.pairs", "step2.hits", "step2.bytes_to_workers",
          "step3.extensions", "step3.cells")

#: Percentile reported as ``latency_tail_s``: about the highest one with
#: several samples beyond it at the default run length (~70, ~500 and ~7
#: operations).  With ~7 compare runs, p90 would be about the slowest one.
TAIL_PERCENTILE = {
    "homolog-closed": 90,
    "short-closed": 99,
    "genome-oneshot": 75,
}


def _env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    return env


def host_facts(seed: int) -> dict[str, object]:
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10, check=False,
        ).stdout.strip() or None
    except OSError:
        sha = None
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
        "git_sha": sha,
        "seed": seed,
    }


def _median(values: list[float]) -> float:
    return float(np.median(values))


def _percentile(values: list[float], q: float) -> float:
    return float(np.percentile(values, q))


class Run:
    """Outcome of one workload run: metrics, counts and raw samples."""

    def __init__(self, workload: str) -> None:
        self.workload = workload
        self.metrics: dict[str, float] = {}
        self.detail: dict[str, object] = {}
        self.samples: list[dict[str, object]] = []
        self.attempted = 0
        self.failures: list[str] = []

    def fail(self, why: str) -> None:
        self.failures.append(why)

    def check_segments(self, leaked: list[str] | set[str], where: str) -> None:
        if leaked:
            self.fail(f"{where}: leaked shared memory {sorted(leaked)}")

    def check_stray(self, killed: list[int], where: str) -> None:
        if killed:
            self.fail(f"{where}: left processes running, killed {killed}")


# -- serve workloads ------------------------------------------------------


def _requests(workload, seed, scale, inputs, stream: int):
    """Endless ``(kind, queries)`` requests of the workload's one class."""
    from ledger_inputs import request_stream

    if workload == "homolog-closed":
        kind, pool, per_request = "homolog", inputs.homolog, scale.homolog_per_request
    else:
        kind, pool, per_request = "short", inputs.short, scale.short_per_request
    for idx in request_stream(seed, len(pool), per_request, stream):
        yield kind, [pool[i] for i in idx]


def _serve_requests(workload, seed, scale, inputs, trace):
    """Requests in send order: endless, or the traced pass's fixed sample."""
    reqs = _requests(workload, seed, scale, inputs, 3 if workload == "homolog-closed" else 5)
    return list(itertools.islice(reqs, scale.trace_requests[workload])) if trace else reqs


def _check_samples(run: Run, samples, reference) -> None:
    from ledger_inputs import response_rows, rows_match

    for s in samples:
        run.attempted += 1
        if s.status != 200:
            run.fail(f"request {s.request_id}: status {s.status} {s.error or ''}")
            continue
        body = json.loads(s.body)
        if not rows_match(response_rows(body["alignments"]), reference, s.names):
            run.fail(f"request {s.request_id}: alignments differ from the reference")


def run_serve(workload, seed, seconds, trace, scale, workdir) -> Run:
    from ledger_drive import ServeProcess, closed_loop, shm_segments
    from ledger_inputs import make_serve_inputs, serve_reference

    run = Run(workload)
    inputs = make_serve_inputs(seed, scale, workdir)
    pool = inputs.homolog if workload == "homolog-closed" else inputs.short
    reference = serve_reference(inputs.resident, pool)
    requests = _serve_requests(workload, seed, scale, inputs, trace)
    warmups = list(itertools.islice(
        _requests(workload, seed, scale, inputs, 6), scale.warmup_requests
    ))

    setups: list[float] = []
    for _ in range(0 if trace else scale.boots - 1):
        # Extra boots only feed the set-up median.
        before = shm_segments()
        server = ServeProcess(inputs.resident_path, workdir, _env())
        try:
            setups.append(server.start())
        finally:
            _stop(run, server, before)
    before = shm_segments()
    server = ServeProcess(inputs.resident_path, workdir, _env())
    try:
        setups.append(server.start())
        warm = closed_loop(server.port, warmups, None, "warmup")
        samples = closed_loop(server.port, requests, None if trace else seconds, "req")
        flight = {}
        if trace:
            from ledger_drive import Connection

            conn = Connection(server.port)
            status, doc = conn.get_json(f"/debug/requests?limit={len(samples) + len(warm)}")
            conn.close()
            if status != 200:
                run.fail(f"/debug/requests answered {status}")
            flight = {r["request_id"]: r for r in doc.get("records", [])}
        else:
            run.metrics["peak_rss_mb"] = server.peak_rss_mb()
    finally:
        _stop(run, server, before)
    _check_samples(run, warm, reference)
    _check_samples(run, samples, reference)
    run.samples = [s.as_dict() for s in samples]
    lat = [s.wall for s in samples]
    run.detail["latency_samples"] = len(lat)
    if trace:
        _trace_serve(run, inputs, requests, samples, flight)
        return run
    ok = sum(1 for s in samples if s.status == 200)
    run.metrics.update(
        setup_s=_median(setups),
        latency_p50_s=_median(lat),
        latency_tail_s=_percentile(lat, TAIL_PERCENTILE[workload]),
        throughput_per_s=ok / (samples[-1].done - samples[0].sent),
    )
    run.detail["setup_samples_s"] = setups
    return run


def _stop(run: Run, server, before: set[str]) -> None:
    from ledger_drive import shm_segments

    code = server.stop()
    if code != 0:
        run.fail(f"serve exited with {code} after SIGTERM")
    run.check_stray(server.stray, "serve drain")
    run.check_segments(shm_segments() - before, "serve drain")


def _trace_serve(run: Run, inputs, requests, samples, flight) -> None:
    """Join client samples with flight records, then replay in-process."""
    from ledger_inputs import report_rows, response_rows
    from ledger_trace import replay_serve, summarize

    from repro.core.config import PipelineConfig

    overhead, queue, dispatch = [], [], []
    for s in samples:
        record = flight.get(s.request_id)
        if record is None:
            run.fail(f"request {s.request_id}: no flight record")
            continue
        b = record["breakdown"]
        overhead.append(s.wall - b["queue"] - b["total"])
        queue.append(b["queue"])
        dispatch.append(b["dispatch"])
    if not overhead:
        return
    # The serve CLI's pipeline configuration at --workers 2.
    ledger, leaked = replay_serve(
        inputs.resident, [r[-1] for r in requests], PipelineConfig(workers=2)
    )
    run.check_segments(leaked, "in-process warm pool")
    for report, s in zip(ledger.reports, samples, strict=True):
        run.attempted += 1
        # Served rows already matched the reference; the replay must too.
        if s.status == 200 and report_rows(report) != response_rows(
            json.loads(s.body)["alignments"]
        ):
            run.fail(f"replay of {s.request_id} differs from the served response")
    metrics, detail = summarize(ledger, overhead, queue)
    run.metrics.update(metrics)
    run.detail.update(detail)
    run.detail["admission.queue_wait_s_p95"] = _percentile(queue, 95)
    run.detail["serve.dispatch_s"] = _median(dispatch)


# -- one-shot workload ----------------------------------------------------


def _check_compare(run: Run, result, expected: list[str], families: list[str]) -> None:
    run.attempted += 1
    run.check_stray(result.stray, "compare")
    run.check_segments(result.leaked_segments, "compare")
    if result.returncode != 0:
        run.fail(f"compare exited with {result.returncode}")
        return
    lines = [
        line for line in result.stdout.splitlines()
        if line.startswith("# seed pairs=") or not line.startswith("#")
    ]
    if lines != expected:
        run.fail("compare output differs from the reference")
    found = {line.split("\t", 1)[0] for line in lines[1:]}
    missing = [f for f in families if f not in found]
    if missing:
        run.fail(f"planted families missing from compare output: {missing}")


def run_genome(seed, seconds, trace, scale, workdir) -> Run:
    from ledger_drive import clock, run_compare
    from ledger_inputs import genome_reference, load_genome_inputs, make_genome_inputs
    from ledger_trace import cli_lines

    run = Run("genome-oneshot")
    inputs = make_genome_inputs(seed, scale, workdir)
    proteins, genome = load_genome_inputs(inputs)
    reference = genome_reference(proteins, genome)
    expected = cli_lines(reference)
    env = _env()
    if trace:
        # The CLI's own run report says how much of its wall the pipeline
        # span covers; the rest is process start, parsing and printing.
        report_path = workdir / "run_report.json"
        result = run_compare(
            inputs.proteins_path, inputs.genome_path, env,
            extra=("--trace-out", str(report_path)),
        )
        _check_compare(run, result, expected, inputs.families)
        if result.returncode == 0:
            spans = json.loads(report_path.read_text())["spans"]
            pipeline = next(s["duration"] for s in spans if s["name"] == "pipeline")
            _trace_genome(run, proteins, genome, reference, result.wall - pipeline)
        return run
    setups = []
    for _ in range(scale.boots):
        tiny = run_compare(inputs.tiny_proteins_path, inputs.tiny_genome_path, env)
        run.check_stray(tiny.stray, "tiny compare")
        run.check_segments(tiny.leaked_segments, "tiny compare")
        if tiny.returncode != 0:
            run.fail(f"tiny compare exited with {tiny.returncode}")
        setups.append(tiny.wall)
    walls = []
    t_end = clock() + seconds
    while not walls or clock() < t_end:
        result = run_compare(inputs.proteins_path, inputs.genome_path, env)
        _check_compare(run, result, expected, inputs.families)
        walls.append(result.wall)
    run.samples = [{"index": i, "wall": w} for i, w in enumerate(walls)]
    run.metrics.update(
        setup_s=_median(setups),
        latency_p50_s=_median(walls),
        latency_tail_s=_percentile(walls, TAIL_PERCENTILE["genome-oneshot"]),
        throughput_per_s=len(walls) / sum(walls),
        # ru_maxrss is in KiB: the largest process of any compare run.
        peak_rss_mb=resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0,
    )
    run.detail["setup_samples_s"] = setups
    run.detail["latency_samples"] = len(walls)
    return run


def _trace_genome(run: Run, proteins, genome, reference, overhead: float) -> None:
    from ledger_inputs import report_rows
    from ledger_trace import replay_genome, summarize

    from repro.core.config import PipelineConfig

    # The compare CLI's pipeline configuration at --workers 2.
    ledger, leaked = replay_genome(proteins, genome, PipelineConfig(workers=2))
    run.check_segments(leaked, "in-process sharded executor")
    run.attempted += 1
    if report_rows(ledger.reports[0]) != report_rows(reference):
        run.fail("in-process replay differs from the reference")
    metrics, detail = summarize(ledger, [overhead], [0.0])
    run.metrics.update(metrics)
    run.detail.update(detail)


# -- entry point ----------------------------------------------------------


def run_workload(workload, seed, seconds, trace, scale) -> Run:
    workdir = ROOT / ".ledger_work" / f"{workload}-{seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        if workload == "genome-oneshot":
            run = run_genome(seed, seconds, trace, scale, workdir)
        else:
            run = run_serve(workload, seed, seconds, trace, scale, workdir)
    finally:
        killed = _end_children()
        shutil.rmtree(workdir, ignore_errors=True)
    run.check_stray(killed, "in-process replay")
    return run


def _end_children() -> list[int]:
    """Stop this process's resource tracker, then wait for every child
    to end; returns those that had to be killed."""
    from ledger_drive import reap_new_children, stop_resource_tracker

    stop_resource_tracker()
    return reap_new_children(set())


def summary(run: Run, trace: bool) -> dict[str, object]:
    """The summary line: exactly correct, attempted, failed and metrics."""
    names = PER_LAYER if trace else END_TO_END
    return {
        "correct": not run.failures,
        "attempted": max(1, run.attempted),
        "failed": len(run.failures),
        "metrics": {
            name: {"value": run.metrics[name], "unit": unit}
            for name, unit in names.items()
        },
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, help="write the full result JSON here")
    parser.add_argument("--smoke", action="store_true", help="tiny inputs (tests)")
    args = parser.parse_args(argv)
    if not (SRC / "repro").is_dir():
        print(f"error: no program source at {SRC}", file=sys.stderr)
        return 2
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    from ledger_drive import adopt_orphans
    from ledger_inputs import FULL, SMOKE

    # Helpers the programs leave behind come here, to be waited for.
    adopt_orphans()
    scale = SMOKE if args.smoke else FULL
    trace = bool(args.trace)
    workloads = [args.workload] if args.workload else list(WORKLOADS)
    results = []
    for workload in workloads:
        run = run_workload(workload, args.seed, args.seconds, trace, scale)
        results.append(run)
        for name, value in run.metrics.items():
            unit = (PER_LAYER if trace else END_TO_END).get(name, "")
            print(f"{workload:<15} {name:<24} {value:>16.6g} {unit}")
        for name, value in run.detail.items():
            if not isinstance(value, (list, dict)):
                print(f"{workload:<15} # {name:<22} {value}")
        for why in run.failures[:20]:
            print(f"{workload:<15} FAIL {why}")
    if args.out:
        args.out.write_text(json.dumps({
            "host": host_facts(args.seed),
            "seconds": args.seconds,
            "trace": trace,
            "scale": dataclasses.asdict(scale),
            "runs": [
                {
                    "workload": r.workload,
                    **summary(r, trace),
                    "detail": r.detail,
                    "failures": r.failures,
                    "samples": r.samples,
                }
                for r in results
            ],
        }, indent=1) + "\n")
    if len(results) == 1:
        line = summary(results[0], trace)
    else:
        line = {
            "correct": all(not r.failures for r in results),
            "attempted": sum(max(1, r.attempted) for r in results),
            "failed": sum(len(r.failures) for r in results),
            "metrics": {
                f"{r.workload}/{k}": v
                for r in results for k, v in summary(r, trace)["metrics"].items()
            },
        }
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    # A SIGTERM from the caller unwinds normally, so the server is drained.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    raise SystemExit(main())
