"""Serving benchmark: warm-bank pool vs cold one-shot runs.

Writes ``BENCH_serve.json``.  The number that matters: steady-state QPS
through the warm service (resident bank staged once, worker pool kept
alive) versus the cold path that pays bank indexing *and* pool spawn on
every request — the whole motivation for ``repro.serve``.  Also drives
the real HTTP stack with the stdlib load client (``repro-serve-bench``)
to record time-to-first-hit and shed-rate under concurrency, and checks
that every served response stays bit-identical to the cold pipeline.

Usage::

    PYTHONPATH=src python benchmarks/bench_serve.py [--quick] [--out FILE]
"""

from __future__ import annotations

import argparse
import json
import threading
import time
from pathlib import Path

import numpy as np

from repro.core.config import PipelineConfig
from repro.core.executor import live_segment_names
from repro.core.pipeline import SeedComparisonPipeline
from repro.seqs.generate import random_protein_bank
from repro.seqs.sequence import BankBuilder
from repro.serve import SearchService, ServiceConfig
from repro.serve.client import run_load
from repro.serve.server import SearchHTTPServer

DEFAULT_OUT = Path(__file__).resolve().parent.parent / "BENCH_serve.json"


AA = "ACDEFGHIKLMNPQRSTVWY"


def make_workload(quick: bool, seed: int = 29):
    """Random banks sharing a planted motif, so requests return real hits.

    Shaped like a real search service: the resident bank is large (so
    per-request indexing, staging, and pool spawn — the costs warm
    serving amortises — are a visible share of the request), while the
    motif is rare enough that only a handful of alignments survive to
    the gapped stage, which both arms pay identically in-process.
    """
    rng = np.random.default_rng(seed)
    n_resident = 40 if quick else 4000
    n_queries = 3 if quick else 8
    motif_every = 10 if quick else 1000
    motif = "".join(AA[i] for i in rng.integers(0, 20, 60))
    raw_res = random_protein_bank(
        rng, n_resident, mean_length=200, name_prefix="res"
    )
    raw_qry = random_protein_bank(
        rng, n_queries, mean_length=120, name_prefix="qry"
    )
    rb = BankBuilder()
    for i in range(len(raw_res)):
        text = raw_res[i].text()
        # every motif_every-th resident carries the family motif
        rb.add(raw_res.names[i], text + motif if i % motif_every == 0 else text)
    qb = BankBuilder()
    for i in range(len(raw_qry)):
        qb.add(raw_qry.names[i], raw_qry[i].text() + motif)
    return qb.build(), rb.build()


def _rows(alignments):
    return [
        (a["query"], a["subject"], *a["query_range"], *a["subject_range"],
         a["raw_score"], a["ungapped_score"], a["bit_score"], a["evalue"])
        for a in alignments
    ]


def _report_rows(report):
    return [
        (a.seq0_name, a.seq1_name, a.start0, a.end0, a.start1, a.end1,
         a.raw_score, a.ungapped_score, a.bit_score, a.evalue)
        for a in report.alignments
    ]


def _bench_config(workers: int) -> PipelineConfig:
    """Pipeline config used by both the cold and warm arms.

    ``min_pairs_per_shard=0`` forces the pooled step-2 engine at bench
    scale (same precedent as ``bench_step2_scaling``'s sharded modes).
    Both arms drive the one pool front end,
    :class:`~repro.core.executor.ShardedStep2Executor`, and each applies
    a pair floor — the cold arm's one-shot this config's, the warm arm's
    :class:`~repro.serve.pool.WarmPool` its own (:func:`_service_config`).
    Without it both arms drop to in-process
    scoring, the cold one never pays the pool spawn + bank staging that
    warm serving amortises, and the comparison would be between two
    different routes instead of between per-request and per-boot setup
    cost.
    """
    return PipelineConfig(workers=workers, min_pairs_per_shard=0)


def _service_config(workers: int, **service_kw) -> ServiceConfig:
    """The warm arms' service policy: the pool route, as in the cold arm."""
    return ServiceConfig(workers=workers, min_pairs_per_shard=0, **service_kw)


def bench_cold(queries, resident, workers: int, requests: int):
    """One-shot runs: every request re-indexes the bank and spawns a pool."""
    walls = []
    rows = None
    for _ in range(requests):
        t0 = time.perf_counter()
        report = SeedComparisonPipeline(
            _bench_config(workers)
        ).compare_banks(queries, resident)
        walls.append(time.perf_counter() - t0)
        rows = _report_rows(report)
    total = sum(walls)
    return {
        "requests": requests,
        "wall_s": total,
        "mean_request_s": total / requests,
        "qps": requests / total,
    }, rows


def bench_warm(queries, resident, workers: int, requests: int, **service_kw):
    """Long-lived service: bank staged once, pool spawned once at boot.

    ``service_kw`` forwards to :class:`ServiceConfig` — the obs-overhead
    arm passes ``tracing=False`` to measure the same warm path with
    per-request span trees (and worker-span round-trips) disabled.
    """
    svc = SearchService(
        _bench_config(workers),
        resident,
        _service_config(workers, **service_kw),
    )
    t0 = time.perf_counter()
    svc.start(warm=True)
    boot_s = time.perf_counter() - t0
    try:
        walls = []
        rows = None
        for _ in range(requests):
            t0 = time.perf_counter()
            out = svc.submit(queries)
            walls.append(time.perf_counter() - t0)
            assert out["code"] == 200, out
            rows = _rows(out["alignments"])
        total = sum(walls)
        return {
            "requests": requests,
            "boot_s": boot_s,
            "wall_s": total,
            "mean_request_s": total / requests,
            "qps": requests / total,
        }, rows
    finally:
        svc.drain(timeout=30)


def measure_obs_overhead(queries, resident, workers: int, requests: int):
    """Tracing-on vs tracing-off warm QPS, paired per request.

    Whole-arm comparisons cannot resolve a few-percent effect against
    machine drift (back-to-back identical arms vary by ~10% on shared
    runners), so the two modes run as *twin* warm services and requests
    alternate between them, flipping the order each pair — drift on any
    timescale longer than one request cancels out of the paired totals.
    One untimed warm-up request per service keeps lazy first-request
    costs out of the comparison.
    """
    twins = {
        True: SearchService(
            _bench_config(workers), resident, _service_config(workers)
        ),
        False: SearchService(
            _bench_config(workers),
            resident,
            _service_config(workers, tracing=False),
        ),
    }
    wall = {True: 0.0, False: 0.0}
    try:
        for svc in twins.values():
            svc.start(warm=True)
            assert svc.submit(queries)["code"] == 200  # warm-up, untimed
        for i in range(requests):
            order = (True, False) if i % 2 == 0 else (False, True)
            for tracing in order:
                t0 = time.perf_counter()
                out = twins[tracing].submit(queries)
                wall[tracing] += time.perf_counter() - t0
                assert out["code"] == 200, out
    finally:
        for svc in twins.values():
            svc.drain(timeout=30)
    qps_on = requests / wall[True]
    qps_off = requests / wall[False]
    return {
        "qps_obs_on": qps_on,
        "qps_obs_off": qps_off,
        "overhead_fraction": 1.0 - qps_on / qps_off,
    }


def bench_http(queries, resident, workers: int, requests: int, concurrency: int):
    """The full stack: HTTP server + threaded stdlib load client."""
    svc = SearchService(
        _bench_config(workers), resident, _service_config(workers)
    )
    svc.start(warm=True)
    server = SearchHTTPServer(("127.0.0.1", 0), svc)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        host, port = server.server_address[0], server.server_address[1]
        pairs = [
            (queries.names[i], queries[i].text()) for i in range(len(queries))
        ]
        summary = run_load(
            host, port, [pairs] * requests, concurrency=concurrency
        )
        summary.pop("results", None)
        return summary
    finally:
        server.drain_and_shutdown(timeout=30)
        server.server_close()
        thread.join(timeout=10)


def run_benchmark(quick: bool, workers: int = 2, requests: int | None = None):
    queries, resident = make_workload(quick)
    n = requests if requests is not None else (4 if quick else 12)
    cold, cold_rows = bench_cold(queries, resident, workers, n)
    # The default service traces every request (span tree + flight
    # record + SLO accounting), so "warm" is the obs-on measurement;
    # the tracing=False twin run by measure_obs_overhead isolates the
    # observability cost. The dark arm here only checks bit-identity.
    warm, warm_rows = bench_warm(queries, resident, workers, n)
    _, dark_rows = bench_warm(queries, resident, workers, 1, tracing=False)
    obs_overhead = measure_obs_overhead(queries, resident, workers, n)
    http = bench_http(queries, resident, workers, n, concurrency=2)
    return {
        "workload": {
            "quick": quick,
            "workers": workers,
            "resident_sequences": len(resident),
            "resident_residues": int(resident.total_residues),
            "query_sequences": len(queries),
            "alignments_per_request": len(cold_rows),
        },
        "cold": cold,
        "warm": warm,
        "http": http,
        "obs_overhead": obs_overhead,
        "warm_over_cold_speedup": warm["qps"] / cold["qps"],
        "bit_identical": warm_rows == cold_rows and dark_rows == cold_rows,
        "live_segments_after": list(live_segment_names()),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true", help="smoke-scale workload")
    parser.add_argument("--workers", type=int, default=2)
    parser.add_argument("--requests", type=int, default=None)
    parser.add_argument("--out", type=Path, default=DEFAULT_OUT)
    args = parser.parse_args(argv)
    report = run_benchmark(args.quick, args.workers, args.requests)
    args.out.write_text(json.dumps(report, indent=2) + "\n")
    w = report["workload"]
    print(
        f"workload: {w['resident_sequences']} resident seqs "
        f"({w['resident_residues']:,} aa), {w['query_sequences']} queries, "
        f"{w['alignments_per_request']} alignments/request"
    )
    for label in ("cold", "warm"):
        m = report[label]
        print(
            f"{label:>5}: {m['qps']:8.2f} qps  "
            f"({m['mean_request_s'] * 1e3:8.1f} ms/request)"
        )
    ttfh = report["http"]["time_to_first_hit_seconds"]
    print(f" http: {report['http']['qps']:8.2f} qps  "
          f"ttfh={'n/a' if ttfh is None else f'{ttfh:.3f}s'}  "
          f"shed_rate={report['http']['shed_rate']:.2f}")
    obs = report["obs_overhead"]
    print(
        f"  obs: {obs['qps_obs_on']:8.2f} qps on / "
        f"{obs['qps_obs_off']:8.2f} qps off  "
        f"(overhead {obs['overhead_fraction'] * 100:+.1f}%)"
    )
    print(f"warm speedup vs cold: {report['warm_over_cold_speedup']:.2f}x")
    print(f"bit identical: {report['bit_identical']}")
    print(f"wrote {args.out}")
    ok = (
        report["bit_identical"]
        and report["warm_over_cold_speedup"] > 1.0
        and not report["live_segments_after"]
    )
    return 0 if ok else 1


def test_serve_bench_smoke(tmp_path):
    """Pytest smoke: structure and bit-identity.

    Timing claims are ``main()``'s job (it gates the committed
    ``BENCH_serve.json`` on warm-beats-cold); the smoke only asserts
    shape, service health, and bit-identity so CI stays robust to
    noisy shared runners.
    """
    report = run_benchmark(quick=True, workers=2, requests=3)
    assert report["bit_identical"]
    assert report["warm_over_cold_speedup"] > 0
    assert report["workload"]["alignments_per_request"] > 0
    assert report["http"]["served"] == 3
    assert report["http"]["shed"] == 0 and report["http"]["errors"] == 0
    assert report["obs_overhead"]["qps_obs_on"] > 0
    assert report["obs_overhead"]["qps_obs_off"] > 0
    assert report["live_segments_after"] == []
    out = tmp_path / "BENCH_serve.json"
    out.write_text(json.dumps(report))
    assert json.loads(out.read_text())["warm"]["qps"] > 0


if __name__ == "__main__":
    raise SystemExit(main())
