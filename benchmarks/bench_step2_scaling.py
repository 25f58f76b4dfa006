"""Step-2 scaling benchmark: scalar → per-key → batched → sharded.

Measures the software step-2 engines on one synthetic workload and writes
``BENCH_step2.json`` so the perf trajectory of the hot path (97 % of
sequential runtime, paper Table 1) is tracked from PR to PR:

* ``scalar`` — :func:`ungapped_score_reference` driven pair by pair (the
  PE datapath in pure Python; measured on a capped pair sample and
  reported as a rate);
* ``per_key`` — one vectorised ``K0 × K1`` kernel call per shared index
  key (:meth:`UngappedExtender.run_per_key`);
* ``batched`` — the flat cross-entry batch engine and its ``fused``
  kernel (:class:`~repro.extend.batched.BatchedUngappedEngine` via the
  executor at ``workers=1``);
* ``batched_xN`` — the sharded multiprocess executor at each requested
  worker count (run with ``min_pairs_per_shard=0`` so the pool really
  spawns — the executor's default heuristic would route this sub-floor
  workload in-process, which is the production fix for the 2-worker
  regression this benchmark first exposed).

``scalar`` and ``per_key`` are the oracle and reference rates the
engine's speedups are read against.

All full-workload modes are checked for bit-identical hit sets before the
JSON is written.  Run directly (``python benchmarks/bench_step2_scaling.py
[--quick]``) or via pytest, where a smoke-scale invocation asserts the
modes agree.
"""

from __future__ import annotations

import argparse
import json
import os
import time
from pathlib import Path

import numpy as np

from repro.core.executor import ShardedStep2Executor
from repro.extend.ungapped import (
    UngappedConfig,
    UngappedExtender,
    ungapped_score_reference,
)
from repro.index.kmer import TwoBankIndex
from repro.index.subset_seed import DEFAULT_SUBSET_SEED
from repro.obs import metrics as obsmetrics
from repro.obs import trace
from repro.obs.export import build_run_report
from repro.seqs.generate import random_protein_bank

DEFAULT_OUT = Path(__file__).resolve().parent.parent / "BENCH_step2.json"

#: Pairs scored by the scalar oracle before extrapolating its rate.
SCALAR_PAIR_CAP = 1_500


def build_workload(quick: bool, seed: int = 2009):
    """Synthetic two-bank workload sized so per-key overhead is visible."""
    rng = np.random.default_rng(seed)
    n0, n1, mean = (60, 120, 160) if quick else (200, 400, 220)
    bank0 = random_protein_bank(rng, n0, mean_length=mean, name_prefix="q")
    bank1 = random_protein_bank(rng, n1, mean_length=mean, name_prefix="s")
    index = TwoBankIndex.build(bank0, bank1, DEFAULT_SUBSET_SEED)
    return bank0, bank1, index


def _time(fn, repeats: int = 1):
    """Best-of-*repeats* wall time and the last result."""
    best = float("inf")
    result = None
    for _ in range(repeats):
        t0 = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - t0)
    return best, result


def measure_scalar(index: TwoBankIndex, cfg: UngappedConfig) -> dict:
    """Scalar reference on a capped pair sample, extrapolated to a rate."""
    buf0 = index.index0.bank.buffer
    buf1 = index.index1.bank.buffer
    window = cfg.window
    scored = 0
    t0 = time.perf_counter()
    for entry in index.entries():
        for o0 in entry.offsets0:
            a0 = int(o0) - cfg.n
            for o1 in entry.offsets1:
                a1 = int(o1) - cfg.n
                ungapped_score_reference(
                    buf0[a0 : a0 + window], buf1[a1 : a1 + window],
                    cfg.matrix, cfg.semantics,
                )
                scored += 1
                if scored >= SCALAR_PAIR_CAP:
                    break
            if scored >= SCALAR_PAIR_CAP:
                break
        if scored >= SCALAR_PAIR_CAP:
            break
    wall = time.perf_counter() - t0
    rate = scored / wall if wall > 0 else 0.0
    total = index.total_pairs
    return {
        "pairs": total,
        "measured_pairs": scored,
        "wall_s": total / rate if rate else float("inf"),
        "measured_wall_s": wall,
        "pairs_per_s": rate,
        "extrapolated": True,
    }


def instrumented_rerun(
    cfg: UngappedConfig, index: TwoBankIndex, n_workers: int
) -> dict:
    """One obs-on re-run of a sharded mode, yielding its JSON run report.

    Runs *after* the timed repetitions on a fresh executor, so the wall
    numbers recorded for the mode stay free of tracing overhead; the
    report embedded per configuration carries the span tree and merged
    shard metrics instead of timing claims.
    """
    tracer = trace.Tracer(meta={"bench": "step2_scaling", "workers": n_workers})
    registry = obsmetrics.MetricsRegistry()
    executor = ShardedStep2Executor(cfg, workers=n_workers, min_pairs_per_shard=0)
    with trace.activate(tracer), obsmetrics.activate(registry):
        with trace.span("bench.step2", workers=n_workers):
            executor.run(index)
    return build_run_report(tracer=tracer, registry=registry)


def run_benchmark(
    quick: bool = False,
    workers: tuple[int, ...] = (2, 4),
    repeats: int = 2,
) -> dict:
    """Run every mode, verify identical hit sets, return the report dict."""
    bank0, bank1, index = build_workload(quick)
    cfg = UngappedConfig(w=DEFAULT_SUBSET_SEED.span, n=12, threshold=45)
    report: dict = {
        "workload": {
            "quick": quick,
            #: Worker scaling is bounded by physical cores; on a 1-CPU box
            #: the sharded modes only demonstrate bit-identical merging.
            "cpu_count": os.cpu_count(),
            "proteins0": len(bank0),
            "proteins1": len(bank1),
            "residues0": bank0.total_residues,
            "residues1": bank1.total_residues,
            "shared_keys": index.n_shared_keys,
            "pairs": index.total_pairs,
            "window": cfg.window,
            "threshold": cfg.threshold,
        },
        "modes": {},
    }
    report["modes"]["scalar"] = measure_scalar(index, cfg)

    wall, per_key_hits = _time(
        lambda: UngappedExtender(cfg).run_per_key(index), repeats
    )
    report["modes"]["per_key"] = {
        "pairs": per_key_hits.stats.pairs,
        "hits": per_key_hits.stats.hits,
        "wall_s": wall,
        "pairs_per_s": per_key_hits.stats.pairs / wall,
    }

    baselines = {"per_key": per_key_hits}
    for label, n_workers in [("batched", 1)] + [
        (f"batched_x{w}", w) for w in workers
    ]:
        # min_pairs_per_shard=0: force the pool so its cost stays measured.
        # In production the executor's default floor routes workloads this
        # small in-process (the fix for the 2-worker regression).
        executor = ShardedStep2Executor(
            cfg, workers=n_workers, min_pairs_per_shard=0
        )
        wall, hits = _time(lambda: executor.run(index), repeats)
        report["modes"][label] = {
            "workers": n_workers,
            "pairs": hits.stats.pairs,
            "hits": hits.stats.hits,
            "wall_s": wall,
            "pairs_per_s": hits.stats.pairs / wall,
            "shards": [
                {
                    "shard": t.shard,
                    "entries": t.entries,
                    "pairs": t.pairs,
                    "hits": t.hits,
                    "wall_s": t.wall_seconds,
                    "retry_wall_s": t.retry_wall_seconds,
                    "batches": t.batches,
                    "max_batch_pairs": t.max_batch_pairs,
                }
                for t in executor.last_timings
            ],
        }
        report["modes"][label]["obs_report"] = instrumented_rerun(
            cfg, index, n_workers
        )
        baselines[label] = hits

    report["min_pairs_per_shard_note"] = (
        "sharded modes force min_pairs_per_shard=0; the executor default "
        f"(262144) routes this {index.total_pairs}-pair workload in-process"
    )

    ref = baselines["per_key"]
    identical = all(
        np.array_equal(ref.offsets0, h.offsets0)
        and np.array_equal(ref.offsets1, h.offsets1)
        and np.array_equal(ref.scores, h.scores)
        for h in baselines.values()
    )
    report["identical_hit_sets"] = bool(identical)
    report["speedups_vs_per_key"] = {
        label: report["modes"]["per_key"]["wall_s"] / report["modes"][label]["wall_s"]
        for label in report["modes"]
        if label != "scalar"
    }
    return report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true", help="smoke-scale workload")
    parser.add_argument(
        "--workers", type=int, nargs="*", default=[2, 4],
        help="sharded worker counts to measure",
    )
    parser.add_argument("--repeats", type=int, default=2, help="best-of repeats")
    parser.add_argument(
        "--out", type=Path, default=DEFAULT_OUT, help="JSON output path"
    )
    args = parser.parse_args(argv)
    report = run_benchmark(args.quick, tuple(args.workers), args.repeats)
    args.out.write_text(json.dumps(report, indent=2) + "\n")
    w = report["workload"]
    print(f"workload: {w['pairs']:,} pairs over {w['shared_keys']:,} shared keys")
    for label, m in report["modes"].items():
        extra = " (extrapolated)" if m.get("extrapolated") else ""
        print(
            f"{label:>12}: {m['wall_s']:10.3f}s  "
            f"{m['pairs_per_s']:>14,.0f} pairs/s{extra}"
        )
    for label, s in report["speedups_vs_per_key"].items():
        print(f"{label:>12}: {s:6.2f}x vs per_key")
    print(f"identical hit sets: {report['identical_hit_sets']}")
    print(f"wrote {args.out}")
    return 0 if report["identical_hit_sets"] else 1


def test_step2_scaling_smoke(tmp_path):
    """Pytest smoke: quick scale, 2 workers, modes must agree."""
    from repro.obs.export import validate_report

    report = run_benchmark(quick=True, workers=(2,), repeats=1)
    assert report["identical_hit_sets"]
    assert report["modes"]["batched"]["hits"] == report["modes"]["per_key"]["hits"]
    for label in ("batched", "batched_x2"):
        embedded = report["modes"][label]["obs_report"]
        assert validate_report(embedded) == []
        assert any(s["name"] == "bench.step2" for s in embedded["spans"])
    out = tmp_path / "BENCH_step2.json"
    out.write_text(json.dumps(report))
    assert json.loads(out.read_text())["workload"]["pairs"] > 0


if __name__ == "__main__":
    raise SystemExit(main())
