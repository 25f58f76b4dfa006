"""The traced pass: replay a fixed sample in-process, one span per layer.

Each request is replayed through the layers' public functions under a
:class:`repro.obs.trace.Tracer` this module activates itself:

========  =====================================================
span      call
========  =====================================================
step1     ``BankIndex`` + ``TwoBankIndex`` (one-shot: also
          ``translated_bank``, as child span ``step1.translate``)
step2     ``WarmPool.step2`` (serve) or ``ShardedStep2Executor.run``
          (one-shot); the program's own ``step2.shard`` spans nest
          inside it
step3     ``core.pipeline.gapped_stage``
format    the response body (serve) or the ``compare`` report lines
========  =====================================================

A span's self time is its duration minus the part of it covered by its
children.  ``coverage`` is the share of the replayed request wall that
falls inside the four layer spans.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from repro.core.config import PipelineConfig
from repro.core.executor import ShardedStep2Executor, live_segment_names
from repro.core.partition import split_entries_contiguous
from repro.core.pipeline import gapped_stage
from repro.core.profile import PipelineProfile
from repro.index.kmer import BankIndex, TwoBankIndex
from repro.obs import trace
from repro.seqs.sequence import BankBuilder, Sequence, SequenceBank
from repro.seqs.translate import translated_bank
from repro.serve.pool import WarmPool

LAYERS = ("step1", "step2", "step3", "format")


def cli_lines(report, max_hits: int = 25) -> list[str]:
    """The report as ``repro-psc compare`` prints it (counts + rows)."""
    lines = [
        f"# seed pairs={report.n_seed_pairs}  ungapped hits="
        f"{report.n_ungapped_hits}  gapped extensions="
        f"{report.n_gapped_extensions}  alignments={len(report)}"
    ]
    for a in report.best(max_hits):
        lines.append(
            f"{a.seq0_name}\t{a.seq1_name}\t{a.start0}\t{a.end0}\t"
            f"{a.start1}\t{a.end1}\t{a.raw_score}\t{a.bit_score:.1f}\t"
            f"{a.evalue:.2e}"
        )
    return lines


def response_body(report) -> bytes:
    """The ``/search`` body's alignment payload, serialised as the server does."""
    return json.dumps(
        {
            "n_seed_pairs": report.n_seed_pairs,
            "n_ungapped_hits": report.n_ungapped_hits,
            "n_gapped_extensions": report.n_gapped_extensions,
            "n_alignments": len(report.alignments),
            "alignments": [
                {
                    "query": a.seq0_name,
                    "subject": a.seq1_name,
                    "query_range": [a.start0, a.end0],
                    "subject_range": [a.start1, a.end1],
                    "raw_score": a.raw_score,
                    "ungapped_score": a.ungapped_score,
                    "bit_score": a.bit_score,
                    "evalue": a.evalue,
                }
                for a in report.alignments
            ],
        }
    ).encode("utf-8")


@dataclass
class Ledger:
    """Counts of the replayed sample; times come from the tracer."""

    tracer: trace.Tracer = field(default_factory=trace.Tracer)
    residues: int = 0
    pairs: int = 0
    hits: int = 0
    extensions: int = 0
    cells: int = 0
    alignments: int = 0
    bytes_to_workers: int = 0
    reports: list = field(default_factory=list)

    def count(self, residues: int, hits, profile: PipelineProfile, report) -> None:
        self.residues += residues
        self.pairs += hits.stats.pairs
        self.hits += len(hits)
        self.extensions += profile.step3.items
        self.cells += profile.step3.operations
        self.alignments += len(report.alignments)
        self.reports.append(report)


def _pooled(ledger: Ledger, request_span_id: int) -> bool:
    """True when the request's step 2 ran on worker processes."""
    spans = ledger.tracer.spans
    step2 = next(
        s.span_id for s in spans
        if s.parent_id == request_span_id and s.name == "step2"
    )
    return any(
        s.parent_id == step2 and s.name == "step2.shard"
        and s.attributes.get("via") != "local"
        for s in spans
    )


def _shard_payload_bytes(index: TwoBankIndex, workers: int, per_shard: int = 0) -> int:
    """Bytes the step-2 split ships to workers: each shard's work list
    plus *per_shard* bytes that ride every task."""
    n_shards = max(1, min(workers, index.n_shared_keys))
    total = 0
    for lo, hi in split_entries_contiguous(index, n_shards):
        if hi > lo:
            total += per_shard + sum(a.nbytes for a in index.shard_arrays(lo, hi))
    return total


def replay_serve(
    resident: SequenceBank,
    requests: list[list[tuple[str, str]]],
    config: PipelineConfig,
) -> tuple[Ledger, list[str]]:
    """Boot a warm pool in-process and replay *requests* through the layers.

    Returns the ledger and the shared-memory segments still owned after
    the pool closed (must be empty).
    """
    ledger = Ledger()
    model = config.seed_model
    with trace.activate(ledger.tracer):
        with trace.span("setup"):
            with trace.span("setup.index"):
                BankIndex(resident, model)
            with trace.span("setup.stage"):
                pool = WarmPool(config, resident, workers=config.workers)
            with trace.span("setup.pool_warm"):
                pool.warm_up()
        try:
            for queries in requests:
                builder = BankBuilder()
                for name, text in queries:
                    builder.add(name, text)
                bank = builder.build()
                profile = PipelineProfile()
                with trace.span("request") as req:
                    with trace.span("step1"):
                        index = TwoBankIndex(BankIndex(bank, model), pool.resident_index)
                    with trace.span("step2"):
                        hits = pool.step2(index)
                    with trace.span("step3"):
                        report = gapped_stage(
                            bank, pool.resident_index.bank, hits, config, profile
                        )
                    with trace.span("format"):
                        response_body(report)
                ledger.count(bank.total_residues, hits, profile, report)
                if _pooled(ledger, req.span_id):
                    # Warm path: the query bank's bytes ride every task.
                    ledger.bytes_to_workers += _shard_payload_bytes(
                        index, config.workers, per_shard=bank.buffer.nbytes
                    )
        finally:
            pool.close()
    return ledger, list(live_segment_names())


def replay_genome(
    proteins: SequenceBank, genome: Sequence, config: PipelineConfig
) -> tuple[Ledger, list[str]]:
    """Replay one ``compare`` run (``compare_with_genome``) through the layers."""
    ledger = Ledger()
    profile = PipelineProfile()
    with trace.activate(ledger.tracer):
        with trace.span("request") as req:
            with trace.span("step1"):
                with trace.span("step1.translate"):
                    frames = translated_bank(genome, pad=max(64, config.flank + 8))
                with trace.span("step1.index"):
                    index = TwoBankIndex.build(proteins, frames, config.seed_model)
            with trace.span("step2"):
                hits = ShardedStep2Executor(
                    config.ungapped_config(),
                    workers=config.workers,
                    supervisor=config.supervisor_config(),
                    min_pairs_per_shard=config.min_pairs_per_shard,
                ).run(index)
            with trace.span("step3"):
                report = gapped_stage(proteins, frames, hits, config, profile)
            with trace.span("format"):
                "\n".join(cli_lines(report))
    ledger.count(proteins.total_residues + frames.total_residues, hits, profile, report)
    if _pooled(ledger, req.span_id):
        # Cold path: both banks are staged into shared memory, then each
        # shard's work list rides the task payload.
        ledger.bytes_to_workers += (
            proteins.buffer.nbytes + frames.buffer.nbytes
            + _shard_payload_bytes(index, config.workers)
        )
    return ledger, list(live_segment_names())


def _covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of *intervals* clipped to ``[lo, hi]``."""
    total = 0.0
    cursor = lo
    for a, b in sorted(intervals):
        a, b = max(a, cursor), min(b, hi)
        if b > a:
            total += b - a
            cursor = b
    return total


def self_time(span: trace.Span, children: list[trace.Span]) -> float:
    """Duration minus the part covered by child spans."""
    end = span.start + (span.duration or 0.0)
    return (span.duration or 0.0) - _covered(
        [(c.start, c.start + (c.duration or 0.0)) for c in children],
        span.start,
        end,
    )


def summarize(
    ledger: Ledger, overhead: list[float], queue: list[float]
) -> tuple[dict[str, float], dict[str, object]]:
    """Per-layer metrics (``per_layer`` names) and extra detail.

    *overhead* and *queue* are per request, measured on the real program:
    the client wall not spent inside the server's handler (HTTP, or
    process start and printing for ``compare``) and the admission wait.
    Shares are of the wall a client waits for: the replayed request plus
    those two.  ``coverage`` is internal to the replay.
    """
    spans = ledger.tracer.spans
    by_parent: dict[int | None, list[trace.Span]] = {}
    for s in spans:
        by_parent.setdefault(s.parent_id, []).append(s)
    requests = [s for s in spans if s.name == "request"]
    per: dict[str, list[float]] = {
        k: [] for k in (*LAYERS, "request", "step2.self", "step2.shard_max")
    }
    for req in requests:
        per["request"].append(req.duration or 0.0)
        layers = {c.name: c for c in by_parent.get(req.span_id, [])}
        for name in LAYERS:
            per[name].append(layers[name].duration or 0.0)
        step2 = layers["step2"]
        shards = [c for c in by_parent.get(step2.span_id, []) if c.name == "step2.shard"]
        per["step2.self"].append(self_time(step2, shards))
        per["step2.shard_max"].append(max((c.duration or 0.0) for c in shards))
    total = {k: float(sum(v)) for k, v in per.items()}
    wall = total["request"]
    client_wall = wall + sum(overhead) + sum(queue)
    metrics = {
        "client.overhead_s": float(np.median(overhead)),
        "step1.s": float(np.median(per["step1"])),
        "step1.residues_per_s": ledger.residues / total["step1"],
        "step2.s": float(np.median(per["step2"])),
        "step2.shard_max_s": float(np.median(per["step2.shard_max"])),
        "step2.outside_shard_s": float(np.median(per["step2.self"])),
        "step2.pairs": ledger.pairs,
        "step2.hits": ledger.hits,
        "step2.pairs_per_s": ledger.pairs / total["step2"],
        "step2.bytes_to_workers": ledger.bytes_to_workers,
        "step3.s": float(np.median(per["step3"])),
        "step3.extensions": ledger.extensions,
        "step3.cells": ledger.cells,
        "step3.cells_per_s": ledger.cells / total["step3"] if total["step3"] else 0.0,
        "format.s": float(np.median(per["format"])),
        "client.share": sum(overhead) / client_wall,
        "step1.share": total["step1"] / client_wall,
        "step2.share": total["step2"] / client_wall,
        "step3.share": total["step3"] / client_wall,
        "format.share": total["format"] / client_wall,
        "coverage": sum(total[k] for k in LAYERS) / wall,
    }
    detail: dict[str, object] = {
        "requests_replayed": len(requests),
        "request_wall_s": wall,
        "admission.share": sum(queue) / client_wall,
        "uncovered_s": wall - sum(total[k] for k in LAYERS),
        "step3.alignments": ledger.alignments,
        "step3.alignments_per_extension": (
            ledger.alignments / ledger.extensions if ledger.extensions else None
        ),
    }
    named = {s.name: s for s in spans if s.name.startswith(("setup.", "step1."))}
    for name in ("setup.index", "setup.stage", "setup.pool_warm", "step1.translate"):
        if name in named:
            detail[f"{name}_s"] = named[name].duration
    return metrics, detail
