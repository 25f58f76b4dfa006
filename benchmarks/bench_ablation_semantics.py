"""Ablation A — window-score semantics: Kadane vs the paper's literal
pseudocode.

The paper prints ``score = max(score, score + Sub[..])``, which reduces to
summing the positive substitution costs in the window (order-blind); the
conventional recurrence is ``score = max(0, score + Sub[..])``.  DESIGN.md
treats the printed form as a typo; this ablation quantifies the difference
on a live workload: the literal form passes far more background pairs at
any threshold (worse selectivity for equal hardware cost) while true-hit
scores barely move — evidence for the typo reading.
"""

from __future__ import annotations

import numpy as np

from harness import get_model, write_table
from repro.extend.batched import BatchedUngappedEngine
from repro.extend.ungapped import ScoreSemantics, UngappedConfig
from repro.index.kmer import TwoBankIndex
from repro.index.subset_seed import DEFAULT_SUBSET_SEED
from repro.seqs.generate import random_genome, random_protein_bank
from repro.seqs.translate import translated_bank
from repro.util.reporting import TextTable


def run_ablation():
    """Hit counts under both semantics on one background workload."""
    rng = np.random.default_rng(5)
    bank = random_protein_bank(rng, 150, mean_length=344)
    frames = translated_bank(random_genome(rng, 120_000))
    index = TwoBankIndex.build(bank, frames, DEFAULT_SUBSET_SEED)
    out = {}
    for sem in ScoreSemantics:
        hits = BatchedUngappedEngine(
            UngappedConfig(w=4, n=12, threshold=45, semantics=sem)
        ).run(index)
        out[sem] = hits
    return index, out


def build_table() -> TextTable:
    """Render the semantics ablation."""
    index, out = run_ablation()
    t = TextTable(
        "Ablation A — window-score semantics (background workload)",
        ["semantics", "hits ≥ 45", "hit rate", "false-trigger ratio vs Kadane"],
    )
    base = len(out[ScoreSemantics.KADANE])
    for sem in ScoreSemantics:
        hits = out[sem]
        t.add_row(
            sem.value,
            len(hits),
            f"{len(hits) / index.total_pairs:.2e}",
            f"{len(hits) / max(1, base):.1f}×",
        )
    t.add_note(
        "background pairs only: every extra literal-semantics hit is a "
        "false trigger handed to the expensive gapped stage"
    )
    return t


def test_ablation_semantics(benchmark):
    """Quantify the semantics gap; literal must be markedly less selective."""
    index, out = benchmark.pedantic(run_ablation, rounds=1, iterations=1)
    kadane = len(out[ScoreSemantics.KADANE])
    literal = len(out[ScoreSemantics.PAPER_LITERAL])
    # Literal scores dominate Kadane scores, so hits are a superset…
    assert literal >= kadane
    # …and on pure background the inflation is large (selectivity loss).
    assert literal > 5 * max(1, kadane)
    table = build_table()
    print()
    print(table.render())
    write_table("ablation_semantics", table.render())


if __name__ == "__main__":
    print(build_table().render())
