"""Workload partitioning across accelerators.

The paper's 2-FPGA experiment (Table 3) runs "two independent processes
driving separate FPGAs": the protein bank is split and each half is
compared against the full genome on its own FPGA, results being merged on
the host.  This module provides the partitioning strategies:

* :func:`split_bank` — split a bank into ``n`` sub-banks balanced by total
  residue count (greedy longest-first bin packing), which balances *index
  anchor* counts and hence step-2 work;
* :func:`split_entries_contiguous` — pair-balanced *contiguous* ranges of
  the shared-key entry list, the generalisation of the 2-FPGA split to N
  workers used by the sharded step-2 executor: because each shard is a
  run of consecutive entries, concatenating shard results in shard order
  reproduces the single-process emission order exactly.
"""

from __future__ import annotations

import numpy as np

from ..index.kmer import TwoBankIndex
from ..seqs.sequence import SequenceBank

__all__ = [
    "split_bank",
    "split_entries_contiguous",
    "partition_imbalance",
]


def split_bank(bank: SequenceBank, n_parts: int) -> list[SequenceBank]:
    """Split *bank* into *n_parts* residue-balanced sub-banks.

    Sequences are assigned greedily, longest first, to the currently
    lightest part — the classic LPT heuristic, within 4/3 of optimal
    makespan.  Sub-banks preserve sequence order within each part.
    """
    if n_parts < 1:
        raise ValueError("n_parts must be >= 1")
    if n_parts == 1:
        return [bank]
    lengths = bank.lengths
    order = np.argsort(-lengths, kind="stable")
    loads = np.zeros(n_parts, dtype=np.int64)
    assignment = np.empty(len(bank), dtype=np.int64)
    for i in order:
        part = int(np.argmin(loads))
        assignment[i] = part
        loads[part] += int(lengths[i])
    parts: list[SequenceBank] = []
    for p in range(n_parts):
        members = [bank[int(i)] for i in np.flatnonzero(assignment == p)]
        parts.append(SequenceBank(members, bank.alphabet, pad=bank.pad))
    return parts


def split_entries_contiguous(
    index: TwoBankIndex, n_parts: int
) -> list[tuple[int, int]]:
    """Cut the shared-entry list into *n_parts* contiguous pair-balanced runs.

    Returns half-open ``(lo, hi)`` ranges over entry ids ``0 ..
    n_shared_keys`` covering the work list in order (some ranges may be
    empty).  Cut points sit at the pair-count quantiles, so each shard
    carries ≈ ``total_pairs / n_parts`` ungapped extensions; the ranges
    preserve entry order, which is what makes the sharded executor's
    merged output bit-identical to the single-process run.
    """
    if n_parts < 1:
        raise ValueError("n_parts must be >= 1")
    counts = index.pair_counts()
    n = int(counts.shape[0])
    if n == 0:
        return [(0, 0)] * n_parts
    cum = np.cumsum(counts, dtype=np.int64)
    targets = cum[-1] * np.arange(1, n_parts, dtype=np.float64) / n_parts
    cuts = np.searchsorted(cum, targets, side="left") + 1
    bounds = np.concatenate(([0], np.minimum(cuts, n), [n]))
    bounds = np.maximum.accumulate(bounds)
    return [(int(bounds[i]), int(bounds[i + 1])) for i in range(n_parts)]


def partition_imbalance(loads: np.ndarray) -> float:
    """Makespan imbalance: max load / mean load (1.0 = perfect)."""
    loads = np.asarray(loads, dtype=np.float64)
    if loads.size == 0 or loads.mean() == 0:
        return 1.0
    return float(loads.max() / loads.mean())
