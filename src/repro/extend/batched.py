"""Step 2 — batched scoring engine.

The per-key path (:meth:`~repro.extend.ungapped.UngappedExtender.run_per_key`)
pays one Python-level kernel invocation per shared index key; with realistic
index lists (mean ``K`` of a few) that fixed cost dwarfs the handful of
window cells each key actually scores.  The hardware never pays it: the
host hands the PSC operator the IL0/IL1 lists of a run of index entries,
and the PE array consumes them as one continuous stream of pairs regardless
of which entry they came from.  This module is the software image of that
stream, and step-2 work takes exactly one shape here:

* :class:`EntryBlock` — a run of entries in flat CSR form, exactly
  :meth:`~repro.index.kmer.TwoBankIndex.shard_arrays` (the shard payload);
* :func:`iter_block_batches` — cuts a block's ``IL0[k] × IL1[k]`` cross
  products into flat anchor batches bounded by a pair budget (the analogue
  of filling the PE array's input FIFO), found by ``searchsorted`` over
  cumulative pair counts — no per-entry Python loop.  An entry larger than
  the budget is sliced lazily along its ``offsets0`` rows (and along
  ``offsets1`` when a single row exceeds the budget) without ever
  materialising its full cross product;
* :class:`BatchedUngappedEngine` — drives the batches through the ``fused``
  scoring kernel (:mod:`repro.extend.backends`) and concatenates the
  survivors in exactly the order the per-key path would have emitted them.
  The engine owns batching, threshold filtering and emission order; the
  kernel's scores are gated against the scalar oracle when it is built.

Degenerate cases are handled identically to the per-key path: an empty
shared key set yields an empty, dtype-correct result; an anchor whose
window would leave the bank buffer raises ``IndexError`` (the same error
:meth:`~repro.seqs.sequence.SequenceBank.windows` raises).
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from ..index.kmer import TwoBankIndex
from ..obs import metrics as obsmetrics
from .backends import FusedKernel, check_against_oracle
from .ungapped import UngappedConfig, UngappedHits, UngappedStats

__all__ = [
    "BatchedUngappedEngine",
    "EntryBlock",
    "iter_block_batches",
]


@dataclass(frozen=True)
class EntryBlock:
    """A contiguous run of entries in flat CSR form (the shard payload).

    ``counts0[i]``/``counts1[i]`` are entry *i*'s index-list lengths;
    ``offsets0``/``offsets1`` are the concatenated lists.  Exactly the
    tuple :meth:`~repro.index.kmer.TwoBankIndex.shard_arrays` returns, as
    one object the engine can batch without re-segmenting per entry.
    """

    offsets0: np.ndarray
    counts0: np.ndarray
    offsets1: np.ndarray
    counts1: np.ndarray

    @property
    def n_entries(self) -> int:
        """Number of entries in the block."""
        return int(self.counts0.shape[0])

    def pair_counts(self) -> np.ndarray:
        """K0×K1 per entry (int64)."""
        return self.counts0.astype(np.int64, copy=False) * self.counts1.astype(
            np.int64, copy=False
        )


def _expand_entries(
    flat0: np.ndarray,
    counts0: np.ndarray,
    flat1: np.ndarray,
    counts1: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Cross-product expansion of a run of entries, fully vectorised.

    Emits the exact enumeration order of the per-key path — entries in
    sequence, ``offsets0``-major within an entry — in a handful of numpy
    passes over the output length instead of a Python loop per entry.
    """
    c0 = counts0.astype(np.int64, copy=False)
    c1 = counts1.astype(np.int64, copy=False)
    # Each bank-0 offset becomes K1 consecutive pairs (its entry's K1).
    row_rep = np.repeat(c1, c0)
    anchors0 = np.repeat(flat0, row_rep)
    total = int(anchors0.shape[0])
    # Position of each pair within its bank-0 row, then within flat1.
    row_starts = np.concatenate(([0], np.cumsum(row_rep, dtype=np.int64)[:-1]))
    pos = np.arange(total, dtype=np.int64) - np.repeat(row_starts, row_rep)
    entry_starts1 = np.concatenate(([0], np.cumsum(c1, dtype=np.int64)[:-1]))
    anchors1 = flat1[np.repeat(np.repeat(entry_starts1, c0), row_rep) + pos]
    return anchors0, anchors1


def _split_oversized(
    off0: np.ndarray,
    off1: np.ndarray,
    budget: int,
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Slice one oversized entry's cross product lazily.

    Rows of ``offsets0`` are grouped so each slice stays within *budget*
    where ``K1`` permits; a single row wider than the budget is further
    cut along ``offsets1`` into column slices, so no batch ever exceeds
    the budget.  Only the slice being yielded is ever materialised.
    """
    k0 = int(off0.shape[0])
    k1 = int(off1.shape[0])
    if k1 > budget:
        for i in range(k0):
            for lo in range(0, k1, budget):
                cols = off1[lo : lo + budget]
                yield np.full(cols.shape[0], off0[i], dtype=np.int64), cols
        return
    rows = max(1, budget // k1)
    for lo in range(0, k0, rows):
        sl = off0[lo : lo + rows]
        yield np.repeat(sl, k1), np.tile(off1, sl.shape[0])


def iter_block_batches(
    block: EntryBlock, batch_pairs: int
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Yield flat ``(anchors0, anchors1)`` batches of *block*'s pairs.

    Entries are consumed in order; each contributes its full ``K0 × K1``
    cross product in offsets0-major order, so the concatenation of all
    batches enumerates pairs exactly as the per-key path does.  A batch
    ends at the first entry where the running pair count reaches
    *batch_pairs* (found by ``searchsorted`` on the cumulative pair
    counts), so it exceeds the budget by less than one entry.  An entry
    whose cross product alone exceeds the budget is sliced via
    :func:`_split_oversized`, never emitted as one oversized batch;
    entries without pairs are skipped.
    """
    budget = max(1, int(batch_pairs))
    n = block.n_entries
    if n == 0:
        return
    c0 = block.counts0.astype(np.int64, copy=False)
    c1 = block.counts1.astype(np.int64, copy=False)
    pc = block.pair_counts()
    starts0 = np.concatenate(([0], np.cumsum(c0, dtype=np.int64)))
    starts1 = np.concatenate(([0], np.cumsum(c1, dtype=np.int64)))
    cum = np.cumsum(pc, dtype=np.int64)
    giants = np.flatnonzero(pc > budget)
    gi = 0
    i = 0
    while i < n:
        if gi < giants.shape[0] and int(giants[gi]) == i:
            off0 = block.offsets0[starts0[i] : starts0[i + 1]]
            off1 = block.offsets1[starts1[i] : starts1[i + 1]]
            yield from _split_oversized(off0, off1, budget)
            i += 1
            gi += 1
            continue
        seg_end = int(giants[gi]) if gi < giants.shape[0] else n
        base = int(cum[i - 1]) if i > 0 else 0
        # First entry index at which the running count reaches the budget.
        j = int(np.searchsorted(cum[i:seg_end], base + budget, side="left"))
        end = i + j + 1 if i + j < seg_end else seg_end
        if int(cum[end - 1]) - base > 0:
            yield _expand_entries(
                block.offsets0[starts0[i] : starts0[end]],
                c0[i:end],
                block.offsets1[starts1[i] : starts1[end]],
                c1[i:end],
            )
        i = end


class BatchedUngappedEngine:
    """Step-2 engine scoring many index entries per kernel invocation.

    Builds one :class:`~repro.extend.backends.FusedKernel` for its config
    and checks it against the scalar oracle before any run
    (:func:`~repro.extend.backends.check_against_oracle` raises on a
    mismatch).  Hits, scores and emission order are bit-identical to the
    per-key path: the oracle gate covers the scores, and the engine owns
    enumeration order and threshold filtering.  :attr:`batches` and
    :attr:`max_batch_pairs` record the batch shape of the last run.
    """

    def __init__(self, config: UngappedConfig | None = None) -> None:
        self.config = config or UngappedConfig()
        self._kernel = FusedKernel(self.config)
        check_against_oracle(self._kernel, self.config)
        #: Kernel invocations of the most recent run.
        self.batches = 0
        #: Largest batch (in pairs) of the most recent run; 0 if none ran.
        self.max_batch_pairs = 0

    def run(self, index: TwoBankIndex) -> UngappedHits:
        """Run step 2 over every shared entry of *index*."""
        block = EntryBlock(*index.shard_arrays(0, index.n_shared_keys))
        return self.run_stream(
            index.index0.bank.buffer, index.index1.bank.buffer, block
        )

    def run_stream(
        self, buf0: np.ndarray, buf1: np.ndarray, block: EntryBlock
    ) -> UngappedHits:
        """Run step 2 over the entries of *block* against raw buffers.

        The step-2 executor calls this form in worker processes, where
        only the shared-memory buffers and the shard's :class:`EntryBlock`
        payload exist — no :class:`~repro.index.kmer.TwoBankIndex` is
        reconstructed.  Entry and pair counts come from the block.
        """
        cfg = self.config
        self.batches = 0
        self.max_batch_pairs = 0
        stats = UngappedStats(
            entries=block.n_entries, pairs=int(block.pair_counts().sum())
        )
        kernel = self._kernel
        kernel.prepare(buf0, buf1)
        out0: list[np.ndarray] = []
        out1: list[np.ndarray] = []
        out_s: list[np.ndarray] = []
        # The registry (and histogram-family lookup) is resolved once per
        # run, not per batch — the loop body is the step-2 hot path.
        registry = obsmetrics.active()
        batch_hist = (
            registry.histogram("step2_batch_pairs")
            if registry is not None
            else None
        )
        for p0, p1 in iter_block_batches(block, cfg.pair_chunk):
            n = int(p0.shape[0])
            self.batches += 1
            self.max_batch_pairs = max(self.max_batch_pairs, n)
            if batch_hist is not None:
                batch_hist.observe(n)
            scores = kernel.score(p0, p1)
            # Boolean selection copies, so the kernel's scratch view
            # stays safe past the next score() call.
            keep = scores >= cfg.threshold
            out0.append(p0[keep])
            out1.append(p1[keep])
            out_s.append(scores[keep])
        stats.cells = stats.pairs * cfg.window
        offsets0 = (
            np.concatenate(out0) if out0 else np.empty(0, dtype=np.int64)
        )
        offsets1 = (
            np.concatenate(out1) if out1 else np.empty(0, dtype=np.int64)
        )
        scores_all = (
            np.concatenate(out_s).astype(np.int32)
            if out_s
            else np.empty(0, dtype=np.int32)
        )
        stats.hits = int(scores_all.shape[0])
        return UngappedHits(offsets0, offsets1, scores_all, stats)
