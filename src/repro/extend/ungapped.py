"""Step 2 — ungapped extension.

For every seed pair the paper scores a fixed window of ``W + 2N`` residues
(the seed plus ``N`` flanking residues on each side) with a running maximum
of substitution costs, and forwards the pair to gapped extension when the
maximum exceeds a threshold.  This file contains:

* :func:`ungapped_score_reference` — the scalar loop exactly as the PE
  hardware computes it (one residue pair per clock cycle).  This is the
  oracle the cycle-accurate simulator and the vectorised kernel are both
  tested against.
* :func:`ungapped_scores` — the vectorised kernel: all ``K0 × K1`` pairs of
  one index entry scored at once; the scan over the window (length ~28) is
  the only Python-level loop, everything across pairs is NumPy.
* :class:`UngappedExtender` — the per-key reference: drives that kernel
  over a :class:`~repro.index.kmer.TwoBankIndex` one index entry at a
  time, chunking entries to bound memory.  Production step 2 is the
  batched engine (:class:`repro.extend.batched.BatchedUngappedEngine`),
  tested bit for bit against this path.
* :func:`ungapped_xdrop` — BLAST's unbounded diagonal X-drop extension,
  used by the NCBI-style baseline (it extends until the score falls X below
  the running best instead of using a fixed window).

Score semantics
---------------
The paper's pseudocode reads ``score = max(score, score + Sub[..])`` which
collapses to "sum of positive costs" and ignores residue order; the prose
and the standard algorithm both point at the local running score
``score = max(0, score + Sub[..])``.  Both are implemented behind
:class:`ScoreSemantics`; ``KADANE`` is the default and
``bench_ablation_semantics`` quantifies the difference.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Annotated

import numpy as np

from ..analysis.contracts import ArraySpec, contracted
from ..index.kmer import SeedEntry, TwoBankIndex
from ..seqs.matrices import BLOSUM62, SubstitutionMatrix
from ..seqs.sequence import SequenceBank

__all__ = [
    "ScoreSemantics",
    "BankBuffer",
    "ungapped_score_reference",
    "ungapped_scores",
    "UngappedConfig",
    "UngappedHits",
    "UngappedStats",
    "UngappedExtender",
    "ungapped_xdrop",
]

#: 1-D uint8 bank buffer: residue codes with pad/gap sentinels.  Checked at
#: runtime under ``REPRO_CONTRACTS=1`` (see :mod:`repro.analysis.contracts`).
BankBuffer = Annotated[np.ndarray, ArraySpec(dtype=np.uint8, ndim=1)]
#: ``(K, L)`` uint8 window matrices; the two sides of one outer-product
#: call must agree on the named window ``width`` dimension.
WindowMatrix0 = Annotated[np.ndarray, ArraySpec(dtype=np.uint8, shape=("k0", "width"))]
WindowMatrix1 = Annotated[np.ndarray, ArraySpec(dtype=np.uint8, shape=("k1", "width"))]


class ScoreSemantics(enum.Enum):
    """Window-scoring recurrence variant."""

    #: ``score = max(0, score + sub)`` — standard local running score.
    KADANE = "kadane"
    #: ``score = max(score, score + sub)`` — the paper's pseudocode as
    #: printed (sum of positive costs).
    PAPER_LITERAL = "paper-literal"


def ungapped_score_reference(
    s0: np.ndarray,
    s1: np.ndarray,
    matrix: SubstitutionMatrix = BLOSUM62,
    semantics: ScoreSemantics = ScoreSemantics.KADANE,
) -> int:
    """Score one window pair with the PE's sequential recurrence.

    ``s0`` and ``s1`` are equal-length code vectors (the ``W + 2N`` window).
    This mirrors the hardware datapath one cycle at a time and is kept
    deliberately scalar.
    """
    if len(s0) != len(s1):
        raise ValueError("windows must have equal length")
    score = 0
    best = 0
    for a, b in zip(s0, s1, strict=True):
        cost = int(matrix.scores[int(a), int(b)])
        if semantics is ScoreSemantics.KADANE:
            score = max(0, score + cost)
        else:
            score = max(score, score + cost)
        best = max(best, score)
    return best


@contracted
def ungapped_scores(
    windows0: WindowMatrix0,
    windows1: WindowMatrix1,
    matrix: SubstitutionMatrix = BLOSUM62,
    semantics: ScoreSemantics = ScoreSemantics.KADANE,
) -> Annotated[np.ndarray, ArraySpec(dtype=np.int32, shape=("k0", "k1"))]:
    """Score the full cross product of two window sets.

    Parameters
    ----------
    windows0:
        ``(K0, L)`` uint8 windows from bank 0.
    windows1:
        ``(K1, L)`` uint8 windows from bank 1.

    Returns
    -------
    ``(K0, K1)`` int32 array of maximum window scores.
    """
    w0 = np.asarray(windows0, dtype=np.uint8)
    w1 = np.asarray(windows1, dtype=np.uint8)
    if w0.ndim != 2 or w1.ndim != 2 or w0.shape[1] != w1.shape[1]:
        raise ValueError("windows must be 2-D with equal widths")
    k0, L = w0.shape
    k1 = w1.shape[0]
    sub = matrix.scores.astype(np.int32)
    score = np.zeros((k0, k1), dtype=np.int32)
    best = np.zeros((k0, k1), dtype=np.int32)
    if semantics is ScoreSemantics.KADANE:
        for t in range(L):
            np.add(score, sub[w0[:, t][:, None], w1[:, t][None, :]], out=score)
            np.maximum(score, 0, out=score)
            np.maximum(best, score, out=best)
    else:
        for t in range(L):
            cost = sub[w0[:, t][:, None], w1[:, t][None, :]]
            np.add(score, np.maximum(cost, 0), out=score)
        best = score
    return best


@dataclass(frozen=True)
class UngappedConfig:
    """Step-2 parameters.

    Attributes
    ----------
    w:
        Seed span in residues (the paper's ``W``; window = ``w + 2n``).
    n:
        Flank width on each side of the seed (the paper's ``N``).
    threshold:
        Minimum window score for a pair to survive to gapped extension.
    matrix:
        Substitution matrix.
    semantics:
        Recurrence variant; see :class:`ScoreSemantics`.
    pair_chunk:
        Upper bound on ``K0 × K1`` scored per kernel call (memory control).
    """

    w: int = 4
    n: int = 12
    threshold: int = 45
    matrix: SubstitutionMatrix = BLOSUM62
    semantics: ScoreSemantics = ScoreSemantics.KADANE
    pair_chunk: int = 1 << 20

    @property
    def window(self) -> int:
        """Window width ``W + 2N``."""
        return self.w + 2 * self.n


@dataclass
class UngappedStats:
    """Operation counts accumulated by step 2 (cost-model inputs)."""

    entries: int = 0
    pairs: int = 0
    cells: int = 0  # pairs × window width — one hardware clock cycle each
    hits: int = 0

    def merge(self, other: UngappedStats) -> None:
        """Accumulate another stats block in place."""
        self.entries += other.entries
        self.pairs += other.pairs
        self.cells += other.cells
        self.hits += other.hits


@dataclass(frozen=True)
class UngappedHits:
    """Pairs surviving step 2: parallel offset/score arrays.

    ``offsets0[i]`` / ``offsets1[i]`` are seed-anchor global offsets in the
    two banks, ``scores[i]`` the window score.
    """

    offsets0: np.ndarray
    offsets1: np.ndarray
    scores: np.ndarray
    stats: UngappedStats = field(default_factory=UngappedStats)

    def __len__(self) -> int:
        return int(self.offsets0.shape[0])

    @staticmethod
    def concatenate(parts: list[UngappedHits]) -> UngappedHits:
        """Merge chunked results, summing stats."""
        stats = UngappedStats()
        for p in parts:
            stats.merge(p.stats)
        if not parts:
            e = np.empty(0, dtype=np.int64)
            return UngappedHits(e, e, np.empty(0, dtype=np.int32), stats)
        return UngappedHits(
            np.concatenate([p.offsets0 for p in parts]),
            np.concatenate([p.offsets1 for p in parts]),
            np.concatenate([p.scores for p in parts]),
            stats,
        )


class UngappedExtender:
    """Per-key reference for step 2: one kernel call per index entry.

    The batched engine (:class:`repro.extend.batched.BatchedUngappedEngine`)
    runs step 2 in production; this class is the oracle it is checked
    against, one level above :func:`ungapped_score_reference`.
    """

    def __init__(self, config: UngappedConfig | None = None) -> None:
        self.config = config or UngappedConfig()

    @contracted
    def windows_for(
        self,
        bank: SequenceBank,
        offsets: Annotated[np.ndarray, ArraySpec(dtype=np.int64, shape=("k",))],
    ) -> Annotated[np.ndarray, ArraySpec(dtype=np.uint8, shape=("k", None))]:
        """Extract scoring windows centred on seed anchors."""
        cfg = self.config
        return bank.windows(offsets, left=cfg.n, width=cfg.window)

    def extend_entry(
        self, bank0: SequenceBank, bank1: SequenceBank, entry: SeedEntry
    ) -> UngappedHits:
        """Score every pair of one index entry; keep pairs above threshold."""
        cfg = self.config
        off0, off1 = entry.offsets0, entry.offsets1
        k0, k1 = off0.shape[0], off1.shape[0]
        stats = UngappedStats(entries=1, pairs=k0 * k1, cells=k0 * k1 * cfg.window)
        w1 = self.windows_for(bank1, off1)
        rows_per_chunk = max(1, cfg.pair_chunk // max(1, k1))
        parts0: list[np.ndarray] = []
        parts1: list[np.ndarray] = []
        parts_s: list[np.ndarray] = []
        for lo in range(0, k0, rows_per_chunk):
            hi = min(lo + rows_per_chunk, k0)
            w0 = self.windows_for(bank0, off0[lo:hi])
            scores = ungapped_scores(w0, w1, cfg.matrix, cfg.semantics)
            ii, jj = np.nonzero(scores >= cfg.threshold)
            parts0.append(off0[lo:hi][ii])
            parts1.append(off1[jj])
            parts_s.append(scores[ii, jj])
        offsets0 = np.concatenate(parts0) if parts0 else np.empty(0, dtype=np.int64)
        offsets1 = np.concatenate(parts1) if parts1 else np.empty(0, dtype=np.int64)
        scores = np.concatenate(parts_s) if parts_s else np.empty(0, dtype=np.int32)
        stats.hits = int(scores.shape[0])
        return UngappedHits(offsets0, offsets1, scores.astype(np.int32), stats)

    def run_per_key(self, index: TwoBankIndex) -> UngappedHits:
        """Per-key reference path: score one index entry at a time.

        Each shared key costs one :func:`ungapped_scores` call on its
        ``K0 × K1`` cross product.  Kept as the mid-fidelity oracle between
        :func:`ungapped_score_reference` and the batched engine (and as the
        baseline the scaling bench measures the batched speedup against);
        hit order is identical to the batched path — entries in ascending
        key order, pairs offsets0-major within an entry.
        """
        parts = [self.extend_entry(index.index0.bank, index.index1.bank, e)
                 for e in index.entries()]
        return UngappedHits.concatenate(parts)


def ungapped_xdrop(
    buf0: np.ndarray,
    pos0: int,
    buf1: np.ndarray,
    pos1: int,
    length: int,
    matrix: SubstitutionMatrix = BLOSUM62,
    x_drop: int = 16,
) -> tuple[int, int, int]:
    """BLAST-style unbounded ungapped X-drop extension along a diagonal.

    Extends a hit of *length* residues anchored at (*pos0*, *pos1*) left and
    right until the running score drops *x_drop* below the best seen.

    Returns ``(score, start_delta, end_delta)`` where the extended segment
    covers ``[pos0 - start_delta, pos0 + length + end_delta)`` on sequence 0
    (same deltas on sequence 1).  Gap sentinels in the buffers terminate the
    extension naturally via their large negative scores.
    """
    sub = matrix.scores
    score = 0
    for k in range(length):
        score += int(sub[int(buf0[pos0 + k]), int(buf1[pos1 + k])])
    best = score
    # Right extension.
    end_delta = 0
    run = score
    k = 0
    limit = min(len(buf0) - (pos0 + length), len(buf1) - (pos1 + length))
    while k < limit:
        run += int(sub[int(buf0[pos0 + length + k]), int(buf1[pos1 + length + k])])
        k += 1
        if run > best:
            best = run
            end_delta = k
        elif best - run > x_drop:
            break
    # Left extension (from the best right-extended score).
    start_delta = 0
    run = best
    k = 0
    limit = min(pos0, pos1)
    while k < limit:
        run += int(sub[int(buf0[pos0 - 1 - k]), int(buf1[pos1 - 1 - k])])
        k += 1
        if run > best:
            best = run
            start_delta = k
        elif best - run > x_drop:
            break
    return best, start_delta, end_delta
