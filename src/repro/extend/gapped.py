"""Step 3 — gapped extension.

Pairs surviving the ungapped filter are re-examined with gaps allowed.  Two
engines are provided:

* :func:`xdrop_gapped_extend` — BLAST's gapped X-drop extension with affine
  gap penalties, run left and right from the seed anchor.  Dynamic
  programming rows keep an *active window* of columns; cells falling more
  than ``x_drop`` below the running best are killed, so cost tracks the
  alignment's true extent rather than the sequence lengths.  Each half is
  a scalar loop over plain Python ints that visits only the live window of
  each row (:func:`_xdrop_half`); :func:`xdrop_half_reference`, one fresh
  numpy row per DP row, is its oracle in tests.  This is the engine the
  host runs in the accelerated pipeline.
* :func:`smith_waterman` — full (optionally banded) affine-gap local
  alignment with traceback, used as the ground-truth oracle in tests and
  for the CLC-style "sensitive" comparator of Table 5.

Both score with the shared substitution matrices; gap sentinels in bank
buffers carry :data:`~repro.seqs.matrices.GAP_SCORE` so extensions cannot
cross sequence boundaries.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..seqs.matrices import BLOSUM62, SubstitutionMatrix

__all__ = [
    "GapPenalties",
    "GappedExtension",
    "xdrop_gapped_extend",
    "xdrop_half_reference",
    "smith_waterman",
    "SWAlignment",
    "NEG_INF",
]

#: Effectively -infinity for int64 DP without overflow on addition.
NEG_INF = -(1 << 40)


@dataclass(frozen=True)
class GapPenalties:
    """Affine gap penalties (positive magnitudes, BLAST convention 11/1).

    A gap of length ``g`` costs ``open + g * extend``.
    """

    open: int = 11
    extend: int = 1

    def __post_init__(self) -> None:
        if self.open < 0 or self.extend < 0:
            raise ValueError("gap penalties are positive magnitudes")


def _xdrop_half(
    a: np.ndarray,
    b: np.ndarray,
    rows: list[list[int]],
    gaps: GapPenalties,
    x_drop: int,
) -> tuple[int, int, int, int]:
    """One direction of gapped X-drop DP, as a plain-int loop.

    Same contract as :func:`xdrop_half_reference`, its oracle: *a* and *b*
    are residue-code arrays (views welcome), *rows* the substitution matrix
    as nested lists (``matrix.scores.tolist()``).  Each DP row is visited
    only over its live window ``[max(lo, 1), min(hi + 1, n)]`` and stored
    window-relative, so a row costs its ~30 live cells and nothing of the
    ~4096-residue slice around them.  The semantics are the oracle's: the
    cutoff is fixed before each row, the vertical-gap state survives in
    killed cells, the horizontal one flows through them, and the row's
    leftmost best cell wins a tie.
    """
    m, n = len(a), len(b)
    if m == 0 or n == 0:
        return 0, 0, 0, 0
    go, ge = gaps.open + gaps.extend, gaps.extend
    # Row 0 is the anchor followed by one growing horizontal gap; it stays
    # alive out to column `hi`.  The window grows by at most one column a
    # row, so no column past `hi + m` is ever reached.
    if go > x_drop:
        hi = 0
    elif ge == 0:
        hi = n
    else:
        hi = min(n, (x_drop - go) // ge + 1)
    n = min(n, hi + m)
    bl = b[:n].tolist()
    # A stored row covers columns base .. base + len - 1: the left edge, the
    # computed cells, and one dead cell past the right end.
    H_prev = [0] + [-(go + ge * j) for j in range(hi)] + [NEG_INF]
    F_prev = [NEG_INF] * (hi + 2)
    base = 0
    lo = 0
    best = best_i = best_j = cells = 0
    for i, ai in enumerate(a.tolist(), 1):
        hi_new = hi + 1 if hi < n else n
        j_first = lo if lo > 1 else 1
        if j_first > hi_new:
            break
        width = hi_new - j_first + 1
        cells += width
        cutoff = best - x_drop
        h_left = NEG_INF
        if lo == 0:
            h0 = -(go + ge * (i - 1))
            if h0 >= cutoff:
                h_left = h0
        k = j_first - base
        diag = H_prev[k - 1]
        H = [h_left]
        F = [NEG_INF]
        put_h = H.append
        put_f = F.append
        e = NEG_INF
        row_best = NEG_INF
        srow = rows[ai]
        for bj, hp, fp in zip(
            bl[j_first - 1 : hi_new],
            H_prev[k : k + width],
            F_prev[k : k + width],
        ):
            f = hp - go
            fp -= ge
            if fp > f:
                f = fp
            h = diag + srow[bj]
            diag = hp
            if f > h:
                h = f
            e -= ge
            t = h_left - go
            if t > e:
                e = t
            if e > h:
                h = e
            if h < cutoff:
                h = NEG_INF
            elif h > row_best:
                row_best = h
            put_h(h)
            put_f(f)
            h_left = h
        put_h(NEG_INF)
        put_f(NEG_INF)
        base = j_first - 1
        if row_best > best:
            best = row_best
            best_i = i
            best_j = base + H.index(row_best, 1)
        if row_best == NEG_INF and H[0] == NEG_INF:
            break
        first = 0
        while H[first] == NEG_INF:
            first += 1
        last = len(H) - 2
        while H[last] == NEG_INF:
            last -= 1
        lo, hi = base + first, base + last
        H_prev, F_prev = H, F
    return best, best_i, best_j, cells


def xdrop_half_reference(
    a: np.ndarray,
    b: np.ndarray,
    sub: np.ndarray,
    gaps: GapPenalties,
    x_drop: int,
) -> tuple[int, int, int, int]:
    """One direction of gapped X-drop DP — the step-3 oracle.

    Aligns prefixes of *a* (rows) against prefixes of *b* (columns),
    anchored at (0, 0) with score 0; returns ``(best, best_i, best_j, cells)`` —
    the maximum extension score, how many residues of each sequence it
    consumed, and the DP cells evaluated.  *sub* is the substitution matrix
    as int64.  Every row is a fresh ``len(b) + 1`` array: deliberately
    simple and slow.  Only tests call it; :func:`_xdrop_half` must match it
    tuple for tuple.
    """
    a = np.asarray(a, dtype=np.uint8)
    b = np.asarray(b, dtype=np.uint8)
    m, n = len(a), len(b)
    if m == 0 or n == 0:
        return 0, 0, 0, 0
    go, ge = gaps.open + gaps.extend, gaps.extend
    best = 0
    best_i = best_j = 0
    cells = 0
    H_prev = np.full(n + 1, NEG_INF, dtype=np.int64)
    F_prev = np.full(n + 1, NEG_INF, dtype=np.int64)
    H_prev[0] = 0
    H_prev[1:] = -(go + ge * np.arange(n, dtype=np.int64))
    H_prev[1:][H_prev[1:] < -x_drop] = NEG_INF
    alive = np.flatnonzero(H_prev > NEG_INF)
    lo, hi = int(alive[0]), int(alive[-1])
    for i in range(1, m + 1):
        H = np.full(n + 1, NEG_INF, dtype=np.int64)
        F = np.full(n + 1, NEG_INF, dtype=np.int64)
        hi_new = min(hi + 1, n)
        if lo == 0:
            h0 = -(go + ge * (i - 1))
            if h0 >= best - x_drop:
                H[0] = h0
        j_first = max(lo, 1)
        if j_first > hi_new:
            break
        js = np.arange(j_first, hi_new + 1, dtype=np.int64)
        cells += js.shape[0]
        F[js] = np.maximum(H_prev[js] - go, F_prev[js] - ge)
        diag = H_prev[js - 1] + sub[int(a[i - 1]), b[js - 1]]
        cand = np.maximum(diag, F[js])
        cutoff = best - x_drop
        e_run = NEG_INF
        h_left = H[js[0] - 1]
        row_best = NEG_INF
        row_best_j = -1
        for idx in range(js.shape[0]):
            e_run = max(e_run - ge, h_left - go)
            h = cand[idx]
            if e_run > h:
                h = e_run
            if h < cutoff:
                h = NEG_INF
            H[js[idx]] = h
            h_left = h
            if h > row_best:
                row_best = h
                row_best_j = int(js[idx])
        if row_best > best:
            best = int(row_best)
            best_i = i
            best_j = row_best_j
        window = H[lo : hi_new + 1]
        alive_rel = np.flatnonzero(window > NEG_INF)
        if alive_rel.size == 0:
            break
        lo, hi = lo + int(alive_rel[0]), lo + int(alive_rel[-1])
        H_prev, F_prev = H, F
    return best, best_i, best_j, cells


@dataclass(frozen=True)
class GappedExtension:
    """Result of a gapped X-drop extension (endpoints, no traceback)."""

    score: int
    start0: int
    end0: int
    start1: int
    end1: int
    #: Number of DP cells evaluated (cost-model input).
    cells: int = 0

    @property
    def length0(self) -> int:
        """Extent on sequence 0."""
        return self.end0 - self.start0

    @property
    def length1(self) -> int:
        """Extent on sequence 1."""
        return self.end1 - self.start1


def xdrop_gapped_extend(
    buf0: np.ndarray,
    anchor0: int,
    buf1: np.ndarray,
    anchor1: int,
    matrix: SubstitutionMatrix = BLOSUM62,
    gaps: GapPenalties = GapPenalties(),
    x_drop: int = 38,
    max_extent: int = 4096,
) -> GappedExtension:
    """Gapped X-drop extension around an anchor pair.

    Extends right from ``(anchor0, anchor1)`` and left from
    ``(anchor0 - 1, anchor1 - 1)``; the total score is the sum of the two
    half extensions (the anchor itself is scored by the right half's first
    diagonal move).  ``max_extent`` caps the DP extent per direction as a
    safety bound; BLAST-scale alignments sit far below it.
    """
    rows = matrix.scores.tolist()
    r0 = buf0[anchor0 : anchor0 + max_extent]
    r1 = buf1[anchor1 : anchor1 + max_extent]
    sr, er0, er1, cr = _xdrop_half(r0, r1, rows, gaps, x_drop)
    l0 = buf0[max(0, anchor0 - max_extent) : anchor0][::-1]
    l1 = buf1[max(0, anchor1 - max_extent) : anchor1][::-1]
    sl, el0, el1, cl = _xdrop_half(l0, l1, rows, gaps, x_drop)
    return GappedExtension(
        score=sr + sl,
        start0=anchor0 - el0,
        end0=anchor0 + er0,
        start1=anchor1 - el1,
        end1=anchor1 + er1,
        cells=cr + cl,
    )


@dataclass(frozen=True)
class SWAlignment:
    """A local alignment with traceback strings."""

    score: int
    start0: int
    end0: int
    start1: int
    end1: int
    aligned0: str
    aligned1: str

    def identity(self) -> float:
        """Fraction of aligned (non-gap) columns with identical residues."""
        pairs = [
            (x, y) for x, y in zip(self.aligned0, self.aligned1, strict=True) if x != "-" and y != "-"
        ]
        if not pairs:
            return 0.0
        return sum(1 for x, y in pairs if x == y) / len(pairs)

    @property
    def n_gaps(self) -> int:
        """Total gapped columns."""
        return self.aligned0.count("-") + self.aligned1.count("-")


def smith_waterman(
    a: np.ndarray,
    b: np.ndarray,
    matrix: SubstitutionMatrix = BLOSUM62,
    gaps: GapPenalties = GapPenalties(),
    band: int | None = None,
) -> SWAlignment:
    """Full affine-gap Smith–Waterman with traceback.

    ``band`` restricts the DP to ``|i - j| ≤ band`` when given.  The matrix
    is kept whole (O(m·n) memory) because this function's role is oracle
    and report rendering, not bulk search.
    """
    from ..seqs.alphabet import AMINO

    a = np.asarray(a, dtype=np.uint8)
    b = np.asarray(b, dtype=np.uint8)
    m, n = len(a), len(b)
    go, ge = gaps.open + gaps.extend, gaps.extend
    sub = matrix.scores.astype(np.int64)
    H = np.zeros((m + 1, n + 1), dtype=np.int64)
    E = np.full((m + 1, n + 1), NEG_INF, dtype=np.int64)
    F = np.full((m + 1, n + 1), NEG_INF, dtype=np.int64)
    for i in range(1, m + 1):
        j_lo, j_hi = 1, n
        if band is not None:
            j_lo = max(1, i - band)
            j_hi = min(n, i + band)
        if j_lo > j_hi:
            continue
        js = np.arange(j_lo, j_hi + 1, dtype=np.int64)
        F[i, js] = np.maximum(H[i - 1, js] - go, F[i - 1, js] - ge)
        diag = H[i - 1, js - 1] + sub[int(a[i - 1]), b[js - 1]]
        base = np.maximum.reduce([diag, F[i, js], np.zeros_like(diag)])
        e_run = NEG_INF
        h_left = int(H[i, j_lo - 1])
        for idx in range(js.shape[0]):
            j = int(js[idx])
            e_run = max(e_run - ge, h_left - go)
            E[i, j] = e_run
            h = int(base[idx])
            if e_run > h:
                h = e_run
            H[i, j] = h
            h_left = h
    end = np.unravel_index(int(np.argmax(H)), H.shape)
    score = int(H[end])
    i, j = int(end[0]), int(end[1])
    out0: list[str] = []
    out1: list[str] = []
    letters = AMINO.letters
    while i > 0 and j > 0 and H[i, j] > 0:
        h = int(H[i, j])
        if h == H[i - 1, j - 1] + sub[int(a[i - 1]), int(b[j - 1])]:
            out0.append(letters[int(a[i - 1])])
            out1.append(letters[int(b[j - 1])])
            i -= 1
            j -= 1
        elif h == E[i, j]:
            # Gap in `a`: consume columns leftward until the gap-open cell.
            while True:
                out0.append("-")
                out1.append(letters[int(b[j - 1])])
                j -= 1
                if int(E[i, j + 1]) == int(H[i, j]) - go or j == 0:
                    break
        elif h == F[i, j]:
            # Gap in `b`: consume rows upward until the gap-open cell.
            while True:
                out0.append(letters[int(a[i - 1])])
                out1.append("-")
                i -= 1
                if int(F[i + 1, j]) == int(H[i, j]) - go or i == 0:
                    break
        else:  # pragma: no cover - defensive
            break
    return SWAlignment(
        score=score,
        start0=i,
        end0=int(end[0]),
        start1=j,
        end1=int(end[1]),
        aligned0="".join(reversed(out0)),
        aligned1="".join(reversed(out1)),
    )
