"""Step 3 — gapped extension.

Pairs surviving the ungapped filter are re-examined with gaps allowed:
BLAST's gapped X-drop extension with affine gap penalties, run left and
right from the seed anchor (:func:`xdrop_gapped_extend`).  Dynamic
programming rows keep an *active window* of columns; cells falling more
than ``x_drop`` below the running best are killed, so cost tracks the
alignment's true extent rather than the sequence lengths.  One direction
of it — a *half* — has three engines, all returning the same
``(best, best_i, best_j, cells)``:

* :func:`lockstep_halves` — the pipeline's engine: many halves as lanes
  of one batch, every live lane advancing one DP row per NumPy step, the
  way the PSC operator's array of PEs advances one residue per clock.
  Step 3 runs each wave of extensions through it
  (:func:`repro.core.pipeline.gapped_stage`).
* :func:`_xdrop_half` — a scalar loop over plain Python ints that visits
  only the live window of each row: the engine for batches below the
  lockstep lane floor, and :func:`xdrop_gapped_extend`'s own, which the
  tblastn-style baseline calls once per hit.
* :func:`xdrop_half_reference` — one fresh numpy row per DP row; the slow
  oracle both are tested against.

:func:`smith_waterman` — full (optionally banded) affine-gap local
alignment with traceback — is the ground-truth oracle in tests and the
CLC-style "sensitive" comparator of Table 5.

All score with the shared substitution matrices; gap sentinels in bank
buffers carry :data:`~repro.seqs.matrices.GAP_SCORE` so extensions cannot
cross sequence boundaries.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from ..seqs.matrices import BLOSUM62, SubstitutionMatrix

__all__ = [
    "GapPenalties",
    "GappedExtension",
    "xdrop_gapped_extend",
    "xdrop_half_reference",
    "lockstep_halves",
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


def lockstep_halves(
    buf0: np.ndarray,
    buf1: np.ndarray,
    anchors0: np.ndarray,
    anchors1: np.ndarray,
    leftward: np.ndarray,
    sub: np.ndarray,
    gaps: GapPenalties,
    x_drop: int,
    max_extent: int = 4096,
    tick: Callable[[], None] | None = None,
) -> np.ndarray:
    """Many X-drop halves at once, one DP row of every live half per step.

    Lane ``k`` is the half :func:`xdrop_gapped_extend` runs from
    ``(anchors0[k], anchors1[k])``: rightward over ``buf0[anchor0:]`` ×
    ``buf1[anchor1:]``, or, where ``leftward[k]``, over the reversed
    prefixes ending at the anchor; each direction is capped at
    *max_extent* residues.  Returns an ``(lanes, 4)`` int64 array of
    ``(best, best_i, best_j, cells)``, lane for lane equal to
    :func:`_xdrop_half` (DESIGN §11 has the argument).  Each row's residues
    are gathered from the banks by lane anchor and direction, so no lane
    copies its slices.  *sub* is the substitution matrix as int64;
    *tick*, when given, is called once per row step and may raise to
    abandon the batch.

    A row is computed in full-window form: the vertical-gap state and the
    diagonal are gathered from the previous row; the horizontal-gap state
    is a prefix maximum (one ``np.maximum.accumulate``), and the X-drop cut
    is applied after the row.  A lane leaves the batch on the
    row where :func:`_xdrop_half` breaks; dead lanes are dropped from the
    arrays once a quarter of them are done.
    """
    go, ge = gaps.open + gaps.extend, gaps.extend
    a0 = np.asarray(anchors0, dtype=np.int64)
    a1 = np.asarray(anchors1, dtype=np.int64)
    left = np.asarray(leftward, dtype=np.bool_)
    out = np.zeros((a0.size, 4), dtype=np.int64)
    # A leftward half covers buf[max(0, a - max_extent) : a] reversed, as the
    # slice in xdrop_gapped_extend does: an anchor past the bank's end
    # starts from its last residue.
    end0, end1 = np.minimum(a0, buf0.size), np.minimum(a1, buf1.size)
    m = np.where(left, end0 - np.maximum(a0 - max_extent, 0), buf0.size - a0)
    n = np.where(left, end1 - np.maximum(a1 - max_extent, 0), buf1.size - a1)
    m, n = np.clip(m, 0, max_extent), np.clip(n, 0, max_extent)
    ids = np.flatnonzero((m > 0) & (n > 0))
    if ids.size == 0:
        return out
    # Row 0, as in _xdrop_half: the anchor, then one growing horizontal gap
    # alive out to column `hi`; no column past `hi + m` is ever reached.
    if go > x_drop:
        reach = 0
    elif ge == 0:
        reach = max_extent
    else:
        reach = (x_drop - go) // ge + 1
    m, n, left = m[ids], n[ids], left[ids]
    step = np.where(left, -1, 1).astype(np.int64)
    # Row i of a lane reads buf0 at a_pos = anchor0 + step * (i - 1) (from
    # end0 - 1 to the left), and column j reads buf1 at b_first + step * t.
    a_pos = np.where(left, end0[ids] - 1, a0[ids])
    b_first = np.where(left, end1[ids] - 1, a1[ids])
    hi = np.minimum(n, reach)
    n = np.minimum(n, hi + m)
    lanes = ids.size
    width0 = int(hi.max())
    cols = np.arange(width0 + 2, dtype=np.int64)
    # A stored row holds the cell left of the row's first column, the
    # row's cells and one dead cell; `U` is max(H - go, F - ge), the
    # vertical-gap state the cell below inherits.  Row 0 starts at column 0.
    H_prev = np.where(cols > hi[:, None], NEG_INF, -(go + ge * (cols - 1)))
    H_prev[:, 0] = 0
    U_prev = H_prev - go
    # The next row's first and last column, the shift of its first column
    # past the stored row's, and whether its column 0 is still alive.
    j_first = np.ones(lanes, dtype=np.int64)
    hi_new = np.minimum(hi + 1, n)
    shift = np.zeros(lanes, dtype=np.int64)
    edge = np.ones(lanes, dtype=np.bool_)
    best = np.zeros(lanes, dtype=np.int64)
    best_i = np.zeros(lanes, dtype=np.int64)
    best_j = np.zeros(lanes, dtype=np.int64)
    cells = np.zeros(lanes, dtype=np.int64)
    active = np.ones(lanes, dtype=np.bool_)
    flat_sub = np.ascontiguousarray(sub, dtype=np.int64).ravel()
    n_codes = sub.shape[1]
    lane = np.arange(lanes, dtype=np.int64)
    walk = step[:, None] * cols
    rows_left = int(m.min())
    i = 0
    while True:
        i += 1
        if tick is not None:
            tick()
        if i > rows_left:
            # Rows used up.  (j_first <= hi_new always holds for a live
            # lane: its row keeps a live cell at or before hi_new.)
            active &= m >= i
            rows_left = int(m[active].min()) if active.any() else i
        live = int(np.count_nonzero(active))
        if live == 0:
            break
        if 4 * (lanes - live) >= lanes:
            done = ~active
            out[ids[done]] = np.stack([best, best_i, best_j, cells], axis=1)[done]
            keep = np.flatnonzero(active)
            ids, m, n, step, walk, a_pos, b_first = (
                ids[keep], m[keep], n[keep], step[keep], walk[keep],
                a_pos[keep], b_first[keep],
            )
            j_first, hi_new, shift, edge = (
                j_first[keep], hi_new[keep], shift[keep], edge[keep]
            )
            best, best_i, best_j, cells = (
                best[keep], best_i[keep], best_j[keep], cells[keep]
            )
            H_prev, U_prev = H_prev[keep], U_prev[keep]
            lanes = live
            lane = np.arange(lanes, dtype=np.int64)
            active = np.ones(lanes, dtype=np.bool_)
        width = hi_new - j_first + 1
        if live < lanes:
            width = np.where(active, width, 0)
        W = int(width.max())
        if cols.size < W + 1:
            cols = np.arange(2 * W + 1, dtype=np.int64)
            walk = step[:, None] * cols
        t = cols[:W]
        cutoff = best - x_drop
        # Column 0 of row i scores h0; past the first rows it is below any
        # cutoff (>= -x_drop) in every lane.
        h0 = -(go + ge * (i - 1))
        h_left = np.where(edge & (h0 >= cutoff), h0, NEG_INF) if h0 >= -x_drop else None
        # Flat offsets of each column's diagonal cell in the stored row; the
        # cell above is one to the right.  Columns past a lane's row read
        # garbage (clipped to the array) and are killed below.
        diag_at = (lane * H_prev.shape[1] + shift)[:, None] + t
        F_row = U_prev.ravel().take(diag_at + 1, mode="clip")
        diag = H_prev.ravel().take(diag_at, mode="clip")
        a_codes = np.multiply(buf0.take(a_pos, mode="clip"), n_codes, dtype=np.int64)
        a_pos += step
        codes = np.add(
            buf1.take(b_first[:, None] + walk[:, :W], mode="clip"), a_codes[:, None]
        )
        diag += flat_sub.take(codes)
        np.maximum(diag, F_row, out=diag)
        # E at column t: max(h_left - ge, max_{k<t}(c_k + ge*k)) - go - ge*(t-1).
        run = np.empty((lanes, W), dtype=np.int64)
        run[:, 0] = NEG_INF if h_left is None else h_left - ge
        np.add(diag[:, :-1], ge * t[:-1], out=run[:, 1:])
        np.maximum.accumulate(run, axis=1, out=run)
        run -= go + ge * (t - 1)
        H_next = np.empty((lanes, W + 2), dtype=np.int64)
        H_row = H_next[:, 1 : W + 1]
        np.maximum(diag, run, out=H_row)
        dead = H_row < cutoff[:, None]
        dead |= t >= width[:, None]
        np.putmask(H_row, dead, NEG_INF)
        H_next[:, 0] = NEG_INF if h_left is None else h_left
        H_next[:, W + 1] = NEG_INF
        U_next = np.empty((lanes, W + 2), dtype=np.int64)
        U_row = U_next[:, 1 : W + 1]
        np.subtract(H_row, go, out=U_row)
        F_row -= ge
        np.maximum(U_row, F_row, out=U_row)
        # The next row reads at most one column past this one's cells.
        U_next[lane, width + 1] = NEG_INF
        first = H_row.argmax(axis=1)
        row_best = H_row[lane, first]
        better = row_best > best
        best = np.where(better, row_best, best)
        np.copyto(best_i, i, where=better)
        best_j = np.where(better, j_first + first, best_j)
        cells += width
        any_alive = row_best > NEG_INF
        # The next row spans the live cells' columns, one more to the right.
        j_next = j_first + dead.argmin(axis=1)
        hi_new = np.minimum(j_first + W - dead[:, ::-1].argmin(axis=1), n)
        if h_left is None:
            active &= any_alive
        else:
            edge = h_left > NEG_INF
            active &= any_alive | edge
            j_next = np.where(edge, 1, j_next)
            hi_new = np.where(any_alive, hi_new, 1)
        shift = j_next - j_first
        b_first += step * shift
        j_first = j_next
        H_prev, U_prev = H_next, U_next
    out[ids] = np.stack([best, best_i, best_j, cells], axis=1)
    return out


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
