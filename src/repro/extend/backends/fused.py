"""The step-2 scoring kernel — shifted-view fused scan — and its oracle gate.

The naive paired formulation pays three gathers per window column (two
residues, one 2-D matrix cell) plus temporaries.  This kernel fuses the
column step into fewer, allocation-free passes:

* **Pre-scaled bank.**  ``prepare`` multiplies bank 0 once into an int16
  row-offset table (``code * stride``), so the per-column substitution
  lookup becomes *one* flat gather: ``sub_flat[scaled0[b0 + t] + buf1[b1 + t]]``.
  ``prepare`` rejects any bank code at or past the 25-wide stride (the
  alphabet ends at ``GAP_CODE`` = 24, pad sentinels included), so every
  flat index stays inside the 25×25 matrix and int16.
* **Shifted views.**  Column ``t`` gathers through ``scaled0[t:]`` /
  ``buf1[t:]`` views instead of adding ``t`` to the anchor arrays — no
  index arithmetic pass at all.  The bounds check guarantees
  ``base.max() + window <= len(buf)``, so every shifted gather with
  ``t < window`` stays in range.
* **Preallocated scratch.**  All intermediates live in scratch buffers
  grown monotonically and reused across batches.  The three gathers per
  column pass ``mode="clip"``: under the default ``mode="raise"`` NumPy
  buffers ``np.take(..., out=...)`` through a fresh temporary the size of
  the output.  Both checks above already keep every index in range, so
  clipping never changes a value, and a steady-state ``score`` call
  allocates nothing that grows with the batch.

Accumulators are int32, which holds any window's score.

:func:`check_against_oracle` is the accuracy gate the batched engine runs
on every kernel it builds: a small seeded workload scored bit-for-bit
against :func:`repro.extend.ungapped.ungapped_score_reference` (the scalar
hardware oracle) under the actual config.  A mismatch raises; there is no
other kernel to fall back to.
"""

from __future__ import annotations

from typing import Protocol

import numpy as np

from ..ungapped import ScoreSemantics, UngappedConfig, ungapped_score_reference

__all__ = ["FusedKernel", "KernelBackend", "check_against_oracle"]


class KernelBackend(Protocol):
    """Structural type of a step-2 scoring kernel (what the oracle gates)."""

    def prepare(self, buf0: np.ndarray, buf1: np.ndarray) -> None:
        """Bind the bank buffers for the coming batches (once per stream)."""
        ...

    def score(self, anchors0: np.ndarray, anchors1: np.ndarray) -> np.ndarray:
        """Score paired anchors; int32 result, valid until the next call."""
        ...


def _check_anchor_bounds(
    buf0: np.ndarray,
    base0: np.ndarray,
    buf1: np.ndarray,
    base1: np.ndarray,
    window: int,
) -> None:
    """Reject windows leaving either bank buffer.

    *base0*/*base1* are flank-subtracted window starts.  Raises the same
    ``IndexError`` as :meth:`repro.seqs.sequence.SequenceBank.windows` —
    an out-of-buffer window is a caller error, never a silent wrap-around
    gather.
    """
    if base0.size == 0:
        return
    if int(base0.min()) < 0 or int(base0.max()) + window > buf0.shape[0]:
        raise IndexError("window exceeds bank buffer; increase pad")
    if int(base1.min()) < 0 or int(base1.max()) + window > buf1.shape[0]:
        raise IndexError("window exceeds bank buffer; increase pad")


class FusedKernel:
    """Shifted-view fused scan over a pre-scaled bank-0 table.

    ``prepare(buf0, buf1)`` binds the bank buffers once per entry block;
    ``score(anchors0, anchors1)`` runs once per batch and returns an int32
    array that is a view into scratch storage, valid only until the next
    ``score`` call — callers that keep scores copy them, as the engine's
    threshold filter does.
    """

    def __init__(self, config: UngappedConfig) -> None:
        self._config = config
        scores = config.matrix.scores
        self._stride = int(scores.shape[1])
        self._sub_flat = np.ascontiguousarray(scores, dtype=np.int16).reshape(-1)
        self._buf1: np.ndarray | None = None
        self._scaled0: np.ndarray | None = None
        self._capacity = 0
        self._base0 = np.empty(0, dtype=np.int64)
        self._base1 = np.empty(0, dtype=np.int64)
        self._x = np.empty(0, dtype=np.int16)
        self._y = np.empty(0, dtype=np.uint8)
        self._idx = np.empty(0, dtype=np.intp)
        self._cost = np.empty(0, dtype=np.int16)
        self._score = np.empty(0, dtype=np.int32)
        self._best = np.empty(0, dtype=np.int32)
        self._out = np.empty(0, dtype=np.int32)

    def prepare(self, buf0: np.ndarray, buf1: np.ndarray) -> None:
        """Bind the buffers and pre-scale bank 0 into row offsets.

        Raises ``ValueError`` if either buffer holds a code ``>= stride``:
        ``score``'s clipped substitution gather is exact only below it.
        """
        for buf in (buf0, buf1):
            top = int(buf.max()) if buf.size else 0
            if top >= self._stride:
                raise ValueError(
                    f"bank code {top} outside the "
                    f"{self._stride}-letter substitution matrix"
                )
        self._buf1 = buf1
        # dtype= must go to the ufunc itself: under NEP 50,
        # ``np.multiply(uint8, 25)`` computes in uint8 and wraps at 255.
        self._scaled0 = np.multiply(buf0, self._stride, dtype=np.int16)

    def _ensure(self, n: int) -> None:
        """Grow the batch scratch buffers to hold *n* pairs."""
        if n <= self._capacity:
            return
        self._base0 = np.empty(n, dtype=np.int64)
        self._base1 = np.empty(n, dtype=np.int64)
        self._x = np.empty(n, dtype=np.int16)
        self._y = np.empty(n, dtype=np.uint8)
        self._idx = np.empty(n, dtype=np.intp)
        self._cost = np.empty(n, dtype=np.int16)
        self._score = np.empty(n, dtype=np.int32)
        self._best = np.empty(n, dtype=np.int32)
        self._out = np.empty(n, dtype=np.int32)
        self._capacity = n

    def score(self, anchors0: np.ndarray, anchors1: np.ndarray) -> np.ndarray:
        """Score paired anchors; returns a scratch view (copy to keep)."""
        cfg = self._config
        scaled0, buf1 = self._scaled0, self._buf1
        assert scaled0 is not None and buf1 is not None, "score() before prepare()"
        if anchors0.shape != anchors1.shape:
            raise ValueError("anchor arrays must have equal shapes")
        window = cfg.window
        n = int(anchors0.shape[0])
        self._ensure(n)
        base0 = self._base0[:n]
        base1 = self._base1[:n]
        np.subtract(anchors0, cfg.n, out=base0)
        np.subtract(anchors1, cfg.n, out=base1)
        # The scaled bank mirrors buf0 element-for-element, so bounds
        # checked against it cover every shifted view with t < window.
        _check_anchor_bounds(scaled0, base0, buf1, base1, window)
        x = self._x[:n]
        y = self._y[:n]
        idx = self._idx[:n]
        cost = self._cost[:n]
        score = self._score[:n]
        sub_flat = self._sub_flat
        score[...] = 0
        kadane = cfg.semantics is ScoreSemantics.KADANE
        if kadane:
            best = self._best[:n]
            best[...] = 0
        for t in range(window):
            np.take(scaled0[t:], base0, out=x, mode="clip")
            np.take(buf1[t:], base1, out=y, mode="clip")
            # int16 + uint8 promotes to int16 (values stay < stride²), the
            # unsafe cast just widens to the take index dtype in-pass.
            np.add(x, y, out=idx, casting="unsafe")
            np.take(sub_flat, idx, out=cost, mode="clip")
            if kadane:
                np.add(score, cost, out=score)
                np.maximum(score, 0, out=score)
                np.maximum(best, score, out=best)
            else:
                np.maximum(cost, 0, out=cost)
                np.add(score, cost, out=score)
        out = self._out[:n]
        np.copyto(out, best if kadane else score, casting="same_kind")
        return out


#: Pairs in the oracle check workload (kept tiny: every engine runs it
#: once, and the check is O(pairs × window) scalar work).
_ORACLE_CHECK_PAIRS = 4


def check_against_oracle(kernel: KernelBackend, config: UngappedConfig) -> None:
    """Score a seeded workload and compare against the scalar oracle.

    Raises ``RuntimeError`` unless every score is bit-identical.  The
    workload is derived from the config's window so short and long
    windows both get a genuine scan; residues stay in the canonical 0..19
    range.  The kernel is left prepared on the check buffers — callers
    ``prepare`` it again on their own.
    """
    window = config.window
    flank = config.n
    rng = np.random.default_rng(20090 + window)
    size0 = flank + window + _ORACLE_CHECK_PAIRS + 4
    size1 = size0 + 3
    buf0 = rng.integers(0, 20, size0, dtype=np.uint8)
    buf1 = rng.integers(0, 20, size1, dtype=np.uint8)
    anchors0 = flank + rng.integers(
        0, _ORACLE_CHECK_PAIRS + 4, _ORACLE_CHECK_PAIRS
    ).astype(np.int64)
    anchors1 = flank + rng.integers(
        0, _ORACLE_CHECK_PAIRS + 4, _ORACLE_CHECK_PAIRS
    ).astype(np.int64)
    kernel.prepare(buf0, buf1)
    got = np.asarray(kernel.score(anchors0, anchors1))
    if got.dtype != np.int32 or got.shape != (_ORACLE_CHECK_PAIRS,):
        raise RuntimeError(
            "step-2 kernel failed the oracle check: expected int32 shape "
            f"({_ORACLE_CHECK_PAIRS},), got {got.dtype} {got.shape}"
        )
    for i in range(_ORACLE_CHECK_PAIRS):
        s0 = int(anchors0[i]) - flank
        s1 = int(anchors1[i]) - flank
        want = ungapped_score_reference(
            buf0[s0 : s0 + window],
            buf1[s1 : s1 + window],
            config.matrix,
            config.semantics,
        )
        if int(got[i]) != want:
            raise RuntimeError(
                "step-2 kernel failed the oracle check: pair "
                f"{i} scored {int(got[i])}, oracle says {want}"
            )
