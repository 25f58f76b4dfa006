"""The step-2 kernel layer: the ``fused`` scan and its oracle gate.

The batched engine (:class:`repro.extend.batched.BatchedUngappedEngine`)
owns batching, threshold filtering and emission order; the kernel here
turns "two bank buffers and flat anchor arrays" into one int32 score per
pair — the software image of the RASC-100 PSC operator's PE array.
:func:`check_against_oracle` gates every kernel the engine builds against
the scalar hardware oracle.
"""

from __future__ import annotations

from .fused import FusedKernel, KernelBackend, check_against_oracle

__all__ = ["FusedKernel", "KernelBackend", "check_against_oracle"]
