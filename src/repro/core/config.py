"""Pipeline configuration.

One frozen dataclass gathers every knob of the paper's algorithm so a
configuration can be shared verbatim between the software pipeline, the
hardware-accelerated pipeline, and the benchmark harness (which must hold
everything but the PE count constant).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any

from ..extend.gapped import GapPenalties
from ..extend.ungapped import ScoreSemantics, UngappedConfig
from ..index.kmer import ContiguousSeedModel, SeedModel
from ..index.subset_seed import DEFAULT_SUBSET_SEED
from ..seqs.matrices import BLOSUM62, SubstitutionMatrix
from .faults import FaultPlan
from .supervisor import SupervisorConfig

__all__ = ["PipelineConfig"]


@dataclass(frozen=True)
class PipelineConfig:
    """Full parameter set of the seed-based comparison pipeline.

    Attributes
    ----------
    seed_model:
        Step-1 indexing seed.  Defaults to the weight-≈3.5 span-4 subset
        seed (the paper's choice); pass
        :class:`~repro.index.kmer.ContiguousSeedModel` for exact W-mers.
    flank:
        The paper's ``N``: residues examined on each side of the seed in
        step 2 (window = ``span + 2N``).
    ungapped_threshold:
        Step-2 survival threshold (raw score).  The paper raises this value
        in the 2-FPGA experiment to thin result traffic; see Table 3.
    semantics:
        Window-score recurrence (Kadane by default; see
        :class:`~repro.extend.ungapped.ScoreSemantics`).
    matrix:
        Substitution matrix for every stage.
    gaps, gapped_x_drop:
        Step-3 affine penalties and X-drop bound.
    max_evalue:
        Final report cut-off (the paper compares at ``E = 10⁻³``).
    pair_chunk:
        Step-2 batch budget: maximum seed pairs per kernel invocation
        (the CLI's ``--batch-pairs``).  Bounds the batched engine's
        transient memory at roughly ``3 × 8 bytes × pair_chunk``.
    workers:
        Step-2 shard count (the CLI's ``--workers``).  ``1`` scores
        in-process; ``N > 1`` fans the key space out over N worker
        processes — the software generalisation of the paper's 2-FPGA
        partitioning — with bit-identical output for any value.
    shard_timeout:
        Per-shard dispatch deadline in seconds (the CLI's
        ``--shard-timeout``); ``None`` derives one from each shard's pair
        count.  Only meaningful with ``workers > 1``.
    max_retries:
        Re-dispatches allowed per failed/hung shard before the supervisor
        falls back to in-process scoring (the CLI's ``--max-retries``).
    fault_plan:
        Deterministic fault injection for chaos testing (the CLI's
        ``--fault-plan``); ``None`` in production.
    min_pairs_per_shard:
        Pair-count floor below which a ``workers > 1`` run scores
        in-process instead of paying pool spawn + shared-memory staging
        (the CLI's ``--min-pairs-per-shard``); ``0`` disables the
        heuristic.
    """

    seed_model: SeedModel = field(default_factory=lambda: DEFAULT_SUBSET_SEED)
    flank: int = 12
    ungapped_threshold: int = 45
    semantics: ScoreSemantics = ScoreSemantics.KADANE
    matrix: SubstitutionMatrix = BLOSUM62
    gaps: GapPenalties = field(default_factory=GapPenalties)
    gapped_x_drop: int = 38
    max_evalue: float = 1e-3
    pair_chunk: int = 1 << 20
    workers: int = 1
    shard_timeout: float | None = None
    max_retries: int = 2
    fault_plan: FaultPlan | None = None
    min_pairs_per_shard: int = 1 << 18

    @property
    def window(self) -> int:
        """Step-2 window width ``W + 2N``."""
        return self.seed_model.span + 2 * self.flank

    @property
    def batch_pairs(self) -> int:
        """Alias of :attr:`pair_chunk` under its CLI-facing name."""
        return self.pair_chunk

    def ungapped_config(self) -> UngappedConfig:
        """Derive the step-2 kernel configuration."""
        return UngappedConfig(
            w=self.seed_model.span,
            n=self.flank,
            threshold=self.ungapped_threshold,
            matrix=self.matrix,
            semantics=self.semantics,
            pair_chunk=self.pair_chunk,
        )

    def supervisor_config(self) -> SupervisorConfig:
        """Derive the step-2 supervision policy."""
        return SupervisorConfig(
            shard_timeout=self.shard_timeout, max_retries=self.max_retries
        )

    def with_(self, **kwargs: Any) -> PipelineConfig:
        """Return a copy with the given fields replaced."""
        return replace(self, **kwargs)

    @classmethod
    def exact_seed(cls, w: int = 4, **kwargs: Any) -> PipelineConfig:
        """Convenience: a configuration using exact contiguous W-mers."""
        return cls(seed_model=ContiguousSeedModel(w), **kwargs)
