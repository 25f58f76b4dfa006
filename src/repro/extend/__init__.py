"""Extension kernels: vectorised ungapped window scoring (step 2), gapped
X-drop / Smith-Waterman (step 3), and Karlin-Altschul statistics."""

from .backends import FusedKernel, check_against_oracle
from .batched import BatchedUngappedEngine, EntryBlock, iter_block_batches
from .gapped import (
    NEG_INF,
    GappedExtension,
    GapPenalties,
    SWAlignment,
    smith_waterman,
    xdrop_gapped_extend,
)
from .stats import (
    GAPPED_PARAMS,
    KarlinParams,
    bit_score,
    effective_search_space,
    evalue,
    gapped_params,
    karlin_k,
    karlin_lambda,
    ungapped_params,
)
from .ungapped import (
    ScoreSemantics,
    UngappedConfig,
    UngappedExtender,
    UngappedHits,
    UngappedStats,
    ungapped_score_reference,
    ungapped_scores,
    ungapped_xdrop,
)

__all__ = [
    "FusedKernel",
    "check_against_oracle",
    "BatchedUngappedEngine",
    "EntryBlock",
    "iter_block_batches",
    "ScoreSemantics",
    "UngappedConfig",
    "UngappedExtender",
    "UngappedHits",
    "UngappedStats",
    "ungapped_score_reference",
    "ungapped_scores",
    "ungapped_xdrop",
    "GapPenalties",
    "GappedExtension",
    "SWAlignment",
    "smith_waterman",
    "xdrop_gapped_extend",
    "NEG_INF",
    "KarlinParams",
    "karlin_lambda",
    "karlin_k",
    "ungapped_params",
    "GAPPED_PARAMS",
    "gapped_params",
    "bit_score",
    "evalue",
    "effective_search_space",
]
