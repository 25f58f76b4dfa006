"""The paper's core contribution: the reorganised 3-step seed-based
comparison pipeline, its configuration, results and work partitioning."""

from .config import PipelineConfig
from .executor import ShardedStep2Executor
from .faults import BankCorruption, FaultError, FaultKind, FaultPlan, FaultSpec
from .modes import BlastFamilySearch, SearchMode, translate_queries
from .partition import partition_imbalance, split_bank, split_entries_contiguous
from .pipeline import SeedComparisonPipeline, gapped_stage
from .profile import PipelineProfile, RunHealth, ShardTiming, StepCounters
from .render import (
    alignment_traceback,
    render_alignment,
    render_report,
    render_run_health,
)
from .results import Alignment, ComparisonReport
from .supervisor import ShardOutcome, ShardSupervisor, SupervisorConfig

__all__ = [
    "PipelineConfig",
    "SearchMode",
    "BlastFamilySearch",
    "translate_queries",
    "render_alignment",
    "render_report",
    "render_run_health",
    "alignment_traceback",
    "SeedComparisonPipeline",
    "ShardedStep2Executor",
    "gapped_stage",
    "Alignment",
    "ComparisonReport",
    "PipelineProfile",
    "RunHealth",
    "ShardTiming",
    "StepCounters",
    "FaultPlan",
    "FaultSpec",
    "FaultKind",
    "FaultError",
    "BankCorruption",
    "SupervisorConfig",
    "ShardSupervisor",
    "ShardOutcome",
    "split_bank",
    "split_entries_contiguous",
    "partition_imbalance",
]
