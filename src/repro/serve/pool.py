"""Warm bank + warm worker pool: the resident side of the service.

A one-shot ``compare --workers N`` pays, per run: indexing both banks,
staging bank 1 into shared memory, and spawning a fresh worker pool.  For
a server answering many small queries against one large resident bank,
all of that is per-*bank* cost being paid per-*request*.  :class:`WarmPool`
hoists it: it builds the resident bank's index once and stages the bank
once, at boot.

Everything else — the pool handed from request to request under one lock,
the step-2 route, supervision, the merge, metrics, health,
the ``OSError`` fallback and the chaos hooks — is the one pool front end,
:class:`~repro.core.executor.ShardedStep2Executor`, which ``compare``
drives too.  Warm hits, health counters and shard timings therefore equal
a one-shot run's (see ``tests/test_executor.py::TestOneEngine``).  Each
request ships only its (small) query bank inside the task payload.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from ..core.config import PipelineConfig
from ..core.executor import ShardedStep2Executor
from ..core.faults import FaultPlan
from ..core.supervisor import SupervisorConfig
from ..index.kmer import BankIndex

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..seqs.sequence import SequenceBank

__all__ = ["WARM_MIN_PAIRS_PER_SHARD", "WarmPool"]

#: Default step-2 pair floor per worker for the warm pool.  Below it a
#: request scores in-process: the pool is already spawned and the bank
#: staged, so only the split, pickling and IPC are at stake — but at
#: ~11 k pairs those cost more than the scoring they spread (DESIGN §9,
#: "The warm pair floor").  Lower than a one-shot's ``1 << 18``, which
#: also covers spawn and staging.
WARM_MIN_PAIRS_PER_SHARD = 1 << 15


class WarmPool(ShardedStep2Executor):
    """The pool front end over a resident bank staged at boot.

    Parameters
    ----------
    config:
        Pipeline configuration; its derived
        :class:`~repro.extend.ungapped.UngappedConfig` configures the
        step-2 engine, and its seed model the resident index.
    resident:
        The resident bank (bank 1 of every comparison — e.g. the
        translated genome).
    workers:
        Warm worker process count (>= 1; 1 still stages the bank but
        scores in-process).
    fault_plan:
        Worker-addressed deterministic faults for the pool tasks.
    supervisor:
        Per-request supervision policy template; each request sets its
        own absolute deadline on it.
    min_pairs_per_shard:
        Pair floor per worker below which a request scores in-process
        (:meth:`~repro.core.executor.ShardedStep2Executor.route`); ``0``
        sends every shardable request to the pool.
    """

    def __init__(
        self,
        config: PipelineConfig,
        resident: SequenceBank,
        workers: int = 2,
        fault_plan: FaultPlan | None = None,
        supervisor: SupervisorConfig | None = None,
        min_pairs_per_shard: int = WARM_MIN_PAIRS_PER_SHARD,
    ) -> None:
        #: Resident index built once; every request joins against it.  Built
        #: before the bank is staged, so its temporaries are freed first.
        self.resident_index = BankIndex(resident, config.seed_model)
        super().__init__(
            config.ungapped_config(),
            workers,
            supervisor or config.supervisor_config(),
            fault_plan,
            min_pairs_per_shard,
            resident=resident.buffer,
        )
