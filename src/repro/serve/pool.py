"""Warm bank + warm worker pool: the resident side of the service.

A one-shot :meth:`~repro.core.executor.ShardedStep2Executor.run` pays, per
call: indexing both banks, staging bank 1 into shared memory, and
spawning a fresh worker pool.  For a server answering many small queries
against one large resident bank, all of that is per-*bank* cost being
paid per-*request*.  :class:`WarmPool` hoists it and keeps only what is
warm:

* the resident bank's index (``BankIndex``), built once;
* the resident bank staged once (:class:`~repro.core.executor.StagedBank`,
  CRC recorded at staging);
* a worker pool that outlives requests, handed to each run and taken
  back under :attr:`WarmPool._pool_lock`;
* the chaos hooks: :meth:`WarmPool.kill_workers` (``POOL_DEATH``),
  :meth:`WarmPool.corrupt_staged_bank` (``CORRUPT_WARM_BANK``) and
  :meth:`WarmPool.heal_if_corrupt`, the CRC self-heal.

Everything else — the worker protocol, shard planning, supervision, the
merge, metrics and health — is the one engine in
:mod:`repro.core.executor`, so warm hits, health counters and shard
timings equal a one-shot run's (see ``tests/test_serve_service.py``).
Each request ships only its (small) query bank inside the task payload.
"""

from __future__ import annotations

import os
import threading
from dataclasses import replace
from typing import TYPE_CHECKING

import numpy as np

from ..core.config import PipelineConfig
from ..core.executor import StagedBank, Step2Engine
from ..core.faults import FaultPlan, bank_digest
from ..core.profile import RunHealth, ShardTiming
from ..core.supervisor import DeadlineExceeded, SupervisorConfig, _stop_pool
from ..extend.ungapped import UngappedHits
from ..index.kmer import BankIndex, TwoBankIndex
from ..obs import trace as obstrace

if TYPE_CHECKING:  # pragma: no cover - typing only
    from concurrent.futures import ProcessPoolExecutor

    from ..seqs.sequence import SequenceBank

__all__ = ["WARM_MIN_PAIRS_PER_SHARD", "WarmPool"]

#: Default step-2 pair floor per worker for the warm pool.  Below it a
#: request scores in-process: the pool is already spawned and the bank
#: staged, so only the split, pickling and IPC are at stake — but at
#: ~11 k pairs those cost more than the scoring they spread (DESIGN §9,
#: "The warm pair floor").  Lower than a one-shot's ``1 << 18``, which
#: also covers spawn and staging.
WARM_MIN_PAIRS_PER_SHARD = 1 << 15


class WarmPool:
    """Resident bank staged once + persistent supervised worker pool.

    Parameters
    ----------
    config:
        Pipeline configuration; its derived
        :class:`~repro.extend.ungapped.UngappedConfig` configures the
        step-2 engine.
    resident:
        The resident bank (bank 1 of every comparison — e.g. the
        translated genome).
    workers:
        Warm worker process count (>= 1; 1 still stages the bank but
        scores in-process).
    fault_plan:
        Worker-addressed deterministic faults for the pool tasks.
    supervisor:
        Per-request supervision policy template; each request overlays
        its own absolute deadline via :func:`dataclasses.replace`.
    min_pairs_per_shard:
        Pair floor per worker below which :meth:`step2` scores a request
        in-process (:meth:`~repro.core.executor.Step2Engine.route`);
        ``0`` sends every shardable request to the pool.
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
        self.config = config
        self.resident = resident
        self.workers = max(1, int(workers))
        self.fault_plan = fault_plan
        self.supervisor = supervisor or config.supervisor_config()
        #: The step-2 engine; :meth:`step2` routes each request by its
        #: :meth:`~repro.core.executor.Step2Engine.route`, the rule a
        #: one-shot run follows too, with the warm floor.
        self.engine = Step2Engine(
            config.ungapped_config(),
            self.workers,
            self.supervisor,
            fault_plan,
            min_pairs_per_shard,
        )
        #: Resident index built once; every request joins against it.
        self.resident_index = BankIndex(resident, config.seed_model)
        #: Guards every mutable field the dispatcher threads share:
        #: ``_pool``, ``_closed``, ``_staged``, ``_last_health``,
        #: ``_last_timings`` and ``_bank_heals``.
        self._pool_lock = threading.Lock()
        self._last_health = RunHealth()
        self._last_timings: list[ShardTiming] = []
        self._bank_heals = 0
        self._bank = StagedBank(resident.buffer)
        #: The staged bytes themselves — what the chaos hooks damage and
        #: the CRC self-heal restores.
        self._staged = self._bank.view
        self._pool: ProcessPoolExecutor | None = None
        self._closed = False

    # -- shared state accessors -----------------------------------------
    @property
    def last_health(self) -> RunHealth:
        """Supervision counters of the most recent :meth:`step2` call."""
        with self._pool_lock:
            return self._last_health

    @last_health.setter
    def last_health(self, value: RunHealth) -> None:
        with self._pool_lock:
            self._last_health = value

    @property
    def last_timings(self) -> list[ShardTiming]:
        """Per-shard timings of the most recent :meth:`step2` call."""
        with self._pool_lock:
            return self._last_timings

    @property
    def bank_heals(self) -> int:
        """Pool rebuilds + bank heals over the pool's lifetime."""
        with self._pool_lock:
            return self._bank_heals

    @property
    def resident_bytes(self) -> int:
        """Bytes of the staged resident-bank segment (a boot-time constant)."""
        return int(self._bank.shm.size)

    # -- lifecycle ------------------------------------------------------
    def warm_up(self, timeout: float = 60.0) -> None:
        """Spawn the worker pool eagerly (otherwise first request pays it).

        ``ProcessPoolExecutor`` forks workers lazily on first submit, so a
        bare executor is not actually warm — a no-op probe forces the
        spawn (and the initializer's segment mapping) to happen at boot.

        That probe ``submit`` is the fork point, so it runs outside
        :attr:`_pool_lock` and the pool is only *published* under it: a
        child forked while the lock is held inherits it locked.
        ``test_serve_service.py::TestForkOutsideLock`` records the lock's
        state at every worker start.
        """
        with self._pool_lock:
            if self._closed or self.workers <= 1 or self._pool is not None:
                return
        pool = self.engine.make_pool(self._bank, self.workers)
        pool.submit(os.getpid).result(timeout=timeout)
        self._hold(pool)

    def _hold(self, pool: ProcessPoolExecutor | None) -> None:
        """Publish *pool* for the next request.

        A racing publisher — or a :meth:`close` that won while the pool
        was built or in use — loses: its pool is stopped outside the lock
        (joining worker processes under a lock is RC107).
        """
        leftover = None
        with self._pool_lock:
            if self._closed or self._pool is not None:
                leftover = pool
            else:
                self._pool = pool
        if leftover is not None:
            _stop_pool(leftover)

    @property
    def pool_alive(self) -> bool:
        """True while a warm pool is held for the next request."""
        with self._pool_lock:
            return self._pool is not None

    def close(self) -> None:
        """Stop the pool and release the staged segment (idempotent).

        The pool is swapped out under :attr:`_pool_lock` and stopped
        outside it — ``_stop_pool`` joins worker processes, and holding a
        lock across a join is the bounded-blocking shape RC107 rejects.
        """
        with self._pool_lock:
            if self._closed:
                return
            self._closed = True
            pool, self._pool = self._pool, None
        if pool is not None:
            _stop_pool(pool)
        self._bank.release()

    # -- chaos hooks ----------------------------------------------------
    def kill_workers(self) -> None:
        """Terminate every warm worker (the ``POOL_DEATH`` injection).

        The pool object survives in a broken state, exactly as if the
        processes had died for real — the next request's supervisor sees
        ``BrokenProcessPool`` and rebuilds.
        """
        with self._pool_lock:
            pool = self._pool
        if pool is None:
            return
        # SIGKILL, not SIGTERM: the modelled death is a hard one (segfault,
        # OOM kill), and it must not depend on what handlers the worker
        # happens to have installed.
        for proc in list(getattr(pool, "_processes", {}).values()):
            proc.kill()
        for proc in list(getattr(pool, "_processes", {}).values()):
            proc.join(timeout=1.0)

    def corrupt_staged_bank(self, request: int) -> None:
        """Overwrite the staged segment head with seeded garbage.

        The ``CORRUPT_WARM_BANK`` injection: unlike the worker-view
        corruption (private copy), this damages the *source* segment, so
        only the service-level CRC check + re-stage can recover.
        """
        plan = self.fault_plan or FaultPlan()
        with self._pool_lock:
            n = min(64, self._staged.shape[0])
            self._staged[:n] ^= plan.corruption(request, n) | np.uint8(1)

    def heal_if_corrupt(self) -> bool:
        """CRC-check the staged segment; re-stage from the host copy if bad.

        Returns true when a heal happened.  The host's own ``resident``
        buffer is the pristine source (it is never handed to workers), so
        re-staging restores the exact bytes of the staging CRC — workers'
        digest checks pass again without remapping.
        """
        with self._pool_lock:
            if bank_digest(self._staged) == self._bank.digest:
                return False
            self._staged[:] = self.resident.buffer
            self._bank_heals += 1
        obstrace.add_event("serve.bank_heal")
        return True

    # -- scoring --------------------------------------------------------
    def step2(
        self,
        index: TwoBankIndex,
        deadline_at: float | None = None,
        use_pool: bool = True,
        request_id: str | None = None,
    ) -> UngappedHits:
        """Score one request's joint *index* on the warm pool.

        The engine's :meth:`~repro.core.executor.Step2Engine.route` picks
        pool or in-process; a request below the pair floor is counted in
        ``RunHealth.small_workload_fallbacks``.  ``deadline_at`` is the
        request's absolute deadline, plumbed into
        :attr:`~repro.core.supervisor.SupervisorConfig.deadline`;
        ``use_pool=False`` is the breaker's degraded route (in-process,
        bit-identical, no pool interaction at all).  ``request_id``
        threads the request's identity through the supervisor (retry and
        fallback events carry it) and into every task payload, so worker
        spans coming home re-parent under this request's shard spans.
        """
        supervisor = replace(
            self.supervisor, deadline=deadline_at, request_id=request_id
        )
        route = self.engine.route(index) if use_pool else "local"
        try:
            if route != "pool":
                hits, timings, health = self.engine.score_local(
                    index, supervisor, small_workload=route == "small"
                )
            else:
                with self._pool_lock:
                    held, self._pool = self._pool, None  # ownership to the run
                hits, timings, health = self.engine.score_pooled(
                    index, self._bank, supervisor, pool=held, keep_pool=self._hold,
                )
        except DeadlineExceeded as exc:
            self._keep(exc.health, [])
            raise
        self._keep(health, timings)
        return hits

    def _keep(self, health: RunHealth, timings: list[ShardTiming]) -> None:
        with self._pool_lock:
            self._last_health, self._last_timings = health, timings
