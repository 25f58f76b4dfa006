"""Fault-tolerant supervision of the sharded step-2 pool.

The paper's host process drives two FPGAs and assumes both always answer; a
production cluster host supervises its blades instead: detect a dead or
stalled unit, re-dispatch its workload, degrade to a slower path when the
unit never recovers, and report what happened.  :class:`ShardSupervisor`
is that state machine for :class:`~repro.core.executor.ShardedStep2Executor`:

::

    PENDING ──dispatch──> RUNNING ──valid result──> DONE (via="pool")
       ^                     │
       │        timeout / crash / truncated / corrupt
       │                     │
       └──── backoff, retry (≤ max_retries; fresh pool if the old
             one is broken or holds a hung worker) ──┘
                             │
                   retries exhausted
                             v
             in-process engine  ──> DONE (via="local")

Because every shard's accepted result is produced by the same deterministic
batched engine over the same payload, the merged
:class:`~repro.extend.ungapped.UngappedHits` is bit-identical to the
fault-free run no matter which path completed each shard — the supervisor
changes *when and where* a shard is scored, never *what* it returns.

Per-shard deadlines default to a pair-count-derived budget
(:meth:`SupervisorConfig.deadline_for`), so a shard carrying 100× the pairs
gets 100× the compute allowance before it is declared hung.
"""

from __future__ import annotations

import concurrent.futures as cf
import logging
import time
from collections.abc import Callable, Mapping
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any

from ..obs import trace
from . import determinism as detsan
from .faults import BankCorruption
from .profile import RunHealth

if TYPE_CHECKING:  # pragma: no cover - typing only
    from concurrent.futures import ProcessPoolExecutor

__all__ = [
    "SupervisorConfig",
    "ShardOutcome",
    "ShardSupervisor",
    "DeadlineExceeded",
]

_log = logging.getLogger(__name__)

#: A task result in the engine's layout (:data:`repro.core.executor.ShardResult`,
#: from the pool task or the in-process scorer alike); opaque to the
#: supervisor beyond validation.
ShardResult = tuple[Any, ...]

#: ``(shard, attempt, ...payload) -> ShardResult`` task submitted to the pool.
TaskFn = Callable[..., ShardResult]


@dataclass(frozen=True)
class SupervisorConfig:
    """Supervision policy knobs (the CLI's ``--shard-timeout``/``--max-retries``).

    Attributes
    ----------
    shard_timeout:
        Explicit per-shard deadline in seconds; ``None`` derives one from
        the shard's pair count (``min_timeout + pairs * seconds_per_pair``).
    max_retries:
        Re-dispatches allowed per shard after its first attempt; once
        exhausted the shard is scored by the in-process engine.
    backoff_base, backoff_factor:
        Exponential backoff between dispatch rounds:
        ``backoff_base * backoff_factor ** (round - 1)`` seconds.
    min_timeout, seconds_per_pair:
        Parameters of the derived deadline.  The defaults are deliberately
        generous (~20k pairs/s floor) so loaded CI machines do not trip
        false timeouts; tighten ``shard_timeout`` explicitly for chaos runs.
    deadline:
        Absolute run-level deadline on the :func:`repro.obs.trace.clock`
        timeline (``None`` = unbounded).  Unlike ``shard_timeout`` — which
        bounds one *dispatch* and triggers a retry — crossing ``deadline``
        abandons the whole run: remaining shard work is cancelled, hung
        workers are terminated rather than orphaned, and
        :class:`DeadlineExceeded` is raised.  This is the hook the serving
        layer uses to plumb a request's deadline down to shard granularity.
    request_id:
        Identity of the originating request, when the serving layer is
        driving this run.  Purely observational: retry/fallback/cancel
        events and detsan fallback details carry it so a supervision
        incident three layers down joins the request that paid for it.
    """

    shard_timeout: float | None = None
    max_retries: int = 2
    backoff_base: float = 0.05
    backoff_factor: float = 2.0
    min_timeout: float = 10.0
    seconds_per_pair: float = 5e-5
    deadline: float | None = None
    request_id: str | None = None

    def __post_init__(self) -> None:
        if self.shard_timeout is not None and self.shard_timeout <= 0:
            raise ValueError("shard_timeout must be positive")
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")

    def deadline_for(self, pairs: int) -> float:
        """Seconds one dispatch of a shard with *pairs* pairs may take."""
        if self.shard_timeout is not None:
            return self.shard_timeout
        return self.min_timeout + pairs * self.seconds_per_pair

    def backoff(self, round_index: int) -> float:
        """Sleep before retry round *round_index* (1-based)."""
        return self.backoff_base * self.backoff_factor ** max(0, round_index - 1)


@dataclass(frozen=True)
class ShardOutcome:
    """One shard's accepted result plus how it was obtained."""

    shard: int
    result: ShardResult
    attempts: int
    via: str  # "pool" | "local"
    #: Wall seconds consumed by this shard's abandoned dispatches before
    #: the accepted one (0.0 on a first-try success).
    retry_wall_seconds: float = 0.0


class DeadlineExceeded(RuntimeError):
    """A run-level deadline expired before every shard completed.

    Raised by :meth:`ShardSupervisor.run` when
    :attr:`SupervisorConfig.deadline` passes.  Carries the run's
    :class:`~repro.core.profile.RunHealth` (with
    :attr:`~repro.core.profile.RunHealth.cancelled` covering every
    abandoned shard exactly once — cancellation never double-counts as a
    timeout or crash for the dispatch it interrupted) and the cancelled
    shard ids, so callers can account for the partial run they paid for.
    """

    def __init__(
        self, message: str, health: RunHealth, cancelled_shards: tuple[int, ...]
    ) -> None:
        super().__init__(message)
        self.health = health
        self.cancelled_shards = cancelled_shards


def _stop_pool(pool: ProcessPoolExecutor) -> None:
    """Tear a pool down even when workers are hung.

    ``shutdown(wait=True)`` would block behind a sleeping/stuck worker, so
    the shutdown is issued without waiting and surviving worker processes
    are terminated explicitly.  ``_processes`` is an internal attribute but
    stable across CPython 3.8+; when absent the shutdown alone must do.
    """
    processes = list(getattr(pool, "_processes", {}).values())
    pool.shutdown(wait=False, cancel_futures=True)
    for proc in processes:
        if proc.is_alive():
            proc.terminate()
    for proc in processes:
        proc.join(timeout=1.0)
        if proc.is_alive():  # pragma: no cover - stuck in uninterruptible IO
            proc.kill()


def _validate_result(result: ShardResult) -> bool:
    """Check a worker result's hit arrays agree with its reported stats.

    The result layout is ``(shard, offsets0, offsets1, scores,
    (entries, pairs, cells, hits), ...)``; a truncated readback shows up as
    arrays shorter than the stats' hit count.
    """
    try:
        _, offsets0, offsets1, scores, counters = result[:5]
        hits = int(counters[3])
    except (TypeError, ValueError, IndexError):
        return False
    return (
        offsets0.shape[0] == hits
        and offsets1.shape[0] == hits
        and scores.shape[0] == hits
    )


class ShardSupervisor:
    """Dispatch shards to a worker pool with retry, timeout and fallback.

    Parameters
    ----------
    config:
        Supervision policy.
    make_pool:
        Zero-argument factory building a fresh initialised pool; called for
        the first round and again whenever the previous pool is broken or
        was torn down around a hung worker.
    task:
        The pool task; invoked as ``task(shard, attempt, *payload)``.
    local_score:
        Last-resort scorer: ``local_score(shard) -> ShardResult`` computed
        in-process (must be bit-identical to the pool result; it is — both
        run the same batched engine over the same payload).
    initial_pool:
        An already-initialised pool to use for the first round instead of
        calling *make_pool* (the warm-serving path).  When it dies or hangs
        it is torn down and *make_pool* takes over — that first fresh build
        counts as a ``pool_rebuild`` because warm state was lost.
    keep_pool:
        When true the surviving pool is *not* shut down after the run; it
        is published on :attr:`final_pool` (``None`` if the run consumed or
        killed it) for the caller to reuse on the next request.
    """

    def __init__(
        self,
        config: SupervisorConfig,
        make_pool: Callable[[], ProcessPoolExecutor],
        task: TaskFn,
        local_score: Callable[[int], ShardResult],
        *,
        initial_pool: ProcessPoolExecutor | None = None,
        keep_pool: bool = False,
    ) -> None:
        self.config = config
        self._make_pool = make_pool
        self._task = task
        self._local_score = local_score
        self._initial_pool = initial_pool
        self._keep_pool = keep_pool
        #: Extra attributes stamped on every supervision event so a retry
        #: or fallback recorded here joins the serving request it belongs
        #: to (empty when no request identity was configured).
        self._event_attrs: dict[str, Any] = (
            {"request_id": config.request_id}
            if config.request_id is not None
            else {}
        )
        #: After :meth:`run` with ``keep_pool=True``: the still-usable pool,
        #: or ``None`` when every pool the run touched was torn down.
        self.final_pool: ProcessPoolExecutor | None = None

    def _remaining(self) -> float | None:
        """Seconds left until the run deadline (``None`` = unbounded)."""
        if self.config.deadline is None:
            return None
        return self.config.deadline - trace.clock()

    def run(
        self,
        payloads: Mapping[int, tuple[Any, ...]],
        pair_counts: Mapping[int, int],
    ) -> tuple[list[ShardOutcome], RunHealth]:
        """Supervise all shards to completion.

        Returns the outcomes sorted by shard id (the merge order) and the
        run's health counters.  Never raises for worker-side failures; pool
        *construction* errors propagate to the caller's own fallback, and a
        crossed :attr:`SupervisorConfig.deadline` raises
        :class:`DeadlineExceeded` after cancelling the remaining shards.
        """
        health = RunHealth(shards=len(payloads))
        outcomes: dict[int, ShardOutcome] = {}
        attempts: dict[int, int] = dict.fromkeys(payloads, 0)
        #: Wall seconds burned by each shard's abandoned dispatches — the
        #: time the retry/fallback machinery costs, which per-shard
        #: ``wall_seconds`` (accepted attempt only) cannot see.
        lost: dict[int, float] = dict.fromkeys(payloads, 0.0)
        pending = sorted(payloads)
        pool: ProcessPoolExecutor | None = self._initial_pool
        warm_start = pool is not None
        self._initial_pool = None
        self.final_pool = None
        round_index = 0
        try:
            while pending and round_index <= self.config.max_retries:
                if round_index > 0:
                    remaining = self._remaining()
                    backoff = self.config.backoff(round_index)
                    if remaining is not None:
                        backoff = min(backoff, max(0.0, remaining))
                    time.sleep(backoff)
                if self._deadline_expired():
                    self._cancel(pending, health)
                if round_index > 0:
                    health.retries += len(pending)
                if pool is None:
                    pool = self._make_pool()
                    # A fresh build replacing warm state is a rebuild even
                    # on round 0 — the warm pool this run was handed died.
                    if round_index > 0 or warm_start:
                        health.pool_rebuilds += 1
                pending, pool, deadline_hit = self._run_round(
                    pool, pending, payloads, pair_counts, attempts, outcomes,
                    health, lost,
                )
                if deadline_hit:
                    self._cancel(pending, health, already_counted=True)
                round_index += 1
            for index, shard in enumerate(pending):
                if self._deadline_expired():
                    self._cancel(pending[index:], health)
                # Retries exhausted: complete the run with the
                # identical-output in-process engine rather than fail the
                # whole step.
                _log.warning(
                    "shard %d failed %d dispatch(es); scoring in-process",
                    shard,
                    attempts[shard],
                )
                trace.add_event(
                    "step2.fallback",
                    shard=shard,
                    attempts=attempts[shard] + 1,
                    **self._event_attrs,
                )
                outcomes[shard] = ShardOutcome(
                    shard=shard,
                    result=self._local_score(shard),
                    attempts=attempts[shard] + 1,
                    via="local",
                    retry_wall_seconds=lost[shard],
                )
                health.fallback_shards += 1
                # Detsan detail: the fallback path must be visible in the
                # manifest, since it is exactly the path most likely to
                # diverge if the local engine ever stopped matching the
                # pool engine.
                detsan.record_detail(
                    "supervisor.fallback",
                    shard=shard,
                    attempts=attempts[shard] + 1,
                    **self._event_attrs,
                )
        finally:
            if self._keep_pool:
                self.final_pool = pool
            elif pool is not None:
                _stop_pool(pool)
        return [outcomes[s] for s in sorted(outcomes)], health

    def _deadline_expired(self) -> bool:
        remaining = self._remaining()
        return remaining is not None and remaining <= 0

    def _cancel(
        self,
        shards: list[int],
        health: RunHealth,
        already_counted: bool = False,
    ) -> None:
        """Abandon *shards* at the run deadline and raise.

        ``already_counted`` skips the counter bump when the caller (the
        mid-wait path in :meth:`_run_round`) classified the shards itself —
        each cancelled shard lands in ``health.cancelled`` exactly once and
        never also in ``timeouts``/``crashes`` for the dispatch it cut off.
        """
        if not already_counted:
            health.cancelled += len(shards)
        trace.add_event("step2.cancelled", shards=len(shards), **self._event_attrs)
        _log.warning(
            "run deadline expired; cancelling %d remaining shard(s): %s",
            len(shards),
            shards,
        )
        raise DeadlineExceeded(
            f"run deadline expired with {len(shards)} shard(s) unfinished",
            health,
            tuple(shards),
        )

    # ------------------------------------------------------------------
    def _run_round(
        self,
        pool: ProcessPoolExecutor,
        pending: list[int],
        payloads: Mapping[int, tuple[Any, ...]],
        pair_counts: Mapping[int, int],
        attempts: dict[int, int],
        outcomes: dict[int, ShardOutcome],
        health: RunHealth,
        lost: dict[int, float],
    ) -> tuple[list[int], ProcessPoolExecutor | None, bool]:
        """Dispatch *pending* once.

        Returns ``(still-pending, usable pool, deadline_hit)``.  When the
        run deadline expires mid-wait the current and every uncollected
        shard are counted as ``cancelled`` (never as timeouts), their
        futures cancelled, the pool torn down so no orphaned worker keeps
        computing for a dead request, and ``deadline_hit`` comes back true.
        """
        futures: dict[int, cf.Future[ShardResult]] = {}
        try:
            for shard in pending:
                futures[shard] = pool.submit(
                    self._task, shard, attempts[shard], *payloads[shard]
                )
        except (BrokenProcessPool, RuntimeError) as exc:
            # Initializer death or a pool broken before/while submitting:
            # everything not submitted counts as one crashed dispatch.
            _log.warning("step-2 pool unusable at submit (%r); rebuilding", exc)
            health.crashes += len(pending) - len(futures)
            # One round-level retry event for the broken pool (the
            # per-shard ``abandon`` path never ran for these dispatches —
            # without this, a submit-time pool death is invisible on the
            # request's span tree).
            trace.add_event(
                "step2.retry",
                reason="pool-broken",
                shards=len(pending) - len(futures),
                **self._event_attrs,
            )
        submit_t = trace.clock()
        run_deadline = self.config.deadline
        deadlines = {
            shard: submit_t + self.config.deadline_for(pair_counts.get(shard, 0))
            for shard in futures
        }

        def abandon(shard: int, reason: str, until: float | None = None) -> None:
            # Charge the abandoned dispatch's wall from submission to the
            # moment it was given up on (its deadline, for timeouts).
            lost[shard] += (trace.clock() if until is None else until) - submit_t
            trace.add_event(
                "step2.retry",
                shard=shard,
                reason=reason,
                attempt=attempts[shard],
                **self._event_attrs,
            )

        failed: list[int] = [s for s in pending if s not in futures]
        pool_dead = len(failed) > 0
        collected = list(futures.items())
        for index, (shard, future) in enumerate(collected):
            attempts[shard] += 1
            remaining = deadlines[shard] - trace.clock()
            if run_deadline is not None:
                remaining = min(remaining, run_deadline - trace.clock())
            try:
                result = future.result(timeout=max(0.0, remaining))
            except cf.TimeoutError:
                if run_deadline is not None and trace.clock() >= run_deadline:
                    # Request-level cancellation, not a shard fault: this
                    # dispatch and every uncollected one count *only* as
                    # cancelled, and the pool is killed so no worker keeps
                    # burning CPU for a request nobody is waiting on.
                    cancelled = [shard]
                    for later_shard, later_future in collected[index + 1 :]:
                        later_future.cancel()
                        cancelled.append(later_shard)
                    # Shards that failed at submit ride back in the same
                    # deadline return: the deadline cancels their retry,
                    # so they land in health.cancelled too (their
                    # submit-time crash was a separate dispatch) — run()
                    # re-raises with already_counted=True.
                    health.cancelled += len(failed) + len(cancelled)
                    _stop_pool(pool)
                    return sorted(failed + cancelled), None, True
                _log.warning(
                    "shard %d exceeded its %.2fs deadline (attempt %d)",
                    shard, deadlines[shard] - submit_t, attempts[shard],
                )
                health.timeouts += 1
                abandon(shard, "timeout", until=deadlines[shard])
                failed.append(shard)
                pool_dead = True  # a hung worker poisons the pool
                continue
            except BrokenProcessPool as exc:
                _log.warning("shard %d lost to broken pool: %r", shard, exc)
                health.crashes += 1
                abandon(shard, "crash")
                failed.append(shard)
                pool_dead = True
                continue
            except BankCorruption as exc:
                _log.warning("shard %d rejected: %s", shard, exc)
                health.corrupt += 1
                abandon(shard, "corrupt")
                failed.append(shard)
                continue
            except Exception as exc:  # noqa: BLE001 - any worker error retries
                _log.warning("shard %d raised %r (attempt %d)",
                             shard, exc, attempts[shard])
                health.crashes += 1
                abandon(shard, "error")
                failed.append(shard)
                continue
            if not _validate_result(result):
                _log.warning(
                    "shard %d returned truncated/inconsistent hit arrays "
                    "(attempt %d)", shard, attempts[shard],
                )
                health.truncated += 1
                abandon(shard, "truncated")
                failed.append(shard)
                continue
            outcomes[shard] = ShardOutcome(
                shard=shard, result=result, attempts=attempts[shard],
                via="pool", retry_wall_seconds=lost[shard],
            )
        if pool_dead:
            _stop_pool(pool)
            return sorted(failed), None, False
        return sorted(failed), pool, False
