"""The step-2 pool engine: one worker protocol over a bank staged once.

The paper scales step 2 with one host protocol that drives N compute
units over banks staged once in board memory (Table 3); Nguyen &
Lavenier's fine-grained parallelization generalises the same protocol.
This module is that protocol in software, and its only implementation:

* **staging** — bank 1 (the large side: the translated genome, or a
  server's resident bank) is copied once into one POSIX shared-memory
  segment, with a CRC recorded at staging (:class:`StagedBank`);
* **initializer** — every pool worker maps that one segment for its
  lifetime and resets SIGTERM/SIGINT to the default (:func:`_init_worker`);
* **shard planner** — the joint index's shared-key list is cut into
  contiguous, pair-balanced shards, one
  :class:`~repro.extend.batched.EntryBlock` each (:func:`_plan_shards` —
  shards ↔ FPGAs);
* **task** — a shard ships as ``(shard, attempt, request_id, query_bytes,
  observe, block)``: bank 0 (the small query side) rides every task as raw
  bytes, *observe* says whether the run is observed, and the worker
  digest-checks its bank-1 view against the staging CRC before it drives
  the batched engine (:class:`~repro.extend.batched.BatchedUngappedEngine`)
  over the block (:func:`_score_shard`);
* **supervision** — dispatch is supervised
  (:class:`~repro.core.supervisor.ShardSupervisor`): a crashed, hung or
  corrupted worker is retried on a fresh pool under a pair-count-derived
  deadline, and a shard whose retries run out is scored in-process
  (:func:`_score_local`) — the run completes identically, just slower;
* **merge** — results merge on the host **in shard order**
  (:func:`_merge`), which — because shards are contiguous runs of the
  ascending shared-key list — reproduces the single-process emission
  order bit for bit, whatever path scored each shard.  The merge is also
  where a run becomes observable: retrospective ``step2.shard`` spans
  with the workers' spans adopted under them, the step-2 metrics and
  supervision health, one :class:`~repro.core.profile.ShardTiming` per
  shard and the detsan shard details.

One class drives the pool: :class:`ShardedStep2Executor` owns the staged
bank 1, the pool and one lock over both, and runs its
:meth:`~ShardedStep2Executor.step2` for both front ends.  ``compare
--workers N`` stages bank 1 on a pooled step 2 only, and releases pool and
segment as soon as that step 2 returns (:meth:`~ShardedStep2Executor.run`);
:class:`repro.serve.pool.WarmPool` builds the same class over a resident
bank staged at boot and hands one pool from request to request.  Outputs,
routes, health counters, shard timings and the ``OSError`` fallback of the
two are therefore one code path.

Deterministic fault injection (:mod:`repro.core.faults`) hooks into the
task: a :class:`~repro.core.faults.FaultPlan` addressed by ``(shard,
attempt)`` can crash the process, stall it, truncate its result arrays or
corrupt its bank-1 view.  The digest check catches the
corruption — injected or real — and re-maps the view from the clean
segment rather than silently scoring garbage.
"""

from __future__ import annotations

import atexit
import logging
import os
import signal
import threading
import time
import warnings
from collections.abc import Callable
from dataclasses import replace
from typing import TYPE_CHECKING, Any, Literal

import numpy as np

from ..extend.batched import BatchedUngappedEngine, EntryBlock
from ..extend.ungapped import UngappedConfig, UngappedHits, UngappedStats
from ..index.kmer import TwoBankIndex
from ..obs import metrics as obsmetrics
from ..obs import trace as obstrace
from . import determinism as detsan
from .faults import BankCorruption, FaultKind, FaultPlan, FaultSpec, bank_digest
from .partition import split_entries_contiguous
from .profile import RunHealth, ShardTiming
from .supervisor import (
    DeadlineExceeded,
    ShardOutcome,
    ShardSupervisor,
    SupervisorConfig,
    _stop_pool,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from concurrent.futures import ProcessPoolExecutor
    from multiprocessing.context import BaseContext
    from multiprocessing.shared_memory import SharedMemory

__all__ = [
    "ShardedStep2Executor",
    "StagedBank",
    "live_segment_names",
    "release_all_segments",
]

_log = logging.getLogger(__name__)

#: Per-process worker state installed by the pool initializer.
_WORKER: dict[str, Any] = {}

#: Shared-memory segments this process *created* and has not yet released,
#: keyed by segment name and stamped with the creating pid.  The per-run
#: ``try/finally`` remains the primary cleanup; this registry is the
#: backstop for long-lived processes (the serving layer) that exit without
#: reaching their release — its :func:`release_all_segments` hook runs at
#: interpreter exit.  The pid stamp keeps forked pool workers (which inherit a
#: copy-on-write view of this dict and run their own atexit handlers) from
#: unlinking segments the parent still owns.
_LIVE_SEGMENTS: dict[str, tuple[int, SharedMemory]] = {}

#: Observability payload riding a shard result: (exported worker spans,
#: serialized worker metrics), or None when the worker was not observed.
ObsPayload = tuple[tuple[dict[str, Any], ...], dict[str, Any]]

#: Task payload: (shard id, hit offsets0/offsets1/scores, (entries, pairs,
#: cells, hits), wall seconds, batches, max batch pairs, obs payload).
#: Consumers slice (``result[:8]``) rather than unpack the exact length,
#: so the layout can keep growing at the tail.
ShardResult = tuple[
    int,
    np.ndarray,
    np.ndarray,
    np.ndarray,
    tuple[int, int, int, int],
    float,
    int,
    int,
    Any,
]

#: One step-2 run: merged hits, one timing per shard, supervision health.
Step2Run = tuple[UngappedHits, list[ShardTiming], RunHealth]

#: Where one step-2 run scores (:meth:`ShardedStep2Executor.route`).
Route = Literal["local", "small", "pool"]


def _pool_context() -> tuple[BaseContext, bool]:
    """Multiprocessing context for the pool.

    Prefer ``fork``: workers then share the parent's resource tracker, and
    the parent's single create/unlink pair manages the segment.  Where
    fork does not exist (Windows) fall back to ``spawn``; there every
    worker runs its own tracker, whose attach-time registration must be
    undone or it unlinks the segment when the worker exits.  Returns
    ``(context, unregister_in_worker)``.
    """
    import multiprocessing as mp

    try:
        return mp.get_context("fork"), False
    except ValueError:  # pragma: no cover - non-POSIX platforms
        return mp.get_context("spawn"), True


def _attach_shared(name: str, unregister: bool) -> SharedMemory:
    """Attach a shared-memory block, optionally disowning its cleanup.

    Only the parent owns the segment's lifetime; with a per-worker
    resource tracker (spawn), unregistering here stops that tracker from
    racing the parent's unlink.  Unregister failures are logged, never
    swallowed silently: a changed private API would otherwise reintroduce
    the tracker race with no trace.
    """
    from multiprocessing import shared_memory

    shm = shared_memory.SharedMemory(name=name)
    if unregister:  # pragma: no cover - spawn-only path
        try:
            from multiprocessing import resource_tracker

            resource_tracker.unregister(
                getattr(shm, "_name", shm.name), "shared_memory"
            )
        except (AttributeError, KeyError, ValueError, OSError) as exc:
            _log.warning(
                "could not unregister shared-memory segment %s from the "
                "worker resource tracker (%r); the tracker may unlink the "
                "segment early on this platform",
                name,
                exc,
            )
    return shm


def _init_worker(
    name: str,
    size: int,
    config: UngappedConfig,
    unregister: bool,
    fault_plan: FaultPlan | None,
    digest: int,
) -> None:
    """Pool initializer: map the staged bank-1 segment and keep the config."""
    # Workers forked after a server installed its SIGTERM/SIGINT drain
    # handler inherit it — a worker that catches SIGTERM survives kills
    # and starts a drain of its own.  Workers die when told to.
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    signal.signal(signal.SIGINT, signal.SIG_DFL)
    # Shed any fork-inherited ambient tracer/registry: recordings into
    # those copy-on-write snapshots would be unreachable from the parent.
    # An observed *task* builds fresh per-process buffers and ships them
    # back through the result tuple instead.
    obstrace.reset()
    obsmetrics.reset()
    # Likewise shed the fork-inherited segment registry: the segment
    # belongs to the parent, and the pid stamps alone already stop a worker
    # from unlinking it — clearing also drops the stale references.
    _LIVE_SEGMENTS.clear()
    shm = _attach_shared(name, unregister)
    view = np.ndarray((size,), dtype=np.uint8, buffer=shm.buf)
    _WORKER.clear()
    _WORKER.update(
        shm=shm,  # keep alive for the process lifetime
        bank1=view,
        config=config,
        fault_plan=fault_plan,
        digest=digest,
    )


def _verified_bank1() -> np.ndarray:
    """The worker's bank-1 view, digest-checked against the staging CRC.

    The segment is owned by the parent and holds the staged bytes (a
    server's CRC self-heal restores exactly those), so a mismatch means
    *this process's view* went bad — an injected ``CORRUPT_BANK`` fault, or
    real memory damage.  The view is re-created from the segment so the
    **next** dispatch to this process succeeds, then the current dispatch
    is rejected — the supervisor retries it rather than accept
    silently-corrupt scores.
    """
    view: np.ndarray = _WORKER["bank1"]
    expect = _WORKER["digest"]
    if bank_digest(view) == expect:
        return view
    fresh = np.ndarray(view.shape, dtype=np.uint8, buffer=_WORKER["shm"].buf)
    if bank_digest(fresh) != expect:  # pragma: no cover - shm itself bad
        raise BankCorruption("shared bank-1 segment is corrupt beyond repair")
    _WORKER["bank1"] = fresh
    raise BankCorruption(
        "step-2 worker bank-1 view failed the digest check; view re-mapped "
        "from the shared segment"
    )


def _apply_worker_fault(spec: FaultSpec, shard: int) -> None:
    """Apply a pre-scoring injected fault inside the worker process."""
    if spec.kind is FaultKind.CRASH:
        # Immediate death, no cleanup — models a segfaulted worker.  The
        # parent sees BrokenProcessPool, not an exception.
        os._exit(13)
    elif spec.kind is FaultKind.HANG:
        time.sleep(spec.hang_seconds)
    elif spec.kind is FaultKind.CORRUPT_BANK:
        plan: FaultPlan = _WORKER["fault_plan"]
        bad = _WORKER["bank1"].copy()
        n = min(64, bad.shape[0])
        # XOR with odd bytes guarantees at least one flipped bit per byte,
        # so the digest check cannot coincidentally pass.
        bad[:n] ^= plan.corruption(shard, n) | np.uint8(1)
        _WORKER["bank1"] = bad  # private copy: shm stays clean for peers


def _package_hits(
    shard: int,
    hits: UngappedHits,
    wall: float,
    engine: BatchedUngappedEngine,
    obs_payload: Any = None,
) -> ShardResult:
    """Assemble the wire-format result tuple of one scored shard."""
    s = hits.stats
    return (
        shard,
        hits.offsets0,
        hits.offsets1,
        hits.scores,
        (s.entries, s.pairs, s.cells, s.hits),
        wall,
        engine.batches,
        engine.max_batch_pairs,
        obs_payload,
    )


def _truncate(result: tuple[Any, ...], spec: FaultSpec | None) -> tuple[Any, ...]:
    """Apply an injected ``TRUNCATE``: short row arrays against untruncated
    counts — the supervisor's validation must catch this, never the merge."""
    if spec is None or spec.kind is not FaultKind.TRUNCATE:
        return result
    drop = max(1, int(spec.drop))
    return result[:1] + tuple(a[:-drop] for a in result[1:4]) + result[4:]


def _observed(
    observe: bool,
    request_id: str | None,
    name: str,
    attrs: dict[str, Any],
    work: Callable[[], Any],
) -> tuple[Any, ObsPayload | None]:
    """Run *work* in a pool task, inside a fresh tracer/registry when observed.

    The worker's spans and metrics ride back in the result tuple — the
    parent adopts the spans under its own shard span and merges the metrics
    (worker ``perf_counter`` readings are meaningless in the parent, so
    spans are rebased there, not here).  *request_id* rides along so those
    spans carry the originating request's identity.
    """
    if not observe:
        return work(), None
    tracer = obstrace.Tracer()
    registry = obsmetrics.MetricsRegistry()
    ident = {} if request_id is None else {"request_id": request_id}
    with obstrace.activate(tracer), obsmetrics.activate(registry):
        with obstrace.span(name, **attrs, pid=os.getpid(), **ident):
            out = work()
    return out, (tuple(tracer.export()), registry.to_dict())


def _score_shard(
    shard: int,
    attempt: int,
    request_id: str | None,
    query_bytes: bytes,
    observe: bool,
    block: EntryBlock,
) -> ShardResult:
    """Pool task: batched-score one shard against the staged bank-1 view.

    ``attempt`` is the supervisor's dispatch counter for this shard; it
    exists so an injected :class:`~repro.core.faults.FaultPlan` can address
    "shard 2, first attempt" deterministically regardless of which process
    picks the task up.  Bank 0 arrives as *query_bytes* — the small side of
    the comparison, so shipping it per task costs less than staging it.
    When *observe* is set (the parent's run is traced or metered), the
    shard is scored under :func:`_observed`.
    """
    t0 = obstrace.clock()
    plan: FaultPlan | None = _WORKER["fault_plan"]
    spec = plan.worker_fault(shard, attempt) if plan is not None else None
    if spec is not None:
        _apply_worker_fault(spec, shard)
    bank1 = _verified_bank1()
    bank0 = np.frombuffer(query_bytes, dtype=np.uint8)
    engine = BatchedUngappedEngine(_WORKER["config"])
    hits, obs_payload = _observed(
        observe, request_id, "step2.worker", {"shard": shard, "attempt": attempt},
        lambda: engine.run_stream(bank0, bank1, block),
    )
    return _truncate(
        _package_hits(shard, hits, obstrace.clock() - t0, engine, obs_payload), spec
    )


def _score_local(
    config: UngappedConfig,
    bank0: np.ndarray,
    bank1: np.ndarray,
    shard: int,
    block: EntryBlock,
) -> ShardResult:
    """In-process scorer: the in-process route and the pool's last resort.

    Runs the identical batched engine over the identical shard payload
    against the host's own (never-shared) bank buffers, so its result is
    bit-identical to what a healthy worker would have returned.
    """
    t0 = obstrace.clock()
    engine = BatchedUngappedEngine(config)
    hits = engine.run_stream(bank0, bank1, block)
    return _package_hits(shard, hits, obstrace.clock() - t0, engine)


def _publish_shard_metrics(
    registry: obsmetrics.MetricsRegistry,
    pairs: int,
    cells: int,
    hits_n: int,
    wall: float,
    retry_wall: float = 0.0,
) -> None:
    """Fold one accepted shard into the step-2 metric families."""
    registry.counter("step2_pairs_total").inc(pairs)
    registry.counter("step2_cells_total").inc(cells)
    registry.counter("step2_hits_total").inc(hits_n)
    registry.counter("step2_shard_wall_seconds_total").inc(wall)
    registry.histogram("step2_shard_pairs").observe(pairs)
    if retry_wall > 0:
        registry.counter("step2_retry_wall_seconds_total").inc(retry_wall)


def _plan_shards(
    index: TwoBankIndex, workers: int
) -> tuple[dict[int, EntryBlock], dict[int, int]]:
    """Shard planner: contiguous, pair-balanced work lists, keyed by shard.

    Never cuts more shards than there are entries — a worker with an empty
    range costs a process spawn for zero pairs — and never keeps an empty
    range (possible under extreme pair skew).  Returns each shard's
    :class:`~repro.extend.batched.EntryBlock` and its pair count.
    """
    counts = index.pair_counts()
    ranges = split_entries_contiguous(index, max(1, min(workers, index.n_shared_keys)))
    live = [(s, lo, hi) for s, (lo, hi) in enumerate(ranges) if hi > lo]
    blocks = {s: EntryBlock(*index.shard_arrays(lo, hi)) for s, lo, hi in live}
    pairs = {s: int(counts[lo:hi].sum()) for s, lo, hi in live}
    return blocks, pairs


def _merge(
    outcomes: list[ShardOutcome],
    health: RunHealth,
    request_id: str | None,
) -> tuple[UngappedHits, list[ShardTiming]]:
    """Fold accepted shard results, in shard order, into one run.

    Beyond concatenating the hit arrays this is where a run becomes
    observable: the supervision health and per-shard step-2 metrics land
    in the active registry, each shard gets a retrospective
    ``step2.shard`` span with its worker's spans adopted under it, a
    :class:`~repro.core.profile.ShardTiming` row and a detsan detail.
    """
    tracer = obstrace.active()
    registry = obsmetrics.active()
    health.publish("step2")
    ident = {} if request_id is None else {"request_id": request_id}
    stats = UngappedStats()
    timings: list[ShardTiming] = []
    for outcome in outcomes:
        # Slice, never exact-unpack: the tuple grows at the tail (the obs
        # payload today) without every consumer changing shape.
        shard, o0, o1, sc, (entries, pairs, cells, hits_n), wall, \
            batches, max_batch = outcome.result[:8]
        obs_payload = outcome.result[8] if len(outcome.result) > 8 else None
        if detsan.active() is not None:
            # Per-shard digests are diagnostics (shard counts differ
            # across worker counts), recorded as non-compared detail.
            detsan.record_detail(
                "shard",
                shard=shard,
                via=outcome.via,
                attempts=outcome.attempts,
                hits=hits_n,
                digest=detsan.shard_digest([o0, o1, sc]),
            )
        if tracer is not None:
            # Backdated to end now (the merge runs right after completion);
            # the worker's spans reparent under it, their timeline rebased
            # onto its start (worker ``perf_counter`` origins are
            # per-process).
            shard_span = tracer.record(
                "step2.shard", wall,
                shard=shard, via=outcome.via, attempts=outcome.attempts,
                pairs=pairs, hits=hits_n,
                retry_wall_seconds=outcome.retry_wall_seconds, **ident,
            )
            if obs_payload is not None and obs_payload[0]:
                worker_spans = obs_payload[0]
                tracer.adopt(
                    worker_spans,
                    shard_span.span_id,
                    rebase=(worker_spans[0]["start"], shard_span.start),
                )
        if registry is not None:
            if obs_payload is not None:
                registry.merge(obs_payload[1])
            _publish_shard_metrics(
                registry, pairs, cells, hits_n, wall,
                retry_wall=outcome.retry_wall_seconds,
            )
        stats.merge(UngappedStats(entries, pairs, cells, hits_n))
        timings.append(
            ShardTiming(
                shard=shard,
                entries=entries,
                pairs=pairs,
                hits=hits_n,
                wall_seconds=wall,
                batches=batches,
                max_batch_pairs=max_batch,
                attempts=outcome.attempts,
                via=outcome.via,
                retry_wall_seconds=outcome.retry_wall_seconds,
            )
        )
    results = [o.result for o in outcomes]
    if len(results) == 1:
        # One shard (the in-process route): nothing to concatenate.
        offsets0, offsets1, scores = results[0][1:4]
    else:
        offsets0 = np.concatenate([r[1] for r in results])
        offsets1 = np.concatenate([r[2] for r in results])
        scores = np.concatenate([r[3] for r in results]).astype(np.int32)
    return UngappedHits(offsets0, offsets1, scores, stats), timings


def _track_segment(shm: SharedMemory) -> None:
    """Record a freshly created segment for exit-time cleanup."""
    _LIVE_SEGMENTS[shm.name] = (os.getpid(), shm)


def live_segment_names() -> tuple[str, ...]:
    """Names of the shared-memory segments this process currently owns.

    Empty outside an active sharded run — the serving layer's leak checks
    (and the ``serve-chaos`` CI job) assert exactly that after a drain.
    """
    pid = os.getpid()
    return tuple(
        sorted(n for n, (owner, _) in _LIVE_SEGMENTS.items() if owner == pid)
    )


def release_all_segments() -> None:
    """Release every tracked segment owned by this process.

    Registered with :mod:`atexit` at import.  Idempotent — releasing a
    :class:`StagedBank` untracks its segment (the ``finally`` of
    :meth:`ShardedStep2Executor.run` does so via ``_release``, as
    does the serving pool on shutdown), so on a clean run this finds
    nothing.  Never raises: it runs on the way down, where a cleanup
    error must not mask the original exit reason.
    """
    pid = os.getpid()
    for name, (owner, shm) in list(_LIVE_SEGMENTS.items()):
        if owner != pid:
            continue
        _LIVE_SEGMENTS.pop(name, None)
        try:
            _release_segment(shm)
        except OSError as exc:
            _log.warning(
                "exit-time shared-memory cleanup failed for %s: %r", name, exc
            )


atexit.register(release_all_segments)


def _release_segment(shm: SharedMemory) -> None:
    """Close and unlink one shared-memory segment.

    ``close`` and ``unlink`` are chained in a ``try/finally`` so a failing
    close can never leak the underlying segment — unlink always runs, and
    the segment leaves the exit-time registry either way.
    """
    _LIVE_SEGMENTS.pop(shm.name, None)
    try:
        shm.close()
    finally:
        shm.unlink()


class StagedBank:
    """Bank 1 staged once in shared memory: the segment every worker maps.

    Copies *buffer* into a fresh segment (tracked for exit-time cleanup)
    and records the CRC every pool task checks its view against.
    :attr:`view` is the owner's writable window onto the segment, and
    :attr:`source` the host buffer it was staged from — the pristine copy
    a CRC self-heal restores.  The owner calls :meth:`release` exactly
    once.
    """

    def __init__(self, buffer: np.ndarray) -> None:
        from multiprocessing import shared_memory

        #: CRC-32 of the staged bytes.
        self.digest = bank_digest(buffer)
        self.source = buffer
        self.shm: SharedMemory = shared_memory.SharedMemory(
            create=True, size=max(1, buffer.nbytes)
        )
        _track_segment(self.shm)
        self.view = np.ndarray(buffer.shape, dtype=np.uint8, buffer=self.shm.buf)
        self.view[:] = buffer

    def release(self) -> None:
        """Close and unlink the segment."""
        _release_segment(self.shm)


def _shut(pool: ProcessPoolExecutor | None, bank: StagedBank | None) -> None:
    """Stop *pool* and release *bank*, either of which may be absent.

    Callers swap both out under their lock and call this outside it:
    ``_stop_pool`` joins worker processes, and holding a lock across a
    join is the bounded-blocking shape RC107 rejects.
    """
    try:
        if pool is not None:
            _stop_pool(pool)
    finally:
        if bank is not None:
            bank.release()


class ShardedStep2Executor:
    """The pool front end: a staged bank 1, its worker pool, and the
    supervised step-2 runs on them.

    Parameters
    ----------
    config:
        Step-2 kernel configuration (window, threshold, batch budget …).
    workers:
        Process count of the pools it builds and the shard count it plans.
    supervisor:
        Retry/timeout policy (:class:`~repro.core.supervisor.SupervisorConfig`);
        defaults to pair-count-derived deadlines with 2 retries.  Each run
        sets its own request deadline and id on it.
    fault_plan:
        Optional deterministic fault injection
        (:class:`~repro.core.faults.FaultPlan`) applied inside the pool
        tasks — the chaos-testing hook.
    min_pairs_per_shard:
        Pair-count floor below which a multi-worker run scores in-process
        (:meth:`route`): on small workloads the pool's fixed costs exceed
        the scoring itself.  ``0`` disables the floor.  The default
        ``1 << 18`` also covers pool spawn and staging, which a one-shot
        pays per run.
    resident:
        Bank-1 bytes to stage now and keep until :meth:`close` — a
        server's resident bank (:class:`repro.serve.pool.WarmPool`).
        Without one, a pooled step 2 stages its own bank 1, and
        :meth:`run` releases it with the pool.

    ``compare --workers N`` calls :meth:`run`, which spawns one pool and
    releases it as soon as step 2 returns; a server calls :meth:`step2` per request
    and hands the one pool from request to request.  The merged hits are
    bit-identical — offsets, scores and order — to the single-process
    batched run for any worker count, retry or injected fault.
    """

    def __init__(
        self,
        config: UngappedConfig | None = None,
        workers: int = 1,
        supervisor: SupervisorConfig | None = None,
        fault_plan: FaultPlan | None = None,
        min_pairs_per_shard: int = 1 << 18,
        resident: np.ndarray | None = None,
    ) -> None:
        self.config = config or UngappedConfig()
        self.workers = max(1, int(workers))
        self.supervisor = supervisor or SupervisorConfig()
        self.fault_plan = fault_plan
        self.min_pairs_per_shard = max(0, int(min_pairs_per_shard))
        self._resident = resident is not None
        #: Guards every mutable field a server's threads share: ``_pool``,
        #: ``_bank``, ``_closed``, ``_last_health``, ``_last_timings`` and
        #: ``_bank_heals``.
        self._pool_lock = threading.Lock()
        self._bank = None if resident is None else StagedBank(resident)
        self._pool: ProcessPoolExecutor | None = None
        self._closed = False
        self._last_health = RunHealth()
        self._last_timings: list[ShardTiming] = []
        self._bank_heals = 0

    # -- shared state accessors -----------------------------------------
    @property
    def last_health(self) -> RunHealth:
        """Supervision counters of the latest :meth:`step2` — also those of
        a run its deadline cut off."""
        with self._pool_lock:
            return self._last_health

    @last_health.setter
    def last_health(self, value: RunHealth) -> None:
        with self._pool_lock:
            self._last_health = value

    @property
    def last_timings(self) -> list[ShardTiming]:
        """Per-shard timings of the latest :meth:`step2`."""
        with self._pool_lock:
            return self._last_timings

    @property
    def bank_heals(self) -> int:
        """CRC self-heals of the staged bank (:meth:`heal_if_corrupt`)."""
        with self._pool_lock:
            return self._bank_heals

    @property
    def resident_bytes(self) -> int:
        """Bytes of the staged bank-1 segment (0 when none is staged)."""
        with self._pool_lock:
            return 0 if self._bank is None else int(self._bank.shm.size)

    @property
    def pool_alive(self) -> bool:
        """True while a pool is held for the next run."""
        with self._pool_lock:
            return self._pool is not None

    # -- step 2 -------------------------------------------------------------
    def route(self, index: TwoBankIndex) -> Route:
        """Where a step 2 over *index* scores.

        ``"local"``: one worker, or too few shared keys to cut two shards
        per worker.  ``"small"``: fewer than :attr:`min_pairs_per_shard`
        pairs per worker, so the pool's fixed costs (split, pickling, IPC
        — plus spawn and staging for a one-shot) would exceed the scoring;
        scored in-process and recorded as
        ``RunHealth.small_workload_fallbacks``.  ``"pool"``: sharded.
        """
        if self.workers == 1 or index.n_shared_keys < 2 * self.workers:
            return "local"
        if index.total_pairs < self.workers * self.min_pairs_per_shard:
            return "small"
        return "pool"

    def step2(
        self,
        index: TwoBankIndex,
        deadline_at: float | None = None,
        use_pool: bool = True,
        request_id: str | None = None,
    ) -> UngappedHits:
        """Score *index* (step 2) where :meth:`route` says, and record it.

        ``deadline_at`` is the request's absolute deadline: a run it cuts
        off raises :class:`~repro.core.supervisor.DeadlineExceeded`.
        ``use_pool=False`` is a breaker's degraded route (in-process, no
        pool interaction at all).  ``request_id`` rides the supervisor's
        events and every task, so worker spans re-parent under this
        request's shard spans.  Where no pool can be had (``OSError``: no
        ``/dev/shm``, no forks) the run warns and scores in-process,
        counted as one fallback shard.
        """
        supervisor = replace(
            self.supervisor, deadline=deadline_at, request_id=request_id
        )
        route = self.route(index) if use_pool else "local"
        try:
            hits, timings, health = self._score(index, supervisor, route)
        except DeadlineExceeded as exc:
            self._keep(exc.health, [])
            raise
        self._keep(health, timings)
        return hits

    def run(self, index: TwoBankIndex) -> UngappedHits:
        """A one-shot step 2: :meth:`step2`, then stop the pool and release
        the staged bank it used — a resident bank stays until
        :meth:`close`."""
        try:
            return self.step2(index)
        finally:
            self._release()

    def _score(
        self, index: TwoBankIndex, supervisor: SupervisorConfig, route: Route
    ) -> Step2Run:
        if route == "pool":
            try:
                return self._score_pooled(index, supervisor)
            except OSError as exc:
                self._degrade("step-2", exc)
        return self._score_local(index, supervisor, route)

    def _score_local(
        self, index: TwoBankIndex, supervisor: SupervisorConfig, route: Route
    ) -> Step2Run:
        """The in-process route: one shard spanning every entry, scored here.

        Refuses to start past ``supervisor.deadline`` (raising
        :class:`~repro.core.supervisor.DeadlineExceeded` with the one
        shard counted as cancelled).  *route* says why it runs here:
        ``"small"`` is the pair floor's choice, ``"pool"`` a pool that
        could not be had (a fallback shard).
        """
        if supervisor.deadline is not None and obstrace.clock() >= supervisor.deadline:
            health = RunHealth(shards=1, cancelled=1)
            health.publish("step2")
            raise DeadlineExceeded(
                "request deadline expired before in-process scoring",
                health,
                (0,),
            )
        result = _score_local(
            self.config,
            index.index0.bank.buffer,
            index.index1.bank.buffer,
            0,
            EntryBlock(*index.shard_arrays(0, index.n_shared_keys)),
        )
        health = RunHealth(
            shards=1,
            fallback_shards=int(route == "pool"),
            small_workload_fallbacks=int(route == "small"),
        )
        hits, timings = _merge(
            [ShardOutcome(shard=0, result=result, attempts=1, via="local")],
            health,
            supervisor.request_id,
        )
        return hits, timings, health

    def _score_pooled(
        self, index: TwoBankIndex, supervisor: SupervisorConfig
    ) -> Step2Run:
        """Supervise one sharded run of *index* over the staged bank 1.

        The run takes the held pool, builds a fresh one when it has none
        or that one breaks — never with more processes than shards — and
        hands whatever pool survives to :meth:`_hold`, also when it
        raises.  A run cut off by its deadline publishes its health, then
        raises.  Workers record spans and metrics exactly when the run is
        observed (a tracer or a metrics registry is active).
        """
        bank = self._stage(index.index1.bank.buffer)
        shards, pair_counts = _plan_shards(index, self.workers)
        bank0 = index.index0.bank.buffer
        query_bytes = bank0.tobytes()
        observe = obstrace.active() is not None or obsmetrics.active() is not None
        payloads = {
            s: (supervisor.request_id, query_bytes, observe, block)
            for s, block in shards.items()
        }

        def local_score(shard: int) -> ShardResult:
            return _score_local(
                self.config, bank0, index.index1.bank.buffer, shard, shards[shard]
            )

        size = min(self.workers, len(shards))
        sup = ShardSupervisor(
            supervisor,
            lambda: self.make_pool(bank, size),
            _score_shard,
            local_score,
            initial_pool=self._take_pool(),
            keep_pool=True,
        )
        try:
            outcomes, health = sup.run(payloads, pair_counts)
        except DeadlineExceeded as exc:
            exc.health.publish("step2")
            raise
        finally:
            self._hold(sup.final_pool)
        hits, timings = _merge(outcomes, health, supervisor.request_id)
        return hits, timings, health

    # -- pool and staging ---------------------------------------------------
    def make_pool(self, bank: StagedBank, workers: int) -> ProcessPoolExecutor:
        """A fresh pool of *workers* processes, each mapping *bank*."""
        from concurrent.futures import ProcessPoolExecutor

        ctx, unregister = _pool_context()
        return ProcessPoolExecutor(
            max_workers=workers,
            mp_context=ctx,
            initializer=_init_worker,
            initargs=(
                bank.shm.name, bank.view.shape[0], self.config, unregister,
                self.fault_plan, bank.digest,
            ),
        )

    def _stage(self, buffer: np.ndarray) -> StagedBank:
        """Bank 1 of a pooled step 2: the resident bank, or a one-shot's
        fresh staging, which replaces the previous run's pool and bank."""
        if not self._resident:
            self._release()
            fresh = StagedBank(buffer)
            with self._pool_lock:
                self._bank = fresh
            return fresh
        with self._pool_lock:
            bank = self._bank
        if bank is None:  # released by close()
            raise OSError("the resident bank was released")
        return bank

    def _take_pool(self) -> ProcessPoolExecutor | None:
        """Hand the held pool (if any) to a run."""
        with self._pool_lock:
            pool, self._pool = self._pool, None
        return pool

    def _hold(self, pool: ProcessPoolExecutor | None) -> None:
        """Publish *pool* for the next run.

        A racing publisher — or a :meth:`close` that won while the pool
        was built or in use — loses: its pool is stopped outside the lock.
        """
        leftover = None
        with self._pool_lock:
            if self._closed or self._pool is not None:
                leftover = pool
            else:
                self._pool = pool
        _shut(leftover, None)

    def _keep(self, health: RunHealth, timings: list[ShardTiming]) -> None:
        """Record a step-2 run: its *health* and its *timings*."""
        with self._pool_lock:
            self._last_health, self._last_timings = health, timings

    def _release(self) -> None:
        """Stop the held pool, and release a one-shot's staged bank."""
        with self._pool_lock:
            pool, self._pool = self._pool, None
            bank = None
            if not self._resident:
                bank, self._bank = self._bank, None
        _shut(pool, bank)

    def _degrade(self, what: str, exc: OSError) -> None:
        """Restricted environments (no /dev/shm, no forks): warn, drop the
        pool (and a one-shot's staged bank), and let the caller take the
        identical-output in-process route rather than fail."""
        warnings.warn(
            f"sharded {what} pool unavailable ({exc!r}); "
            "falling back to in-process execution",
            RuntimeWarning,
            stacklevel=4,
        )
        self._release()

    # -- lifecycle --------------------------------------------------------
    def warm_up(self, timeout: float = 60.0) -> None:
        """Spawn the pool over the staged bank eagerly, so the first run
        does not pay for it (a server's boot; a one-shot never calls it).

        ``ProcessPoolExecutor`` forks workers lazily on first submit, so a
        bare executor is not actually warm — a no-op probe forces the
        spawn (and the initializer's segment mapping) to happen now.

        That probe ``submit`` is the fork point, so it runs outside
        :attr:`_pool_lock` and the pool is only *published* under it: a
        child forked while the lock is held inherits it locked.
        ``test_serve_service.py::TestForkOutsideLock`` records the lock's
        state at every worker start.
        """
        with self._pool_lock:
            bank = self._bank
            if self._closed or self.workers <= 1 or self._pool is not None:
                return
        if bank is None:
            return
        pool = None
        try:
            pool = self.make_pool(bank, self.workers)
            pool.submit(os.getpid).result(timeout=timeout)
        except OSError as exc:
            _shut(pool, None)
            self._degrade("warm-up", exc)
            return
        self._hold(pool)

    def close(self) -> None:
        """Stop the pool and release the staged segment (idempotent)."""
        with self._pool_lock:
            if self._closed:
                return
            self._closed = True
            pool, self._pool = self._pool, None
            bank, self._bank = self._bank, None
        _shut(pool, bank)

    # -- chaos hooks ------------------------------------------------------
    def kill_workers(self) -> None:
        """Terminate every pool worker (the ``POOL_DEATH`` injection).

        The pool object survives in a broken state, exactly as if the
        processes had died for real — the next run's supervisor sees
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
        only the CRC check + re-stage of :meth:`heal_if_corrupt` can
        recover.
        """
        plan = self.fault_plan or FaultPlan()
        with self._pool_lock:
            if self._bank is not None:
                view = self._bank.view
                n = min(64, view.shape[0])
                view[:n] ^= plan.corruption(request, n) | np.uint8(1)

    def heal_if_corrupt(self) -> bool:
        """CRC-check the staged segment; re-stage from the host copy if bad.

        Returns true when a heal happened.  The host buffer the bank was
        staged from is the pristine source (it is never handed to
        workers), so re-staging restores the exact bytes of the staging
        CRC — workers' digest checks pass again without remapping.
        """
        with self._pool_lock:
            bank = self._bank
            if bank is None or bank_digest(bank.view) == bank.digest:
                return False
            bank.view[:] = bank.source
            self._bank_heals += 1
        obstrace.add_event("serve.bank_heal")
        return True
