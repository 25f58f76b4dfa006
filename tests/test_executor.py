"""Sharded step-2 executor tests: determinism, profile plumbing, CLI."""

from multiprocessing.shared_memory import SharedMemory

import numpy as np
import pytest

from repro.core import executor
from repro.core.config import PipelineConfig
from repro.core.executor import ShardedStep2Executor, StagedBank
from repro.core.faults import FaultKind, FaultPlan, FaultSpec
from repro.core.partition import split_entries_contiguous
from repro.core.pipeline import SeedComparisonPipeline
from repro.extend.ungapped import UngappedConfig, UngappedExtender
from repro.index.kmer import ContiguousSeedModel, TwoBankIndex
from repro.seqs.generate import random_protein_bank
from repro.seqs.sequence import Sequence, SequenceBank


@pytest.fixture(scope="module")
def workload():
    rng = np.random.default_rng(42)
    b0 = random_protein_bank(rng, 25, mean_length=140, name_prefix="q")
    b1 = random_protein_bank(rng, 35, mean_length=140, name_prefix="s")
    return b0, b1, TwoBankIndex.build(b0, b1, ContiguousSeedModel(3))


CFG = UngappedConfig(w=3, n=8, threshold=20)

#: Test workloads are far below the small-workload floor; pool-behaviour
#: tests disable the heuristic so they exercise real worker processes.
POOL = {"min_pairs_per_shard": 0}


class TestContiguousSplit:
    def test_ranges_cover_in_order(self, workload):
        _, _, idx = workload
        for n in (1, 2, 3, 7):
            ranges = split_entries_contiguous(idx, n)
            assert len(ranges) == n
            assert ranges[0][0] == 0
            assert ranges[-1][1] == idx.n_shared_keys
            for (_, hi), (lo2, _) in zip(ranges, ranges[1:], strict=False):
                assert hi == lo2

    def test_pair_balance(self, workload):
        _, _, idx = workload
        counts = idx.pair_counts()
        ranges = split_entries_contiguous(idx, 4)
        loads = [int(counts[lo:hi].sum()) for lo, hi in ranges]
        assert sum(loads) == idx.total_pairs
        assert max(loads) <= idx.total_pairs / 4 + int(counts.max())

    def test_empty_index(self):
        b0 = SequenceBank([Sequence.from_text("q", "AAAA")], pad=16)
        b1 = SequenceBank([Sequence.from_text("s", "WWWW")], pad=16)
        idx = TwoBankIndex.build(b0, b1, ContiguousSeedModel(4))
        assert split_entries_contiguous(idx, 3) == [(0, 0)] * 3

    def test_invalid_parts(self, workload):
        _, _, idx = workload
        with pytest.raises(ValueError):
            split_entries_contiguous(idx, 0)


class TestShardPayload:
    """``TwoBankIndex.shard_arrays``: the flat payload an ``EntryBlock`` wraps."""

    def test_roundtrips_entries(self, workload):
        _, _, idx = workload
        lo, hi = 3, 11
        off0, cnt0, off1, cnt1 = idx.shard_arrays(lo, hi)
        assert cnt0.shape[0] == cnt1.shape[0] == hi - lo
        b0 = np.concatenate(([0], np.cumsum(cnt0)))
        b1 = np.concatenate(([0], np.cumsum(cnt1)))
        for i, j in enumerate(range(lo, hi)):
            entry = idx.entry(j)
            assert np.array_equal(off0[b0[i] : b0[i + 1]], entry.offsets0)
            assert np.array_equal(off1[b1[i] : b1[i + 1]], entry.offsets1)

    def test_empty_range_and_bounds(self, workload):
        _, _, idx = workload
        off0, cnt0, off1, cnt1 = idx.shard_arrays(5, 5)
        assert off0.size == cnt0.size == off1.size == cnt1.size == 0
        with pytest.raises(IndexError):
            idx.shard_arrays(0, idx.n_shared_keys + 1)


class TestShardedExecutor:
    def test_sharded_merge_order_pinned(self, workload):
        """Regression: merged sharded hits keep the single-process
        (key-ascending, offset0-major, offset1-minor) emission order."""
        b0, b1, idx = workload
        single = ShardedStep2Executor(CFG, workers=1).run(idx)
        for workers in (2, 3, 5):
            sharded = ShardedStep2Executor(CFG, workers=workers, **POOL).run(idx)
            assert np.array_equal(single.offsets0, sharded.offsets0), workers
            assert np.array_equal(single.offsets1, sharded.offsets1), workers
            assert np.array_equal(single.scores, sharded.scores), workers
        # Pin the order itself, not just cross-engine agreement: hits of one
        # entry are contiguous, offsets0-major / offsets1-minor within it.
        key_of = {}
        for j, entry in enumerate(idx.entries()):
            for o0 in entry.offsets0:
                for o1 in entry.offsets1:
                    key_of.setdefault((int(o0), int(o1)), j)
        emitted = [
            key_of[(int(a), int(b))]
            for a, b in zip(single.offsets0, single.offsets1, strict=True)
        ]
        assert emitted == sorted(emitted)

    def test_stats_match_single_process(self, workload):
        _, _, idx = workload
        single = ShardedStep2Executor(CFG, workers=1).run(idx)
        sharded = ShardedStep2Executor(CFG, workers=3, **POOL).run(idx)
        for field in ("entries", "pairs", "cells", "hits"):
            assert getattr(single.stats, field) == getattr(sharded.stats, field)

    def test_timings_recorded_per_shard(self, workload):
        _, _, idx = workload
        ex = ShardedStep2Executor(CFG, workers=3, **POOL)
        hits = ex.run(idx)
        assert len(ex.last_timings) == 3
        assert [t.shard for t in ex.last_timings] == [0, 1, 2]
        assert sum(t.entries for t in ex.last_timings) == idx.n_shared_keys
        assert sum(t.pairs for t in ex.last_timings) == idx.total_pairs
        assert sum(t.hits for t in ex.last_timings) == len(hits)
        assert all(t.wall_seconds >= 0 for t in ex.last_timings)
        assert all(t.batches >= 1 for t in ex.last_timings)

    def test_single_worker_records_one_shard(self, workload):
        _, _, idx = workload
        ex = ShardedStep2Executor(CFG, workers=1)
        hits = ex.run(idx)
        assert len(ex.last_timings) == 1
        assert ex.last_timings[0].pairs == idx.total_pairs
        assert ex.last_timings[0].hits == len(hits)

    def test_more_workers_than_entries_degrades_gracefully(self):
        b0 = SequenceBank([Sequence.from_text("q", "MKVLAWMKVLAW")], pad=32)
        b1 = SequenceBank([Sequence.from_text("s", "MKVLAW")], pad=32)
        idx = TwoBankIndex.build(b0, b1, ContiguousSeedModel(4))
        cfg = UngappedConfig(w=4, n=4, threshold=5)
        ref = UngappedExtender(cfg).run_per_key(idx)
        hits = ShardedStep2Executor(cfg, workers=64).run(idx)
        assert np.array_equal(ref.offsets0, hits.offsets0)
        assert np.array_equal(ref.scores, hits.scores)

    def test_empty_index_short_circuits(self):
        b0 = SequenceBank([Sequence.from_text("q", "AAAA")], pad=16)
        b1 = SequenceBank([Sequence.from_text("s", "WWWW")], pad=16)
        idx = TwoBankIndex.build(b0, b1, ContiguousSeedModel(4))
        hits = ShardedStep2Executor(CFG, workers=4).run(idx)
        assert len(hits) == 0
        assert hits.stats.pairs == 0

    def test_pool_clamps_shards_to_entry_count(self):
        # Call _run_pool directly (run() would route this tiny index to the
        # local path): with more workers than shared keys, shard count is
        # clamped and no worker is spawned for an empty range.
        b0 = SequenceBank(
            [Sequence.from_text("q", "MKVLAWTRQMKVLAW")], pad=32
        )
        b1 = SequenceBank(
            [Sequence.from_text("s", "AAMKVLAWTRQAA")], pad=32
        )
        idx = TwoBankIndex.build(b0, b1, ContiguousSeedModel(4))
        cfg = UngappedConfig(w=4, n=4, threshold=5)
        assert 0 < idx.n_shared_keys < 64
        ex = ShardedStep2Executor(cfg, workers=64)
        hits = ex._run_pool(idx)
        ref = ShardedStep2Executor(cfg, workers=1).run(idx)
        assert np.array_equal(ref.offsets0, hits.offsets0)
        assert np.array_equal(ref.offsets1, hits.offsets1)
        assert np.array_equal(ref.scores, hits.scores)
        assert len(ex.last_timings) <= idx.n_shared_keys
        assert all(t.entries > 0 for t in ex.last_timings)


class TestSmallWorkloadHeuristic:
    """BENCH_step2 2-worker regression fix: tiny workloads skip the pool."""

    def test_small_workload_routes_to_local(self, workload):
        _, _, idx = workload
        assert idx.total_pairs < 1 << 18  # precondition for the default
        ex = ShardedStep2Executor(CFG, workers=3)
        hits = ex.run(idx)
        ref = ShardedStep2Executor(CFG, workers=1).run(idx)
        assert np.array_equal(ref.offsets0, hits.offsets0)
        assert np.array_equal(ref.scores, hits.scores)
        assert [t.via for t in ex.last_timings] == ["local"]
        health = ex.last_health
        assert health.shards == 1
        assert health.small_workload_fallbacks == 1
        assert health.healthy  # a sizing decision, not a fault
        assert not health.degraded

    def test_zero_disables_heuristic(self, workload):
        _, _, idx = workload
        ex = ShardedStep2Executor(CFG, workers=3, min_pairs_per_shard=0)
        ex.run(idx)
        assert all(t.via == "pool" for t in ex.last_timings)
        assert ex.last_health.small_workload_fallbacks == 0

    def test_tiny_floor_keeps_pool(self, workload):
        _, _, idx = workload
        ex = ShardedStep2Executor(CFG, workers=3, min_pairs_per_shard=1)
        ex.run(idx)
        assert all(t.via == "pool" for t in ex.last_timings)

    def test_decision_reaches_metrics(self, workload):
        from repro.obs.metrics import MetricsRegistry, activate

        _, _, idx = workload
        registry = MetricsRegistry()
        with activate(registry):
            ShardedStep2Executor(CFG, workers=3).run(idx)
        counter = registry.counter(
            "step2_supervisor_events_total", kind="small_workload_fallbacks"
        )
        assert counter.value == 1


class TestFaultInjection:
    """End-to-end chaos runs: real worker processes, injected faults.

    The invariant under test is the acceptance criterion of the supervision
    layer: whatever the plan injects, the sharded run completes, the
    retries are recorded in :class:`~repro.core.profile.RunHealth`, and the
    merged hits are bit-identical — offsets, scores, order — to the
    fault-free single-process run.
    """

    @pytest.fixture(scope="class")
    def baseline(self, workload):
        _, _, idx = workload
        return ShardedStep2Executor(CFG, workers=1).run(idx)

    @staticmethod
    def assert_bit_identical(expected, actual):
        assert np.array_equal(expected.offsets0, actual.offsets0)
        assert np.array_equal(expected.offsets1, actual.offsets1)
        assert np.array_equal(expected.scores, actual.scores)

    def test_crash_and_hang_recovered(self, workload, baseline):
        from repro.core.faults import FaultKind, FaultPlan, FaultSpec
        from repro.core.supervisor import SupervisorConfig

        _, _, idx = workload
        plan = FaultPlan(
            (
                FaultSpec(FaultKind.CRASH, shard=1, attempt=0),
                FaultSpec(FaultKind.HANG, shard=0, attempt=0,
                          hang_seconds=30.0),
            ),
            seed=9,
        )
        ex = ShardedStep2Executor(
            CFG, workers=3,
            supervisor=SupervisorConfig(shard_timeout=2.0, max_retries=2),
            fault_plan=plan, **POOL,
        )
        self.assert_bit_identical(baseline, ex.run(idx))
        health = ex.last_health
        assert health.shards == 3
        # One crash poisons every in-flight future, so counts are lower
        # bounds, not exact: at least the injected crash and one retry
        # round must be recorded, and the broken pool must be rebuilt.
        assert health.crashes >= 1
        assert health.retries >= 1
        assert health.pool_rebuilds >= 1
        assert health.fallback_shards == 0 and not health.degraded
        assert all(t.via == "pool" for t in ex.last_timings)
        assert any(t.attempts > 1 for t in ex.last_timings)

    def test_truncate_and_corrupt_bank_recovered(self, workload, baseline):
        from repro.core.faults import FaultKind, FaultPlan, FaultSpec

        _, _, idx = workload
        plan = FaultPlan(
            (
                FaultSpec(FaultKind.TRUNCATE, shard=2, attempt=0, drop=3),
                FaultSpec(FaultKind.CORRUPT_BANK, shard=0, attempt=0),
            ),
            seed=5,
        )
        ex = ShardedStep2Executor(CFG, workers=3, fault_plan=plan, **POOL)
        self.assert_bit_identical(baseline, ex.run(idx))
        health = ex.last_health
        assert health.truncated == 1
        assert health.corrupt == 1
        assert health.retries >= 1
        assert health.fallback_shards == 0
        # CORRUPT_BANK damages the worker's staged bank-1 view (bank 0
        # rides each task as bytes): the digest check rejects shard 0's
        # first dispatch, and the retry on the re-mapped view is accepted.
        assert [(t.attempts, t.via) for t in ex.last_timings if t.shard == 0] == [
            (2, "pool")
        ]

    def test_unrecoverable_crash_falls_back_to_local(self, workload, baseline):
        from repro.core.faults import FaultKind, FaultPlan, FaultSpec
        from repro.core.supervisor import SupervisorConfig

        _, _, idx = workload
        # attempt=None fires on every dispatch: the pool can never score
        # shard 0, so the run must complete through the in-process engine.
        plan = FaultPlan(
            (FaultSpec(FaultKind.CRASH, shard=0, attempt=None),), seed=1
        )
        ex = ShardedStep2Executor(
            CFG, workers=3,
            supervisor=SupervisorConfig(max_retries=1, backoff_base=0.001),
            fault_plan=plan, **POOL,
        )
        self.assert_bit_identical(baseline, ex.run(idx))
        health = ex.last_health
        assert health.fallback_shards >= 1 and health.degraded
        fallbacks = [t for t in ex.last_timings if t.via == "local"]
        assert fallbacks and any(t.shard == 0 for t in fallbacks)

    def test_random_plan_keeps_output_bit_identical(self, workload, baseline):
        """Chaos-CI entry point: any FaultPlan.random seed must be safe.

        The seed rotates via REPRO_FAULT_SEED in the chaos job; locally it
        defaults to a fixed value so the suite stays deterministic.
        """
        import os as _os

        from repro.core.faults import FaultPlan
        from repro.core.supervisor import SupervisorConfig

        _, _, idx = workload
        seed = int(_os.environ.get("REPRO_FAULT_SEED", "2026"))
        plan = FaultPlan.random(seed=seed, shards=3, n_faults=2,
                                hang_seconds=3.0)
        ex = ShardedStep2Executor(
            CFG, workers=3,
            supervisor=SupervisorConfig(shard_timeout=1.0, max_retries=3,
                                        backoff_base=0.01),
            fault_plan=plan, **POOL,
        )
        self.assert_bit_identical(baseline, ex.run(idx))
        assert ex.last_health.shards == 3

    def test_pool_unavailable_falls_back_with_warning(
        self, workload, baseline, monkeypatch
    ):
        _, _, idx = workload
        ex = ShardedStep2Executor(CFG, workers=3, **POOL)

        def no_pool(index):
            raise OSError("no /dev/shm in this environment")

        monkeypatch.setattr(ex, "_run_pool", no_pool)
        with pytest.warns(RuntimeWarning, match="falling back to in-process"):
            hits = ex.run(idx)
        self.assert_bit_identical(baseline, hits)
        assert ex.last_health.shards == 1
        assert [t.via for t in ex.last_timings] == ["local"]

    def test_single_shared_key_short_circuits_to_local(self):
        b0 = SequenceBank([Sequence.from_text("q", "MKVLAWMKVLAW")], pad=32)
        b1 = SequenceBank([Sequence.from_text("s", "AAMKVLWW")], pad=32)
        idx = TwoBankIndex.build(b0, b1, ContiguousSeedModel(4))
        assert idx.n_shared_keys == 1
        cfg = UngappedConfig(w=4, n=4, threshold=5)
        ex = ShardedStep2Executor(cfg, workers=4)
        hits = ex.run(idx)
        ref = UngappedExtender(cfg).run_per_key(idx)
        assert np.array_equal(ref.offsets0, hits.offsets0)
        assert np.array_equal(ref.scores, hits.scores)
        assert ex.last_health == type(ex.last_health)(shards=1)
        assert [t.via for t in ex.last_timings] == ["local"]

    def test_health_reset_between_runs(self, workload):
        from repro.core.faults import FaultKind, FaultPlan, FaultSpec

        _, _, idx = workload
        plan = FaultPlan((FaultSpec(FaultKind.TRUNCATE, shard=1, attempt=0),))
        faulted = ShardedStep2Executor(CFG, workers=3, fault_plan=plan, **POOL)
        faulted.run(idx)
        assert not faulted.last_health.healthy
        clean = ShardedStep2Executor(CFG, workers=3, **POOL)
        clean.run(idx)
        assert clean.last_health.healthy
        assert clean.last_health.shards == 3


#: Fault plans under which every step-2 front end must behave identically.
ENGINE_FAULTS = {
    "none": None,
    "crash": FaultPlan((FaultSpec(FaultKind.CRASH, shard=1, attempt=0),), seed=9),
    "truncate": FaultPlan(
        (FaultSpec(FaultKind.TRUNCATE, shard=0, attempt=0, drop=3),), seed=5
    ),
    "corrupt-bank": FaultPlan(
        (FaultSpec(FaultKind.CORRUPT_BANK, shard=0, attempt=0),), seed=5
    ),
}


class TestOneEngine:
    """The one-shot executor and the warm pool drive one engine: under any
    fault they return the same hits, health counters and shard rows."""

    @pytest.fixture(scope="class")
    def heavy(self):
        # Each shard scores for ~0.2 s, so an injected crash always lands
        # while the other shard is still in flight: both front ends then
        # take the same collateral damage and their counters compare
        # exactly.
        rng = np.random.default_rng(42)
        b0 = random_protein_bank(rng, 120, mean_length=300, name_prefix="q")
        b1 = random_protein_bank(rng, 500, mean_length=300, name_prefix="s")
        cfg = PipelineConfig.exact_seed(3, flank=8, ungapped_threshold=20)
        index = TwoBankIndex.build(b0, b1, cfg.seed_model)
        reference = ShardedStep2Executor(cfg.ungapped_config()).run(index)
        return b0, b1, cfg, reference

    @staticmethod
    def rows(timings):
        return [
            (t.shard, t.entries, t.pairs, t.hits, t.via, t.attempts)
            for t in timings
        ]

    @pytest.mark.parametrize("fault", sorted(ENGINE_FAULTS))
    def test_executor_and_warm_pool_agree(self, heavy, fault):
        from repro.core.supervisor import SupervisorConfig
        from repro.index.kmer import BankIndex
        from repro.serve.pool import WarmPool

        b0, b1, cfg, reference = heavy
        plan = ENGINE_FAULTS[fault]
        sup = SupervisorConfig(backoff_base=0.001)
        ex = ShardedStep2Executor(
            cfg.ungapped_config(), workers=2, supervisor=sup, fault_plan=plan,
            **POOL,
        )
        cold = ex.run(TwoBankIndex.build(b0, b1, cfg.seed_model))
        pool = WarmPool(cfg, b1, workers=2, fault_plan=plan, supervisor=sup)
        try:
            pool.warm_up()
            warm = pool.step2(
                TwoBankIndex(BankIndex(b0, cfg.seed_model), pool.resident_index)
            )
        finally:
            pool.close()
        TestFaultInjection.assert_bit_identical(reference, cold)
        TestFaultInjection.assert_bit_identical(reference, warm)
        assert pool.last_health == ex.last_health
        assert self.rows(pool.last_timings) == self.rows(ex.last_timings)
        assert len(ex.last_timings) == 2
        assert ex.last_health.healthy == (plan is None)


def assert_unlinked(name):
    """Segment *name* is gone from the system, not only from the registry."""
    try:
        shm = SharedMemory(name=name)
    except FileNotFoundError:
        return
    shm.close()
    shm.unlink()
    pytest.fail(f"shared-memory segment {name} outlived its release")


class TestSegmentsUnlinked:
    """Each release path of the one staged segment unlinks it.
    ``live_segment_names()`` only reads this process's registry, so the
    tests reopen each segment by name."""

    @pytest.fixture
    def staged(self, monkeypatch):
        names = []
        track = executor._track_segment

        def spy(shm):
            names.append(shm.name)
            track(shm)

        monkeypatch.setattr(executor, "_track_segment", spy)
        return names

    def test_staged_bank_release(self, workload, staged):
        StagedBank(workload[1].buffer).release()
        [name] = staged
        assert_unlinked(name)

    def test_sharded_run(self, workload, staged):
        ShardedStep2Executor(CFG, workers=2, **POOL).run(workload[2])
        [name] = staged
        assert_unlinked(name)

    def test_warm_pool_close(self, workload, staged):
        from repro.serve.pool import WarmPool

        pool = WarmPool(PipelineConfig(workers=2), workload[1], workers=2)
        pool.warm_up()
        pool.close()
        [name] = staged
        assert_unlinked(name)


class TestPipelineIntegration:
    def test_workers_produce_identical_reports(self, workload):
        b0, b1, _ = workload
        base = PipelineConfig.exact_seed(3, flank=8, ungapped_threshold=20)
        r1 = SeedComparisonPipeline(base).compare_banks(b0, b1)
        r2 = SeedComparisonPipeline(
            base.with_(workers=2)
        ).compare_banks(b0, b1)
        assert len(r1) == len(r2)
        for a, b in zip(r1.alignments, r2.alignments, strict=True):
            assert (a.seq0_id, a.seq1_id, a.start0, a.end0, a.raw_score) == (
                b.seq0_id, b.seq1_id, b.start0, b.end0, b.raw_score
            )

    def test_profile_carries_shard_timings(self, workload):
        b0, b1, _ = workload
        cfg = PipelineConfig.exact_seed(3, flank=8, ungapped_threshold=20,
                                        workers=2, min_pairs_per_shard=0)
        pipe = SeedComparisonPipeline(cfg)
        pipe.compare_banks(b0, b1)
        shards = pipe.profile.step2_shards
        assert len(shards) == 2
        assert sum(s.pairs for s in shards) == pipe.last_hits.stats.pairs
        assert pipe.profile.step2_shard_imbalance() >= 1.0

    def test_profile_carries_run_health(self, workload):
        b0, b1, _ = workload
        cfg = PipelineConfig.exact_seed(3, flank=8, ungapped_threshold=20,
                                        workers=2, min_pairs_per_shard=0)
        pipe = SeedComparisonPipeline(cfg)
        pipe.compare_banks(b0, b1)
        health = pipe.profile.run_health
        assert health.shards == 2
        assert health.healthy

    def test_search_mode_exposes_run_health(self, workload):
        from repro.core.modes import BlastFamilySearch

        b0, b1, _ = workload
        cfg = PipelineConfig.exact_seed(3, flank=8, ungapped_threshold=20,
                                        workers=2, min_pairs_per_shard=0)
        search = BlastFamilySearch(cfg, seg=None)
        assert search.last_run_health.shards == 0  # nothing ran yet
        search.blastp(b0, b1)
        assert search.last_run_health.shards == 2
        assert search.last_run_health.healthy

    def test_config_supervisor_plumbing(self):
        from repro.core.faults import FaultPlan
        from repro.core.supervisor import SupervisorConfig

        cfg = PipelineConfig(shard_timeout=7.5, max_retries=5)
        sup = cfg.supervisor_config()
        assert isinstance(sup, SupervisorConfig)
        assert sup.shard_timeout == 7.5 and sup.max_retries == 5
        assert cfg.fault_plan is None
        plan = FaultPlan(seed=3)
        assert cfg.with_(fault_plan=plan).fault_plan == plan

    def test_profile_merge_concatenates_shards(self, workload):
        b0, b1, _ = workload
        cfg = PipelineConfig.exact_seed(3, flank=8, ungapped_threshold=20,
                                        workers=2, min_pairs_per_shard=0)
        p1 = SeedComparisonPipeline(cfg)
        p1.compare_banks(b0, b1)
        p2 = SeedComparisonPipeline(cfg)
        p2.compare_banks(b0, b1)
        p1.profile.merge(p2.profile)
        assert len(p1.profile.step2_shards) == 4


class TestRascManyShards:
    def test_round_robin_matches_dual_for_two(self, workload):
        from repro.psc.schedule import PscArrayConfig
        from repro.rasc.platform import Rasc100

        b0, b1, _ = workload
        halves_model = ContiguousSeedModel(3)
        from repro.core.partition import split_bank

        halves = split_bank(b0, 2)
        indexes = [
            TwoBankIndex.build(h, b1, halves_model) for h in halves
        ]
        psc = PscArrayConfig(n_pes=16, window=3 + 16, threshold=20)
        blade = Rasc100()
        blade.load_bitstream(psc, fpga_id=0)
        blade.load_bitstream(psc, fpga_id=1)
        runs_many, wall_many = blade.run_step2_many(indexes, flank=8)
        blade2 = Rasc100()
        blade2.load_bitstream(psc, fpga_id=0)
        blade2.load_bitstream(psc, fpga_id=1)
        runs_dual, wall_dual = blade2.run_step2_dual(indexes, flank=8)
        assert len(runs_many) == 2
        for rm, rd in zip(runs_many, runs_dual, strict=True):
            assert np.array_equal(rm.hits.offsets0, rd.hits.offsets0)
            assert np.array_equal(rm.hits.scores, rd.hits.scores)
        assert wall_many == pytest.approx(wall_dual, rel=1e-9)

    def test_four_shards_queue_on_two_fpgas(self, workload):
        from repro.psc.schedule import PscArrayConfig
        from repro.rasc.platform import Rasc100

        _, _, idx = workload
        # Building per-shard indexes from bank splits is costly here;
        # reuse the same joint index four times as four queued workloads.
        psc = PscArrayConfig(n_pes=16, window=3 + 16, threshold=20)
        blade = Rasc100()
        blade.load_bitstream(psc, fpga_id=0)
        blade.load_bitstream(psc, fpga_id=1)
        runs, wall = blade.run_step2_many([idx, idx, idx, idx], flank=8)
        assert len(runs) == 4
        assert wall > 0
        # Two queues of two workloads each: blade wall is at least one
        # queue's two sequential computes.
        assert wall >= runs[0].compute_seconds + runs[2].compute_seconds
        assert blade.run_step2_many([], flank=8) == ([], 0.0)


class TestCli:
    def test_workers_flags_parse_and_run(self, tmp_path, capsys):
        from repro.cli import main
        from repro.seqs.fasta import write_fasta
        from repro.seqs.generate import random_genome, random_protein_bank

        rng = np.random.default_rng(5)
        bank = random_protein_bank(rng, 8, mean_length=120)
        genome = random_genome(rng, 30_000)
        qpath = tmp_path / "q.fasta"
        gpath = tmp_path / "g.fasta"
        write_fasta(list(bank), str(qpath))
        write_fasta([genome], str(gpath))
        rc = main(
            [
                "compare", str(qpath), str(gpath),
                "--workers", "2", "--batch-pairs", "4096",
                "--threshold", "30", "--min-pairs-per-shard", "0",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "# step2 shards: 2 workers" in out
        assert "shard 0:" in out and "shard 1:" in out
        assert "attempts=1 via=pool" in out
        assert "# step2 health: 2 shards, ok" in out

    def test_supervision_flags_parse_and_run(self, tmp_path, capsys):
        from repro.cli import main
        from repro.core.faults import FaultKind, FaultPlan, FaultSpec
        from repro.seqs.fasta import write_fasta
        from repro.seqs.generate import random_genome, random_protein_bank

        rng = np.random.default_rng(5)
        bank = random_protein_bank(rng, 8, mean_length=120)
        genome = random_genome(rng, 30_000)
        qpath = tmp_path / "q.fasta"
        gpath = tmp_path / "g.fasta"
        write_fasta(list(bank), str(qpath))
        write_fasta([genome], str(gpath))
        plan = FaultPlan((FaultSpec(FaultKind.TRUNCATE, shard=0, attempt=0),),
                         seed=4)
        plan_path = tmp_path / "plan.json"
        plan_path.write_text(plan.to_json(), encoding="ascii")
        rc = main(
            [
                "compare", str(qpath), str(gpath),
                "--workers", "2", "--threshold", "30",
                "--shard-timeout", "30", "--max-retries", "3",
                "--fault-plan", str(plan_path),
                "--min-pairs-per-shard", "0",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "# step2 health:" in out
        assert "1 truncated result" in out
        assert "attempts=2" in out

    def test_fault_plan_inline_json_and_bad_values(self, tmp_path, capsys):
        from repro.cli import main
        from repro.core.faults import FaultPlan
        from repro.seqs.fasta import write_fasta
        from repro.seqs.generate import random_genome, random_protein_bank

        rng = np.random.default_rng(5)
        bank = random_protein_bank(rng, 6, mean_length=100)
        genome = random_genome(rng, 20_000)
        qpath = tmp_path / "q.fasta"
        gpath = tmp_path / "g.fasta"
        write_fasta(list(bank), str(qpath))
        write_fasta([genome], str(gpath))
        rc = main(
            [
                "compare", str(qpath), str(gpath),
                "--workers", "2", "--threshold", "30",
                "--fault-plan", FaultPlan(seed=1).to_json().replace("\n", " "),
            ]
        )
        assert rc == 0
        assert "# step2 health:" in capsys.readouterr().out
        with pytest.raises(SystemExit):
            main(["compare", str(qpath), str(gpath), "--shard-timeout", "0"])
        with pytest.raises(SystemExit):
            main(["compare", str(qpath), str(gpath), "--max-retries", "-1"])
