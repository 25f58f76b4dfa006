"""Fault-injection plan tests: addressing, serialisation, hwsim hooks."""

import numpy as np
import pytest

from repro.core.faults import (
    HWSIM_KINDS,
    SERVICE_KINDS,
    WORKER_KINDS,
    FaultKind,
    FaultPlan,
    FaultSpec,
    bank_digest,
)
from repro.hwsim.dma import DmaStream
from repro.hwsim.fifo import SyncFifo, fill
from repro.hwsim.kernel import SimulationError, Simulator


class TestFaultSpec:
    def test_site_classification(self):
        assert FaultSpec(FaultKind.CRASH).site == "worker"
        assert FaultSpec(FaultKind.HANG).site == "worker"
        assert FaultSpec(FaultKind.TRUNCATE).site == "worker"
        assert FaultSpec(FaultKind.CORRUPT_BANK).site == "worker"
        assert FaultSpec(FaultKind.FIFO_OVERFLOW, at_count=3).site == "hwsim"
        assert FaultSpec(FaultKind.DMA_ERROR, at_count=3).site == "hwsim"

    def test_matches_exact_address(self):
        spec = FaultSpec(FaultKind.CRASH, shard=2, attempt=1)
        assert spec.matches(2, 1)
        assert not spec.matches(2, 0)
        assert not spec.matches(1, 1)

    def test_matches_wildcard_shard(self):
        spec = FaultSpec(FaultKind.TRUNCATE, shard=None, attempt=0)
        assert spec.matches(0, 0) and spec.matches(7, 0)
        assert not spec.matches(0, 1)

    def test_matches_wildcard_attempt_is_unrecoverable(self):
        spec = FaultSpec(FaultKind.CRASH, shard=1, attempt=None)
        assert all(spec.matches(1, a) for a in range(5))
        assert not spec.matches(0, 0)

    def test_hwsim_kinds_never_match_workers(self):
        assert not FaultSpec(FaultKind.FIFO_OVERFLOW, shard=0).matches(0, 0)

    def test_dict_roundtrip(self):
        spec = FaultSpec(FaultKind.HANG, shard=3, attempt=None, hang_seconds=1.5)
        assert FaultSpec.from_dict(spec.to_dict()) == spec

    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(ValueError, match="unknown FaultSpec fields"):
            FaultSpec.from_dict({"kind": "crash", "sahrd": 1})

    def test_from_dict_rejects_a_stale_step_field(self):
        # Plans once addressed step-3 partitions with "step"; step 3 no
        # longer runs on the pool, so such a plan must fail loudly, not
        # silently fault step-2 shards instead.
        with pytest.raises(ValueError, match="step"):
            FaultSpec.from_dict({"kind": "crash", "shard": 0, "step": 3})
        with pytest.raises(ValueError, match="step"):
            FaultPlan.from_json('{"specs": [{"kind": "hang", "step": 2}]}')

    def test_from_dict_rejects_unknown_kind(self):
        with pytest.raises(ValueError):
            FaultSpec.from_dict({"kind": "meltdown"})


class TestFaultPlan:
    def test_first_matching_spec_wins(self):
        plan = FaultPlan(
            (
                FaultSpec(FaultKind.CRASH, shard=0, attempt=0),
                FaultSpec(FaultKind.HANG, shard=0, attempt=0),
            )
        )
        fault = plan.worker_fault(0, 0)
        assert fault is not None and fault.kind is FaultKind.CRASH
        assert plan.worker_fault(0, 1) is None
        assert plan.worker_fault(1, 0) is None

    def test_specs_normalised_to_tuple(self):
        plan = FaultPlan([FaultSpec(FaultKind.CRASH)])  # list in, tuple out
        assert isinstance(plan.specs, tuple)
        assert len(plan) == 1

    def test_corruption_is_seeded_per_shard(self):
        plan = FaultPlan(seed=7)
        a = plan.corruption(0, 64)
        assert a.dtype == np.uint8 and a.shape == (64,)
        assert np.array_equal(a, plan.corruption(0, 64))
        assert not np.array_equal(a, plan.corruption(1, 64))
        assert not np.array_equal(a, FaultPlan(seed=8).corruption(0, 64))

    def test_json_roundtrip(self):
        plan = FaultPlan(
            (
                FaultSpec(FaultKind.CRASH, shard=1, attempt=0),
                FaultSpec(FaultKind.FIFO_OVERFLOW, at_count=9),
            ),
            seed=42,
        )
        assert FaultPlan.from_json(plan.to_json()) == plan

    def test_from_json_rejects_non_object(self):
        with pytest.raises(ValueError, match="must be an object"):
            FaultPlan.from_json("[1, 2]")

    def test_parse_inline_and_file(self, tmp_path):
        plan = FaultPlan((FaultSpec(FaultKind.TRUNCATE, shard=2),), seed=5)
        assert FaultPlan.parse(plan.to_json()) == plan
        path = tmp_path / "plan.json"
        path.write_text(plan.to_json(), encoding="ascii")
        assert FaultPlan.parse(path) == plan
        assert FaultPlan.parse(str(path)) == plan

    def test_random_is_reproducible_and_recoverable(self):
        a = FaultPlan.random(seed=11, shards=4, n_faults=3)
        assert a == FaultPlan.random(seed=11, shards=4, n_faults=3)
        assert a != FaultPlan.random(seed=12, shards=4, n_faults=3)
        assert len(a) == 3
        for spec in a.specs:
            assert spec.kind in WORKER_KINDS
            assert spec.attempt is not None  # never unrecoverable
            assert spec.shard is not None and 0 <= spec.shard < 4

    def test_random_rejects_zero_shards(self):
        with pytest.raises(ValueError, match="shards"):
            FaultPlan.random(seed=0, shards=0)

    def test_scaled_replaces_fields(self):
        plan = FaultPlan(seed=1)
        assert plan.scaled(seed=9).seed == 9
        assert plan.seed == 1  # frozen original untouched


class TestServiceFaults:
    def test_kind_partition_is_total(self):
        assert WORKER_KINDS | HWSIM_KINDS | SERVICE_KINDS == frozenset(FaultKind)
        assert not WORKER_KINDS & SERVICE_KINDS
        assert not HWSIM_KINDS & SERVICE_KINDS

    def test_site_classification(self):
        assert FaultSpec(FaultKind.SLOW_CLIENT, request=0).site == "service"
        assert FaultSpec(FaultKind.POOL_DEATH, request=0).site == "service"

    def test_matches_request_addressing(self):
        spec = FaultSpec(FaultKind.POOL_DEATH, request=2)
        assert spec.matches_request(2)
        assert not spec.matches_request(1)
        # wildcard request fires every time
        always = FaultSpec(FaultKind.QUEUE_OVERFLOW)
        assert always.matches_request(0) and always.matches_request(99)

    def test_worker_kinds_never_match_requests(self):
        assert not FaultSpec(FaultKind.CRASH, shard=0).matches_request(0)

    def test_service_kinds_never_match_workers(self):
        assert not FaultSpec(FaultKind.POOL_DEATH, request=0).matches(0, 0)

    def test_service_fault_filters_by_kind(self):
        plan = FaultPlan(
            (
                FaultSpec(FaultKind.QUEUE_OVERFLOW, request=1),
                FaultSpec(FaultKind.POOL_DEATH, request=1),
            )
        )
        hit = plan.service_fault(1, FaultKind.POOL_DEATH)
        assert hit is not None and hit.kind is FaultKind.POOL_DEATH
        assert plan.service_fault(1, FaultKind.CORRUPT_WARM_BANK) is None
        assert plan.service_fault(0, FaultKind.POOL_DEATH) is None
        # unfiltered: first match in plan order
        first = plan.service_fault(1)
        assert first is not None and first.kind is FaultKind.QUEUE_OVERFLOW

    def test_service_faults_returns_all_in_order(self):
        plan = FaultPlan(
            (
                FaultSpec(FaultKind.QUEUE_OVERFLOW, request=1),
                FaultSpec(FaultKind.CRASH, shard=0),  # worker kind: excluded
                FaultSpec(FaultKind.SLOW_CLIENT, request=1, hang_seconds=0.5),
            )
        )
        kinds = [s.kind for s in plan.service_faults(1)]
        assert kinds == [FaultKind.QUEUE_OVERFLOW, FaultKind.SLOW_CLIENT]
        assert plan.service_faults(0) == ()

    def test_request_addressed_spec_round_trips(self):
        spec = FaultSpec(FaultKind.SLOW_CLIENT, request=4, hang_seconds=0.25)
        assert FaultSpec.from_dict(spec.to_dict()) == spec
        plan = FaultPlan((spec,), seed=17)
        assert FaultPlan.from_json(plan.to_json()) == plan


class TestBankDigest:
    def test_detects_single_bit_flip(self):
        buf = np.arange(256, dtype=np.uint8)
        clean = bank_digest(buf)
        assert clean == bank_digest(buf.copy())
        flipped = buf.copy()
        flipped[100] ^= 1
        assert bank_digest(flipped) != clean

    def test_accepts_non_contiguous_views(self):
        base = np.arange(64, dtype=np.uint8)
        assert bank_digest(base[::2]) == bank_digest(base[::2].copy())


class TestHwsimHooks:
    def test_hook_absent_without_matching_specs(self):
        plan = FaultPlan((FaultSpec(FaultKind.CRASH, shard=0),))
        assert plan.hwsim_hook(FaultKind.FIFO_OVERFLOW) is None
        assert plan.hwsim_hook(FaultKind.DMA_ERROR) is None

    def test_hook_fires_at_count(self):
        plan = FaultPlan(
            (
                FaultSpec(FaultKind.FIFO_OVERFLOW, at_count=2),
                FaultSpec(FaultKind.FIFO_OVERFLOW, at_count=5),
            )
        )
        hook = plan.hwsim_hook(FaultKind.FIFO_OVERFLOW)
        assert hook is not None
        assert [i for i in range(8) if hook(i)] == [2, 5]

    def test_hook_rejects_worker_kinds(self):
        with pytest.raises(ValueError, match="not a simulator fault kind"):
            FaultPlan().hwsim_hook(FaultKind.CRASH)

    def test_fifo_injected_overflow(self):
        plan = FaultPlan((FaultSpec(FaultKind.FIFO_OVERFLOW, at_count=2),))
        fifo = SyncFifo(8, name="in", fault_hook=plan.hwsim_hook(FaultKind.FIFO_OVERFLOW))
        fill(fifo, [10, 11])
        with pytest.raises(SimulationError, match="injected overflow"):
            fifo.push(12)

    def test_fifo_counts_across_commits(self):
        plan = FaultPlan((FaultSpec(FaultKind.FIFO_OVERFLOW, at_count=3),))
        fifo = SyncFifo(8, fault_hook=plan.hwsim_hook(FaultKind.FIFO_OVERFLOW))
        fill(fifo, [0, 1])
        fill(fifo, [2])  # pushes 0..2 committed; next push is event 3
        with pytest.raises(SimulationError, match="fault plan"):
            fifo.push(3)

    def test_dma_injected_transfer_error(self):
        plan = FaultPlan((FaultSpec(FaultKind.DMA_ERROR, at_count=3),))
        sim = Simulator()
        fifo = SyncFifo(16)
        sim.add(
            DmaStream(
                np.arange(8, dtype=np.int32),
                fifo,
                words_per_cycle=2,
                fault_hook=plan.hwsim_hook(FaultKind.DMA_ERROR),
            )
        )
        with pytest.raises(SimulationError, match="injected transfer error at word 3"):
            sim.run_until_idle(max_cycles=100)

    def test_dma_clean_without_hook(self):
        sim = Simulator()
        fifo = SyncFifo(16)
        dma = sim.add(DmaStream(np.arange(8, dtype=np.int32), fifo, words_per_cycle=2))
        sim.run_until_idle(max_cycles=100)
        assert dma.is_idle()
