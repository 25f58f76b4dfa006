"""Cycle-level vs behavioural PSC model equivalence.

The central correctness claim of the simulation substrate: the fast
behavioural model is indistinguishable from the cycle-level operator —
same hits, same scores, same emission order, same arrival cycles, same
cycle counters — so benchmark-scale results carry cycle-sim fidelity.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.extend.ungapped import ScoreSemantics, ungapped_score_reference
from repro.index.kmer import ContiguousSeedModel, TwoBankIndex
from repro.index.subset_seed import DEFAULT_SUBSET_SEED
from repro.psc.behavioral import PscBehavioral
from repro.psc.operator import PscOperator
from repro.psc.schedule import PscArrayConfig
from repro.psc.workload import EntryJob, build_jobs, job_stream_bytes
from repro.seqs.generate import random_protein_bank


def make_jobs(seed, n0=8, n1=12, w=3, flank=5):
    rng = np.random.default_rng(seed)
    b0 = random_protein_bank(rng, n0, mean_length=100, name_prefix="q")
    b1 = random_protein_bank(rng, n1, mean_length=100, name_prefix="s")
    idx = TwoBankIndex.build(b0, b1, ContiguousSeedModel(w))
    window = w + 2 * flank
    return idx, list(build_jobs(idx, flank, window)), window


def assert_runs_equal(a, b):
    assert np.array_equal(a.offsets0, b.offsets0)
    assert np.array_equal(a.offsets1, b.offsets1)
    assert np.array_equal(a.scores, b.scores)
    assert np.array_equal(a.arrival_cycles, b.arrival_cycles)
    assert a.breakdown == b.breakdown


class TestEquivalence:
    @pytest.mark.parametrize("n_pes,slot_size", [(4, 2), (8, 8), (16, 4), (5, 3)])
    def test_exact_equality_across_geometries(self, n_pes, slot_size):
        idx, jobs, window = make_jobs(seed=1)
        cfg = PscArrayConfig(
            n_pes=n_pes, slot_size=slot_size, window=window, threshold=16
        )
        assert_runs_equal(PscOperator(cfg).run(jobs), PscBehavioral(cfg).run(jobs))

    @pytest.mark.parametrize("semantics", list(ScoreSemantics))
    def test_equality_under_both_semantics(self, semantics):
        idx, jobs, window = make_jobs(seed=2)
        cfg = PscArrayConfig(
            n_pes=6, slot_size=3, window=window, threshold=14, semantics=semantics
        )
        assert_runs_equal(PscOperator(cfg).run(jobs), PscBehavioral(cfg).run(jobs))

    def test_low_threshold_heavy_traffic(self):
        """Thick result traffic exercises the drain-tail recurrence."""
        idx, jobs, window = make_jobs(seed=3)
        cfg = PscArrayConfig(n_pes=4, slot_size=2, window=window, threshold=1)
        a = PscOperator(cfg).run(jobs)
        b = PscBehavioral(cfg).run(jobs)
        assert len(a) > 100  # traffic actually heavy
        assert_runs_equal(a, b)
        assert a.breakdown.total_cycles > a.breakdown.schedule_end

    @given(st.integers(0, 10_000))
    @settings(max_examples=15, deadline=None)
    def test_equivalence_property(self, seed):
        rng = np.random.default_rng(seed)
        n_pes = int(rng.integers(2, 12))
        slot = int(rng.integers(1, n_pes + 1))
        thr = int(rng.integers(5, 30))
        idx, jobs, window = make_jobs(seed=seed, n0=4, n1=6)
        cfg = PscArrayConfig(
            n_pes=n_pes, slot_size=slot, window=window, threshold=thr
        )
        assert_runs_equal(PscOperator(cfg).run(jobs), PscBehavioral(cfg).run(jobs))


class TestAgainstSoftwareKernel:
    def test_hits_match_ungapped_extender(self):
        """The PSC operator must report exactly the pairs the software
        step-2 kernel reports (the paper's validation path)."""
        from repro.extend.batched import BatchedUngappedEngine
        from repro.extend.ungapped import UngappedConfig

        rng = np.random.default_rng(4)
        b0 = random_protein_bank(rng, 10, mean_length=120, name_prefix="q")
        b1 = random_protein_bank(rng, 10, mean_length=120, name_prefix="s")
        idx = TwoBankIndex.build(b0, b1, DEFAULT_SUBSET_SEED)
        flank = 8
        window = DEFAULT_SUBSET_SEED.span + 2 * flank
        threshold = 18
        cfg = PscArrayConfig(n_pes=8, slot_size=4, window=window, threshold=threshold)
        hw = PscBehavioral(cfg).run_index(idx, flank)
        sw = BatchedUngappedEngine(
            UngappedConfig(w=DEFAULT_SUBSET_SEED.span, n=flank, threshold=threshold)
        ).run(idx)
        # Same hit set (order may differ: software is entry-row major).
        hw_set = set(zip(hw.offsets0.tolist(), hw.offsets1.tolist(), hw.scores.tolist(), strict=True))
        sw_set = set(zip(sw.offsets0.tolist(), sw.offsets1.tolist(), sw.scores.tolist(), strict=True))
        assert hw_set == sw_set

    def test_scores_match_reference_scalar(self):
        idx, jobs, window = make_jobs(seed=5)
        cfg = PscArrayConfig(n_pes=4, slot_size=2, window=window, threshold=10)
        result = PscOperator(cfg).run(jobs)
        b0 = idx.index0.bank
        b1 = idx.index1.bank
        flank = (window - 3) // 2
        for i in range(min(len(result), 40)):
            w0 = b0.windows(result.offsets0[i : i + 1], flank, window)[0]
            w1 = b1.windows(result.offsets1[i : i + 1], flank, window)[0]
            assert result.scores[i] == ungapped_score_reference(w0, w1)


class TestStep2Adapter:
    def test_step2_hits_stats(self):
        idx, jobs, window = make_jobs(seed=6)
        cfg = PscArrayConfig(n_pes=8, slot_size=4, window=window, threshold=16)
        beh = PscBehavioral(cfg)
        flank = (window - 3) // 2
        hits = beh.step2_hits(idx, flank)
        assert hits.stats.pairs == idx.total_pairs
        assert hits.stats.hits == len(hits)
        assert beh.last_run.breakdown.total_cycles > 0

    def test_estimate_matches_run_when_drain_hidden(self):
        idx, jobs, window = make_jobs(seed=7)
        cfg = PscArrayConfig(n_pes=8, slot_size=4, window=window, threshold=60)
        beh = PscBehavioral(cfg)
        run = beh.run(jobs)
        est = beh.estimate(idx)
        assert len(run) == 0  # threshold kills all traffic
        assert run.breakdown.total_cycles == est.total_cycles


class TestWorkloadHelpers:
    def test_job_properties(self):
        idx, jobs, window = make_jobs(seed=8)
        job = jobs[0]
        assert job.windows0.shape == (job.k0, window)
        assert job.windows1.shape == (job.k1, window)
        assert job.pair_count == job.k0 * job.k1

    def test_job_stream_bytes(self):
        idx, jobs, window = make_jobs(seed=8)
        in_bytes, per_result = job_stream_bytes(idx, window)
        k0s, k1s = idx.list_length_pairs()
        assert in_bytes == int((k0s.sum() + k1s.sum()) * (window + 4))
        assert per_result == 12
