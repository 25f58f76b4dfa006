"""End-to-end software pipeline tests (the paper's algorithm)."""

import numpy as np
import pytest

from repro.core.config import PipelineConfig
from repro.core.pipeline import SeedComparisonPipeline, gapped_stage
from repro.extend.ungapped import ScoreSemantics
from repro.index.kmer import ContiguousSeedModel
from repro.seqs.generate import make_family, plant_homologs, random_genome
from repro.seqs.sequence import Sequence, SequenceBank


class TestConfig:
    def test_window_formula(self):
        cfg = PipelineConfig(flank=12)
        assert cfg.window == cfg.seed_model.span + 24

    def test_exact_seed_constructor(self):
        cfg = PipelineConfig.exact_seed(5)
        assert isinstance(cfg.seed_model, ContiguousSeedModel)
        assert cfg.seed_model.span == 5

    def test_with_replaces_fields(self):
        cfg = PipelineConfig()
        cfg2 = cfg.with_(ungapped_threshold=40)
        assert cfg2.ungapped_threshold == 40
        assert cfg.ungapped_threshold != 40

    def test_ungapped_config_derivation(self):
        cfg = PipelineConfig(flank=10, ungapped_threshold=33)
        ucfg = cfg.ungapped_config()
        assert ucfg.n == 10
        assert ucfg.threshold == 33
        assert ucfg.window == cfg.window


class TestPipelineFindsPlants:
    def test_all_planted_members_found(self, planted_workload):
        queries, genome, truth = planted_workload
        report = SeedComparisonPipeline().compare_with_genome(queries, genome)
        # Every planted member should yield one reported alignment for its
        # family's query at these identities.
        assert len(report) >= len(truth)
        found_families = {a.seq0_name for a in report}
        assert found_families == {f"fam{i}" for i in range(3)}

    def test_evalues_below_cutoff(self, planted_workload):
        queries, genome, _ = planted_workload
        cfg = PipelineConfig(max_evalue=1e-6)
        report = SeedComparisonPipeline(cfg).compare_with_genome(queries, genome)
        assert all(a.evalue <= 1e-6 for a in report)

    def test_report_sorted_by_evalue(self, planted_workload):
        queries, genome, _ = planted_workload
        report = SeedComparisonPipeline().compare_with_genome(queries, genome)
        evs = [a.evalue for a in report]
        assert evs == sorted(evs)

    def test_no_hits_in_pure_noise(self, rng):
        # Unrelated banks at strict E-value yield nothing.
        from repro.seqs.generate import random_protein_bank

        b0 = random_protein_bank(rng, 4, mean_length=100)
        genome = random_genome(rng, 20_000)
        report = SeedComparisonPipeline(
            PipelineConfig(max_evalue=1e-9)
        ).compare_with_genome(b0, genome)
        assert len(report) == 0


class TestProfileAccounting:
    def test_counts_populated(self, planted_workload):
        queries, genome, _ = planted_workload
        pipe = SeedComparisonPipeline()
        report = pipe.compare_with_genome(queries, genome)
        p = pipe.profile
        assert p.step1.operations > 0  # residues indexed
        assert p.step2.operations == report.n_seed_pairs * pipe.config.window
        assert p.step3.items == report.n_gapped_extensions
        assert p.step3.operations > 0  # DP cells
        assert p.total_wall > 0

    def test_step3_counts_are_pinned(self, planted_workload):
        """DP cells and extensions feed ``HostCostModel.step3_seconds`` and
        EXPERIMENTS Tables 1/7: a step-3 rewrite must not move them."""
        queries, genome, _ = planted_workload
        pipe = SeedComparisonPipeline()
        pipe.compare_with_genome(queries, genome)
        assert pipe.profile.step3.operations == 30999
        assert pipe.profile.step3.items == 6

    def test_wall_fractions_sum_to_one(self, planted_workload):
        queries, genome, _ = planted_workload
        pipe = SeedComparisonPipeline()
        pipe.compare_with_genome(queries, genome)
        assert abs(sum(pipe.profile.wall_fractions()) - 1.0) < 1e-9


class TestDeduplication:
    def test_one_alignment_per_planted_copy(self, rng):
        """Many seeds within one homology must collapse to one alignment."""
        fam = make_family(rng, 0, 200, 1, identity_range=(0.95, 0.95))
        genome = random_genome(rng, 30_000)
        genome, truth = plant_homologs(rng, genome, [fam])
        queries = SequenceBank([Sequence("q", fam.ancestor)])
        report = SeedComparisonPipeline().compare_with_genome(queries, genome)
        # The single planted copy yields exactly one (not dozens of) HSP.
        strong = [a for a in report if a.evalue < 1e-20]
        assert len(strong) == 1
        # But step 2 produced many seed hits for it.
        assert report.n_ungapped_hits > 10


class TestSemanticsConsistency:
    def test_paper_literal_produces_superset_of_hits(self, planted_workload):
        queries, genome, _ = planted_workload
        kadane = SeedComparisonPipeline(
            PipelineConfig(semantics=ScoreSemantics.KADANE)
        )
        literal = SeedComparisonPipeline(
            PipelineConfig(semantics=ScoreSemantics.PAPER_LITERAL)
        )
        kadane.compare_with_genome(queries, genome)
        literal.compare_with_genome(queries, genome)
        # paper-literal window scores dominate Kadane scores.
        assert len(literal.last_hits) >= len(kadane.last_hits)


class TestStep2Swap:
    def test_custom_step2_engine_used(self, planted_workload):
        queries, genome, _ = planted_workload
        calls = []

        def fake_step2(index):
            from repro.extend.batched import BatchedUngappedEngine

            calls.append(index.total_pairs)
            return BatchedUngappedEngine(PipelineConfig().ungapped_config()).run(index)

        pipe = SeedComparisonPipeline(step2=fake_step2)
        report = pipe.compare_with_genome(queries, genome)
        assert calls, "custom step-2 engine was not invoked"
        assert len(report) > 0


class TestBankVsBank:
    def test_protein_vs_protein_mode(self, small_banks):
        b0, b1 = small_banks
        cfg = PipelineConfig(ungapped_threshold=18, max_evalue=10.0)
        report = SeedComparisonPipeline(cfg).compare_banks(b0, b1)
        assert report.n_seed_pairs > 0
