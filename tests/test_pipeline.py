"""End-to-end software pipeline tests (the paper's algorithm)."""

import numpy as np
import pytest

from repro.core import pipeline
from repro.core.config import PipelineConfig
from repro.core.pipeline import STEP3_MIN_LANES, SeedComparisonPipeline
from repro.extend.gapped import GapPenalties, xdrop_gapped_extend
from repro.extend.ungapped import ScoreSemantics
from repro.index.kmer import ContiguousSeedModel
from repro.obs import metrics as obsmetrics
from repro.seqs.generate import make_family, plant_homologs, random_genome
from repro.seqs.matrices import BLOSUM62
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


class TestStep3Waves:
    """The in-process loop extends in waves, one anchor per pair per wave,
    with exactly the serial loop's containment and results."""

    XDROP = {"gaps": GapPenalties(), "x_drop": 38}

    @classmethod
    def serial(cls, buf0, buf1, anchors):
        """The containment loop one extension at a time, in anchor order."""
        covered, rows = {}, []
        for anchor, (p0, p1, key) in enumerate(anchors):
            ranges = covered.setdefault(key, [])
            if any(a0 <= p0 < b0 and a1 <= p1 < b1 for a0, b0, a1, b1 in ranges):
                continue
            ext = xdrop_gapped_extend(buf0, p0, buf1, p1, matrix=BLOSUM62, **cls.XDROP)
            ranges.append((ext.start0, ext.end0, ext.start1, ext.end1))
            rows.append(
                [anchor, ext.start0, ext.end0, ext.start1, ext.end1, ext.score, ext.cells]
            )
        return rows

    @classmethod
    def extend(cls, buf0, buf1, anchors):
        p0, p1, keys = (np.array(col, dtype=np.int64) for col in zip(*anchors))
        return pipeline._extend_anchors(buf0, buf1, p0, p1, keys, BLOSUM62, **cls.XDROP)

    @pytest.fixture(scope="class")
    def banks(self):
        """Two homologous cores, A and B, apart on both banks."""
        from repro.seqs.generate import random_protein

        rng = np.random.default_rng(12)
        core_a, core_b = random_protein(rng, 60), random_protein(rng, 60)
        buf0 = np.concatenate([random_protein(rng, 40), core_a,
                               random_protein(rng, 40), core_b, random_protein(rng, 40)])
        buf1 = np.concatenate([random_protein(rng, 50), core_a,
                               random_protein(rng, 50), core_b, random_protein(rng, 50)])
        return buf0, buf1

    # Pair 0: anchor 0 in core A, a later anchor on the same diagonal of A
    # (inside the first extension), then one in core B (outside it).
    PAIR0 = {0: (50, 60), 5: (70, 80), 11: (160, 180)}

    def anchors(self, others):
        """Pair 0's anchors at their positions among *others* one-anchor pairs."""
        if not others:
            return [(*spot, 0) for spot in self.PAIR0.values()]
        rng = np.random.default_rng(13)
        out, key = [], 1
        for anchor in range(len(self.PAIR0) + others):
            if anchor in self.PAIR0:
                out.append((*self.PAIR0[anchor], 0))
            else:
                out.append((int(rng.integers(0, 240)), int(rng.integers(0, 270)), key))
                key += 1
        return out

    @staticmethod
    def spy_lockstep(monkeypatch):
        """Record the lane count of every lockstep batch step 3 runs."""
        calls, lockstep = [], pipeline.lockstep_halves
        monkeypatch.setattr(
            pipeline, "lockstep_halves",
            lambda *a, **k: calls.append(len(a[2])) or lockstep(*a, **k),
        )
        return calls

    def test_second_anchor_contained_third_extended(self, banks, monkeypatch):
        buf0, buf1 = banks
        calls = self.spy_lockstep(monkeypatch)
        anchors = self.anchors(others=15)
        table = self.extend(buf0, buf1, anchors)
        got = table.tolist()
        assert got == self.serial(buf0, buf1, anchors)
        assert [a for a, *_ in got if a in self.PAIR0] == [0, 11]
        # 18 anchors in: 17 extended, 1 contained.
        assert (len(anchors), len(got)) == (18, 17)
        # Wave 1 (16 pairs, 32 halves) ran in lockstep; wave 2 (pair 0's
        # third anchor alone) on the scalar loop.
        assert calls == [32]

    def test_scalar_waves_match_serial(self, banks):
        buf0, buf1 = banks
        anchors = self.anchors(others=0)
        table = self.extend(buf0, buf1, anchors)
        assert table.tolist() == self.serial(buf0, buf1, anchors)
        # 3 anchors in, 1 contained.
        assert (len(anchors), len(anchors) - len(table)) == (3, 1)

    def test_lane_floor_picks_the_engine(self, banks, monkeypatch):
        buf0, buf1 = banks
        calls = self.spy_lockstep(monkeypatch)
        anchors = self.anchors(others=20)
        for k in (STEP3_MIN_LANES // 2 - 1, STEP3_MIN_LANES // 2):
            first = [(p0, p1, key) for key, (p0, p1, _) in enumerate(anchors[:k])]
            p0, p1, _ = (np.array(col, dtype=np.int64) for col in zip(*first))
            rows = pipeline._extend_wave(
                buf0, buf1, p0, p1, BLOSUM62, **self.XDROP, tick=None
            )
            assert rows.tolist() == [
                [score, s0, e0, s1, e1, cells]
                for _, s0, e0, s1, e1, score, cells in self.serial(buf0, buf1, first)
            ]
        assert calls == [STEP3_MIN_LANES]


class TestStep3Funnel:
    """The one-shot ``compare`` path publishes the same step-3 funnel as a
    served request, whether step 2 ran in-process or on the pool."""

    @pytest.mark.parametrize(
        "config",
        [PipelineConfig(), PipelineConfig(workers=2, min_pairs_per_shard=0)],
        ids=["workers=1", "workers=2"],
    )
    def test_funnel_matches_the_report(self, planted_workload, config):
        queries, genome, _ = planted_workload
        registry = obsmetrics.MetricsRegistry()
        pipe = SeedComparisonPipeline(config)
        with obsmetrics.activate(registry):
            report = pipe.compare_with_genome(queries, genome)
        funnel = {
            stage: registry.counter(f"step3_{stage}_total").value
            for stage in ("anchors", "contained", "extensions", "cells", "alignments")
        }
        assert funnel["anchors"] == funnel["contained"] + funnel["extensions"]
        assert funnel["extensions"] == report.n_gapped_extensions > 0
        assert funnel["cells"] == pipe.profile.step3.operations
        assert funnel["alignments"] == len(report.alignments)
