"""Runtime determinism sanitizer tests: digests, manifests, pipeline wiring."""

import json
import pathlib

import numpy as np

from repro.core.determinism import (
    DetsanRecorder,
    activate,
    active,
    detsan_enabled,
    diff_manifests,
    digest_arrays,
    record_arrays,
    verify_pipeline_determinism,
)
from repro.core.config import PipelineConfig
from repro.core.pipeline import SeedComparisonPipeline
from repro.extend.ungapped import UngappedHits

REPO = pathlib.Path(__file__).resolve().parents[1]
QUERIES = REPO / "examples" / "data" / "demo_proteins.fasta"
GENOME = REPO / "examples" / "data" / "demo_genome.fasta"


class TestDigests:
    def test_order_independent_is_permutation_invariant(self, rng):
        cols = [rng.integers(0, 1000, 64), rng.integers(0, 1000, 64)]
        perm = rng.permutation(64)
        d1 = digest_arrays(cols, order_sensitive=False)
        d2 = digest_arrays([c[perm] for c in cols], order_sensitive=False)
        assert d1 == d2

    def test_order_sensitive_detects_permutation(self, rng):
        cols = [np.arange(64), np.arange(64)]
        d1 = digest_arrays(cols, order_sensitive=True)
        d2 = digest_arrays([c[::-1].copy() for c in cols], order_sensitive=True)
        assert d1 != d2

    def test_multiset_digest_counts_duplicates(self):
        once = digest_arrays([np.array([1, 2])], order_sensitive=False)
        twice = digest_arrays([np.array([1, 2, 2])], order_sensitive=False)
        assert once != twice

    def test_float_columns_are_bit_exact(self):
        pos = digest_arrays([np.array([0.0])], order_sensitive=True)
        neg = digest_arrays([np.array([-0.0])], order_sensitive=True)
        assert pos != neg  # bit-cast, not value-cast

    def test_empty_input(self):
        digest, n = digest_arrays([], order_sensitive=False)
        assert n == 0 and digest == f"{0:032x}"


class TestRecorder:
    def test_inactive_recording_is_a_noop(self):
        assert active() is None
        record_arrays("stage", [np.array([1])], order_sensitive=True)
        assert active() is None

    def test_activate_scopes_the_recorder(self):
        rec = DetsanRecorder(meta={"workers": 1})
        with activate(rec):
            assert active() is rec
            record_arrays("s", [np.array([1, 2])], order_sensitive=True)
        assert active() is None
        manifest = rec.manifest()
        assert manifest["version"] == 1
        assert manifest["meta"] == {"workers": 1}
        assert manifest["stages"]["s"]["n"] == 2

    def test_activate_none_is_transparent(self):
        with activate(None):
            assert active() is None

    def test_manifest_roundtrips_through_json(self, tmp_path):
        rec = DetsanRecorder()
        rec.record_stage("s", "ab" * 16, 3)
        rec.record_detail("shard", shard=0, via="pool")
        out = tmp_path / "m.json"
        rec.write(out)
        assert json.loads(out.read_text()) == rec.manifest()


class TestDiff:
    def test_identical_manifests_diff_empty(self):
        a = {"stages": {"s": {"digest": "x", "n": 1}}}
        assert diff_manifests(a, a) == []

    def test_digest_mismatch_is_reported(self):
        a = {"stages": {"s": {"digest": "a" * 32, "n": 1}}}
        b = {"stages": {"s": {"digest": "b" * 32, "n": 1}}}
        (line,) = diff_manifests(a, b)
        assert line.startswith("s:")

    def test_missing_stage_is_reported(self):
        a = {"stages": {"s": {"digest": "x", "n": 1}}}
        b = {"stages": {}}
        (line,) = diff_manifests(a, b)
        assert "only in the first" in line

    def test_detail_is_not_compared(self):
        a = {"stages": {}, "detail": [{"event": "shard", "shard": 0}]}
        b = {"stages": {}, "detail": []}
        assert diff_manifests(a, b) == []


class TestPipelineWiring:
    def test_env_flag_populates_last_detsan(self, small_banks, monkeypatch):
        monkeypatch.setenv("REPRO_DETSAN", "1")
        assert detsan_enabled()
        pipe = SeedComparisonPipeline(PipelineConfig())
        pipe.compare_banks(*small_banks)
        manifest = pipe.last_detsan
        assert manifest is not None
        assert set(manifest["stages"]) == {
            "step1.index",
            "step2.survivors",
            "step2.merged",
            "step3.extensions",
            "step3.alignments",
        }
        assert any(d["event"] == "shard" for d in manifest["detail"])

    def test_detsan_out_writes_manifest(self, small_banks, monkeypatch, tmp_path):
        out = tmp_path / "detsan.json"
        monkeypatch.setenv("REPRO_DETSAN", "1")
        monkeypatch.setenv("REPRO_DETSAN_OUT", str(out))
        pipe = SeedComparisonPipeline(PipelineConfig())
        pipe.compare_banks(*small_banks)
        assert json.loads(out.read_text()) == pipe.last_detsan

    def test_disabled_by_default(self, small_banks, monkeypatch):
        monkeypatch.delenv("REPRO_DETSAN", raising=False)
        pipe = SeedComparisonPipeline(PipelineConfig())
        pipe.compare_banks(*small_banks)
        assert pipe.last_detsan is None

    def test_blast_family_search_exposes_manifest(self, small_banks, monkeypatch):
        from repro.core.modes import BlastFamilySearch

        monkeypatch.setenv("REPRO_DETSAN", "1")
        search = BlastFamilySearch(PipelineConfig(), seg=None)
        assert search.last_detsan is None
        search.blastp(*small_banks)
        assert search.last_detsan is not None
        assert "step2.merged" in search.last_detsan["stages"]


class TestVerify:
    def test_worker_counts_agree_on_examples_data(self):
        ok, manifests, diffs = verify_pipeline_determinism(
            str(QUERIES), str(GENOME), worker_counts=(1, 2)
        )
        assert ok, diffs
        assert [m["meta"]["workers"] for m in manifests] == [1, 2]
        stages = manifests[0]["stages"]
        assert stages["step2.survivors"]["n"] == stages["step2.merged"]["n"]
        assert stages["step3.alignments"]["n"] > 0
        # The 2-worker run really scored on the pool: the demo data sits
        # below the default pair-count floor, which the harness turns off.
        shards = [d for d in manifests[1]["detail"] if d["event"] == "shard"]
        assert len(shards) == 2
        assert all(d["via"] == "pool" for d in shards)
        # Step 3 too: the extension rows' digest is partition-independent.
        assert stages["step3.extensions"]["n"] == 8
        assert manifests[1]["stages"]["step3.extensions"] == stages["step3.extensions"]

    def test_seeded_ordering_bug_breaks_the_merged_digest(self, small_banks):
        """The runtime half of the acceptance gate.

        A step-2 engine that returns the right survivor *set* in the wrong
        *order* (the bug RC100 flags statically) must keep the
        order-independent digest and break the order-sensitive one.
        """
        from repro.core.executor import ShardedStep2Executor

        # An exact-seed config with a low threshold so the small random
        # banks actually produce step-2 survivors to scramble.
        config = PipelineConfig.exact_seed(3, flank=8, ungapped_threshold=20)

        def good_step2(index):
            return ShardedStep2Executor(
                config.ungapped_config(), workers=1
            ).run(index)

        def scrambled_step2(index):
            hits = good_step2(index)
            return UngappedHits(
                hits.offsets0[::-1].copy(),
                hits.offsets1[::-1].copy(),
                hits.scores[::-1].copy(),
                hits.stats,
            )

        manifests = []
        for step2 in (good_step2, scrambled_step2):
            rec = DetsanRecorder()
            with activate(rec):
                SeedComparisonPipeline(config, step2=step2).compare_banks(
                    *small_banks
                )
            manifests.append(rec.manifest())
        assert manifests[0]["stages"]["step2.merged"]["n"] > 0
        diffs = diff_manifests(*manifests)
        assert any(line.startswith("step2.merged:") for line in diffs)
        assert not any(line.startswith("step2.survivors:") for line in diffs)
