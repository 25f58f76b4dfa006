"""Step-2 kernel tests: the oracle gate and engine bit-identity.

The engine's one kernel (``fused``) must produce the same hits, the same
scores and the same emission order as the per-key reference path, and a
kernel whose scores disagree with the scalar oracle must be refused.
"""

import numpy as np
import pytest

from repro.extend.backends import FusedKernel, check_against_oracle
from repro.extend.batched import BatchedUngappedEngine
from repro.extend.ungapped import (
    ScoreSemantics,
    UngappedConfig,
    UngappedExtender,
)
from repro.index.kmer import ContiguousSeedModel, TwoBankIndex
from repro.seqs.generate import random_protein_bank
from repro.seqs.sequence import Sequence, SequenceBank


def make_index(rng, n0=12, n1=16, mean=110, span=3):
    b0 = random_protein_bank(rng, n0, mean_length=mean, name_prefix="q")
    b1 = random_protein_bank(rng, n1, mean_length=mean, name_prefix="s")
    return b0, b1, TwoBankIndex.build(b0, b1, ContiguousSeedModel(span))


def assert_identical_hits(ref, got):
    assert np.array_equal(ref.offsets0, got.offsets0)
    assert np.array_equal(ref.offsets1, got.offsets1)
    assert np.array_equal(ref.scores, got.scores)
    assert got.offsets0.dtype == np.int64
    assert got.scores.dtype == np.int32


class TestBitIdentity:
    """Same hits, same scores, same order as the per-key path."""

    @pytest.mark.parametrize("semantics", list(ScoreSemantics))
    def test_matches_per_key_reference(self, rng, semantics):
        _, _, idx = make_index(rng)
        cfg = UngappedConfig(w=3, n=8, threshold=18, semantics=semantics)
        ref = UngappedExtender(cfg).run_per_key(idx)
        got = BatchedUngappedEngine(cfg).run(idx)
        assert len(ref) > 0
        assert_identical_hits(ref, got)

    def test_empty_shared_key_set(self):
        b0 = SequenceBank([Sequence.from_text("q", "AAAAAAAAAA")], pad=32)
        b1 = SequenceBank([Sequence.from_text("s", "WWWWWWWWWW")], pad=32)
        idx = TwoBankIndex.build(b0, b1, ContiguousSeedModel(4))
        assert idx.n_shared_keys == 0
        cfg = UngappedConfig(w=4, n=4, threshold=1)
        hits = BatchedUngappedEngine(cfg).run(idx)
        assert len(hits) == 0
        assert hits.offsets0.dtype == np.int64
        assert hits.scores.dtype == np.int32

    def test_single_oversized_entry(self):
        # One shared key, 12×12 = 144 pairs against a 10-pair budget: the
        # giant-entry slicer feeds the kernel sub-batches that must score
        # exactly like one whole batch.
        b0 = SequenceBank([Sequence.from_text("q", "MKVL" * 12)], pad=32)
        b1 = SequenceBank([Sequence.from_text("s", "MKVL" * 12)], pad=32)
        idx = TwoBankIndex.build(b0, b1, ContiguousSeedModel(4))
        big = UngappedConfig(w=4, n=4, threshold=10)
        tiny = UngappedConfig(w=4, n=4, threshold=10, pair_chunk=10)
        ref = BatchedUngappedEngine(big).run(idx)
        got = BatchedUngappedEngine(tiny).run(idx)
        assert len(ref) > 0
        assert_identical_hits(ref, got)

    def test_one_residue_windows(self):
        # w=1, n=0: the degenerate single-column window (window == 1).
        rng = np.random.default_rng(5)
        b0 = random_protein_bank(rng, 3, mean_length=30, name_prefix="q")
        b1 = random_protein_bank(rng, 3, mean_length=30, name_prefix="s")
        idx = TwoBankIndex.build(b0, b1, ContiguousSeedModel(1))
        cfg = UngappedConfig(w=1, n=0, threshold=4)
        ref = UngappedExtender(cfg).run_per_key(idx)
        got = BatchedUngappedEngine(cfg).run(idx)
        assert len(ref) > 0
        assert_identical_hits(ref, got)

    def test_window_overrun_raises(self):
        # pad=2 < flank: the kernel must reject the out-of-buffer window
        # with the per-key path's IndexError, not wrap around.
        b0 = SequenceBank([Sequence.from_text("q", "MKVLAW")], pad=2)
        b1 = SequenceBank([Sequence.from_text("s", "MKVLAW")], pad=2)
        idx = TwoBankIndex.build(b0, b1, ContiguousSeedModel(4))
        cfg = UngappedConfig(w=4, n=8, threshold=1)
        with pytest.raises(IndexError, match="increase pad"):
            BatchedUngappedEngine(cfg).run(idx)


class TestAvailability:
    def test_accuracy_gate_rejects_wrong_scores(self):
        class WrongKernel:
            def prepare(self, buf0, buf1):
                pass

            def score(self, anchors0, anchors1):
                return np.zeros(anchors0.shape[0], dtype=np.int32)

        with pytest.raises(RuntimeError, match="oracle check"):
            check_against_oracle(WrongKernel(), UngappedConfig(w=3, n=8))

    def test_accuracy_gate_rejects_wrong_dtype(self):
        class WideKernel:
            def prepare(self, buf0, buf1):
                pass

            def score(self, anchors0, anchors1):
                return np.zeros(anchors0.shape[0], dtype=np.int64)

        with pytest.raises(RuntimeError, match="expected int32"):
            check_against_oracle(WideKernel(), UngappedConfig(w=3, n=8))

    @pytest.mark.parametrize("semantics", list(ScoreSemantics))
    def test_fused_kernel_passes_the_gate(self, semantics):
        # Long windows included: int32 accumulators hold any window.
        for w, n in [(1, 0), (4, 12), (4, 2000)]:
            cfg = UngappedConfig(w=w, n=n, semantics=semantics)
            check_against_oracle(FusedKernel(cfg), cfg)
