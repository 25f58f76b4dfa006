"""Ungapped extension (step 2) kernel tests."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.contracts import ContractError
from repro.extend.batched import BatchedUngappedEngine
from repro.extend.ungapped import (
    ScoreSemantics,
    UngappedConfig,
    UngappedHits,
    UngappedStats,
    ungapped_score_reference,
    ungapped_scores,
    ungapped_xdrop,
)
from repro.index.kmer import ContiguousSeedModel, TwoBankIndex
from repro.seqs.alphabet import AMINO, encode_protein
from repro.seqs.matrices import BLOSUM62
from repro.seqs.sequence import Sequence, SequenceBank


class TestReference:
    def test_identical_windows(self):
        w = encode_protein("MKVLAW")
        # Sum of BLOSUM62 diagonal: M5 K5 V4 L4 A4 W11 = 33.
        assert ungapped_score_reference(w, w) == 33

    def test_score_never_negative(self):
        a = encode_protein("WWWW")
        b = encode_protein("AAAA")
        assert ungapped_score_reference(a, b) == 0

    def test_kadane_recovers_after_mismatch(self):
        # Good prefix, ruinous middle (6 × W:D = -24 < -22), good suffix:
        # the running score resets to zero and the suffix run wins alone.
        a = encode_protein("WWDDDDDDWW")
        b = encode_protein("WWWWWWWWWW")
        score = ungapped_score_reference(a, b)
        assert score == 22  # two W matches after reset

    def test_paper_literal_sums_positive_costs(self):
        a = encode_protein("WAWA")
        b = encode_protein("WWWW")
        # W:W=11 (twice), A:W=-3 ignored under paper-literal semantics.
        assert (
            ungapped_score_reference(a, b, semantics=ScoreSemantics.PAPER_LITERAL)
            == 22
        )

    def test_paper_literal_ge_kadane(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            a = rng.integers(0, 20, 12).astype(np.uint8)
            b = rng.integers(0, 20, 12).astype(np.uint8)
            k = ungapped_score_reference(a, b, semantics=ScoreSemantics.KADANE)
            p = ungapped_score_reference(a, b, semantics=ScoreSemantics.PAPER_LITERAL)
            assert p >= k

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="equal length"):
            ungapped_score_reference(encode_protein("MK"), encode_protein("MKV"))


class TestVectorisedKernel:
    @pytest.mark.parametrize("semantics", list(ScoreSemantics))
    def test_matches_reference(self, semantics, rng):
        w0 = rng.integers(0, 25, size=(6, 20)).astype(np.uint8)
        w1 = rng.integers(0, 25, size=(8, 20)).astype(np.uint8)
        s = ungapped_scores(w0, w1, semantics=semantics)
        for i in range(6):
            for j in range(8):
                assert s[i, j] == ungapped_score_reference(
                    w0[i], w1[j], semantics=semantics
                )

    def test_shape_and_dtype(self, rng):
        w0 = rng.integers(0, 20, size=(3, 10)).astype(np.uint8)
        w1 = rng.integers(0, 20, size=(5, 10)).astype(np.uint8)
        s = ungapped_scores(w0, w1)
        assert s.shape == (3, 5)
        assert s.dtype == np.int32

    def test_width_mismatch_rejected(self, rng):
        # With REPRO_CONTRACTS=1 the annotation contract rejects the width
        # mismatch before the kernel's own check does.
        with pytest.raises((ValueError, ContractError), match="width"):
            ungapped_scores(
                rng.integers(0, 20, (2, 8)).astype(np.uint8),
                rng.integers(0, 20, (2, 9)).astype(np.uint8),
            )

    @given(
        st.integers(0, 2**32 - 1),
        st.integers(1, 6),
        st.integers(1, 6),
        st.integers(1, 30),
        st.sampled_from(list(ScoreSemantics)),
    )
    @settings(max_examples=40, deadline=None)
    def test_kernel_equals_reference_property(self, seed, k0, k1, width, semantics):
        rng = np.random.default_rng(seed)
        w0 = rng.integers(0, 25, size=(k0, width)).astype(np.uint8)
        w1 = rng.integers(0, 25, size=(k1, width)).astype(np.uint8)
        s = ungapped_scores(w0, w1, semantics=semantics)
        i = int(rng.integers(k0))
        j = int(rng.integers(k1))
        assert s[i, j] == ungapped_score_reference(w0[i], w1[j], semantics=semantics)


class TestExtender:
    def make_index(self):
        b0 = SequenceBank([Sequence.from_text("q", "MKVLAWTRQMKVLAW")], pad=16)
        b1 = SequenceBank(
            [Sequence.from_text("s", "AAMKVLAWTRQAA"), Sequence.from_text("t", "MKVLAW")],
            pad=16,
        )
        return b0, b1, TwoBankIndex.build(b0, b1, ContiguousSeedModel(4))

    def test_hits_above_threshold_only(self):
        b0, b1, idx = self.make_index()
        ext = BatchedUngappedEngine(UngappedConfig(w=4, n=4, threshold=20))
        hits = ext.run(idx)
        assert len(hits) > 0
        assert (hits.scores >= 20).all()

    def test_stats_accounting(self):
        b0, b1, idx = self.make_index()
        cfg = UngappedConfig(w=4, n=4, threshold=20)
        hits = BatchedUngappedEngine(cfg).run(idx)
        assert hits.stats.pairs == idx.total_pairs
        assert hits.stats.cells == idx.total_pairs * cfg.window
        assert hits.stats.hits == len(hits)
        assert hits.stats.entries == idx.n_shared_keys

    def test_threshold_monotonicity(self):
        b0, b1, idx = self.make_index()
        lo = BatchedUngappedEngine(UngappedConfig(w=4, n=4, threshold=10)).run(idx)
        hi = BatchedUngappedEngine(UngappedConfig(w=4, n=4, threshold=40)).run(idx)
        assert len(hi) <= len(lo)

    def test_chunking_invariance(self):
        b0, b1, idx = self.make_index()
        big = BatchedUngappedEngine(UngappedConfig(w=4, n=4, threshold=15)).run(idx)
        tiny = BatchedUngappedEngine(
            UngappedConfig(w=4, n=4, threshold=15, pair_chunk=2)
        ).run(idx)
        assert np.array_equal(big.offsets0, tiny.offsets0)
        assert np.array_equal(big.offsets1, tiny.offsets1)
        assert np.array_equal(big.scores, tiny.scores)

    def test_windows_cannot_cross_boundaries(self):
        # A hit's window overlapping padding scores GAP_SCORE there, so a
        # perfect seed at a sequence edge still scores only its in-sequence
        # part.
        b0 = SequenceBank([Sequence.from_text("q", "MKVL")], pad=16)
        b1 = SequenceBank([Sequence.from_text("s", "MKVL")], pad=16)
        idx = TwoBankIndex.build(b0, b1, ContiguousSeedModel(4))
        hits = BatchedUngappedEngine(UngappedConfig(w=4, n=8, threshold=1)).run(idx)
        assert len(hits) == 1
        expected = ungapped_score_reference(
            encode_protein("MKVL"), encode_protein("MKVL")
        )
        assert hits.scores[0] == expected

    def test_concatenate_empty(self):
        merged = UngappedHits.concatenate([])
        assert len(merged) == 0
        assert merged.stats.pairs == 0


class TestUngappedXdrop:
    def test_extends_over_perfect_match(self):
        buf = encode_protein("--------MKVLAWTRQ--------")
        score, left, right = ungapped_xdrop(buf, 11, buf, 11, 3, x_drop=20)
        # Anchor KVL extends to the full MKVLAWTRQ identity run.
        assert left == 3 and right == 3
        full = ungapped_score_reference(
            encode_protein("MKVLAWTRQ"), encode_protein("MKVLAWTRQ")
        )
        assert score == full

    def test_xdrop_stops_in_noise(self):
        a = encode_protein("PPPPPPPPWWWWPPPPPPPP")
        b = encode_protein("GGGGGGGGWWWWGGGGGGGG")
        score, left, right = ungapped_xdrop(a, 8, b, 8, 4, x_drop=5)
        assert score == 44  # 4 × W:W
        assert left <= 3 and right <= 3

    def test_gap_sentinel_blocks_extension(self):
        a = encode_protein("WWWW----WWWW")
        score, left, right = ungapped_xdrop(a, 0, a, 0, 4, x_drop=10)
        assert right <= 4  # cannot profitably cross the sentinel run
