"""Batched step-2 engine tests: equivalence, order, degenerate cases."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.extend.backends import FusedKernel
from repro.extend.batched import BatchedUngappedEngine, EntryBlock, iter_block_batches
from repro.extend.ungapped import (
    ScoreSemantics,
    UngappedConfig,
    UngappedExtender,
    ungapped_score_reference,
)
from repro.index.kmer import ContiguousSeedModel, TwoBankIndex
from repro.seqs.generate import random_protein_bank
from repro.seqs.sequence import Sequence, SequenceBank


def make_index(rng, n0=15, n1=20, mean=120, span=3):
    b0 = random_protein_bank(rng, n0, mean_length=mean, name_prefix="q")
    b1 = random_protein_bank(rng, n1, mean_length=mean, name_prefix="s")
    return b0, b1, TwoBankIndex.build(b0, b1, ContiguousSeedModel(span))


def block_of(entries):
    """An :class:`EntryBlock` holding *entries* (``(offsets0, offsets1)``)."""
    empty = np.empty(0, dtype=np.int64)
    return EntryBlock(
        np.concatenate([e[0] for e in entries] or [empty]),
        np.array([e[0].shape[0] for e in entries], dtype=np.int64),
        np.concatenate([e[1] for e in entries] or [empty]),
        np.array([e[1].shape[0] for e in entries], dtype=np.int64),
    )


class TestIterPairBatches:
    """Pair batches cut from an :class:`EntryBlock` (the only step-2 input)."""

    def entries(self, rng, n=10, kmax=6):
        out = []
        for _ in range(n):
            k0 = int(rng.integers(1, kmax))
            k1 = int(rng.integers(1, kmax))
            out.append(
                (
                    rng.integers(0, 1000, k0).astype(np.int64),
                    rng.integers(0, 1000, k1).astype(np.int64),
                )
            )
        return out

    def test_enumerates_every_pair_in_order(self, rng):
        entries = self.entries(rng)
        expected0 = np.concatenate(
            [np.repeat(o0, o1.shape[0]) for o0, o1 in entries]
        )
        expected1 = np.concatenate(
            [np.tile(o1, o0.shape[0]) for o0, o1 in entries]
        )
        block = block_of(entries)
        for budget in (1, 3, 7, 10_000):
            batches = list(iter_block_batches(block, budget))
            got0 = np.concatenate([b[0] for b in batches])
            got1 = np.concatenate([b[1] for b in batches])
            assert np.array_equal(got0, expected0), budget
            assert np.array_equal(got1, expected1), budget

    def test_budget_respected_where_possible(self, rng):
        entries = self.entries(rng, n=20, kmax=5)
        for p0, p1 in iter_block_batches(block_of(entries), 8):
            # The entry that reaches the budget may overshoot it; a batch
            # can never exceed budget + the largest single entry (kmax²).
            assert p0.shape[0] <= 8 + 16
            assert p0.shape[0] == p1.shape[0]

    def test_giant_entry_is_sliced(self, rng):
        off0 = rng.integers(0, 1000, 50).astype(np.int64)
        off1 = rng.integers(0, 1000, 7).astype(np.int64)
        batches = list(iter_block_batches(block_of([(off0, off1)]), 21))
        # 3 rows of 7 pairs per slice: no batch exceeds the budget.
        assert all(b[0].shape[0] <= 21 for b in batches)
        assert sum(b[0].shape[0] for b in batches) == 350

    def test_empty_and_zero_length_entries_skipped(self):
        e = np.empty(0, dtype=np.int64)
        some = np.arange(3, dtype=np.int64)
        assert list(iter_block_batches(block_of([]), 100)) == []
        assert list(iter_block_batches(block_of([(e, some), (some, e)]), 100)) == []
        # Between real entries, zero-count entries contribute no pairs.
        batches = list(
            iter_block_batches(block_of([(some, some), (e, some), (some, some)]), 100)
        )
        assert [b[0].shape[0] for b in batches] == [18]


class TestBatchedEngine:
    def test_matches_per_key_bit_for_bit(self, rng):
        _, _, idx = make_index(rng)
        cfg = UngappedConfig(w=3, n=8, threshold=20)
        per_key = UngappedExtender(cfg).run_per_key(idx)
        batched = BatchedUngappedEngine(cfg).run(idx)
        assert np.array_equal(per_key.offsets0, batched.offsets0)
        assert np.array_equal(per_key.offsets1, batched.offsets1)
        assert np.array_equal(per_key.scores, batched.scores)
        assert per_key.stats.pairs == batched.stats.pairs
        assert per_key.stats.entries == batched.stats.entries

    def test_batch_budget_invariance(self, rng):
        _, _, idx = make_index(rng)
        base = None
        for chunk in (1, 5, 64, 1 << 20):
            cfg = UngappedConfig(w=3, n=8, threshold=20, pair_chunk=chunk)
            hits = BatchedUngappedEngine(cfg).run(idx)
            if base is None:
                base = hits
            else:
                assert np.array_equal(base.offsets0, hits.offsets0)
                assert np.array_equal(base.scores, hits.scores)

    def test_telemetry_records_batches(self, rng):
        _, _, idx = make_index(rng)
        engine = BatchedUngappedEngine(UngappedConfig(w=3, n=8, pair_chunk=50))
        engine.run(idx)
        assert engine.batches > 1
        # A batch overshoots the budget by less than its last entry.
        assert 0 < engine.max_batch_pairs < 50 + int(idx.pair_counts().max())
        assert engine.batches * engine.max_batch_pairs >= idx.total_pairs
        # The counters describe the latest run only.
        buf0, buf1 = idx.index0.bank.buffer, idx.index1.bank.buffer
        engine.run_stream(buf0, buf1, block_of([]))
        assert (engine.batches, engine.max_batch_pairs) == (0, 0)
        # A budget wide enough for everything: one batch of every pair.
        wide = BatchedUngappedEngine(UngappedConfig(w=3, n=8, pair_chunk=1 << 20))
        wide.run(idx)
        assert (wide.batches, wide.max_batch_pairs) == (1, idx.total_pairs)

    def test_empty_shared_key_set(self):
        # Disjoint alphabet usage: no 4-mer occurs in both banks.
        b0 = SequenceBank([Sequence.from_text("q", "AAAAAAAAAA")], pad=32)
        b1 = SequenceBank([Sequence.from_text("s", "WWWWWWWWWW")], pad=32)
        idx = TwoBankIndex.build(b0, b1, ContiguousSeedModel(4))
        assert idx.n_shared_keys == 0
        cfg = UngappedConfig(w=4, n=4, threshold=1)
        for hits in (
            BatchedUngappedEngine(cfg).run(idx),
            UngappedExtender(cfg).run_per_key(idx),
        ):
            assert len(hits) == 0
            assert hits.offsets0.dtype == np.int64
            assert hits.scores.dtype == np.int32
            assert hits.stats.pairs == hits.stats.hits == 0

    def test_giant_entry_exceeding_budget(self):
        # One shared key, K0=K1=12: 144 pairs against a budget of 10.
        b0 = SequenceBank(
            [Sequence.from_text("q", "MKVL" * 12)], pad=32
        )
        b1 = SequenceBank(
            [Sequence.from_text("s", "MKVL" * 12)], pad=32
        )
        idx = TwoBankIndex.build(b0, b1, ContiguousSeedModel(4))
        big = UngappedConfig(w=4, n=4, threshold=10, pair_chunk=1 << 20)
        tiny = UngappedConfig(w=4, n=4, threshold=10, pair_chunk=10)
        ref = BatchedUngappedEngine(big).run(idx)
        sliced = BatchedUngappedEngine(tiny).run(idx)
        assert len(ref) > 0
        assert np.array_equal(ref.offsets0, sliced.offsets0)
        assert np.array_equal(ref.offsets1, sliced.offsets1)
        assert np.array_equal(ref.scores, sliced.scores)

    def test_window_overrun_raises_like_per_key(self):
        # pad=2 < flank: the flanked window leaves the buffer on both the
        # per-key (SequenceBank.windows) and batched (paired kernel) paths.
        b0 = SequenceBank([Sequence.from_text("q", "MKVLAW")], pad=2)
        b1 = SequenceBank([Sequence.from_text("s", "MKVLAW")], pad=2)
        idx = TwoBankIndex.build(b0, b1, ContiguousSeedModel(4))
        assert idx.n_shared_keys > 0
        cfg = UngappedConfig(w=4, n=8, threshold=1)
        with pytest.raises(IndexError, match="increase pad"):
            UngappedExtender(cfg).run_per_key(idx)
        with pytest.raises(IndexError, match="increase pad"):
            BatchedUngappedEngine(cfg).run(idx)

    def test_paired_kernel_rejects_out_of_buffer_anchors(self, rng):
        # The gathers clip instead of raising, so the edges are exact only
        # because both checks hold: windows touching the first and the
        # last byte of either buffer score like the scalar oracle, one
        # byte past either end raises, and so does a bank code at or past
        # the 25-letter matrix stride.
        cfg = UngappedConfig(w=4, n=8)  # window 20
        buf0 = rng.integers(0, 25, 64).astype(np.uint8)
        buf1 = rng.integers(0, 25, 71).astype(np.uint8)
        buf0[[0, -1]] = buf1[[0, -1]] = 24  # GAP_CODE, the last legal code
        first = cfg.n  # window starts at byte 0
        last0 = buf0.shape[0] - cfg.window + cfg.n  # window ends at the last byte
        last1 = buf1.shape[0] - cfg.window + cfg.n
        kernel = FusedKernel(cfg)
        kernel.prepare(buf0, buf1)
        a0 = np.array([first, last0, first, last0], dtype=np.int64)
        a1 = np.array([first, last1, last1, first], dtype=np.int64)
        got = kernel.score(a0, a1).copy()
        for i in range(a0.shape[0]):
            s0, s1 = int(a0[i]) - cfg.n, int(a1[i]) - cfg.n
            want = ungapped_score_reference(
                buf0[s0 : s0 + cfg.window], buf1[s1 : s1 + cfg.window]
            )
            assert got[i] == want
        good = np.array([first], dtype=np.int64)
        for a0, a1 in [
            (np.array([first - 1]), good),
            (np.array([last0 + 1]), good),
            (good, np.array([first - 1])),
            (good, np.array([last1 + 1])),
        ]:
            with pytest.raises(IndexError, match="increase pad"):
                kernel.score(a0, a1)
        for code in (25, 255):
            bad0, bad1 = buf0.copy(), buf1.copy()
            bad0[-1] = bad1[0] = code
            for pair in [(bad0, buf1), (buf0, bad1)]:
                with pytest.raises(ValueError, match="substitution matrix"):
                    FusedKernel(cfg).prepare(*pair)


@given(
    st.integers(0, 2**32 - 1),
    st.integers(2, 30),
    st.integers(1, 200),
    st.sampled_from(list(ScoreSemantics)),
)
@settings(max_examples=25, deadline=None)
def test_batched_equals_per_key_equals_reference(seed, n_seqs, chunk, semantics):
    """Property: batched == per-key == scalar oracle on random workloads."""
    rng = np.random.default_rng(seed)
    b0 = random_protein_bank(rng, max(2, n_seqs // 2), mean_length=60,
                             name_prefix="q")
    b1 = random_protein_bank(rng, n_seqs, mean_length=60, name_prefix="s")
    idx = TwoBankIndex.build(b0, b1, ContiguousSeedModel(3))
    cfg = UngappedConfig(
        w=3, n=6, threshold=15, semantics=semantics, pair_chunk=chunk
    )
    per_key = UngappedExtender(cfg).run_per_key(idx)
    batched = BatchedUngappedEngine(cfg).run(idx)
    assert np.array_equal(per_key.offsets0, batched.offsets0)
    assert np.array_equal(per_key.offsets1, batched.offsets1)
    assert np.array_equal(per_key.scores, batched.scores)
    # Spot-check surviving scores against the scalar hardware oracle.
    buf0, buf1 = b0.buffer, b1.buffer
    for r in range(0, len(batched), max(1, len(batched) // 5)):
        a0 = int(batched.offsets0[r]) - cfg.n
        a1 = int(batched.offsets1[r]) - cfg.n
        ref = ungapped_score_reference(
            buf0[a0 : a0 + cfg.window],
            buf1[a1 : a1 + cfg.window],
            cfg.matrix,
            semantics,
        )
        assert batched.scores[r] == ref
