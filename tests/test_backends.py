"""Step-2 kernel tests: the oracle gate, engine bit-identity, allocation.

The engine's one kernel (``fused``) must produce the same hits, the same
scores and the same emission order as the per-key reference path, a
kernel whose scores disagree with the scalar oracle must be refused, and
a warm ``score`` call must allocate nothing that grows with the batch.
"""

import importlib.util
import pathlib
import tracemalloc

import numpy as np
import pytest

from repro.extend.backends import FusedKernel, check_against_oracle, fused
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


class TestAllocation:
    """A warm ``score`` call allocates nothing that grows with the batch.

    tracemalloc reads the peak of one more call after a warm-up at
    :attr:`N` pairs.  The clean kernel peaks at a constant ~35 KB (ufunc
    casting buffers) at any batch size; the bound of :attr:`N` bytes sits
    far above that and below the cheapest per-batch temporary, an int16
    gather copy at 2 bytes per pair.
    """

    N = 1 << 17

    #: Per-batch allocations, each one replacement in a copy of
    #: ``fused.py``: a fancy-index gather copy, a fresh output buffer per
    #: column, and an unpinned int16 + int32 add (on the KADANE line).
    MUTATIONS = {
        "fancy-index-copy": (
            '            np.take(scaled0[t:], base0, out=x, mode="clip")\n',
            "            x[...] = scaled0[t:][base0]\n",
        ),
        "fresh-buffer": (
            '            np.take(sub_flat, idx, out=cost, mode="clip")\n',
            "            tmp = np.empty(n, dtype=np.int16)\n"
            '            np.take(sub_flat, idx, out=tmp, mode="clip")\n'
            "            cost = tmp\n",
        ),
        "promoting-add": (
            "                np.add(score, cost, out=score)\n",
            "                score[...] = score + cost\n",
        ),
    }

    @classmethod
    def peak(cls, kernel_type, semantics):
        """Traced peak bytes of one warm ``score`` call at :attr:`N` pairs."""
        cfg = UngappedConfig(semantics=semantics)
        rng = np.random.default_rng(17)
        buf = rng.integers(0, 25, 1 << 16, dtype=np.uint8)
        top = buf.shape[0] - cfg.window + cfg.n
        a0 = rng.integers(cfg.n, top, cls.N, dtype=np.int64)
        a1 = rng.integers(cfg.n, top, cls.N, dtype=np.int64)
        kernel = kernel_type(cfg)
        kernel.prepare(buf, buf)
        kernel.score(a0, a1)
        tracemalloc.start()
        try:
            kernel.score(a0, a1)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    @staticmethod
    def mutant(tmp_path, old, new):
        """``FusedKernel`` from a copy of ``fused.py`` with *old* → *new*."""
        source = pathlib.Path(fused.__file__).read_text()
        assert old in source, f"fused.py no longer contains {old!r}"
        path = tmp_path / "fused_mutant.py"
        path.write_text(source.replace(old, new, 1))
        spec = importlib.util.spec_from_file_location(
            "repro.extend.backends.fused_mutant", path
        )
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        return module.FusedKernel

    @pytest.mark.parametrize("semantics", list(ScoreSemantics))
    def test_score_peak_does_not_scale_with_batch(self, semantics):
        assert self.peak(FusedKernel, semantics) < self.N

    @pytest.mark.parametrize("mutation", sorted(MUTATIONS))
    def test_each_per_batch_allocation_trips_the_bound(self, tmp_path, mutation):
        kernel_type = self.mutant(tmp_path, *self.MUTATIONS[mutation])
        peaks = [self.peak(kernel_type, sem) for sem in ScoreSemantics]
        assert max(peaks) >= self.N, peaks
