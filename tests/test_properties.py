"""Property-based tests (hypothesis) on core invariants."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.partition import split_bank
from repro.extend.backends import FusedKernel
from repro.extend.gapped import GapPenalties, smith_waterman
from repro.extend.ungapped import (
    ScoreSemantics,
    UngappedConfig,
    ungapped_score_reference,
)
from repro.index.kmer import BankIndex, ContiguousSeedModel, extract_keys
from repro.index.subset_seed import SubsetSeedModel
from repro.psc.schedule import PscArrayConfig, drain_completion, schedule_cycles
from repro.seqs.alphabet import AMINO
from repro.seqs.lowcomplexity import seg_mask
from repro.seqs.sequence import Sequence, SequenceBank
from repro.seqs.translate import STANDARD_CODE, reverse_complement

proteins = st.text(alphabet="ARNDCQEGHILKMFPSTWYV", min_size=0, max_size=120)
seeds = st.integers(0, 2**32 - 1)


@given(proteins.filter(lambda t: len(t) >= 4))
@settings(max_examples=50, deadline=None)
def test_index_is_complete_and_sound(text):
    """Every valid window is indexed exactly once, at the right offset."""
    bank = SequenceBank([Sequence.from_text("s", text)], pad=8)
    model = ContiguousSeedModel(4)
    idx = BankIndex(bank, model)
    keys, valid = extract_keys(bank.buffer, model)
    assert idx.n_anchors == int(valid.sum())
    for i in range(len(idx.unique_keys)):
        for off in idx.slice(i):
            k, v = extract_keys(bank.buffer[off : off + 4], model)
            assert v[0] and int(k[0]) == int(idx.unique_keys[i])


def fused_scores(buf0, a0, buf1, a1, flank, window, semantics=ScoreSemantics.KADANE):
    """Score paired anchors with the production step-2 kernel.

    *window* is the full ``w + 2 * flank`` width scored from each anchor
    minus *flank*; the kernel reads only ``config.n`` and ``config.window``.
    """
    cfg = UngappedConfig(w=window - 2 * flank, n=flank, semantics=semantics)
    kernel = FusedKernel(cfg)
    kernel.prepare(buf0, buf1)
    return kernel.score(a0, a1).copy()


@given(seeds, st.integers(1, 40), st.sampled_from(list(ScoreSemantics)))
@settings(max_examples=40, deadline=None)
def test_paired_kernel_matches_reference(seed, width, semantics):
    """The fused kernel equals the scalar PE oracle on every pair: codes
    0..24 (gap sentinel included), window widths 1..40, both semantics."""
    rng = np.random.default_rng(seed)
    buf = rng.integers(0, 25, 500).astype(np.uint8)
    n = 8
    flank = min(3, (width - 1) // 2)
    a0 = rng.integers(flank, 500 - width, n)
    a1 = rng.integers(flank, 500 - width, n)
    scores = fused_scores(buf, a0, buf, a1, flank, width, semantics)
    assert scores.dtype == np.int32
    for i in range(n):
        w0 = buf[a0[i] - flank : a0[i] - flank + width]
        w1 = buf[a1[i] - flank : a1[i] - flank + width]
        assert scores[i] == ungapped_score_reference(w0, w1, semantics=semantics)


@given(seeds)
@settings(max_examples=30, deadline=None)
def test_window_score_invariants(seed):
    """Scores are non-negative, symmetric and bounded by the self-score."""
    rng = np.random.default_rng(seed)
    L = int(rng.integers(1, 40))
    a = rng.integers(0, 20, L).astype(np.uint8)
    b = rng.integers(0, 20, L).astype(np.uint8)
    s_ab = ungapped_score_reference(a, b)
    s_ba = ungapped_score_reference(b, a)
    assert s_ab >= 0
    assert s_ab == s_ba  # BLOSUM symmetry
    assert s_ab <= max(
        ungapped_score_reference(a, a), ungapped_score_reference(b, b)
    )
    lit = ungapped_score_reference(a, b, semantics=ScoreSemantics.PAPER_LITERAL)
    assert lit >= s_ab


@given(seeds)
@settings(max_examples=20, deadline=None)
def test_smith_waterman_invariants(seed):
    """SW: non-negative, symmetric, self-score maximal for its row."""
    rng = np.random.default_rng(seed)
    a = rng.integers(0, 20, int(rng.integers(1, 50))).astype(np.uint8)
    b = rng.integers(0, 20, int(rng.integers(1, 50))).astype(np.uint8)
    ab = smith_waterman(a, b)
    ba = smith_waterman(b, a)
    assert ab.score == ba.score
    assert ab.score >= 0
    assert ab.score <= smith_waterman(a, a).score or len(b) > len(a)
    # Gap penalties monotone: cheaper gaps never lower the score.
    cheap = smith_waterman(a, b, gaps=GapPenalties(5, 1)).score
    assert cheap >= ab.score


@given(seeds)
@settings(max_examples=25, deadline=None)
def test_schedule_monotonicity(seed):
    """More work never takes fewer cycles; more PEs never more compute."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 30))
    k0 = rng.integers(1, 100, n)
    k1 = rng.integers(1, 100, n)
    cfg_small = PscArrayConfig(n_pes=32, slot_size=8, window=28)
    cfg_big = PscArrayConfig(n_pes=128, slot_size=8, window=28)
    b_small = schedule_cycles(k0, k1, cfg_small)
    b_big = schedule_cycles(k0, k1, cfg_big)
    assert b_big.compute_cycles <= b_small.compute_cycles
    grown = schedule_cycles(k0 + 1, k1, cfg_small)
    assert grown.schedule_end > b_small.schedule_end


@given(st.lists(st.integers(0, 10_000), min_size=0, max_size=200), st.integers(0, 12_000))
@settings(max_examples=50, deadline=None)
def test_drain_completion_properties(arrivals, schedule_end):
    """Drain: ≥ schedule end, ≥ arrivals + 1, and serves 1/cycle."""
    arr = np.array(sorted(arrivals), dtype=np.int64)
    done = drain_completion(arr, schedule_end)
    assert done >= schedule_end
    if arr.size:
        assert done >= int(arr.max()) + 1
        assert done >= int(arr.min()) + arr.size  # single server lower bound


@given(proteins)
@settings(max_examples=50, deadline=None)
def test_seg_mask_idempotent_and_conservative(text):
    codes = AMINO.encode(text)
    once, f1 = seg_mask(codes)
    twice, f2 = seg_mask(once)
    assert np.array_equal(once, twice)
    assert len(once) == len(codes)
    # Masking only ever rewrites residues to X.
    changed = once != codes
    assert (once[changed] == AMINO.encode("X")[0]).all()


@given(st.text(alphabet="ACGT", min_size=0, max_size=300))
@settings(max_examples=50, deadline=None)
def test_translation_reading_frame_shift(text):
    """Dropping one leading base turns frame +2 into frame +1."""
    from repro.seqs.alphabet import DNA

    nt = DNA.encode(text)
    if len(nt) < 4:
        return
    f2 = STANDARD_CODE.translate_codes(nt[1:])
    from repro.seqs.translate import translate

    assert np.array_equal(translate(nt, 2), f2)
    # Reverse complement is an involution (checked end to end).
    assert np.array_equal(reverse_complement(reverse_complement(nt)), nt)


@given(seeds, st.integers(1, 5))
@settings(max_examples=25, deadline=None)
def test_split_bank_partition_property(seed, n_parts):
    from repro.seqs.generate import random_protein_bank

    rng = np.random.default_rng(seed)
    bank = random_protein_bank(rng, int(rng.integers(1, 25)), mean_length=60)
    parts = split_bank(bank, n_parts)
    assert len(parts) == n_parts
    names = sorted(n for p in parts for n in p.names)
    assert names == sorted(bank.names)
    assert sum(p.total_residues for p in parts) == bank.total_residues


@given(seeds)
@settings(max_examples=30, deadline=None)
def test_subset_seed_keys_coarser_than_exact(seed):
    """If two windows share an exact key they share every subset key."""
    rng = np.random.default_rng(seed)
    w = rng.integers(0, 20, 4).astype(np.uint8)
    exact = ContiguousSeedModel(4)
    subset = SubsetSeedModel.from_pattern("#11#")
    k_e, v_e = extract_keys(w, exact)
    k_s, v_s = extract_keys(w, subset)
    assert v_e[0] and v_s[0]
    # Same window always produces the same keys (determinism) and any
    # exact-equal pair is subset-equal.
    w2 = w.copy()
    k_e2, _ = extract_keys(w2, exact)
    k_s2, _ = extract_keys(w2, subset)
    assert k_e[0] == k_e2[0] and k_s[0] == k_s2[0]


@given(
    st.lists(st.booleans(), max_size=120),
    st.integers(1, 20),
)
@settings(max_examples=60, deadline=None)
def test_roc50_bounds_and_monotonicity(labels, n_positives):
    """ROC50 lies in [0, 1+] bounded by TPs/P, and prepending a TP never
    lowers the score."""
    from repro.eval.roc import roc50

    tp_count = sum(labels)
    score = roc50(labels, max(n_positives, tp_count, 1))
    assert 0.0 <= score <= 1.0
    better = roc50([True] + list(labels), max(n_positives, tp_count + 1, 1))
    worse = roc50([False] + list(labels), max(n_positives, tp_count, 1))
    assert worse <= score + 1e-12


@given(st.lists(st.booleans(), max_size=80))
@settings(max_examples=60, deadline=None)
def test_average_precision_bounds(labels):
    from repro.eval.ap import average_precision

    ap = average_precision(labels)
    assert 0.0 <= ap <= 1.0
    # Perfect prefix ordering is optimal.
    ordered = sorted(labels, reverse=True)
    assert average_precision(ordered) >= ap - 1e-12


@given(seeds)
@settings(max_examples=25, deadline=None)
def test_flat_kernel_equals_outer_kernel(seed):
    """The fused (flat) kernel and the outer-product kernel agree on
    every pair they both score."""
    from repro.extend.ungapped import ungapped_scores

    rng = np.random.default_rng(seed)
    k0, k1, flank, span = 4, 5, 4, 3
    window = span + 2 * flank
    buf0 = rng.integers(0, 25, 300).astype(np.uint8)
    buf1 = rng.integers(0, 25, 300).astype(np.uint8)
    a0 = rng.integers(flank, 300 - window, k0)
    a1 = rng.integers(flank, 300 - window, k1)
    w0 = np.stack([buf0[a - flank : a - flank + window] for a in a0])
    w1 = np.stack([buf1[a - flank : a - flank + window] for a in a1])
    outer = ungapped_scores(w0, w1)
    flat0 = np.repeat(a0, k1)
    flat1 = np.tile(a1, k0)
    flat = fused_scores(buf0, flat0, buf1, flat1, flank, window)
    assert np.array_equal(outer.ravel(), flat)


@given(seeds)
@settings(max_examples=20, deadline=None)
def test_gxp_wavefront_band_consistency(seed):
    """Unbanded SW dominates every banded wavefront score."""
    from repro.extend.gapped import smith_waterman
    from repro.psc.gapped_operator import wavefront_banded_score

    rng = np.random.default_rng(seed)
    a = rng.integers(0, 20, int(rng.integers(1, 40))).astype(np.uint8)
    b = rng.integers(0, 20, int(rng.integers(1, 40))).astype(np.uint8)
    full = smith_waterman(a, b).score
    banded, _ = wavefront_banded_score(a, b, band=int(rng.integers(1, 10)))
    assert banded <= full
