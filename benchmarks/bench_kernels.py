"""Kernel microbenchmarks (pytest-benchmark).

Throughput of the hot primitives underneath every experiment: window
scoring, seed-key extraction, gapped DP, PE datapath stepping and the
behavioural operator.  These are the numbers to watch when optimising —
the tables' wall-clock at bench scale is dominated by them.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.extend.backends import FusedKernel
from repro.extend.gapped import smith_waterman, xdrop_gapped_extend
from repro.extend.ungapped import UngappedConfig, ungapped_scores
from repro.hwsim.fifo import SyncFifo
from repro.hwsim.memory import Rom
from repro.index.kmer import ContiguousSeedModel, TwoBankIndex, extract_keys
from repro.index.subset_seed import DEFAULT_SUBSET_SEED
from repro.psc.behavioral import PscBehavioral
from repro.psc.pe import ProcessingElement
from repro.psc.schedule import PscArrayConfig
from repro.seqs.generate import random_genome, random_protein, random_protein_bank
from repro.seqs.matrices import BLOSUM62
from repro.seqs.translate import translate_six_frames


@pytest.fixture(scope="module")
def rng():
    return np.random.default_rng(0)


def test_bench_paired_window_scoring(rng, benchmark):
    """Flat step-2 kernel (``fused``): ~30M window cells per call."""
    buf = random_protein(rng, 2_000_000)
    n = 1 << 20
    a0 = rng.integers(16, buf.shape[0] - 44, n)
    a1 = rng.integers(16, buf.shape[0] - 44, n)
    kernel = FusedKernel(UngappedConfig(w=4, n=12, matrix=BLOSUM62))
    kernel.prepare(buf, buf)
    out = benchmark(kernel.score, a0, a1)
    assert out.shape == (n,)


def test_bench_outer_window_scoring(rng, benchmark):
    """Per-entry outer-product kernel (256×256 pairs)."""
    w0 = rng.integers(0, 20, (256, 28)).astype(np.uint8)
    w1 = rng.integers(0, 20, (256, 28)).astype(np.uint8)
    out = benchmark(ungapped_scores, w0, w1, BLOSUM62)
    assert out.shape == (256, 256)


def test_bench_key_extraction_subset(rng, benchmark):
    """Subset-seed key extraction over 1 Maa."""
    buf = random_protein(rng, 1_000_000)
    keys, valid = benchmark(extract_keys, buf, DEFAULT_SUBSET_SEED)
    assert keys.shape[0] == buf.shape[0] - 3


def test_bench_index_join(rng, benchmark):
    """Two-bank index build + join on a mid-size workload."""
    b0 = random_protein_bank(rng, 200, mean_length=300, name_prefix="a")
    b1 = random_protein_bank(rng, 200, mean_length=300, name_prefix="b")
    idx = benchmark(TwoBankIndex.build, b0, b1, DEFAULT_SUBSET_SEED)
    assert idx.total_pairs > 0


def test_bench_six_frame_translation(rng, benchmark):
    """6-frame translation of 1 Mnt."""
    genome = random_genome(rng, 1_000_000)
    frames = benchmark(translate_six_frames, genome.codes)
    assert len(frames) == 6


def test_bench_smith_waterman(rng, benchmark):
    """Full SW with traceback, 300×300."""
    a = random_protein(rng, 300)
    b = random_protein(rng, 300)
    al = benchmark(smith_waterman, a, b)
    assert al.score >= 0


def test_bench_xdrop_gapped(rng, benchmark):
    """Gapped X-drop extension on a 60%-identity pair."""
    from repro.seqs.generate import mutate_protein

    a = random_protein(rng, 600)
    b = mutate_protein(rng, a, identity=0.6)
    anchor = 300
    ge = benchmark(
        xdrop_gapped_extend, a, anchor, b, min(anchor, len(b) - 1)
    )
    assert ge.score >= 0


def test_bench_pe_datapath(rng, benchmark):
    """Cycle-level PE: one load + 64 window computations."""
    rom = Rom.substitution_rom(BLOSUM62)
    w0 = rng.integers(0, 20, 28).astype(np.uint8)
    windows = rng.integers(0, 20, (64, 28)).astype(np.uint8)

    def run():
        pe = ProcessingElement(28, rom)
        pe.begin_load()
        for r in w0:
            pe.load_shift(int(r))
        return [pe.compute_window(w) for w in windows]

    scores = benchmark(run)
    assert len(scores) == 64


def test_bench_behavioral_operator(rng, benchmark):
    """Behavioural PSC run over a live index."""
    b0 = random_protein_bank(rng, 60, mean_length=200, name_prefix="q")
    b1 = random_protein_bank(rng, 60, mean_length=200, name_prefix="s")
    idx = TwoBankIndex.build(b0, b1, ContiguousSeedModel(3))
    beh = PscBehavioral(PscArrayConfig(n_pes=64, window=3 + 24, threshold=30))
    result = benchmark(beh.run_index, idx, 12)
    assert result.breakdown.total_cycles > 0


def test_bench_fifo_throughput(benchmark):
    """SyncFifo push/pop/commit cycle cost."""
    fifo = SyncFifo(64)

    def run():
        for i in range(32):
            fifo.push(i)
        fifo.commit()
        out = [fifo.pop() for _ in range(32)]
        fifo.commit()
        return out

    out = benchmark(run)
    assert out == list(range(32))
