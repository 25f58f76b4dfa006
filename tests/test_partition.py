"""Workload partitioning tests (2-FPGA experiment substrate)."""

import numpy as np
import pytest

from repro.core.partition import partition_imbalance, split_bank
from repro.seqs.generate import random_protein_bank


class TestSplitBank:
    def test_all_sequences_kept(self, rng):
        bank = random_protein_bank(rng, 50)
        parts = split_bank(bank, 3)
        assert sum(len(p) for p in parts) == 50
        names = sorted(n for p in parts for n in p.names)
        assert names == sorted(bank.names)

    def test_residue_balance(self, rng):
        bank = random_protein_bank(rng, 100)
        parts = split_bank(bank, 2)
        loads = np.array([p.total_residues for p in parts], dtype=float)
        assert partition_imbalance(loads) < 1.1

    def test_single_part_identity(self, rng):
        bank = random_protein_bank(rng, 5)
        assert split_bank(bank, 1)[0] is bank

    def test_invalid_parts(self, rng):
        with pytest.raises(ValueError):
            split_bank(random_protein_bank(rng, 5), 0)

    def test_more_parts_than_sequences(self, rng):
        bank = random_protein_bank(rng, 3)
        parts = split_bank(bank, 5)
        assert sum(len(p) for p in parts) == 3
        assert len(parts) == 5  # some empty


class TestImbalance:
    def test_perfect(self):
        assert partition_imbalance(np.array([5.0, 5.0])) == 1.0

    def test_skewed(self):
        assert partition_imbalance(np.array([9.0, 1.0])) == pytest.approx(1.8)

    def test_empty(self):
        assert partition_imbalance(np.array([])) == 1.0
