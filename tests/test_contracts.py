"""Runtime dtype/shape contract tests (REPRO_CONTRACTS gating)."""

import numpy as np
import pytest

from repro.analysis.contracts import (
    ENV_VAR,
    ArraySpec,
    ContractError,
    check_array,
    contracted,
    contracts_enabled,
)
from repro.extend.batched import BatchedUngappedEngine, EntryBlock
from repro.extend.ungapped import UngappedConfig
from repro.seqs.alphabet import GAP_CODE, encode_protein


@pytest.fixture
def enabled(monkeypatch):
    monkeypatch.setenv(ENV_VAR, "1")


@pytest.fixture
def disabled(monkeypatch):
    monkeypatch.delenv(ENV_VAR, raising=False)


def make_buffers():
    """Two padded bank buffers with one perfect seed pair at offset 20."""
    pad = np.full(20, GAP_CODE, dtype=np.uint8)
    body = encode_protein("MKVLAWTRQMKVLAW")
    buf = np.concatenate([pad, body, pad])
    return buf, buf.copy()


class TestGating:
    def test_disabled_by_default(self, disabled):
        assert not contracts_enabled()

    @pytest.mark.parametrize("value", ["1", "true", "YES", "on"])
    def test_truthy_values(self, monkeypatch, value):
        monkeypatch.setenv(ENV_VAR, value)
        assert contracts_enabled()

    @pytest.mark.parametrize("value", ["", "0", "false", "off"])
    def test_falsy_values(self, monkeypatch, value):
        monkeypatch.setenv(ENV_VAR, value)
        assert not contracts_enabled()


class TestArraySpec:
    def test_dtype_mismatch(self):
        spec = ArraySpec(dtype=np.uint8)
        with pytest.raises(ContractError, match="dtype"):
            spec.validate("x", np.zeros(3, dtype=np.int32), {})

    def test_dtype_alternatives(self):
        spec = ArraySpec(dtype=(np.int32, np.int64))
        spec.validate("x", np.zeros(3, dtype=np.int64), {})

    def test_ndim_mismatch(self):
        spec = ArraySpec(ndim=1)
        with pytest.raises(ContractError, match="ndim"):
            spec.validate("x", np.zeros((2, 2)), {})

    def test_fixed_axis_mismatch(self):
        spec = ArraySpec(shape=(3,))
        with pytest.raises(ContractError, match="axis 0"):
            spec.validate("x", np.zeros(4), {})

    def test_named_dim_unifies_across_arrays(self):
        spec = ArraySpec(shape=("pairs",))
        dims = {}
        spec.validate("a", np.zeros(5), dims)
        with pytest.raises(ContractError, match="'pairs'"):
            spec.validate("b", np.zeros(6), dims)

    def test_not_an_array(self):
        with pytest.raises(ContractError, match="ndarray"):
            ArraySpec().validate("x", [1, 2, 3], {})

    def test_contradictory_rank(self):
        with pytest.raises(ValueError):
            ArraySpec(ndim=2, shape=(3,))


class TestCheckArray:
    def test_noop_when_disabled(self, disabled):
        check_array("x", np.zeros(3, dtype=np.float64), ArraySpec(dtype=np.uint8))

    def test_raises_when_enabled(self, enabled):
        with pytest.raises(ContractError):
            check_array("x", np.zeros(3, dtype=np.float64), ArraySpec(dtype=np.uint8))


class TestBatchedKernelContracts:
    """The engine's ``run_stream`` is the contracted step-2 entry point."""

    ENTRIES = EntryBlock(
        np.array([20], dtype=np.int64),
        np.array([1], dtype=np.int64),
        np.array([20], dtype=np.int64),
        np.array([1], dtype=np.int64),
    )
    CONFIG = UngappedConfig(w=4, n=4, threshold=1)

    def test_kernel_is_contracted(self):
        assert getattr(BatchedUngappedEngine.run_stream, "__repro_contracted__", False)

    def test_wrong_dtype_buffer_rejected(self, enabled):
        buf0, buf1 = make_buffers()
        engine = BatchedUngappedEngine(self.CONFIG)
        with pytest.raises(ContractError, match="buf0"):
            engine.run_stream(buf0.astype(np.float64), buf1, self.ENTRIES)

    def test_wrong_ndim_buffer_rejected(self, enabled):
        buf0, buf1 = make_buffers()
        engine = BatchedUngappedEngine(self.CONFIG)
        with pytest.raises(ContractError, match="buf1"):
            engine.run_stream(buf0, buf1[:, None], self.ENTRIES)

    def test_valid_call_passes_and_scores(self, enabled):
        buf0, buf1 = make_buffers()
        hits = BatchedUngappedEngine(self.CONFIG).run_stream(buf0, buf1, self.ENTRIES)
        assert hits.scores.dtype == np.int32
        assert hits.scores.shape == (1,)
        assert hits.scores[0] > 0

    def test_disabled_forwards_unchecked(self, disabled):
        # Without the env var the decorator must not even look at dtypes:
        # an int8 bank violates the contract but scores just fine.
        buf0, buf1 = make_buffers()
        engine = BatchedUngappedEngine(self.CONFIG)
        want = engine.run_stream(buf0, buf1, self.ENTRIES)
        got = engine.run_stream(buf0.astype(np.int8), buf1, self.ENTRIES)
        assert np.array_equal(want.scores, got.scores)
