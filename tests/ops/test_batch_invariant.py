"""Batch-invariant GEMM blocking (repro.ops.batching).

BLAS selects its GEMM kernel from the full problem shape, so
``(A @ B)[:m]`` and ``A[:m] @ B`` are *not* bitwise equal in general —
the exact failure the micro-batching serving pipeline must never expose.
These tests pin the contract of the fix: under a declared batch cell,
every stacked matmul is computed block-by-block at the cell's row count,
so each block is bit-identical to the solo GEMM of that block.
"""

import threading

import numpy as np
import pytest

from repro.models import MLP
from repro.nn import predict_probs
from repro.ops.batching import batch_cell, batch_cell_rows, blocked_matmul

RNG = np.random.default_rng(7)


class TestBlockedMatmul:
    # The last two: shapes where one GEMM over the whole stack does not
    # give the per-block bits on OpenBLAS (gemv for 1-row blocks, long K).
    @pytest.mark.parametrize("cell,blocks,k,n", [
        (1, 7, 5, 3), (4, 4, 16, 8), (8, 16, 33, 10), (16, 3, 64, 64),
        (1, 16, 256, 10), (8, 16, 1000, 10),
    ])
    def test_each_block_bitwise_equals_solo(self, cell, blocks, k, n):
        x = RNG.normal(size=(cell * blocks, k)).astype(np.float32)
        y = RNG.normal(size=(k, n)).astype(np.float32)
        out = blocked_matmul(x, y, cell)
        for start in range(0, len(x), cell):
            solo = x[start:start + cell] @ y
            assert np.array_equal(out[start:start + cell], solo)

    @pytest.mark.parametrize("layout", ["c", "fortran", "row-strided"])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_any_layout_each_block_bitwise_equals_solo(self, layout, dtype):
        # Each block must be the solo GEMM of x's own block, strides and
        # all, with a ragged tail; the weight is transposed, as
        # nn.Linear's is.
        cell, rows = 8, 8 * 12 + 5
        x = RNG.normal(size=(rows, 16)).astype(dtype)
        if layout == "fortran":
            x = np.asfortranarray(x)
        elif layout == "row-strided":
            x = RNG.normal(size=(2 * rows, 16)).astype(dtype)[::2]
        y = RNG.normal(size=(32, 16)).astype(dtype).T
        out = blocked_matmul(x, y, cell)
        assert out.shape == (rows, 32) and out.dtype == dtype
        for start in range(0, rows, cell):
            solo = x[start:start + cell] @ y
            assert np.array_equal(out[start:start + cell], solo)

    def test_ragged_tail_equals_smaller_solo(self):
        x = RNG.normal(size=(10, 6)).astype(np.float32)   # 3 blocks of 4,4,2
        y = RNG.normal(size=(6, 5)).astype(np.float32)
        out = blocked_matmul(x, y, 4)
        assert np.array_equal(out[8:], x[8:] @ y)

    def test_small_input_passes_through(self):
        x = RNG.normal(size=(3, 4))
        y = RNG.normal(size=(4, 2))
        assert np.array_equal(blocked_matmul(x, y, 8), x @ y)


class TestBatchCellContext:
    def test_nests_and_restores(self):
        assert batch_cell_rows() is None
        with batch_cell(8):
            assert batch_cell_rows() == 8
            with batch_cell(2):
                assert batch_cell_rows() == 2
            assert batch_cell_rows() == 8
        assert batch_cell_rows() is None

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError, match=">= 1"):
            with batch_cell(0):
                pass

    def test_thread_local(self):
        seen = {}

        def worker():
            seen["inner"] = batch_cell_rows()

        with batch_cell(4):
            thread = threading.Thread(target=worker)
            thread.start()
            thread.join()
        assert seen["inner"] is None


class TestStackedForwardParity:
    """The end-to-end property the serving pipeline relies on."""

    def test_stacked_rows_bitwise_equal_solo_rows(self):
        model = MLP(input_dim=12, num_classes=5, hidden=(16, 9), rng=3)
        rows = 8
        requests = [RNG.normal(size=(rows, 12)).astype(np.float32)
                    for _ in range(6)]
        solo = [predict_probs(model, x) for x in requests]
        stacked = np.concatenate(requests, axis=0)
        with batch_cell(rows):
            batched = predict_probs(model, stacked,
                                    batch_size=len(stacked))
        for i, answer in enumerate(solo):
            assert np.array_equal(batched[i * rows:(i + 1) * rows], answer)

    def test_without_cell_stacking_may_drift_but_shape_holds(self):
        # No bitwise claim without the cell — just the sanity that the
        # hook leaves plain matmuls alone.
        model = MLP(input_dim=12, num_classes=5, hidden=(16,), rng=3)
        x = RNG.normal(size=(24, 12)).astype(np.float32)
        probs = predict_probs(model, x)
        assert probs.shape == (24, 5)
        np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-5)
