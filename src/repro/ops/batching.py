"""Batch-invariant GEMM blocking for micro-batched serving.

Coalescing several serving requests into one stacked forward pass is the
classic ensemble-serving throughput lever, but a naive row-stack is *not*
bit-identical to solo execution: BLAS picks its GEMM kernel (blocking,
packing, vectorisation strategy) from the full ``M×K×N`` problem shape,
so ``(A @ B)[:m]`` and ``A[:m] @ B`` may differ in the last ulp — and the
serving contract promises byte-for-byte parity between a batched answer
and the same request served alone.

The fix is to make the GEMM geometry a function of the *request*, not the
batch: while a batch cell size ``R`` is declared (via :func:`batch_cell`),
every 2-D ``matmul`` dispatch computes its output in independent row
blocks of exactly ``R`` rows::

    out[i : i + R] = x[i : i + R] @ y        # one BLAS call per block

Each block is the very GEMM a solo request of ``R`` rows would have run —
same shapes, same strides, same kernel — so batched results are
bit-identical to solo results *by construction*, on any BLAS build.  The
scheduler only coalesces requests of equal row count, which makes every
block boundary a request boundary.

The declared cell is thread-local (each thread that runs members
batches independently) and costs one attribute read on the hot path
when disabled.
Higher-rank matmuls (e.g. conv's ``w_mat @ cols`` with a leading sample
axis) are left untouched: numpy lowers them to one 2-D GEMM per sample
already, so their geometry never depends on how many samples are stacked.
"""

from __future__ import annotations

import contextlib
import threading
from typing import Iterator, Optional

import numpy as np


class _State(threading.local):
    # A class default, so an unset thread reads it without a failed lookup.
    cell: Optional[int] = None


_state = _State()

__all__ = ["batch_cell", "batch_cell_rows", "blocked_matmul"]


def batch_cell_rows() -> Optional[int]:
    """The active cell size (rows per request), or None when disabled."""
    return _state.cell


@contextlib.contextmanager
def batch_cell(rows: int) -> Iterator[None]:
    """Declare that stacked activations are ``rows``-row request cells.

    While active, 2-D matmul forwards run block-by-block at this row
    count (see module docstring).  Nests; ``rows`` must be positive.
    """
    rows = int(rows)
    if rows < 1:
        raise ValueError(f"batch cell must be >= 1 row, got {rows}")
    previous = batch_cell_rows()
    _state.cell = rows
    try:
        yield
    finally:
        _state.cell = previous


def blocked_matmul(x: np.ndarray, y: np.ndarray, cell: int) -> np.ndarray:
    """``x @ y`` computed in independent ``cell``-row blocks of ``x``.

    Equivalent in exact arithmetic; in floating point each block is
    bit-identical to a standalone ``x[i:i+cell] @ y``.  A trailing
    partial block runs at its own (smaller) row count — matching the
    solo execution of a request that genuinely had fewer rows.
    """
    n = x.shape[0]
    if n <= cell:
        return x @ y
    first = x[:cell] @ y
    out = np.empty((n,) + first.shape[1:], dtype=first.dtype)
    out[:cell] = first
    for start in range(cell, n, cell):
        out[start:start + cell] = x[start:start + cell] @ y
    return out
