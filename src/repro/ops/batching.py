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
every 2-D ``matmul`` and ``linear`` dispatch computes its product in
independent row blocks of exactly ``R`` rows (both call
:func:`cell_matmul`)::

    out[i : i + R] = x[i : i + R] @ y        # one BLAS call per block

Each block is the very GEMM a solo request of ``R`` rows would have run —
same shapes, same strides, same kernel — so batched results are
bit-identical to solo results *by construction*, on any BLAS build.  The
scheduler only coalesces requests of equal row count, which makes every
block boundary a request boundary.

The declared cell is the ``cell`` field of the per-thread
:mod:`repro.ops.modes` record (each thread that runs members batches
independently) and costs one attribute read on the hot path when
disabled.
Higher-rank matmuls (e.g. conv's ``w_mat @ cols`` with a leading sample
axis) are left untouched: numpy lowers them to one 2-D GEMM per sample
already, so their geometry never depends on how many samples are stacked.
"""

from __future__ import annotations

from typing import ContextManager, Optional

import numpy as np

from repro.ops.modes import modes, state as _modes

__all__ = ["batch_cell", "batch_cell_rows", "blocked_matmul", "cell_matmul"]


def batch_cell_rows() -> Optional[int]:
    """The active cell size (rows per request), or None when disabled."""
    return _modes.cell


def batch_cell(rows: int) -> ContextManager[None]:
    """Declare that stacked activations are ``rows``-row request cells.

    While active, 2-D products run block-by-block at this row
    count (see module docstring).  Nests; ``rows`` must be positive.
    """
    rows = int(rows)
    if rows < 1:
        raise ValueError(f"batch cell must be >= 1 row, got {rows}")
    return modes(cell=rows)


def blocked_matmul(x: np.ndarray, y: np.ndarray, cell: int) -> np.ndarray:
    """``x @ y`` computed in independent ``cell``-row blocks of ``x``.

    Equivalent in exact arithmetic; in floating point each block is
    bit-identical to a standalone ``x[i:i+cell] @ y``.  The whole blocks
    run as one stacked matmul over a ``(blocks, cell, K)`` view of ``x``:
    numpy issues one GEMM per leading index, each with the block's own
    shape and strides, so the per-block kernels are the solo ones without
    a Python loop around them.  A trailing partial block runs at its own
    (smaller) row count — matching the solo execution of a request that
    genuinely had fewer rows.
    """
    n = x.shape[0]
    if n <= cell:
        return x @ y
    full = n - n % cell
    head = np.matmul(x[:full].reshape(full // cell, cell, x.shape[1]), y)
    head = head.reshape(full, y.shape[1])
    if full == n:
        return head
    return np.concatenate((head, x[full:] @ y))


def cell_matmul(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """``x @ y``, blocked at the declared batch cell when one is active.

    Only 2-D products with more rows than the cell are blocked; anything
    else is one plain GEMM (see the module docstring).
    """
    cell = _modes.cell
    if cell is not None and x.ndim == 2 and y.ndim == 2 and \
            x.shape[0] > cell:
        return blocked_matmul(x, y, cell)
    return x @ y
