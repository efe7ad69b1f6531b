"""A pool of reusable scratch buffers for allocation-heavy kernels.

``im2col`` materialises a patch matrix that is usually the single largest
allocation of a training step; with fixed batch shapes the same-sized
buffer is re-allocated every call.  The pool hands such buffers out and
takes them back, so steady-state training/inference does one allocation
per distinct shape instead of one per call.

Ownership protocol: a kernel ``acquire``s a buffer in its forward pass and
records it in ``ctx.workspaces``; the tensor dispatcher ``release``s it as
soon as the op's backward has run (or immediately when the op is not
taped, e.g. under the inference fast path).  Buffers referenced by a graph
that is never backpropagated are simply garbage-collected — the pool only
tracks free buffers, never checked-out ones.

Thread safety: the free lists are **thread-local** — the ``free`` dict of
the per-thread :mod:`repro.ops.modes` record.  Serving runs member
forwards on several threads at once (the batcher's pump, clients served
without batching, the executor's deadline pool), and a shared free list
would let two conv kernels pop the *same* buffer and overwrite each
other's patch matrices mid-GEMM.  Per-thread pools make acquire/release
lock-free and race-free; the acquire→release pair always happens on one
thread (the dispatcher releases in the same call stack that acquired), so
buffers never migrate between pools.  The cost is one steady-state buffer
set per thread that runs members: the pump, the deadline pool's workers,
and each client thread served with ``batching=False``.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

import numpy as np

from repro.ops.modes import state as _modes

_MAX_PER_KEY = 8


def _free() -> Dict[Tuple[tuple, np.dtype], List[np.ndarray]]:
    """This thread's free lists (created empty on first touch)."""
    return _modes.free


def acquire(shape: tuple, dtype) -> np.ndarray:
    """Return an uninitialised buffer of ``shape``/``dtype`` from the pool."""
    key = (tuple(shape), np.dtype(dtype))
    stack = _free().get(key)
    if stack:
        return stack.pop()
    return np.empty(shape, dtype=dtype)


def release(array: np.ndarray) -> None:
    """Return a buffer acquired via :func:`acquire` to the pool."""
    key = (array.shape, array.dtype)
    stack = _free().setdefault(key, [])
    if len(stack) < _MAX_PER_KEY:
        stack.append(array)


def clear() -> None:
    """Drop this thread's pooled buffers (tests; memory pressure)."""
    _free().clear()


def pooled_bytes() -> int:
    """Total bytes currently held by this thread's free pooled buffers."""
    return sum(b.nbytes for stack in _free().values() for b in stack)
