"""A pool of reusable scratch buffers for allocation-heavy kernels.

``im2col`` materialises a patch matrix that is usually the single largest
allocation of a training step; with fixed batch shapes the same-sized
buffer is re-allocated every call.  The pool hands such buffers out and
takes them back, so steady-state training does one allocation per
distinct shape instead of one per call.

The free lists are keyed by a buffer's trailing shape and dtype, not
its row count.  A request gets a free buffer of exactly its shape
itself, or else the leading rows of the smallest larger one — a
C-contiguous view, fully overwritten by the unfold that asked for it —
so the ragged last batch of an epoch reuses the full batch's buffers
instead of pooling a second, smaller set.  A request larger than every
free buffer of its key allocates a new one and drops the smaller ones;
``release`` takes a leading-rows view back as the buffer that owns it.
Buffers live as long as one training loop:
:func:`repro.core.trainer.train_model` empties the pool when its loop
ends, so none sit under the evaluation that follows.

Ownership protocol: only a taped forward calls ``acquire`` (the op's
``ctx.taped``, decided by the dispatcher before the forward), and it
records the buffer in ``ctx.workspaces``.  A pooled buffer lives only
from that forward to the backward that consumes it: the tensor
dispatcher's backward loop is the one caller of ``release``.  An untaped
forward (``no_grad``, ``inference_mode``, evaluation, serving) never
touches the pool: it unfolds into its own ``np.empty`` blocks (see
:mod:`repro.ops.conv`), so it neither retains evaluation-shaped patch
matrices nor pops a pooled training buffer of the same shape (see
``docs/architecture.md`` for the measured peak RSS).  Buffers referenced
by a graph that is never backpropagated are simply garbage-collected —
the pool only tracks free buffers, never checked-out ones.

Thread safety: the free lists are **thread-local** — the ``free`` dict of
the per-thread :mod:`repro.ops.modes` record.  Forwards run on several
threads at once, and a shared free list would let two conv kernels pop
the *same* buffer and overwrite each other's patch matrices mid-GEMM.
Per-thread pools make acquire/release lock-free and race-free; a buffer
goes back to the pool of the thread that runs the backward.  Only threads
that run taped graphs hold buffers: serving threads (the batcher's pump,
the deadline pool's workers, clients served with ``batching=False``) run
untaped member forwards and pool nothing.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

import numpy as np

from repro.ops.modes import state as _modes

_MAX_PER_KEY = 8


def _free() -> Dict[Tuple[tuple, np.dtype], List[np.ndarray]]:
    """This thread's free lists by (trailing shape, dtype), created empty."""
    return _modes.free


def acquire(shape: tuple, dtype) -> np.ndarray:
    """Return an uninitialised buffer of ``shape``/``dtype`` from the pool.

    A free buffer of exactly ``shape`` is returned itself; otherwise the
    leading rows of the smallest larger free buffer of the same trailing
    shape.  A request larger than every free buffer of its key allocates
    a new one and drops the smaller free ones.
    """
    rows = shape[0]
    stack = _free().get((tuple(shape[1:]), np.dtype(dtype)))
    if stack:
        sizes = [len(free) for free in stack]
        fits = [size for size in sizes if size >= rows]
        if fits:
            buffer = stack.pop(sizes.index(min(fits)))
            return buffer if len(buffer) == rows else buffer[:rows]
        stack.clear()
    return np.empty(shape, dtype=dtype)


def release(array: np.ndarray) -> None:
    """Return a buffer acquired via :func:`acquire` to the pool.

    A leading-rows view goes back as the buffer that owns it.
    """
    owner = array.base
    if isinstance(owner, np.ndarray) and owner.shape[1:] == array.shape[1:]:
        array = owner
    stack = _free().setdefault((array.shape[1:], array.dtype), [])
    if len(stack) < _MAX_PER_KEY:
        stack.append(array)


def clear() -> None:
    """Drop this thread's pooled buffers (a training loop's end; tests)."""
    _free().clear()


def pooled_bytes() -> int:
    """Total bytes currently held by this thread's free pooled buffers."""
    return sum(b.nbytes for stack in _free().values() for b in stack)
