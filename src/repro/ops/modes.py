"""Every per-thread mode of the op and tensor stack, in one record.

The dispatcher (:func:`repro.tensor.tensor.apply`) serves training and
serving alike; which of its behaviours runs is chosen by a handful of
per-thread switches.  They all live on one :class:`Modes` record, so
``apply`` binds one object and reads its fields, and a new per-thread
mode is a new field here — never another ``threading.local``.

Fields (class defaults, so an unset thread reads them without a failed
lookup):

* ``grad`` — record ops on the tape (:func:`repro.tensor.no_grad`);
* ``fastpath`` — the inference fast path: graph-free ``ArrayView``
  outputs, and ``BatchNorm``/``Dropout`` in eval mode
  (:func:`repro.tensor.inference_mode`);
* ``sanitize`` — check every dispatch (:func:`repro.tensor.sanitize_mode`);
* ``fused`` — loss wrappers dispatch the fused kernels
  (:func:`repro.ops.fused.use_fused`);
* ``cell`` — the declared batch cell in rows, or None
  (:func:`repro.ops.batching.batch_cell`);
* ``profiler`` — the :class:`~repro.ops.profiler.OpProfiler` collecting
  this thread's dispatches, or None (:func:`repro.ops.profiler.profile_ops`);
* ``dtype`` — a :func:`repro.tensor.dtype_scope` override of the default
  float dtype, or None.

The record also holds the thread's workspace free lists (``free``, see
:mod:`repro.ops.workspace`), which are state rather than a mode, so
:func:`modes` does not set them.  The record sits below the tensor layer
so kernels, the dispatcher and the layers can read it without import
cycles.
"""

from __future__ import annotations

import contextlib
import threading

__all__ = ["Modes", "fastpath_enabled", "modes", "state"]


class Modes(threading.local):
    """This thread's modes; see the module docstring for each field."""

    grad = True
    fastpath = False
    sanitize = False
    fused = True
    cell = None
    profiler = None
    dtype = None

    def __init__(self):
        # ``threading.local`` runs ``__init__`` once per thread, on first
        # touch, so each thread gets its own free lists.
        self.free = {}


_FIELDS = frozenset(("grad", "fastpath", "sanitize", "fused", "cell",
                     "profiler", "dtype"))

#: The one per-thread record.
state = Modes()


@contextlib.contextmanager
def modes(**fields):
    """Set the named fields on this thread within a block.

    Exactly those fields are restored on exit, raise included, so scopes
    nest.  A name that is not a field raises ``TypeError`` — a misspelt
    mode would otherwise be a silent no-op.
    """
    for name in fields:
        if name not in _FIELDS:
            raise TypeError(f"modes() got an unknown field {name!r}; "
                            f"fields are {sorted(_FIELDS)}")
    previous = {name: getattr(state, name) for name in fields}
    for name, value in fields.items():
        setattr(state, name, value)
    try:
        yield
    finally:
        for name, value in previous.items():
            setattr(state, name, value)


def fastpath_enabled() -> bool:
    """Whether this thread is inside :func:`repro.tensor.inference_mode`."""
    return state.fastpath
