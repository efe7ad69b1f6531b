"""The single dtype policy for the whole stack.

Every float array the library creates from non-array data (python lists,
scalars, integer arrays) uses :func:`default_dtype`; float arrays passed
in keep their dtype.  The default is float32 — the dtype the paper's
Keras/TensorFlow models train in — and can be overridden:

* process-wide via the ``REPRO_DTYPE`` environment variable,
* process-wide, programmatically, via :func:`set_default_dtype`,
* for one thread within a block via the :func:`dtype_scope` context
  manager, which overrides the process default on that thread only.

The test-suite pins float64 (see ``tests/conftest.py``) so golden-run
fingerprints stay stable and finite-difference gradient checks remain
tight; gradcheck always runs in float64 regardless of the default.
"""

from __future__ import annotations

import os

import numpy as np

from repro.ops.modes import modes, state as _modes

_DEFAULT: np.dtype = np.dtype(os.environ.get("REPRO_DTYPE", "float32"))
if _DEFAULT.kind != "f":
    raise ValueError(f"REPRO_DTYPE must name a float dtype, got {_DEFAULT}")

# Real numeric kinds a Tensor may hold: float, int, unsigned int, bool.
# Everything else (object, str, bytes, void, complex, datetime) fails a
# kernel eventually — reject it at construction with a clear message.
_VALID_KINDS = frozenset("fiub")


def check_valid_dtype(dtype, context: str = "Tensor data") -> np.dtype:
    """Validate that ``dtype`` is real-numeric under the library policy.

    Mirrors MyGrad's ``_check_valid_dtype``: a clear ``TypeError`` at the
    boundary beats a cast error ten kernels deep.  Returns the resolved
    ``np.dtype`` so callers can chain on it.
    """
    resolved = np.dtype(dtype)
    if resolved.kind not in _VALID_KINDS:
        raise TypeError(
            f"{context} must be real-numeric (float/int/uint/bool); got "
            f"dtype {resolved!r}. Object, string and complex arrays are "
            "not valid Tensor payloads — convert to a numeric array first.")
    return resolved


def default_dtype() -> np.dtype:
    """The dtype used when the library materialises new float arrays."""
    scoped = _modes.dtype
    return _DEFAULT if scoped is None else scoped


def _float_dtype(dtype) -> np.dtype:
    resolved = np.dtype(dtype)
    if resolved.kind != "f":
        raise ValueError(f"default dtype must be a float dtype, got {resolved}")
    return resolved


def set_default_dtype(dtype) -> np.dtype:
    """Set the process-wide default float dtype; returns the previous one.

    A :func:`dtype_scope` open on the calling thread still wins there.
    """
    global _DEFAULT
    previous = _DEFAULT
    _DEFAULT = _float_dtype(dtype)
    return previous


def dtype_scope(dtype):
    """Switch the default float dtype for this thread within a block.

    Thread-local, like ``no_grad``: other threads — a concurrent serving
    pipeline's workers included — keep the process default.
    """
    return modes(dtype=_float_dtype(dtype))
