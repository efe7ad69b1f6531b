"""The per-thread inference switch.

When enabled (together with :func:`repro.tensor.no_grad`), the tensor
dispatcher runs registry forwards on raw ndarrays and wraps results in
lightweight graph-free views instead of full ``Tensor`` nodes, and
``BatchNorm`` and ``Dropout`` behave as in eval mode whatever their
``training`` flag says — so prediction never has to flip shared module
state.  The flag lives here — below the tensor layer — so kernels, the
dispatcher and the layers can consult it without import cycles.
"""

from __future__ import annotations

import contextlib
import threading


class _State(threading.local):
    # A class default, so an unset thread reads it without a failed lookup.
    fastpath = False


_state = _State()


def fastpath_enabled() -> bool:
    """Whether this thread is inside :func:`repro.tensor.inference_mode`."""
    return _state.fastpath


@contextlib.contextmanager
def _fastpath(enabled: bool = True):
    """Internal toggle; use :func:`repro.tensor.inference_mode` instead."""
    previous = _state.fastpath
    _state.fastpath = enabled
    try:
        yield
    finally:
        _state.fastpath = previous
