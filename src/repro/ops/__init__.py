"""Registry-based differentiable op layer.

Importing this package registers every kernel module.  The tensor layer
(:mod:`repro.tensor.tensor`) dispatches through :func:`get_op`; kernels
here operate purely on numpy arrays and never import the tensor layer.
"""

from repro.ops.registry import Op, OpContext, get_op, register, registered_ops
from repro.ops.profiler import OpProfiler, current_profiler, profile_ops
from repro.ops.modes import fastpath_enabled

# Kernel modules register themselves on import.
from repro.ops import arithmetic as _arithmetic  # noqa: F401
from repro.ops import elementwise as _elementwise  # noqa: F401
from repro.ops import shape as _shape  # noqa: F401
from repro.ops import reduce as _reduce  # noqa: F401
from repro.ops import conv as _conv  # noqa: F401
from repro.ops import norm as _norm  # noqa: F401
from repro.ops import fused as _fused  # noqa: F401

__all__ = [
    "Op",
    "OpContext",
    "OpProfiler",
    "current_profiler",
    "fastpath_enabled",
    "get_op",
    "profile_ops",
    "register",
    "registered_ops",
]
