"""The op registry: every differentiable operation as a named kernel.

An :class:`Op` is a module-level ``forward``/``backward`` pair registered
under a stable name.  The tensor layer (:mod:`repro.tensor.tensor`)
dispatches through this registry instead of defining per-call closures, so
ops can be introspected, timed (:mod:`repro.ops.profiler`), swapped (the
fused-kernel toggle in :mod:`repro.ops.fused`), and executed without any
autograd bookkeeping (the inference fast path).

Kernel contract
---------------
``forward(ctx, *arrays, **params) -> np.ndarray``
    Operates on raw numpy arrays.  Anything the backward pass needs is
    stashed as attributes on ``ctx`` (an :class:`OpContext`).  ``params``
    are non-differentiable arguments (axes, strides, labels, ...).
``backward(ctx, grad) -> tuple[Optional[np.ndarray], ...]``
    Returns one gradient per forward input, aligned positionally; ``None``
    marks inputs that need no gradient.  ``ctx.needs`` (a tuple of bools,
    set by the dispatcher) says which inputs require gradients so kernels
    can skip dead work.

Kernels never import the tensor layer — the dependency points strictly
from :mod:`repro.tensor` down to :mod:`repro.ops`.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Tuple

import numpy as np

ForwardFn = Callable[..., np.ndarray]
BackwardFn = Callable[..., Tuple[Optional[np.ndarray], ...]]


class OpContext:
    """Per-call scratch space linking a forward pass to its backward.

    Kernels attach whatever they need (saved arrays, masks, shapes) as
    plain attributes.  Three attributes have dispatcher-level meaning:

    ``needs``
        Tuple of bools — which inputs require gradients.
    ``taped``
        Whether the output is recorded for a backward (grad mode on and
        some input needs a gradient), set before the forward runs.  An
        untaped forward saves nothing for a backward and takes nothing
        from the workspace pool.
    ``workspaces``
        Tuple of pooled buffers (see :mod:`repro.ops.workspace`) checked
        out by a taped forward; the dispatcher returns them to the pool
        once the backward pass has consumed them.
    """

    needs: Tuple[bool, ...] = ()
    taped: bool = False
    workspaces: tuple = ()


class Op:
    """A registered operation: name + forward/backward kernels."""

    __slots__ = ("name", "forward", "backward", "tags")

    def __init__(self, name: str, forward: ForwardFn,
                 backward: Optional[BackwardFn], tags: Tuple[str, ...] = ()):
        self.name = name
        self.forward = forward
        self.backward = backward
        self.tags = tags

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Op({self.name!r})"


_OPS: Dict[str, Op] = {}


def register(name: str, forward: ForwardFn,
             backward: Optional[BackwardFn] = None,
             tags: Tuple[str, ...] = ()) -> Op:
    """Register (or deliberately replace) the kernel pair for ``name``.

    Re-registration is allowed so tests and experiments can swap an op's
    implementation; production code registers each name exactly once at
    import time.
    """
    op = Op(name, forward, backward, tags)
    _OPS[name] = op
    return op


def get_op(name: str) -> Op:
    try:
        return _OPS[name]
    except KeyError:
        raise KeyError(
            f"unknown op '{name}'; registered: {sorted(_OPS)}") from None


def registered_ops() -> Dict[str, Op]:
    """A snapshot of the registry (name -> Op)."""
    return dict(_OPS)
