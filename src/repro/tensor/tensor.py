"""The :class:`Tensor` class: a numpy array plus a reverse-mode tape.

Design notes
------------
* Every differentiable operation dispatches through the op registry
  (:mod:`repro.ops.registry`): :func:`apply` looks up the named kernel,
  runs its ``forward`` on the raw arrays, and records the resulting
  :class:`~repro.ops.registry.OpContext` on the output tensor.
* ``backward()`` topologically sorts the tape and runs each op's
  registered ``backward`` kernel once, accumulating the returned
  gradients into the parents.  The tape is freed as it is consumed:
  once a node's backward has run, its parent links and saved context are
  dropped so intermediate activations become collectable immediately.
* Gradients accumulate (``+=``), so a tensor used twice receives the sum
  of both contributions — required by residual and dense connectivity.
* A per-thread mode (:func:`no_grad`, a field of the
  :mod:`repro.ops.modes` record) disables taping for inference;
  :func:`inference_mode` additionally routes kernel outputs into
  lightweight :class:`ArrayView` wrappers that skip all graph
  bookkeeping, which matters because ensemble evaluation dominates
  benchmark runtime.
* Dtype policy lives in :mod:`repro.tensor.dtypes`: float arrays keep
  their dtype, everything else is materialised as the default float
  dtype (float32 unless overridden; the test-suite pins float64).
"""

from __future__ import annotations

import contextlib
from time import perf_counter
from typing import Optional, Sequence, Tuple, Union

import numpy as np

from repro.ops import workspace as _workspace
from repro.ops.modes import modes, state as _modes
from repro.ops.reduce import sum_to_shape
from repro.ops.registry import OpContext, get_op
from repro.tensor import sanitize as _sanitize
from repro.tensor.dtypes import check_valid_dtype, default_dtype

# Importing the package registers every kernel module.
import repro.ops  # noqa: F401  (registration side effect)

ArrayLike = Union[np.ndarray, float, int, Sequence]


def is_grad_enabled() -> bool:
    """Return whether operations are currently being recorded on the tape."""
    return _modes.grad


def no_grad():
    """Context manager that disables gradient taping (inference mode)."""
    return modes(grad=False)


def inference_mode():
    """``no_grad`` plus the registry fast path, in eval mode.

    Inside this context, op outputs are wrapped in :class:`ArrayView` —
    graph-free tensors created without any autograd bookkeeping — so a
    forward pass is essentially a chain of raw numpy kernel calls.
    ``BatchNorm`` and ``Dropout`` run as in eval mode on this thread,
    without touching any module's ``training`` flag.  Entering it on a
    thread already inside is a null context: there is no state to set
    or restore.
    """
    if _modes.fastpath and not _modes.grad:
        return contextlib.nullcontext()
    return modes(grad=False, fastpath=True)


def _as_array(data: ArrayLike, dtype=None) -> np.ndarray:
    if dtype is not None:
        check_valid_dtype(dtype)
        return np.asarray(data, dtype=dtype)
    existing = getattr(data, "dtype", None)
    if existing is not None:
        check_valid_dtype(existing)
        if existing.kind == "f":
            return np.asarray(data)
        return np.asarray(data, dtype=default_dtype())
    # Python data (lists, scalars): materialise once so non-numeric
    # payloads (strings, objects, ragged lists) fail here with a clear
    # error instead of deep in a kernel with a numpy cast message, then
    # deliver in the default float dtype.
    materialised = np.asarray(data)
    check_valid_dtype(materialised.dtype)
    return materialised.astype(default_dtype(), copy=False)


def apply(name: str, inputs: Tuple["Tensor", ...], **params) -> "Tensor":
    """Dispatch op ``name`` on ``inputs`` through the registry.

    Runs the registered forward kernel on the raw arrays, then either
    tapes the result (recording the op context and parent links for
    ``backward()``) or — when gradients are off — returns an untaped
    tensor, using the bookkeeping-free :class:`ArrayView` under
    :func:`inference_mode`.
    """
    op = get_op(name)
    ctx = OpContext()
    ctx.needs = needs = tuple(t.requires_grad for t in inputs)
    arrays = tuple(t.data for t in inputs)

    mode = _modes
    # Decided before the forward, so an untaped kernel can skip what only
    # a backward needs (saved arrays, pooled buffers, full-size blocks).
    ctx.taped = taped = mode.grad and any(needs)
    prof = mode.profiler
    if prof is None:
        data = op.forward(ctx, *arrays, **params)
    else:
        started = perf_counter()
        data = op.forward(ctx, *arrays, **params)
        prof.record_forward(name, perf_counter() - started,
                            getattr(data, "nbytes", 0))

    if mode.sanitize:
        _sanitize.check_forward(op, arrays, params, data)

    if taped:
        out = Tensor(data, requires_grad=True)
        out._parents = inputs
        out._ctx = ctx
        out._opref = op
        out._op = name
        return out

    # Untaped: no backward will consume the context, and the kernel took
    # nothing from the workspace pool.
    if mode.fastpath:
        if not isinstance(data, np.ndarray):
            data = np.asarray(data)
        return ArrayView(data)
    return Tensor(data)


class Tensor:
    """A numpy array with reverse-mode autodiff support.

    Parameters
    ----------
    data:
        Array-like payload.  Float arrays keep their dtype; other inputs
        are converted to the default float dtype (see
        :mod:`repro.tensor.dtypes`).  Non-numeric payloads (object,
        string, complex arrays) are rejected with a ``TypeError`` here
        rather than failing later inside a kernel.
    requires_grad:
        Whether gradients should flow into this tensor.  Leaf tensors with
        ``requires_grad=True`` act as trainable parameters.
    dtype:
        Optional explicit dtype; must be real-numeric under the policy in
        :mod:`repro.tensor.dtypes`.
    """

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_ctx",
                 "_opref", "_op", "__weakref__")

    def __init__(self, data: ArrayLike, requires_grad: bool = False,
                 dtype=None):
        self.data = _as_array(data, dtype=dtype)
        self.grad: Optional[np.ndarray] = None
        self.requires_grad = bool(requires_grad)
        self._parents: Tuple[Tensor, ...] = ()
        self._ctx: Optional[OpContext] = None
        self._opref = None
        self._op: str = "leaf"

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @staticmethod
    def ensure(value: Union["Tensor", ArrayLike]) -> "Tensor":
        """Coerce ``value`` into a (non-differentiable) Tensor if needed."""
        if isinstance(value, Tensor):
            return value
        return Tensor(value)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def shape(self) -> Tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    def numpy(self) -> np.ndarray:
        """Return the underlying array (shared, not copied)."""
        return self.data

    def item(self) -> float:
        return float(self.data.reshape(-1)[0]) if self.data.size == 1 else float(self.data)

    def detach(self) -> "Tensor":
        """Return a new tensor sharing data but cut from the tape."""
        return Tensor(self.data, requires_grad=False)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        flag = ", grad" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}, op={self._op}{flag})"

    def __len__(self) -> int:
        return len(self.data)

    # ------------------------------------------------------------------
    # Gradient machinery
    # ------------------------------------------------------------------
    def zero_grad(self) -> None:
        self.grad = None

    def _accumulate(self, grad: np.ndarray) -> None:
        grad = sum_to_shape(np.asarray(grad, dtype=self.data.dtype), self.data.shape)
        if self.grad is None:
            self.grad = grad.copy()
        else:
            self.grad += grad

    def backward(self, grad: Optional[ArrayLike] = None) -> None:
        """Run reverse-mode autodiff from this tensor.

        The tape is consumed during the walk, not only after it: as
        soon as a node's backward has run, its parent links, op context
        and pooled workspaces are released and the walk drops its own
        reference to it, so an intermediate no caller holds (with its
        activation and gradient) is collectable before the next node's
        backward runs.  A tensor the caller still holds keeps its
        ``.data`` and ``.grad``.  A second ``backward()`` through the
        same graph is therefore not possible — build a fresh graph
        instead (the trainers always do).

        Parameters
        ----------
        grad:
            Gradient of the final objective w.r.t. this tensor.  Defaults
            to 1 for scalar tensors (the usual loss case).
        """
        if not self.requires_grad:
            raise RuntimeError("backward() called on a tensor that does not require grad")
        if grad is None:
            if self.data.size != 1:
                raise RuntimeError("grad must be provided for non-scalar backward()")
            grad = np.ones_like(self.data)
        grad = np.asarray(grad, dtype=self.data.dtype)
        if grad.shape != self.data.shape:
            grad = np.broadcast_to(grad, self.data.shape).astype(self.data.dtype)

        order: list[Tensor] = []
        seen: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                order.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if parent.requires_grad and id(parent) not in seen:
                    stack.append((parent, False))

        self._accumulate(grad)
        mode = _modes
        prof = mode.profiler
        sanitizing = mode.sanitize
        while order:
            node = order.pop()
            ctx = node._ctx
            if ctx is None:
                continue
            op = node._opref
            if node.grad is not None:
                if prof is None:
                    grads = op.backward(ctx, node.grad)
                else:
                    started = perf_counter()
                    grads = op.backward(ctx, node.grad)
                    prof.record_backward(op.name, perf_counter() - started)
                if sanitizing:
                    _sanitize.check_backward(op, grads, node._parents)
                for parent, parent_grad in zip(node._parents, grads):
                    if parent_grad is not None and parent.requires_grad:
                        parent._accumulate(parent_grad)
            # Free the tape as it is consumed: drop saved activations and
            # return pooled workspaces (the only place buffers go back to
            # the pool) so memory is reclaimed immediately.
            for buffer in ctx.workspaces:
                _workspace.release(buffer)
            node._parents = ()
            node._ctx = None
            node._opref = None

    # ------------------------------------------------------------------
    # Arithmetic ops
    # ------------------------------------------------------------------
    def __add__(self, other):
        return apply("add", (self, Tensor.ensure(other)))

    __radd__ = __add__

    def __neg__(self):
        return apply("neg", (self,))

    def __sub__(self, other):
        return apply("sub", (self, Tensor.ensure(other)))

    def __rsub__(self, other):
        return Tensor.ensure(other).__sub__(self)

    def __mul__(self, other):
        return apply("mul", (self, Tensor.ensure(other)))

    __rmul__ = __mul__

    def __truediv__(self, other):
        return apply("div", (self, Tensor.ensure(other)))

    def __rtruediv__(self, other):
        return Tensor.ensure(other).__truediv__(self)

    def __pow__(self, exponent: float):
        if not isinstance(exponent, (int, float)):
            raise TypeError("only scalar exponents are supported")
        return apply("pow", (self,), exponent=exponent)

    def __matmul__(self, other):
        return apply("matmul", (self, Tensor.ensure(other)))

    # ------------------------------------------------------------------
    # Shape ops
    # ------------------------------------------------------------------
    def reshape(self, *shape) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        return apply("reshape", (self,), shape=shape)

    def transpose(self, *axes) -> "Tensor":
        if len(axes) == 1 and isinstance(axes[0], (tuple, list)):
            axes = tuple(axes[0])
        if not axes:
            axes = tuple(reversed(range(self.ndim)))
        return apply("transpose", (self,), axes=axes)

    def __getitem__(self, index) -> "Tensor":
        return apply("getitem", (self,), index=index)

    # ------------------------------------------------------------------
    # Reductions
    # ------------------------------------------------------------------
    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        return apply("sum", (self,), axis=axis, keepdims=keepdims)

    def mean(self, axis=None, keepdims: bool = False) -> "Tensor":
        if axis is None:
            count = self.data.size
        else:
            axes = axis if isinstance(axis, tuple) else (axis,)
            count = int(np.prod([self.data.shape[a] for a in axes]))
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / count)

    def max(self, axis: int, keepdims: bool = False) -> "Tensor":
        return apply("max", (self,), axis=axis, keepdims=keepdims)

    # ------------------------------------------------------------------
    # Elementwise nonlinearities
    # ------------------------------------------------------------------
    def exp(self) -> "Tensor":
        return apply("exp", (self,))

    def log(self) -> "Tensor":
        return apply("log", (self,))

    def sqrt(self) -> "Tensor":
        return self ** 0.5

    def tanh(self) -> "Tensor":
        return apply("tanh", (self,))

    def sigmoid(self) -> "Tensor":
        return apply("sigmoid", (self,))

    def relu(self) -> "Tensor":
        return apply("relu", (self,))

    def clip(self, low: float, high: float) -> "Tensor":
        return apply("clip", (self,), low=low, high=high)


class ArrayView(Tensor):
    """A graph-free tensor wrapper used by the inference fast path.

    Skips dtype coercion and all autograd bookkeeping, so model code
    written against ``Tensor`` (and its ``isinstance`` checks) runs
    unchanged on raw kernel outputs.
    """

    __slots__ = ()

    def __init__(self, data: np.ndarray):
        self.data = data
        self.grad = None
        self.requires_grad = False
        self._parents = ()
        self._ctx = None
        self._opref = None
        self._op = "view"
