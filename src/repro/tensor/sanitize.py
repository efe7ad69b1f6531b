"""Runtime numerics sanitizer hooked into the registry dispatch path.

The op registry gives the whole stack one choke point —
:func:`repro.tensor.tensor.apply` — so numeric invariants can be enforced
for *every* operation without instrumenting call sites.  Inside
:func:`sanitize_mode`, each dispatch is checked after its forward kernel
(and each gradient after its backward kernel) for:

* **NaN/Inf** — a non-finite value anywhere in a float output.  Ortega et
  al. ("Diversity and Generalization in Neural Network Ensembles") show
  diversity estimates become meaningless once members diverge silently;
  this turns the silent divergence into a loud, *named* failure.
* **dtype drift** — float inputs that disagree with each other, or an
  output whose float dtype differs from its inputs'.  Exactly the bug
  class the RL003 lint rule prevents statically; the sanitizer catches
  what slips through dynamic constructors.
* **shape** — elementwise-tagged ops must produce the broadcast of their
  input shapes; every op must produce a real ndarray (or scalar).

All checks raise :class:`SanitizerError` naming the op, the failing
check, and the input shapes/dtypes, so a NaN born ten layers deep in a
DenseNet points at its kernel instead of surfacing as a garbage accuracy.

Off-path cost is one field read per dispatch (``sanitize`` on the
:mod:`repro.ops.modes` record the dispatcher binds anyway): the sanitizer
performs no op dispatches itself (raw ``np.isfinite`` only), so the taped
graph — and therefore golden-run parity — is bit-identical with it on or
off.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.ops.modes import modes, state as _modes


class SanitizerError(RuntimeError):
    """A numeric invariant failed at op dispatch.

    Attributes
    ----------
    op_name: the registered op whose kernel produced the bad value.
    check: which invariant failed (``"non-finite"``, ``"dtype-drift"``,
        ``"shape"``).
    detail: human-readable specifics (counts, shapes, dtypes).
    """

    def __init__(self, op_name: str, check: str, detail: str):
        super().__init__(f"sanitize: op '{op_name}' failed {check} check: {detail}")
        self.op_name = op_name
        self.check = check
        self.detail = detail


def sanitize_enabled() -> bool:
    """Whether op dispatches are currently being sanitized."""
    return _modes.sanitize


def sanitize_mode(enabled: bool = True):
    """Check every op dispatch for NaN/Inf, dtype drift and bad shapes.

    Nestable and thread-local (matching ``no_grad``).  Intended for CI
    golden runs, debugging diverging members, and the fault-injection
    harnesses — the checks cost roughly one extra pass over each output,
    so leave it off in benchmark timings.
    """
    return modes(sanitize=bool(enabled))


def _describe(arrays: Tuple[np.ndarray, ...]) -> str:
    rendered = ", ".join(
        f"{tuple(np.shape(a))}:{getattr(a, 'dtype', type(a).__name__)}"
        for a in arrays)
    return f"inputs [{rendered}]"


def check_forward(op, arrays: Tuple[np.ndarray, ...], params: dict,
                  out) -> None:
    """Validate a forward kernel's output; raise :class:`SanitizerError`."""
    if not isinstance(out, np.ndarray) and not np.isscalar(out):
        raise SanitizerError(
            op.name, "shape",
            f"kernel returned {type(out).__name__}, not an ndarray; "
            + _describe(arrays))
    out_arr = np.asarray(out)

    float_dtypes = [a.dtype for a in arrays
                    if isinstance(a, np.ndarray) and a.dtype.kind == "f"]
    if float_dtypes:
        first = float_dtypes[0]
        if any(d != first for d in float_dtypes[1:]):
            raise SanitizerError(
                op.name, "dtype-drift",
                "float inputs disagree; " + _describe(arrays))
        if out_arr.dtype.kind == "f" and out_arr.dtype != first:
            raise SanitizerError(
                op.name, "dtype-drift",
                f"output dtype {out_arr.dtype} != input dtype {first}; "
                + _describe(arrays))

    if "elementwise" in getattr(op, "tags", ()):
        expected = np.broadcast_shapes(
            *(a.shape for a in arrays if isinstance(a, np.ndarray)))
        if tuple(out_arr.shape) != tuple(expected):
            raise SanitizerError(
                op.name, "shape",
                f"elementwise output shape {tuple(out_arr.shape)} != "
                f"broadcast shape {tuple(expected)}; " + _describe(arrays))

    if out_arr.dtype.kind == "f" and not np.isfinite(out_arr).all():
        bad = int((~np.isfinite(out_arr)).sum())
        raise SanitizerError(
            op.name, "non-finite",
            f"forward output shape {tuple(out_arr.shape)} contains {bad} "
            "NaN/Inf value(s); " + _describe(arrays))


def check_backward(op, grads, parents) -> None:
    """Validate the gradients a backward kernel returned."""
    for index, grad in enumerate(grads):
        if grad is None:
            continue
        grad_arr = np.asarray(grad)
        if grad_arr.dtype.kind == "f" and not np.isfinite(grad_arr).all():
            bad = int((~np.isfinite(grad_arr)).sum())
            parent_shape: Optional[tuple] = None
            if index < len(parents):
                parent_shape = tuple(parents[index].shape)
            raise SanitizerError(
                op.name, "non-finite",
                f"backward gradient #{index} (toward input shape "
                f"{parent_shape}) contains {bad} NaN/Inf value(s)")
