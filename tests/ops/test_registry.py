"""The op registry, the per-op profiler, and the dispatcher contract."""

import threading

import numpy as np
import pytest

from repro.nn import functional as F
from repro.ops import (
    get_op,
    profile_ops,
    register,
    registered_ops,
)
from repro.ops.registry import OpContext
from repro.tensor import Tensor, apply, no_grad


class TestRegistry:
    def test_core_ops_are_registered(self):
        names = registered_ops()
        for name in ("add", "mul", "matmul", "relu", "softmax", "sum",
                     "conv2d", "conv1d", "max_pool2d", "dropout",
                     "softmax_cross_entropy", "edde_loss"):
            assert name in names, name

    def test_unknown_op_raises_with_listing(self):
        with pytest.raises(KeyError, match="unknown op 'no_such_op'"):
            get_op("no_such_op")

    def test_fused_kernels_are_tagged(self):
        assert "fused" in get_op("softmax_cross_entropy").tags
        assert "fused" in get_op("edde_loss").tags

    def test_custom_op_dispatches_through_apply(self):
        def forward(ctx, x):
            ctx.x = x
            return x * x

        def backward(ctx, grad):
            return (2.0 * ctx.x * grad,)

        register("test_square", forward, backward)
        try:
            x = Tensor(np.array([1.0, -2.0, 3.0]), requires_grad=True)
            out = apply("test_square", (x,))
            np.testing.assert_allclose(out.data, [1.0, 4.0, 9.0])
            out.sum().backward()
            np.testing.assert_allclose(x.grad, [2.0, -4.0, 6.0])
        finally:
            from repro.ops.registry import _OPS
            _OPS.pop("test_square", None)

    def test_needs_reflects_requires_grad(self):
        seen = {}

        def forward(ctx, a, b):
            seen["needs"] = ctx.needs
            return a + b

        register("test_needs", forward, lambda ctx, grad: (grad, grad))
        try:
            a = Tensor(np.ones(2), requires_grad=True)
            b = Tensor(np.ones(2))
            apply("test_needs", (a, b))
            assert seen["needs"] == (True, False)
        finally:
            from repro.ops.registry import _OPS
            _OPS.pop("test_needs", None)


class TestProfiler:
    def test_records_forward_and_backward(self):
        x = Tensor(np.ones((3, 3)), requires_grad=True)
        with profile_ops() as prof:
            ((x * 2.0).relu().sum()).backward()
        summary = prof.summary()
        assert summary["mul"]["forward_calls"] == 1
        assert summary["mul"]["backward_calls"] == 1
        assert summary["relu"]["forward_calls"] == 1
        assert summary["mul"]["output_bytes"] == x.data.nbytes
        assert prof.total_seconds() >= 0.0

    def test_no_grad_forwards_still_counted(self):
        x = Tensor(np.ones(4))
        with profile_ops() as prof:
            with no_grad():
                (x + x).exp()
        summary = prof.summary()
        assert summary["add"]["forward_calls"] == 1
        assert summary["add"]["backward_calls"] == 0

    def test_inactive_by_default(self):
        from repro.ops import profiler

        assert profiler.current_profiler() is None
        with profile_ops() as prof:
            assert profiler.current_profiler() is prof
        assert profiler.current_profiler() is None

    def test_other_threads_ops_stay_out(self):
        """A profile records its own thread's ops, never another's."""
        def convolve():
            x = Tensor(np.ones((2, 3, 6, 6)), requires_grad=True)
            w = Tensor(np.ones((4, 3, 3, 3)), requires_grad=True)
            F.conv2d(x, w, padding=1).sum().backward()

        with profile_ops() as prof:
            worker = threading.Thread(target=convolve)
            worker.start()
            worker.join()
            (Tensor(np.ones(4)) * 2.0).sum()
        summary = prof.summary()
        assert "conv2d" not in summary
        assert summary["mul"]["forward_calls"] == 1

    def test_format_table_renders(self):
        x = Tensor(np.ones(4), requires_grad=True)
        with profile_ops() as prof:
            (x * x).sum().backward()
        table = prof.format_table(top=5)
        assert "mul" in table and "fwd calls" in table


class TestOpContext:
    def test_defaults(self):
        ctx = OpContext()
        assert ctx.needs == ()
        assert ctx.workspaces == ()

    def test_is_an_attribute_bag(self):
        ctx = OpContext()
        ctx.anything = [1, 2, 3]
        assert ctx.anything == [1, 2, 3]
