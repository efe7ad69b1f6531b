"""Behavioural tests for the Tensor class: taping, accumulation, modes."""

import numpy as np
import pytest

from repro.ops.modes import fastpath_enabled, modes
from repro.tensor import (
    ArrayView,
    Tensor,
    inference_mode,
    is_grad_enabled,
    no_grad,
)


class TestConstruction:
    def test_wraps_array(self):
        t = Tensor([[1.0, 2.0], [3.0, 4.0]])
        assert t.shape == (2, 2)
        assert t.dtype == np.float64
        assert not t.requires_grad

    def test_scalar_item(self):
        assert Tensor(3.5).item() == pytest.approx(3.5)

    def test_len(self):
        assert len(Tensor(np.zeros((5, 2)))) == 5

    def test_ensure_passthrough(self):
        t = Tensor([1.0])
        assert Tensor.ensure(t) is t

    def test_ensure_wraps(self):
        t = Tensor.ensure([1.0, 2.0])
        assert isinstance(t, Tensor)
        assert t.shape == (2,)


class TestBackward:
    def test_scalar_backward_default_grad(self):
        x = Tensor(2.0, requires_grad=True)
        (x * x).backward()
        assert x.grad == pytest.approx(4.0)

    def test_backward_requires_grad(self):
        x = Tensor(1.0)
        with pytest.raises(RuntimeError):
            x.backward()

    def test_nonscalar_backward_needs_grad_argument(self):
        x = Tensor(np.ones(3), requires_grad=True)
        y = x * 2.0
        with pytest.raises(RuntimeError):
            y.backward()

    def test_gradient_accumulates_across_uses(self):
        x = Tensor(3.0, requires_grad=True)
        y = x * 2.0 + x * 5.0  # x used twice
        y.backward()
        assert x.grad == pytest.approx(7.0)

    def test_gradient_accumulates_across_backward_calls(self):
        x = Tensor(1.0, requires_grad=True)
        (x * 2.0).backward()
        (x * 3.0).backward()
        assert x.grad == pytest.approx(5.0)

    def test_zero_grad(self):
        x = Tensor(1.0, requires_grad=True)
        (x * 2.0).backward()
        x.zero_grad()
        assert x.grad is None

    def test_diamond_graph(self):
        # x -> a, b -> c: both paths must contribute exactly once.
        x = Tensor(2.0, requires_grad=True)
        a = x * 3.0
        b = x * 4.0
        c = a * b  # c = 12 x^2, dc/dx = 24x = 48
        c.backward()
        assert x.grad == pytest.approx(48.0)

    def test_deep_chain_no_recursion_error(self):
        x = Tensor(1.0, requires_grad=True)
        y = x
        for _ in range(2000):
            y = y + 0.001
        y.backward()
        assert x.grad == pytest.approx(1.0)


class TestNoGrad:
    def test_disables_taping(self):
        x = Tensor(1.0, requires_grad=True)
        with no_grad():
            y = x * 2.0
        assert not y.requires_grad

    def test_restores_state(self):
        assert is_grad_enabled()
        with no_grad():
            assert not is_grad_enabled()
        assert is_grad_enabled()

    def test_nested(self):
        with no_grad():
            with no_grad():
                assert not is_grad_enabled()
            assert not is_grad_enabled()

    def test_detach_cuts_tape(self):
        x = Tensor(2.0, requires_grad=True)
        y = (x * 3.0).detach()
        assert not y.requires_grad
        z = y * 5.0
        assert not z.requires_grad


def _mode():
    return fastpath_enabled(), is_grad_enabled()


class TestInferenceMode:
    def test_sets_and_restores_state(self):
        assert _mode() == (False, True)
        with inference_mode():
            assert _mode() == (True, False)
            assert isinstance(Tensor(np.ones(2)) * 2.0, ArrayView)
        assert _mode() == (False, True)

    def test_nested_entry_keeps_outer_scope(self):
        with inference_mode():
            with inference_mode():
                assert _mode() == (True, False)
            assert _mode() == (True, False)
        assert _mode() == (False, True)

    def test_nested_entry_survives_a_raise(self):
        with inference_mode():
            with pytest.raises(RuntimeError):
                with inference_mode():
                    raise RuntimeError("member fault")
            assert _mode() == (True, False)
        assert _mode() == (False, True)

    def test_inside_no_grad_still_enters_fast_path(self):
        with no_grad():
            with inference_mode():
                assert _mode() == (True, False)
            assert _mode() == (False, False)

    def test_fast_path_alone_is_not_inference_mode(self):
        # Only fast path *and* no grad together short-circuit an entry.
        with modes(fastpath=True):
            with inference_mode():
                assert _mode() == (True, False)
            assert _mode() == (True, True)


class TestBroadcasting:
    def test_add_broadcast_grad_shapes(self):
        a = Tensor(np.ones((3, 4)), requires_grad=True)
        b = Tensor(np.ones(4), requires_grad=True)
        (a + b).sum().backward()
        assert a.grad.shape == (3, 4)
        assert b.grad.shape == (4,)
        np.testing.assert_allclose(b.grad, 3.0 * np.ones(4))

    def test_mul_broadcast_keepdims(self):
        a = Tensor(np.ones((2, 3)), requires_grad=True)
        b = Tensor(np.full((2, 1), 2.0), requires_grad=True)
        (a * b).sum().backward()
        np.testing.assert_allclose(a.grad, np.full((2, 3), 2.0))
        np.testing.assert_allclose(b.grad, np.full((2, 1), 3.0))

    def test_scalar_broadcast(self):
        a = Tensor(np.arange(4.0), requires_grad=True)
        (a * 2.0 + 1.0).sum().backward()
        np.testing.assert_allclose(a.grad, np.full(4, 2.0))


class TestShapeOps:
    def test_reshape_roundtrip_grad(self):
        x = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
        x.reshape(3, 2).sum().backward()
        assert x.grad.shape == (2, 3)

    def test_reshape_minus_one(self):
        x = Tensor(np.zeros((2, 3, 4)))
        assert x.reshape(2, -1).shape == (2, 12)

    def test_transpose_default_reverses(self):
        x = Tensor(np.zeros((2, 3, 4)))
        assert x.transpose().shape == (4, 3, 2)

    def test_transpose_axes_grad(self):
        x = Tensor(np.random.default_rng(0).normal(size=(2, 3, 4)),
                   requires_grad=True)
        y = x.transpose(1, 0, 2)
        (y * 2.0).sum().backward()
        np.testing.assert_allclose(x.grad, np.full((2, 3, 4), 2.0))

    def test_getitem_fancy_index_accumulates(self):
        x = Tensor(np.zeros(4), requires_grad=True)
        idx = np.array([0, 0, 2])
        x[idx].sum().backward()
        np.testing.assert_allclose(x.grad, [2.0, 0.0, 1.0, 0.0])


class TestReductions:
    def test_sum_axis(self):
        x = Tensor(np.ones((2, 3)), requires_grad=True)
        s = x.sum(axis=1)
        assert s.shape == (2,)
        s.sum().backward()
        np.testing.assert_allclose(x.grad, np.ones((2, 3)))

    def test_mean_value(self):
        x = Tensor(np.array([[1.0, 3.0], [5.0, 7.0]]))
        assert x.mean().item() == pytest.approx(4.0)
        np.testing.assert_allclose(x.mean(axis=0).numpy(), [3.0, 5.0])

    def test_max_with_ties_splits_gradient(self):
        x = Tensor(np.array([[2.0, 2.0, 1.0]]), requires_grad=True)
        x.max(axis=1).sum().backward()
        np.testing.assert_allclose(x.grad, [[0.5, 0.5, 0.0]])

    def test_sum_keepdims(self):
        x = Tensor(np.ones((2, 3)))
        assert x.sum(axis=1, keepdims=True).shape == (2, 1)


class TestElementwise:
    def test_relu_zero_grad_at_negatives(self):
        x = Tensor(np.array([-1.0, 2.0]), requires_grad=True)
        x.relu().sum().backward()
        np.testing.assert_allclose(x.grad, [0.0, 1.0])

    def test_clip_masks_gradient(self):
        x = Tensor(np.array([-2.0, 0.5, 2.0]), requires_grad=True)
        x.clip(-1.0, 1.0).sum().backward()
        np.testing.assert_allclose(x.grad, [0.0, 1.0, 0.0])

    def test_exp_log_inverse(self):
        x = Tensor(np.array([0.5, 1.5]))
        np.testing.assert_allclose(x.exp().log().numpy(), x.numpy())

    def test_pow_requires_scalar(self):
        with pytest.raises(TypeError):
            Tensor(2.0) ** Tensor(2.0)

    def test_division_by_tensor(self):
        a = Tensor(6.0, requires_grad=True)
        b = Tensor(2.0, requires_grad=True)
        (a / b).backward()
        assert a.grad == pytest.approx(0.5)
        assert b.grad == pytest.approx(-1.5)

    def test_rsub_rdiv(self):
        x = Tensor(2.0)
        assert (10.0 - x).item() == pytest.approx(8.0)
        assert (10.0 / x).item() == pytest.approx(5.0)
