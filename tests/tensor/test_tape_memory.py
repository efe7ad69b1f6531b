"""Regression tests: ``backward()`` frees the tape it consumes.

The dispatcher tapes every op (parents, context, saved activations,
pooled workspaces).  Backward must release all of it node-by-node so a
training step's peak memory is bounded by the live graph, not by the
whole history of the step.  The workspace pool holds one full batch's
patch buffers while a training loop runs (a ragged last batch takes
their leading rows) and nothing once the loop ends.
"""

import gc
import weakref

import numpy as np
import pytest

from repro.core import Callback, EDDEConfig, EDDETrainer, TrainingConfig, train_model
from repro.models import ModelFactory, ResNetCIFAR
from repro.nn import functional as F
from repro.nn.losses import predict_probs
from repro.ops import workspace
from repro.ops.registry import get_op
from repro.tensor import Tensor, inference_mode

RNG = np.random.default_rng(3)


def t(shape, scale=0.5):
    return Tensor(RNG.normal(size=shape) * scale, requires_grad=True)


class TestTapeFreeing:
    def test_backward_clears_graph_links(self):
        x = t((4, 4))
        y = (x * 2.0).tanh()
        z = y.sum()
        assert z._parents and z._ctx is not None
        z.backward()
        for node in (y, z):
            assert node._parents == ()
            assert node._ctx is None
            assert node._opref is None

    def test_intermediates_collectable_after_backward(self):
        x = t((8, 8))
        y = (x @ x).relu()
        z = y.sum()
        ref = weakref.ref(y)
        del y
        gc.collect()
        # Before backward the tape (z -> parents) pins the activation.
        assert ref() is not None
        z.backward()
        gc.collect()
        # After backward the tape is gone; only `ref` knew about y.
        assert ref() is None

    def test_finished_node_is_freed_before_upstream_backward(self, monkeypatch):
        # x -> a = x * 2 -> b = tanh(a) -> z = sum(b); the caller holds
        # only x and z.  By the time mul's backward runs, tanh's has
        # consumed b, and nothing but the walk could still hold it.
        x = t((4, 4))
        b = (x * 2.0).tanh()
        z = b.sum()
        ref = weakref.ref(b)
        del b
        mul = get_op("mul")
        backward = mul.backward
        alive = []

        def spy(ctx, grad):
            alive.append(ref() is not None)
            return backward(ctx, grad)

        monkeypatch.setattr(mul, "backward", spy)
        z.backward()
        assert alive == [False]

    def test_held_intermediate_keeps_data_and_grad(self):
        x = t((4, 4))
        a = x * 2.0
        data = a.data.copy()
        a.tanh().sum().backward()
        np.testing.assert_array_equal(a.data, data)
        np.testing.assert_allclose(a.grad, 1.0 - np.tanh(data) ** 2)

    def test_gradients_survive_tape_freeing(self):
        x = t((3, 3))
        (x * 3.0).sum().backward()
        np.testing.assert_allclose(x.grad, np.full((3, 3), 3.0))

    def test_leaf_grads_accumulate_across_fresh_graphs(self):
        x = t((2, 2))
        (x * 1.0).sum().backward()
        (x * 1.0).sum().backward()
        np.testing.assert_allclose(x.grad, np.full((2, 2), 2.0))


class TestWorkspaceReturn:
    def test_conv_workspace_returned_after_backward(self):
        workspace.clear()
        x = t((2, 2, 6, 6))
        w = t((3, 2, 3, 3))
        out = F.conv2d(x, w, None)
        # The im2col buffer is checked out while the graph is alive...
        assert workspace.pooled_bytes() == 0
        out.sum().backward()
        # ...and back in the pool once backward has consumed it.
        assert workspace.pooled_bytes() > 0
        workspace.clear()

    def test_inference_mode_drops_workspace(self):
        # Only a backward returns a buffer to the pool: an untaped
        # forward drops its workspaces together with its context.
        workspace.clear()
        x = Tensor(RNG.normal(size=(2, 2, 6, 6)))
        w = Tensor(RNG.normal(size=(3, 2, 3, 3)) * 0.5)
        with inference_mode():
            F.conv2d(x, w, None)
        assert workspace.pooled_bytes() == 0
        workspace.clear()

    def test_max_pool_pools_nothing_under_inference(self):
        workspace.clear()
        x = Tensor(RNG.normal(size=(2, 3, 6, 6)))
        with inference_mode():
            F.max_pool2d(x, 2)
        assert workspace.pooled_bytes() == 0

    def test_max_pool_pools_nothing_after_backward(self):
        workspace.clear()
        x = t((2, 3, 6, 6))
        F.max_pool2d(x, 2).sum().backward()
        assert x.grad is not None
        assert workspace.pooled_bytes() == 0

    def test_pool_reuses_buffers_across_calls(self):
        workspace.clear()
        first = workspace.acquire((4, 4), np.float64)
        workspace.release(first)
        second = workspace.acquire((4, 4), np.float64)
        assert second is first
        workspace.clear()


class TestRaggedBatchReuse:
    """A smaller batch takes the leading rows of a full batch's buffer."""

    def _step(self, rows):
        """One taped conv2d forward+backward; returns the patch buffer."""
        x = t((rows, 2, 6, 6))
        out = F.conv2d(x, t((3, 2, 3, 3)), None, padding=1)
        (buffer,) = out._ctx.workspaces
        out.sum().backward()
        return buffer

    def test_short_batch_reuses_full_batch_buffer(self):
        workspace.clear()
        full = self._step(32)
        held = workspace.pooled_bytes()
        short = self._step(16)
        assert short.shape == (16,) + full.shape[1:]
        assert short.base is full
        assert short.flags.c_contiguous
        assert workspace.pooled_bytes() == held
        # The next full batch gets the whole buffer back, itself.
        assert self._step(32) is full
        workspace.clear()

    def test_larger_request_drops_smaller_free_buffers(self):
        workspace.clear()
        workspace.release(np.empty((16, 4), dtype=np.float64))
        larger = workspace.acquire((32, 4), np.float64)
        assert larger.shape == (32, 4)
        assert workspace.pooled_bytes() == 0
        workspace.release(larger)
        assert workspace.pooled_bytes() == larger.nbytes
        workspace.clear()

    def test_smallest_fitting_buffer_serves_a_request(self):
        workspace.clear()
        big = np.empty((64, 4), dtype=np.float64)
        exact = np.empty((16, 4), dtype=np.float64)
        workspace.release(big)
        workspace.release(exact)
        assert workspace.acquire((16, 4), np.float64) is exact
        assert workspace.acquire((8, 4), np.float64).base is big
        workspace.clear()


class TestPoolEmptiesWhenTrainingEnds:
    """The pool holds a fit's buffers only while its loop runs."""

    def _model(self, split):
        return ResNetCIFAR(depth=8, num_classes=split.num_classes,
                           base_width=4, rng=0)

    def test_pool_is_empty_after_train_model_returns(self, tiny_image_split):
        workspace.clear()
        train_model(self._model(tiny_image_split), tiny_image_split.train,
                    TrainingConfig(epochs=1, batch_size=32), rng=0)
        assert workspace.pooled_bytes() == 0

    def test_pool_is_empty_after_train_model_raises(self, tiny_image_split):
        workspace.clear()

        def stop(model, batch_index, loss):
            if batch_index == 1:
                assert workspace.pooled_bytes() > 0
                raise RuntimeError("stop")

        with pytest.raises(RuntimeError, match="stop"):
            train_model(self._model(tiny_image_split), tiny_image_split.train,
                        TrainingConfig(epochs=1, batch_size=32), rng=0,
                        on_batch_end=stop)
        assert workspace.pooled_bytes() == 0


class TestUntapedForwardsPoolNothing:
    """Evaluation-shaped patch matrices never outlive their forward."""

    def test_predict_probs_leaves_pool_empty(self):
        workspace.clear()
        model = ResNetCIFAR(depth=8, num_classes=4, base_width=4, rng=0)
        probs = predict_probs(model, RNG.normal(size=(6, 3, 8, 8)))
        assert probs.shape == (6, 4)
        assert workspace.pooled_bytes() == 0

    def test_fit_pools_only_training_batch_shapes(self, tiny_image_split):
        # 144 = 4 * 32 + 16: every epoch ends on a ragged batch, which
        # must reuse the full batch's buffers rather than pool its own.
        split = tiny_image_split
        train = split.train.subset(np.arange(144))
        factory = ModelFactory(ResNetCIFAR, depth=8,
                               num_classes=split.num_classes, base_width=4)
        config = EDDEConfig(num_models=2, gamma=0.1, beta=0.6,
                            first_epochs=1, later_epochs=1,
                            lr=0.05, batch_size=32)
        pooled_rows = set()

        class PoolProbe(Callback):
            def on_batch_end(self, engine, model, batch_index, loss):
                pooled_rows.update(len(buffer)
                                   for stack in workspace._free().values()
                                   for buffer in stack)

        workspace.clear()
        EDDETrainer(factory, config).fit(train, split.test, rng=0,
                                         callbacks=[PoolProbe()])
        # Training steps recycle full-batch buffers only; once the fit
        # is over (its evaluation included) the pool holds nothing.
        assert pooled_rows == {config.batch_size}
        assert workspace.pooled_bytes() == 0
