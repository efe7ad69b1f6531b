"""Regression tests: ``backward()`` frees the tape it consumes.

The dispatcher tapes every op (parents, context, saved activations,
pooled workspaces).  Backward must release all of it node-by-node so a
training step's peak memory is bounded by the live graph, not by the
whole history of the step.
"""

import gc
import weakref

import numpy as np

from repro.core import EDDEConfig, EDDETrainer
from repro.models import ModelFactory, ResNetCIFAR
from repro.nn import functional as F
from repro.nn.losses import predict_probs
from repro.ops import workspace
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


class TestUntapedForwardsPoolNothing:
    """Evaluation-shaped patch matrices never outlive their forward."""

    def test_predict_probs_leaves_pool_empty(self):
        workspace.clear()
        model = ResNetCIFAR(depth=8, num_classes=4, base_width=4, rng=0)
        probs = predict_probs(model, RNG.normal(size=(6, 3, 8, 8)))
        assert probs.shape == (6, 4)
        assert workspace.pooled_bytes() == 0

    def test_fit_pools_only_training_batch_shapes(self, tiny_image_split):
        split = tiny_image_split
        factory = ModelFactory(ResNetCIFAR, depth=8,
                               num_classes=split.num_classes, base_width=4)
        config = EDDEConfig(num_models=2, gamma=0.1, beta=0.6,
                            first_epochs=1, later_epochs=1,
                            lr=0.05, batch_size=32)
        assert len(split.train) % config.batch_size == 0
        workspace.clear()
        EDDETrainer(factory, config).fit(split.train, split.test, rng=0)
        leading = {key[0][0] for key, stack in workspace._free().items()
                   if stack}
        workspace.clear()
        # Training steps recycle their buffers; the engine's evaluation
        # chunks (the whole train and test splits) leave none behind.
        assert leading == {config.batch_size}
        assert not leading & {len(split.train), len(split.test)}
