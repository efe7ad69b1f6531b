"""The single-dtype policy: float32 library default, float64 under tests.

``repro.tensor.dtypes`` holds the policy; ``_as_array`` applies it: data
without a float dtype takes the default, existing float arrays keep
theirs.  These tests run real float32 forward/backward passes to catch
silent float64 upcasts (python scalars, init draws, normalisation
buffers) that the float64-pinned rest of the suite cannot see.
"""

import threading

import numpy as np
import pytest

from repro.models import MLP
from repro.nn.losses import cross_entropy
from repro.tensor import Tensor, default_dtype, dtype_scope, set_default_dtype


class TestPolicy:
    def test_suite_pins_float64(self):
        # tests/conftest.py pins float64 for tight gradchecks and the
        # golden fingerprints; this is the policy's test-suite face.
        assert default_dtype() == np.float64

    def test_scope_switches_and_restores(self):
        with dtype_scope(np.float32):
            assert default_dtype() == np.float32
        assert default_dtype() == np.float64

    def test_scope_is_thread_local(self):
        """A scope held in one thread leaves another thread's default."""
        entered, release = threading.Event(), threading.Event()
        inside = []

        def hold_scope():
            with dtype_scope(np.float32):
                inside.append(default_dtype())
                entered.set()
                release.wait(timeout=10)

        worker = threading.Thread(target=hold_scope)
        worker.start()
        try:
            assert entered.wait(timeout=10)
            assert default_dtype() == np.float64
            assert Tensor([1.0]).data.dtype == np.float64
        finally:
            release.set()
            worker.join()
        assert inside == [np.float32]

    def test_set_default_dtype_rejects_non_float(self):
        with pytest.raises((TypeError, ValueError)):
            set_default_dtype(np.int32)

    def test_python_data_takes_default(self):
        with dtype_scope(np.float32):
            assert Tensor([1.0, 2.0]).data.dtype == np.float32
            assert Tensor(3.0).data.dtype == np.float32
            assert Tensor([1, 2, 3]).data.dtype == np.float32

    def test_existing_float_arrays_keep_their_dtype(self):
        with dtype_scope(np.float32):
            kept = Tensor(np.zeros(3, dtype=np.float64))
            assert kept.data.dtype == np.float64
        assert Tensor(np.zeros(3, dtype=np.float32)).data.dtype == np.float32


class TestFloat32EndToEnd:
    def test_forward_backward_stays_float32(self):
        with dtype_scope(np.float32):
            rng = np.random.default_rng(0)
            model = MLP(input_dim=6, num_classes=3, hidden=(8,), rng=rng)
            for param in model.parameters():
                assert param.data.dtype == np.float32

            x = rng.normal(size=(5, 6))  # float64 input: model casts it
            labels = rng.integers(0, 3, size=5)
            logits = model(x)
            assert logits.data.dtype == np.float32

            loss = cross_entropy(logits, labels)
            assert loss.data.dtype == np.float32
            loss.backward()
            for param in model.parameters():
                assert param.grad.dtype == np.float32

    def test_scalar_ops_do_not_upcast(self):
        with dtype_scope(np.float32):
            x = Tensor(np.ones((4, 3), dtype=np.float32), requires_grad=True)
            out = ((x * 2.0 + 1.0) / 3.0).mean(axis=1)
            assert out.data.dtype == np.float32
            out.sum().backward()
            assert x.grad.dtype == np.float32

    def test_softmax_chain_stays_float32(self):
        from repro.tensor.ops import log_softmax, softmax

        with dtype_scope(np.float32):
            data = np.random.default_rng(1).normal(size=(4, 5))
            x = Tensor(data.astype(np.float32), requires_grad=True)
            assert softmax(x, axis=1).data.dtype == np.float32
            assert log_softmax(x, axis=1).data.dtype == np.float32
