"""Untaped conv and batch-norm forwards: same bits, bounded memory, no pool.

An untaped ``conv2d`` (``ctx.taped`` false) unfolds and multiplies at
most ``_UNTAPED_BLOCK`` images at a time into its own buffers, and an
untaped eval-mode ``batch_norm`` normalises in place.  Neither may change
a bit of the output against the taped forward, the untaped conv's peak
memory must not grow with the batch's patch matrix, and no untaped
forward may take a buffer from the workspace pool — where it would pop a
pooled training buffer of the same shape and drop it.
"""

import threading
import tracemalloc

import numpy as np
import pytest

from repro.nn import functional as F
from repro.ops import conv as conv_ops
from repro.ops import workspace
from repro.tensor import Tensor, apply, inference_mode, no_grad

RNG = np.random.default_rng(29)

DTYPES = [np.float32, np.float64]

# (kernel, stride, padding): the shifted-run path and both strided convs
# of ResNet (the 3×3 downsampling conv and the 1×1 projection).
CONVS = [(3, 1, 1), (3, 2, 1), (1, 2, 0)]


def _conv_operands(n, dtype, kernel, bias, channels=4, filters=6, size=10):
    x = RNG.normal(size=(n, channels, size, size)).astype(dtype)
    w = (RNG.normal(size=(filters, channels, kernel, kernel)) * 0.3) \
        .astype(dtype)
    b = RNG.normal(size=filters).astype(dtype) if bias else None
    return x, w, b


def _conv(x, w, b, stride, padding, requires_grad):
    inputs = [Tensor(x, requires_grad=requires_grad),
              Tensor(w, requires_grad=requires_grad)]
    if b is not None:
        inputs.append(Tensor(b, requires_grad=requires_grad))
    return F.conv2d(*inputs, stride=stride, padding=padding).data


@pytest.mark.parametrize("dtype", DTYPES, ids=["float32", "float64"])
@pytest.mark.parametrize("bias", [False, True], ids=["nobias", "bias"])
@pytest.mark.parametrize("kernel,stride,padding", CONVS,
                         ids=["k3s1", "k3s2", "k1s2"])
@pytest.mark.parametrize("n", [1, 31, 32, 33, 70, 256])
def test_untaped_conv2d_matches_taped_bytes(n, kernel, stride, padding,
                                            bias, dtype):
    x, w, b = _conv_operands(n, dtype, kernel, bias)
    taped = _conv(x, w, b, stride, padding, requires_grad=True)
    with inference_mode():
        untaped = _conv(x, w, b, stride, padding, requires_grad=False)
    assert untaped.dtype == taped.dtype == dtype
    assert untaped.shape == taped.shape
    assert untaped.tobytes() == taped.tobytes()


def test_untaped_conv2d_blocks_the_batch(monkeypatch):
    """70 images unfold as blocks of 32, 32 and 6; a taped forward as one."""
    seen = []
    unfold = conv_ops._im2col_same

    def spy(x, k, *rest):
        seen.append(x.shape[0])
        return unfold(x, k, *rest)

    monkeypatch.setattr(conv_ops, "_im2col_same", spy)
    x, w, _ = _conv_operands(70, np.float64, 3, bias=False)
    with no_grad():
        _conv(x, w, None, 1, 1, requires_grad=True)
    assert seen == [32, 32, 6]
    seen.clear()
    _conv(x, w, None, 1, 1, requires_grad=True)
    assert seen == [70]


def test_untaped_conv2d_peak_memory_is_blocked():
    """Peak below the output plus two 32-image patch blocks.

    Unfolded whole, the 256-image patch matrix alone (7.4 MB) would be
    far above this bound (about 2.6 MB).
    """
    n, c, f, size, k = 256, 8, 8, 10, 3
    x = Tensor(RNG.normal(size=(n, c, size, size)).astype(np.float32))
    w = Tensor((RNG.normal(size=(f, c, k, k)) * 0.1).astype(np.float32))
    itemsize = np.dtype(np.float32).itemsize
    output = n * f * size * size * itemsize
    block = 32 * c * k * k * size * size * itemsize
    with inference_mode():
        F.conv2d(x, w, None, padding=1)            # warm-up: imports, caches
        tracemalloc.start()
        try:
            out = F.conv2d(x, w, None, padding=1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
    assert out.data.nbytes == output
    assert peak < output + 2 * block, (peak, output, block)


@pytest.mark.parametrize("scope", ["inference_mode", "no_grad", "no-input-needs-grad"])
@pytest.mark.parametrize("op", ["conv2d", "conv2d-strided", "conv1d"])
def test_untaped_forward_leaves_pooled_buffer_in_place(op, scope):
    """A pooled training-shaped buffer survives an untaped forward of
    exactly that shape: the forward took its own buffer, not the pool's."""
    n, c, f = 32, 3, 4
    if op == "conv1d":
        x_data, w_data = RNG.normal(size=(n, c, 12)), RNG.normal(size=(f, c, 3))
        key = (n, c, 3, 12)                      # padding 1: 12 windows
        forward = lambda x, w: F.conv1d(x, w, None, padding=1)  # noqa: E731
    else:
        x_data = RNG.normal(size=(n, c, 6, 6))
        w_data = RNG.normal(size=(f, c, 3, 3))
        stride = 2 if op == "conv2d-strided" else 1
        out = 3 if stride == 2 else 6
        key = (n, c, 3, 3, out, out)
        forward = lambda x, w: F.conv2d(  # noqa: E731
            x, w, None, stride=stride, padding=1)
    workspace.clear()
    pooled = np.empty(key, dtype=np.float64)
    workspace.release(pooled)
    needs_grad = scope == "no-input-needs-grad"
    x = Tensor(x_data, requires_grad=not needs_grad)
    w = Tensor(w_data, requires_grad=not needs_grad)
    if scope == "inference_mode":
        with inference_mode():
            forward(x, w)
    elif scope == "no_grad":
        with no_grad():
            forward(x, w)
    else:
        forward(x, w)
    try:
        assert workspace.acquire(key, np.float64) is pooled
    finally:
        workspace.clear()


def test_a_taped_forward_on_another_thread_leaves_the_decision(monkeypatch):
    """``taped`` is an argument of the unfold, not thread state: a taped
    conv that runs on another thread between an untaped conv's decision
    and its unfold does not make the untaped one take its thread's pooled
    buffer."""
    key = (32, 2, 3, 3, 4, 4)
    x_data, w_data = RNG.normal(size=(32, 2, 4, 4)), RNG.normal(size=(3, 2, 3, 3))
    unfold = conv_ops._im2col_same
    go, trained = threading.Event(), threading.Event()
    seen = {}

    def interleaving_unfold(x, k, *rest):
        if threading.current_thread().name == "untaped":
            go.set()                       # the taped conv runs now...
            assert trained.wait(timeout=30)
        return unfold(x, k, *rest)         # ...before this unfold

    def train():
        assert go.wait(timeout=30)
        x = Tensor(x_data, requires_grad=True)
        F.conv2d(x, Tensor(w_data, requires_grad=True), None,
                 padding=1).sum().backward()
        trained.set()

    def infer():
        pooled = np.empty(key, dtype=np.float64)
        workspace.release(pooled)
        with inference_mode():
            F.conv2d(Tensor(x_data), Tensor(w_data), None, padding=1)
        seen["kept"] = workspace.acquire(key, np.float64) is pooled
        workspace.clear()

    monkeypatch.setattr(conv_ops, "_im2col_same", interleaving_unfold)
    threads = [threading.Thread(target=train),
               threading.Thread(target=infer, name="untaped")]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=60)
    assert not any(thread.is_alive() for thread in threads)
    assert trained.is_set()
    assert seen == {"kept": True}


# ----------------------------------------------------------------------
# batch_norm in eval mode
# ----------------------------------------------------------------------
def _eval_batch_norm(x, gamma, beta, running, requires_grad):
    return apply("batch_norm",
                 (Tensor(x, requires_grad=requires_grad),) * 2
                 + (Tensor(gamma, requires_grad=requires_grad),
                    Tensor(beta, requires_grad=requires_grad)),
                 axes=(0, 2, 3), eps=1e-5, momentum=0.9,
                 running=running, training=False).data


@pytest.mark.parametrize("x_dtype,param_dtype,running_dtype", [
    (np.float32, np.float32, np.float32),
    (np.float64, np.float64, np.float64),
    (np.float32, np.float64, np.float64),  # centred in float64: in place
    (np.float32, np.float64, np.float32),  # promotes past float32: no
], ids=["float32", "float64", "f32-in-f64-params", "f32-in-f64-affine"])
def test_untaped_eval_batch_norm_matches_taped_bytes(x_dtype, param_dtype,
                                                     running_dtype):
    c = 5
    x = RNG.normal(size=(7, c, 4, 4)).astype(x_dtype)
    gamma = RNG.normal(size=c).astype(param_dtype)
    beta = RNG.normal(size=c).astype(param_dtype)
    running = {"running_mean": RNG.normal(size=c).astype(running_dtype),
               "running_var": RNG.uniform(0.5, 2.0, size=c)
               .astype(running_dtype)}
    taped = _eval_batch_norm(x, gamma, beta, running, requires_grad=True)
    with no_grad():
        untaped = _eval_batch_norm(x, gamma, beta, running,
                                   requires_grad=True)
    assert untaped.dtype == taped.dtype == np.result_type(
        x_dtype, param_dtype, running_dtype)
    assert untaped.tobytes() == taped.tobytes()


def test_untaped_eval_batch_norm_allocates_only_its_output():
    """In place: the peak is one output array, not x_hat and friends."""
    c = 8
    x = RNG.normal(size=(64, c, 10, 10)).astype(np.float32)
    gamma, beta = (RNG.normal(size=c).astype(np.float32) for _ in range(2))
    running = {"running_mean": np.zeros(c, np.float32),
               "running_var": np.ones(c, np.float32)}
    with inference_mode():
        _eval_batch_norm(x, gamma, beta, running, requires_grad=False)
        tracemalloc.start()
        try:
            out = _eval_batch_norm(x, gamma, beta, running,
                                   requires_grad=False)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
    assert out.nbytes == x.nbytes
    assert peak < 1.5 * x.nbytes, (peak, x.nbytes)
