"""The ``linear`` op against the three-node chain it replaced.

``nn.Linear`` used to build ``x @ W.transpose() + b`` out of three
registry ops (``transpose``, ``matmul``, ``add``); it is now one
``linear`` dispatch that claims to repeat the chain's float operations
in the chain's order.  So — as for the fused losses and ``batch_norm`` —
these tests compare exact bits (the output and the gradients of x, W and
b) against that chain, kept here as the reference, with and without a
bias, under micro-batch cells and in both float dtypes.  A gradcheck of
the op in float64 closes the loop.
"""

import contextlib

import numpy as np
import pytest

from repro import nn
from repro.ops import batching, profile_ops
from repro.ops.batching import batch_cell
from repro.tensor import Tensor, apply, gradcheck, set_default_dtype
from repro.tensor.ops import concatenate

RNG = np.random.default_rng(41)

IN_FEATURES, OUT_FEATURES, CELL = 7, 5, 4


@pytest.fixture(params=[np.float32, np.float64], ids=["float32", "float64"])
def dtype(request):
    previous = set_default_dtype(request.param)
    try:
        yield np.dtype(request.param)
    finally:
        set_default_dtype(previous)


def _chain_linear(layer, x):
    """The composed forward ``nn.Linear`` ran before the ``linear`` op."""
    out = x @ layer.weight.transpose()
    if layer.bias is not None:
        out = out + layer.bias
    return out


def _run(forward, layer, x_data, upstream, cell, second_consumer):
    """Output and gradients (x, W[, b]) of one forward/backward.

    ``second_consumer`` also feeds the input to a concatenation, so the
    input's gradient has a second contribution to order against.  A
    Fortran-ordered ``x_data`` arrives as a transposed view, the layout
    in which BLAS does not give ``g.T @ x`` the bits of ``(x.T @ g).T``.
    """
    layer.zero_grad()
    if x_data.flags.c_contiguous:
        producer = Tensor(x_data.copy(), requires_grad=True)
        x = producer * 1.0      # a non-leaf input, like an activation
    else:
        producer = Tensor(x_data.T.copy(), requires_grad=True)
        x = producer.transpose()
    with batch_cell(cell) if cell else contextlib.nullcontext():
        out = forward(layer, x)
        if second_consumer:
            out = concatenate([x, out], axis=-1)
        out.backward(upstream)
    x_grad = producer.grad if x_data.flags.c_contiguous else producer.grad.T
    grads = [out.data, x_grad, layer.weight.grad]
    if layer.bias is not None:
        grads.append(layer.bias.grad)
    return grads


def _layer(bias):
    layer = nn.Linear(IN_FEATURES, OUT_FEATURES, bias=bias, rng=3)
    if bias:
        layer.bias.data[...] = RNG.normal(size=OUT_FEATURES)
    return layer


# (leading shape, cell, transposed input): no cell, then 1, 2 and 3
# stacked cells of CELL rows (the last one a partial trailing block), a
# 3-D input whose leading axes broadcast, and transposed 64-row inputs.
CASES = [((6,), None, False), ((CELL,), CELL, False),
         ((2 * CELL,), CELL, False), ((2 * CELL + 3,), CELL, False),
         ((3, 4), None, False), ((64,), None, True), ((67,), 32, True)]


@pytest.mark.parametrize("lead,cell,transposed", CASES,
                         ids=["plain", "1cell", "2cells", "3cells-partial",
                              "3d", "transposed", "transposed-3cells"])
@pytest.mark.parametrize("bias", [True, False], ids=["bias", "nobias"])
@pytest.mark.parametrize("second_consumer", [False, True],
                         ids=["alone", "shared-input"])
def test_bitwise_matches_chain(dtype, lead, cell, transposed, bias,
                              second_consumer):
    layer = _layer(bias)
    x_data = (RNG.normal(size=lead + (IN_FEATURES,)) * 2.0).astype(dtype)
    if transposed:
        x_data = np.asfortranarray(x_data)
    width = OUT_FEATURES + (IN_FEATURES if second_consumer else 0)
    upstream = RNG.normal(size=lead + (width,)).astype(dtype)
    got = _run(lambda lin, x: lin(x), layer, x_data, upstream, cell,
               second_consumer)
    want = _run(_chain_linear, layer, x_data, upstream, cell,
                second_consumer)
    names = ["output", "x grad", "W grad", "b grad"]
    assert len(got) == len(want) == (4 if bias else 3)
    for name, a, b in zip(names, got, want):
        assert a.dtype == b.dtype == dtype, name
        assert np.array_equal(a, b), name


def test_cell_blocks_the_product(monkeypatch):
    """Under a cell the op's product goes through the one blocking
    helper, exactly as ``matmul`` does."""
    calls = []
    blocked = batching.blocked_matmul

    def spy(x, y, cell):
        calls.append((x.shape[0], cell))
        return blocked(x, y, cell)

    monkeypatch.setattr(batching, "blocked_matmul", spy)
    layer = _layer(True)
    dtype = layer.weight.dtype
    x = Tensor(RNG.normal(size=(2 * CELL + 3, IN_FEATURES)).astype(dtype))
    with batch_cell(CELL):
        layer(x)
        layer(x[:CELL])
    layer(x)
    assert calls == [(2 * CELL + 3, CELL)]


def test_one_dispatch_per_layer():
    layer = _layer(True)
    x = Tensor(RNG.normal(size=(6, IN_FEATURES)).astype(layer.weight.dtype),
               requires_grad=True)
    with profile_ops() as prof:
        layer(x).sum().backward()
    summary = prof.summary()
    assert summary["linear"]["forward_calls"] == 1
    assert summary["linear"]["backward_calls"] == 1
    for chain_op in ("transpose", "matmul", "add"):
        assert chain_op not in summary


@pytest.mark.parametrize("bias", [True, False], ids=["bias", "nobias"])
@pytest.mark.parametrize("lead", [(5,), (2, 3)], ids=["2d", "3d"])
def test_gradcheck(bias, lead):
    def op(*inputs):
        return apply("linear", inputs)

    inputs = [Tensor(RNG.normal(size=lead + (IN_FEATURES,)),
                     requires_grad=True, dtype=np.float64),
              Tensor(RNG.normal(size=(OUT_FEATURES, IN_FEATURES)),
                     requires_grad=True, dtype=np.float64)]
    if bias:
        inputs.append(Tensor(RNG.normal(size=OUT_FEATURES),
                             requires_grad=True, dtype=np.float64))
    assert gradcheck(op, inputs, atol=1e-4)
