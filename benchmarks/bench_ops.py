"""Op-layer micro-benchmarks — per-op µs and fused-vs-unfused kernels.

Unlike the ``bench_table*``/``bench_fig*`` harnesses (which regenerate
paper artefacts), this one measures the op layer itself:

* per-op forward/backward microseconds at training-like shapes, taken
  straight from the op profiler (the same numbers ``--profile-ops``
  reports during a real fit);
* an untaped ``conv2d`` at an evaluation chunk's shape (256 rows under
  ``inference_mode``, as engine evaluation and ``predict_probs`` run it):
  its forward µs and its ``tracemalloc`` peak bytes, the working set the
  blocked untaped unfold bounds;
* one taped batch-32 ``c100-resnet`` training step (forward+backward
  with a warm workspace pool): its ``tracemalloc`` peak in MB, the
  working set the tape's freeing during backward bounds;
* the fused ``softmax_cross_entropy`` / ``edde_loss`` kernels and the
  one-op ``nn.Linear`` against the multi-node chains they replace — the
  one-op path must win.  Each sample times the two paths back to back,
  alternating which runs first, so a host stall hits one pair rather
  than a whole block of one path's samples.

Training speed end to end is the ``train-resnet`` workload of
``benchmarks/e2e``.

Results land in ``results/BENCH_ops.json`` (machine-readable) and
``results/bench_ops.txt`` (human-readable).  Runs at the library-default
dtype (float32 unless ``REPRO_DTYPE`` overrides).
"""

from __future__ import annotations

import time
import tracemalloc

import numpy as np
from _common import emit, run_once, write_json

from repro.analysis import format_table
# The fused edde_loss kernel is parity-tested against exactly this
# unfused reference chain, so the micro-bench must call it directly.
from repro.core.losses import diversity_driven_loss  # repro-lint: disable=RL001 (fused-vs-unfused reference chain)
from repro.experiments.protocol import build_scenario
from repro.nn import Linear
from repro.nn import functional as F
from repro.nn.losses import cross_entropy
from repro.ops import profile_ops
from repro.ops.fused import use_fused
from repro.tensor import ArrayView, Tensor, default_dtype, inference_mode
from repro.tensor.ops import softmax

RNG = np.random.default_rng(0)


def _tensor(shape, scale=1.0):
    data = (RNG.normal(size=shape) * scale).astype(default_dtype())
    return Tensor(data, requires_grad=True)


# ----------------------------------------------------------------------
# Per-op microseconds, via the op profiler.

def _op_cases():
    """(case label, op names to report, forward builder) triples."""
    conv_x, conv_w = _tensor((32, 16, 10, 10)), _tensor((32, 16, 3, 3), 0.1)
    mat_a, mat_b = _tensor((64, 256)), _tensor((256, 256), 0.1)
    wide = _tensor((64, 4096))
    logits = _tensor((256, 100))
    return [
        ("matmul 64x256 @ 256x256", ("matmul",), lambda: mat_a @ mat_b),
        ("add 64x4096", ("add",), lambda: wide + wide),
        ("mul 64x4096", ("mul",), lambda: wide * wide),
        ("relu 64x4096", ("relu",), lambda: wide.relu()),
        ("tanh 64x4096", ("tanh",), lambda: wide.tanh()),
        ("sum 64x4096 axis=1", ("sum",), lambda: wide.sum(axis=1)),
        ("softmax 256x100", ("softmax",), lambda: softmax(logits, axis=1)),
        ("conv2d 32x16x10x10 k3", ("conv2d",),
         lambda: F.conv2d(conv_x, conv_w, None, padding=1)),
        ("max_pool2d 32x16x10x10 k2", ("max_pool2d",),
         lambda: F.max_pool2d(conv_x, 2)),
    ]


def _mean_us(rows, kind: str) -> float:
    """µs per call of ``kind`` (forward/backward) over profiler rows."""
    return 1e6 * sum(row[f"{kind}_seconds"] for row in rows) \
        / sum(row[f"{kind}_calls"] for row in rows)


def _bench_micro(repeats: int = 20) -> dict:
    """Per-op forward/backward µs-per-call from the profiler.

    Each repeat is profiled on its own.  Besides the mean over all
    repeats, a case reports its first, median and slowest repeat's
    forward µs, so one stalled call shows as a max far above the median
    instead of only inflating the mean.
    """
    results = {}
    for label, names, build in _op_cases():
        build().sum().backward()  # warm-up: registry, pools, caches
        summaries = []
        for _ in range(repeats):
            with profile_ops() as prof:
                build().sum().backward()
            summaries.append(prof.summary())
        for name in names:
            rows = [summary[name] for summary in summaries]
            forward = [1e6 * row["forward_seconds"] / row["forward_calls"]
                       for row in rows]
            results[name] = {
                "case": label,
                "forward_us": _mean_us(rows, "forward"),
                "backward_us": _mean_us(rows, "backward"),
                "forward_first_us": forward[0],
                "forward_median_us": float(np.median(forward)),
                "forward_max_us": max(forward),
            }
    return results


def _bench_untaped_conv(repeats: int = 20) -> dict:
    """An evaluation chunk's untaped ``conv2d``: forward µs and peak bytes.

    The forward µs come from the profiler, one repeat at a time as in
    :func:`_bench_micro`; the peak is ``tracemalloc``'s (numpy reports
    its buffers there) over one more call, so it is the conv's own
    working set: its output plus the patch blocks alive at once.
    """
    x = Tensor(RNG.normal(size=(256, 8, 10, 10)).astype(default_dtype()))
    w = Tensor((RNG.normal(size=(8, 8, 3, 3)) * 0.1).astype(default_dtype()))
    forward = []
    with inference_mode():
        F.conv2d(x, w, None, padding=1)  # warm-up
        for _ in range(repeats):
            with profile_ops() as prof:
                F.conv2d(x, w, None, padding=1)
            forward.append(1e6 * prof.summary()["conv2d"]["forward_seconds"])
        tracemalloc.start()
        try:
            F.conv2d(x, w, None, padding=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    return {"conv2d": {"case": "conv2d 256x8x10x10 k3",
                       "forward_us": float(np.mean(forward)),
                       "forward_median_us": float(np.median(forward)),
                       "forward_max_us": max(forward),
                       "peak_bytes": peak}}


def _bench_taped_step(batch: int = 32) -> dict:
    """One ``c100-resnet`` training step's ``tracemalloc`` peak, in MB.

    Forward and backward of the scenario's model on its first ``batch``
    training images, after one warm-up step has filled the workspace
    pool, so the peak is a steady-state step's: the live graph, the
    gradients and the activations the backward has not yet released.
    """
    scenario = build_scenario("c100-resnet", rng=0)
    model = scenario.factory.build(rng=0)
    x, y = scenario.split.train.x[:batch], scenario.split.train.y[:batch]

    def step():
        model.zero_grad()
        cross_entropy(model(Tensor(x)), y).backward()

    step()  # warm-up: fills the pool with this batch's patch buffers
    tracemalloc.start()
    try:
        step()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return {"c100-resnet": {"case": f"batch {batch} forward+backward",
                            "peak_mb": peak / 1e6}}


# ----------------------------------------------------------------------
# Fused kernels vs the unfused chains they replace.

def _clock(fn, *args) -> float:
    start = time.perf_counter()
    fn(*args)
    return time.perf_counter() - start


def _paired_medians(one_op, chain, repeats: int = 30):
    """Median seconds of two paths, each a callable returning one sample.

    Sample ``i`` runs both paths back to back, ``one_op`` first on even
    ``i`` and ``chain`` first on odd ``i``.
    """
    one_op(), chain()  # warm-up
    samples = {one_op: [], chain: []}
    for i in range(repeats):
        for path in ((one_op, chain) if i % 2 == 0 else (chain, one_op)):
            samples[path].append(path())
    return float(np.median(samples[one_op])), float(np.median(samples[chain]))


def _bench_fused(batch: int = 256, classes: int = 100) -> dict:
    logits_data = (RNG.normal(size=(batch, classes)) * 2).astype(default_dtype())
    labels = RNG.integers(0, classes, size=batch)
    weights = RNG.uniform(0.5, 1.5, size=batch)
    raw = RNG.uniform(0.05, 1.0, size=(batch, classes))
    ensemble_probs = raw / raw.sum(axis=1, keepdims=True)

    def step(loss_fn):
        logits = Tensor(logits_data, requires_grad=True)
        loss_fn(logits).backward()

    def sample(loss_fn, fused):
        with use_fused(fused):
            return _clock(step, loss_fn)

    cases = {
        "softmax_cross_entropy":
            lambda lg: cross_entropy(lg, labels, weights),
        "edde_loss":
            lambda lg: diversity_driven_loss(lg, labels, ensemble_probs,
                                             0.2, weights),
    }
    results = {}
    for name, loss_fn in cases.items():
        fused, unfused = _paired_medians(lambda: sample(loss_fn, True),
                                         lambda: sample(loss_fn, False))
        results[name] = {
            "fused_us": fused * 1e6,
            "unfused_us": unfused * 1e6,
            "speedup": unfused / fused,
        }
    results.update(_bench_linear())
    return results


def _bench_linear(rows: int = 16, features=(16, 32)) -> dict:
    """The one-op ``nn.Linear`` against its old ``transpose``/``matmul``/
    ``add`` chain, at the serve-mlp hidden layer's shape."""
    layer = Linear(*features, rng=0)
    x_data = RNG.normal(size=(rows, features[0])).astype(default_dtype())

    def chain(x):
        return x @ layer.weight.transpose() + layer.bias

    def infer(forward):
        with inference_mode():
            forward(ArrayView(x_data))

    def train(forward):
        layer.zero_grad()
        forward(Tensor(x_data, requires_grad=True)).sum().backward()

    results = {}
    for mode, run in (("inference", infer), ("train step", train)):
        one_op, three = _paired_medians(lambda: _clock(run, layer),
                                        lambda: _clock(run, chain),
                                        repeats=200)
        results[f"linear ({mode})"] = {
            "fused_us": one_op * 1e6,
            "unfused_us": three * 1e6,
            "speedup": three / one_op,
        }
    return results


def _render(payload: dict) -> str:
    micro_rows = [[name, row["case"], f"{row['forward_us']:.1f}",
                   f"{row['forward_first_us']:.1f}",
                   f"{row['forward_median_us']:.1f}",
                   f"{row['forward_max_us']:.1f}",
                   f"{row['backward_us']:.1f}"]
                  for name, row in payload["ops"].items()]
    micro = format_table(["op", "shape", "fwd µs", "fwd first", "fwd median",
                          "fwd max", "bwd µs"], micro_rows,
                         title="Per-op microseconds (profiler-measured; "
                               "fwd µs is the mean over repeats)")
    untaped_rows = [[name, row["case"], f"{row['forward_us']:.1f}",
                     f"{row['forward_median_us']:.1f}",
                     f"{row['forward_max_us']:.1f}",
                     f"{row['peak_bytes'] / 1e6:.2f}"]
                    for name, row in payload["untaped"].items()]
    untaped = format_table(["op", "shape", "fwd µs", "fwd median", "fwd max",
                            "peak MB"], untaped_rows,
                           title="Untaped forward (inference_mode; peak is "
                                 "tracemalloc's over one call)")
    taped_rows = [[name, row["case"], f"{row['peak_mb']:.2f}"]
                  for name, row in payload["taped"].items()]
    taped = format_table(["model", "step", "peak MB"], taped_rows,
                         title="Taped training step (warm workspace pool; "
                               "peak is tracemalloc's over one step)")
    fused_rows = [[name, f"{row['fused_us']:.1f}", f"{row['unfused_us']:.1f}",
                   f"{row['speedup']:.2f}x"]
                  for name, row in payload["fused"].items()]
    fused = format_table(["kernel", "fused µs", "unfused µs", "speedup"],
                         fused_rows, title="Fused kernels vs unfused chains "
                                           "(forward+backward)")
    return f"{micro}\n\n{untaped}\n\n{taped}\n\n{fused}"


def _run_bench_ops() -> dict:
    return {
        "dtype": np.dtype(default_dtype()).name,
        "ops": _bench_micro(),
        "untaped": _bench_untaped_conv(),
        "taped": _bench_taped_step(),
        "fused": _bench_fused(),
    }


def test_bench_ops(benchmark, capsys):
    payload = run_once(benchmark, _run_bench_ops)
    write_json("BENCH_ops", payload)
    emit("bench_ops", _render(payload), capsys)
    # The fused kernels replace 3+-node chains with one op; if they ever
    # stop winning, the fusion is pure complexity and should be removed.
    for name, row in payload["fused"].items():
        assert row["speedup"] > 1.0, (name, row)
