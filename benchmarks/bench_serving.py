"""Serving-pipeline load benchmark — QPS, tail latency, bit-parity.

The concurrent pipeline (PR 8) claims that adaptive micro-batching turns
the T× serving cost of an ensemble into amortised throughput *without*
changing a single served byte.  This
bench measures both halves of that claim with the deterministic load
harness (:mod:`repro.experiments.serve_load`):

* closed-loop QPS and p50/p95/p99 latency at T ∈ {1, 4, 8}, batching on
  vs off — the batched pipeline must clear **≥ 2× QPS at T = 8**;
* one open-loop Poisson replay on the manual clock (batch-size and
  queueing-delay policy numbers, bit-reproducible per seed);
* byte-for-byte parity between micro-batched and solo answers on every
  cell's probe set — the throughput win is void if it costs a bit.

Results land in ``results/BENCH_serving.json`` and
``results/bench_serving.txt``.  Budgets honour ``REPRO_BENCH_REQUESTS``
(timed requests per cell; default 256).
"""

from __future__ import annotations

import os

from _common import emit, write_json

from repro.analysis import format_table
from repro.experiments.serve_load import run_load_suite

#: The acceptance floor: batching+parallelism at T=8 must at least
#: double throughput over the per-request solo path.
MIN_SPEEDUP_AT_T8 = 2.0


def _render(payload: dict) -> str:
    rows = []
    for cell in payload["cells"]:
        latency = cell["latency_ms"]
        rows.append([
            str(cell["config"]["ensemble_size"]),
            "on" if cell["batching"] else "off",
            cell["arrival"],
            f"{cell['qps']:.0f}",
            f"{latency['p50']:.2f}",
            f"{latency['p95']:.2f}",
            f"{latency['p99']:.2f}",
            f"{cell['mean_batch_requests']:.1f}",
            "ok" if cell["parity_ok"] else "VIOLATED",
        ])
    table = format_table(
        ["T", "batching", "arrival", "QPS", "p50 ms", "p95 ms",
         "p99 ms", "reqs/batch", "parity"], rows)
    speedups = "\n".join(
        f"batching speedup at T={size}: {value:.2f}x"
        for size, value in payload["qps_speedup_batched"].items())
    return f"{table}\n\n{speedups}\n"


def test_serving_load_bench(capsys):
    requests = int(os.environ.get("REPRO_BENCH_REQUESTS", "256"))
    payload = run_load_suite(ensemble_sizes=(1, 4, 8), seed=0,
                             requests=requests)
    emit("bench_serving", _render(payload), capsys=capsys)
    write_json("BENCH_serving", payload)

    assert payload["parity_ok"], \
        "micro-batched answers diverged from solo execution"
    speedup = payload["qps_speedup_batched"]["8"]
    assert speedup >= MIN_SPEEDUP_AT_T8, (
        f"batching+parallelism delivered only {speedup:.2f}x QPS at T=8 "
        f"(need >= {MIN_SPEEDUP_AT_T8}x)")
