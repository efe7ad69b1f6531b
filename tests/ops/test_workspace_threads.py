"""Thread safety of the pooled im2col workspaces.

The conv kernels acquire scratch buffers from the workspace pool; before
the pool went thread-local, two threads could pop the *same* buffer and
overwrite each other's patch matrices mid-GEMM.  The regression test
hammers ``predict_probs`` on a conv model from 8 threads and demands
bit-identical outputs vs the serial run — corruption would show up as a
numeric mismatch with near certainty.
"""

import threading

import numpy as np

from repro.models import ResNetCIFAR
from repro.nn import predict_probs
from repro.ops import workspace


class TestThreadLocalPools:
    def test_pools_are_per_thread(self):
        workspace.clear()
        buffer = workspace.acquire((16, 16), np.float32)
        workspace.release(buffer)
        assert workspace.pooled_bytes() > 0

        seen = {}

        def worker():
            seen["bytes"] = workspace.pooled_bytes()
            other = workspace.acquire((16, 16), np.float32)
            rows = workspace.acquire((8, 16), np.float32)
            seen["reused_cross_thread"] = other is buffer or \
                np.shares_memory(rows, buffer)

        thread = threading.Thread(target=worker)
        thread.start()
        thread.join()
        assert seen["bytes"] == 0                 # fresh pool per thread
        assert not seen["reused_cross_thread"]    # never hands out another
        workspace.clear()                         # thread's buffer or rows

    def test_release_then_acquire_reuses_in_thread(self):
        workspace.clear()
        first = workspace.acquire((4, 4), np.float64)
        workspace.release(first)
        assert workspace.acquire((4, 4), np.float64) is first
        workspace.clear()


class TestConcurrentConvParity:
    def test_eight_threads_bitwise_match_serial(self):
        model = ResNetCIFAR(depth=8, num_classes=4, base_width=4, rng=0)
        rng = np.random.default_rng(11)
        batches = [rng.normal(size=(2, 3, 8, 8)).astype(np.float32)
                   for _ in range(8)]
        serial = [predict_probs(model, x) for x in batches]

        results = [None] * len(batches)
        barrier = threading.Barrier(len(batches))

        def worker(i):
            barrier.wait()      # maximise overlap inside the conv kernels
            for _ in range(3):
                results[i] = predict_probs(model, batches[i])

        threads = [threading.Thread(target=worker, args=(i,))
                   for i in range(len(batches))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        for got, expected in zip(results, serial):
            assert np.array_equal(got, expected)
