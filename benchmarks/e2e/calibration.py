"""Host-speed calibration: wall times expressed at a reference speed.

The shared host this benchmark was built on changes speed by up to 2x in
spells of seconds to minutes (see ``README.md``), which no amount of
repetition inside one run averages away.  A run therefore interleaves
its own work with short *samples* of a fixed piece of reference work
that the program never executes — interpreter bytecode, small float32
matrix products and a matrix product the size of the fit's
convolutions, and for serving also thread hand-offs: the kinds of work
each workload spends its time on.  A fit takes a sample after every few
training steps, a serving run after every session.

A wall time is scaled by the reference time over a median of samples:
a time at the speed the host had when the reference times were
recorded.  The samples cut the run's work into *segments* (segment
``k`` is the work done after ``k`` samples), so a time measured in
segment ``k`` can be judged by the ``WINDOW`` samples around it, the
host's speed at the moment it was taken, or by all of the run's
samples.  Only the part of a time that is work is scaled: configured
waits, such as the serving batcher's window, last as long on a slow host
as on a fast one.  A change to the program moves its times and not the
reference work, so it still shows in full.
"""

from __future__ import annotations

import queue
import statistics
import threading
import time
from typing import List, Optional

import numpy as np

__all__ = ["REFERENCE_S", "WINDOW", "Calibration"]

#: Seconds one reference sample took on the benchmark's reference host
#: (2-vCPU Intel Xeon, quiet spell), without and with the thread
#: hand-offs.  Fixed: changing them rescales every recorded time.
REFERENCE_S = {False: 0.011, True: 0.020}

#: Samples around a segment whose median is its reference time: half
#: before it, half after it.  One sample jitters by 10-20 % with the
#: host, and now and then one is descheduled for several times its
#: length; the median of a window follows the slower drift only.
WINDOW = 8

_ROUND_TRIPS = 200


def _sample(matrices, hand_offs: bool) -> float:
    """Wall seconds of one fixed piece of reference work."""
    left, right, activations, patches, kernels = matrices
    started = time.perf_counter()
    total = 0
    for step in range(100_000):
        total += step % 7
    for _ in range(300):
        left @ right
        np.maximum(activations, 0.0)
    for _ in range(60):
        np.maximum(patches @ kernels, 0.0)
        (activations * activations).sum()
    if not hand_offs:
        return time.perf_counter() - started
    requests: queue.Queue = queue.Queue()
    replies: queue.Queue = queue.Queue()

    def echo() -> None:
        for _ in range(_ROUND_TRIPS):
            replies.put(requests.get())

    thread = threading.Thread(target=echo)
    thread.start()
    for step in range(_ROUND_TRIPS):
        requests.put(step)
        replies.get()
    thread.join()
    return time.perf_counter() - started


class Calibration:
    """Reference samples taken between the pieces of one run's work.

    ``hand_offs`` adds thread hand-offs to the reference work, for a
    workload whose time goes to threads waking each other.  A fit runs
    on one thread; leaving them out of its samples halves their length,
    and in high-steal spells they slow down far more than a fit does.
    """

    def __init__(self, hand_offs: bool) -> None:
        self.hand_offs = hand_offs
        rng = np.random.default_rng(0)
        self._matrices = (
            rng.normal(size=(128, 72)).astype(np.float32),
            rng.normal(size=(72, 16)).astype(np.float32),
            rng.normal(size=(32, 8, 10, 10)).astype(np.float32),
            # an im2col patch matrix of the fit's 3x3 convolutions
            rng.normal(size=(3200, 72)).astype(np.float32),
            rng.normal(size=(72, 8)).astype(np.float32))
        self.samples: List[float] = []
        self._warm = False

    @property
    def segment(self) -> int:
        """The segment work done now belongs to."""
        return len(self.samples)

    def sample(self) -> float:
        """Take one sample, ending the current segment; returns the wall
        seconds that took, to be kept out of the workload's times."""
        started = time.perf_counter()
        if not self._warm:
            # The first sample of a process pays for cold caches and the
            # first thread start; it is not kept.
            _sample(self._matrices, self.hand_offs)
            self._warm = True
        self.samples.append(_sample(self._matrices, self.hand_offs))
        return time.perf_counter() - started

    @property
    def seconds(self) -> float:
        """The run's reference time: the median over all its samples."""
        return statistics.median(self.samples)

    def local_seconds(self, segment: int) -> float:
        """The reference time around ``segment``: the median of the
        ``WINDOW`` samples nearest it, fewer if the run took fewer."""
        count = min(WINDOW, len(self.samples))
        first = min(max(segment - WINDOW // 2, 0), len(self.samples) - count)
        return statistics.median(self.samples[first:first + count])

    def scale(self, seconds: float, fixed: float = 0.0,
              segment: Optional[int] = None) -> float:
        """``seconds`` at reference speed, as the host ran in ``segment``
        (``None``: over the whole run).  ``fixed`` is the part of it the
        program spends in timed waits (a batching window), which take the
        same wall time at any host speed and so are not scaled."""
        measured = self.seconds if segment is None else \
            self.local_seconds(segment)
        return fixed + (seconds - fixed) * \
            REFERENCE_S[self.hand_offs] / measured
