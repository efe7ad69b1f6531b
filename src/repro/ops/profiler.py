"""Per-op wall-clock and allocation accounting.

Activate with the :func:`profile_ops` context manager; while active, the
tensor dispatcher reports every registry forward/backward call made on
the same thread here.  The profiler is the ``profiler`` field of the
per-thread :mod:`repro.ops.modes` record, which the dispatcher binds once
per call anyway, so the overhead when inactive is one field read and an
``is None`` check per op call.

Example
-------
::

    with profile_ops() as prof:
        result = trainer.fit(train, test, rng=0)
    result.metadata["op_profile"] = prof.summary()
    print(prof.format_table())
"""

from __future__ import annotations

import contextlib
from typing import Dict, Optional

from repro.ops.modes import modes, state as _modes


class OpProfiler:
    """Accumulates per-op call counts, seconds, and output bytes."""

    __slots__ = ("_stats",)

    def __init__(self):
        # name -> [fwd_calls, fwd_seconds, bwd_calls, bwd_seconds, out_bytes]
        self._stats: Dict[str, list] = {}

    def _entry(self, name: str) -> list:
        entry = self._stats.get(name)
        if entry is None:
            entry = [0, 0.0, 0, 0.0, 0]
            self._stats[name] = entry
        return entry

    def record_forward(self, name: str, seconds: float, nbytes: int) -> None:
        entry = self._entry(name)
        entry[0] += 1
        entry[1] += seconds
        entry[4] += nbytes

    def record_backward(self, name: str, seconds: float) -> None:
        entry = self._entry(name)
        entry[2] += 1
        entry[3] += seconds

    # ------------------------------------------------------------------
    def summary(self) -> Dict[str, dict]:
        """Per-op stats, sorted by total seconds descending."""
        rows = {}
        order = sorted(self._stats.items(),
                       key=lambda item: -(item[1][1] + item[1][3]))
        for name, (fc, fs, bc, bs, nb) in order:
            rows[name] = {
                "forward_calls": fc,
                "forward_seconds": fs,
                "backward_calls": bc,
                "backward_seconds": bs,
                "total_seconds": fs + bs,
                "output_bytes": nb,
            }
        return rows

    def total_seconds(self) -> float:
        return sum(fs + bs for _, fs, _, bs, _ in self._stats.values())

    def format_table(self, top: int = 15) -> str:
        """Human-readable per-op table for CLI output."""
        header = (f"{'op':<24}{'fwd calls':>10}{'fwd ms':>10}"
                  f"{'bwd calls':>10}{'bwd ms':>10}{'alloc MB':>10}")
        lines = [header, "-" * len(header)]
        for name, row in list(self.summary().items())[:top]:
            lines.append(
                f"{name:<24}{row['forward_calls']:>10}"
                f"{row['forward_seconds'] * 1e3:>10.2f}"
                f"{row['backward_calls']:>10}"
                f"{row['backward_seconds'] * 1e3:>10.2f}"
                f"{row['output_bytes'] / 1e6:>10.2f}")
        lines.append(f"total op seconds: {self.total_seconds():.3f}")
        return "\n".join(lines)


def current_profiler() -> Optional[OpProfiler]:
    """The profiler collecting this thread's op calls, if any."""
    return _modes.profiler


@contextlib.contextmanager
def profile_ops():
    """Collect per-op stats from this thread's dispatches.

    Thread-local, like ``no_grad``: a profile sees only its own thread's
    ops, so executor threads neither leak into it nor race on its
    counters.
    """
    profiler = OpProfiler()
    with modes(profiler=profiler):
        yield profiler
