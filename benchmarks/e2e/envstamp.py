"""The environment stamp recorded with every benchmark run, and the history.

A timing means little without the machine it ran on, so every run
records the CPU model, core count, the share of CPU time the hypervisor
stole while it ran, the Python, numpy and BLAS builds, the BLAS thread
variables as found (the benchmark never sets them: thread policy belongs
to the program) and the git commit.  Runs are appended, one JSON object
per line, to ``history.jsonl`` beside this file; earlier lines are never
rewritten.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import pathlib
import platform
from typing import Dict, List, Optional

__all__ = ["THREAD_VARS", "StealMeter", "append_history", "git_sha",
           "stamp"]

HISTORY = pathlib.Path(__file__).resolve().parent / "history.jsonl"

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _cpu_times() -> Optional[List[int]]:
    """The aggregate ``cpu`` line of ``/proc/stat`` (None off Linux)."""
    try:
        with open("/proc/stat") as handle:
            fields = handle.readline().split()
    except OSError:
        return None
    return [int(value) for value in fields[1:]] if fields[:1] == ["cpu"] \
        else None


class StealMeter:
    """Share of CPU time stolen by the hypervisor between start and read."""

    def __init__(self) -> None:
        self._start = _cpu_times()

    def share(self) -> Optional[float]:
        end = _cpu_times()
        if self._start is None or end is None or len(end) < 8:
            return None
        delta = [b - a for a, b in zip(self._start, end)]
        total = sum(delta[:8])     # user..steal; guest time is in user
        return delta[7] / total if total > 0 else 0.0


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _blas_build() -> str:
    """The BLAS line(s) of ``numpy.show_config()``."""
    import numpy as np

    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        np.show_config()
    text = buffer.getvalue()
    start = text.find("blas:")
    if start < 0:
        return text.strip()[:300]
    block = text[start:].split("lapack:")[0]
    keep = [line.strip() for line in block.splitlines()
            if line.strip().startswith(("name:", "version:",
                                        "openblas configuration:"))]
    return "; ".join(keep) or block.strip()[:300]


def git_sha(root: pathlib.Path) -> str:
    """HEAD's commit read from ``.git`` directly; "unknown" outside git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref:"):
            return head
        ref = head.split(None, 1)[1]
        loose = git / ref
        if loose.exists():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def stamp(root: pathlib.Path, steal: StealMeter) -> Dict:
    """The environment stamp of this run (read at its end)."""
    import numpy as np

    return {
        "cpu": _cpu_model(),
        "nproc": os.cpu_count(),
        "steal_share": steal.share(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas_build(),
        "thread_env": {name: os.environ.get(name) for name in THREAD_VARS},
        "git_sha": git_sha(root),
    }


def append_history(record: Dict, path: pathlib.Path = HISTORY) -> None:
    """Append one run as a JSON line; never rewrites earlier runs."""
    with open(path, "a") as handle:
        handle.write(json.dumps(record, sort_keys=True) + "\n")
