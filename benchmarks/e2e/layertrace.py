"""Outside-in layer tracing for the end-to-end benchmark.

The benchmark measures the program from the outside: :class:`LayerTrace`
replaces public functions and methods of ``repro`` with timing wrappers,
records a span per call, and puts every original back on
:meth:`LayerTrace.restore`.  Nothing under ``src/`` knows it is traced.

Each span has a name, a duration and a *self time*: its duration minus
the part covered by spans it caused on the same thread.  Self times of
nested spans therefore add up to the wall time they cover, which is what
lets a traced run say how much of the end-to-end total is left
unattributed.

Spans from every thread (training, the batcher pump, member pool
threads, client threads) report into one lock-protected table, so the
numbers do not depend on the program's process-global op profiler,
which is updated without a lock.
"""

from __future__ import annotations

import functools
import threading
import time
from typing import Callable, Dict, List, Optional, Tuple, Union

__all__ = ["LayerTrace"]

#: A span name, or a function of the wrapped call's arguments returning
#: one.
SpanName = Union[str, Callable[..., Optional[str]]]

_MISSING = object()


class LayerTrace:
    """Per-name span counts, total time and self time, from wrappers."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self._lock = threading.Lock()
        self._local = threading.local()
        # name -> [calls, total seconds, self seconds]
        self._stats: Dict[str, List[float]] = {}
        # (owner, attribute, the owner's own value before patching)
        self._patches: List[Tuple[object, str, object]] = []
        self._patched: List[Tuple[object, str, object]] = []

    # ------------------------------------------------------------------
    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self) -> Optional[str]:
        """Name of the innermost open span on this thread."""
        stack = self._stack()
        return stack[-1][0] if stack else None

    def _add(self, name: str, seconds: float, self_seconds: float) -> None:
        """Record one finished span (thread-safe)."""
        with self._lock:
            entry = self._stats.setdefault(name, [0, 0.0, 0.0])
            entry[0] += 1
            entry[1] += seconds
            entry[2] += self_seconds

    def call(self, name: str, func: Callable, *args, **kwargs):
        """Run ``func`` inside a span called ``name``."""
        stack = self._stack()
        frame = [name, 0.0]       # name, seconds covered by child spans
        stack.append(frame)
        started = self.clock()
        try:
            return func(*args, **kwargs)
        finally:
            seconds = self.clock() - started
            stack.pop()
            if stack:
                stack[-1][1] += seconds
            self._add(name, seconds, seconds - frame[1])

    # ------------------------------------------------------------------
    def replace(self, owner: object, attribute: str,
                replacement: Callable) -> None:
        """Set ``owner.attribute`` to ``replacement`` until :meth:`restore`.

        ``owner`` is a module, a class or an instance.  An attribute the
        owner inherits (a base-class method, a class method seen from an
        instance) is shadowed on the owner and deleted again on restore.
        """
        own = vars(owner).get(attribute, _MISSING)
        if isinstance(own, (staticmethod, classmethod)):
            raise TypeError(f"cannot replace descriptor "
                            f"{owner!r}.{attribute}")
        setattr(owner, attribute, replacement)
        self._patches.append((owner, attribute, own))
        self._patched.append((owner, attribute, own))

    def wrap(self, owner: object, attribute: str, name: SpanName) -> None:
        """Replace ``owner.attribute`` with a span-recording wrapper."""
        target = getattr(owner, attribute)
        namer = name if callable(name) else (lambda *_a, **_k: name)

        @functools.wraps(target)
        def wrapper(*args, **kwargs):
            return self.call(namer(*args, **kwargs), target, *args, **kwargs)
        self.replace(owner, attribute, wrapper)

    def restore(self) -> None:
        """Put every wrapped attribute back, newest first."""
        while self._patches:
            owner, attribute, own = self._patches.pop()
            if own is _MISSING:
                delattr(owner, attribute)
            else:
                setattr(owner, attribute, own)

    def is_restored(self) -> bool:
        """Is every attribute ever wrapped back to its original object?"""
        return not self._patches and all(
            vars(owner).get(attribute, _MISSING) is own
            for owner, attribute, own in self._patched)

    # ------------------------------------------------------------------
    def stats(self) -> Dict[str, Dict[str, float]]:
        """``{name: {calls, total_s, self_s}}`` — one consistent read."""
        with self._lock:
            return {name: {"calls": int(calls), "total_s": total,
                           "self_s": own}
                    for name, (calls, total, own) in self._stats.items()}
