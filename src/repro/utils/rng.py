"""Deterministic random-number plumbing.

All stochastic components (initialisers, loaders, data generators, baseline
resampling) accept an explicit ``numpy.random.Generator``; these helpers make
creating and splitting them uniform across the codebase so every experiment
is reproducible from a single integer seed.
"""

from __future__ import annotations

from typing import Optional, Union

import numpy as np

RngLike = Union[int, np.random.Generator, None]


def new_rng(seed: RngLike = None) -> np.random.Generator:
    """Return a ``Generator`` from a seed, an existing generator, or entropy."""
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def spawn_rng(rng: np.random.Generator, count: int = 1):
    """Split ``rng`` into ``count`` independent child generators."""
    seeds = rng.integers(0, 2 ** 63 - 1, size=count)
    children = [np.random.default_rng(int(s)) for s in seeds]
    return children[0] if count == 1 else children
