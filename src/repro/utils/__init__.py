"""Shared utilities: seeded RNG plumbing and run logging."""

from repro.utils.rng import new_rng, spawn_rng, seed_everything
from repro.utils.run_log import RunLogger, get_logger

__all__ = [
    "new_rng",
    "spawn_rng",
    "seed_everything",
    "RunLogger",
    "get_logger",
]
