"""Weight initialisers (He / Glorot families).

EDDE's knowledge-transfer step re-initialises the upper (task-specific)
layers of each new base model with the same initialiser used at
construction, so initialisers take an explicit RNG to stay reproducible.
"""

from __future__ import annotations

import numpy as np

from repro.tensor import default_dtype


def he_normal(shape, fan_in: int, rng: np.random.Generator) -> np.ndarray:
    """Kaiming-normal init, the paper's choice for ReLU conv nets.

    Weights are drawn in float64 (numpy's Generator native precision, so
    draws are identical across dtype policies) and then cast to the
    default float dtype.
    """
    std = np.sqrt(2.0 / fan_in)
    return rng.normal(0.0, std, size=shape).astype(default_dtype(), copy=False)


def glorot_uniform(shape, fan_in: int, fan_out: int, rng: np.random.Generator) -> np.ndarray:
    """Xavier init, used for embeddings and the TextCNN dense head."""
    bound = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-bound, bound, size=shape).astype(default_dtype(), copy=False)


def zeros(shape) -> np.ndarray:
    return np.zeros(shape, dtype=default_dtype())


def ones(shape) -> np.ndarray:
    return np.ones(shape, dtype=default_dtype())
