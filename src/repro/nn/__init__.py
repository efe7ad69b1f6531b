"""Neural-network layer framework built on :mod:`repro.tensor`.

Public surface mirrors the familiar Module/Parameter pattern: layers in
:mod:`repro.nn.layers`, batch norm in :mod:`repro.nn.norm`, losses in
:mod:`repro.nn.losses`, and fused primitives in :mod:`repro.nn.functional`.
"""

from repro.nn.module import Module, Parameter
from repro.nn.layers import (
    AvgPool2d,
    Conv1d,
    Conv2d,
    Dropout,
    Embedding,
    Flatten,
    GlobalAvgPool2d,
    Linear,
    MaxPool2d,
    ReLU,
    Sequential,
    Tanh,
)
from repro.nn.norm import BatchNorm1d, BatchNorm2d
from repro.nn.losses import (
    accuracy,
    cross_entropy,
    distillation_loss,
    predict_probs,
)

__all__ = [
    "Module",
    "Parameter",
    "Linear",
    "Conv1d",
    "Conv2d",
    "Embedding",
    "ReLU",
    "Tanh",
    "Flatten",
    "MaxPool2d",
    "AvgPool2d",
    "GlobalAvgPool2d",
    "Dropout",
    "Sequential",
    "BatchNorm1d",
    "BatchNorm2d",
    "cross_entropy",
    "distillation_loss",
    "accuracy",
    "predict_probs",
]
