"""Skeleton spiking coding: lift a modality x[B, C, V, T] to spikes
[S, B, D, V, T] by a 3x3 conv over the (V, T) plane, run once per clip,
then constant coding (its output repeated at each of the S spike steps)
into spiking neurons."""

from __future__ import annotations

import numpy as np

from .module import BatchNorm, Module, Parameter, kaiming_normal
from .neurons import LifConfig, bn_sn_layer
from .profiler import record_cost
from .tensor import InvalidInputError, Tensor, conv2d, repeat0

KERNEL_SIZE = 3  # fixed by the encoder design


class SscEncoder(Module):
    """3x3 conv over the (V, T) plane, once per clip -> repeat over spike
    steps (constant coding) -> BN -> spiking neurons.

    Each modality owns an independent instance (separate weights).
    """

    def __init__(self, in_channels: int, spike_steps: int, hidden_channels: int,
                 lif: LifConfig, rng: np.random.Generator):
        super().__init__()
        if spike_steps < 1 or hidden_channels < 1:
            raise InvalidInputError("spike_steps and hidden_channels must be >= 1")
        self.in_channels = in_channels
        self.spike_steps = spike_steps
        self.lif = lif
        k = KERNEL_SIZE
        fan_in = in_channels * k * k
        self.weight = Parameter(
            kaiming_normal(rng, (hidden_channels, in_channels, k, k), fan_in))
        self.bias = Parameter(np.zeros(hidden_channels, dtype=np.float32))
        self.bn = BatchNorm(hidden_channels)

    def forward(self, x: Tensor) -> Tensor:
        """x[B, C, V, T] -> uint8 spikes [S, B, D, V, T]."""
        if x.ndim != 4:
            raise InvalidInputError(f"SscEncoder expects [B, C, V, T], got {x.shape}")
        record_cost("encoder", self, x)
        y = conv2d(x, self.weight, self.bias, stride=1, padding=KERNEL_SIZE // 2)
        return bn_sn_layer(repeat0(y, self.spike_steps), self.bn, self.lif)
