"""Skeleton spiking coding: lift a modality x[B, C, V, T] to spikes
[S, B, D, V, T] by constant coding (the input repeated at each of the S
spike steps) and a spiking 3x3 conv over the (V, T) plane."""

from __future__ import annotations

import numpy as np

from .blocks import spiking_linear_bn
from .module import BatchNorm, Module, Parameter, kaiming_normal
from .neurons import LifConfig
from .profiler import record_cost
from .tensor import InvalidInputError, Tensor, conv2d, repeat0, reshape

KERNEL_SIZE = 3  # fixed by the encoder design


class SscEncoder(Module):
    """Repeat over spike steps -> 3x3 conv over the (V, T) plane -> BN ->
    spiking neurons.

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
        """x[B, C, V, T] -> spikes [S, B, D, V, T]."""
        if x.ndim != 4:
            raise InvalidInputError(f"SscEncoder expects [B, C, V, T], got {x.shape}")
        record_cost("encoder", self, x)
        s = self.spike_steps
        b = x.shape[0]
        merged = reshape(repeat0(x, s), (s * b,) + x.shape[1:])
        return spiking_linear_bn(  # the conv keeps (V, T); its output splits S from B
            lambda m, w, bias: reshape(conv2d(m, w, bias, stride=1, padding=KERNEL_SIZE // 2),
                                       (s, b, -1) + x.shape[-2:]),
            merged, self.weight, self.bn, self.lif, self.bias)
