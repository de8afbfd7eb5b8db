"""Skeleton spiking coding: lift a [C,T,V] modality to spikes [S,D,V,T]."""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .blocks import spiking_linear_bn
from .module import BatchNorm, Module, Parameter, kaiming_normal
from .neurons import LifConfig
from .profiler import record_cost
from .tensor import InvalidInputError, Tensor, conv2d, permute, repeat0, reshape


@dataclass(frozen=True)
class SscConfig:
    spike_steps: int
    hidden_channels: int
    kernel_size: ClassVar[int] = 3  # fixed by the encoder design

    def __post_init__(self):
        if self.spike_steps < 1 or self.hidden_channels < 1:
            raise InvalidInputError("spike_steps and hidden_channels must be >= 1")


def ssc_expand(x: Tensor, spike_steps: int) -> Tensor:
    """Permute [.., C, T, V] to [.., C, V, T] and replicate along a new
    leading spike-step axis (deterministic constant coding)."""
    if spike_steps < 1:
        raise InvalidInputError(f"spike_steps must be >= 1, got {spike_steps}")
    if x.ndim == 3:  # [C, T, V]
        swapped = permute(x, (0, 2, 1))
    elif x.ndim == 4:  # [B, C, T, V]
        swapped = permute(x, (0, 1, 3, 2))
    else:
        raise InvalidInputError(f"ssc_expand expects rank 3 or 4 input, got {x.shape}")
    return repeat0(swapped, spike_steps)


class SscEncoder(Module):
    """Expand -> 3x3 conv over the (V, T) plane -> BN -> spiking neurons.

    Each modality owns an independent instance (separate weights).
    """

    def __init__(self, in_channels: int, cfg: SscConfig, lif: LifConfig,
                 rng: np.random.Generator):
        super().__init__()
        self.in_channels = in_channels
        self.cfg = cfg
        self.lif = lif
        k = cfg.kernel_size
        fan_in = in_channels * k * k
        self.weight = Parameter(kaiming_normal(rng, (cfg.hidden_channels, in_channels, k, k), fan_in))
        self.bias = Parameter(np.zeros(cfg.hidden_channels, dtype=np.float32))
        self.bn = BatchNorm(cfg.hidden_channels)

    def forward(self, x: Tensor) -> Tensor:
        """x[B, C, T, V] -> spikes [S, B, D, V, T]."""
        if x.ndim != 4:
            raise InvalidInputError(f"SscEncoder expects [B, C, T, V], got {x.shape}")
        record_cost("encoder", self, x)
        s = self.cfg.spike_steps
        b = x.shape[0]
        expanded = ssc_expand(x, s)  # [S, B, C, V, T]
        merged = reshape(expanded, (s * b,) + expanded.shape[2:])
        pad = self.cfg.kernel_size // 2
        return spiking_linear_bn(  # the conv keeps (V, T); its output splits S from B
            lambda m, w, bias: reshape(conv2d(m, w, bias, stride=1, padding=pad),
                                       (s, b, -1) + expanded.shape[-2:]),
            merged, self.weight, self.bn, self.lif, self.bias)
