"""LIF spiking neuron: hard reset, multi-step unrolling, rectangular surrogate.

The discrete update is the decay-factor form h = tau * v + I; a spike fires
when h >= v_threshold (boundary inclusive) and the carried potential hard-
resets to v_reset.  The backward rule for the threshold is a rectangular
window of width ``a`` centered at the threshold with height 1/a; setting
``relaxed=True`` swaps the Heaviside forward for its clipped-linear
relaxation sigma_a(x) = clamp((x - v_th)/a + 0.5, 0, 1), whose true
derivative equals the same window, which is what the gradient oracle runs
against.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .tensor import (InvalidInputError, NumericalError, Tensor, add, mul,
                     record_op, scale)


@dataclass(frozen=True)
class LifConfig:
    v_threshold: float = 1.0
    v_reset: float = 0.0
    decay_tau: float = 0.25
    surrogate_window_a: float = 1.0

    def __post_init__(self):
        if not self.v_threshold > self.v_reset:
            raise InvalidInputError(
                f"v_threshold ({self.v_threshold}) must exceed v_reset ({self.v_reset})")
        if not 0.0 < self.decay_tau <= 1.0:
            raise InvalidInputError(f"decay_tau must be in (0, 1], got {self.decay_tau}")
        if not self.surrogate_window_a > 0.0:
            raise InvalidInputError(
                f"surrogate_window_a must be positive, got {self.surrogate_window_a}")


def spike(x: Tensor, cfg: LifConfig, relaxed: bool = False) -> Tensor:
    """Threshold nonlinearity with rectangular surrogate gradient.

    Forward: Heaviside(x - v_threshold), inclusive at the boundary.
    Backward: 1/a where |x - v_threshold| <= a/2, else 0.  With
    ``relaxed=True`` the forward becomes the clipped-linear relaxation and
    the backward rule is its exact derivative almost everywhere.
    """
    if not np.isfinite(x.data).all():
        raise NumericalError("spike input contains non-finite values")
    vth = cfg.v_threshold
    a = cfg.surrogate_window_a
    if relaxed:
        out_data = np.clip((x.data - vth) / a + 0.5, 0.0, 1.0).astype(x.data.dtype)
    else:
        out_data = (x.data >= vth).astype(x.data.dtype)
    out = Tensor._wrap(out_data)
    window = (np.abs(x.data - vth) <= a / 2.0)

    def backward(g):
        return ((g * window / a).astype(x.data.dtype),)

    record_op((x,), (out,), backward)
    return out


def lif_step(input_current: Tensor, v_prev: Tensor, cfg: LifConfig,
             relaxed: bool = False) -> tuple[Tensor, Tensor]:
    """One membrane update: h = tau*v + I; fire at h >= v_th; hard reset."""
    if input_current.shape != v_prev.shape:
        raise InvalidInputError(
            f"input {input_current.shape} and membrane {v_prev.shape} shapes differ")
    h = add(scale(v_prev, cfg.decay_tau), input_current)
    if not np.isfinite(h.data).all():
        raise NumericalError("membrane potential became non-finite")
    s = spike(h, cfg, relaxed=relaxed)
    # v_next = h where no spike, v_reset where spiked: h - s*h + s*v_reset
    v_next = add(add(h, scale(mul(s, h), -1.0)), scale(s, cfg.v_reset))
    return s, v_next


def sn_layer(x: Tensor, cfg: LifConfig, relaxed: bool = False) -> Tensor:
    """Unroll the LIF recurrence over the leading spike-step axis of ``x``.

    Membrane state starts at v_reset and is carried between steps; the S
    binary maps are stacked back along axis 0.  Forward and backward are
    fused into one tape record (BPTT through the unrolled recurrence,
    reset path included), equivalent to composing lif_step S times.
    """
    if x.ndim < 1 or x.shape[0] == 0:
        raise InvalidInputError("sn_layer requires a non-empty leading spike-step axis")
    if not np.isfinite(x.data).all():
        raise NumericalError("sn_layer input contains non-finite values")
    steps = x.shape[0]
    tau = x.data.dtype.type(cfg.decay_tau)
    vth = x.data.dtype.type(cfg.v_threshold)
    vr = x.data.dtype.type(cfg.v_reset)
    a = x.data.dtype.type(cfg.surrogate_window_a)

    xd = x.data
    h_hist = np.empty_like(xd)
    out_data = np.empty_like(xd)
    v = np.full(xd.shape[1:], vr, dtype=xd.dtype)
    for s in range(steps):
        h = h_hist[s]
        np.multiply(v, tau, out=h)
        h += xd[s]
        if relaxed:
            out_data[s] = np.clip((h - vth) / a + 0.5, 0.0, 1.0)
        else:
            out_data[s] = h >= vth
        sig = out_data[s]
        v = h - sig * h + vr * sig
    out = Tensor._wrap(out_data)
    inv_a = xd.dtype.type(1.0 / cfg.surrogate_window_a)
    half_a = a / 2

    def backward(g):
        gx = np.empty_like(xd)
        gv = None
        for s in range(steps - 1, -1, -1):
            h = h_hist[s]
            sig = out_data[s]
            mask = np.abs(h - vth) <= half_a
            gh = gx[s]
            if gv is None:
                np.multiply(g[s], mask, out=gh)
                gh *= inv_a
            else:
                g_sig = gv * (vr - h)
                g_sig += g[s]
                g_sig *= mask
                g_sig *= inv_a
                np.multiply(gv, sig, out=gh)
                np.subtract(gv, gh, out=gh)
                gh += g_sig
            gv = tau * gh
        return (gx,)

    record_op((x,), (out,), backward)
    return out


def firing_rate(x: Tensor | np.ndarray) -> float:
    """Fraction of ones in a binary tensor."""
    data = x.data if isinstance(x, Tensor) else np.asarray(x)
    if data.size and not np.isin(data, (0.0, 1.0)).all():
        raise InvalidInputError("firing_rate requires a binary tensor")
    return float(data.mean()) if data.size else 0.0
