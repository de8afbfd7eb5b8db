"""LIF spiking neuron: hard reset, multi-step unrolling, rectangular surrogate.

The discrete update is the decay-factor form h = tau * v + I; a spike fires
when h >= v_threshold (boundary inclusive) and the carried potential hard-
resets to v_reset.  The backward rule for the threshold is a rectangular
window of width ``a`` centered at the threshold with height 1/a; setting
``relaxed=True`` swaps the Heaviside forward for its clipped-linear
relaxation sigma_a(x) = clamp((x - v_th)/a + 0.5, 0, 1), whose true
derivative equals the same window, so a finite-difference check can reach
the surrogate gradient.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .tensor import (InvalidInputError, NumericalError, Tensor, _bn_backward,
                     _bn_stats, _bn_xhat, record_op)


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


def sn_layer(x: Tensor, cfg: LifConfig, relaxed: bool = False) -> Tensor:
    """Unroll the LIF recurrence over the leading spike-step axis of ``x``.

    Membrane state starts at v_reset and is carried between steps; the S
    binary maps are stacked back along axis 0.  Forward and backward are
    fused into one tape record (BPTT through the unrolled recurrence,
    reset path included), equivalent to composing the one-step update S times.
    """
    if x.ndim < 1 or x.shape[0] == 0:
        raise InvalidInputError("sn_layer requires a non-empty leading spike-step axis")
    if not np.isfinite(x.data).all():
        raise NumericalError("sn_layer input contains non-finite values")
    h_hist = np.empty_like(x.data)
    out_data = _lif_forward(x.data, h_hist, cfg, relaxed)
    out = Tensor._wrap(out_data)

    def backward(g):
        return (_lif_backward(g, h_hist, out_data, cfg),)

    record_op((x,), (out,), backward)
    return out


def bn_sn_layer(x: Tensor, bn, cfg: LifConfig) -> Tensor:
    """``sn_layer(bn(x))`` for a ``module.BatchNorm`` in training, as one
    tape record with inputs (x, gamma, beta), bit-identical to the pair.

    The normalized input is written, in x's memory order, into the buffer
    that the recurrence turns into its membrane history; backward
    recomputes x-hat from x, which the op that produced x keeps anyway.
    """
    if x.ndim < 4 or x.shape[0] == 0:
        raise InvalidInputError("bn_sn_layer requires [S, ..., C, V, T] with S > 0")
    if not np.isfinite(x.data).all():
        raise NumericalError("bn_sn_layer input contains non-finite values")
    gamma, beta, xd = bn.gamma, bn.beta, x.data
    red_axes, n, bshape, mu, inv_std = _bn_stats(x, gamma, beta, bn.running_mean,
                                                 bn.running_var, True, bn.momentum, bn.eps)
    h_hist = _bn_xhat(xd, mu, inv_std, bshape)
    h_hist *= gamma.data.reshape(bshape)
    h_hist += beta.data.reshape(bshape)
    out_data = _lif_forward(h_hist, h_hist, cfg, relaxed=False)
    out = Tensor._wrap(out_data)

    def backward(g):
        gx = _lif_backward(g, h_hist, out_data, cfg)
        return _bn_backward(gx, _bn_xhat(xd, mu, inv_std, bshape), gamma.data, inv_std,
                            n, red_axes, bshape, out=gx)

    record_op((x, gamma, beta), (out,), backward)
    return out


def _lif_forward(x: np.ndarray, h_hist: np.ndarray, cfg: LifConfig,
                 relaxed: bool) -> np.ndarray:
    """Run the recurrence over axis 0 of the currents ``x``, writing the
    membrane potentials into ``h_hist`` (may be x); returns the spikes."""
    tau, vth, vr, a = map(x.dtype.type, (cfg.decay_tau, cfg.v_threshold, cfg.v_reset,
                                         cfg.surrogate_window_a))
    out_data = np.empty_like(h_hist)
    v = np.full_like(h_hist[0], vr)   # in h's memory order
    for s in range(x.shape[0]):
        h = h_hist[s]
        v *= tau
        np.add(x[s], v, out=h)
        if relaxed:
            out_data[s] = np.clip((h - vth) / a + 0.5, 0.0, 1.0)
        else:
            out_data[s] = h >= vth
        sig = out_data[s]
        v = h - sig * h + vr * sig
    return out_data


def _lif_backward(g: np.ndarray, h_hist: np.ndarray, out_data: np.ndarray,
                  cfg: LifConfig) -> np.ndarray:
    """BPTT through the recurrence, reset path included, into a new array."""
    tau, vth, vr, half_a, inv_a = map(h_hist.dtype.type, (
        cfg.decay_tau, cfg.v_threshold, cfg.v_reset, cfg.surrogate_window_a / 2,
        1.0 / cfg.surrogate_window_a))
    gx = np.empty_like(h_hist)
    gv = None
    for s in range(h_hist.shape[0] - 1, -1, -1):
        h = h_hist[s]
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
            np.multiply(gv, out_data[s], out=gh)
            np.subtract(gv, gh, out=gh)
            gh += g_sig
        gv = tau * gh
    return gx


def firing_rate(x: Tensor | np.ndarray) -> float:
    """Fraction of ones in a binary tensor."""
    data = x.data if isinstance(x, Tensor) else np.asarray(x)
    if data.size and not np.isin(data, (0.0, 1.0)).all():
        raise InvalidInputError("firing_rate requires a binary tensor")
    return float(data.mean()) if data.size else 0.0
