"""LIF spiking neuron: hard reset to 0, multi-step unrolling, rectangular
surrogate.

The discrete update is the decay-factor form h = tau * v + I; a spike fires
when h >= v_threshold (boundary inclusive) and the carried potential hard-
resets to 0.  The backward rule for the threshold is the unit rectangular
window |h - v_threshold| <= 0.5 with height 1; setting ``relaxed=True``
swaps the Heaviside forward for its clipped-linear relaxation
sigma(x) = clamp(x - v_th + 0.5, 0, 1), whose true derivative equals the
same window, so a finite-difference check can reach the surrogate
gradient.

The reset is a mask: with m = h < v_threshold, the next step receives
tau * h * m.  A NaN or infinite membrane therefore carries to the last
step, where one check covers the whole input.

Dtype rule: hard spikes are ``uint8`` maps of 0 and 1, so the ops that
consume them keep one byte per element on the tape; the relaxed output is
float.  The membrane, its history and the input gradient are float32 for
integer input currents (a sum of spike maps) and in the input's dtype
otherwise (``tensor._grad_dtype``).

Layout rule: both ops compute in ``tensor._kernel_view``'s one layout,
steps outermost and ``bn_sn_layer``'s channels innermost, which every
input in the models has; any other input is read as one copy.  Outputs,
history and input gradients are laid out so.  The recurrence runs a tile
of about ``tensor._TILE`` elements through all S steps before the next
tile, with every temporary one tile of scratch, allocated once per call.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .tensor import (InvalidInputError, NumericalError, Tensor, _active_tape, _bn_backward,
                     _bn_normalize, _bn_setup, _from_view, _grad_dtype, _kernel_view,
                     _row_chunks, record_op)


@dataclass(frozen=True)
class LifConfig:
    v_threshold: float = 1.0
    decay_tau: float = 0.25

    def __post_init__(self):
        if not self.v_threshold > 0.0:
            raise InvalidInputError(
                f"v_threshold must be positive, got {self.v_threshold}")
        if not 0.0 < self.decay_tau <= 1.0:
            raise InvalidInputError(f"decay_tau must be in (0, 1], got {self.decay_tau}")


def sn_layer(x: Tensor, cfg: LifConfig, relaxed: bool = False) -> Tensor:
    """Unroll the LIF recurrence over the leading spike-step axis of ``x``.

    Membrane state starts at 0 and is carried between steps; the S
    binary maps are stacked back along axis 0, as ``uint8`` (float with
    ``relaxed``), steps outermost in memory and the other axes in x's
    memory order.  Forward and backward are fused into one tape record
    (BPTT through the unrolled recurrence, reset path included),
    equivalent to composing the one-step update S times.  Backward keeps
    only the membrane history, laid out as the spikes, and recomputes each
    step's spike factor from it, so the spikes are freed once the caller
    drops them.  Without an active tape, or for an input that needs no
    gradient, no membrane history is kept.
    """
    if x.ndim < 1 or x.shape[0] == 0:
        raise InvalidInputError("sn_layer requires a non-empty leading spike-step axis")
    keep = x.requires_grad and _active_tape() is not None
    xs, order = _kernel_view(x.data)
    out_s, h_hist = _lif_forward(xs, cfg, relaxed, keep)
    out = Tensor._wrap(_from_view(out_s, x.shape, order))
    x_shape = x.shape

    def backward(g):
        gs = _kernel_view(g, order=order)[0]
        return (_from_view(_lif_backward(gs, h_hist, cfg, relaxed), x_shape, order),)

    record_op((x,), (out,), backward)
    return out


def bn_sn_layer(x: Tensor, bn, cfg: LifConfig) -> Tensor:
    """``sn_layer(bn(x))`` for a ``module.BatchNorm``, as one tape record
    with inputs (x, gamma, beta), bit-identical to the pair in training and
    in eval.

    BatchNorm is the per-channel affine of ``tensor._bn_setup``: batch
    statistics in training (which update the running buffers), the running
    ones in eval.  The spikes are ``uint8``, laid out steps outermost and
    channels innermost, as ``tensor._kernel_view`` reads x.  The
    recurrence normalizes x a tile at a time, as it reaches it, into the
    buffer that becomes its membrane history.  Backward keeps x's view and
    that history, not the spikes: it recomputes the spike factor from the
    history, as ``sn_layer`` does, and applies BatchNorm's gradient to the
    BPTT gradient in place, from x.  As in ``sn_layer``, both are kept only
    under an active tape for inputs that need a gradient.
    """
    if x.ndim < 4 or x.shape[0] == 0:
        raise InvalidInputError("bn_sn_layer requires [S, ..., C, V, T] with S > 0")
    gamma, beta, training = bn.gamma, bn.beta, bn.training
    xv, order, mu, std, affine = _bn_setup(x, bn)
    keep = _active_tape() is not None and any(t.requires_grad for t in (x, gamma, beta))
    xs = xv.reshape(x.shape[0], -1, xv.shape[1])                    # [S, R, C]
    out_s, h_hist = _lif_forward(xs, cfg, False, keep, affine)
    out = Tensor._wrap(_from_view(out_s, x.shape, order))
    x_shape, gamma_d = x.shape, gamma.data

    def backward(g):
        gs = _kernel_view(g, True, order)[0].reshape(xs.shape)
        gx = _lif_backward(gs, h_hist, cfg, False).reshape(xv.shape)
        gx, gg, gb = _bn_backward(gx, xv, mu, std, gamma_d, training, out=gx)
        return _from_view(gx, x_shape, order), gg, gb

    record_op((x, gamma, beta), (out,), backward)
    return out


@np.errstate(invalid="ignore")
def _lif_forward(xs: np.ndarray, cfg: LifConfig, relaxed: bool, keep: bool,
                 affine=None):
    """Run the recurrence over axis 0 of the currents ``xs``, an [S, R] or
    [S, R, C] ``tensor._kernel_view``, a tile of R rows at a time; return
    the spikes (``uint8``, float if ``relaxed``) and, if ``keep``, the
    membrane history (else None), both dense and shaped as xs.  Without
    ``keep`` the membrane lives in one tile of scratch.  With ``affine``
    (``tensor._bn_setup``) xs is [S, R, C] and the currents are
    BatchNorm's output for it, made tile by tile.  A non-finite membrane at
    the last step raises; an infinite one times the reset mask 0 is NaN,
    carried there silently."""
    dtype = _grad_dtype(xs.dtype)                                   # the membrane's
    tau, vth = map(dtype.type, (cfg.decay_tau, cfg.v_threshold))
    hs = np.empty(xs.shape, dtype=dtype) if keep else None
    out = np.empty(xs.shape, dtype=dtype if relaxed else np.uint8)
    tiles = _row_chunks(xs[0])
    scratch = (tiles[0].stop if tiles else 0,) + xs.shape[2:]
    vbuf = np.empty(scratch, dtype=dtype)                # the decayed carried potential
    hbuf = np.empty_like(vbuf) if hs is None else None
    mbuf = np.empty(scratch, dtype=bool)
    for tile in tiles:
        n = tile.stop - tile.start
        v, m = vbuf[:n], mbuf[:n]
        v.fill(0.0)
        for s in range(xs.shape[0]):
            h = hbuf[:n] if hs is None else hs[s, tile]
            if affine is None:
                np.add(xs[s, tile], v, out=h)
            else:
                _bn_normalize(xs[s, tile], h, affine)
                h += v
            sig = out[s, tile]
            if relaxed:
                np.subtract(h, vth, out=sig)
                sig += 0.5
                np.clip(sig, 0.0, 1.0, out=sig)
                np.multiply(sig, h, out=v)
                np.subtract(h, v, out=v)          # h - sig*h
            else:
                np.less(h, vth, out=m)
                np.logical_not(m, out=sig)
                np.multiply(h, m, out=v)          # h*m
            v *= tau
        if not np.isfinite(h).all():
            raise NumericalError("sn_layer input or membrane potential is non-finite")
    return out, hs


def _lif_backward(gs: np.ndarray, hs: np.ndarray, cfg: LifConfig,
                  relaxed: bool) -> np.ndarray:
    """BPTT through the recurrence, reset path included, into a new dense
    array shaped as the membrane history ``hs`` (``_lif_forward``'s), from
    the gradient ``gs`` read in its layout; every temporary is one tile of
    scratch.  Only the membrane history is read: each step's spike factor
    is recomputed, into that step's gradient slot, from the window's
    h - v_threshold by ``_lif_forward``'s arithmetic (hard:
    h - v_threshold >= 0, which holds exactly when h >= v_threshold;
    ``relaxed``: the clipped-linear sigma).  The reset path keeps the form
    gv - gv*sigma, whose zeros are +0; gv * (h < v_threshold) would make
    some of them -0."""
    tau, vth, half = map(hs.dtype.type, (cfg.decay_tau, cfg.v_threshold, 0.5))
    gx = np.empty(hs.shape, dtype=hs.dtype)
    tiles = _row_chunks(hs[0])
    scratch = (tiles[0].stop if tiles else 0,) + hs.shape[2:]
    gvbuf = np.empty(scratch, dtype=hs.dtype)  # gradient reaching the carried potential
    tbuf = np.empty_like(gvbuf)
    mbuf = np.empty(scratch, dtype=bool)
    last = hs.shape[0] - 1
    for tile in tiles:
        n = tile.stop - tile.start
        gv, t, mask = gvbuf[:n], tbuf[:n], mbuf[:n]
        for s in range(last, -1, -1):
            h, gh, gin = hs[s, tile], gx[s, tile], gs[s, tile]
            np.subtract(h, vth, out=t)
            if s < last:                        # gh holds the spike factor
                if relaxed:
                    np.add(t, half, out=gh)
                    np.clip(gh, 0.0, 1.0, out=gh)
                else:
                    np.greater_equal(t, 0.0, out=gh)
            np.abs(t, out=t)
            np.less_equal(t, half, out=mask)    # the surrogate window
            if s == last:
                np.multiply(gin, mask, out=gh)
            else:
                np.multiply(h, gv, out=t)
                np.subtract(gin, t, out=t)
                t *= mask
                np.multiply(gv, gh, out=gh)
                np.subtract(gv, gh, out=gh)
                gh += t
            np.multiply(gh, tau, out=gv)
    return gx
