"""LIF spiking neuron: hard reset, multi-step unrolling, rectangular surrogate.

The discrete update is the decay-factor form h = tau * v + I; a spike fires
when h >= v_threshold (boundary inclusive) and the carried potential hard-
resets to v_reset.  The backward rule for the threshold is a rectangular
window of width ``a`` centered at the threshold with height 1/a; setting
``relaxed=True`` swaps the Heaviside forward for its clipped-linear
relaxation sigma_a(x) = clamp((x - v_th)/a + 0.5, 0, 1), whose true
derivative equals the same window, so a finite-difference check can reach
the surrogate gradient.

The reset is a mask: with m = h < v_threshold, the next step receives
tau * h * m (plus tau * v_reset * (1 - m) when v_reset is not 0).  A NaN or
infinite membrane therefore carries to the last step, where one check
covers the whole input.

Layout rule: every kernel works on a view of its arrays in their own
memory order (``tensor._memory_view``), and its outputs, history and
gradients are laid out as its input is.  The recurrence runs a tile of
about ``tensor._TILE`` elements through all S steps before the next
tile, with every temporary one tile of scratch, allocated once per call.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .tensor import (_TILE, InvalidInputError, NumericalError, Tensor, _active_tape,
                     _bn_backward, _bn_normalize, _bn_setup, _from_view, _memory_view,
                     record_op)


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
    reset path included), equivalent to composing the one-step update S
    times.  Without an active tape, or for an input that needs no
    gradient, no membrane history is kept.
    """
    if x.ndim < 1 or x.shape[0] == 0:
        raise InvalidInputError("sn_layer requires a non-empty leading spike-step axis")
    keep = x.requires_grad and _active_tape() is not None
    out_data, h_hist = _lif_forward(x.data, cfg, relaxed, keep)
    out = Tensor._wrap(out_data)

    def backward(g):
        return (_lif_backward(g, h_hist, out_data, cfg),)

    record_op((x,), (out,), backward)
    return out


def bn_sn_layer(x: Tensor, bn, cfg: LifConfig) -> Tensor:
    """``sn_layer(bn(x))`` for a ``module.BatchNorm`` in training, as one
    tape record with inputs (x, gamma, beta), bit-identical to the pair.

    The recurrence normalizes x a tile at a time, as it reaches it, into
    the buffer that becomes its membrane history (laid out as x); backward
    applies BatchNorm's per-channel affine to the BPTT gradient in place,
    from x, which the op that produced x keeps anyway.
    """
    if x.ndim < 4 or x.shape[0] == 0:
        raise InvalidInputError("bn_sn_layer requires [S, ..., C, V, T] with S > 0")
    gamma = bn.gamma
    xv, order, mu, std, affine = _bn_setup(x, gamma, bn.beta, bn.running_mean,
                                           bn.running_var, True, bn.momentum, bn.eps)
    if order[0] == 0:
        out_data, h_hist = _lif_forward(x.data, cfg, False, True, affine)
    else:                      # the steps are not outermost in memory
        hv = np.empty(xv.shape, dtype=xv.dtype)
        _bn_normalize(xv, hv, affine)
        out_data, h_hist = _lif_forward(_from_view(hv, x.shape, order), cfg, False, True)
    out = Tensor._wrap(out_data)

    def backward(g):
        gx = _lif_backward(g, h_hist, out_data, cfg)
        return _bn_backward(gx, xv, order, mu, std, gamma.data, out=gx)

    record_op((x, gamma, bn.beta), (out,), backward)
    return out


def _step_view(a: np.ndarray, channels: bool = False, order=None):
    """(``a`` as [A, S, R, C, Q], the axis order used): the step axis 0 at
    1, the axes ahead of it in memory merged into A and those behind it
    into R; with ``channels`` (steps outermost in memory), into R, the
    channel axis -3 as C and the axes behind that as Q.  Tiles of R rows
    are what the recurrence carries through every step; per-channel
    vectors shaped [C, 1] broadcast over them.  See ``tensor._memory_view``."""
    if not channels:
        v, order = _memory_view(a, 0, order)
        return v[..., None, None], order
    v, order = _memory_view(a, a.ndim - 3, order)                   # [S*R, C, Q]
    return v.reshape(1, a.shape[0], -1, *v.shape[1:]), order


@np.errstate(invalid="ignore")
def _lif_forward(x: np.ndarray, cfg: LifConfig, relaxed: bool, keep: bool,
                 affine=None):
    """Run the recurrence over axis 0 of the currents ``x``; return the
    spikes and, if ``keep``, the membrane history (else None), both laid
    out as x is.  Without ``keep`` the membrane lives in one tile of
    scratch.  With ``affine`` (``tensor._bn_setup``) the currents are
    BatchNorm's output for x, made tile by tile; x must then hold its steps
    outermost in memory.  A non-finite membrane at the last step raises;
    an infinite one times the reset mask 0 is NaN, carried there silently."""
    tau, vth, vr, a = map(x.dtype.type, (cfg.decay_tau, cfg.v_threshold, cfg.v_reset,
                                         cfg.surrogate_window_a))
    xs, order = _step_view(x, affine is not None)                   # [A, S, R, C, Q]
    hs = np.empty(xs.shape, dtype=x.dtype) if keep else None
    out = np.empty(xs.shape, dtype=x.dtype)
    rows = max(1, _TILE // (xs.shape[0] * xs.shape[3] * xs.shape[4]))
    vbuf = np.empty_like(xs[:, 0, :rows])    # the decayed carried potential
    hbuf = np.empty_like(vbuf) if hs is None else None
    tbuf = np.empty_like(vbuf) if relaxed or vr else None
    mbuf = np.empty(vbuf.shape, dtype=bool)
    for j in range(0, xs.shape[2], rows):
        tile = slice(j, j + rows)
        n = min(rows, xs.shape[2] - j)
        v, m = vbuf[:, :n], mbuf[:, :n]
        t = None if tbuf is None else tbuf[:, :n]
        v.fill(tau * vr)
        for s in range(xs.shape[1]):
            h = hbuf[:, :n] if hs is None else hs[:, s, tile]
            if affine is None:
                np.add(xs[:, s, tile], v, out=h)
            else:
                _bn_normalize(xs[:, s, tile], h, affine)
                h += v
            sig = out[:, s, tile]
            if relaxed:
                np.subtract(h, vth, out=sig)
                sig /= a
                sig += 0.5
                np.clip(sig, 0.0, 1.0, out=sig)
                np.multiply(sig, h, out=v)
                np.subtract(h, v, out=v)          # h - sig*h + vr*sig
                np.multiply(sig, vr, out=t)
                v += t
                v *= tau
            else:
                np.less(h, vth, out=m)
                np.logical_not(m, out=sig)
                np.multiply(h, m, out=v)          # tau*h*m + tau*vr*(1 - m)
                v *= tau
                if vr:
                    np.multiply(sig, tau * vr, out=t)
                    v += t
        if not np.isfinite(h).all():
            raise NumericalError("sn_layer input or membrane potential is non-finite")
    return (_from_view(out, x.shape, order),
            None if hs is None else _from_view(hs, x.shape, order))


def _lif_backward(g: np.ndarray, h_hist: np.ndarray, out_data: np.ndarray,
                  cfg: LifConfig) -> np.ndarray:
    """BPTT through the recurrence, reset path included, into a new array
    laid out as ``h_hist``; every temporary is one tile of scratch."""
    tau, vth, vr, half_a, inv_a = map(h_hist.dtype.type, (
        cfg.decay_tau, cfg.v_threshold, cfg.v_reset, cfg.surrogate_window_a / 2,
        1.0 / cfg.surrogate_window_a))
    hs, order = _step_view(h_hist)                                  # [A, S, R, 1, 1]
    gs = _step_view(g, order=order)[0]
    sigs = _step_view(out_data, order=order)[0]
    gx = np.empty(hs.shape, dtype=h_hist.dtype)
    rows = max(1, _TILE // hs.shape[0])
    gvbuf = np.empty_like(hs[:, 0, :rows])  # gradient reaching the carried potential
    tbuf = np.empty_like(gvbuf)
    mbuf = np.empty(gvbuf.shape, dtype=bool)
    last = hs.shape[1] - 1
    for j in range(0, hs.shape[2], rows):
        tile = slice(j, j + rows)
        n = min(rows, hs.shape[2] - j)
        gv, t, mask = gvbuf[:, :n], tbuf[:, :n], mbuf[:, :n]
        for s in range(last, -1, -1):
            h, gh, gin = hs[:, s, tile], gx[:, s, tile], gs[:, s, tile]
            np.subtract(h, vth, out=t)
            np.abs(t, out=t)
            np.less_equal(t, half_a, out=mask)  # the surrogate window
            if s == last:
                np.multiply(gin, mask, out=gh)
                if inv_a != 1:
                    gh *= inv_a
            else:
                if vr:
                    np.subtract(vr, h, out=t)
                    t *= gv
                    t += gin
                else:
                    np.multiply(h, gv, out=t)
                    np.subtract(gin, t, out=t)
                t *= mask
                if inv_a != 1:
                    t *= inv_a
                np.multiply(gv, sigs[:, s, tile], out=gh)
                np.subtract(gv, gh, out=gh)
                gh += t
            np.multiply(gh, tau, out=gv)
    return _from_view(gx, h_hist.shape, order)
