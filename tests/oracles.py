"""Reference implementations that only the tests use.

``spike`` and ``lif_step`` are the composed, one-op-per-step LIF update
that the fused ``neurons.sn_layer`` is checked against; ``_lif_forward``
and ``_lif_backward`` are the earlier whole-step loop of ``sn_layer``,
kept unchanged, against which its spikes and gradients must stay
byte-identical; ``conv2d`` and ``depthwise_conv2d`` are the earlier
padded, C-ordered kernels, kept unchanged, against which the
channels-last kernels' outputs and gradients must stay byte-identical
(the depthwise weight gradient, summed in another order, within a
stated tolerance);
``ssc_encoder`` is the encoder's earlier composition, kept unchanged,
which repeats the clip over spike steps before its conv, against which
the encoder's spikes and BatchNorm buffers must stay byte-identical (its
gradients, summed in another order, within a stated tolerance);
``firing_rate`` is the binary-checked rate;
``grad_check`` compares analytic tape gradients with central finite
differences; ``held`` lists what a backward closure holds and
``closure_bytes`` weighs the arrays that a tape's closures hold, per op;
``channel_rows`` is the plain per-channel form of
``tensor._channel_runs``, and ``kernel_views`` records every view that
the BatchNorm and LIF kernels take, and whether it was a copy;
``forked_child`` compares a script's ``run()`` in a forked child with
the parent's;
``settled`` joins the worker jobs that a backward closure returns,
``submitted_jobs`` lists the jobs (weight gradients and the teacher's
forward) as they are submitted to the workers of the sweeps and steps,
and ``inline_jobs`` runs each on the caller's thread as it is submitted,
returning its result: the reference for the sweep that joins them and
for the training step.
"""

from __future__ import annotations

import contextlib
import inspect
import os
import subprocess
import sys
from concurrent.futures import Executor, Future, ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from spikegraph import blocks, network, neurons, tensor
from spikegraph.neurons import LifConfig
from spikegraph.tensor import (InvalidInputError, NumericalError, Tape, Tensor, _pair, add,
                               backward, mul, record_op, scale)

# the reset potential and the surrogate window width that ``sn_layer``
# fixes; the formulas below keep both general
V_RESET = 0.0
WINDOW_A = 1.0


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
    a = WINDOW_A
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


def ssc_encoder(enc, x: Tensor) -> Tensor:
    """``SscEncoder.forward`` as it was: x[B, C, V, T] repeated over the S
    spike steps, folded into the batch and run through the conv S times,
    the conv's output split back into [S, B, D, V, T]."""
    s, b = enc.spike_steps, x.shape[0]
    merged = tensor.reshape(tensor.repeat0(x, s), (s * b,) + x.shape[1:])
    y = tensor.conv2d(merged, enc.weight, enc.bias, stride=1, padding=1)
    return neurons.bn_sn_layer(tensor.reshape(y, (s, b, -1) + x.shape[-2:]), enc.bn, enc.lif)


def firing_rate(x: Tensor | np.ndarray) -> float:
    """Fraction of ones in a binary tensor."""
    data = x.data if isinstance(x, Tensor) else np.asarray(x)
    if data.size and not np.isin(data, (0.0, 1.0)).all():
        raise InvalidInputError("firing_rate requires a binary tensor")
    return float(data.mean()) if data.size else 0.0


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
    # v_next = h where no spike, V_RESET where spiked: h - s*h + s*V_RESET
    v_next = add(add(h, scale(mul(s, h), -1.0)), scale(s, V_RESET))
    return s, v_next


def _lif_forward(x: np.ndarray, h_hist: np.ndarray, cfg: LifConfig,
                 relaxed: bool) -> np.ndarray:
    """Run the recurrence over axis 0 of the currents ``x``, writing the
    membrane potentials into ``h_hist`` (may be x); returns the spikes."""
    tau, vth, vr, a = map(x.dtype.type, (cfg.decay_tau, cfg.v_threshold, V_RESET,
                                         WINDOW_A))
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
        cfg.decay_tau, cfg.v_threshold, V_RESET, WINDOW_A / 2, 1.0 / WINDOW_A))
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


def conv2d(x: Tensor, w: Tensor, bias: Tensor, stride=1, padding=0) -> Tensor:
    """Cross-correlation of x[B,Cin,H,W] with w[Cout,Cin,kh,kw], plus bias[Cout]."""
    sh, sw = _pair(stride)
    ph, pw = _pair(padding)
    if x.ndim != 4 or w.ndim != 4:
        raise InvalidInputError(
            f"conv2d expects rank-4 operands, got {x.shape}, {w.shape}")
    B, Cin, H, W = x.shape
    Cout, Cin_w, kh, kw = w.shape
    if Cin != Cin_w:
        raise InvalidInputError(
            f"conv2d channel mismatch: input {x.shape} vs kernel {w.shape}")
    Hp, Wp = H + 2 * ph, W + 2 * pw
    if kh > Hp or kw > Wp:
        raise InvalidInputError(
            f"conv2d kernel ({kh}x{kw}) larger than padded input ({Hp}x{Wp})")
    Ho = (Hp - kh) // sh + 1
    Wo = (Wp - kw) // sw + 1

    # im2col once (channels-last); forward and both backward passes are GEMMs
    xp = np.pad(x.data, ((0, 0), (0, 0), (ph, ph), (pw, pw))) if (ph or pw) else x.data
    xp_cl = np.ascontiguousarray(xp.transpose(0, 2, 3, 1))
    wd = w.data
    k_total = kh * kw
    cols = np.empty((B, Ho, Wo, k_total, Cin), dtype=x.data.dtype)
    for i in range(kh):
        for j in range(kw):
            cols[:, :, :, i * kw + j, :] = \
                xp_cl[:, i:i + sh * Ho:sh, j:j + sw * Wo:sw, :]
    cols2d = cols.reshape(B * Ho * Wo, k_total * Cin)
    w2d = np.ascontiguousarray(wd.transpose(0, 2, 3, 1)).reshape(Cout, k_total * Cin)
    out_data = np.ascontiguousarray(
        (cols2d @ w2d.T).reshape(B, Ho, Wo, Cout).transpose(0, 3, 1, 2))
    out_data += bias.data[None, :, None, None]
    out = Tensor._wrap(out_data)

    def backward(g):
        gt2d = np.ascontiguousarray(g.transpose(0, 2, 3, 1)).reshape(-1, Cout)
        gw = (gt2d.T @ cols2d).reshape(Cout, kh, kw, Cin).transpose(0, 3, 1, 2)
        gcols = (gt2d @ w2d).reshape(B, Ho, Wo, k_total, Cin)
        gxp_cl = np.zeros((B, Hp, Wp, Cin), dtype=x.data.dtype)
        for i in range(kh):
            for j in range(kw):
                gxp_cl[:, i:i + sh * Ho:sh, j:j + sw * Wo:sw, :] += \
                    gcols[:, :, :, i * kw + j, :]
        gxp = gxp_cl.transpose(0, 3, 1, 2)
        gx = gxp[:, :, ph:ph + H, pw:pw + W] if (ph or pw) else gxp
        return gx, gw, g.sum(axis=(0, 2, 3))

    record_op((x, w, bias), (out,), backward)
    return out


def depthwise_conv2d(x: Tensor, w: Tensor, stride=1, padding=0) -> Tensor:
    """Per-channel cross-correlation: x[B,C,H,W] with w[C,kh,kw]."""
    sh, sw = _pair(stride)
    ph, pw = _pair(padding)
    B, C, H, W = x.shape
    Cw, kh, kw = w.shape
    if C != Cw:
        raise InvalidInputError(f"depthwise channel mismatch: {x.shape} vs {w.shape}")
    Hp, Wp = H + 2 * ph, W + 2 * pw
    if kh > Hp or kw > Wp:
        raise InvalidInputError(
            f"depthwise kernel ({kh}x{kw}) larger than padded input ({Hp}x{Wp})")
    Ho = (Hp - kh) // sh + 1
    Wo = (Wp - kw) // sw + 1
    xp = np.pad(x.data, ((0, 0), (0, 0), (ph, ph), (pw, pw))) if (ph or pw) else x.data
    out_data = np.zeros((B, C, Ho, Wo), dtype=x.data.dtype)
    for i in range(kh):
        for j in range(kw):
            xs = xp[:, :, i:i + sh * Ho:sh, j:j + sw * Wo:sw]
            out_data += xs * w.data[None, :, i, j, None, None]
    out = Tensor._wrap(out_data)

    def backward(g):
        gxp = np.zeros_like(xp)
        gw = np.zeros_like(w.data)
        for i in range(kh):
            for j in range(kw):
                xs = xp[:, :, i:i + sh * Ho:sh, j:j + sw * Wo:sw]
                gw[:, i, j] = (g * xs).sum(axis=(0, 2, 3))
                gxp[:, :, i:i + sh * Ho:sh, j:j + sw * Wo:sw] += \
                    g * w.data[None, :, i, j, None, None]
        gx = gxp[:, :, ph:ph + H, pw:pw + W] if (ph or pw) else gxp
        return gx, gw

    record_op((x, w), (out,), backward)
    return out


class GradCheckReport:
    def __init__(self, max_rel_error: float, passed: bool, failures: int,
                 checked: int, note: str = ""):
        self.max_rel_error = max_rel_error
        self.passed = passed
        self.failures = failures
        self.checked = checked
        self.note = note

    def __repr__(self):
        status = "PASS" if self.passed else "FAIL"
        return (f"GradCheckReport({status}, max_rel={self.max_rel_error:.3e}, "
                f"failures={self.failures}/{self.checked}{', ' + self.note if self.note else ''})")


def grad_check(f: Callable[..., Tensor], leaves: Sequence[Tensor],
               h: float = 1e-4, tol: float = 1e-3,
               min_pass_fraction: float = 1.0) -> GradCheckReport:
    """Compare analytic gradients of scalar ``f(*leaves)`` with central differences.

    The check runs in float64 regardless of the leaves' dtype so the
    difference quotient is trustworthy at h=1e-4.
    """
    if h <= 0:
        raise InvalidInputError("grad_check requires h > 0")
    work = [Tensor(t.data.astype(np.float64), requires_grad=True, dtype=np.float64)
            for t in leaves]
    with Tape() as tape:
        out = f(*work)
        if out.size != 1:
            raise InvalidInputError("grad_check target must be scalar")
        backward(out, tape)
    analytic = [np.zeros_like(t.data) if t.grad is None else t.grad.copy() for t in work]
    if any(not np.isfinite(a).all() for a in analytic):
        return GradCheckReport(np.inf, False, -1, -1, note="non-finite analytic gradient")

    max_rel = 0.0
    failures = 0
    checked = 0
    for t, a in zip(work, analytic):
        flat = t.data.reshape(-1)
        aflat = a.reshape(-1)
        for idx in range(flat.size):
            orig = flat[idx]
            flat[idx] = orig + h
            fp = f(*work).item()
            flat[idx] = orig - h
            fm = f(*work).item()
            flat[idx] = orig
            numeric = (fp - fm) / (2.0 * h)
            denom = max(abs(aflat[idx]), abs(numeric))
            err = abs(aflat[idx] - numeric)
            rel = err / denom if denom > 1e-8 else err
            max_rel = max(max_rel, rel)
            if rel > tol:
                failures += 1
            checked += 1
    passed = checked > 0 and (checked - failures) >= min_pass_fraction * checked
    return GradCheckReport(max_rel, passed, failures, checked)


def held(value, seen=None):
    """Every object ``value`` is or holds: in a list, tuple or dict, or in
    a closure cell of a function, each object once."""
    seen = set() if seen is None else seen
    if id(value) in seen:
        return
    seen.add(id(value))
    if isinstance(value, (list, tuple)):
        for v in value:
            yield from held(v, seen)
    elif isinstance(value, dict):
        for v in value.values():
            yield from held(v, seen)
    elif inspect.isfunction(value):
        for c in value.__closure__ or ():
            yield from held(c.cell_contents, seen)
    else:
        yield value


def _base(a: np.ndarray) -> np.ndarray:
    while isinstance(a.base, np.ndarray):
        a = a.base
    return a


def closure_bytes(tape: Tape) -> dict[str, int]:
    """Bytes of the arrays that the backward closures of ``tape``'s records
    hold, per op (the function that recorded the closure).  A view counts
    as the array it is cut from, and each such base array once, for the
    first record in tape order that holds it."""
    seen, per_op = set(), {}
    for rec in tape._records:
        op = rec.backward.__qualname__.split(".")[0]
        for a in held(rec.backward):
            if isinstance(a, np.ndarray) and id(_base(a)) not in seen:
                seen.add(id(_base(a)))
                per_op[op] = per_op.get(op, 0) + _base(a).nbytes
    return per_op


def channel_rows(*arrays):
    """``tensor._channel_runs`` without its runs: each chunk goes whole, as
    [p, C] rows that meet the per-channel vector v[C] (form 1)."""
    return [(arrays, 1)]


@dataclass(frozen=True)
class KernelView:
    """One ``tensor._kernel_view`` call: with or without the channel axis,
    whether it read a gradient in the axis order of the array it meets
    (``backward``) rather than an input in its own, and whether the view
    had to be a copy."""
    channels: bool
    backward: bool
    copied: bool


@contextlib.contextmanager
def kernel_views():
    """Yield a list that gets a ``KernelView`` for every
    ``tensor._kernel_view`` call made inside the block, from ``tensor``
    and from ``neurons``, which imports it."""
    calls, original = [], tensor._kernel_view

    def spy(a, channels=False, order=None):
        v, used = original(a, channels, order)
        calls.append(KernelView(channels, order is not None,
                                a.size > 0 and not np.may_share_memory(v, a)))
        return v, used

    tensor._kernel_view = neurons._kernel_view = spy
    try:
        yield calls
    finally:
        tensor._kernel_view = neurons._kernel_view = original


def settled(grads: tuple) -> tuple:
    """A backward closure's gradients, each worker job (a ``Future``, see
    the sweep rule in ``tensor``) replaced by its result."""
    return tuple(tensor._ready(g) for g in grads)


def submitted_jobs(monkeypatch) -> list[Future]:
    """The futures of the jobs that the sweeps and the training step submit
    from now on, which still run on the workers those own."""
    jobs = []

    class Recording(ThreadPoolExecutor):
        def submit(self, fn, *args):
            jobs.append(super().submit(fn, *args))
            return jobs[-1]

    for module in (tensor, network):
        monkeypatch.setattr(module, "ThreadPoolExecutor", Recording)
    return jobs


def _run_now(fn, *args):
    return fn(*args)


class _InlineWorker(Executor):
    """A ``ThreadPoolExecutor`` stand-in that runs each job at once, on
    the caller's thread, and returns it done."""

    def __init__(self, *args, **kwargs):
        pass

    def submit(self, fn, *args):
        job = Future()
        job.set_result(fn(*args))
        return job


_FORK = """
import os
import time

want = run()
pid = os.fork()
if pid == 0:
    os._exit(0 if run() == want else 1)
deadline = time.monotonic() + 20
while time.monotonic() < deadline:
    done, status = os.waitpid(pid, os.WNOHANG)
    if done:
        print("child", os.waitstatus_to_exitcode(status))
        break
    time.sleep(0.01)
else:
    os.kill(pid, 9)
    print("child hung")
"""


def forked_child(script: str) -> list[str]:
    """Run ``script``, which defines ``run()`` returning bytes, in a new
    interpreter: ``run()`` once, then again in a child forked after it,
    which has none of the parent's threads.  The words it prints: ["child", "0"] when
    the child got the same bytes, ["child", "hung"] after 20 s."""
    src = os.path.dirname(os.path.dirname(tensor.__file__))
    proc = subprocess.run([sys.executable, "-c", script + _FORK], timeout=60,
                          env={**os.environ, "PYTHONPATH": src},
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.split()


def inline_jobs(monkeypatch) -> None:
    """Make ``tensor._later`` run each job at once, on the caller's thread,
    and hand its result on, in every module that submits jobs, and the
    training step run the teacher's forward the same way, before the
    student's: the sweep then sums every gradient eagerly, as arrays.  (A
    done ``Future`` would take the same settling path as the worker's, and
    could not show a wrong order of the parts.)"""
    for module in (tensor, blocks):
        monkeypatch.setattr(module, "_later", _run_now)
    monkeypatch.setattr(network, "ThreadPoolExecutor", _InlineWorker)
