"""Minimal dense-tensor kernel set with reverse-mode differentiation on a tape.

The operator vocabulary is deliberately closed: matmul, conv2d (plus a
depthwise variant), batch_norm, lstm (a gated recurrence over every frame
of a constant input), elementwise arithmetic
(add/sub/mul/div/scale/exp/log/sqrt/relu), reductions (sum/mean/max)
and shape ops (reshape/permute/slice/repeat).
Modules may register further ops through ``record_op`` (the spiking
neurons live in ``neurons``).  Every op, and so every record on the tape,
has one output.  Everything runs on numpy arrays, float32 by default.

Dtype rule: spikes are ``uint8`` (``neurons``), and an op that receives
integer data computes in float32 where it does arithmetic, keeping the
integer array itself for its backward.  Shape ops keep the dtype; ``add``
keeps two unsigned integer operands unsigned where their sum cannot wrap.
A gradient is float32 for integer data (``_grad_dtype``).

Layout rule of the convolutions: their outputs are channels last in
memory (a [B, C, H, W] view of [B, H, W, C] data), and the gradient each
returns for x is laid out as x.  BatchNorm, here and in ``neurons``,
computes in one layout (``_kernel_view``): axis 0 outermost, the channel
axis -3 innermost and the other axes in the input's memory order, which
every input it gets in the models has; any other is read as one copy.
``repeat0`` lays its copies out as its input, the new axis outermost.

Error rule: every failure the package raises is one of three classes, one
per exit code of the command line: ``InvalidInputError`` (2: a bad
argument, shape, setting or path), ``FormatError`` (3: stored data that does
not parse) and ``NumericalError`` (4: a non-finite value).

Retention rule of the tape: a record holds its inputs' and its output's
gradient slots (``grad`` and ``requires_grad``), never a ``Tensor``, and a
backward closure captures only the arrays, shapes and dtypes it reads.  So
an activation lives while the forward code or a closure that reads it
holds it, not until the sweep reaches the records that name it.

Scope rule of the tape: the active tape is a context variable, so each
thread or asyncio task records only onto the tape it entered itself.
A ``Tape`` object is not re-entrant; no caller re-enters one.

Sweep rule: each sweep (``backward``) owns a worker thread, made when
the sweep starts and joined before it returns, also when it raises; it
starts a thread only at the sweep's first job.  A backward closure hands
a weight-gradient GEMM to it (``_later``) and may return the job, a
``Future``, in place of an input's gradient, so that the job runs while
the sweep goes on.  A slot holds one gradient: an array, one job or None.
A job that reaches an empty slot stays there until a record reads the
slot or ``backward`` returns; a second part that reaches a slot holding a
job waits for it and is summed after it, in sweep order, as arrays are; so
gradients are the same bytes as when every part is an array.  No sweep
waits for another's jobs, and a process forked after a sweep makes its
own worker at its next one.  A job must only read arrays that no later
closure writes.
"""

from __future__ import annotations

import math
import struct
from concurrent.futures import Future, ThreadPoolExecutor
from contextvars import ContextVar
from typing import Callable, Optional, Sequence

import numpy as np


class InvalidInputError(ValueError):
    """A bad argument, shape, setting or path: the caller's to mend (exit 2)."""


class FormatError(ValueError):
    """Stored data that does not parse: dataset, skeleton, blob, checkpoint (exit 3)."""


class NumericalError(ArithmeticError):
    """Non-finite or otherwise unusable numeric state (exit 4)."""


# ---------------------------------------------------------------------------
# Tape
# ---------------------------------------------------------------------------

_ACTIVE_TAPE: ContextVar[Optional["Tape"]] = ContextVar("active_tape", default=None)


class _Slot:
    """The part of a ``Tensor`` that the tape and the sweep touch: its
    gradient and whether it needs one, never its data.  Within a sweep,
    ``grad`` may be a job still running (the sweep rule)."""

    __slots__ = ("grad", "requires_grad")

    def __init__(self, requires_grad: bool = False):
        self.grad: Optional[np.ndarray] = None
        self.requires_grad = requires_grad


class _Record:
    """One recorded op: the slots of its inputs and of its output, the
    input gradient dtypes, and its backward."""

    __slots__ = ("inputs", "in_dtypes", "output", "backward")

    def __init__(self, inputs, out, backward):
        self.inputs = tuple(t._slot for t in inputs)
        self.in_dtypes = tuple(_grad_dtype(t.data.dtype) for t in inputs)
        self.output = out._slot
        self.backward = backward


def _grad_dtype(dtype) -> np.dtype:
    """The dtype of gradients of, and of arithmetic on, data of ``dtype``:
    float32 for integer data (spikes), ``dtype`` itself otherwise."""
    dtype = np.dtype(dtype)
    return dtype if dtype.kind in "fc" else np.dtype(np.float32)


def _as_float(a: np.ndarray) -> np.ndarray:
    """``a`` in its ``_grad_dtype``, laid out in memory as ``a`` is; float
    data is returned as is."""
    return a.astype(_grad_dtype(a.dtype), copy=False)


def _spec(a: np.ndarray):
    """(shape, gradient dtype, strides) of ``a``: what ``_zeros_as`` needs
    to lay out a gradient for ``a`` as ``a`` is, without keeping ``a``."""
    return a.shape, _grad_dtype(a.dtype), a.strides


def _memory_order(strides) -> tuple:
    """The axes sorted by stride, outermost in memory first."""
    return tuple(sorted(range(len(strides)), key=lambda i: -strides[i]))


def _zeros_as(shape, dtype, strides) -> np.ndarray:
    """Zeros of ``shape`` and ``dtype``, dense, laid out in the memory
    order of an array with ``strides``."""
    order = _memory_order(strides)
    return np.zeros([shape[i] for i in order], dtype=dtype).transpose(np.argsort(order))


class Tape:
    """Ordered record of executed operations.

    Ops executed while a tape is active (``with Tape() as tape:``) are
    appended in execution order; replaying the list in reverse visits each
    recorded operation exactly once and is a valid topological order.
    """

    def __init__(self):
        self._records: list[_Record] = []

    def __enter__(self) -> "Tape":
        self._token = _ACTIVE_TAPE.set(self)
        return self

    def __exit__(self, exc_type, exc, tb):
        _ACTIVE_TAPE.reset(self._token)
        return False

    def __len__(self) -> int:
        return len(self._records)

    def _owns(self, t: "Tensor") -> bool:
        return any(rec.output is t._slot for rec in self._records)


_active_tape = _ACTIVE_TAPE.get

# the worker of the sweep running in this context (the sweep rule); it
# runs jobs one at a time, in the order submitted, and in a context of its
# own: a job records onto no tape and no energy report
_SWEEP_WORKER: ContextVar[Optional[ThreadPoolExecutor]] = ContextVar("sweep_worker",
                                                                     default=None)


def _later(fn, *args):
    """``fn(*args)`` as a job on the worker of the sweep running in this
    context (see the sweep rule), which joins it before the sweep returns;
    with no sweep running, ``fn(*args)`` itself, computed at once."""
    worker = _SWEEP_WORKER.get()
    return fn(*args) if worker is None else worker.submit(fn, *args)


def _ready(part):
    """A gradient part's array, once its job (if it is one) is done."""
    return part.result() if isinstance(part, Future) else part


def record_op(inputs: Sequence["Tensor"], out: "Tensor", backward: Callable) -> None:
    """Register an executed op, with its one output ``out``, on the active
    tape.

    ``backward`` receives the upstream gradient array of ``out`` and must
    return one gradient array (or None) per input.  Extension point for
    ops defined outside this module.

    The record keeps the gradient slots of ``inputs`` and ``out``, not the
    tensors, so it holds no array of theirs: ``backward`` must capture the
    arrays, shapes and dtypes it reads, never a ``Tensor``.  An array no
    closure names is freed as soon as the forward code drops it.  The
    upstream gradient, and those ``backward`` should return, are float:
    float32 for an integer (spike) tensor.
    """
    requires = any(t.requires_grad for t in inputs)
    out.requires_grad = requires
    tape = _active_tape()
    if tape is not None and requires:
        tape._records.append(_Record(inputs, out, backward))


# ---------------------------------------------------------------------------
# Tensor
# ---------------------------------------------------------------------------

class Tensor:
    """N-d real array participating in the differentiation tape.

    ``grad`` and ``requires_grad`` live in the tensor's gradient slot,
    which the tape shares; ``data`` is the tensor's alone.
    """

    __slots__ = ("data", "_slot")

    def __init__(self, data, requires_grad: bool = False, dtype=None):
        if dtype is None:
            dtype = np.float32
        self.data = np.asarray(data, dtype=dtype)
        self._slot = _Slot(bool(requires_grad))

    @classmethod
    def _wrap(cls, arr: np.ndarray) -> "Tensor":
        """Internal constructor preserving dtype (op outputs)."""
        t = cls.__new__(cls)
        t.data = arr
        t._slot = _Slot()
        return t

    @property
    def grad(self) -> Optional[np.ndarray]:
        return self._slot.grad

    @grad.setter
    def grad(self, g: Optional[np.ndarray]) -> None:
        self._slot.grad = g

    @property
    def requires_grad(self) -> bool:
        return self._slot.requires_grad

    @requires_grad.setter
    def requires_grad(self, flag: bool) -> None:
        self._slot.requires_grad = flag

    # -- conveniences -------------------------------------------------------
    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    @property
    def size(self):
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    def item(self) -> float:
        return float(self.data.reshape(-1)[0])

    def detach(self) -> "Tensor":
        return Tensor._wrap(self.data)

    def __repr__(self):
        req = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.data.shape}, dtype={self.data.dtype}{req})"

    def __getitem__(self, key):
        return slice_(self, key)


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum a gradient down to ``shape`` (inverse of numpy broadcasting)."""
    if grad.shape == shape:
        return grad
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for i, (g, s) in enumerate(zip(grad.shape, shape)):
        if s == 1 and g != 1:
            grad = grad.sum(axis=i, keepdims=True)
    return grad


# ---------------------------------------------------------------------------
# Elementwise ops
# ---------------------------------------------------------------------------

def _uint_sum_fits(ad: np.ndarray, bd: np.ndarray) -> bool:
    """Whether ad and bd are unsigned integers whose largest elements sum
    within their common dtype, so that ad + bd cannot wrap."""
    if not ad.dtype.kind == bd.dtype.kind == "u":
        return False
    top = np.iinfo(np.result_type(ad, bd)).max
    return int(ad.max(initial=0)) + int(bd.max(initial=0)) <= top


def add(a: Tensor, b: Tensor) -> Tensor:
    """a + b, broadcast.  Spike maps and their sums stay unsigned integers
    where the sum cannot wrap; other integer operands add in float32."""
    ad, bd = a.data, b.data
    if not _uint_sum_fits(ad, bd):
        ad, bd = _as_float(ad), _as_float(bd)
    out = Tensor._wrap(ad + bd)
    sa, sb = a.shape, b.shape
    record_op((a, b), out, lambda g: (_unbroadcast(g, sa), _unbroadcast(g, sb)))
    return out


def sub(a: Tensor, b: Tensor) -> Tensor:
    out = Tensor._wrap(_as_float(a.data) - _as_float(b.data))
    sa, sb = a.shape, b.shape
    record_op((a, b), out, lambda g: (_unbroadcast(g, sa), _unbroadcast(-g, sb)))
    return out


def mul(a: Tensor, b: Tensor) -> Tensor:
    ad, bd = a.data, b.data
    out = Tensor._wrap(_as_float(ad) * _as_float(bd))

    def backward(g):
        return (_unbroadcast(g * _as_float(bd), ad.shape),
                _unbroadcast(g * _as_float(ad), bd.shape))

    record_op((a, b), out, backward)
    return out


def div(a: Tensor, b: Tensor) -> Tensor:
    ad, bd = _as_float(a.data), _as_float(b.data)
    out = Tensor._wrap(ad / bd)

    def backward(g):
        return (_unbroadcast(g / bd, ad.shape),
                _unbroadcast(-g * ad / (bd * bd), bd.shape))

    record_op((a, b), out, backward)
    return out


def scale(a: Tensor, c: float) -> Tensor:
    dtype = _grad_dtype(a.dtype)
    out = Tensor._wrap(np.multiply(a.data, dtype.type(c), dtype=dtype))
    record_op((a,), out, lambda g: (g * c,))
    return out


def exp(a: Tensor) -> Tensor:
    out_data = np.exp(_as_float(a.data))
    out = Tensor._wrap(out_data)
    record_op((a,), out, lambda g: (g * out_data,))
    return out


def log(a: Tensor) -> Tensor:
    ad = _as_float(a.data)
    out = Tensor._wrap(np.log(ad))
    record_op((a,), out, lambda g: (g / ad,))
    return out


def sqrt(a: Tensor) -> Tensor:
    out_data = np.sqrt(_as_float(a.data))
    out = Tensor._wrap(out_data)

    def backward(g):
        # subgradient 0 at x = 0 keeps norm-style losses finite
        safe = np.where(out_data > 0, out_data, 1.0)
        return (np.where(out_data > 0, g / (2.0 * safe), 0.0).astype(out_data.dtype),)

    record_op((a,), out, backward)
    return out


def relu(a: Tensor) -> Tensor:
    """max(a, 0) in one pass, laid out as a.  NaN propagates (it is not
    zeroed), so a diverging input shows in the loss."""
    ad = _as_float(a.data)
    out_data = np.maximum(ad, ad.dtype.type(0))
    out = Tensor._wrap(out_data)
    record_op((a,), out, lambda g: (g * (out_data > 0),))
    return out


# ---------------------------------------------------------------------------
# matmul
# ---------------------------------------------------------------------------

def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.ndim < 2 or b.ndim < 2:
        raise InvalidInputError(
            f"matmul requires rank >= 2 operands, got {a.shape} x {b.shape}")
    if a.shape[-1] != b.shape[-2]:
        raise InvalidInputError(
            f"matmul inner extents disagree: {a.shape} x {b.shape}")
    ad, bd = a.data, b.data
    try:
        out_data = np.matmul(_as_float(ad), _as_float(bd))
    except ValueError as err:
        raise InvalidInputError(
            f"matmul batch extents do not broadcast: {a.shape} x {b.shape}") from err
    out = Tensor._wrap(out_data)

    # integer operands are cast before they are transposed: the cast keeps
    # their memory order, so BLAS runs the GEMM as it would on float data
    def backward(g):
        ga = np.matmul(g, np.swapaxes(_as_float(bd), -1, -2))
        gb = np.matmul(np.swapaxes(_as_float(ad), -1, -2), g)
        return (_unbroadcast(ga, ad.shape), _unbroadcast(gb, bd.shape))

    record_op((a, b), out, backward)
    return out


# ---------------------------------------------------------------------------
# conv2d / depthwise_conv2d
# ---------------------------------------------------------------------------

def _pair(v) -> tuple[int, int]:
    if isinstance(v, (tuple, list)):
        return int(v[0]), int(v[1])
    return int(v), int(v)


def _tap_span(k: int, pad: int, stride: int, size: int, out_size: int):
    """(output slice, input slice) of the outputs whose tap ``k`` reads
    input index o*stride + k - pad inside [0, size); both may be empty."""
    lo = max(0, -((k - pad) // stride))
    hi = max(lo, min(out_size, (size - 1 + pad - k) // stride + 1))
    first = lo * stride + k - pad
    return slice(lo, hi), slice(first, first + stride * (hi - lo), stride)


def _conv_taps(kh, kw, stride, padding, shape, out_shape):
    """(tap index, output slices, input slices) of each tap of a kernel,
    row-major; the slices index [H, W] and skip the zero border."""
    (sh, sw), (ph, pw), (H, W), (Ho, Wo) = stride, padding, shape, out_shape
    rows = [_tap_span(i, ph, sh, H, Ho) for i in range(kh)]
    cols = [_tap_span(j, pw, sw, W, Wo) for j in range(kw)]
    return [(i * kw + j, (ro, co), (ri, ci))
            for i, (ro, ri) in enumerate(rows) for j, (co, ci) in enumerate(cols)]


def conv2d(x: Tensor, w: Tensor, bias: Tensor, stride=1, padding=0) -> Tensor:
    """Cross-correlation of x[B,Cin,H,W] with w[Cout,Cin,kh,kw], plus bias[Cout].

    im2col is read straight from x's channels-last view, the taps that fall
    in the zero padding written as zeros, and the GEMM's [B*Ho*Wo, Cout]
    output is returned as its [B, Cout, Ho, Wo] view: channels last in
    memory.  x's gradient is laid out as x.  im2col, which backward keeps,
    is in x's dtype (one byte for spikes) and cast for each GEMM.  w's
    gradient GEMM runs on the sweep's worker thread (``_later``) while
    backward computes x's.
    """
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

    # im2col once; forward and both backward passes are GEMMs
    x_cl = x.data.transpose(0, 2, 3, 1)
    taps = _conv_taps(kh, kw, (sh, sw), (ph, pw), (H, W), (Ho, Wo))
    k_total = kh * kw
    cols = np.empty((B, Ho, Wo, k_total, Cin), dtype=x.data.dtype)
    for k, (ro, co), (ri, ci) in taps:
        tap = cols[:, :, :, k, :]
        tap[:, :ro.start] = 0
        tap[:, ro.stop:] = 0
        tap[:, ro, :co.start] = 0
        tap[:, ro, co.stop:] = 0
        tap[:, ro, co] = x_cl[:, ri, ci]
    cols2d = cols.reshape(B * Ho * Wo, k_total * Cin)
    w2d = np.ascontiguousarray(w.data.transpose(0, 2, 3, 1)).reshape(Cout, k_total * Cin)
    out2d = _as_float(cols2d) @ w2d.T
    out2d += bias.data
    out = Tensor._wrap(out2d.reshape(B, Ho, Wo, Cout).transpose(0, 3, 1, 2))
    x_spec = _spec(x.data) if x.requires_grad else None

    def weight_grad(gt2d):
        return (gt2d.T @ _as_float(cols2d)).reshape(Cout, kh, kw, Cin).transpose(0, 3, 1, 2)

    def backward(g):
        gt2d = g.transpose(0, 2, 3, 1).reshape(-1, Cout)
        gw = _later(weight_grad, gt2d)
        gx = None
        if x_spec is not None:
            gcols = (gt2d @ w2d).reshape(B, Ho, Wo, k_total, Cin)
            gx = _zeros_as(*x_spec)
            gx_cl = gx.transpose(0, 2, 3, 1)
            for k, (ro, co), (ri, ci) in taps:
                gx_cl[:, ri, ci] += gcols[:, ro, co, k]
        return gx, gw, _channel_sum(gt2d).astype(g.dtype)

    record_op((x, w, bias), out, backward)
    return out


def depthwise_conv2d(x: Tensor, w: Tensor, padding=0) -> Tensor:
    """Per-channel cross-correlation, stride 1: x[B,C,H,W] with w[C,kh,kw].

    The taps are multiply-adds over a padded channels-last copy of x, in
    x's dtype, so the output (float) is channels last in memory; x's
    gradient is laid out as x.
    """
    ph, pw = _pair(padding)
    B, C, H, W = x.shape
    Cw, kh, kw = w.shape
    if C != Cw:
        raise InvalidInputError(f"depthwise channel mismatch: {x.shape} vs {w.shape}")
    Hp, Wp = H + 2 * ph, W + 2 * pw
    if kh > Hp or kw > Wp:
        raise InvalidInputError(
            f"depthwise kernel ({kh}x{kw}) larger than padded input ({Hp}x{Wp})")
    Ho, Wo = Hp - kh + 1, Wp - kw + 1
    xp = np.zeros((B, Hp, Wp, C), dtype=x.data.dtype)
    xp[:, ph:ph + H, pw:pw + W] = x.data.transpose(0, 2, 3, 1)
    w_cl = np.ascontiguousarray(w.data.transpose(1, 2, 0))          # [kh, kw, C]
    out_cl = np.zeros((B, Ho, Wo, C), dtype=_grad_dtype(x.dtype))
    prod = np.empty_like(out_cl)
    for i in range(kh):
        for j in range(kw):
            out_cl += np.multiply(xp[:, i:i + Ho, j:j + Wo], w_cl[i, j], out=prod)
    out = Tensor._wrap(out_cl.transpose(0, 3, 1, 2))
    wd = w.data
    x_spec = _spec(x.data) if x.requires_grad else None

    def backward(g):
        g_cl = g.transpose(0, 2, 3, 1)
        gw = np.empty_like(wd)
        for i in range(kh):
            for j in range(kw):
                # float64 over per-sample partial sums: a float32 running sum
                # over the whole batch rounds several times worse
                gw[:, i, j] = np.einsum("bhwc,bhwc->bc", g_cl, xp[:, i:i + Ho, j:j + Wo]
                                        ).sum(axis=0, dtype=np.float64)
        gx = None
        if x_spec is not None:
            gx = _zeros_as(*x_spec)
            gx_cl = gx.transpose(0, 2, 3, 1)
            for k, (ro, co), (ri, ci) in _conv_taps(kh, kw, (1, 1), (ph, pw), (H, W),
                                                    (Ho, Wo)):
                gx_cl[:, ri, ci] += g_cl[:, ro, co] * w_cl[k // kw, k % kw]
        return gx, gw

    record_op((x, w), out, backward)
    return out


# ---------------------------------------------------------------------------
# batch_norm
# ---------------------------------------------------------------------------

# elements that a kernel works through at a time, so that its scratch and
# the slices it reads more than once stay in cache (the BatchNorm chunks of
# rows and the LIF tiles, which the recurrence carries through every step);
# 2^16 and 2^17 ran alike, 2^12 and 2^22 slower
_TILE = 1 << 17
# elements in the contiguous runs that a per-channel vector is tiled to
# over contiguous [P, C] rows, so that numpy's inner loop covers about
# this many elements instead of C;
# 2^10 and 2^11 ran alike, 2^9 and 2^14 slower
_RUN = 1 << 10


def _kernel_view(a: np.ndarray, channels: bool = False, order=None):
    """(``a`` in the one layout that BatchNorm and the LIF ops compute in,
    the axis order used).

    Axis 0 is outermost, the other axes follow in ``a``'s memory order and,
    with ``channels``, the channel axis -3 is innermost; ``order`` gives
    another axis order (to read a gradient as the array it meets).  The
    view is [S, R], or with ``channels`` [P, C] rows, whose P splits into
    [S, R] unless axis 0 is the channel axis (x[C, V, T]).  Every such
    input in the models is laid out so (a channel map's [S, B, C, V, T]
    output is [S, B, V, T, C] in memory) and reads as a view; any other
    layout is read as one copy.
    """
    if order is None:
        last = [a.ndim - 3] if channels else []
        first = [0] if last != [0] else []          # x[C, V, T]: no step axis
        order = tuple(first + [i for i in _memory_order(a.strides) if i not in first + last]
                      + last)
    m = a.transpose(order)
    if channels:
        return m.reshape(math.prod(m.shape[:-1]), m.shape[-1]), order
    return m.reshape(m.shape[0], math.prod(m.shape[1:])), order


def _from_view(v: np.ndarray, shape, order) -> np.ndarray:
    """The array of logical ``shape`` whose ``_kernel_view`` in ``order`` is ``v``."""
    return v.reshape([shape[i] for i in order]).transpose(np.argsort(order))


def _row_chunks(v: np.ndarray):
    """Slices of the rows (axis 0) of ``v``, about ``_TILE`` elements each."""
    rows = max(1, _TILE // max(1, math.prod(v.shape[1:])))
    return [slice(r, min(r + rows, len(v))) for r in range(0, len(v), rows)]


def _per_channel(v: np.ndarray):
    """A per-channel vector v[C] in the two forms that ``_channel_runs``
    numbers: tiled k = max(1, _RUN // C) times, and [C]."""
    return np.tile(v, max(1, _RUN // v.size)), v


def _channel_runs(*arrays):
    """[(pieces, form)] covering same-shaped chunks of [p, C] rows, each
    piece to meet ``_per_channel`` vectors in that form.

    Where every chunk is contiguous, the rows go as [n, k*C] runs (form 0)
    and a ragged tail of [r, C] rows (form 1); otherwise the chunks go
    whole as rows (form 1).  The elements meet the same vector entries
    either way.
    """
    if not all(a.flags.c_contiguous for a in arrays):
        return [(arrays, 1)]
    m, c = arrays[0].shape
    k = max(1, _RUN // c)
    n = m - m % k
    pieces = []
    if n:
        pieces.append(([a[:n].reshape(-1, k * c) for a in arrays], 0))
    if n < m:
        pieces.append(([a[n:] for a in arrays], 1))
    return pieces


def _channel_sum(a: np.ndarray, b: np.ndarray | None = None) -> np.ndarray:
    """Per-channel sum of ``a`` (or of a*b) over [P, C] rows, in float64.

    Blocks of about sqrt(P) rows are summed in the input's dtype and their
    partial sums in float64, so the rounding error grows with sqrt(P)
    terms rather than with the P of a running sum.
    """
    p, c = a.shape
    rows = math.isqrt(p) or 1     # no rows sum to zeros
    while p % rows:
        rows -= 1
    blocks = (rows, p // rows, c)
    part = (np.einsum("abc->bc", a.reshape(blocks)) if b is None
            else np.einsum("abc,abc->bc", a.reshape(blocks), b.reshape(blocks)))
    return part.sum(axis=0, dtype=np.float64)


def batch_norm(x: Tensor, bn) -> Tensor:
    """Normalize x[..., C, V, T] per channel (axis -3) over all other axes
    with a ``module.BatchNorm``'s fields, as ``_bn_setup`` reads them.

    Training mode uses batch statistics and updates bn's running buffers
    in place (momentum convention: new = (1-m)*old + m*batch); eval mode
    normalizes with the running buffers.  The output and x's gradient are
    laid out in memory as ``_kernel_view`` reads x: as x is, for every
    input in the models.
    """
    xv, order, mu, std, affine = _bn_setup(x, bn)
    ov = np.empty(xv.shape, dtype=xv.dtype)
    for rows in _row_chunks(xv):
        _bn_normalize(xv[rows], ov[rows], affine)
    out = Tensor._wrap(_from_view(ov, x.shape, order))
    x_shape, gamma_d, training = x.shape, bn.gamma.data, bn.training

    def backward(g):  # the tape casts each gradient to its input's gradient dtype
        gv = _kernel_view(g, True, order)[0]
        gx, gg, gb = _bn_backward(gv, xv, mu, std, gamma_d, training)
        return _from_view(gx, x_shape, order), gg, gb

    record_op((x, bn.gamma, bn.beta), out, backward)
    return out


def _bn_setup(x, bn):
    """(x's [P, C] ``_kernel_view``, its axis order, mean, sqrt(var + eps),
    affine) for a ``module.BatchNorm`` ``bn``: its gamma, beta, running
    buffers, training flag, momentum and eps.

    ``affine`` holds the per-channel (mean, gamma / std, beta) of
    ``_bn_normalize``, each in the forms of ``_per_channel``.
    Training takes the batch statistics, which must be finite, before it
    updates the running buffers, the variance unbiased by n/(n-1).  Integer
    input is normalized in float32.  Shared with ``neurons.bn_sn_layer``.
    """
    if x.ndim < 3:
        raise InvalidInputError(f"batch_norm expects [..., C, V, T], got {x.shape}")
    C = x.shape[-3]
    if bn.gamma.size != C or bn.beta.size != C:
        raise InvalidInputError(
            f"batch_norm gamma/beta length {bn.gamma.size}/{bn.beta.size} != channels {C}")
    xv, order = _kernel_view(_as_float(x.data), True)
    if bn.training:
        mu, var = _bn_stats(xv)
        n, m = xv.shape[0], bn.momentum
        bn.running_mean[:] = (1.0 - m) * bn.running_mean + m * mu
        var_runtime = var * (n / (n - 1)) if n > 1 else var
        bn.running_var[:] = (1.0 - m) * bn.running_var + m * var_runtime
    else:
        mu, var = bn.running_mean.astype(xv.dtype), bn.running_var.astype(xv.dtype)
    std = np.sqrt(var + bn.eps).astype(xv.dtype)
    affine = tuple(_per_channel(v) for v in (mu, bn.gamma.data / std, bn.beta.data))
    return xv, order, mu, std, affine


def _bn_normalize(x: np.ndarray, out: np.ndarray, affine) -> None:
    """out = (x - mean) * (gamma / std) + beta over a chunk of [p, C] rows:
    one subtract, one multiply and one add per element."""
    for (xp, op), form in _channel_runs(x, out):
        mu, scale_, shift = (v[form] for v in affine)
        np.subtract(xp, mu, out=op)
        op *= scale_
        op += shift


def _bn_stats(xv: np.ndarray):
    """Per-channel mean and biased variance of [P, C] rows, two-pass: the
    variance is the mean square of x - mean, taken a chunk at a time.
    A non-finite input shows in them, and raises."""
    n = xv.shape[0]
    if n == 0:
        raise InvalidInputError("batch_norm training mode requires a non-empty batch")
    mu = (_channel_sum(xv) / n).astype(xv.dtype)
    if not np.isfinite(mu).all():
        raise NumericalError("batch_norm batch mean is non-finite")
    mu_c = _per_channel(mu)
    chunks = _row_chunks(xv)
    scratch = np.empty_like(xv[chunks[0]])
    sq = 0.0
    for rows in chunks:
        d = scratch[:rows.stop - rows.start]
        for (xp, dp), form in _channel_runs(xv[rows], d):
            np.subtract(xp, mu_c[form], out=dp)
        sq = sq + _channel_sum(d, d)
    var = (sq / n).astype(xv.dtype)
    if not np.isfinite(var).all():
        raise NumericalError("batch_norm batch variance is non-finite")
    return mu, var


def _bn_backward(gv, xv, mu, std, gamma_d, training=True, out=None):
    """(gx, ggamma, gbeta) over [P, C] rows: gv and x's ``xv``; gx is
    written into ``out`` when given (it may be gv).

    The per-channel sums of g and g*x come first.  Then gx = g*a + x*c + b
    with per-channel a, b, c, applied a chunk of rows at a time, so the
    only other array is one chunk of scratch.
    """
    ov = np.empty(xv.shape, dtype=xv.dtype) if out is None else out
    n = xv.shape[0]
    gb = _channel_sum(gv)
    gg = (_channel_sum(gv, xv) - mu * gb) / std             # sum of g * xhat
    a = _per_channel(gamma_d / std)
    if training:
        # sum(dxhat) = gamma*gb and sum(dxhat*xhat) = gamma*gg per channel,
        # so dx = g*a + xhat*k*gg + k*gb with k = -gamma/(std*n)
        k = -gamma_d / (std.astype(np.float64) * n)
        cx = k * gg / std
        b = _per_channel((k * gb - mu * cx).astype(xv.dtype))
        cx = _per_channel(cx.astype(xv.dtype))
    chunks = _row_chunks(xv)
    scratch = np.empty_like(xv[:chunks[0].stop if chunks else 0])
    for rows in chunks:
        pieces = _channel_runs(gv[rows], ov[rows], xv[rows], scratch[:rows.stop - rows.start])
        for (gp, o, xp, t), form in pieces:
            np.multiply(gp, a[form], out=o)
            if training:
                np.multiply(xp, cx[form], out=t)
                t += b[form]
                o += t
    return ov, gg.astype(xv.dtype), gb.astype(xv.dtype)


# ---------------------------------------------------------------------------
# lstm
# ---------------------------------------------------------------------------

def _sigmoid(z: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-z))


def lstm(x: Tensor, w_ih: Tensor, w_hh: Tensor, b_ih: Tensor, b_hh: Tensor) -> Tensor:
    """Gated recurrence over the frames of a constant x[T, ..., N, In],
    from zero state, as one op; gate order (input, forget, cell, output).

    w_ih[..., 4H, In], w_hh[..., 4H, H], biases[..., 4H]; the leading axes
    batch independent cells, one weight set each.  Returns the hidden
    state of every frame, h[..., N, H, T], frames innermost in memory.
    Backward runs BPTT through the frames and sums each weight's gradient
    over them, the last frame first; x gets none.
    """
    if x.requires_grad:
        raise InvalidInputError("lstm takes a constant input")
    if x.ndim < 3 or x.shape[0] == 0:
        raise InvalidInputError(f"lstm expects x[T, ..., N, In] with T >= 1, got {x.shape}")
    lead, (N, In), H = x.shape[1:-2], x.shape[-2:], w_hh.shape[-1]
    if w_ih.shape != lead + (4 * H, In) or w_hh.shape != lead + (4 * H, H) \
            or b_ih.shape != lead + (4 * H,) or b_hh.shape != lead + (4 * H,):
        raise InvalidInputError(
            f"lstm weight extents {w_ih.shape}/{w_hh.shape} do not match "
            f"input {x.shape} / hidden {H}")
    xd, w_ihd, w_hhd = _as_float(x.data), w_ih.data, w_hh.data
    h = c = np.zeros(lead + (N, H), dtype=xd.dtype)
    h_seq = np.empty(lead + (N, H, x.shape[0]), dtype=xd.dtype)
    saved = []                          # per frame: h, c before it and its gates
    for t, xt in enumerate(xd):
        z = (np.matmul(xt, np.swapaxes(w_ihd, -1, -2))
             + np.matmul(h, np.swapaxes(w_hhd, -1, -2))
             + b_ih.data[..., None, :] + b_hh.data[..., None, :])
        zi, zf, zg, zo = np.split(z, 4, axis=-1)
        i, f, gcell, o = _sigmoid(zi), _sigmoid(zf), np.tanh(zg), _sigmoid(zo)
        c_next = f * c + i * gcell
        tc = np.tanh(c_next)
        saved.append((h, c, i, f, gcell, o, tc))
        h, c = o * tc, c_next
        h_seq[..., t] = h
    out = Tensor._wrap(h_seq)

    def backward(g):
        grads = gh = None
        gc = np.zeros(lead + (N, H), dtype=xd.dtype)     # no later frame reads the last c
        for t in reversed(range(len(saved))):
            hd, cd, i, f, gcell, o, tc = saved[t]
            gh = g[..., t] if gh is None else gh + g[..., t]
            gc_total = gc + gh * o * (1.0 - tc * tc)
            gz = np.concatenate([
                gcell * gc_total * i * (1.0 - i),
                gc_total * cd * f * (1.0 - f),
                i * gc_total * (1.0 - gcell * gcell),
                gh * tc * o * (1.0 - o),
            ], axis=-1)
            gz_t = np.swapaxes(gz, -1, -2)
            parts = np.matmul(gz_t, xd[t]), np.matmul(gz_t, hd), gz.sum(axis=-2)
            grads = parts if grads is None else [a + b for a, b in zip(grads, parts)]
            gh, gc = np.matmul(gz, w_hhd), gc_total * f
        gw_ih, gw_hh, gb = grads
        return gw_ih, gw_hh, gb, gb.copy()

    record_op((w_ih, w_hh, b_ih, b_hh), out, backward)
    return out


# ---------------------------------------------------------------------------
# Reductions
# ---------------------------------------------------------------------------

def _norm_axes(axis, ndim):
    if axis is None:
        return tuple(range(ndim))
    if isinstance(axis, int):
        return (axis % ndim,)
    return tuple(a % ndim for a in axis)


def sum_(x: Tensor, axis=None, keepdims=False) -> Tensor:
    dtype = _grad_dtype(x.dtype)
    out = Tensor._wrap(x.data.sum(axis=axis, keepdims=keepdims, dtype=dtype))
    axes = _norm_axes(axis, x.ndim)
    shape = x.shape

    def backward(g):
        if not keepdims:
            for a in sorted(axes):
                g = np.expand_dims(g, a)
        return (np.broadcast_to(g, shape).astype(dtype),)

    record_op((x,), out, backward)
    return out


def mean(x: Tensor, axis=None, keepdims=False) -> Tensor:
    axes = _norm_axes(axis, x.ndim)
    n = int(np.prod([x.shape[a] for a in axes]))
    dtype = _grad_dtype(x.dtype)
    out = Tensor._wrap(x.data.mean(axis=axis, keepdims=keepdims, dtype=dtype))
    shape = x.shape

    def backward(g):
        if not keepdims:
            for a in sorted(axes):
                g = np.expand_dims(g, a)
        return ((np.broadcast_to(g, shape) / n).astype(dtype),)

    record_op((x,), out, backward)
    return out


def max_(x: Tensor, axis=None, keepdims=False) -> Tensor:
    """Max reduction; gradient is routed to the (first) argmax positions."""
    xd = _as_float(x.data)
    out_keep = xd.max(axis=axis, keepdims=True)
    out_data = out_keep if keepdims else xd.max(axis=axis, keepdims=False)
    mask = (xd == out_keep)
    count = mask.sum(axis=axis, keepdims=True)
    out = Tensor._wrap(out_data)
    axes = _norm_axes(axis, x.ndim)
    dtype = xd.dtype

    def backward(g):
        if not keepdims:
            for a in sorted(axes):
                g = np.expand_dims(g, a)
        return ((mask * (g / count)).astype(dtype),)

    record_op((x,), out, backward)
    return out


# ---------------------------------------------------------------------------
# Shape ops
# ---------------------------------------------------------------------------

def reshape(x: Tensor, shape) -> Tensor:
    out = Tensor._wrap(x.data.reshape(shape))
    x_shape = x.shape
    record_op((x,), out, lambda g: (g.reshape(x_shape),))
    return out


def permute(x: Tensor, axes) -> Tensor:
    axes = tuple(axes)
    inv = tuple(np.argsort(axes))
    out = Tensor._wrap(x.data.transpose(axes))
    record_op((x,), out, lambda g: (g.transpose(inv),))
    return out


def slice_(x: Tensor, key) -> Tensor:
    out = Tensor._wrap(x.data[key])
    x_spec = _spec(x.data)

    def backward(g):
        gx = _zeros_as(*x_spec)
        gx[key] = g
        return (gx,)

    record_op((x,), out, backward)
    return out


def repeat0(x: Tensor, count: int) -> Tensor:
    """Replicate x along a new leading axis (broadcast copy), laid out in
    memory as x with the new axis outermost."""
    order = _memory_order(x.data.strides)
    m = x.data.transpose(order)
    out = Tensor._wrap(np.broadcast_to(m, (count,) + m.shape).copy()
                       .transpose(0, *(1 + np.argsort(order))))
    record_op((x,), out, lambda g: (g.sum(axis=0),))
    return out


# ---------------------------------------------------------------------------
# backward sweep
# ---------------------------------------------------------------------------

def backward(loss: Tensor, tape: Tape) -> None:
    """Reverse sweep over the tape, populating ``grad`` on leaves.

    The loss must be scalar and produced by an op recorded on this tape.
    The sweep empties the tape: each record is popped as it is visited and
    its output's ``grad`` is cleared once read, so a record's saved arrays
    and the gradient it consumed are freed as the sweep goes.  After a
    successful sweep only leaves (tensors no record on the tape produced)
    keep a ``grad``.  A backward closure must not write into its incoming
    gradient: the same array may reach several inputs.

    The records hold gradient slots, not tensors: the sweep reads nothing
    of an op's inputs and output but their slots and the inputs' gradient
    dtypes (each gradient is cast to its input's dtype, float32 for an
    integer input).

    The sweep owns the worker thread that runs the jobs its closures hand
    on (the sweep rule), and joins it before this returns, also when the
    sweep raises: then no job is still running and every ``grad`` is an
    array or None.
    """
    if loss.size != 1:
        raise InvalidInputError(f"backward expects a scalar loss, got shape {loss.shape}")
    if not tape._owns(loss):
        raise InvalidInputError("loss is not reachable from this tape's outputs")
    loss.grad = np.ones_like(loss.data)
    records = tape._records
    jobs: dict[_Slot, np.dtype] = {}        # slots holding a job -> their gradient dtype
    with ThreadPoolExecutor(1, thread_name_prefix="spikegraph-grad") as worker:
        token = _SWEEP_WORKER.set(worker)
        try:
            while records:
                _sweep(records.pop(), jobs)
        finally:
            _SWEEP_WORKER.reset(token)
            for slot in list(jobs):
                _wait(slot, jobs)


def _sweep(rec: _Record, jobs: dict) -> None:
    """Back-propagate one popped record; what it held is freed on return.

    A job reaching an empty slot stays there, entered in ``jobs``; any
    other part is summed into the slot at once (the sweep rule)."""
    g = _wait(rec.output, jobs)
    rec.output.grad = None
    if g is None:
        return
    gins = rec.backward(g)
    if not isinstance(gins, tuple):
        gins = (gins,)
    for slot, dtype, part in zip(rec.inputs, rec.in_dtypes, gins):
        if part is None or not slot.requires_grad:
            continue
        if isinstance(part, Future) and slot.grad is None:
            slot.grad, jobs[slot] = part, dtype
        else:
            _wait(slot, jobs)
            _accumulate(slot, _ready(part), dtype)


def _wait(slot: _Slot, jobs: dict) -> Optional[np.ndarray]:
    """The slot's gradient, once the job it holds (if any) is done."""
    if isinstance(slot.grad, Future):
        part, slot.grad = slot.grad, None
        _accumulate(slot, part.result(), jobs.pop(slot))
    return slot.grad


def _accumulate(slot: _Slot, g: np.ndarray, dtype) -> None:
    if g.dtype != dtype:
        g = g.astype(dtype)
    # grads are never mutated in place, so holding a view is safe
    slot.grad = g if slot.grad is None else slot.grad + g


# ---------------------------------------------------------------------------
# Tensor blob serialization ("SGT1" format)
# ---------------------------------------------------------------------------

_MAGIC = b"SGT1"


def tensor_to_bytes(t: Tensor | np.ndarray) -> bytes:
    arr = t.data if isinstance(t, Tensor) else np.asarray(t)
    arr = np.ascontiguousarray(arr, dtype="<f4")
    header = _MAGIC + struct.pack("<I", arr.ndim)
    header += struct.pack(f"<{arr.ndim}I", *arr.shape)
    return header + arr.tobytes()


def tensor_from_bytes(blob: bytes) -> Tensor:
    """Parse one blob; it must hold exactly the payload its header declares."""
    if blob[:4] != _MAGIC or len(blob) < 8:
        raise FormatError("bad tensor blob: missing SGT1 magic or rank")
    (rank,) = struct.unpack_from("<I", blob, 4)
    offset = 8 + 4 * rank
    if len(blob) < offset:
        raise FormatError(f"bad tensor blob: truncated rank-{rank} shape")
    shape = struct.unpack_from(f"<{rank}I", blob, 8)
    count = int(np.prod(shape, dtype=np.int64))
    if len(blob) - offset != 4 * count:
        raise FormatError(
            f"bad tensor blob: {len(blob) - offset} payload bytes for shape {shape}")
    return Tensor(np.frombuffer(blob, dtype="<f4", offset=offset).reshape(shape).copy())


def save_tensor(path, t: Tensor | np.ndarray) -> None:
    with open(path, "wb") as fh:
        fh.write(tensor_to_bytes(t))


def load_tensor(path) -> Tensor:
    with open(path, "rb") as fh:
        return tensor_from_bytes(fh.read())
