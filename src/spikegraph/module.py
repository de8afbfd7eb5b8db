"""Parameter containers, a small Module system, optimizers, checkpoints."""

from __future__ import annotations

import os
import struct
from typing import Iterator

import numpy as np

from .tensor import (FormatError, InvalidInputError, Tensor, add, batch_norm, matmul,
                     permute, tensor_from_bytes, tensor_to_bytes)


class Parameter(Tensor):
    """Trainable leaf tensor."""

    def __init__(self, data, dtype=None):
        super().__init__(data, requires_grad=True, dtype=dtype)


class Module:
    """Composable parameter container with train/eval state.

    Submodules, parameters and lists thereof are discovered by attribute
    scan; numpy buffers (e.g. BN running stats) are registered explicitly.
    """

    def __init__(self):
        self.training = True
        self._buffers: dict[str, np.ndarray] = {}

    def register_buffer(self, name: str, arr: np.ndarray) -> np.ndarray:
        self._buffers[name] = arr
        return arr

    def _children(self) -> Iterator[tuple[str, "Module"]]:
        for name, value in vars(self).items():
            if isinstance(value, Module):
                yield name, value
            elif isinstance(value, (list, tuple)):
                for i, item in enumerate(value):
                    if isinstance(item, Module):
                        yield f"{name}.{i}", item

    def named_parameters(self, prefix: str = "") -> Iterator[tuple[str, Parameter]]:
        for name, value in vars(self).items():
            if isinstance(value, Parameter):
                yield prefix + name, value
            elif isinstance(value, (list, tuple)):
                for i, item in enumerate(value):
                    if isinstance(item, Parameter):
                        yield f"{prefix}{name}.{i}", item
        for name, child in self._children():
            yield from child.named_parameters(prefix + name + ".")

    def parameters(self) -> list[Parameter]:
        return [p for _, p in self.named_parameters()]

    def named_buffers(self, prefix: str = "") -> Iterator[tuple[str, np.ndarray]]:
        for name, arr in self._buffers.items():
            yield prefix + name, arr
        for name, child in self._children():
            yield from child.named_buffers(prefix + name + ".")

    def train(self, mode: bool = True) -> "Module":
        self.training = mode
        for _, child in self._children():
            child.train(mode)
        return self

    def eval(self) -> "Module":
        return self.train(False)

    def state_dict(self) -> dict[str, np.ndarray]:
        state = {name: p.data.copy() for name, p in self.named_parameters()}
        state.update({"buffer:" + name: arr.copy() for name, arr in self.named_buffers()})
        return state

    def load_state_dict(self, state: dict[str, np.ndarray]) -> None:
        """Load every parameter and buffer; nothing is changed unless the
        state names exactly this module's entries with matching shapes."""
        params = dict(self.named_parameters())
        buffers = {"buffer:" + name: arr for name, arr in self.named_buffers()}
        missing = sorted((params.keys() | buffers.keys()) - state.keys())
        if missing:
            raise InvalidInputError(f"state dict is missing {len(missing)} entries: "
                                    f"{', '.join(missing[:3])}")
        for key, arr in state.items():
            target = params[key].data if key in params else buffers.get(key)
            if target is None:
                raise InvalidInputError(f"unknown entry in state dict: {key}")
            if target.shape != arr.shape:
                raise InvalidInputError(
                    f"shape mismatch for {key}: {target.shape} vs {arr.shape}")
        for key, arr in state.items():
            if key in params:
                params[key].data = arr.astype(params[key].data.dtype)
            else:
                buffers[key][...] = arr

    def __call__(self, *args, **kwargs):
        return self.forward(*args, **kwargs)


# ---------------------------------------------------------------------------
# Common layers
# ---------------------------------------------------------------------------

def kaiming_normal(rng: np.random.Generator, shape, fan_in: int) -> np.ndarray:
    std = np.sqrt(2.0 / max(1, fan_in))
    return rng.normal(0.0, std, size=shape).astype(np.float32)


def uniform_init(rng: np.random.Generator, shape, fan_in: int) -> np.ndarray:
    bound = 1.0 / np.sqrt(max(1, fan_in))
    return rng.uniform(-bound, bound, size=shape).astype(np.float32)


class Linear(Module):
    def __init__(self, in_features: int, out_features: int,
                 rng: np.random.Generator):
        super().__init__()
        self.in_features = in_features
        self.out_features = out_features
        self.weight = Parameter(uniform_init(rng, (out_features, in_features), in_features))
        self.bias = Parameter(np.zeros(out_features, dtype=np.float32))

    def forward(self, x: Tensor) -> Tensor:
        return add(matmul(x, permute(self.weight, (1, 0))), self.bias)


class BatchNorm(Module):
    """Channel batch norm over [..., C, V, T] features (channels at -3).

    Every BatchNorm in the models follows a linear map.  One feeding
    spiking neurons runs with them as ``neurons.bn_sn_layer``, in training
    and in eval.  The others (the teacher's and the FTM's fuse) run
    ``forward`` on the map's output in both modes.  Both paths take eval
    statistics from ``tensor._bn_setup``.
    """

    def __init__(self, num_features: int, momentum: float = 0.1, eps: float = 1e-5):
        super().__init__()
        self.num_features = num_features
        self.momentum = momentum
        self.eps = eps
        self.gamma = Parameter(np.ones(num_features, dtype=np.float32))
        self.beta = Parameter(np.zeros(num_features, dtype=np.float32))
        self.running_mean = self.register_buffer(
            "running_mean", np.zeros(num_features, dtype=np.float32))
        self.running_var = self.register_buffer(
            "running_var", np.ones(num_features, dtype=np.float32))

    def forward(self, x: Tensor) -> Tensor:
        return batch_norm(x, self.gamma, self.beta, self.running_mean,
                          self.running_var, self.training,
                          momentum=self.momentum, eps=self.eps)


# ---------------------------------------------------------------------------
# Optimizers
# ---------------------------------------------------------------------------

class SGD:
    """SGD with classical momentum and decoupled-from-schedule weight decay."""

    def __init__(self, params, lr: float, momentum: float = 0.9,
                 weight_decay: float = 1e-4):
        self.params = list(params)
        self.lr = lr
        self.momentum = momentum
        self.weight_decay = weight_decay
        self._velocity = [np.zeros_like(p.data) for p in self.params]

    def step(self) -> None:
        for p, v in zip(self.params, self._velocity):
            if p.grad is None:
                continue
            g = p.grad + self.weight_decay * p.data
            v *= self.momentum
            v += g
            p.data = p.data - self.lr * v

    def zero_grad(self) -> None:
        for p in self.params:
            p.grad = None


class Adam:
    def __init__(self, params, lr: float = 1e-3, betas=(0.9, 0.999), eps: float = 1e-8):
        self.params = list(params)
        self.lr = lr
        self.beta1, self.beta2 = betas
        self.eps = eps
        self._m = [np.zeros_like(p.data) for p in self.params]
        self._v = [np.zeros_like(p.data) for p in self.params]
        self._t = 0

    def step(self) -> None:
        self._t += 1
        b1t = 1.0 - self.beta1 ** self._t
        b2t = 1.0 - self.beta2 ** self._t
        for p, m, v in zip(self.params, self._m, self._v):
            if p.grad is None:
                continue
            g = p.grad
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * (g * g)
            p.data = p.data - self.lr * (m / b1t) / (np.sqrt(v / b2t) + self.eps)

    def zero_grad(self) -> None:
        for p in self.params:
            p.grad = None


# ---------------------------------------------------------------------------
# Checkpoint container: header + named SGT1 blobs
# ---------------------------------------------------------------------------

_CKPT_MAGIC = b"SGCK"
_CKPT_VERSION = 1


def save_checkpoint(path, plan_hash: str, arrays: dict[str, np.ndarray]) -> None:
    """Write to a temporary file beside ``path``, then rename it into place,
    so a failed save leaves no truncated checkpoint behind."""
    tmp = f"{path}.tmp"
    try:
        with open(tmp, "wb") as fh:
            fh.write(_CKPT_MAGIC)
            fh.write(struct.pack("<I", _CKPT_VERSION))
            encoded = plan_hash.encode("utf-8")
            fh.write(struct.pack("<I", len(encoded)))
            fh.write(encoded)
            fh.write(struct.pack("<I", len(arrays)))
            for name in sorted(arrays):
                encoded = name.encode("utf-8")
                fh.write(struct.pack("<I", len(encoded)))
                fh.write(encoded)
                blob = tensor_to_bytes(arrays[name])
                fh.write(struct.pack("<Q", len(blob)))
                fh.write(blob)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


def load_checkpoint(path) -> tuple[str, dict[str, np.ndarray]]:
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except FileNotFoundError as err:
        raise InvalidInputError(f"checkpoint not found: {path}") from err
    except OSError as err:
        raise InvalidInputError(f"cannot read checkpoint {path}: {err.strerror}") from err
    if raw[:4] != _CKPT_MAGIC:
        raise InvalidInputError(f"not a checkpoint file: {path}")
    offset = 4

    def take(n: int) -> bytes:
        nonlocal offset
        if offset + n > len(raw):
            raise FormatError(f"truncated checkpoint: {path}")
        offset += n
        return raw[offset - n:offset]

    def text(n: int) -> str:
        try:
            return take(n).decode("utf-8")
        except UnicodeDecodeError as err:
            raise FormatError(f"corrupt checkpoint {path}: {err}") from err

    (version,) = struct.unpack("<I", take(4))
    if version != _CKPT_VERSION:
        raise InvalidInputError(f"unsupported checkpoint version {version}")
    (hlen,) = struct.unpack("<I", take(4))
    plan_hash = text(hlen)
    (count,) = struct.unpack("<I", take(4))
    arrays: dict[str, np.ndarray] = {}
    for _ in range(count):
        (nlen,) = struct.unpack("<I", take(4))
        name = text(nlen)
        (blen,) = struct.unpack("<Q", take(8))
        try:
            arrays[name] = tensor_from_bytes(take(blen)).data
        except FormatError as err:
            raise FormatError(f"corrupt checkpoint {path}, entry {name}: {err}") from err
    if offset != len(raw):
        raise FormatError(f"{len(raw) - offset} trailing bytes in checkpoint: {path}")
    return plan_hash, arrays
