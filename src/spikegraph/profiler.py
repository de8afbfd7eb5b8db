"""Analytic FLOP counting, per-layer cost recording, SOP/energy accounting.

Conventions anchored to the reproducible published rows: 1 MAC = 1 FLOP;
BN, pooling, and elementwise ops are excluded from FLOP totals; FLOPs are
per action sample (batch and spike-step factors enter through the SOP
product).  Energy constants assume 45nm hardware: 4.6 pJ per MAC,
0.9 pJ per spike-gated accumulate.
"""

from __future__ import annotations

import csv
import io
import json
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .neurons import firing_rate
from .tensor import InvalidInputError, Tensor

E_MAC_PJ = 4.6
E_AC_PJ = 0.9

_KINDS = ("conv", "linear", "matmul-attention", "lstm", "bn", "pooling")


@dataclass
class LayerCost:
    layer_id: str
    kind: str
    flops: int
    input_firing_rate: float
    spike_steps: int
    is_fire: bool = False

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise InvalidInputError(f"unknown layer kind {self.kind!r}")
        if not 0.0 <= self.input_firing_rate <= 1.0:
            raise InvalidInputError(
                f"firing rate must be in [0, 1], got {self.input_firing_rate}")

    @property
    def sops(self) -> int:
        return compute_sops(self.flops, self.input_firing_rate, self.spike_steps)


def count_flops(kind: str, **dims) -> int:
    """MAC counts for the supported layer kinds.

    conv: cout*cin*kh*kw*hout*wout; linear: in*out; matmul-attention by
    matrix extents; lstm: gate GEMMs over the scan length.  BN and pooling
    count zero by convention.
    """
    if kind == "conv":
        required = ("cout", "cin", "kh", "kw", "hout", "wout")
        if any(k not in dims for k in required):
            raise InvalidInputError(f"conv FLOPs need {required}, got {sorted(dims)}")
        return int(dims["cout"] * dims["cin"] * dims["kh"] * dims["kw"]
                   * dims["hout"] * dims["wout"])
    if kind == "linear":
        if "in_features" not in dims or "out_features" not in dims:
            raise InvalidInputError("linear FLOPs need in_features/out_features")
        return int(dims["in_features"] * dims["out_features"])
    if kind == "matmul-attention":
        if any(k not in dims for k in ("m", "k", "n")):
            raise InvalidInputError("attention FLOPs need m/k/n extents")
        return int(dims["m"] * dims["k"] * dims["n"] * dims.get("batch", 1))
    if kind == "lstm":
        if any(k not in dims for k in ("hidden", "in_features", "steps")):
            raise InvalidInputError("lstm FLOPs need hidden/in_features/steps")
        return int(4 * dims["hidden"] * (dims["in_features"] + dims["hidden"])
                   * dims["steps"])
    if kind in ("bn", "pooling"):
        return 0
    raise InvalidInputError(f"unknown layer kind {kind!r}")


def active_fraction(x: Tensor | np.ndarray) -> float:
    """Fraction of nonzero elements; equals the firing rate on binary input.

    Block-internal features are small-integer sums of two spike trains, so
    the nonzero fraction is the rate that gates their accumulates.
    """
    data = x.data if isinstance(x, Tensor) else np.asarray(x)
    return float((data != 0).mean()) if data.size else 0.0


def compute_sops(flops: float, rate: float, spike_steps: int) -> int:
    if not 0.0 <= rate <= 1.0:
        raise InvalidInputError(f"rate must be in [0, 1], got {rate}")
    if spike_steps < 1:
        raise InvalidInputError(f"spike_steps must be >= 1, got {spike_steps}")
    return int(round(float(flops) * rate * spike_steps))


def energy_ann(flops_total: float) -> float:
    """Dense MAC energy in millijoules (4.6 pJ per FLOP)."""
    if flops_total < 0:
        raise InvalidInputError("FLOP count must be nonnegative")
    return float(flops_total) * E_MAC_PJ * 1e-9


def energy_snn(layers: list[LayerCost], n_m: int) -> float:
    """Mixed MAC/AC energy in millijoules.

    The spike-encoding conv is MAC-costed once per encoded modality
    (``n_m``); every other layer contributes spike-gated accumulates at
    0.9 pJ.
    """
    fire = [c for c in layers if c.is_fire]
    if not fire:
        raise InvalidInputError("layer list has no first-encoding-layer marker")
    fl1 = fire[0].flops
    mac_term = n_m * E_MAC_PJ * fl1
    ac_sops = sum(c.sops for c in layers if not c.is_fire)
    return (mac_term + E_AC_PJ * ac_sops) * 1e-9


@dataclass
class EnergyReport:
    model: str
    n_m: int
    spike_steps: int
    layers: list[LayerCost]
    e_mac_pj: float = E_MAC_PJ
    e_ac_pj: float = E_AC_PJ

    @property
    def flops_total(self) -> int:
        return int(sum(c.flops for c in self.layers))

    @property
    def sops_total(self) -> int:
        return int(sum(c.sops for c in self.layers))

    @property
    def energy_mj(self) -> float:
        return energy_snn(self.layers, self.n_m)

    @property
    def ann_equivalent_mj(self) -> float:
        """The same layer plan evaluated densely, MAC-costed throughout."""
        return energy_ann(self.flops_total)

    def to_json_dict(self) -> dict:
        return {
            "model": self.model,
            "n_m": self.n_m,
            "S": self.spike_steps,
            "layers": [
                {"id": c.layer_id, "kind": c.kind, "flops": c.flops,
                 "r": c.input_firing_rate, "sops": c.sops}
                for c in self.layers
            ],
            "totals": {"flops": self.flops_total, "sops": self.sops_total,
                       "energy_mJ": self.energy_mj},
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=1)

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(["id", "kind", "flops", "r", "sops"])
        for c in self.layers:
            writer.writerow([c.layer_id, c.kind, c.flops,
                             f"{c.input_firing_rate:.6f}", c.sops])
        writer.writerow(["TOTALS", "", self.flops_total, "",
                        self.sops_total])
        writer.writerow(["ENERGY_MJ", "", "", "", f"{self.energy_mj:.6f}"])
        return buf.getvalue()


# ---------------------------------------------------------------------------
# Cost recording: layers report here during a forward pass
# ---------------------------------------------------------------------------

_RECORDERS: list["CostRecorder"] = []


class CostRecorder:
    """Per-layer costs reported during one forward pass, in report order.

    FLOPs are normalized to one sample; ids number each layer prefix.
    """

    def __init__(self, spike_steps: int):
        self.spike_steps = spike_steps
        self.layers: list[LayerCost] = []
        self._counts: dict[str, int] = {}

    def add(self, prefix: str, kind: str, flops: int, rate: float,
            is_fire: bool = False) -> None:
        n = self._counts.get(prefix, 0)
        self._counts[prefix] = n + 1
        self.layers.append(LayerCost(f"{prefix}{n}", kind, int(flops), rate,
                                     self.spike_steps, is_fire=is_fire))


@contextmanager
def recording(spike_steps: int) -> Iterator[CostRecorder]:
    """Make a fresh recorder the target of ``record_cost`` inside the block."""
    recorder = CostRecorder(spike_steps)
    _RECORDERS.append(recorder)
    try:
        yield recorder
    finally:
        _RECORDERS.pop()


def record_cost(site: str, layer, *inputs: Tensor) -> None:
    """Report one layer's cost to the innermost recorder, if one is active.

    ``site`` selects the cost formula: encoder, smic, sgc, ssa, stc, head.
    """
    if _RECORDERS:
        _SITES[site](_RECORDERS[-1], layer, *inputs)


def _encoder_cost(rec: CostRecorder, enc, x: Tensor) -> None:
    b, c, t, v = x.shape
    k = enc.cfg.kernel_size
    flops = count_flops("conv", cout=enc.cfg.hidden_channels, cin=c,
                        kh=k, kw=k, hout=v, wout=t)
    rec.add("encoder", "conv", flops, 1.0, is_fire=True)


def _smic_cost(rec: CostRecorder, smf, *spikes: Tensor) -> None:
    """One entry per unordered modality pair."""
    hidden = smf.estimators[0].hidden
    frames = spikes[0].shape[-1]
    flops = count_flops("lstm", hidden=hidden, in_features=2 * smf.channels,
                        steps=frames) \
        + count_flops("linear", in_features=hidden, out_features=1) * frames
    rates = [firing_rate(s) for s in spikes]
    for i, j in smf.PAIRS:
        rec.add("smic", "lstm", flops, float(np.mean([rates[i], rates[j]])))


def _sgc_cost(rec: CostRecorder, layer, x: Tensor) -> None:
    s, b, d, v, t = x.shape
    k = layer.w_graph.shape[0]
    mix = k * v * v * d * t
    maps = (k + 1) * d * layer.out_channels * v * t
    rec.add("sgc", "conv", mix + maps, active_fraction(x))


def _ssa_cost(rec: CostRecorder, layer, h: Tensor, q: Tensor, k: Tensor,
              v: Tensor) -> None:
    s, b, d, nv, t = h.shape
    rec.add("ssa_proj", "conv", 3 * d * d * nv * t, active_fraction(h))
    qkv_rate = float(np.mean([firing_rate(q), firing_rate(k), firing_rate(v)]))
    matmuls = count_flops("matmul-attention", m=nv, k=d, n=nv, batch=t) \
        + count_flops("matmul-attention", m=nv, k=nv, n=d, batch=t)
    rec.add("ssa_attn", "matmul-attention", matmuls, qkv_rate)


def _stc_cost(rec: CostRecorder, layer, h_sa: Tensor) -> None:
    s, b, d, v, t = h_sa.shape
    t_out = t // layer.stride
    flops = count_flops("conv", cout=d, cin=d, kh=1, kw=layer.kernel_t, hout=v, wout=t_out)
    rec.add("stc", "conv", flops, active_fraction(h_sa))


def _head_cost(rec: CostRecorder, head, spikes: Tensor) -> None:
    flops = count_flops("linear", in_features=head.in_features,
                        out_features=head.out_features)
    rec.add("head", "linear", flops, firing_rate(spikes))


_SITES = {"encoder": _encoder_cost, "smic": _smic_cost, "sgc": _sgc_cost,
          "ssa": _ssa_cost, "stc": _stc_cost, "head": _head_cost}


def profile_model(model, bundle_batch: dict) -> EnergyReport:
    """One eval-mode forward pass with a cost recorder active."""
    was_training = model.training
    model.eval()
    with recording(model.spike_steps) as rec:
        model(bundle_batch)
    if was_training:
        model.train()
    n_m = len(model.encoders)
    return EnergyReport(model="mk-sgn", n_m=n_m,
                        spike_steps=model.spike_steps, layers=rec.layers)
