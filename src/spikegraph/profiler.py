"""Per-layer cost recording and theoretical energy accounting.

One eval-mode forward inside ``recording`` lists each layer once in the
report being recorded, with its FLOPs per action sample and the firing
rate ``r`` of its input.  1 MAC counts as 1 FLOP; BatchNorm, pooling and
elementwise ops count zero.  With ``S`` spike steps, the energy in
millijoules is

    SOPs = round(FLOPs * r * S)
    E    = (4.6 pJ * sum of FLOPs of the spike-encoding convs
            + 0.9 pJ * sum of SOPs of every other layer) * 1e-9

using the 45 nm figures of Horowitz (ISSCC 2014): 4.6 pJ per
multiply-accumulate, 0.9 pJ per spike-gated accumulate.  The
ANN-equivalent energy prices every FLOP of the same plan at 4.6 pJ.
"""

from __future__ import annotations

import csv
import io
import json
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass
from typing import Iterator, Optional

import numpy as np

from .tensor import Tensor

E_MAC_PJ = 4.6
E_AC_PJ = 0.9


@dataclass
class LayerCost:
    id: str
    kind: str
    flops: int
    rate: float
    sops: int
    is_fire: bool


def active_fraction(x: Tensor | np.ndarray) -> float:
    """Fraction of nonzero elements; equals the firing rate on binary input.

    Block-internal features are small-integer sums of two spike trains, so
    the nonzero fraction is the rate that gates their accumulates.
    """
    data = x.data if isinstance(x, Tensor) else np.asarray(x)
    return float((data != 0).mean()) if data.size else 0.0


@dataclass
class EnergyReport:
    spike_steps: int
    layers: list[LayerCost]

    @property
    def n_m(self) -> int:
        """Encoded modalities: one spike-encoding conv each."""
        return sum(c.is_fire for c in self.layers)

    @property
    def flops_total(self) -> int:
        return sum(c.flops for c in self.layers)

    @property
    def sops_total(self) -> int:
        return sum(c.sops for c in self.layers)

    @property
    def energy_mj(self) -> float:
        mac_flops = sum(c.flops for c in self.layers if c.is_fire)
        ac_sops = sum(c.sops for c in self.layers if not c.is_fire)
        return (E_MAC_PJ * mac_flops + E_AC_PJ * ac_sops) * 1e-9

    @property
    def ann_equivalent_mj(self) -> float:
        """The same layer plan evaluated densely, MAC-costed throughout."""
        return self.flops_total * E_MAC_PJ * 1e-9

    def add(self, prefix: str, kind: str, flops: int, rate: float,
            is_fire: bool = False) -> None:
        """Append one layer, its FLOPs normalized to one sample, with the
        id ``prefix`` numbered by the layers already under that prefix."""
        n = sum(c.id.rstrip("0123456789") == prefix for c in self.layers)
        sops = round(flops * rate * self.spike_steps)
        self.layers.append(LayerCost(f"{prefix}{n}", kind, flops, rate, sops, is_fire))

    def to_json_dict(self) -> dict:
        return {
            "model": "mk-sgn",
            "n_m": self.n_m,
            "S": self.spike_steps,
            "layers": [{"id": c.id, "kind": c.kind, "flops": c.flops,
                        "r": c.rate, "sops": c.sops} for c in self.layers],
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
            writer.writerow([c.id, c.kind, c.flops, f"{c.rate:.6f}", c.sops])
        writer.writerow(["TOTALS", "", self.flops_total, "",
                        self.sops_total])
        writer.writerow(["ENERGY_MJ", "", "", "", f"{self.energy_mj:.6f}"])
        return buf.getvalue()


# ---------------------------------------------------------------------------
# Cost recording: layers report here during a forward pass
# ---------------------------------------------------------------------------

_REPORT: ContextVar[Optional[EnergyReport]] = ContextVar("energy_report", default=None)


@contextmanager
def recording(spike_steps: int) -> Iterator[EnergyReport]:
    """Make a fresh report the one being recorded inside the block, in
    this thread or task only."""
    report = EnergyReport(spike_steps, [])
    token = _REPORT.set(report)
    try:
        yield report
    finally:
        _REPORT.reset(token)


def record_cost(site: str, layer, *inputs: Tensor) -> None:
    """Report one layer's cost to the report being recorded, if any.

    ``site`` selects the cost formula: encoder, smic, sgc, ssa, stc, head.
    """
    report = _REPORT.get()
    if report is not None:
        _SITES[site](report, layer, *inputs)


def _encoder_cost(rec: EnergyReport, enc, x: Tensor) -> None:
    d, c, kh, kw = enc.weight.shape
    v, t = x.shape[-2:]
    rec.add("encoder", "conv", d * c * kh * kw * v * t, 1.0, is_fire=True)


def _smic_cost(rec: EnergyReport, smf, *spikes: Tensor) -> None:
    """One entry per unordered modality pair: the LSTM gate GEMMs and the
    hidden-to-score readout, every frame, at ``smf.estimator.hidden``."""
    hidden = smf.estimator.hidden
    frames = spikes[0].shape[-1]
    flops = (4 * hidden * (2 * smf.channels + hidden) + hidden) * frames
    rates = [active_fraction(s) for s in spikes]
    for i, j in smf.PAIRS:
        rec.add("smic", "lstm", flops, float(np.mean([rates[i], rates[j]])))


def _sgc_cost(rec: EnergyReport, layer, x: Tensor) -> None:
    s, b, d, v, t = x.shape
    k = layer.w_graph.shape[0]
    mix = k * v * v * d * t
    maps = (k + 1) * d * layer.out_channels * v * t
    rec.add("sgc", "conv", mix + maps, active_fraction(x))


def _ssa_cost(rec: EnergyReport, layer, h: Tensor, q: Tensor, k: Tensor,
              v: Tensor) -> None:
    """Q/K/V projections, then Q·K^T and (Q·K^T)·V per frame."""
    s, b, d, nv, t = h.shape
    rec.add("ssa_proj", "conv", 3 * d * d * nv * t, active_fraction(h))
    qkv_rate = float(np.mean([active_fraction(q), active_fraction(k), active_fraction(v)]))
    rec.add("ssa_attn", "matmul-attention", 2 * nv * nv * d * t, qkv_rate)


def _stc_cost(rec: EnergyReport, layer, h_sa: Tensor) -> None:
    s, b, d, v, t = h_sa.shape
    rec.add("stc", "conv", d * d * layer.kernel_t * v * (t // layer.stride),
            active_fraction(h_sa))


def _head_cost(rec: EnergyReport, head, spikes: Tensor) -> None:
    rec.add("head", "linear", head.in_features * head.out_features,
            active_fraction(spikes))


_SITES = {"encoder": _encoder_cost, "smic": _smic_cost, "sgc": _sgc_cost,
          "ssa": _ssa_cost, "stc": _stc_cost, "head": _head_cost}


def profile_model(model, batch: dict[str, Tensor]) -> EnergyReport:
    """The report recorded over one eval-mode forward pass on the model's
    input: the modalities by name, each x[B, 3, V, T]."""
    was_training = model.training
    model.eval()
    try:
        with recording(model.spike_steps) as report:
            model(batch)
    finally:
        if was_training:
            model.train()
    return report
