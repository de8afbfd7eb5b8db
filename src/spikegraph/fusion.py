"""Spike-based multimodal fusion driven by mutual-information lower bounds.

Six recurrent estimators (one per unordered modality pair) score joint
versus spike-step-shuffled concatenations; the Donsker-Varadhan bound per
pair fills a symmetric 4x4 matrix whose row averages are min-max scaled
into fusion weights.  Estimators train by gradient ascent on the bound
through their own optimizer, and a running average of the bounds drives
the weights: uniform during a burn-in of ascent steps, then the min-max
scaled row averages.  The weights enter the task network as constants.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .module import Adam, Module, Parameter, uniform_init
from .neurons import LifConfig, sn_layer
from .profiler import record_cost
from .tensor import (DimensionError, InvalidInputError, NumericalError, Tape,
                     Tensor, add, backward, concat, exp, log, matmul, mean,
                     permute, reshape, scale, sub, take0)

MODALITY_ORDER = ("bone", "joint", "bone_motion", "joint_motion")


def make_joint(p_a: Tensor, p_b: Tensor) -> Tensor:
    """Concatenate two [S, (B,) D, V, T] spike features along the channels."""
    if p_a.shape != p_b.shape:
        raise DimensionError(f"modality shapes differ: {p_a.shape} vs {p_b.shape}")
    return concat([p_a, p_b], axis=-3)


def make_marginal(p_a: Tensor, p_b: Tensor, rng_seed: int) -> Tensor:
    """Concatenate p_a with p_b whose spike-step slices are permuted."""
    if p_a.shape != p_b.shape:
        raise DimensionError(f"modality shapes differ: {p_a.shape} vs {p_b.shape}")
    s = p_b.shape[0]
    perm = np.random.default_rng(rng_seed).permutation(s)
    return concat([p_a, take0(p_b, perm)], axis=-3)


class SmicNet(Module):
    """LSTM -> SN -> FC -> GAP scorer for one modality pair.

    The LSTM scans the frame axis with inputs mean-pooled over joints,
    batching the spike-step slices; hidden states are binarized before the
    scalar head.
    """

    def __init__(self, in_channels: int, hidden: int, lif: LifConfig,
                 rng: np.random.Generator):
        super().__init__()
        self.in_channels = in_channels
        self.hidden = hidden
        self.lif = lif
        # gain 2 + unit forget bias push hidden states into the surrogate
        # window at init; with smaller activity no gradient reaches the
        # recurrent weights and the estimator never leaves bound zero
        self.w_ih = Parameter(2.0 * uniform_init(rng, (4 * hidden, in_channels), in_channels))
        self.w_hh = Parameter(2.0 * uniform_init(rng, (4 * hidden, hidden), hidden))
        b_ih = np.zeros(4 * hidden, dtype=np.float32)
        b_ih[hidden:2 * hidden] = 1.0
        self.b_ih = Parameter(b_ih)
        self.b_hh = Parameter(np.zeros(4 * hidden, dtype=np.float32))
        self.fc_w = Parameter(uniform_init(rng, (hidden, 1), hidden))
        self.fc_b = Parameter(np.zeros(1, dtype=np.float32))

    def forward(self, x: Tensor) -> Tensor:
        """x[S, B, 2D, V, T] -> per-sample scalar [B]."""
        from .tensor import lstm_cell

        s, b, c, v, t = x.shape
        if c != self.in_channels:
            raise DimensionError(
                f"SMIC expects {self.in_channels} channels (two modalities), got {c}")
        pooled = mean(x, axis=3)                       # [S,B,C,T]
        h = Tensor(np.zeros((s * b, self.hidden), dtype=np.float32))
        cstate = Tensor(np.zeros((s * b, self.hidden), dtype=np.float32))
        hs = []
        for step in range(t):
            xt = reshape(pooled[:, :, :, step], (s * b, c))
            h, cstate = lstm_cell(xt, h, cstate, self.w_ih, self.w_hh,
                                  self.b_ih, self.b_hh)
            hs.append(reshape(h, (s, b, self.hidden, 1)))
        hidden_seq = concat(hs, axis=3)                # [S,B,H,T]
        spikes = sn_layer(hidden_seq, self.lif)
        tokens = permute(spikes, (0, 1, 3, 2))         # [S,B,T,H]
        logits = add(matmul(tokens, self.fc_w), self.fc_b)  # [S,B,T,1]
        return mean(logits, axis=(0, 2, 3))            # [B]


def mi_lower_bound(t_vals: Tensor, et_vals: Tensor) -> Tensor:
    """Donsker-Varadhan form: mean(t) - log(mean(et))."""
    if (et_vals.data <= 0).any():
        raise NumericalError("marginal-path values must be positive")
    return sub(mean(t_vals), log(mean(et_vals)))


@dataclass
class MiMatrix:
    """Symmetric 4x4 pairwise lower bounds, zero diagonal.

    Row/column order follows MODALITY_ORDER.
    """

    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.shape != (4, 4):
            raise InvalidInputError(f"MI matrix must be 4x4, got {self.values.shape}")
        if not np.allclose(np.diag(self.values), 0.0):
            raise InvalidInputError("MI matrix diagonal must be zero")
        if not np.allclose(self.values, self.values.T):
            raise InvalidInputError("MI matrix must be symmetric")

    @classmethod
    def from_pairs(cls, pair_values: dict[tuple[int, int], float]) -> "MiMatrix":
        m = np.zeros((4, 4), dtype=np.float64)
        for (i, j), val in pair_values.items():
            m[i, j] = m[j, i] = val
        return cls(m)


@dataclass
class FusionWeights:
    w: np.ndarray
    degenerate: bool = False

    def __post_init__(self):
        self.w = np.asarray(self.w, dtype=np.float32)
        if self.w.shape != (4,):
            raise InvalidInputError(f"fusion weights must be a 4-vector, got {self.w.shape}")


def compute_mi_weights(mi: MiMatrix) -> FusionWeights:
    """Row-average the MI matrix, then min-max scale to [0, 1].

    When all averaged values coincide (e.g. an all-zero matrix) the
    min-max step is undefined; uniform weights of 1 are returned with the
    degenerate flag set, reducing the fusion to an unweighted sum.
    """
    if not np.isfinite(mi.values).all():
        raise NumericalError("MI matrix contains non-finite entries")
    row_sums = mi.values.sum(axis=1)
    total = mi.values.sum()
    averaged = row_sums / total if abs(total) > 1e-12 else row_sums
    span = averaged.max() - averaged.min()
    if span <= 1e-12:
        return FusionWeights(np.ones(4, dtype=np.float32), degenerate=True)
    w = (averaged - averaged.min()) / span
    return FusionWeights(w.astype(np.float32), degenerate=False)


def fuse_modalities(spikes: list[Tensor], weights: FusionWeights) -> Tensor:
    """Elementwise weighted sum over the four modality spike tensors."""
    if len(spikes) != 4:
        raise DimensionError(f"fusion expects 4 modalities, got {len(spikes)}")
    shapes = {t.shape for t in spikes}
    if len(shapes) != 1:
        raise DimensionError(f"modality shapes differ: {sorted(shapes)}")
    out = None
    for w_i, p_i in zip(weights.w, spikes):
        term = scale(p_i, float(w_i))
        out = term if out is None else add(out, term)
    return out


class SpikeMultimodalFusion(Module):
    """Pairwise SMIC estimators plus the weight/fusion plumbing.

    Estimators are trained by gradient ascent on the pairwise bounds with
    their own Adam optimizer; inputs are detached so no gradient leaks
    into the encoders.  The marginal shuffle seed advances with an
    internal per-batch counter.
    """

    PAIRS = tuple(combinations(range(4), 2))

    def __init__(self, channels: int, hidden: int, lif: LifConfig,
                 rng: np.random.Generator, lr: float = 1e-3,
                 shuffle_seed: int = 0, ema_momentum: float = 0.98,
                 burn_in_steps: int = 50, freeze_after_steps: int = 150):
        super().__init__()
        self.channels = channels
        self.estimators = [SmicNet(2 * channels, hidden, lif, rng)
                           for _ in self.PAIRS]
        self._optim = Adam([p for est in self.estimators for p in est.parameters()],
                           lr=lr)
        self._shuffle_seed = shuffle_seed
        self._counter = 0
        self.ema_momentum = ema_momentum
        self.burn_in_steps = burn_in_steps
        self.freeze_after_steps = freeze_after_steps
        # smoothed pairwise bounds: per-batch DV estimates at desk-scale
        # batch sizes are too noisy to min-max directly, so the weight
        # computation reads this running average (stored with the model)
        self.mi_ema = self.register_buffer("mi_ema", np.zeros((4, 4), dtype=np.float32))
        self.mi_ema_count = self.register_buffer(
            "mi_ema_count", np.zeros(1, dtype=np.float32))

    def pair_bound(self, p_a: Tensor, p_b: Tensor, estimator: SmicNet,
                   seed: int) -> Tensor:
        t_vals = estimator(make_joint(p_a, p_b))
        et_vals = exp(estimator(make_marginal(p_a, p_b, seed)))
        return mi_lower_bound(t_vals, et_vals)

    @property
    def frozen(self) -> bool:
        """True once the ascent budget is exhausted; weights stop moving."""
        return (self.freeze_after_steps is not None
                and self.mi_ema_count[0] >= self.freeze_after_steps)

    def train_step(self, spikes: list[Tensor]) -> dict[tuple[int, int], float]:
        """One ascent step on every pair; returns and smooths the achieved
        bounds.  The pairs own disjoint parameters, so one optimizer step
        after all six backward passes updates each estimator once."""
        if self.frozen:
            return {}
        detached = [t.detach() for t in spikes]
        seed = self._shuffle_seed + self._counter
        self._counter += 1
        bounds = {}
        for est, (i, j) in zip(self.estimators, self.PAIRS):
            with Tape() as tape:
                bound = self.pair_bound(detached[i], detached[j], est, seed)
                loss = scale(bound, -1.0)
                backward(loss, tape)
            bounds[(i, j)] = float(bound.data)
        self._optim.step()
        self._optim.zero_grad()
        fresh = MiMatrix.from_pairs(bounds).values.astype(np.float32)
        if self.mi_ema_count[0] == 0:
            self.mi_ema[:] = fresh
        else:
            self.mi_ema[:] = (self.ema_momentum * self.mi_ema
                              + (1.0 - self.ema_momentum) * fresh)
        self.mi_ema_count[0] += 1
        return bounds

    def weights(self, spikes: list[Tensor]) -> FusionWeights:
        """Fusion weights in two phases.

        Until the estimators have taken ``burn_in_steps`` ascent steps their
        bounds are uninformative, so the weights are uniform and flagged
        degenerate, which keeps the downstream input distribution stable
        while the estimators warm up.  From then on they come from the
        smoothed matrix ``mi_ema``.  ``spikes`` only feed the cost recorder.
        """
        record_cost("smic", self, *spikes)
        if self.mi_ema_count[0] >= self.burn_in_steps:
            return compute_mi_weights(MiMatrix(self.mi_ema.astype(np.float64)))
        return FusionWeights(np.ones(4, dtype=np.float32), degenerate=True)
