"""Spike-based multimodal fusion driven by mutual-information lower bounds.

One recurrent estimator, stacked over the six unordered modality pairs
(a leading pair axis on every weight), scores joint versus
spike-step-shuffled concatenations of joint-pooled spikes; the
Donsker-Varadhan bound per pair fills a symmetric 4x4 matrix whose row
averages are min-max scaled into fusion weights.  The estimator trains by
gradient ascent on the bounds through its own optimizer, and a running
average of the bounds drives the weights: uniform during a burn-in of
ascent steps, then the min-max scaled row averages.  The weights enter the
task network as constants.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .module import Adam, Module, Parameter, uniform_init
from .neurons import LifConfig, sn_layer
from .profiler import record_cost
from .tensor import (InvalidInputError, NumericalError, Tape, Tensor, add, backward,
                     concat, exp, log, lstm_cell, matmul, mean, permute, reshape,
                     scale, sub, sum_)

MODALITY_ORDER = ("bone", "joint", "bone_motion", "joint_motion")


def smic_inputs(spikes: list[Tensor], seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Estimator inputs for every modality pair, built outside the tape.

    Each [S, B, D, V, T] modality is mean-pooled over joints once; pair
    (i, j) then concatenates pooled i with pooled j along the channels,
    as is for the joint input and with j's spike-step slices permuted by
    ``seed`` for the marginal input.  Returns joint and marginal, each
    [P, S, B, 2D, T], the pairs in ``SpikeMultimodalFusion.PAIRS`` order.
    """
    shapes = {t.shape for t in spikes}
    if len(shapes) != 1:
        raise InvalidInputError(f"modality shapes differ: {sorted(shapes)}")
    pooled = np.stack([t.data.mean(axis=-2, dtype=np.float32) for t in spikes])  # [M,S,B,D,T]
    first, second = (pooled[list(side)] for side in zip(*SpikeMultimodalFusion.PAIRS))
    perm = np.random.default_rng(seed).permutation(pooled.shape[1])
    joint = np.concatenate([first, second], axis=-2)
    marginal = np.concatenate([first, second[:, perm]], axis=-2)
    return joint, marginal


class SmicNet(Module):
    """LSTM -> SN -> FC -> GAP scorer, stacked over modality pairs.

    Every weight has a leading pair axis, so the pairs share no parameter
    and one batched forward scores them all.  The LSTM scans the frame
    axis of joint-pooled inputs, batching the spike-step slices; hidden
    states are binarized before the scalar head.
    """

    def __init__(self, pairs: int, in_channels: int, hidden: int, lif: LifConfig,
                 rng: np.random.Generator):
        super().__init__()
        self.pairs = pairs
        self.in_channels = in_channels
        self.hidden = hidden
        self.lif = lif
        # gain 2 + unit forget bias push hidden states into the surrogate
        # window at init; with smaller activity no gradient reaches the
        # recurrent weights and the estimator never leaves bound zero.
        # Drawn pair by pair, in the order of separate estimators.
        w_ih, w_hh, fc_w = zip(*[
            (2.0 * uniform_init(rng, (4 * hidden, in_channels), in_channels),
             2.0 * uniform_init(rng, (4 * hidden, hidden), hidden),
             uniform_init(rng, (hidden, 1), hidden)) for _ in range(pairs)])
        self.w_ih = Parameter(np.stack(w_ih))
        self.w_hh = Parameter(np.stack(w_hh))
        b_ih = np.zeros((pairs, 4 * hidden), dtype=np.float32)
        b_ih[:, hidden:2 * hidden] = 1.0
        self.b_ih = Parameter(b_ih)
        self.b_hh = Parameter(np.zeros((pairs, 4 * hidden), dtype=np.float32))
        self.fc_w = Parameter(np.stack(fc_w))
        self.fc_b = Parameter(np.zeros((pairs, 1), dtype=np.float32))

    def forward(self, x: np.ndarray) -> Tensor:
        """x[P, S, B, 2D, T] (joint-pooled, no gradient) -> scores [P, B]."""
        p, s, b, c, t = x.shape
        if (p, c) != (self.pairs, self.in_channels):
            raise InvalidInputError(
                f"SMIC expects {self.pairs} pairs of {self.in_channels} channels "
                f"(two modalities), got {p} of {c}")
        frames = np.moveaxis(x, -1, 0).reshape(t, p, s * b, c)
        h = Tensor(np.zeros((p, s * b, self.hidden), dtype=np.float32))
        cstate = Tensor(np.zeros((p, s * b, self.hidden), dtype=np.float32))
        hs = []
        for xt in frames:
            h, cstate = lstm_cell(Tensor(xt), h, cstate, self.w_ih, self.w_hh,
                                  self.b_ih, self.b_hh)
            hs.append(reshape(h, (p, s, b, self.hidden, 1)))
        hidden_seq = permute(concat(hs, axis=-1), (1, 0, 2, 3, 4))   # [S,P,B,H,T]
        spikes = sn_layer(hidden_seq, self.lif)
        tokens = permute(spikes, (0, 1, 2, 4, 3))                    # [S,P,B,T,H]
        logits = add(matmul(tokens, reshape(self.fc_w, (p, 1, self.hidden, 1))),
                     reshape(self.fc_b, (p, 1, 1, 1)))               # [S,P,B,T,1]
        return mean(logits, axis=(0, 3, 4))                          # [P,B]


def mi_lower_bound(t_vals: Tensor, et_vals: Tensor) -> Tensor:
    """Donsker-Varadhan form over the last axis: mean(t) - log(mean(et))."""
    if (et_vals.data <= 0).any():
        raise NumericalError("marginal-path values must be positive")
    return sub(mean(t_vals, axis=-1), log(mean(et_vals, axis=-1)))


@dataclass
class FusionWeights:
    w: np.ndarray
    degenerate: bool = False


def compute_mi_weights(mi: np.ndarray) -> FusionWeights:
    """Row-average the MI matrix, then min-max scale to [0, 1].

    ``mi`` holds the pairwise lower bounds: 4x4, symmetric, zero diagonal,
    rows and columns in MODALITY_ORDER.  When all averaged values coincide
    (e.g. an all-zero matrix) the min-max step is undefined; uniform
    weights of 1 are returned with the degenerate flag set, reducing the
    fusion to an unweighted sum.
    """
    mi = np.asarray(mi, dtype=np.float64)
    if mi.shape != (4, 4):
        raise InvalidInputError(f"MI matrix must be 4x4, got {mi.shape}")
    if not np.isfinite(mi).all():
        raise NumericalError("MI matrix contains non-finite entries")
    if not np.allclose(mi, mi.T):
        raise InvalidInputError("MI matrix must be symmetric")
    if not np.allclose(np.diag(mi), 0.0):
        raise InvalidInputError("MI matrix diagonal must be zero")
    row_sums = mi.sum(axis=1)
    total = mi.sum()
    averaged = row_sums / total if abs(total) > 1e-12 else row_sums
    span = averaged.max() - averaged.min()
    if span <= 1e-12:
        return FusionWeights(np.ones(4, dtype=np.float32), degenerate=True)
    w = (averaged - averaged.min()) / span
    return FusionWeights(w.astype(np.float32), degenerate=False)


def fuse_modalities(spikes: list[Tensor], weights: FusionWeights) -> Tensor:
    """Elementwise weighted sum over the four modality spike tensors."""
    if len(spikes) != 4:
        raise InvalidInputError(f"fusion expects 4 modalities, got {len(spikes)}")
    shapes = {t.shape for t in spikes}
    if len(shapes) != 1:
        raise InvalidInputError(f"modality shapes differ: {sorted(shapes)}")
    out = None
    for w_i, p_i in zip(weights.w, spikes):
        term = scale(p_i, float(w_i))
        out = term if out is None else add(out, term)
    return out


class SpikeMultimodalFusion(Module):
    """The stacked SMIC estimator plus the weight/fusion plumbing.

    The estimator is trained by gradient ascent on the pairwise bounds with
    its own Adam optimizer; its inputs are built from the spikes' data, so
    no gradient leaks into the encoders.  The marginal shuffle is seeded
    by the ascent count.
    """

    PAIRS = tuple(combinations(range(4), 2))
    # smoothing of the bound matrix, the ascent steps before the weights
    # leave uniform, and the steps after which the weights stop moving
    ema_momentum = 0.98
    burn_in_steps = 50
    freeze_after_steps = 150

    def __init__(self, channels: int, hidden: int, lif: LifConfig,
                 rng: np.random.Generator, lr: float):
        super().__init__()
        self.channels = channels
        self.estimator = SmicNet(len(self.PAIRS), 2 * channels, hidden, lif, rng)
        self._optim = Adam(self.estimator.parameters(), lr=lr)
        # smoothed pairwise bounds: per-batch DV estimates at desk-scale
        # batch sizes are too noisy to min-max directly, so the weight
        # computation reads this running average (stored with the model)
        self.mi_ema = self.register_buffer("mi_ema", np.zeros((4, 4), dtype=np.float32))
        self.mi_ema_count = self.register_buffer(
            "mi_ema_count", np.zeros(1, dtype=np.float32))

    @property
    def frozen(self) -> bool:
        """True once the ascent budget is exhausted; weights stop moving."""
        return self.mi_ema_count[0] >= self.freeze_after_steps

    def train_step(self, spikes: list[Tensor]) -> dict[tuple[int, int], float]:
        """One ascent step on every pair; returns and smooths the achieved
        bounds.

        The objective is minus the sum of the six bounds.  Pair k's bound
        depends only on slice k of every estimator weight and the pairs
        share no parameter, so the gradient of the sum on slice k is the
        gradient of bound k alone: one backward and one Adam step move each
        pair exactly as a separate ascent on its own bound would.
        """
        if self.frozen:
            return {}
        joint, marginal = smic_inputs(spikes, int(self.mi_ema_count[0]))
        with Tape() as tape:
            bound = mi_lower_bound(self.estimator(joint), exp(self.estimator(marginal)))
            backward(scale(sum_(bound), -1.0), tape)
        self._optim.step()
        self._optim.zero_grad()
        fresh = np.zeros((4, 4), dtype=np.float32)
        rows, cols = zip(*self.PAIRS)
        fresh[rows, cols] = fresh[cols, rows] = bound.data
        if self.mi_ema_count[0] == 0:
            self.mi_ema[:] = fresh
        else:
            self.mi_ema[:] = (self.ema_momentum * self.mi_ema
                              + (1.0 - self.ema_momentum) * fresh)
        self.mi_ema_count[0] += 1
        return dict(zip(self.PAIRS, bound.data.tolist()))

    def weights(self, spikes: list[Tensor]) -> FusionWeights:
        """Fusion weights in two phases.

        Until the estimators have taken ``burn_in_steps`` ascent steps their
        bounds are uninformative, so the weights are uniform and flagged
        degenerate, which keeps the downstream input distribution stable
        while the estimators warm up.  From then on they come from the
        smoothed matrix ``mi_ema``.  ``spikes`` only feed the report being
        recorded.
        """
        record_cost("smic", self, *spikes)
        if self.mi_ema_count[0] >= self.burn_in_steps:
            return compute_mi_weights(self.mi_ema)
        return FusionWeights(np.ones(4, dtype=np.float32), degenerate=True)
