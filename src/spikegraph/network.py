"""Student/teacher assembly, distillation losses, and the training loop.

The student is the 6-layer spiking stack (channel plan from the published
architecture table, reduced widths for desk runs); the teacher is a plain
10-layer graph-conv / temporal-conv stack run once per modality.  Feature
distillation bridges teacher taps into spike form through the translation
module and aligns them with student taps via cosine distance.
"""

from __future__ import annotations

import hashlib
import json
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .blocks import (SaSgcLayer, StcLayer, channel_map, check_temporal_kernel,
                     graph_conv, partition_branches, sa_sgc_stc_block)
from .data import SkeletonTopology
from .encoding import SscEncoder
from .fusion import (MODALITY_ORDER, FusionWeights, SpikeMultimodalFusion,
                     fuse_modalities)
from .module import (BatchNorm, Linear, Module, Parameter, SGD,
                     kaiming_normal, load_checkpoint, save_checkpoint)
from .neurons import LifConfig, bn_sn_layer, sn_layer
from .profiler import active_fraction, record_cost
from .tensor import (InvalidInputError, NumericalError, Tape, Tensor, add, backward,
                     concat, conv2d, depthwise_conv2d, div, exp, log, max_, mean, mul,
                     relu, repeat0, scale, slice_, sqrt, sub, sum_)


# ---------------------------------------------------------------------------
# Layer plans (architecture table)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LayerPlan:
    in_channels: int
    widths: tuple[int, ...]
    strides: tuple[int, ...]

    def pairs(self) -> list[tuple[int, int]]:
        ins = [self.in_channels] + list(self.widths[:-1])
        return list(zip(ins, self.widths))


STUDENT_PLAN_FULL = LayerPlan(3, (64, 64, 128, 128, 256, 256), (1, 1, 2, 1, 2, 1))
STUDENT_PLAN_TOY = LayerPlan(3, (16, 16, 32, 32, 64, 64), (1, 1, 2, 1, 2, 1))
TEACHER_PLAN_FULL = LayerPlan(3, (64, 64, 64, 64, 128, 128, 128, 256, 256, 256),
                              (1, 1, 1, 1, 2, 1, 1, 2, 1, 1))
TEACHER_PLAN_TOY = LayerPlan(3, (16, 16, 16, 16, 32, 32, 32, 64, 64, 64),
                             (1, 1, 1, 1, 2, 1, 1, 2, 1, 1))

STUDENT_TAP_LAYERS = (3, 5)   # 1-indexed block outputs exposed for distillation
TEACHER_TAP_LAYERS = (5, 8)


def plan_hash(plan: LayerPlan, num_classes: int, **constants) -> str:
    """Hash of what fixes the meaning of a model's weights beyond their
    shapes: the channel plan, the class count and the forward's constants."""
    payload = json.dumps({
        "in": plan.in_channels, "widths": plan.widths, "strides": plan.strides,
        "classes": num_classes, **constants,
    }, sort_keys=True)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


_BOUNDS = {">= 1": lambda v: v >= 1, "> 0": lambda v: v > 0, ">= 0": lambda v: v >= 0,
           "in [0, 1)": lambda v: 0 <= v < 1}


def _check_settings(**settings: tuple[float, str]) -> None:
    """Raise ``InvalidInputError`` naming the first setting, given as
    name=(value, bound), whose value is outside its bound (a ``_BOUNDS`` key)."""
    for name, (value, bound) in settings.items():
        if not _BOUNDS[bound](value):
            raise InvalidInputError(f"{name} must be {bound}, got {value}")


# ---------------------------------------------------------------------------
# Loss weights
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LossWeights:
    alpha: tuple[float, float, float, float] = (0.25, 0.25, 0.25, 0.25)
    beta: tuple[float, float] = (0.5, 0.5)
    gamma: tuple[float, float, float] = (1.0, 1.0, 1.0)

    def __post_init__(self):
        for name, size in (("alpha", 4), ("beta", 2), ("gamma", 3)):
            group = getattr(self, name)
            if len(group) != size:
                raise InvalidInputError(
                    f"loss.{name} must hold {size} weights, got {len(group)}")
            if any(v < 0 for v in group):
                raise InvalidInputError(f"loss.{name} weights must be nonnegative")


# ---------------------------------------------------------------------------
# Losses
# ---------------------------------------------------------------------------

def _log_softmax(logits: Tensor) -> Tensor:
    m = max_(logits, axis=1, keepdims=True)
    lse = add(log(sum_(exp(sub(logits, m)), axis=1, keepdims=True)), m)
    return sub(logits, lse)


def task_loss(logits: Tensor, labels: np.ndarray) -> Tensor:
    """Softmax cross-entropy averaged over the batch."""
    labels = np.asarray(labels)
    num_classes = logits.shape[1]
    if labels.min() < 0 or labels.max() >= num_classes:
        raise InvalidInputError(
            f"labels must be in [0, {num_classes}), got range "
            f"[{labels.min()}, {labels.max()}]")
    onehot = np.zeros(logits.shape, dtype=np.float32)
    onehot[np.arange(labels.shape[0]), labels] = 1.0
    picked = sum_(mul(_log_softmax(logits), Tensor(onehot)), axis=1)
    return scale(mean(picked), -1.0)


def accuracy(logits: Tensor | np.ndarray, labels: np.ndarray) -> float:
    data = logits.data if isinstance(logits, Tensor) else logits
    return float((data.argmax(axis=1) == labels).mean())


def aggregate_soft_labels(logits: dict[str, Tensor], weights: LossWeights) -> Tensor:
    """Weighted sum of the per-modality teacher logits, ``weights.alpha``
    in ``MODALITY_ORDER``.

    Summed pairwise so the equal-weight case collapses to the input
    bit-exactly.
    """
    ys = [logits[m] for m in MODALITY_ORDER]
    shapes = {y.shape for y in ys}
    if len(shapes) != 1:
        raise InvalidInputError(f"soft label shapes differ: {sorted(shapes)}")
    a, b, c, d = (scale(y, w) for y, w in zip(ys, weights.alpha))
    return add(add(a, b), add(c, d))


def sdk_loss(y: Tensor, y_mm: Tensor) -> Tensor:
    """Per-sample L2 norm of the logit gap, batch averaged."""
    if y.shape != y_mm.shape:
        raise InvalidInputError(f"logit shapes differ: {y.shape} vs {y_mm.shape}")
    diff = sub(y, y_mm)
    return mean(sqrt(sum_(mul(diff, diff), axis=1)))


def fkd_loss(t_translated: Tensor, t_student: Tensor) -> Tensor:
    """Mean cosine distance between per-sample feature taps [S, B, D, V, T].

    A sample's vector is its entries over (S, D, V, T), reduced in place.
    Samples where either vector is all zero contribute distance 1
    (cosine defined as 0); both vectors are normalized first, which makes
    the loss exactly scale-invariant for power-of-two scalings.
    """
    if t_translated.shape != t_student.shape:
        raise InvalidInputError(
            f"tap shapes differ: {t_translated.shape} vs {t_student.shape}")
    if t_student.ndim != 5:
        raise InvalidInputError(f"expected rank-5 feature tap, got {t_student.shape}")
    a, b = t_translated, t_student
    every_axis_but_b = (0, 2, 3, 4)
    na = sqrt(sum_(mul(a, a), axis=every_axis_but_b))
    nb = sqrt(sum_(mul(b, b), axis=every_axis_but_b))
    dot = sum_(mul(a, b), axis=every_axis_but_b)
    valid = ((na.data > 0) & (nb.data > 0)).astype(np.float32)
    mask = Tensor(valid)
    denom = add(mul(mul(na, nb), mask), Tensor(1.0 - valid))
    cos = div(mul(dot, mask), denom)
    ones = Tensor(np.ones(cos.shape, dtype=np.float32))
    return mean(sub(ones, cos))


def total_loss(l_task: Tensor, l_sdk: Optional[Tensor],
               l_fkd: Optional[tuple[Tensor, Tensor]], weights: LossWeights) -> Tensor:
    """gamma-weighted combination of the task, soft-label and the two
    beta-weighted feature terms; a zero-gamma term is skipped so the
    task-only configuration is bit-identical to gamma1 * task loss."""
    g1, g2, g3 = weights.gamma
    out = scale(l_task, g1)
    if g2 != 0.0 and l_sdk is not None:
        out = add(out, scale(l_sdk, g2))
    if g3 != 0.0 and l_fkd is not None:
        (l_fkd1, l_fkd2), (b1, b2) = l_fkd, weights.beta
        out = add(out, scale(add(scale(l_fkd1, b1), scale(l_fkd2, b2)), g3))
    return out


# ---------------------------------------------------------------------------
# Student model
# ---------------------------------------------------------------------------

class MkSgnModel(Module):
    """4x SSC -> MI fusion -> 6 SA-SGC+STC blocks -> SN -> GAP over steps,
    joints and frames -> FC."""

    def __init__(self, num_classes: int, topo: SkeletonTopology, plan: LayerPlan,
                 lif: LifConfig, spike_steps: int, smic_hidden: int, smic_lr: float,
                 attention_scale: float, temporal_kernel: int, rng: np.random.Generator):
        super().__init__()
        _check_settings(smic_hidden=(smic_hidden, ">= 1"), smic_lr=(smic_lr, "> 0"),
                       attention_scale=(attention_scale, "> 0"))
        self.num_classes = num_classes
        self.topo = topo
        self.plan = plan
        self.lif = lif
        self.spike_steps = spike_steps
        self.attention_scale = attention_scale
        self.adjacency = partition_branches(topo)
        self.encoders = [SscEncoder(3, spike_steps, plan.in_channels, lif, rng)
                         for _ in MODALITY_ORDER]
        self.smf = SpikeMultimodalFusion(plan.in_channels, smic_hidden, lif, rng, smic_lr)
        self.sgc_layers = []
        self.stc_layers = []
        for (cin, cout), stride in zip(plan.pairs(), plan.strides):
            self.sgc_layers.append(SaSgcLayer(cin, cout, len(self.adjacency),
                                              lif, rng, attention_scale))
            self.stc_layers.append(StcLayer(cout, lif, rng, temporal_kernel, stride))
        self.head = Linear(plan.widths[-1], num_classes, rng)

    # -- plumbing ------------------------------------------------------------

    def plan_hash(self) -> str:
        # smf and v_reset keep their fixed values in the payload: checkpoints
        # written when they were settings must hash the same and keep loading
        return plan_hash(self.plan, self.num_classes, spike_steps=self.spike_steps,
                         joints=self.topo.num_joints, smf=True,
                         v_threshold=self.lif.v_threshold, v_reset=0.0,
                         decay_tau=self.lif.decay_tau,
                         attention_scale=self.attention_scale)

    def task_parameters(self) -> list[Parameter]:
        """Everything the task optimizer owns (fusion estimators excluded)."""
        return [p for name, p in self.named_parameters()
                if not name.startswith("smf.")]

    def encode(self, batch: dict[str, Tensor]) -> list[Tensor]:
        """Run each modality, in ``MODALITY_ORDER``, through its own encoder."""
        return [enc(batch[name]) for enc, name in zip(self.encoders, MODALITY_ORDER)]

    def fusion_weights(self, spikes: list[Tensor]) -> FusionWeights:
        return self.smf.weights(spikes)

    # -- forward -------------------------------------------------------------

    def forward(self, batch: dict[str, Tensor],
                ) -> tuple[Tensor, dict[int, Tensor], dict]:
        """Takes the modalities by name, each x[B, 3, V, T], and returns
        (logits [B, U], taps {layer -> feature}, run info).

        In training mode the fusion first takes one SMIC ascent step on the
        detached spikes (until it freezes), so a training step encodes its
        batch once.
        """
        spikes = self.encode(batch)
        if self.training:
            self.smf.train_step(spikes)
        weights = self.fusion_weights(spikes)
        x = fuse_modalities(spikes, weights)
        rates = {"fused_input": active_fraction(x)}
        taps: dict[int, Tensor] = {}
        for i, (sgc, stc) in enumerate(zip(self.sgc_layers, self.stc_layers), start=1):
            x = sa_sgc_stc_block(x, sgc, stc, self.adjacency)
            rates[f"block{i}"] = active_fraction(x)
            if i in STUDENT_TAP_LAYERS:
                taps[i] = x
        final = sn_layer(x, self.lif)
        record_cost("head", self.head, final)
        # the FC is linear, so it maps the step mean once: [B, D] -> [B, U]
        logits = self.head(mean(final, axis=(0, 3, 4)))
        info = {"rates": rates, "fusion_weights": weights}
        return logits, taps, info


# ---------------------------------------------------------------------------
# Teacher model (plain GC-TC stack, real-valued)
# ---------------------------------------------------------------------------

class GcTcUnit(Module):
    """Graph conv + temporal conv with a residual, ReLU activations.

    Takes and returns [B, C, V, T], the student's layout; the temporal conv
    slides over T and carries the stride, the residual projects when the
    shape changes.
    """

    def __init__(self, in_channels: int, out_channels: int, num_branches: int,
                 rng: np.random.Generator, kernel_t: int, stride: int = 1):
        super().__init__()
        check_temporal_kernel(kernel_t)
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.stride = stride
        self.kernel_t = kernel_t
        self.w_graph = Parameter(np.stack([
            kaiming_normal(rng, (in_channels, out_channels), in_channels)
            for _ in range(num_branches)]))
        self.bn_gc = BatchNorm(out_channels)
        self.w_t = Parameter(kaiming_normal(
            rng, (out_channels, out_channels, 1, kernel_t), out_channels * kernel_t))
        self.b_t = Parameter(np.zeros(out_channels, dtype=np.float32))
        self.bn_tc = BatchNorm(out_channels)
        self.w_res = None
        self.bn_res = None
        if in_channels != out_channels or stride != 1:
            self.w_res = Parameter(kaiming_normal(
                rng, (in_channels, out_channels), in_channels))
            self.bn_res = BatchNorm(out_channels)

    def forward(self, x: Tensor, adj: np.ndarray) -> Tensor:
        h = relu(self.bn_gc(graph_conv(x, adj, self.w_graph)))
        pad_t = (self.kernel_t - 1) // 2
        y = self.bn_tc(conv2d(h, self.w_t, self.b_t, stride=(1, self.stride),
                              padding=(0, pad_t)))
        res = x
        if self.stride == 2:
            res = slice_(res, (..., slice(0, None, 2)))
        if self.w_res is not None:
            res = self.bn_res(channel_map(res, self.w_res))
        return relu(add(y, res))


class GcTcStack(Module):
    """One teacher stream: units plus a GAP+FC head."""

    def __init__(self, num_classes: int, plan: LayerPlan, num_branches: int,
                 rng: np.random.Generator, kernel_t: int):
        super().__init__()
        self.units = [GcTcUnit(cin, cout, num_branches, rng, kernel_t, stride)
                      for (cin, cout), stride in zip(plan.pairs(), plan.strides)]
        self.fc = Linear(plan.widths[-1], num_classes, rng)

    def forward(self, x: Tensor, adj: np.ndarray) -> tuple[Tensor, dict[int, Tensor]]:
        taps: dict[int, Tensor] = {}
        for i, unit in enumerate(self.units, start=1):
            x = unit(x, adj)
            if i in TEACHER_TAP_LAYERS:
                taps[i] = x
        pooled = mean(x, axis=(2, 3))
        return self.fc(pooled), taps


class TeacherModel(Module):
    """Per-modality GC-TC stacks sharing the adjacency, separate heads.

    Takes the student's input, the modalities by name, each x[B, 3, V, T],
    so the taps have the student's layout.
    """

    def __init__(self, num_classes: int, topo: SkeletonTopology, plan: LayerPlan,
                 rng: np.random.Generator, kernel_t: int):
        super().__init__()
        self.num_classes = num_classes
        self.plan = plan
        self.topo = topo
        self.adjacency = partition_branches(topo)
        self.streams = [GcTcStack(num_classes, plan, len(self.adjacency),
                                  rng, kernel_t) for _ in MODALITY_ORDER]

    def plan_hash(self) -> str:
        return plan_hash(self.plan, self.num_classes, joints=self.topo.num_joints)

    def forward(self, batch: dict[str, Tensor],
                ) -> tuple[dict[str, Tensor], dict[str, dict[int, Tensor]]]:
        logits: dict[str, Tensor] = {}
        taps: dict[str, dict[int, Tensor]] = {}
        for stream, name in zip(self.streams, MODALITY_ORDER):
            logits[name], taps[name] = stream(batch[name], self.adjacency)
        return logits, taps


# ---------------------------------------------------------------------------
# Feature translation module
# ---------------------------------------------------------------------------

class FtmBranch(Module):
    """Concat-fuse 4 teacher taps, then translate into student-shaped spikes.

    Fusion is a depthwise 3x3 + pointwise mix with BN; translation
    1x1-projects to the paired student channel count, expands a spike-step
    axis, and binarizes.
    """

    def __init__(self, teacher_channels: int, target_channels: int,
                 spike_steps: int, lif: LifConfig, rng: np.random.Generator):
        super().__init__()
        cat = 4 * teacher_channels
        self.cat_channels = cat
        self.target_channels = target_channels
        self.spike_steps = spike_steps
        self.lif = lif
        self.w_depthwise = Parameter(kaiming_normal(rng, (cat, 3, 3), 9))
        self.w_pointwise = Parameter(kaiming_normal(rng, (cat, cat), cat))
        self.bn_fuse = BatchNorm(cat)
        self.w_translate = Parameter(kaiming_normal(rng, (cat, target_channels), cat))
        self.bn_translate = BatchNorm(target_channels)

    def forward(self, taps: Sequence[Tensor]) -> Tensor:
        shapes = {t.shape for t in taps}
        if len(shapes) != 1:
            raise InvalidInputError(f"teacher tap shapes differ: {sorted(shapes)}")
        cat = concat(list(taps), axis=1)            # [B, 4C, V, T]
        if cat.shape[1] != self.cat_channels:
            raise InvalidInputError(
                f"FTM expects {self.cat_channels} concatenated channels, "
                f"got {cat.shape[1]}")
        fused = depthwise_conv2d(cat, self.w_depthwise, padding=1)
        fused = self.bn_fuse(channel_map(fused, self.w_pointwise))  # [B, 4C, V, T]
        projected = channel_map(fused, self.w_translate)  # [B, C', V, T]
        return bn_sn_layer(repeat0(projected, self.spike_steps), self.bn_translate,
                           self.lif)


class FtmModule(Module):
    """Two branches: teacher layer-5 -> student layer-3, layer-8 -> layer-5."""

    def __init__(self, teacher_plan: LayerPlan, student_plan: LayerPlan,
                 spike_steps: int, lif: LifConfig, rng: np.random.Generator):
        super().__init__()
        t5 = teacher_plan.widths[TEACHER_TAP_LAYERS[0] - 1]
        t8 = teacher_plan.widths[TEACHER_TAP_LAYERS[1] - 1]
        s3 = student_plan.widths[STUDENT_TAP_LAYERS[0] - 1]
        s5 = student_plan.widths[STUDENT_TAP_LAYERS[1] - 1]
        self.branch_mid = FtmBranch(t5, s3, spike_steps, lif, rng)
        self.branch_high = FtmBranch(t8, s5, spike_steps, lif, rng)

    def translate(self, teacher_taps: dict[str, dict[int, Tensor]]) -> tuple[Tensor, Tensor]:
        mid = [teacher_taps[m][TEACHER_TAP_LAYERS[0]] for m in MODALITY_ORDER]
        high = [teacher_taps[m][TEACHER_TAP_LAYERS[1]] for m in MODALITY_ORDER]
        return self.branch_mid(mid), self.branch_high(high)


# ---------------------------------------------------------------------------
# Training
# ---------------------------------------------------------------------------

@dataclass
class TrainSettings:
    """One training run's schedule; ``RunConfig`` builds both models' own."""

    lr: float
    momentum: float
    weight_decay: float
    epochs: int
    batch_size: int
    lr_step_epoch: int                   # the LR is multiplied by lr_decay here
    lr_decay: float
    kd: frozenset                        # subset of {"soft", "feature"}
    early_stop_train_acc: Optional[float]
    seed: int                            # seeds the batch order

    def __post_init__(self):
        _check_settings(epochs=(self.epochs, ">= 1"), batch_size=(self.batch_size, ">= 1"),
                       lr=(self.lr, "> 0"), momentum=(self.momentum, "in [0, 1)"),
                       weight_decay=(self.weight_decay, ">= 0"),
                       lr_decay=(self.lr_decay, "> 0"))


def run_epochs(step, optimizer, n: int, settings: TrainSettings,
               rng: np.random.Generator) -> list[dict]:
    """Shuffled epochs over ``n`` samples, the one loop both models train in.

    ``step(idx)`` trains on the samples ``idx`` and returns their ``acc``
    and ``loss``; an epoch's summary weights them by batch size.  The LR
    steps when epoch ``lr_step_epoch`` begins, and the run ends after the
    first epoch whose train accuracy reaches ``early_stop_train_acc``.
    """
    history = []
    for epoch in range(settings.epochs):
        if epoch == settings.lr_step_epoch:
            optimizer.lr *= settings.lr_decay
        order = rng.permutation(n)
        accs, losses = [], []
        for start in range(0, n, settings.batch_size):
            idx = order[start:start + settings.batch_size]
            metrics = step(idx)
            accs.append(metrics["acc"] * len(idx))
            losses.append(metrics["loss"] * len(idx))
        history.append({"epoch": epoch, "train_acc": float(np.sum(accs) / n),
                        "train_loss": float(np.sum(losses) / n)})
        stop_at = settings.early_stop_train_acc
        if stop_at is not None and history[-1]["train_acc"] >= stop_at:
            break
    return history


def batch_tensors(bundle: dict[str, np.ndarray], idx: np.ndarray) -> dict[str, Tensor]:
    """The samples ``idx`` of a ``preprocess_sequences`` dataset as the
    models' input: the modalities by name, each a Tensor x[B, 3, V, T]."""
    return {name: Tensor(arr[idx]) for name, arr in bundle.items()}


def _keep_freed_memory() -> None:
    """Keep freed heap memory in the process, for every entry point.

    Called once when the package is imported, so training, ``evaluate``,
    ``profile_model`` and a bare forward all run under it.  A training
    step allocates and frees its whole tape (about 1 GB on the toy plan),
    and a paper-plan eval forward frees its full-size transients.  glibc's
    adaptive thresholds hand the freed top of the heap back to the kernel
    unless a live block happens to sit above it, and the next step or clip
    faults it in again: up to 220k minor faults and 0.5 s of system time
    per toy step, and about 20k faults and 55 ms per paper-plan clip,
    flipping with unrelated changes to allocation order.  Fixed thresholds
    (mmap only above 32 MB, no trimming) make the reuse unconditional.
    One arena serves every thread, so the jobs on the workers that each
    sweep and each training step own (the teacher's forward and the
    weight-gradient GEMMs) reuse the blocks the caller's thread frees
    instead of growing a heap per thread (+6% peak RSS on a toy training
    step).
    """
    if sys.platform.startswith("linux"):
        import ctypes

        mallopt = ctypes.CDLL(None).mallopt
        mallopt(-3, 32 << 20)       # M_MMAP_THRESHOLD
        mallopt(-1, 2 ** 31 - 1)    # M_TRIM_THRESHOLD
        mallopt(-8, 1)              # M_ARENA_MAX


class Trainer:
    """Single-model training loop: fusion ascent, forward, loss, SGD step."""

    def __init__(self, model: MkSgnModel, bundle: dict[str, np.ndarray],
                 labels: np.ndarray, settings: TrainSettings,
                 loss_weights: LossWeights = LossWeights(),
                 teacher: Optional[TeacherModel] = None,
                 ftm: Optional[FtmModule] = None,
                 metrics_writer=None):
        self.model = model
        self.bundle = bundle
        self.labels = np.asarray(labels)
        self.settings = settings
        self.loss_weights = loss_weights
        self.teacher = teacher
        self.ftm = ftm
        self.metrics_writer = metrics_writer
        if settings.kd and teacher is None:
            raise InvalidInputError("distillation requested but no teacher given")
        if "feature" in settings.kd and ftm is None:
            raise InvalidInputError("feature distillation requested but no FTM")
        params = model.task_parameters()
        if "feature" in settings.kd:
            params = params + ftm.parameters()
        self.optimizer = SGD(params, lr=settings.lr, momentum=settings.momentum,
                             weight_decay=settings.weight_decay)
        self._rng = np.random.default_rng(settings.seed)
        self.global_step = 0
        if teacher is not None:
            teacher.eval()

    # -- one optimization step ----------------------------------------------

    def train_step(self, batch: dict[str, Tensor], labels: np.ndarray) -> dict:
        """One SGD step on a batch: the student's forward (with the SMIC
        ascent while the fusion learns), the loss terms, the sweep and the
        update; returns the step's metrics.

        With distillation on, the step owns a worker thread on which the
        frozen teacher's forward runs while the student's runs here.  The
        teacher records onto no tape and no energy report.  Its outputs are
        collected before the loss terms; an error of its own is raised here
        as it is.  The step joins its worker before it returns, also when
        it raises: no job outlives the step.
        """
        model = self.model
        settings = self.settings
        model.train()

        with ThreadPoolExecutor(1, thread_name_prefix="spikegraph-teacher") as worker:
            teacher_job = worker.submit(self.teacher, batch) if settings.kd else None
            with Tape() as tape:
                logits, taps, info = model(batch)
                if settings.kd:
                    logits_d, taps_d = teacher_job.result()
                    teacher_logits = {k: v.detach() for k, v in logits_d.items()}
                    teacher_taps = {m: {i: t.detach() for i, t in d.items()}
                                    for m, d in taps_d.items()}
                l_task = task_loss(logits, labels)
                l_sdk = l_fkd = None
                if "soft" in settings.kd:
                    l_sdk = sdk_loss(logits, aggregate_soft_labels(teacher_logits,
                                                                   self.loss_weights))
                if "feature" in settings.kd:
                    t_mid, t_high = self.ftm.translate(teacher_taps)
                    l_fkd = (fkd_loss(t_mid, taps[STUDENT_TAP_LAYERS[0]]),
                             fkd_loss(t_high, taps[STUDENT_TAP_LAYERS[1]]))
                loss = total_loss(l_task, l_sdk, l_fkd, self.loss_weights)
                if not np.isfinite(loss.data).all():
                    dump = ", ".join(f"{k}={v:.3f}"
                                     for k, v in sorted(info["rates"].items()))
                    raise NumericalError(f"training loss is non-finite "
                                         f"(layer firing rates: {dump})")
                backward(loss, tape)

        self.optimizer.step()
        self.optimizer.zero_grad()
        self.global_step += 1
        metrics = {
            "step": self.global_step,
            "l_task": float(l_task.data),
            "l_sdk": float(l_sdk.data) if l_sdk is not None else 0.0,
            "l_fkd": float(l_fkd[0].data * self.loss_weights.beta[0]
                           + l_fkd[1].data * self.loss_weights.beta[1])
            if l_fkd is not None else 0.0,
            "loss": float(loss.data),
            "acc": accuracy(logits, labels),
            "rates": info["rates"],
        }
        if self.metrics_writer is not None:
            self.metrics_writer(metrics)
        return metrics

    # -- epochs ---------------------------------------------------------------

    def run(self) -> list[dict]:
        return run_epochs(lambda idx: self.train_step(batch_tensors(self.bundle, idx),
                                                      self.labels[idx]),
                          self.optimizer, self.labels.shape[0], self.settings, self._rng)


def evaluate(model: MkSgnModel, bundle: dict[str, np.ndarray], labels: np.ndarray,
             batch_size: int) -> dict:
    """Top-1 accuracy and per-class confusion counts on a fixed split,
    ``batch_size`` clips per forward."""
    if batch_size < 1:
        raise InvalidInputError(f"batch_size must be >= 1, got {batch_size}")
    model.eval()
    labels = np.asarray(labels)
    n = labels.shape[0]
    confusion = np.zeros((model.num_classes, model.num_classes), dtype=np.int64)
    correct = 0
    for start in range(0, n, batch_size):
        idx = np.arange(start, min(start + batch_size, n))
        logits, _, _ = model(batch_tensors(bundle, idx))
        pred = logits.data.argmax(axis=1)
        for p, t in zip(pred, labels[idx]):
            confusion[t, p] += 1
        correct += int((pred == labels[idx]).sum())
    return {"accuracy": correct / n, "confusion": confusion}


# ---------------------------------------------------------------------------
# Teacher training (toy-scale, before distillation)
# ---------------------------------------------------------------------------

def train_teacher(teacher: TeacherModel, bundle: dict[str, np.ndarray],
                  labels: np.ndarray, settings: TrainSettings) -> list[dict]:
    """Supervised training of the four teacher streams (mean of their CEs)."""
    labels = np.asarray(labels)
    optimizer = SGD(teacher.parameters(), lr=settings.lr, momentum=settings.momentum,
                    weight_decay=settings.weight_decay)

    def step(idx: np.ndarray) -> dict:
        with Tape() as tape:
            logits, _ = teacher(batch_tensors(bundle, idx))
            loss = None
            for name in MODALITY_ORDER:
                term = task_loss(logits[name], labels[idx])
                loss = term if loss is None else add(loss, term)
            loss = scale(loss, 0.25)
            if not np.isfinite(loss.data).all():
                raise NumericalError("teacher loss is non-finite")
            backward(loss, tape)
        optimizer.step()
        optimizer.zero_grad()
        fused = np.mean([logits[m].data for m in MODALITY_ORDER], axis=0)
        return {"acc": accuracy(fused, labels[idx]), "loss": float(loss.data)}

    teacher.train()
    history = run_epochs(step, optimizer, labels.shape[0], settings,
                         np.random.default_rng(settings.seed))
    teacher.eval()
    return history


# ---------------------------------------------------------------------------
# Checkpoints
# ---------------------------------------------------------------------------

def save_model(path, model: Module, plan_hash_value: str) -> None:
    save_checkpoint(path, plan_hash_value, model.state_dict())


def load_model(path, model: Module, expected_hash: str) -> None:
    """Load a checkpoint into ``model``; a plan hash other than
    ``expected_hash`` (``model.plan_hash()``) is rejected before any state
    is loaded."""
    found_hash, arrays = load_checkpoint(path)
    if found_hash != expected_hash:
        raise InvalidInputError(
            f"checkpoint plan hash {found_hash[:12]} does not match "
            f"expected {expected_hash[:12]}")
    model.load_state_dict(arrays)
