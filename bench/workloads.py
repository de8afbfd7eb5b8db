"""The benchmark's workloads: inputs made from a seed, one operation per
step, the operation run at the end of each round, and the output checks.

All three use the synthetic 4-class set of the default configuration
(50 clips per class, 25 joints, 48 frames), generated from the seed.
"""

from __future__ import annotations

import json
import os

import numpy as np

# program functions are called through their modules, so that the
# tracer's rebinding reaches these calls too
from spikegraph import data, network, profiler
from spikegraph.config import RunConfig
from spikegraph.data import SkeletonTopology
from spikegraph.module import SGD, BatchNorm
from spikegraph.tensor import Tape, backward

import checks
import pin

CLASSES = 4
# eval_paper's initial weights are the same for every seed.  In eval mode
# the BatchNorms hold their initial identity statistics, so firing depends
# mostly on the weights: block rates ranged from 1% to 64% over seeds 1-10
# when the weights followed the seed, a spread that a later change skipping
# silent neurons would turn into noise.  Training normalises with batch
# statistics and fires at 35-60% whatever the weights, so the training
# workloads draw a fresh initialisation from the seed, as a user's run would.
EVAL_INIT_SEED = 0
BATCH = 16
TOY_T = 16
PAPER_T = 64
# head-only steps on one fixed batch from the initial weights, after the
# timed window, for the loss-falls check
FIXED_BATCH_STEPS = 4
OUT_DIR = os.path.join(pin.ROOT, "bench", "out")
SCHEMA = os.path.join(pin.SRC, "spikegraph", "schemas", "energy_report.schema.json")


def load_set(cfg: RunConfig, seed: int, target_t: int, samples_per_class: int = 50):
    d = cfg.get("dataset")
    seqs, _ = data.synthesize(classes=CLASSES, samples_per_class=samples_per_class,
                              num_joints=d["num_joints"], frames=d["frames"], seed=seed,
                              noise=d["noise"])
    return data.preprocess_sequences(seqs, target_t,
                                     SkeletonTopology.for_joint_count(d["num_joints"]))


def held_clip(cfg: RunConfig, target_t: int) -> dict:
    """One clip that is the same for every seed (seed 0, class 0)."""
    bundle, _ = load_set(cfg, 0, target_t, samples_per_class=1)
    return network.batch_tensors(bundle, np.array([0]))


# unordered modality pairs (indices into MODALITY_ORDER: bone, joint,
# bone_motion, joint_motion) from the largest MI value to the smallest
MI_RANK = ((1, 3), (1, 2), (0, 1), (2, 3), (0, 3), (0, 2))


def frozen_fusion_state(model, seed: int) -> dict:
    """Student state as after the fusion's ascent budget.

    The six pairwise MI values are drawn from the seed and assigned so
    that the joint stream gets weight 1 and the bone stream weight 0.  At
    initial weights the joint encoder is the only one that fires (1-3%,
    the others under 0.1%), so a fusion that dropped it would leave the
    network silent and make the firing rates depend on the seed.
    """
    values = np.sort(np.random.default_rng([seed, 3]).uniform(0.05, 1.0, 6))[::-1]
    mi = np.zeros((4, 4), dtype=np.float32)
    for (i, j), v in zip(MI_RANK, values):
        mi[i, j] = mi[j, i] = v
    state = model.state_dict()
    state["buffer:smf.mi_ema"] = mi
    state["buffer:smf.mi_ema_count"] = np.array([model.smf.freeze_after_steps], np.float32)
    return state


def calibrate_bn(model, batch: dict) -> None:
    """Set every BatchNorm's running statistics from one batch, as a trained
    model's would be; an untrained teacher's identity statistics give
    logits of order 50 that swamp the task loss."""
    norms = [m for m in _modules(model) if isinstance(m, BatchNorm)]
    for bn in norms:
        bn.momentum = 1.0
    model.train()
    model(batch)
    for bn in norms:
        bn.momentum = 0.1
    model.eval()


def _modules(module):
    for _, child in module._children():
        yield child
        yield from _modules(child)


class TrainRun:
    """``Trainer.train_step`` on the toy plan, B=16, T=16."""

    samples_per_step = BATCH

    def __init__(self, seed: int, kd: bool):
        self.seed = seed
        self.kd = self.has_round_op = kd
        self.cfg = RunConfig({"kd": "soft,feature" if kd else "none",
                              "preprocess": {"target_T": TOY_T, "batch_size": BATCH}})
        cfg = self.cfg
        self.topo = SkeletonTopology.ntu25()
        self.bundle, self.labels = load_set(cfg, seed, TOY_T)
        self.model = cfg.build_student(CLASSES, self.topo, np.random.default_rng(seed))
        self.teacher = self.ftm = None
        if kd:
            self.model.load_state_dict(frozen_fusion_state(self.model, seed))
            self.teacher = cfg.build_teacher(CLASSES, self.topo, np.random.default_rng(seed + 1))
            calib = np.random.default_rng([seed, 4]).choice(len(self.labels), 2 * BATCH,
                                                            replace=False)
            calibrate_bn(self.teacher, network.batch_tensors(self.bundle, calib))
            self.teacher_state = self.teacher.state_dict()
            self.ftm = network.FtmModule(self.teacher.plan, self.model.plan,
                                         self.model.spike_steps, self.model.lif,
                                         np.random.default_rng(seed + 2))
        self.mi_start = self.model.smf.mi_ema.copy()  # frozen in train_kd
        self.count_start = float(self.model.smf.mi_ema_count[0])
        self.initial_state = self.model.state_dict()
        self.trainer = self._trainer()
        self.batch_rng = np.random.default_rng([seed, 1])
        self.records: list[dict] = []
        self.rates: list[dict] = []
        self.held = held_clip(cfg, TOY_T) if kd else None
        self.errors: list[str] = []

    def _trainer(self):
        cfg = self.cfg
        return network.Trainer(self.model, self.bundle, self.labels, cfg.train_settings(),
                               loss_weights=cfg.loss_weights(), teacher=self.teacher,
                               ftm=self.ftm)

    def step(self) -> dict:
        idx = self.batch_rng.choice(len(self.labels), BATCH, replace=False)
        m = self.trainer.train_step(network.batch_tensors(self.bundle, idx), self.labels[idx])
        self.records.append(m)
        self.rates.append(m["rates"])
        return m

    def round_op(self) -> None:
        """Checkpoint round trip: save, load into a fresh student, compare."""
        os.makedirs(OUT_DIR, exist_ok=True)
        path = os.path.join(OUT_DIR, f"roundtrip-{os.getpid()}.ckpt")
        model = self.model
        try:
            network.save_model(path, model, model.plan_hash())
            fresh = self.cfg.build_student(CLASSES, self.topo,
                                           np.random.default_rng(self.seed + 3))
            network.load_model(path, fresh, fresh.plan_hash())
        finally:
            if os.path.exists(path):
                os.remove(path)
        self.errors += checks.check_same_state(model.state_dict(), fresh.state_dict(),
                                               "checkpoint round trip")
        model.eval()
        fresh.eval()
        want = model(self.held)[0].data
        got = fresh(self.held)[0].data
        model.train()
        if not np.array_equal(want, got):
            self.errors.append(f"restored student gives logits {got}, saved one {want}")

    def check(self) -> list[str]:
        model = self.model
        smf = model.smf
        errors = list(self.errors)
        errors += checks.check_step_records(self.records, BATCH)
        errors += checks.check_mi_ema(smf.mi_ema)
        count = float(smf.mi_ema_count[0])
        weights = model.fusion_weights([])
        errors += checks.check_fusion_weights(weights.w, weights.degenerate, smf.mi_ema,
                                              count, smf.burn_in_steps)
        if self.kd:
            if count != self.count_start or not np.array_equal(smf.mi_ema, self.mi_start):
                errors.append("frozen fusion state moved during training")
            errors += checks.check_same_state(self.teacher_state, self.teacher.state_dict(),
                                              "teacher")
        else:
            if count != len(self.records):
                errors.append(f"{count} SMIC ascent steps after {len(self.records)} train steps")
            # past burn-in the same matrix must give min-max scaled weights
            saved = smf.mi_ema_count.copy()
            smf.mi_ema_count[0] = smf.burn_in_steps
            weights = model.fusion_weights([])
            smf.mi_ema_count[:] = saved
            errors += checks.check_fusion_weights(weights.w, weights.degenerate, smf.mi_ema,
                                                  smf.burn_in_steps, smf.burn_in_steps)
            errors += self.check_learning()
        return errors

    def check_learning(self) -> list[str]:
        """From the initial weights (restored), on one class-balanced batch:
        ``Trainer.train_step`` with only the head in its optimizer lowers
        the task loss at every step, and then backward from the task loss
        reaches every task parameter.

        With the body fixed the head sees the same features every step, so
        its loss is convex.  Its curvature is at most half the squared norm
        of the features with the bias input, and the features are firing
        rates in [0, 1]: at most (64 + 1) / 2 on the toy plan.  Plain
        gradient descent at the configured learning rate (0.05 < 2 / 32.5)
        must then lower the loss at every step.  The whole network does not
        obey this: spikes that flip under a step move the loss by up to 0.01,
        and where the first loss is already near ln 4 it stayed within 0.012
        of it over 20 full steps.

        The gradients are taken after those steps, when the fusion is in its
        burn-in and weighs the four encoders alike, as in a training step.
        Before the first ascent step the weights come from the untrained
        estimators instead, and one or two encoders can get weight 0.
        """
        model = self.model
        model.load_state_dict(self.initial_state)
        order = np.random.default_rng([self.seed, 5]).permutation(len(self.labels))
        per_class = BATCH // CLASSES
        idx = np.concatenate([order[self.labels[order] == c][:per_class]
                              for c in range(CLASSES)])
        batch = network.batch_tensors(self.bundle, idx)
        trainer = self._trainer()
        settings = trainer.settings
        trainer.optimizer = SGD(model.head.parameters(), lr=settings.lr, momentum=0.0,
                                weight_decay=settings.weight_decay)
        losses = [trainer.train_step(batch, self.labels[idx])["l_task"]
                  for _ in range(FIXED_BATCH_STEPS)]
        errors = checks.check_loss_falls(losses)
        with Tape() as tape:
            logits, _, _ = model(batch)
            backward(network.task_loss(logits, self.labels[idx]), tape)
        params = dict(model.named_parameters())
        errors += checks.check_gradients({k: p.grad for k, p in params.items()
                                          if not k.startswith("smf.")})
        for p in params.values():
            p.grad = None
        return errors


class EvalRun:
    """Eval-mode forward at the paper channel plan, T=64, one clip per call."""

    samples_per_step = 1
    has_round_op = True
    batch_clips = 4

    def __init__(self, seed: int):
        self.seed = seed
        self.cfg = cfg = RunConfig({"blocks": {"preset": "paper"},
                                    "preprocess": {"target_T": PAPER_T}})
        topo = SkeletonTopology.ntu25()
        self.bundle, self.labels = load_set(cfg, seed, PAPER_T)
        self.model = cfg.build_student(CLASSES, topo, np.random.default_rng(EVAL_INIT_SEED))
        self.model.load_state_dict(frozen_fusion_state(self.model, seed))
        self.model.eval()
        self.state = self.model.state_dict()
        self.order = np.random.default_rng([seed, 2]).permutation(len(self.labels))
        self.calls = 0
        self.first_logits: list[np.ndarray] = []
        self.nonfinite = 0
        self.rates: list[dict] = []
        self.held = held_clip(cfg, PAPER_T)
        with open(SCHEMA) as fh:
            self.schema = json.load(fh)
        plan = self.model.plan
        b = cfg.get("blocks")
        self.expected_layers = checks.expected_report_layers(
            plan.widths, plan.strides, plan.in_channels, CLASSES, topo.num_joints, PAPER_T,
            b["temporal_kernel"], cfg.get("smf.smic_hidden"))
        self.report = None
        self.errors: list[str] = []

    def _clip(self, k: int) -> dict:
        return network.batch_tensors(self.bundle, self.order[[k % len(self.order)]])

    def step(self) -> dict:
        logits, _, info = self.model(self._clip(self.calls))
        self.calls += 1
        if not np.isfinite(logits.data).all():
            self.nonfinite += 1
        if len(self.first_logits) < self.batch_clips:
            self.first_logits.append(logits.data.copy())
        self.rates.append(info["rates"])
        return info

    def round_op(self) -> None:
        """Energy report on the held clip; raises on the known double count."""
        self.report = profiler.profile_model(self.model, self.held).to_json_dict()
        doubled, errors = checks.check_energy_report(self.report, self.schema,
                                                     self.expected_layers)
        self.errors += errors
        if doubled:
            raise RuntimeError("energy report lists every encoder twice")

    def check(self) -> list[str]:
        errors = list(self.errors)
        if self.nonfinite:
            errors.append(f"{self.nonfinite} clips gave non-finite logits")
        errors += checks.check_same_state(self.state, self.model.state_dict(), "eval")
        again = self.model(self._clip(0))[0].data
        if not np.array_equal(again, self.first_logits[0]):
            errors.append("a repeated clip gave different logits")
        n = len(self.first_logits)
        idx = self.order[np.arange(n) % len(self.order)]
        batched = self.model(network.batch_tensors(self.bundle, idx))[0].data
        errors += checks.check_batch_independence(self.first_logits, batched)
        return errors


WORKLOADS = {
    "train_smf": lambda seed: TrainRun(seed, kd=False),
    "train_kd": lambda seed: TrainRun(seed, kd=True),
    "eval_paper": EvalRun,
}
# operations per round; a workload with a round op adds it after these
ROUND_STEPS = {"train_smf": 1, "train_kd": 3, "eval_paper": 16}
WARMUP_STEPS = {"train_smf": 2, "train_kd": 2, "eval_paper": 2}
