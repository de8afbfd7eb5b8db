"""Run configuration: defaults, YAML loading, flag overrides, round-trip."""

from __future__ import annotations

import copy
import math
import os
from typing import Any, Optional

import yaml

from .tensor import InvalidInputError


# Every field has a default; a fully defaulted config trains the synthetic
# dataset end to end at desk scale.  The `paper` model preset switches to
# the published channel plan.
DEFAULTS: dict[str, Any] = {
    "seed": 0,
    "out": "runs/latest",
    "dataset": {
        "kind": "synth",            # synth | ntu_dir
        "dir": None,                # source/output directory for the dataset
        "classes": 4,
        "samples_per_class": 50,
        "num_joints": 25,
        "frames": 48,
        "noise": 0.03,
        "train_fraction": 0.8,
        "cache_dir": None,          # parsed-file cache for ntu_dir; none when unset
    },
    "preprocess": {
        "target_T": 16,
        "batch_size": 32,
    },
    "neuron": {                     # LIF; hard reset to 0, unit surrogate window
        "v_threshold": 1.0,
        "decay_tau": 0.25,
    },
    "ssc": {
        "spike_steps": 4,
    },
    "smf": {                        # the marginal shuffle is seeded per batch
        "smic_hidden": 32,
        "smic_lr": 1e-3,
    },
    "blocks": {
        "preset": "toy",            # toy | paper: the student and its channel plan
        "attention_scale": 0.125,
        "temporal_kernel": 5,
    },
    "teacher": {
        "preset": "toy",
        "epochs": 30,
        "lr": 0.05,
    },
    "loss": {
        "alpha": [0.25, 0.25, 0.25, 0.25],
        "beta": [0.5, 0.5],
        "gamma": [1.0, 1.0, 1.0],
    },
    "optimizer": {
        "lr": 0.05,
        "momentum": 0.9,
        "weight_decay": 1e-4,
        "epochs": 60,
        "lr_step_epoch": 50,
        "lr_decay": 0.1,
        "early_stop_train_acc": 0.995,
    },
    "kd": "none",                   # none | soft | feature | soft,feature
}


# Keys set by default whose readers also take None, as "off".
NULLABLE = ("optimizer.early_stop_train_acc", "kd")


def _is_number(value) -> bool:
    """An int that is not a bool, or a finite float."""
    return (isinstance(value, int) and not isinstance(value, bool)
            or isinstance(value, float) and math.isfinite(value))


# (default's type, what it takes, test); the first whose type matches wins
_KINDS = ((dict, "a mapping", lambda v: isinstance(v, dict)),
          (int, "an integer", lambda v: _is_number(v) and isinstance(v, int)),
          (float, "a number", _is_number),
          (list, "a list of numbers",
           lambda v: isinstance(v, list) and all(map(_is_number, v))),
          (object, "a string", lambda v: isinstance(v, str)))


def _problems(base: dict, override: dict, path: str = "") -> list[str]:
    """Every key of ``override`` that ``base`` lacks, and every value whose
    type differs from its default's (``_KINDS``; a None default is a path,
    a string).  None stands where the default is None or in NULLABLE."""
    out = []
    for key, value in override.items():
        dotted = path + key
        if key not in base:
            out.append(f"unknown config key {dotted!r}")
        elif isinstance(base[key], dict) and isinstance(value, dict):
            out += _problems(base[key], value, dotted + ".")
        elif value is not None or (base[key] is not None and dotted not in NULLABLE):
            want, fits = next((w, f) for t, w, f in _KINDS if isinstance(base[key], t))
            if not fits(value):
                out.append(f"{dotted} must be {want}, got {value!r}")
    return out


def _merge(base: dict, override: dict) -> dict:
    out = copy.deepcopy(base)
    for key, value in override.items():
        if isinstance(base[key], dict) and isinstance(value, dict):
            out[key] = _merge(base[key], value)
        else:
            out[key] = copy.deepcopy(value)
    return out


class RunConfig:
    """Nested configuration dictionary with dotted-key access."""

    def __init__(self, values: Optional[dict] = None):
        self.values = copy.deepcopy(DEFAULTS)
        self._update(values or {})

    def _update(self, values: dict) -> None:
        problems = _problems(DEFAULTS, values)
        if problems:    # all of them, so an old file is mended in one pass
            raise InvalidInputError("; ".join(problems))
        self.values = _merge(self.values, values)

    @classmethod
    def load(cls, path: Optional[str] = None) -> "RunConfig":
        if path is None:
            return cls()
        if not os.path.exists(path):
            raise InvalidInputError(f"config file not found: {path}")
        with open(path) as fh:
            try:
                data = yaml.safe_load(fh) or {}
            except yaml.YAMLError as err:
                raise InvalidInputError(f"cannot parse config {path}: {err}") from err
        if not isinstance(data, dict):
            raise InvalidInputError(
                f"config root must be a mapping, got {type(data).__name__}")
        return cls(data)

    def get(self, dotted: str):
        node = self.values
        for part in dotted.split("."):
            if not isinstance(node, dict) or part not in node:
                raise InvalidInputError(f"unknown config key {dotted!r}")
            node = node[part]
        return node

    def set(self, dotted: str, value) -> None:
        for part in reversed(dotted.split(".")):
            value = {part: value}
        self._update(value)

    def override(self, overrides: dict[str, Any]) -> "RunConfig":
        for key, value in overrides.items():
            if value is not None:
                self.set(key, value)
        return self

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            yaml.safe_dump(self.values, fh, sort_keys=True)

    # -- constructions ---------------------------------------------------

    def lif_config(self):
        from .neurons import LifConfig
        n = self.values["neuron"]
        return LifConfig(v_threshold=n["v_threshold"], decay_tau=n["decay_tau"])

    def student_plan(self):
        """The ``blocks.preset`` plan, checked against ``preprocess.target_T``:
        each stride-2 layer halves the frames, so T must divide by 2 that
        many times."""
        from .network import STUDENT_PLAN_FULL, STUDENT_PLAN_TOY
        plan = STUDENT_PLAN_FULL if self.values["blocks"]["preset"] == "paper" \
            else STUDENT_PLAN_TOY
        target_t = self.values["preprocess"]["target_T"]
        step = 2 ** plan.strides.count(2)
        if target_t % step:
            raise InvalidInputError(f"preprocess.target_T must be a multiple of {step} "
                                    f"for the student's stride-2 layers, got {target_t}")
        return plan

    def teacher_plan(self):
        from .network import TEACHER_PLAN_FULL, TEACHER_PLAN_TOY
        return TEACHER_PLAN_FULL if self.values["teacher"]["preset"] == "paper" \
            else TEACHER_PLAN_TOY

    def loss_weights(self):
        from .network import LossWeights
        l = self.values["loss"]
        return LossWeights(alpha=tuple(l["alpha"]), beta=tuple(l["beta"]),
                           gamma=tuple(l["gamma"]))

    def kd_modes(self) -> frozenset:
        raw = self.values["kd"]
        if raw in (None, "none", ""):
            return frozenset()
        modes = frozenset(part.strip() for part in str(raw).split(",") if part.strip())
        unknown = modes - {"soft", "feature"}
        if unknown:
            raise InvalidInputError(f"unknown kd modes: {sorted(unknown)}")
        return modes

    def train_settings(self):
        """The student's schedule, all of it from ``optimizer``."""
        from .network import TrainSettings
        o = self.values["optimizer"]
        return TrainSettings(
            lr=o["lr"], momentum=o["momentum"], weight_decay=o["weight_decay"],
            epochs=o["epochs"], batch_size=self.values["preprocess"]["batch_size"],
            lr_step_epoch=o["lr_step_epoch"], lr_decay=o["lr_decay"],
            kd=self.kd_modes(), early_stop_train_acc=o["early_stop_train_acc"],
            seed=self.values["seed"])

    def teacher_settings(self):
        """The teacher's schedule: ``teacher.lr`` and ``teacher.epochs`` at
        the student's batch size, a constant LR and fixed SGD constants (it
        does not follow ``optimizer``), its batch order seeded ``seed + 1``."""
        from .network import TrainSettings
        epochs = self.values["teacher"]["epochs"]
        return TrainSettings(
            lr=self.values["teacher"]["lr"], momentum=0.9, weight_decay=1e-4,
            epochs=epochs, batch_size=self.values["preprocess"]["batch_size"],
            lr_step_epoch=epochs, lr_decay=1.0, kd=frozenset(),
            early_stop_train_acc=0.995, seed=self.values["seed"] + 1)

    def build_student(self, num_classes: int, topo, rng):
        from .network import MkSgnModel
        b = self.values["blocks"]
        return MkSgnModel(
            num_classes, topo, plan=self.student_plan(), lif=self.lif_config(),
            spike_steps=self.values["ssc"]["spike_steps"],
            smic_hidden=self.values["smf"]["smic_hidden"],
            smic_lr=self.values["smf"]["smic_lr"],
            attention_scale=b["attention_scale"],
            temporal_kernel=b["temporal_kernel"], rng=rng)

    def build_teacher(self, num_classes: int, topo, rng):
        from .network import TeacherModel
        return TeacherModel(num_classes, topo, plan=self.teacher_plan(), rng=rng,
                            kernel_t=self.values["blocks"]["temporal_kernel"])
