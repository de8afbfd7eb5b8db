"""Run configuration: defaults, YAML loading, flag overrides, round-trip."""

from __future__ import annotations

import copy
import os
from typing import Any, Optional

import yaml


class ConfigError(ValueError):
    """Bad or inconsistent run configuration."""


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
        "cache_dir": None,          # SPIKEGRAPH_CACHE overrides when unset
    },
    "preprocess": {
        "target_T": 16,
        "batch_size": 32,
    },
    "neuron": {
        "v_threshold": 1.0,
        "v_reset": 0.0,
        "decay_tau": 0.25,
        "surrogate_window_a": 1.0,
    },
    "ssc": {
        "spike_steps": 4,
        "hidden_channels": 3,       # feeds the first block (3 per the plan)
    },
    "smf": {
        "enabled": True,
        "smic_hidden": 32,
        "smic_lr": 1e-3,
        "shuffle_seed": 0,          # advanced by a per-batch counter
    },
    "blocks": {
        "preset": "toy",            # toy | paper
        "widths": None,             # explicit override of the preset widths
        "strides": None,
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


def _merge(base: dict, override: dict, path: str = "") -> dict:
    out = copy.deepcopy(base)
    for key, value in override.items():
        if key not in base:
            raise ConfigError(f"unknown config key {path + key!r}")
        if isinstance(base[key], dict) and isinstance(value, dict):
            out[key] = _merge(base[key], value, path + key + ".")
        else:
            out[key] = copy.deepcopy(value)
    return out


class RunConfig:
    """Nested configuration dictionary with dotted-key access."""

    def __init__(self, values: Optional[dict] = None):
        self.values = _merge(DEFAULTS, values or {})

    @classmethod
    def load(cls, path: Optional[str] = None) -> "RunConfig":
        if path is None:
            return cls()
        if not os.path.exists(path):
            raise ConfigError(f"config file not found: {path}")
        with open(path) as fh:
            try:
                data = yaml.safe_load(fh) or {}
            except yaml.YAMLError as err:
                raise ConfigError(f"cannot parse config {path}: {err}") from err
        if not isinstance(data, dict):
            raise ConfigError(f"config root must be a mapping, got {type(data).__name__}")
        return cls(data)

    def get(self, dotted: str):
        node = self.values
        for part in dotted.split("."):
            if not isinstance(node, dict) or part not in node:
                raise ConfigError(f"unknown config key {dotted!r}")
            node = node[part]
        return node

    def set(self, dotted: str, value) -> None:
        parts = dotted.split(".")
        node = self.values
        for part in parts[:-1]:
            if part not in node or not isinstance(node[part], dict):
                raise ConfigError(f"unknown config group {dotted!r}")
            node = node[part]
        if parts[-1] not in node:
            raise ConfigError(f"unknown config key {dotted!r}")
        node[parts[-1]] = value

    def override(self, overrides: dict[str, Any]) -> "RunConfig":
        for key, value in overrides.items():
            if value is not None:
                self.set(key, value)
        return self

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            yaml.safe_dump(self.values, fh, sort_keys=True)

    def dumps(self) -> str:
        return yaml.safe_dump(self.values, sort_keys=True)

    def __eq__(self, other) -> bool:
        return isinstance(other, RunConfig) and self.values == other.values

    # -- constructions ---------------------------------------------------

    def lif_config(self):
        from .neurons import LifConfig
        n = self.values["neuron"]
        return LifConfig(v_threshold=n["v_threshold"], v_reset=n["v_reset"],
                         decay_tau=n["decay_tau"],
                         surrogate_window_a=n["surrogate_window_a"])

    def student_plan(self):
        from .network import LayerPlan, STUDENT_PLAN_FULL, STUDENT_PLAN_TOY
        b = self.values["blocks"]
        base = STUDENT_PLAN_FULL if b["preset"] == "paper" else STUDENT_PLAN_TOY
        return LayerPlan(self.values["ssc"]["hidden_channels"],
                         tuple(b["widths"] or base.widths),
                         tuple(b["strides"] or base.strides))

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
            raise ConfigError(f"unknown kd modes: {sorted(unknown)}")
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
            temporal_kernel=b["temporal_kernel"],
            smf_enabled=self.values["smf"]["enabled"], rng=rng,
            shuffle_seed=self.values["smf"]["shuffle_seed"])

    def build_teacher(self, num_classes: int, topo, rng):
        from .network import TeacherModel
        return TeacherModel(num_classes, topo, plan=self.teacher_plan(), rng=rng,
                            kernel_t=self.values["blocks"]["temporal_kernel"])
