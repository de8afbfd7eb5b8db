"""Run configuration: the student's layer plan, and every run setting
reaching the object it configures."""

import dataclasses

import numpy as np
import pytest

from spikegraph.config import DEFAULTS, RunConfig
from spikegraph.data import SkeletonTopology
from spikegraph.network import STUDENT_PLAN_FULL, STUDENT_PLAN_TOY, LayerPlan
from spikegraph.neurons import LifConfig


def test_defaults_give_the_preset_plans():
    assert RunConfig().student_plan() == STUDENT_PLAN_TOY
    assert RunConfig({"blocks": {"preset": "paper"}}).student_plan() == STUDENT_PLAN_FULL


def test_encoder_width_and_strides_apply_over_a_preset():
    plan = RunConfig({"ssc": {"hidden_channels": 8}}).student_plan()
    assert plan == LayerPlan(8, STUDENT_PLAN_TOY.widths, STUDENT_PLAN_TOY.strides)
    strides = (1, 2, 1, 2, 1, 1)
    plan = RunConfig({"blocks": {"preset": "paper", "strides": list(strides)}}).student_plan()
    assert plan == LayerPlan(3, STUDENT_PLAN_FULL.widths, strides)
    plan = RunConfig({"blocks": {"widths": [8, 8], "strides": [1, 2]}}).student_plan()
    assert plan == LayerPlan(3, (8, 8), (1, 2))


# a value other than its default for every key that configures a run object
CHANGED = {
    "seed": 7,
    "kd": "soft",
    "preprocess": {"batch_size": 5},
    "optimizer": {"lr": 0.3, "momentum": 0.7, "weight_decay": 3e-3, "epochs": 9,
                  "lr_step_epoch": 4, "lr_decay": 0.5, "early_stop_train_acc": None},
    "teacher": {"epochs": 11, "lr": 0.2},
    "ssc": {"spike_steps": 3, "hidden_channels": 5},
    "smf": {"smic_hidden": 6, "smic_lr": 2e-3, "shuffle_seed": 4},
    "neuron": {"v_threshold": 0.75, "v_reset": -0.25, "decay_tau": 0.5,
               "surrogate_window_a": 2.0},
    "blocks": {"attention_scale": 0.25, "temporal_kernel": 3},
}
SETTINGS = pytest.mark.parametrize("values", [{}, CHANGED], ids=["defaults", "changed"])


def test_changed_values_differ_from_the_defaults():
    for group, value in CHANGED.items():
        if isinstance(value, dict):
            for key, v in value.items():
                assert DEFAULTS[group][key] != v, f"{group}.{key}"
        else:
            assert DEFAULTS[group] != value, group


@SETTINGS
def test_train_settings_read_every_optimizer_key(values):
    cfg = RunConfig(values)
    o = cfg.get("optimizer")
    assert dataclasses.asdict(cfg.train_settings()) == {
        "lr": o["lr"], "momentum": o["momentum"], "weight_decay": o["weight_decay"],
        "epochs": o["epochs"], "batch_size": cfg.get("preprocess.batch_size"),
        "lr_step_epoch": o["lr_step_epoch"], "lr_decay": o["lr_decay"],
        "kd": cfg.kd_modes(), "early_stop_train_acc": o["early_stop_train_acc"],
        "seed": cfg.get("seed")}


@SETTINGS
def test_teacher_settings_follow_teacher_not_optimizer(values):
    cfg = RunConfig(values)
    settings = cfg.teacher_settings()
    assert (settings.lr, settings.epochs) == (cfg.get("teacher.lr"),
                                              cfg.get("teacher.epochs"))
    assert settings.batch_size == cfg.get("preprocess.batch_size")
    assert settings.seed == cfg.get("seed") + 1
    assert (settings.momentum, settings.weight_decay) == (0.9, 1e-4)
    assert settings.early_stop_train_acc == 0.995
    assert settings.lr_decay == 1.0 or settings.lr_step_epoch >= settings.epochs
    assert settings.kd == frozenset()


@SETTINGS
def test_build_student_reads_its_config(values):
    cfg = RunConfig(values)
    model = cfg.build_student(4, SkeletonTopology.ntu25(), np.random.default_rng(0))
    lif = LifConfig(**cfg.get("neuron"))
    spike_steps = cfg.get("ssc.spike_steps")
    assert model.spike_steps == spike_steps
    assert model.lif == lif
    for enc in model.encoders:
        assert enc.spike_steps == spike_steps and enc.lif == lif
        assert enc.weight.shape[0] == cfg.get("ssc.hidden_channels")
    assert model.smf.estimator.hidden == cfg.get("smf.smic_hidden")
    assert model.smf.estimator.lif == lif
    assert model.smf._optim.lr == cfg.get("smf.smic_lr")
    assert model.smf._shuffle_seed == cfg.get("smf.shuffle_seed")
    assert model.attention_scale == cfg.get("blocks.attention_scale")
    for sgc, stc in zip(model.sgc_layers, model.stc_layers):
        assert sgc.lif == stc.lif == lif
        assert sgc.attention_scale == cfg.get("blocks.attention_scale")
        assert stc.kernel_t == cfg.get("blocks.temporal_kernel")
