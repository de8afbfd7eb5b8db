"""Checkpoint round trip and the training step's optimizer bookkeeping."""

import os

import numpy as np
import pytest

from spikegraph.config import RunConfig
from spikegraph.data import SkeletonTopology, preprocess_sequences, synthesize
from spikegraph.module import load_checkpoint, save_checkpoint
from spikegraph.network import Trainer, batch_tensors, load_model, save_model

CLASSES = 4


@pytest.fixture(scope="module")
def trained():
    """A toy student after one training step, with its data and config."""
    cfg = RunConfig({"preprocess": {"target_T": 8, "batch_size": 8}})
    topo = SkeletonTopology.ntu25()
    seqs, _ = synthesize(classes=CLASSES, samples_per_class=2, num_joints=25,
                         frames=24, seed=0)
    bundle, labels = preprocess_sequences(seqs, 8, topo)
    model = cfg.build_student(CLASSES, topo, np.random.default_rng(0))
    trainer = Trainer(model, bundle, labels, cfg.train_settings(),
                      loss_weights=cfg.loss_weights())
    idx = np.arange(8)
    trainer.train_step(batch_tensors(bundle, idx), labels[idx])
    return cfg, topo, model, batch_tensors(bundle, idx)


class TestTrainStep:
    def test_fusion_optimizer_steps_once_per_ascent(self, trained):
        _, _, model, _ = trained
        assert model.smf._optim._t == 1


class TestCheckpoint:
    def test_round_trip_is_exact(self, trained, tmp_path):
        cfg, topo, model, batch = trained
        path = tmp_path / "student.ckpt"
        save_model(path, model, model.plan_hash())
        fresh = cfg.build_student(CLASSES, topo, np.random.default_rng(1))
        load_model(path, fresh, fresh.plan_hash())
        want, got = model.state_dict(), fresh.state_dict()
        assert sorted(want) == sorted(got)
        for key in want:
            np.testing.assert_array_equal(got[key], want[key], err_msg=key)
        model.eval()
        fresh.eval()
        np.testing.assert_array_equal(fresh(batch)[0].data, model(batch)[0].data)
        model.train()

    def test_failed_save_keeps_previous_file(self, tmp_path):
        path = tmp_path / "a.ckpt"
        save_checkpoint(path, "h", {"w": np.arange(3, dtype=np.float32)})
        before = path.read_bytes()
        with pytest.raises(TypeError):
            save_checkpoint(path, "h", {"a": np.ones(2), "b": object()})
        assert path.read_bytes() == before
        assert os.listdir(tmp_path) == ["a.ckpt"]
        plan_hash, arrays = load_checkpoint(path)
        assert plan_hash == "h"
        np.testing.assert_array_equal(arrays["w"], [0.0, 1.0, 2.0])
