"""Checkpoint round trip, the training step's optimizer bookkeeping, the
epoch loop's LR step and early stop, the eval-mode BatchNorm fold and the
eval forward's page faults."""

import dataclasses
import os
import subprocess
import sys

import numpy as np
import pytest

import spikegraph
from spikegraph import blocks, module, network, neurons, tensor
from spikegraph.config import RunConfig
from spikegraph.data import (FormatError, SkeletonTopology, preprocess_sequences,
                             synthesize)
from spikegraph.encoding import SscEncoder
from spikegraph.fusion import SmicNet
from spikegraph.module import BatchNorm, load_checkpoint, save_checkpoint
from spikegraph.network import (TEACHER_TAP_LAYERS, FtmModule, GcTcUnit, TeacherModel,
                                Trainer, batch_tensors, load_model, save_model,
                                train_teacher)
from spikegraph.tensor import InvalidInputError, Tape

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

    @pytest.mark.parametrize("smf_enabled", [True, False])
    def test_each_used_modality_encoded_once(self, trained, monkeypatch, smf_enabled):
        cfg, topo, _, batch = trained
        cfg = RunConfig({**cfg.values, "smf": {**cfg.values["smf"], "enabled": smf_enabled}})
        model = cfg.build_student(CLASSES, topo, np.random.default_rng(0))
        calls = []
        forward = SscEncoder.forward
        monkeypatch.setattr(SscEncoder, "forward",
                            lambda enc, x: calls.append(enc) or forward(enc, x))
        labels = np.arange(8) % CLASSES
        trainer = Trainer(model, None, labels, cfg.train_settings(),
                          loss_weights=cfg.loss_weights())
        trainer.train_step(batch, labels)
        assert calls == model.encoders
        assert len(model.encoders) == (4 if smf_enabled else 1)  # the joint stream
        assert (model.smf is None) == (not smf_enabled)


    def test_student_forward_runs_no_batch_norm(self, trained, monkeypatch):
        # every student BatchNorm feeds spiking neurons, so in training it
        # runs inside neurons.bn_sn_layer, never as tensor.batch_norm
        cfg, topo, _, batch = trained
        model = cfg.build_student(CLASSES, topo, np.random.default_rng(0))
        calls = []
        batch_norm = module.batch_norm
        for mod in (module, tensor):
            monkeypatch.setattr(mod, "batch_norm",
                                lambda *a, **k: calls.append(a) or batch_norm(*a, **k))
        fused = []
        bn_sn_layer = blocks.bn_sn_layer
        monkeypatch.setattr(blocks, "bn_sn_layer",
                            lambda *a: fused.append(a) or bn_sn_layer(*a))
        with Tape():
            model(batch)
        assert calls == []
        assert len(fused) == 4 + 6 * len(model.sgc_layers)

    @pytest.mark.parametrize("kd, with_teacher", [({"soft"}, False), ({"feature"}, True)],
                             ids=["no_teacher", "no_ftm"])
    def test_distillation_needs_its_models(self, trained, kd, with_teacher):
        cfg, topo, model, _ = trained
        teacher = TeacherModel(CLASSES, topo, rng=np.random.default_rng(1)) \
            if with_teacher else None
        with pytest.raises(InvalidInputError):
            Trainer(model, None, np.arange(8) % CLASSES,
                    dataclasses.replace(cfg.train_settings(), kd=frozenset(kd)),
                    teacher=teacher)


def small_set(topo):
    seqs, _ = synthesize(classes=CLASSES, samples_per_class=1, num_joints=25,
                         frames=24, seed=1)
    return preprocess_sequences(seqs, 8, topo)


class TestRun:
    def _trainer(self, trained, **settings):
        cfg, topo, _, _ = trained
        bundle, labels = small_set(topo)
        model = cfg.build_student(CLASSES, topo, np.random.default_rng(0))
        return Trainer(model, bundle, labels,
                       dataclasses.replace(cfg.train_settings(), **settings),
                       loss_weights=cfg.loss_weights())

    def test_lr_steps_at_its_epoch(self, trained):
        trainer = self._trainer(trained, epochs=2, lr_step_epoch=1,
                                early_stop_train_acc=None)
        settings = trainer.settings
        assert len(trainer.run()) == 2
        assert trainer.optimizer.lr == settings.lr * settings.lr_decay

    def test_early_stop_ends_the_run(self, trained):
        trainer = self._trainer(trained, epochs=3, early_stop_train_acc=0.0)
        assert [h["epoch"] for h in trainer.run()] == [0]


class TestTrainTeacher:
    def test_early_stop_after_one_epoch_leaves_eval_mode(self, trained):
        cfg, topo, _, _ = trained
        bundle, labels = small_set(topo)
        teacher = cfg.build_teacher(CLASSES, topo, np.random.default_rng(1))
        before = teacher.state_dict()
        settings = dataclasses.replace(cfg.teacher_settings(), epochs=3,
                                       early_stop_train_acc=0.0)
        history = train_teacher(teacher, bundle, labels, settings)
        assert [sorted(h) for h in history] == [["epoch", "train_acc", "train_loss"]]
        assert history[0]["epoch"] == 0
        assert not teacher.training
        assert all(not m.training for m in _modules(teacher))
        changed = [k for k, v in teacher.state_dict().items()
                   if not np.array_equal(v, before[k])]
        assert "streams.0.fc.weight" in changed


class TestFusionBurnIn:
    def test_untrained_eval_forward_runs_no_estimator(self, trained, monkeypatch):
        cfg, topo, _, batch = trained
        model = cfg.build_student(CLASSES, topo, np.random.default_rng(3))
        model.eval()
        calls = []
        monkeypatch.setattr(SmicNet, "forward", lambda net, x: calls.append(net))
        _, _, info = model(batch)
        assert calls == []
        weights = info["fusion_weights"]
        assert weights.degenerate
        np.testing.assert_array_equal(weights.w, np.ones(4, dtype=np.float32))


class TestGraphWeights:
    def test_one_stacked_weight_per_layer(self, trained):
        _, _, model, _ = trained
        unit = GcTcUnit(3, 5, 3, np.random.default_rng(0))
        for layer, (cin, cout) in [(model.sgc_layers[0], model.plan.pairs()[0]),
                                   (unit, (3, 5))]:
            names = [n for n, _ in layer.named_parameters() if n.startswith("w_")]
            assert "w_graph" in names and not any("branch" in n for n in names)
            assert layer.w_graph.shape == (3, cin, cout)


class TestTeacherLayout:
    def test_taps_have_the_student_layout(self, trained):
        _, topo, _, batch = trained
        teacher = TeacherModel(CLASSES, topo, rng=np.random.default_rng(0))
        unit = teacher.streams[0].units[0]
        assert unit.w_t.shape == (unit.out_channels, unit.out_channels, 1, unit.kernel_t)
        b, _, v, t = batch["joint"].shape
        _, taps = teacher(batch)
        for layer, frames in zip(TEACHER_TAP_LAYERS, (t // 2, t // 4)):
            width = teacher.plan.widths[layer - 1]
            assert taps["joint"][layer].shape == (b, width, v, frames)


@pytest.mark.parametrize("kernel_t", [0, 4])
def test_temporal_kernel_must_keep_the_frame_count(kernel_t):
    rng = np.random.default_rng(0)
    with pytest.raises(InvalidInputError, match="temporal_kernel"):
        GcTcUnit(3, 5, 3, rng, kernel_t=kernel_t)
    with pytest.raises(InvalidInputError, match="temporal_kernel"):
        blocks.StcLayer(4, neurons.LifConfig(), rng, kernel_t=kernel_t)


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

    def test_truncated_or_padded_file_is_a_format_error(self, tmp_path):
        path = tmp_path / "a.ckpt"
        save_checkpoint(path, "h", {"a": np.ones(2, dtype=np.float32),
                                    "b": np.zeros((2, 3), dtype=np.float32)})
        raw = path.read_bytes()
        for cut in range(4, len(raw)):  # every cut after the magic
            path.write_bytes(raw[:cut])
            with pytest.raises(FormatError, match="truncated"):
                load_checkpoint(path)
        path.write_bytes(raw + b"\0")
        with pytest.raises(FormatError, match="trailing"):
            load_checkpoint(path)


class TestLoadStateDict:
    def test_missing_entries_rejected(self):
        bn = BatchNorm(4)
        with pytest.raises(InvalidInputError, match="missing"):
            bn.load_state_dict({})
        state = bn.state_dict()
        del state["buffer:running_var"]
        with pytest.raises(InvalidInputError, match="buffer:running_var"):
            bn.load_state_dict(state)

    def test_buffer_shape_mismatch_rejected(self):
        bn = BatchNorm(4)
        state = bn.state_dict()
        state["buffer:running_mean"] = np.array([7.0], dtype=np.float32)
        with pytest.raises(InvalidInputError, match="shape mismatch"):
            bn.load_state_dict(state)
        np.testing.assert_array_equal(bn.running_mean, np.zeros(4))

    def test_failed_load_changes_nothing(self):
        bn = BatchNorm(4)
        state = {k: v + 1.0 for k, v in bn.state_dict().items()}
        state["unknown"] = np.zeros(1, dtype=np.float32)
        with pytest.raises(InvalidInputError, match="unknown"):
            bn.load_state_dict(state)
        for key, arr in BatchNorm(4).state_dict().items():
            np.testing.assert_array_equal(bn.state_dict()[key], arr)


def _modules(module):
    for _, child in module._children():
        yield child
        yield from _modules(child)


def randomize_bn(model, seed):
    """Random non-identity gamma, beta, running mean and variance in every
    BatchNorm; at the toy plan the student's layers then fire 12-73%."""
    rng = np.random.default_rng(seed)
    for bn in _modules(model):
        if isinstance(bn, BatchNorm):
            c = bn.num_features
            bn.gamma.data = rng.uniform(0.5, 1.5, c).astype(np.float32)
            bn.beta.data = rng.normal(0.0, 0.3, c).astype(np.float32)
            bn.running_mean[:] = rng.normal(0.0, 0.3, c)
            bn.running_var[:] = rng.uniform(0.5, 2.0, c)


def unfolded_linear_bn(op, x, w, bn, bias=None):
    return bn(op(x, w, *(() if bias is None else (bias,))))


def spikes_of(run, monkeypatch, unfolded=False):
    """(result of ``run()``, every sn_layer output in call order), through
    the eval fold or, with ``unfolded``, through BatchNorm's own forward."""
    spikes = []

    def recording(x, cfg, relaxed=False):
        out = neurons.sn_layer(x, cfg, relaxed)
        spikes.append(out.data)
        return out

    with monkeypatch.context() as patch:
        for mod in (blocks, network):
            patch.setattr(mod, "sn_layer", recording)
            if unfolded:
                patch.setattr(mod, "linear_bn", unfolded_linear_bn)
        result = run()
    return result, spikes


class TestEvalFold:
    def test_student_fold_against_unfolded(self, trained, monkeypatch):
        """Folding reassociates sums, so a membrane at the threshold can
        flip a spike.  Measured with these statistics: at the toy plan
        (16 clips, seeds 0-3) 0 of 2.5e7 spikes flipped and the logits were
        bit-identical; at the paper plan (4 clips of T=64, seeds 0-1) 0 and
        24,764 of 1.0e8 flipped, at most 0.22% in one layer, with logits
        within 7.5e-3.  The bounds, 0.3% per layer and 1e-2 on the logits,
        cover the paper-plan figures."""
        cfg, topo, _, batch = trained
        model = cfg.build_student(CLASSES, topo, np.random.default_rng(0))
        randomize_bn(model, seed=0)
        model.eval()
        folded, spikes = spikes_of(lambda: model(batch)[0].data, monkeypatch)
        ref, ref_spikes = spikes_of(lambda: model(batch)[0].data, monkeypatch,
                                    unfolded=True)
        assert len(spikes) == len(ref_spikes) > 30
        for got, want in zip(spikes, ref_spikes):
            assert want.any()
            assert np.count_nonzero(got != want) <= 3e-3 * want.size
        np.testing.assert_allclose(folded, ref, rtol=0, atol=1e-2)

    def test_identity_statistics_are_bit_identical(self, trained, monkeypatch):
        cfg, topo, _, batch = trained
        model = cfg.build_student(CLASSES, topo, np.random.default_rng(0)).eval()
        folded, spikes = spikes_of(lambda: model(batch)[0].data, monkeypatch)
        ref, ref_spikes = spikes_of(lambda: model(batch)[0].data, monkeypatch,
                                    unfolded=True)
        assert len(spikes) == len(ref_spikes)
        for got, want in zip(spikes, ref_spikes):
            np.testing.assert_array_equal(got, want)
        np.testing.assert_array_equal(folded, ref)

    def test_teacher_and_ftm_fold_against_unfolded(self, trained, monkeypatch):
        """Real-valued teacher logits agree within 1e-4 relative; the FTM's
        translated spikes, as the student's, may flip only at the threshold."""
        cfg, topo, _, batch = trained
        teacher = cfg.build_teacher(CLASSES, topo, np.random.default_rng(1))
        student = cfg.build_student(CLASSES, topo, np.random.default_rng(0))
        ftm = FtmModule(teacher.plan, student.plan, student.spike_steps, student.lif,
                        np.random.default_rng(2))
        for seed, module in enumerate((teacher, ftm)):
            randomize_bn(module, seed)
            module.eval()

        def run():
            logits, taps = teacher(batch)
            return logits, ftm.translate(taps)

        (logits, translated), _ = spikes_of(run, monkeypatch)
        (ref_logits, ref_translated), _ = spikes_of(run, monkeypatch, unfolded=True)
        for name, ref in ref_logits.items():
            np.testing.assert_allclose(logits[name].data, ref.data, rtol=1e-4,
                                       atol=1e-4 * np.abs(ref.data).max())
        for got, want in zip(translated, ref_translated):
            assert np.count_nonzero(got.data != want.data) <= 3e-3 * want.size

    def test_no_stale_fold(self, trained):
        """An eval forward after a training step, or after load_state_dict
        into a model that already ran in eval, equals a fresh model's."""
        cfg, topo, _, batch = trained
        labels = np.arange(8) % CLASSES
        model = cfg.build_student(CLASSES, topo, np.random.default_rng(0))
        model.eval()
        model(batch)
        before = model.state_dict()
        Trainer(model, None, labels, cfg.train_settings(),
                loss_weights=cfg.loss_weights()).train_step(batch, labels)
        state = model.state_dict()
        for key in ("encoders.1.bn.gamma", "encoders.1.bn.beta",
                    "buffer:encoders.1.bn.running_mean", "buffer:encoders.1.bn.running_var"):
            assert not np.array_equal(state[key], before[key]), key
        model.eval()
        after_step = model(batch)[0].data

        fresh = cfg.build_student(CLASSES, topo, np.random.default_rng(5))
        fresh.load_state_dict(state)
        np.testing.assert_array_equal(after_step, fresh.eval()(batch)[0].data)

        reloaded = cfg.build_student(CLASSES, topo, np.random.default_rng(6)).eval()
        reloaded(batch)
        reloaded.load_state_dict(state)
        np.testing.assert_array_equal(after_step, reloaded(batch)[0].data)


FAULT_PROBE = """
import resource
import numpy as np
import spikegraph
from spikegraph.config import RunConfig
from spikegraph.data import SkeletonTopology
from spikegraph.tensor import Tensor
model = RunConfig().build_student(4, SkeletonTopology.ntu25(),
                                  np.random.default_rng(0)).eval()
rng = np.random.default_rng(1)
clip = {m: Tensor(rng.normal(size=(1, 3, 25, 16)).astype(np.float32))
        for m in ("joint", "bone", "joint_motion", "bone_motion")}
for _ in range(2):
    model(clip)
r0 = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for _ in range(4):
    model(clip)
print((resource.getrusage(resource.RUSAGE_SELF).ru_minflt - r0) / 4)
"""


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="glibc heap thresholds")
def test_eval_forward_does_not_fault_its_heap_back_in():
    """A toy-plan eval forward of one T=16 clip, in a process that builds
    no Trainer, after 2 warm-up forwards.  Without fixed heap thresholds it
    took about 1,900 minor faults per forward (glibc returned the freed
    transients to the kernel); with them, 0-1."""
    src = os.path.dirname(os.path.dirname(spikegraph.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run([sys.executable, "-c", FAULT_PROBE], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert float(proc.stdout) <= 50
