"""Checkpoint round trip, the training step's optimizer bookkeeping and its
worker-thread weight gradients, the epoch loop's LR step and early stop,
eval-mode BatchNorm, and the page faults of the eval forward and of the
training step."""

import contextlib
import dataclasses
import os
import subprocess
import sys
import time

import numpy as np
import pytest

import spikegraph
from spikegraph import blocks, encoding, fusion, module, network, neurons, tensor
from spikegraph.config import RunConfig
from spikegraph.data import SkeletonTopology, preprocess_sequences, synthesize
from spikegraph.encoding import SscEncoder
from spikegraph.fusion import MODALITY_ORDER, SmicNet
from spikegraph.module import BatchNorm, load_checkpoint, save_checkpoint
from spikegraph.network import (TEACHER_TAP_LAYERS, FtmModule, GcTcUnit, Trainer,
                                batch_tensors, load_model, save_model, train_teacher)
from spikegraph.profiler import recording
from spikegraph.tensor import FormatError, InvalidInputError, NumericalError, Tape, Tensor

import oracles

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

    def test_each_modality_encoded_once(self, trained, monkeypatch):
        cfg, topo, _, batch = trained
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
        assert len(model.encoders) == 4


    @pytest.mark.parametrize("training", [True, False], ids=["train", "eval"])
    def test_student_forward_runs_no_batch_norm(self, trained, monkeypatch, training):
        # every student BatchNorm feeds spiking neurons, so in both modes it
        # runs inside neurons.bn_sn_layer, never as tensor.batch_norm
        cfg, topo, _, batch = trained
        model = cfg.build_student(CLASSES, topo, np.random.default_rng(0)).train(training)
        calls = []
        batch_norm = module.batch_norm
        for mod in (module, tensor):
            monkeypatch.setattr(mod, "batch_norm",
                                lambda *a, **k: calls.append(a) or batch_norm(*a, **k))
        fused = []
        for mod in (blocks, encoding, network):
            monkeypatch.setattr(mod, "bn_sn_layer",
                                lambda *a: fused.append(a) or neurons.bn_sn_layer(*a))
        with Tape() if training else contextlib.nullcontext():
            model(batch)
        assert calls == []
        assert len(fused) == 4 + 6 * len(model.sgc_layers)

    @pytest.mark.parametrize("kd, with_teacher", [({"soft"}, False), ({"feature"}, True)],
                             ids=["no_teacher", "no_ftm"])
    def test_distillation_needs_its_models(self, trained, kd, with_teacher):
        cfg, topo, model, _ = trained
        teacher = cfg.build_teacher(CLASSES, topo, np.random.default_rng(1)) \
            if with_teacher else None
        with pytest.raises(InvalidInputError):
            Trainer(model, None, np.arange(8) % CLASSES,
                    dataclasses.replace(cfg.train_settings(), kd=frozenset(kd)),
                    teacher=teacher)


class TestTapeHoldsNoTensor:
    """A record keeps gradient slots, and its backward closure the arrays
    it reads: no closure on a training step's tapes may hold a Tensor,
    whose data would then live until the sweep reached the record, and no
    LIF record's closure may hold its own spikes, which its backward
    recomputes from the membrane history."""

    # every op that records, but relu, which runs only in the teacher,
    # outside any tape
    KINDS = {"add", "sub", "mul", "div", "scale", "exp", "log", "sqrt", "matmul",
             "conv2d", "depthwise_conv2d", "batch_norm", "lstm", "sum_", "mean",
             "max_", "reshape", "permute", "slice_", "repeat0", "sn_layer",
             "bn_sn_layer", "channel_map", "graph_conv"}

    def test_train_smf_and_train_kd_steps(self, monkeypatch):
        kinds, holding, tapes = set(), [], []
        spikes, lif_kinds = {}, set()       # each LIF record's backward -> its output
        sweep, record = tensor.backward, neurons.record_op

        def spy(inputs, out, backward):
            spikes[backward] = out.data
            record(inputs, out, backward)

        def scan(loss, tape):
            tapes.append(len(tape))
            for rec in tape._records:
                kind = rec.backward.__qualname__.split(".<locals>")[0]
                kinds.add(kind)
                held = list(oracles.held(rec.backward))
                if any(isinstance(v, Tensor) for v in held):
                    holding.append(kind)
                if rec.backward in spikes:
                    lif_kinds.add(kind)
                    out = spikes[rec.backward]
                    if any(isinstance(v, np.ndarray) and np.shares_memory(v, out)
                           for v in held):
                        holding.append(f"{kind} spikes")
            sweep(loss, tape)

        monkeypatch.setattr(neurons, "record_op", spy)
        for mod in (network, fusion):
            monkeypatch.setattr(mod, "backward", scan)
        for kd in ("none", "soft,feature"):
            trainer, batch, labels = toy_trainer(kd)
            trainer.train_step(batch, labels)
        assert len(tapes) == 4 and all(tapes)       # each step: SMIC ascent, then the step
        assert kinds == self.KINDS
        assert lif_kinds == {"sn_layer", "bn_sn_layer"}
        assert holding == []


class TestWeightGradientJobs:
    """A training step whose weight-gradient GEMMs and teacher forward run
    on worker threads gives every parameter gradient, its losses and
    the student's and FTM's state after it as the same bytes as with each
    job run inline as it is submitted (``oracles.inline_jobs``)."""

    @staticmethod
    def step(kd, monkeypatch):
        """Each sweep's parameter gradients (the SMIC ascent's and the
        step's), the step's losses, and the student's parameters and
        BatchNorm buffers and the FTM's after it."""
        trainer, batch, labels = toy_trainer(kd)
        modules = {"": trainer.model}
        if trainer.ftm is not None:
            modules["ftm."] = trainer.ftm
        params = [p for prefix, m in modules.items() for p in m.named_parameters(prefix)]
        grads, sweep = [], tensor.backward

        def spy(loss, tape):
            sweep(loss, tape)
            grads.append({name: None if p.grad is None else p.grad.tobytes()
                          for name, p in params})

        for mod in (network, fusion):
            monkeypatch.setattr(mod, "backward", spy)
        metrics = trainer.train_step(batch, labels)
        losses = {k: np.float64(metrics[k]).tobytes()
                  for k in ("l_task", "l_sdk", "l_fkd", "loss")}
        state = {prefix + name: arr.tobytes() for prefix, m in modules.items()
                 for name, arr in m.state_dict().items()}
        return grads, losses, state

    @pytest.mark.parametrize("kd", ["none", "soft,feature"], ids=["train_smf", "train_kd"])
    def test_step_gradients_equal_inline(self, kd, monkeypatch):
        jobs = oracles.submitted_jobs(monkeypatch)
        got = self.step(kd, monkeypatch)
        oracles.inline_jobs(monkeypatch)
        want = self.step(kd, monkeypatch)
        assert len(jobs) > 0 and len(got[0]) == 2
        assert any(k.startswith("buffer:") for k in got[2])
        assert got == want


class TestTeacherJob:
    """The teacher's forward, a job on the step's worker thread while the
    student's forward runs, records onto neither the student's tape nor
    a report, is joined when the student's forward raises, raises its own
    error from the step, and runs on a worker of its own in a forked
    child."""

    def test_records_onto_no_tape_and_no_report(self, monkeypatch):
        def step():
            trainer, batch, labels = toy_trainer("soft,feature")
            records, sweep = [], tensor.backward

            def spy(loss, tape):
                records.append(len(tape))
                sweep(loss, tape)

            monkeypatch.setattr(network, "backward", spy)
            with recording(trainer.model.spike_steps) as report:
                trainer.train_step(batch, labels)
            return records, report.layers

        jobs = oracles.submitted_jobs(monkeypatch)
        got = step()
        oracles.inline_jobs(monkeypatch)
        want = step()
        logits, taps = jobs[0].result()
        assert set(logits) == set(taps) == set(MODALITY_ORDER)
        assert len(got[0]) == 1 and got[0][0] > 0 and len(got[1]) > 0
        assert got == want

    def test_student_error_joins_the_teacher_job(self, monkeypatch):
        trainer, batch, labels = toy_trainer("soft,feature")
        jobs = oracles.submitted_jobs(monkeypatch)
        forward = trainer.teacher.forward

        def slow(batch):
            time.sleep(0.2)
            return forward(batch)

        def failing(batch):
            raise InvalidInputError("student forward failed")

        monkeypatch.setattr(trainer.teacher, "forward", slow)
        monkeypatch.setattr(trainer.model, "forward", failing)
        with pytest.raises(InvalidInputError, match="student forward failed"):
            trainer.train_step(batch, labels)
        assert len(jobs) == 1 and jobs[0].done()

    def test_teacher_error_is_raised_as_it_is(self, monkeypatch):
        trainer, batch, labels = toy_trainer("soft,feature")

        def diverging(batch):
            raise NumericalError("teacher logits are non-finite")

        monkeypatch.setattr(trainer.teacher, "forward", diverging)
        with pytest.raises(NumericalError, match="teacher logits are non-finite"):
            trainer.train_step(batch, labels)
        assert trainer.global_step == 0

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork")
    def test_forked_child_runs_the_teacher_on_its_own_worker(self):
        # the child has none of the threads of the parent's step: its own
        # step must make workers of its own, or it would hang
        assert oracles.forked_child(KD_STEP) == ["child", "0"]


KD_STEP = """
import threading
import numpy as np
from spikegraph.config import RunConfig
from spikegraph.data import SkeletonTopology, preprocess_sequences, synthesize
from spikegraph.network import FtmModule, Trainer, batch_tensors

def run():
    topo = SkeletonTopology.ntu25()
    seqs, _ = synthesize(classes=4, samples_per_class=1, num_joints=25, frames=24, seed=1)
    bundle, labels = preprocess_sequences(seqs, 8, topo)
    cfg = RunConfig({"kd": "soft,feature", "preprocess": {"target_T": 8, "batch_size": 2}})
    model = cfg.build_student(4, topo, np.random.default_rng(0))
    teacher = cfg.build_teacher(4, topo, np.random.default_rng(1))
    ftm = FtmModule(teacher.plan, model.plan, model.spike_steps, model.lif,
                    np.random.default_rng(2))
    trainer = Trainer(model, bundle, labels, cfg.train_settings(),
                      loss_weights=cfg.loss_weights(), teacher=teacher, ftm=ftm)
    forward, ran_on = teacher.forward, []

    def spy(batch):
        ran_on.append(threading.current_thread())
        return forward(batch)

    teacher.forward = spy
    idx = np.arange(2)
    metrics = trainer.train_step(batch_tensors(bundle, idx), labels[idx])
    if ran_on[0] is threading.current_thread():
        raise AssertionError("the teacher did not run on the step's worker")
    return np.float64(metrics["loss"]).tobytes()
"""


class TestSpikesAreOneByte:
    """Spikes are uint8 from the encoders to the distillation taps, so the
    ops that consume them keep one byte per element on the tape."""

    def test_kd_step(self, monkeypatch):
        trainer, batch, labels = toy_trainer("soft,feature")
        model = trainer.model
        outputs = {"encoder": [], "block": [], "tap": [], "ftm": []}

        def spy(kind, fn, tensors=lambda out: [out]):
            def call(*args):
                out = fn(*args)
                outputs[kind].extend(tensors(out))
                return out
            return call

        monkeypatch.setattr(model, "encode", spy("encoder", model.encode, list))
        monkeypatch.setattr(model, "forward",
                            spy("tap", model.forward, lambda out: out[1].values()))
        monkeypatch.setattr(network, "sa_sgc_stc_block",
                            spy("block", network.sa_sgc_stc_block))
        monkeypatch.setattr(network.FtmBranch, "forward",
                            spy("ftm", network.FtmBranch.forward))
        float_spikes, tapes, sweep = [], [], tensor.backward

        # a float feature map ([..., C, V, T]) of 0s and 1s; per-channel
        # vectors (BatchNorm's gamma starts at 1), one-hot labels, masks and
        # the LSTM's zero initial state are exempt
        def scan(loss, tape):
            for rec in tape._records:
                for a in oracles.held(rec.backward):
                    if (isinstance(a, np.ndarray) and a.dtype.kind == "f" and a.ndim >= 3
                            and np.isin(a, (0.0, 1.0)).all() and (a == 1).any()):
                        float_spikes.append((rec.backward.__qualname__, a.shape))
            tapes.append(len(tape))
            sweep(loss, tape)

        for mod in (network, fusion):
            monkeypatch.setattr(mod, "backward", scan)
        trainer.train_step(batch, labels)
        assert [len(v) for v in outputs.values()] == [4, 6, 2, 2]
        assert all(t.dtype == np.uint8 for v in outputs.values() for t in v)
        assert len(tapes) == 2 and all(tapes)         # SMIC ascent, then the step
        assert float_spikes == []


class TestKernelViews:
    """The BatchNorm and LIF kernels compute in one layout: steps outermost,
    channels innermost (``tensor._kernel_view``).  Every BatchNorm and
    ``bn_sn_layer`` input of a training step, with and without
    distillation, and of an eval forward is laid out so, the FTM's
    ``repeat0`` output included: each is read as a view, never copied."""

    def test_channel_inputs_are_views(self):
        views = {}
        for kd in ("none", "soft,feature"):
            trainer, batch, labels = toy_trainer(kd)
            with oracles.kernel_views() as views[kd]:
                trainer.train_step(batch, labels)
        with oracles.kernel_views() as views["eval"]:
            trainer.model.eval()(batch)
        channel = {name: [v for v in calls if v.channels and not v.backward]
                   for name, calls in views.items()}
        # the student's 40 bn_sn_layer sites; with KD the teacher's and
        # the FTM's BatchNorms too
        assert len(channel["none"]) == len(channel["eval"]) == 40
        assert len(channel["soft,feature"]) > 40
        assert [name for name, calls in channel.items() if any(v.copied for v in calls)] == []


class TestHeadMapsTheStepMean:
    """The FC maps the final spikes' mean over steps, joints and frames
    once, as [B, D]: at the toy plan in eval mode its logits are within
    1e-6 (relative to the largest) of running the FC on each step's
    joint-and-frame mean, then taking the step mean, with the same argmax."""

    def test_against_per_step_head(self, monkeypatch):
        model = toy_trainer("none")[0].model.eval()
        bundle, _ = small_set(model.topo)
        batch = batch_tensors(bundle, np.arange(CLASSES))
        finals, operands = [], []
        sn_layer, matmul = network.sn_layer, module.matmul

        def keep_final(x, lif):
            finals.append(sn_layer(x, lif).data)
            return Tensor(finals[-1])

        def keep_operand(a, b):
            operands.append(a.shape)
            return matmul(a, b)

        monkeypatch.setattr(network, "sn_layer", keep_final)
        monkeypatch.setattr(module, "matmul", keep_operand)
        logits = model(batch)[0].data
        (final,) = finals
        assert final.any() and operands == [(CLASSES, model.plan.widths[-1])]
        pooled = final.mean(axis=(3, 4), dtype=np.float32)           # [S, B, D]
        w, b = model.head.weight.data, model.head.bias.data
        want = np.mean([p @ w.T + b for p in pooled], axis=0, dtype=np.float32)
        assert np.abs(logits - want).max() <= 1e-6 * np.abs(want).max()
        assert (logits.argmax(axis=1) == want.argmax(axis=1)).all()


def small_set(topo):
    seqs, _ = synthesize(classes=CLASSES, samples_per_class=1, num_joints=25,
                         frames=24, seed=1)
    return preprocess_sequences(seqs, 8, topo)


def toy_trainer(kd):
    """A toy ``Trainer`` (B=2, T=8), its batch and its labels: the student
    from seed 0 and, with distillation, the teacher from 1 and the FTM
    from 2."""
    topo = SkeletonTopology.ntu25()
    bundle, labels = small_set(topo)
    idx = np.arange(2)
    cfg = RunConfig({"kd": kd, "preprocess": {"target_T": 8, "batch_size": 2}})
    model = cfg.build_student(CLASSES, topo, np.random.default_rng(0))
    teacher = ftm = None
    if kd != "none":
        teacher = cfg.build_teacher(CLASSES, topo, np.random.default_rng(1))
        ftm = FtmModule(teacher.plan, model.plan, model.spike_steps, model.lif,
                        np.random.default_rng(2))
    trainer = Trainer(model, bundle, labels, cfg.train_settings(),
                      loss_weights=cfg.loss_weights(), teacher=teacher, ftm=ftm)
    return trainer, batch_tensors(bundle, idx), labels[idx]


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

    def test_loaded_ascent_count_seeds_the_next_shuffle(self, trained, monkeypatch):
        # a resumed student continues its shuffle sequence where it stopped
        cfg, topo, _, batch = trained
        model = cfg.build_student(CLASSES, topo, np.random.default_rng(3))
        state = model.state_dict()
        state["buffer:smf.mi_ema_count"] = np.array([7], dtype=np.float32)
        model.load_state_dict(state)
        seeds, smic_inputs = [], fusion.smic_inputs
        monkeypatch.setattr(fusion, "smic_inputs",
                            lambda spikes, seed: seeds.append(seed) or smic_inputs(spikes, seed))
        model.train()
        model(batch)
        assert seeds == [7]


class TestGraphWeights:
    def test_one_stacked_weight_per_layer(self, trained):
        _, _, model, _ = trained
        unit = GcTcUnit(3, 5, 3, np.random.default_rng(0), 5)
        for layer, (cin, cout) in [(model.sgc_layers[0], model.plan.pairs()[0]),
                                   (unit, (3, 5))]:
            names = [n for n, _ in layer.named_parameters() if n.startswith("w_")]
            assert "w_graph" in names and not any("branch" in n for n in names)
            assert layer.w_graph.shape == (3, cin, cout)


class TestTeacherLayout:
    def test_taps_have_the_student_layout(self, trained):
        cfg, topo, _, batch = trained
        teacher = cfg.build_teacher(CLASSES, topo, np.random.default_rng(0))
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


def unfused_bn_sn_layer(x, bn, cfg):
    return neurons.sn_layer(bn(x), cfg)


def spikes_of(run, monkeypatch, unfolded=False):
    """(result of ``run()``, every spiking output in call order), through
    the models' own ops or, with ``unfolded``, through BatchNorm's own
    forward: ``bn_sn_layer`` as ``sn_layer(bn(x))``."""
    spikes = []

    def recording(op):
        def run_op(*args):
            out = op(*args)
            spikes.append(out.data)
            return out
        return run_op

    ops = {"sn_layer": recording(neurons.sn_layer),
           "bn_sn_layer": recording(unfused_bn_sn_layer if unfolded
                                    else neurons.bn_sn_layer)}
    with monkeypatch.context() as patch:
        for mod in (blocks, encoding, network):
            for name, op in ops.items():
                if hasattr(mod, name):
                    patch.setattr(mod, name, op)
        result = run()
    return result, spikes


class TestEvalFold:
    def test_student_fold_against_unfolded(self, trained, monkeypatch):
        """The student folds nothing in eval: each spiking site runs
        ``bn_sn_layer`` with the running statistics, so with random ones
        (layers firing 12-73%) every site's spikes and the logits are
        bit-identical to ``sn_layer(BatchNorm.forward(x))``."""
        cfg, topo, _, batch = trained
        model = cfg.build_student(CLASSES, topo, np.random.default_rng(0))
        randomize_bn(model, seed=0)
        model.eval()
        fused, spikes = spikes_of(lambda: model(batch)[0].data, monkeypatch)
        ref, ref_spikes = spikes_of(lambda: model(batch)[0].data, monkeypatch,
                                    unfolded=True)
        # the encoders, 8 sites per block (6 fused, attention, STC residual), the last
        assert len(spikes) == len(ref_spikes) == 4 + 8 * len(model.sgc_layers) + 1
        for got, want in zip(spikes, ref_spikes):
            assert want.any()
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
        assert fused.tobytes() == ref.tobytes()

    def test_identity_statistics_are_bit_identical(self, trained, monkeypatch):
        cfg, topo, _, batch = trained
        model = cfg.build_student(CLASSES, topo, np.random.default_rng(0)).eval()
        out, spikes = spikes_of(lambda: model(batch)[0].data, monkeypatch)
        ref, ref_spikes = spikes_of(lambda: model(batch)[0].data, monkeypatch,
                                    unfolded=True)
        assert len(spikes) == len(ref_spikes)
        for got, want in zip(spikes, ref_spikes):
            np.testing.assert_array_equal(got, want)
        np.testing.assert_array_equal(out, ref)

    def test_teacher_and_ftm_eval_is_pure(self, trained):
        """With random statistics, an eval forward of the teacher and the
        FTM leaves every BatchNorm buffer as it was, and a second forward
        gives byte-equal logits and translated spikes."""
        cfg, topo, _, batch = trained
        teacher = cfg.build_teacher(CLASSES, topo, np.random.default_rng(1))
        student = cfg.build_student(CLASSES, topo, np.random.default_rng(0))
        ftm = FtmModule(teacher.plan, student.plan, student.spike_steps, student.lif,
                        np.random.default_rng(2))
        for seed, module in enumerate((teacher, ftm)):
            randomize_bn(module, seed)
            module.eval()
        buffers = [{k: v for k, v in m.state_dict().items() if k.startswith("buffer:")}
                   for m in (teacher, ftm)]

        def run():
            logits, taps = teacher(batch)
            return ({k: v.data for k, v in logits.items()},
                    [t.data for t in ftm.translate(taps)])

        (logits, translated), (again, again_translated) = run(), run()
        for m, before in zip((teacher, ftm), buffers):
            after = m.state_dict()
            assert len(before) > 0
            for key, value in before.items():
                assert after[key].tobytes() == value.tobytes(), key
        assert logits.keys() == again.keys()
        for name, value in logits.items():
            assert value.tobytes() == again[name].tobytes()
        for got, want in zip(translated, again_translated):
            assert want.any() and got.tobytes() == want.tobytes()

    def test_no_stale_eval_state(self, trained):
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


TRAIN_FAULT_PROBE = """
import resource
import threading
import numpy as np
import spikegraph
from spikegraph import blocks, tensor
from spikegraph.config import RunConfig
from spikegraph.data import SkeletonTopology, preprocess_sequences, synthesize
from spikegraph.network import Trainer, batch_tensors
topo = SkeletonTopology.ntu25()
seqs, _ = synthesize(classes=4, samples_per_class=2, num_joints=25, frames=24, seed=0)
bundle, labels = preprocess_sequences(seqs, 16, topo)
cfg = RunConfig({"preprocess": {"target_T": 16, "batch_size": 8}})
model = cfg.build_student(4, topo, np.random.default_rng(0))
trainer = Trainer(model, bundle, labels, cfg.train_settings(),
                  loss_weights=cfg.loss_weights())
batch = batch_tensors(bundle, np.arange(8))
ran_on, submit = set(), tensor._later

def later(fn, *args):
    def job():
        ran_on.add(threading.get_ident())
        return fn(*args)
    return submit(job)

for module in (tensor, blocks):
    module._later = later
for _ in range(2):
    trainer.train_step(batch, labels[:8])
faults = []
for _ in range(9):
    r0 = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    trainer.train_step(batch, labels[:8])
    faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - r0)
print(len(ran_on) > 0 and threading.get_ident() not in ran_on, sorted(faults)[4])
"""


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="glibc heap thresholds")
def test_train_step_does_not_fault_its_heap_back_in():
    """Minor faults in the median of 9 toy-plan training steps (B=8, T=16)
    after 2 warm-up steps, their weight-gradient GEMMs on each sweep's
    worker thread, off the caller's.  It read 5-12; a heap trimmed back to the kernel faults the
    freed tape in again at every step (once 58k faults per step).  The
    median, because the heap's top still rises by up to 1 MB (20-230
    faults) at up to 3 of the first steps, which ones depending on how the
    worker's jobs interleave with the sweep."""
    src = os.path.dirname(os.path.dirname(spikegraph.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run([sys.executable, "-c", TRAIN_FAULT_PROBE], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    off_thread, faults = proc.stdout.split()
    assert off_thread == "True"
    assert int(faults) <= 50
