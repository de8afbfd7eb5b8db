"""Energy report: one eval forward records each layer once, FLOPs follow the
channel plan, and the energy total follows the MAC/AC split."""

import json
import os
import types
from concurrent.futures import ThreadPoolExecutor

import jsonschema
import numpy as np
import pytest

from spikegraph import profiler
from spikegraph.config import RunConfig
from spikegraph.data import SkeletonTopology, preprocess_sequences, synthesize
from spikegraph.module import Parameter
from spikegraph.network import batch_tensors
from spikegraph.tensor import Tape, Tensor, add

FRAMES = 8
CLASSES = 4
SCHEMA = os.path.join(os.path.dirname(profiler.__file__), "schemas",
                      "energy_report.schema.json")


def _model_and_batch(values=None):
    cfg = RunConfig(values)
    topo = SkeletonTopology.ntu25()
    seqs, _ = synthesize(classes=CLASSES, samples_per_class=1, num_joints=25,
                         frames=24, seed=0)
    bundle, _ = preprocess_sequences(seqs, FRAMES, topo)
    model = cfg.build_student(CLASSES, topo, np.random.default_rng(0))
    return cfg, model, batch_tensors(bundle, np.arange(2))


def _closed_forms(cfg, model):
    """(id, kind, FLOPs per sample) of every layer in report order."""
    plan = model.plan
    v, t, c0 = 25, FRAMES, plan.in_channels
    kt = cfg.get("blocks.temporal_kernel")
    hidden = cfg.get("smf.smic_hidden")
    layers = [(f"encoder{i}", "conv", c0 * 3 * 3 * 3 * v * t) for i in range(4)]
    lstm = 4 * hidden * (2 * c0 + hidden) * t + hidden * t
    layers += [(f"smic{i}", "lstm", lstm) for i in range(6)]
    cin = c0
    for i, (cout, stride) in enumerate(zip(plan.widths, plan.strides)):
        layers.append((f"sgc{i}", "conv", 3 * v * v * cin * t + 4 * cin * cout * v * t))
        layers.append((f"ssa_proj{i}", "conv", 3 * cout * cout * v * t))
        layers.append((f"ssa_attn{i}", "matmul-attention", 2 * v * v * cout * t))
        t //= stride
        layers.append((f"stc{i}", "conv", cout * cout * kt * v * t))
        cin = cout
    layers.append(("head0", "linear", plan.widths[-1] * CLASSES))
    return layers


@pytest.fixture(scope="module")
def profiled():
    cfg, model, batch = _model_and_batch()
    return cfg, model, profiler.profile_model(model, batch)


class TestProfileModel:
    def test_report_validates_against_schema(self, profiled):
        _, _, report = profiled
        with open(SCHEMA) as fh:
            schema = json.load(fh)
        jsonschema.validate(json.loads(report.to_json()), schema)

    def test_each_encoder_listed_once(self, profiled):
        _, _, report = profiled
        ids = [c.id for c in report.layers]
        assert [i for i in ids if i.startswith("encoder")] == [
            "encoder0", "encoder1", "encoder2", "encoder3"]

    def test_layer_flops_match_closed_forms(self, profiled):
        cfg, model, report = profiled
        got = [(c.id, c.kind, c.flops) for c in report.layers]
        assert got == _closed_forms(cfg, model)

    def test_only_encoders_are_mac_costed(self, profiled):
        _, _, report = profiled
        fire = [c for c in report.layers if c.is_fire]
        assert [c.id for c in fire] == [f"encoder{i}" for i in range(4)]
        assert all(c.rate == 1.0 for c in fire)

    def test_energy_splits_macs_and_accumulates(self, profiled):
        _, _, report = profiled
        enc = [c for c in report.layers if c.id.startswith("encoder")]
        rest = [c for c in report.layers if not c.id.startswith("encoder")]
        want = (4 * 4.6 * enc[0].flops + 0.9 * sum(c.sops for c in rest)) * 1e-9
        assert report.n_m == 4
        assert report.energy_mj == want
        totals = report.to_json_dict()["totals"]
        assert totals["flops"] == sum(c.flops for c in report.layers)
        assert totals["sops"] == sum(c.sops for c in report.layers)
        assert report.ann_equivalent_mj == totals["flops"] * 4.6 * 1e-9

    def test_sops_scale_flops_by_rate_and_steps(self, profiled):
        _, model, report = profiled
        for c in report.layers:
            assert c.sops == round(c.flops * c.rate * model.spike_steps), c.id

    def test_restores_training_mode(self):
        _, model, batch = _model_and_batch()
        model.train()
        profiler.profile_model(model, batch)
        assert model.training


class TestRecording:
    def test_innermost_recorder_receives_the_costs(self):
        cfg, model, batch = _model_and_batch()
        model.eval()
        with profiler.recording(model.spike_steps) as outer:
            with profiler.recording(model.spike_steps) as inner:
                model(batch)
        assert outer.layers == []
        assert [c.id for c in inner.layers] == [
            i for i, _, _ in _closed_forms(cfg, model)]

    def test_another_thread_reaches_neither_the_callers_tape_nor_report(self):
        p = Parameter(np.ones(3, dtype=np.float32))
        head = types.SimpleNamespace(in_features=2, out_features=3)

        def work():
            add(p, p)
            profiler.record_cost("head", head, Tensor(np.ones(4)))

        with Tape() as tape, profiler.recording(4) as report:
            with ThreadPoolExecutor(max_workers=1) as pool:
                pool.submit(work).result(timeout=60)
            assert len(tape) == 0 and report.layers == []
            work()
            assert len(tape) == 1 and [c.id for c in report.layers] == ["head0"]


def test_fused_input_rate_is_the_first_block_input_rate():
    # the weighted sum of four spike maps reads as the fraction of nonzero
    # elements, the rate that gates sgc0's accumulates, not its mean drive;
    # a low threshold makes encoders fire on the same elements
    _, model, batch = _model_and_batch({"neuron": {"v_threshold": 0.2}})
    model.eval()
    drive = sum(s.data.astype(np.int32) for s in model.encode(batch))
    assert drive.max() > 1
    _, _, info = model(batch)
    rates = {c.id: c.rate for c in profiler.profile_model(model, batch).layers}
    assert info["rates"]["fused_input"] == rates["sgc0"]


def test_active_fraction_is_the_firing_rate_on_spikes():
    # the one rate helper: on binary spikes it reads the exact share of
    # ones, which the binary-checked oracle gives up to float32 rounding
    from oracles import firing_rate
    spikes = (np.random.default_rng(0).random((4, 2, 8, 5, 6)) < 0.3).astype(np.float32)
    rate = profiler.active_fraction(spikes)
    assert rate == np.count_nonzero(spikes) / spikes.size
    assert rate == pytest.approx(firing_rate(spikes), rel=1e-6)
