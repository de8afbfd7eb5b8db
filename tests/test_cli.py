"""The command-line chain synth -> train -> eval -> profile, and exit codes."""

import json
import os
import shutil
import struct

import jsonschema
import numpy as np
import pytest
import yaml

from spikegraph import cli, profiler
from spikegraph.config import ConfigError, RunConfig
from spikegraph.data import SkeletonTopology
from spikegraph.module import save_checkpoint
from spikegraph.network import save_model

SCHEMA = os.path.join(os.path.dirname(profiler.__file__), "schemas",
                      "energy_report.schema.json")


def _write_config(path, values):
    with open(path, "w") as fh:
        yaml.safe_dump(values, fh)
    return str(path)


def test_synth_train_eval_profile_chain(tmp_path, capsys):
    data_dir = str(tmp_path / "data")
    run_dir = str(tmp_path / "run")
    config = _write_config(tmp_path / "run.yaml", {
        "dataset": {"frames": 24},
        "preprocess": {"target_T": 8, "batch_size": 8},
        "teacher": {"epochs": 1},
    })
    common = ["--config", config, "--out", run_dir]
    assert cli.main(["--config", config, "--out", data_dir, "synth",
                     "--classes", "4", "--samples-per-class", "5"]) == cli.EXIT_OK
    assert cli.main(common + ["train", "--data", data_dir, "--kd", "soft,feature",
                              "--epochs", "1"]) == cli.EXIT_OK
    ckpt = os.path.join(run_dir, "student.ckpt")
    assert os.path.exists(ckpt) and os.path.exists(os.path.join(run_dir, "teacher.ckpt"))
    assert cli.main(common + ["eval", ckpt, "--data", data_dir]) == cli.EXIT_OK
    with open(os.path.join(run_dir, "eval.json")) as fh:
        assert 0.0 <= json.load(fh)["accuracy"] <= 1.0
    capsys.readouterr()
    assert cli.main(common + ["profile", "--checkpoint", ckpt,
                              "--data", data_dir]) == cli.EXIT_OK
    with open(os.path.join(run_dir, "energy_report.json")) as fh:
        report = json.load(fh)
    with open(SCHEMA) as fh:
        jsonschema.validate(report, json.load(fh))
    assert sum(e["id"].startswith("encoder") for e in report["layers"]) == 4
    totals = report["totals"]
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == (f"model energy: {totals['energy_mJ']:.6f} mJ "
                        f"(flops={totals['flops']}, sops={totals['sops']})")
    assert lines[1] == f"ann-equivalent energy: {totals['flops'] * 4.6e-9:.6f} mJ"


def test_train_with_teacher_is_deterministic(tmp_path):
    """Two runs at one seed write the same teacher, student and metrics,
    byte for byte: 2 teacher and 2 student epochs of 2 batches each."""
    config = _write_config(tmp_path / "run.yaml", {
        "dataset": {"frames": 16},
        "preprocess": {"target_T": 8, "batch_size": 2},
        "teacher": {"epochs": 2},
        "optimizer": {"epochs": 2, "lr_step_epoch": 1},
    })
    data_dir = str(tmp_path / "data")
    assert cli.main(["--config", config, "--out", data_dir, "synth", "--classes", "2",
                     "--samples-per-class", "2"]) == cli.EXIT_OK
    outputs = []
    for run in ("a", "b"):
        run_dir = tmp_path / run
        assert cli.main(["--config", config, "--seed", "3", "--out", str(run_dir),
                         "train", "--data", data_dir, "--kd", "soft,feature"]) == cli.EXIT_OK
        outputs.append({name: (run_dir / name).read_bytes()
                        for name in ("teacher.ckpt", "student.ckpt", "metrics.jsonl")})
    assert outputs[0] == outputs[1]
    assert len(outputs[0]["metrics.jsonl"].splitlines()) == 4


@pytest.fixture(scope="module")
def tiny_data(tmp_path_factory):
    """A 2-class synthetic dataset for the default configuration."""
    data_dir = str(tmp_path_factory.mktemp("data"))
    assert cli.main(["--out", data_dir, "synth", "--classes", "2",
                     "--samples-per-class", "2"]) == cli.EXIT_OK
    return data_dir


def _eval(tmp_path, tiny_data, ckpt, capsys):
    capsys.readouterr()
    code = cli.main(["--out", str(tmp_path / "run"), "eval", str(ckpt),
                     "--data", tiny_data, "--split", "train"])
    return code, capsys.readouterr().err


def _save_student(path, values=None):
    model = RunConfig(values).build_student(2, SkeletonTopology.ntu25(),
                                            np.random.default_rng(0))
    save_model(path, model, model.plan_hash())
    return path


def test_missing_checkpoint_is_a_clean_error(tmp_path, tiny_data, capsys):
    code, err = _eval(tmp_path, tiny_data, tmp_path / "absent.ckpt", capsys)
    assert code == cli.EXIT_CONFIG
    assert "checkpoint not found" in err and "Traceback" not in err


@pytest.mark.parametrize("cut", [slice(0, 10), slice(0, -5)], ids=["head", "tail"])
def test_truncated_checkpoint_is_a_data_error(tmp_path, tiny_data, capsys, cut):
    ckpt = _save_student(tmp_path / "student.ckpt")
    ckpt.write_bytes(ckpt.read_bytes()[cut])
    code, err = _eval(tmp_path, tiny_data, ckpt, capsys)
    assert code == cli.EXIT_DATA
    assert "truncated checkpoint" in err and "Traceback" not in err


def _flip_plan_hash(raw):
    raw[12] = 0xFF                  # magic, version, hash length, then the hash


def _flip_name(raw):
    raw[raw.index(b"head.bias")] = 0xFF


def _grow_first_blob(raw):
    """Declare one more row than the first blob's payload holds."""
    shape_at = raw.index(b"SGT1") + 8
    (rows,) = struct.unpack_from("<I", raw, shape_at)
    struct.pack_into("<I", raw, shape_at, rows + 1)


@pytest.mark.parametrize("corrupt", [_flip_plan_hash, _flip_name, _grow_first_blob],
                         ids=["plan_hash", "name", "blob_shape"])
def test_corrupt_checkpoint_is_a_data_error(tmp_path, tiny_data, capsys, corrupt):
    ckpt = _save_student(tmp_path / "student.ckpt")
    raw = bytearray(ckpt.read_bytes())
    corrupt(raw)
    ckpt.write_bytes(bytes(raw))
    code, err = _eval(tmp_path, tiny_data, ckpt, capsys)
    assert code == cli.EXIT_DATA
    assert "corrupt checkpoint" in err and "Traceback" not in err


def _not_json(data_dir):
    (data_dir / "manifest.json").write_text("{not json")


def _no_samples(data_dir):
    manifest = json.loads((data_dir / "manifest.json").read_text())
    del manifest["samples"]
    (data_dir / "manifest.json").write_text(json.dumps(manifest))


def _missing_sample(data_dir):
    sample = sorted((data_dir / "samples").iterdir())[0]
    sample.unlink()


def _truncated_sample(data_dir):
    sample = sorted((data_dir / "samples").iterdir())[0]
    sample.write_bytes(sample.read_bytes()[:-4])


@pytest.mark.parametrize("corrupt", [_not_json, _no_samples, _missing_sample,
                                     _truncated_sample],
                         ids=["not_json", "no_samples", "missing_sample",
                              "truncated_sample"])
def test_corrupt_dataset_is_a_data_error(tmp_path, tiny_data, capsys, corrupt):
    data_dir = tmp_path / "data"
    shutil.copytree(tiny_data, data_dir)
    corrupt(data_dir)
    ckpt = _save_student(tmp_path / "student.ckpt")
    code, err = _eval(tmp_path, str(data_dir), ckpt, capsys)
    assert code == cli.EXIT_DATA
    assert "corrupt dataset" in err and "Traceback" not in err


def test_missing_skeleton_dir_is_a_clean_error(tmp_path, capsys):
    config = _write_config(tmp_path / "ntu.yaml", {"dataset": {"kind": "ntu_dir"}})
    ckpt = _save_student(tmp_path / "student.ckpt")
    code = cli.main(["--config", config, "--out", str(tmp_path / "run"), "eval",
                     str(ckpt), "--data", str(tmp_path / "absent")])
    err = capsys.readouterr().err
    assert code == cli.EXIT_CONFIG
    assert "no such dataset directory" in err and "Traceback" not in err


def test_threshold_mismatch_is_rejected(tmp_path, tiny_data, capsys):
    same = _save_student(tmp_path / "same.ckpt")
    assert _eval(tmp_path, tiny_data, same, capsys)[0] == cli.EXIT_OK
    other = _save_student(tmp_path / "other.ckpt", {"neuron": {"v_threshold": 0.5}})
    code, err = _eval(tmp_path, tiny_data, other, capsys)
    assert code == cli.EXIT_CONFIG
    assert "plan hash" in err and "Traceback" not in err


def test_removed_branches_key_is_rejected(tmp_path, capsys):
    with pytest.raises(ConfigError):
        RunConfig({"blocks": {"branches": 2}})
    config = _write_config(tmp_path / "old.yaml", {"blocks": {"branches": 3}})
    assert cli.main(["--config", config, "--out", str(tmp_path / "data"),
                     "synth"]) == cli.EXIT_CONFIG
    assert "blocks.branches" in capsys.readouterr().err


def test_removed_dropout_key_is_rejected(tmp_path, capsys):
    config = _write_config(tmp_path / "old.yaml", {"optimizer": {"dropout": 0.0}})
    assert cli.main(["--config", config, "--out", str(tmp_path / "data"),
                     "synth"]) == cli.EXIT_CONFIG
    assert "optimizer.dropout" in capsys.readouterr().err


def test_per_pair_estimator_checkpoint_is_rejected(tmp_path, tiny_data, capsys):
    """A student saved with one SMIC estimator per modality pair, as before
    the estimators were stacked, fails the strict load."""
    model = RunConfig().build_student(2, SkeletonTopology.ntu25(), np.random.default_rng(0))
    state = model.state_dict()
    for name in ("w_ih", "w_hh", "b_ih", "b_hh", "fc_w", "fc_b"):
        stacked = state.pop(f"smf.estimator.{name}")
        state.update({f"smf.estimators.{k}.{name}": w for k, w in enumerate(stacked)})
    ckpt = tmp_path / "old.ckpt"
    save_checkpoint(ckpt, model.plan_hash(), state)
    code, err = _eval(tmp_path, tiny_data, ckpt, capsys)
    assert code == cli.EXIT_CONFIG
    assert "smf.estimator" in err and "Traceback" not in err


@pytest.mark.parametrize("values, kd, message", [
    ({"optimizer": {"epochs": 0}}, "none", "epochs must be >= 1, got 0"),
    ({"teacher": {"epochs": 0}}, "soft", "epochs must be >= 1, got 0"),
    ({"preprocess": {"batch_size": 0}}, "none", "batch_size must be >= 1, got 0"),
    ({"blocks": {"temporal_kernel": 4}}, "none",
     "temporal_kernel must be odd and >= 1, got 4"),
], ids=["optimizer_epochs", "teacher_epochs", "batch_size", "even_temporal_kernel"])
def test_unusable_run_setting_is_a_config_error(tmp_path, tiny_data, capsys, values, kd,
                                                message):
    config = _write_config(tmp_path / "run.yaml", values)
    capsys.readouterr()
    code = cli.main(["--config", config, "--out", str(tmp_path / "run"), "train",
                     "--data", tiny_data, "--kd", kd])
    err = capsys.readouterr().err
    assert code == cli.EXIT_CONFIG
    assert message in err and "Traceback" not in err
