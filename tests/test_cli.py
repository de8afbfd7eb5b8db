"""The command-line chain synth -> train -> eval -> profile, and exit codes."""

import json
import os
import shutil
import struct

import jsonschema
import numpy as np
import pytest
import yaml

from spikegraph import cli, data, network, profiler
from spikegraph.config import RunConfig
from spikegraph.data import SkeletonTopology
from spikegraph.module import save_checkpoint
from spikegraph.network import MkSgnModel, save_model
from spikegraph.tensor import InvalidInputError, Tensor, save_tensor
from test_data import make_skeleton_text

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


@pytest.mark.parametrize("command", [
    ["eval", "{dir}", "--data", "{data}", "--split", "train"],
    ["train", "--kd", "soft", "--teacher-ckpt", "{dir}", "--data", "{data}"],
    ["train", "--kd", "none", "--resume", "{dir}", "--data", "{data}"],
], ids=["eval", "teacher_ckpt", "resume"])
def test_unreadable_checkpoint_is_a_config_error(tmp_path, tiny_data, capsys, command):
    """A checkpoint path that cannot be read (here a directory): exit 2,
    naming the path."""
    ckpt_dir = tmp_path / "ckpt"
    ckpt_dir.mkdir()
    capsys.readouterr()
    code = cli.main(["--out", str(tmp_path / "run"),
                     *(arg.format(dir=ckpt_dir, data=tiny_data) for arg in command)])
    err = capsys.readouterr().err
    assert code == cli.EXIT_CONFIG
    assert f"config error: cannot read checkpoint {ckpt_dir}" in err
    assert "Traceback" not in err


def _config_dir(tmp_path):
    (tmp_path / "run.yaml").mkdir()


def _config_bad_byte(tmp_path):
    (tmp_path / "run.yaml").write_bytes(b"seed: 3\n# \xff\n")


@pytest.mark.parametrize("make", [_config_dir, _config_bad_byte],
                         ids=["directory", "bad_byte"])
def test_unreadable_config_is_a_config_error(tmp_path, capsys, make):
    make(tmp_path)
    config = tmp_path / "run.yaml"
    code = cli.main(["--config", str(config), "--out", str(tmp_path / "data"), "synth"])
    err = capsys.readouterr().err
    assert code == cli.EXIT_CONFIG
    assert err.startswith("config error: cannot ") and str(config) in err
    assert "Traceback" not in err


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


def _no_classes(data_dir):
    manifest = json.loads((data_dir / "manifest.json").read_text())
    del manifest["classes"]
    (data_dir / "manifest.json").write_text(json.dumps(manifest))


def _zero_frame_sample(data_dir):
    sample = sorted((data_dir / "samples").iterdir())[0]
    save_tensor(str(sample), np.zeros((3, 0, 25), dtype=np.float32))


@pytest.mark.parametrize("corrupt", [_not_json, _no_samples, _missing_sample,
                                     _truncated_sample, _no_classes, _zero_frame_sample],
                         ids=["not_json", "no_samples", "missing_sample",
                              "truncated_sample", "no_classes", "zero_frame_sample"])
def test_corrupt_dataset_is_a_data_error(tmp_path, tiny_data, capsys, corrupt):
    data_dir = tmp_path / "data"
    shutil.copytree(tiny_data, data_dir)
    corrupt(data_dir)
    ckpt = _save_student(tmp_path / "student.ckpt")
    code, err = _eval(tmp_path, str(data_dir), ckpt, capsys)
    assert code == cli.EXIT_DATA
    assert f"corrupt dataset {data_dir / 'manifest.json'}" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("dataset, message", [
    ({"noise": -1.0}, "noise must be >= 0, got -1.0"),
    ({"frames": 0}, "need at least 1 frame, got 0"),
], ids=["negative_noise", "no_frames"])
def test_unusable_synth_setting_is_a_config_error(tmp_path, capsys, dataset, message):
    config = _write_config(tmp_path / "run.yaml", {"dataset": dataset})
    capsys.readouterr()
    code = cli.main(["--config", config, "--out", str(tmp_path / "data"), "synth"])
    err = capsys.readouterr().err
    assert code == cli.EXIT_CONFIG
    assert message in err and "Traceback" not in err
    assert not (tmp_path / "data" / "manifest.json").exists()


def test_teacher_checkpoint_without_distillation_is_a_config_error(tmp_path, tiny_data,
                                                                   capsys):
    capsys.readouterr()
    code = cli.main(["--out", str(tmp_path / "run"), "train", "--data", tiny_data,
                     "--teacher-ckpt", str(tmp_path / "teacher.ckpt")])
    err = capsys.readouterr().err
    assert code == cli.EXIT_CONFIG
    assert "--teacher-ckpt" in err and "Traceback" not in err
    assert not (tmp_path / "run").exists()


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
    with pytest.raises(InvalidInputError):
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
    ({"loss": {"alpha": [1, 1]}}, "soft", "loss.alpha must hold 4 weights, got 2"),
    ({"loss": {"beta": [1]}}, "feature", "loss.beta must hold 2 weights, got 1"),
    ({"loss": {"gamma": [1, 1]}}, "none", "loss.gamma must hold 3 weights, got 2"),
    ({"preprocess": {"target_T": 6}}, "soft", "preprocess.target_T must be a multiple "
     "of 4 for the student's stride-2 layers, got 6"),
    ({"preprocess": {"batch_size": "8"}}, "none",
     "preprocess.batch_size must be an integer, got '8'"),
    ({"dataset": {"classes": "x"}}, "none", "dataset.classes must be an integer, got 'x'"),
    ({"optimizer": {"epochs": 2.5}}, "none", "optimizer.epochs must be an integer, got 2.5"),
    ({"optimizer": {"lr": True}}, "none", "optimizer.lr must be a number, got True"),
    ({"optimizer": {"lr": None}}, "none", "optimizer.lr must be a number, got None"),
    ({"blocks": {"attention_scale": float("inf")}}, "none",
     "blocks.attention_scale must be a number, got inf"),
    ({"loss": {"alpha": [1, "a", 1, 1]}}, "none", "loss.alpha must be a list of numbers"),
    ({"loss": {"alpha": [float("nan"), 0.25, 0.25, 0.25]}}, "none",
     "loss.alpha must be a list of numbers, got [nan, 0.25, 0.25, 0.25]"),
    ({"dataset": {"cache_dir": 5}}, "none", "dataset.cache_dir must be a string, got 5"),
    ({"kd": ["soft"]}, "none", "kd must be a string, got ['soft']"),
    ({"preprocess": 8}, "none", "preprocess must be a mapping, got 8"),
], ids=["optimizer_epochs", "teacher_epochs", "batch_size", "even_temporal_kernel",
        "alpha_length", "beta_length", "gamma_length", "target_T", "batch_size_str",
        "classes_str", "epochs_float", "lr_bool", "lr_null", "attention_scale_inf",
        "alpha_str", "alpha_nan", "cache_dir_int", "kd_list", "group_scalar"])
def test_unusable_run_setting_is_a_config_error(tmp_path, tiny_data, capsys, values, kd,
                                                message):
    config = _write_config(tmp_path / "run.yaml", values)
    capsys.readouterr()
    code = cli.main(["--config", config, "--out", str(tmp_path / "run"), "train",
                     "--data", tiny_data, "--kd", kd])
    err = capsys.readouterr().err
    assert code == cli.EXIT_CONFIG
    assert message in err and "Traceback" not in err
    assert not (tmp_path / "run" / "teacher.ckpt").exists()


def test_null_is_taken_where_its_reader_handles_it(tmp_path):
    cfg = RunConfig({"optimizer": {"early_stop_train_acc": None}, "kd": None,
                     "dataset": {"dir": None}, "loss": {"beta": [1, 0.5]}})
    assert cfg.kd_modes() == frozenset()
    assert cfg.train_settings().early_stop_train_acc is None
    cfg.dump(tmp_path / "run.yaml")
    assert RunConfig.load(tmp_path / "run.yaml").values == cfg.values
    with pytest.raises(InvalidInputError, match="seed must be an integer"):
        cfg.set("seed", "3")


def test_eval_rejects_frames_the_student_cannot_halve(tmp_path, tiny_data, capsys):
    ckpt = _save_student(tmp_path / "student.ckpt")
    config = _write_config(tmp_path / "run.yaml", {"preprocess": {"target_T": 6}})
    capsys.readouterr()
    code = cli.main(["--config", config, "--out", str(tmp_path / "run"), "eval",
                     str(ckpt), "--data", tiny_data, "--split", "train"])
    err = capsys.readouterr().err
    assert code == cli.EXIT_CONFIG
    assert "preprocess.target_T" in err and "got 6" in err and "Traceback" not in err


def test_effective_config_with_fixed_settings_is_rejected(tmp_path, tiny_data, capsys):
    """An effective-config.yaml written while the LIF reset, the surrogate
    window, the fusion switch, its shuffle seed and the plan overrides were
    settings names every one of them."""
    old = RunConfig().values
    old["neuron"].update(v_reset=0.0, surrogate_window_a=1.0)
    old["ssc"]["hidden_channels"] = 3
    old["smf"].update(enabled=True, shuffle_seed=0)
    old["blocks"].update(widths=None, strides=None)
    config = tmp_path / "effective-config.yaml"
    config.write_text(yaml.safe_dump(old, sort_keys=True))
    capsys.readouterr()
    code = cli.main(["--config", str(config), "--out", str(tmp_path / "run"), "train",
                     "--data", tiny_data])
    err = capsys.readouterr().err
    assert code == cli.EXIT_CONFIG
    assert "Traceback" not in err
    for key in ("neuron.v_reset", "neuron.surrogate_window_a", "ssc.hidden_channels",
                "smf.enabled", "smf.shuffle_seed", "blocks.widths", "blocks.strides"):
        assert repr(key) in err


SPLIT_CONFIG = {"dataset": {"frames": 16}, "preprocess": {"target_T": 8}}


@pytest.fixture(scope="module")
def split_data(tmp_path_factory):
    """A 2-class synthetic dataset of 8 train and 2 test clips, and a
    student checkpoint for it."""
    root = tmp_path_factory.mktemp("splits")
    config = _write_config(root / "run.yaml", SPLIT_CONFIG)
    data_dir = str(root / "data")
    assert cli.main(["--config", config, "--out", data_dir, "synth", "--classes", "2",
                     "--samples-per-class", "5"]) == cli.EXIT_OK
    return data_dir, _save_student(root / "student.ckpt", SPLIT_CONFIG)


def _batch_config(path, batch_size):
    return _write_config(path, {**SPLIT_CONFIG, "preprocess": {
        **SPLIT_CONFIG["preprocess"], "batch_size": batch_size}})


@pytest.mark.parametrize("batch_size", [0, -3])
def test_eval_rejects_a_batch_size_below_one(tmp_path, split_data, capsys, batch_size):
    data_dir, ckpt = split_data
    capsys.readouterr()
    code = cli.main(["--config", _batch_config(tmp_path / "run.yaml", batch_size),
                     "--out", str(tmp_path / "run"), "eval", str(ckpt), "--data", data_dir])
    err = capsys.readouterr().err
    assert code == cli.EXIT_CONFIG
    assert f"batch_size must be >= 1, got {batch_size}" in err and "Traceback" not in err
    assert not (tmp_path / "run" / "eval.json").exists()


def test_eval_forwards_preprocess_batch_size_clips(tmp_path, split_data, monkeypatch):
    """eval runs ``preprocess.batch_size`` clips per forward; eval mode is
    batch-independent, so its report equals the one at 32 clips."""
    data_dir, ckpt = split_data
    sizes = []
    forward = MkSgnModel.forward
    monkeypatch.setattr(MkSgnModel, "forward",
                        lambda model, batch: sizes.append(batch["joint"].shape[0])
                        or forward(model, batch))
    reports = {}
    for batch_size in (3, 32):
        sizes.clear()
        run_dir = tmp_path / f"run{batch_size}"
        assert cli.main(["--config", _batch_config(tmp_path / "run.yaml", batch_size),
                         "--out", str(run_dir), "eval", str(ckpt), "--data", data_dir,
                         "--split", "train"]) == cli.EXIT_OK
        reports[batch_size] = (run_dir / "eval.json").read_bytes(), list(sizes)
    assert reports[3][1] == [3, 3, 2] and reports[32][1] == [8]
    assert reports[3][0] == reports[32][0]


@pytest.mark.parametrize("command, preprocessed", [
    (["eval", "{ckpt}", "--split", "train"], [8]),
    (["eval", "{ckpt}", "--split", "test"], [2]),
    (["profile", "--checkpoint", "{ckpt}"], [8]),
    (["train", "--epochs", "1", "--kd", "none"], [8, 2]),
], ids=["eval_train", "eval_test", "profile", "train"])
def test_commands_preprocess_only_the_splits_they_read(tmp_path, split_data, monkeypatch,
                                                       command, preprocessed):
    data_dir, ckpt = split_data
    sizes = []
    preprocess = cli.preprocess_sequences
    monkeypatch.setattr(cli, "preprocess_sequences",
                        lambda seqs, *a: sizes.append(len(seqs)) or preprocess(seqs, *a))
    args = [arg.format(ckpt=ckpt) for arg in command]
    assert cli.main(["--config", _batch_config(tmp_path / "run.yaml", 8),
                     "--out", str(tmp_path / "run"), *args,
                     "--data", data_dir]) == cli.EXIT_OK
    assert sizes == preprocessed


@pytest.fixture(scope="module")
def ntu_data(tmp_path_factory):
    """8 NTU-layout ``.skeleton`` files of 12 frames, classes A001 and A002."""
    raw = tmp_path_factory.mktemp("ntu") / "raw"
    raw.mkdir()
    rng = np.random.default_rng(7)
    for rep in range(1, 5):
        for action in (1, 2):
            xyz = rng.normal(size=(12, 25, 3)).round(4)
            text = make_skeleton_text(12, coords=lambda t, b, j, xyz=xyz: xyz[t, j])
            (raw / f"S001C001P001R00{rep}A00{action}.skeleton").write_text(text)
    return raw


def _ntu_config(path, raw, cache_dir):
    return _write_config(path, {"dataset": {"kind": "ntu_dir", "dir": str(raw),
                                            "cache_dir": str(cache_dir)},
                                "preprocess": {"target_T": 8}})


def test_ntu_dir_train_eval_profile_chain(tmp_path, ntu_data, monkeypatch):
    """train, eval and profile on a directory of ``.skeleton`` files; a
    second eval parses nothing, reading the cache the first run filled,
    and writes the same report."""
    cache = tmp_path / "cache"
    run_dir = tmp_path / "run"
    common = ["--config", _ntu_config(tmp_path / "ntu.yaml", ntu_data, cache),
              "--out", str(run_dir)]
    assert cli.main(common + ["train", "--epochs", "1"]) == cli.EXIT_OK
    assert len(list(cache.glob("*.sgt"))) == 8
    ckpt = str(run_dir / "student.ckpt")
    assert cli.main(common + ["eval", ckpt]) == cli.EXIT_OK
    report = (run_dir / "eval.json").read_bytes()
    assert sum(map(sum, json.loads(report)["confusion"])) == 2
    assert cli.main(common + ["profile", "--checkpoint", ckpt]) == cli.EXIT_OK
    assert (run_dir / "energy_report.json").exists()

    (run_dir / "eval.json").unlink()
    monkeypatch.setattr(data, "parse_ntu", None)
    assert cli.main(common + ["eval", ckpt]) == cli.EXIT_OK
    assert (run_dir / "eval.json").read_bytes() == report


@pytest.mark.parametrize("command", [["train", "--epochs", "1"], ["eval", "{ckpt}"]],
                         ids=["train", "eval"])
def test_unlabeled_skeleton_file_is_a_data_error(tmp_path, ntu_data, capsys, monkeypatch,
                                                  command):
    raw = tmp_path / "raw"
    shutil.copytree(ntu_data, raw)
    (raw / "S001C001P001R005.skeleton").write_text(make_skeleton_text(12))
    preprocessed = []
    monkeypatch.setattr(cli, "preprocess_sequences", lambda *a: preprocessed.append(a))
    ckpt = _save_student(tmp_path / "student.ckpt")
    capsys.readouterr()
    code = cli.main(["--config", _ntu_config(tmp_path / "ntu.yaml", raw, tmp_path / "cache"),
                     "--out", str(tmp_path / "run"),
                     *(arg.format(ckpt=ckpt) for arg in command)])
    err = capsys.readouterr().err
    assert code == cli.EXIT_DATA
    assert "S001C001P001R005.skeleton" in err and "Traceback" not in err
    assert preprocessed == []


def test_non_utf8_skeleton_file_is_a_data_error(tmp_path, ntu_data, capsys):
    raw = tmp_path / "raw"
    shutil.copytree(ntu_data, raw)
    (raw / "S001C001P001R005A001.skeleton").write_bytes(b"1\n1\n\xff\xfe\n")
    capsys.readouterr()
    code = cli.main(["--config", _ntu_config(tmp_path / "ntu.yaml", raw, tmp_path / "cache"),
                     "--out", str(tmp_path / "run"), "train", "--epochs", "1"])
    err = capsys.readouterr().err
    assert code == cli.EXIT_DATA
    assert f"{raw / 'S001C001P001R005A001.skeleton'}: not UTF-8" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("command", [
    ["synth"],
    ["train", "--kd", "none", "--data", "{data}"],
    ["eval", "{ckpt}", "--data", "{data}"],
    ["profile", "--checkpoint", "{ckpt}", "--data", "{data}"],
], ids=["synth", "train", "eval", "profile"])
def test_unusable_out_is_a_config_error_before_any_work(tmp_path, tiny_data, capsys,
                                                       monkeypatch, command):
    """An ``--out`` under a regular file cannot be created: exit 2, naming
    the path, before anything is synthesized or any dataset is read."""
    work = []
    monkeypatch.setattr(cli, "synthesize", lambda **kw: work.append("synthesize"))
    monkeypatch.setattr(cli, "load_dataset", lambda *a: work.append("load_dataset"))
    blocker = tmp_path / "file"
    blocker.write_text("")
    ckpt = _save_student(tmp_path / "student.ckpt")
    capsys.readouterr()
    code = cli.main(["--out", str(blocker / "sub"),
                     *(arg.format(ckpt=ckpt, data=tiny_data) for arg in command)])
    err = capsys.readouterr().err
    assert code == cli.EXIT_CONFIG
    assert f"config error: cannot create output directory {blocker / 'sub'}" in err
    assert "Traceback" not in err and work == []


def _nan_task_loss(logits, labels):
    return Tensor(np.float32(np.nan))


@pytest.mark.parametrize("kd, message, writes", [
    ("none", "numerical error: training loss is non-finite (layer firing rates: ",
     "student.ckpt"),
    ("soft", "numerical error: teacher loss is non-finite", "teacher.ckpt"),
], ids=["student", "teacher"])
def test_non_finite_loss_exits_4(tmp_path, tiny_data, capsys, monkeypatch, kd, message,
                                 writes):
    """A loss that turns non-finite stops training with exit 4 and no
    traceback, before the model that diverged is saved."""
    monkeypatch.setattr(network, "task_loss", _nan_task_loss)
    capsys.readouterr()
    code = cli.main(["--out", str(tmp_path / "run"), "train", "--data", tiny_data,
                     "--kd", kd])
    err = capsys.readouterr().err
    assert code == cli.EXIT_DIVERGED
    assert message in err and "Traceback" not in err
    assert not (tmp_path / "run" / writes).exists()
