"""The command-line chain synth -> train -> eval -> profile, and exit codes."""

import json
import os

import jsonschema
import pytest
import yaml

from spikegraph import cli, profiler
from spikegraph.config import ConfigError, RunConfig

SCHEMA = os.path.join(os.path.dirname(profiler.__file__), "schemas",
                      "energy_report.schema.json")


def _write_config(path, values):
    with open(path, "w") as fh:
        yaml.safe_dump(values, fh)
    return str(path)


def test_synth_train_eval_profile_chain(tmp_path):
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
    assert cli.main(common + ["profile", "--checkpoint", ckpt,
                              "--data", data_dir]) == cli.EXIT_OK
    with open(os.path.join(run_dir, "energy_report.json")) as fh:
        report = json.load(fh)
    with open(SCHEMA) as fh:
        jsonschema.validate(report, json.load(fh))
    assert sum(e["id"].startswith("encoder") for e in report["layers"]) == 4


def test_missing_checkpoint_is_a_clean_error(tmp_path, capsys):
    data_dir = str(tmp_path / "data")
    assert cli.main(["--out", data_dir, "synth", "--classes", "2",
                     "--samples-per-class", "2"]) == cli.EXIT_OK
    capsys.readouterr()
    code = cli.main(["--out", str(tmp_path / "run"), "eval",
                     str(tmp_path / "absent.ckpt"), "--data", data_dir, "--split", "train"])
    err = capsys.readouterr().err
    assert code == cli.EXIT_CONFIG
    assert "checkpoint not found" in err and "Traceback" not in err


def test_removed_branches_key_is_rejected(tmp_path, capsys):
    with pytest.raises(ConfigError):
        RunConfig({"blocks": {"branches": 2}})
    config = _write_config(tmp_path / "old.yaml", {"blocks": {"branches": 3}})
    assert cli.main(["--config", config, "--out", str(tmp_path / "data"),
                     "synth"]) == cli.EXIT_CONFIG
    assert "blocks.branches" in capsys.readouterr().err
