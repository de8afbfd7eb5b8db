"""Command-line entry point: synth, train, eval, profile.

Exit codes, one per exception class of ``tensor``: 0 success, 2 config error
(``InvalidInputError``), 3 data error (``FormatError``), 4 numerical
divergence (``NumericalError``).  ``main`` alone maps them; a command only
raises.  Each command creates its output directory before it reads any data,
so an unusable ``--out`` is a config error before any work.  ``synth`` and
``train`` write their effective configuration next to their outputs so a run
can be reproduced from one file; ``eval`` and ``profile`` do not, so that
pointing them at a training run's ``--out`` leaves its record alone.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from .config import RunConfig
from .data import (SkeletonTopology, load_dataset, load_skeleton_dir, manifest_hash,
                   preprocess_sequences, save_synth_dataset, synthesize)
from .network import (FtmModule, Trainer, batch_tensors, evaluate, load_model, save_model,
                      train_teacher)
from .profiler import profile_model
from .tensor import FormatError, InvalidInputError, NumericalError


EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_DIVERGED = 4


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spikegraph",
        description="Spiking graph network engine: synthetic data, training, "
                    "evaluation, and theoretical energy profiling.")
    parser.add_argument("--config", help="YAML run configuration")
    parser.add_argument("--seed", type=int, help="override config seed")
    parser.add_argument("--out", help="override output directory")
    sub = parser.add_subparsers(dest="command", required=True)

    p_synth = sub.add_parser("synth", help="generate a synthetic dataset")
    p_synth.add_argument("--classes", type=int)
    p_synth.add_argument("--samples-per-class", type=int)

    p_train = sub.add_parser("train", help="train the student model")
    p_train.add_argument("--kd", help="none | soft | feature | soft,feature")
    p_train.add_argument("--epochs", type=int)
    p_train.add_argument("--lr", type=float)
    p_train.add_argument("--data", help="dataset directory (defaults to config)")
    p_train.add_argument("--teacher-ckpt", help="frozen teacher checkpoint")
    p_train.add_argument("--resume", help="checkpoint to continue from")

    p_eval = sub.add_parser("eval", help="evaluate a checkpoint")
    p_eval.add_argument("checkpoint")
    p_eval.add_argument("--data", help="dataset directory (defaults to config)")
    p_eval.add_argument("--split", choices=("train", "test"), default="test")

    p_profile = sub.add_parser("profile", help="emit the energy report")
    p_profile.add_argument("--checkpoint", required=True)
    p_profile.add_argument("--data", help="dataset directory (defaults to config)")
    return parser


def _load_config(args) -> RunConfig:
    cfg = RunConfig.load(args.config)
    cfg.override({"seed": args.seed, "out": args.out})
    return cfg


def _dataset_dir(cfg: RunConfig, override) -> str:
    path = override or cfg.get("dataset.dir")
    if not path:
        raise InvalidInputError("no dataset directory configured (dataset.dir or --data)")
    return path


def _load_splits(cfg: RunConfig, data_dir: str, *names: str):
    """(topology, class count, one (bundle, labels) per split in ``names``).

    Only the named splits are resampled and derived.  An empty test split
    gives (None, None); an empty train split is an error.
    """
    kind = cfg.get("dataset.kind")
    topo = SkeletonTopology.for_joint_count(cfg.get("dataset.num_joints"))
    if kind == "synth":
        train, test, manifest = load_dataset(data_dir)
        classes = manifest["classes"]
    elif kind == "ntu_dir":
        sequences = load_skeleton_dir(data_dir, cfg.get("dataset.cache_dir"))
        labels = sorted({s.label for s in sequences})
        classes = len(labels)
        remap = {lbl: i for i, lbl in enumerate(labels)}
        for s in sequences:
            s.label = remap[s.label]
        cut = int(round(cfg.get("dataset.train_fraction") * len(sequences)))
        train, test = sequences[:cut], sequences[cut:]
    else:
        raise InvalidInputError(f"unknown dataset kind {kind!r}")
    splits = {"train": train, "test": test}
    target_t = cfg.get("preprocess.target_T")
    return topo, classes, [
        preprocess_sequences(splits[name], target_t, topo)
        if splits[name] or name == "train" else (None, None) for name in names]


def _make_out_dir(path: str) -> str:
    """Create a command's output directory; one that cannot be made is a
    config error, raised before the command reads any data."""
    try:
        os.makedirs(path, exist_ok=True)
    except OSError as err:
        raise InvalidInputError(f"cannot create output directory {path}: "
                                f"{err.strerror}") from err
    return path


def cmd_synth(cfg: RunConfig, args) -> int:
    cfg.override({"dataset.classes": args.classes,
                  "dataset.samples_per_class": args.samples_per_class})
    out_dir = _make_out_dir(args.out or cfg.get("dataset.dir")
                            or os.path.join(cfg.get("out"), "synth"))
    sequences, params = synthesize(
        classes=cfg.get("dataset.classes"),
        samples_per_class=cfg.get("dataset.samples_per_class"),
        num_joints=cfg.get("dataset.num_joints"),
        frames=cfg.get("dataset.frames"),
        seed=cfg.get("seed"),
        noise=cfg.get("dataset.noise"))
    manifest = save_synth_dataset(out_dir, sequences, params,
                                  train_fraction=cfg.get("dataset.train_fraction"))
    cfg.dump(os.path.join(out_dir, "effective-config.yaml"))
    print(f"dataset: {len(sequences)} sequences, {params['classes']} classes")
    print(f"manifest: {os.path.join(out_dir, 'manifest.json')}")
    print(f"manifest-hash: {manifest_hash(manifest)}")
    return EXIT_OK


def cmd_train(cfg: RunConfig, args) -> int:
    cfg.override({"kd": args.kd, "optimizer.epochs": args.epochs,
                  "optimizer.lr": args.lr})
    settings = cfg.train_settings()
    if args.teacher_ckpt and not settings.kd:
        raise InvalidInputError("--teacher-ckpt is only read with distillation on "
                                "(--kd soft, feature or soft,feature)")
    loss_weights = cfg.loss_weights()
    out_dir = _make_out_dir(cfg.get("out"))
    data_dir = _dataset_dir(cfg, args.data)
    topo, classes, [(tr_bundle, tr_labels), (te_bundle, te_labels)] = \
        _load_splits(cfg, data_dir, "train", "test")
    cfg.dump(os.path.join(out_dir, "effective-config.yaml"))

    seed = cfg.get("seed")
    model = cfg.build_student(classes, topo, np.random.default_rng(seed))
    if args.resume:
        load_model(args.resume, model, model.plan_hash())

    teacher = None
    ftm = None
    if settings.kd:
        teacher = cfg.build_teacher(classes, topo, np.random.default_rng(seed + 1))
        if args.teacher_ckpt:
            load_model(args.teacher_ckpt, teacher, teacher.plan_hash())
        else:
            print("no teacher checkpoint given; training the teacher first")
            hist = train_teacher(teacher, tr_bundle, tr_labels, cfg.teacher_settings())
            print(f"teacher trained: {hist[-1]}")
            save_model(os.path.join(out_dir, "teacher.ckpt"), teacher,
                       teacher.plan_hash())
        if "feature" in settings.kd:
            ftm = FtmModule(teacher.plan, model.plan, model.spike_steps,
                            model.lif, np.random.default_rng(seed + 2))

    metrics_path = os.path.join(out_dir, "metrics.jsonl")
    with open(metrics_path, "w") as metrics_fh:
        def write_metrics(m):
            record = {k: v for k, v in m.items() if k != "rates"}
            record["rates"] = {k: round(v, 6) for k, v in m["rates"].items()}
            metrics_fh.write(json.dumps(record) + "\n")

        trainer = Trainer(model, tr_bundle, tr_labels, settings,
                          loss_weights=loss_weights, teacher=teacher,
                          ftm=ftm, metrics_writer=write_metrics)
        history = trainer.run()

    ckpt_path = os.path.join(out_dir, "student.ckpt")
    save_model(ckpt_path, model, model.plan_hash())
    final = history[-1]
    print(f"trained {len(history)} epochs: train_acc={final['train_acc']:.4f} "
          f"train_loss={final['train_loss']:.4f}")
    if te_labels is not None:
        held = evaluate(model, te_bundle, te_labels, cfg.get("preprocess.batch_size"))
        print(f"heldout_acc={held['accuracy']:.4f}")
    print(f"checkpoint: {ckpt_path}")
    print(f"metrics: {metrics_path}")
    return EXIT_OK


def cmd_eval(cfg: RunConfig, args) -> int:
    out_dir = _make_out_dir(cfg.get("out"))
    data_dir = _dataset_dir(cfg, args.data)
    topo, classes, [(bundle, labels)] = _load_splits(cfg, data_dir, args.split)
    if labels is None:
        raise InvalidInputError(f"dataset has no {args.split} split")
    model = cfg.build_student(classes, topo, np.random.default_rng(cfg.get("seed")))
    load_model(args.checkpoint, model, model.plan_hash())
    result = evaluate(model, bundle, labels, cfg.get("preprocess.batch_size"))
    report = {
        "split": args.split,
        "accuracy": result["accuracy"],
        "confusion": result["confusion"].tolist(),
    }
    path = os.path.join(out_dir, "eval.json")
    with open(path, "w") as fh:
        json.dump(report, fh, indent=1)
    print(f"accuracy: {result['accuracy']:.4f}")
    print(f"report: {path}")
    return EXIT_OK


def cmd_profile(cfg: RunConfig, args) -> int:
    out_dir = _make_out_dir(cfg.get("out"))
    data_dir = _dataset_dir(cfg, args.data)
    topo, classes, [(tr_bundle, tr_labels)] = _load_splits(cfg, data_dir, "train")
    model = cfg.build_student(classes, topo, np.random.default_rng(cfg.get("seed")))
    load_model(args.checkpoint, model, model.plan_hash())
    batch = batch_tensors(tr_bundle, np.arange(min(32, tr_labels.shape[0])))
    report = profile_model(model, batch)
    json_path = os.path.join(out_dir, "energy_report.json")
    with open(json_path, "w") as fh:
        fh.write(report.to_json())
    csv_path = os.path.join(out_dir, "energy_report.csv")
    with open(csv_path, "w") as fh:
        fh.write(report.to_csv())
    print(f"model energy: {report.energy_mj:.6f} mJ "
          f"(flops={report.flops_total}, sops={report.sops_total})")
    print(f"ann-equivalent energy: {report.ann_equivalent_mj:.6f} mJ")
    print(f"report: {json_path} / {csv_path}")
    return EXIT_OK


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    command = {"synth": cmd_synth, "train": cmd_train, "eval": cmd_eval,
               "profile": cmd_profile}[args.command]
    try:
        return command(_load_config(args), args)
    except InvalidInputError as err:
        print(f"config error: {err}", file=sys.stderr)
        return EXIT_CONFIG
    except FormatError as err:
        print(f"data error: {err}", file=sys.stderr)
        return EXIT_DATA
    except NumericalError as err:
        print(f"numerical error: {err}", file=sys.stderr)
        return EXIT_DIVERGED


if __name__ == "__main__":
    sys.exit(main())
