"""Command-line entry point: synth, train, eval, profile.

Exit codes: 0 success, 2 config error, 3 data error, 4 numerical
divergence.  ``synth`` and ``train`` write their effective configuration
next to their outputs so a run can be reproduced from one file; ``eval`` and
``profile`` do not, so that pointing them at a training run's ``--out`` leaves
its record alone.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from .config import ConfigError, RunConfig
from .data import (ParseError, FormatError, SkeletonTopology,
                   load_dataset, load_skeleton_dir, manifest_hash,
                   preprocess_sequences, save_synth_dataset, synthesize)
from .tensor import InvalidInputError, NumericalError


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
        raise ConfigError("no dataset directory configured (dataset.dir or --data)")
    return path


def _load_splits(cfg: RunConfig, data_dir: str):
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
        raise ConfigError(f"unknown dataset kind {kind!r}")
    target_t = cfg.get("preprocess.target_T")
    tr_bundle, tr_labels = preprocess_sequences(train, target_t, topo)
    te_bundle, te_labels = preprocess_sequences(test, target_t, topo) \
        if test else (None, None)
    return topo, classes, (tr_bundle, tr_labels), (te_bundle, te_labels)


def _write_effective_config(cfg: RunConfig, out_dir: str) -> None:
    os.makedirs(out_dir, exist_ok=True)
    cfg.dump(os.path.join(out_dir, "effective-config.yaml"))


def cmd_synth(cfg: RunConfig, args) -> int:
    cfg.override({"dataset.classes": args.classes,
                  "dataset.samples_per_class": args.samples_per_class})
    out_dir = args.out or cfg.get("dataset.dir") or os.path.join(cfg.get("out"), "synth")
    sequences, params = synthesize(
        classes=cfg.get("dataset.classes"),
        samples_per_class=cfg.get("dataset.samples_per_class"),
        num_joints=cfg.get("dataset.num_joints"),
        frames=cfg.get("dataset.frames"),
        seed=cfg.get("seed"),
        noise=cfg.get("dataset.noise"))
    manifest = save_synth_dataset(out_dir, sequences, params,
                                  train_fraction=cfg.get("dataset.train_fraction"))
    _write_effective_config(cfg, out_dir)
    print(f"dataset: {len(sequences)} sequences, {params['classes']} classes")
    print(f"manifest: {os.path.join(out_dir, 'manifest.json')}")
    print(f"manifest-hash: {manifest_hash(manifest)}")
    return EXIT_OK


def cmd_train(cfg: RunConfig, args) -> int:
    from .network import (DivergenceError, FtmModule, Trainer, evaluate,
                          load_model, save_model, train_teacher)

    cfg.override({"kd": args.kd, "optimizer.epochs": args.epochs,
                  "optimizer.lr": args.lr})
    settings = cfg.train_settings()
    data_dir = _dataset_dir(cfg, args.data)
    topo, classes, (tr_bundle, tr_labels), (te_bundle, te_labels) = \
        _load_splits(cfg, data_dir)
    out_dir = cfg.get("out")
    os.makedirs(out_dir, exist_ok=True)
    _write_effective_config(cfg, out_dir)

    seed = cfg.get("seed")
    kd = cfg.kd_modes()
    model = cfg.build_student(classes, topo, np.random.default_rng(seed))
    if args.resume:
        load_model(args.resume, model, model.plan_hash())

    teacher = None
    ftm = None
    if kd:
        teacher = cfg.build_teacher(classes, topo, np.random.default_rng(seed + 1))
        if args.teacher_ckpt:
            load_model(args.teacher_ckpt, teacher, teacher.plan_hash())
        else:
            print("no teacher checkpoint given; training the teacher first")
            hist = train_teacher(teacher, tr_bundle, tr_labels, cfg.teacher_settings())
            print(f"teacher trained: {hist[-1]}")
            save_model(os.path.join(out_dir, "teacher.ckpt"), teacher,
                       teacher.plan_hash())
        if "feature" in kd:
            ftm = FtmModule(teacher.plan, model.plan, model.spike_steps,
                            model.lif, np.random.default_rng(seed + 2))

    metrics_path = os.path.join(out_dir, "metrics.jsonl")
    with open(metrics_path, "w") as metrics_fh:
        def write_metrics(m):
            record = {k: v for k, v in m.items() if k != "rates"}
            record["rates"] = {k: round(v, 6) for k, v in m["rates"].items()}
            metrics_fh.write(json.dumps(record) + "\n")

        trainer = Trainer(model, tr_bundle, tr_labels, settings,
                          loss_weights=cfg.loss_weights(), teacher=teacher,
                          ftm=ftm, metrics_writer=write_metrics)
        try:
            history = trainer.run()
        except DivergenceError as err:
            print(f"error: {err}", file=sys.stderr)
            return EXIT_DIVERGED

    ckpt_path = os.path.join(out_dir, "student.ckpt")
    save_model(ckpt_path, model, model.plan_hash())
    final = history[-1]
    print(f"trained {len(history)} epochs: train_acc={final['train_acc']:.4f} "
          f"train_loss={final['train_loss']:.4f}")
    if te_labels is not None:
        held = evaluate(model, te_bundle, te_labels)
        print(f"heldout_acc={held['accuracy']:.4f}")
    print(f"checkpoint: {ckpt_path}")
    print(f"metrics: {metrics_path}")
    return EXIT_OK


def cmd_eval(cfg: RunConfig, args) -> int:
    from .network import evaluate, load_model

    data_dir = _dataset_dir(cfg, args.data)
    topo, classes, train_split, test_split = _load_splits(cfg, data_dir)
    bundle, labels = train_split if args.split == "train" else test_split
    if labels is None:
        raise ConfigError(f"dataset has no {args.split} split")
    model = cfg.build_student(classes, topo, np.random.default_rng(cfg.get("seed")))
    load_model(args.checkpoint, model, model.plan_hash())
    result = evaluate(model, bundle, labels)
    out_dir = cfg.get("out")
    os.makedirs(out_dir, exist_ok=True)
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
    from .network import batch_tensors, load_model
    from .profiler import profile_model

    out_dir = cfg.get("out")
    os.makedirs(out_dir, exist_ok=True)
    data_dir = _dataset_dir(cfg, args.data)
    topo, classes, (tr_bundle, tr_labels), _ = _load_splits(cfg, data_dir)
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
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _load_config(args)
        if args.command == "synth":
            return cmd_synth(cfg, args)
        if args.command == "train":
            return cmd_train(cfg, args)
        if args.command == "eval":
            return cmd_eval(cfg, args)
        if args.command == "profile":
            return cmd_profile(cfg, args)
        raise ConfigError(f"unknown command {args.command!r}")
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return EXIT_CONFIG
    except (ParseError, FormatError) as err:
        print(f"data error: {err}", file=sys.stderr)
        return EXIT_DATA
    except InvalidInputError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_CONFIG
    except NumericalError as err:
        print(f"numerical error: {err}", file=sys.stderr)
        return EXIT_DIVERGED


if __name__ == "__main__":
    sys.exit(main())
