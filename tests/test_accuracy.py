"""The trained student beats chance held out, in eval mode.

A toy student trains on 2 synthetic classes of 16 clips each, split 80/20
at random (25 train, 7 test), at T=8 and B=8 for 20 epochs with early stop
off (80 steps), and is scored by ``evaluate``: in eval mode, so the
BatchNorms normalize with their running statistics.  The seed and the
bound were fixed before the first run.  Restoring the identity running
statistics, an eval path that ignores what training measured, must fail
the same bound.
"""

import numpy as np

from spikegraph.config import RunConfig
from spikegraph.data import SkeletonTopology, preprocess_sequences, synthesize
from spikegraph.network import Trainer, evaluate

SEED = 0
TRAIN = 25
BOUND = 5 / 7                   # held-out accuracy; chance is 1/2


def _subset(bundle, idx):
    return {name: arr[idx] for name, arr in bundle.items()}


def test_trained_student_beats_chance_in_eval_mode():
    cfg = RunConfig({"seed": SEED, "preprocess": {"target_T": 8, "batch_size": 8},
                     "optimizer": {"epochs": 20, "early_stop_train_acc": None}})
    topo = SkeletonTopology.ntu25()
    seqs, _ = synthesize(classes=2, samples_per_class=16, num_joints=25, seed=SEED)
    bundle, labels = preprocess_sequences(seqs, 8, topo)
    order = np.random.default_rng(SEED).permutation(len(labels))
    train, test = order[:TRAIN], order[TRAIN:]
    # a constant prediction must not reach the bound
    assert np.bincount(labels[test]).max() / len(test) < BOUND

    model = cfg.build_student(2, topo, np.random.default_rng(SEED))
    history = Trainer(model, _subset(bundle, train), labels[train], cfg.train_settings(),
                      loss_weights=cfg.loss_weights()).run()
    assert len(history) == 20
    held_out = evaluate(model, _subset(bundle, test), labels[test], 8)["accuracy"]
    assert held_out >= BOUND, held_out

    state = model.state_dict()
    model.load_state_dict({k: np.zeros_like(v) if k.endswith("running_mean")
                           else np.ones_like(v) if k.endswith("running_var") else v
                           for k, v in state.items()})
    broken = evaluate(model, _subset(bundle, test), labels[test], 8)["accuracy"]
    assert broken < BOUND, broken
