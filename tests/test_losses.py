"""Distillation and task losses: closed forms, edge cases, gradients."""

import numpy as np
import pytest

from spikegraph.fusion import MODALITY_ORDER
from spikegraph.network import (LossWeights, aggregate_soft_labels, fkd_loss,
                                sdk_loss, task_loss, total_loss)
from spikegraph.tensor import InvalidInputError, Tensor
from oracles import grad_check


def rand(*shape, seed):
    return np.random.default_rng(seed).normal(size=shape).astype(np.float32)


LABELS = np.array([0, 2, 1, 2, 3])


class TestTaskLoss:
    def test_matches_float64_log_softmax(self):
        logits = rand(5, 4, seed=0) * 3.0
        z = logits.astype(np.float64)
        log_p = z - z.max(axis=1, keepdims=True)
        log_p -= np.log(np.exp(log_p).sum(axis=1, keepdims=True))
        want = -log_p[np.arange(5), LABELS].mean()
        np.testing.assert_allclose(task_loss(Tensor(logits), LABELS).item(), want,
                                   rtol=1e-6)

    @pytest.mark.parametrize("bad", [-1, 4])
    def test_out_of_range_label_rejected(self, bad):
        labels = LABELS.copy()
        labels[1] = bad
        with pytest.raises(InvalidInputError):
            task_loss(Tensor(rand(5, 4, seed=1)), labels)


def test_sdk_loss_is_mean_l2_gap():
    y, y_mm = rand(5, 4, seed=2), rand(5, 4, seed=3)
    want = np.sqrt(((y.astype(np.float64) - y_mm) ** 2).sum(axis=1)).mean()
    np.testing.assert_allclose(sdk_loss(Tensor(y), Tensor(y_mm)).item(), want, rtol=1e-6)


class TestFkdLoss:
    SHAPE = (2, 3, 4, 5, 6)   # [S, B, D, V, T]

    def test_identical_taps_give_zero(self):
        tap = Tensor(rand(*self.SHAPE, seed=4))
        assert abs(fkd_loss(tap, tap).item()) < 1e-6

    def test_all_zero_sample_gives_one(self):
        a, b = rand(*self.SHAPE, seed=5), rand(*self.SHAPE, seed=6)
        a[:, 1] = 0.0
        per_sample = [fkd_loss(Tensor(a[:, [k]]), Tensor(b[:, [k]])).item()
                      for k in range(self.SHAPE[1])]
        assert per_sample[1] == 1.0
        np.testing.assert_allclose(fkd_loss(Tensor(a), Tensor(b)).item(),
                                   np.mean(per_sample), rtol=1e-6)

    def test_rank_four_tap_is_rejected(self):
        tap = Tensor(rand(*self.SHAPE[1:], seed=9))
        with pytest.raises(InvalidInputError, match="expected rank-5 feature tap"):
            fkd_loss(tap, tap)

    @pytest.mark.parametrize("k", [-3, 1, 5])
    def test_exactly_invariant_under_power_of_two_scaling(self, k):
        a, b = rand(*self.SHAPE, seed=7), rand(*self.SHAPE, seed=8)
        base = fkd_loss(Tensor(a), Tensor(b)).item()
        c = np.float32(2.0 ** k)
        assert fkd_loss(Tensor(a * c), Tensor(b)).item() == base
        assert fkd_loss(Tensor(a), Tensor(b * c)).item() == base


@pytest.mark.parametrize("loss", ["task", "sdk", "fkd"])
def test_gradient_matches_float64_differences(loss):
    if loss == "task":
        leaves = [Tensor(rand(5, 4, seed=9))]
        f = lambda z: task_loss(z, LABELS)               # noqa: E731
    elif loss == "sdk":
        leaves = [Tensor(rand(5, 4, seed=10)), Tensor(rand(5, 4, seed=11))]
        f = sdk_loss
    else:
        leaves = [Tensor(rand(2, 3, 2, 2, 2, seed=12)), Tensor(rand(2, 3, 2, 2, 2, seed=13))]
        f = fkd_loss
    report = grad_check(f, leaves, h=1e-5, tol=1e-5)
    assert report.passed, report


def test_soft_labels_follow_modality_order():
    logits = {m: Tensor(rand(5, 4, seed=14 + k)) for k, m in enumerate(MODALITY_ORDER)}
    for k, m in enumerate(MODALITY_ORDER):
        alpha = tuple(float(i == k) for i in range(4))
        out = aggregate_soft_labels(logits, LossWeights(alpha=alpha))
        np.testing.assert_array_equal(out.data, logits[m].data)
    same = {m: logits["joint"] for m in MODALITY_ORDER}
    np.testing.assert_array_equal(aggregate_soft_labels(same, LossWeights()).data,
                                  logits["joint"].data)


def test_task_only_total_is_bit_identical_to_scaled_task_loss():
    l_task = task_loss(Tensor(rand(5, 4, seed=18)), LABELS)
    l_sdk = Tensor(np.float32(0.7))
    l_fkd = (Tensor(np.float32(0.3)), Tensor(np.float32(0.9)))
    weights = LossWeights(gamma=(0.37, 0.0, 0.0))
    out = total_loss(l_task, l_sdk, l_fkd, weights)
    assert out.data.tobytes() == (l_task.data * np.float32(0.37)).tobytes()
