"""BatchNorm's running statistics, SGD and Adam against closed forms, and
the order of a state dict."""

import numpy as np

from spikegraph.module import SGD, Adam, BatchNorm, Module, Parameter
from spikegraph.tensor import Tensor


def _bn(momentum=0.2):
    rng = np.random.default_rng(0)
    bn = BatchNorm(4)
    bn.momentum = momentum
    bn.gamma.data = rng.uniform(0.5, 1.5, 4).astype(np.float32)
    bn.beta.data = rng.normal(0.0, 0.5, 4).astype(np.float32)
    bn.running_mean[:] = rng.normal(0.0, 1.0, 4)
    bn.running_var[:] = rng.uniform(0.5, 2.0, 4)
    return bn


X = np.random.default_rng(1).normal(1.0, 2.0, size=(2, 3, 4, 5, 6)).astype(np.float32)
AXES = (0, 1, 3, 4)   # every axis but the channels (-3)


class TestBatchNorm:
    def test_running_statistics_rule(self):
        bn = _bn(momentum=0.2)
        old_mean, old_var = bn.running_mean.copy(), bn.running_var.copy()
        bn(Tensor(X))
        x = X.astype(np.float64)
        n = x.size // 4
        np.testing.assert_allclose(bn.running_mean, 0.8 * old_mean + 0.2 * x.mean(axis=AXES),
                                   rtol=1e-6)
        # the batch variance enters unbiased: var * n / (n - 1)
        unbiased = x.var(axis=AXES) * n / (n - 1)
        np.testing.assert_allclose(unbiased, x.var(axis=AXES, ddof=1))
        np.testing.assert_allclose(bn.running_var, 0.8 * old_var + 0.2 * unbiased, rtol=1e-6)

    def test_training_normalizes_with_batch_statistics(self):
        bn = _bn()
        out = bn(Tensor(X)).data.astype(np.float64)
        xhat = (out - bn.beta.data.reshape(4, 1, 1)) / bn.gamma.data.reshape(4, 1, 1)
        np.testing.assert_allclose(xhat.mean(axis=AXES), 0.0, atol=1e-5)
        np.testing.assert_allclose(xhat.var(axis=AXES), 1.0, rtol=1e-4)

    def test_eval_uses_the_buffers(self):
        bn = _bn().eval()
        mean, var = bn.running_mean.copy(), bn.running_var.copy()
        out = bn(Tensor(X)).data
        want = (bn.gamma.data.reshape(4, 1, 1) * (X - mean.reshape(4, 1, 1))
                / np.sqrt(var.reshape(4, 1, 1) + bn.eps) + bn.beta.data.reshape(4, 1, 1))
        np.testing.assert_allclose(out, want, rtol=1e-5, atol=1e-6)
        np.testing.assert_array_equal(bn.running_mean, mean)
        np.testing.assert_array_equal(bn.running_var, var)


P0 = np.array([0.5, -1.0, 2.0], dtype=np.float32)
G = np.array([0.3, -0.2, 1.0], dtype=np.float32)
GRADS = np.array([[0.3, -0.2, 1.0], [-0.1, 0.4, 2.0], [0.2, 0.0, -0.5]], dtype=np.float32)


def _steps(optim, p, grads):
    for g in grads:
        p.grad = np.asarray(g, dtype=np.float32)
        optim.step()
    return p.data.astype(np.float64)


class TestSGD:
    def test_momentum_closed_form(self):
        # constant gradient: v_t = (1 + m + ... + m^(t-1)) G
        p = Parameter(P0)
        got = _steps(SGD([p], lr=0.1, momentum=0.9, weight_decay=0.0), p, [G] * 3)
        m = 0.9
        np.testing.assert_allclose(got, P0 - 0.1 * (3 + 2 * m + m * m) * G, rtol=1e-6)

    def test_weight_decay_closed_form(self):
        # without momentum p_(t+1) = (1 - lr*wd) p_t - lr G
        p = Parameter(P0)
        lr, wd = 0.1, 0.5
        got = _steps(SGD([p], lr=lr, momentum=0.0, weight_decay=wd), p, [G] * 3)
        r = 1 - lr * wd
        np.testing.assert_allclose(got, r ** 3 * P0 - lr * G * (1 + r + r * r), rtol=1e-6)

    def test_momentum_with_weight_decay(self):
        p = Parameter(P0)
        lr, m, wd = 0.1, 0.9, 0.5
        got = _steps(SGD([p], lr=lr, momentum=m, weight_decay=wd), p, GRADS)
        want, v = P0.astype(np.float64), 0.0
        for g in GRADS:
            v = m * v + g + wd * want
            want = want - lr * v
        np.testing.assert_allclose(got, want, rtol=1e-6)

    def test_parameters_without_gradient_are_left_alone(self):
        p, q = Parameter(P0), Parameter(P0)
        opt = SGD([p, q], lr=0.1, momentum=0.9, weight_decay=1e-4)
        p.grad = G
        opt.step()
        np.testing.assert_array_equal(q.data, P0)
        assert not np.array_equal(p.data, P0)


class TestAdam:
    def test_bias_corrected_closed_form(self):
        # m_t / (1 - b1^t) and v_t / (1 - b2^t) are weighted means of the
        # gradients and their squares with weights b^(t-i) (1 - b)
        p = Parameter(P0)
        lr, b1, b2, eps = 0.01, Adam.beta1, Adam.beta2, Adam.eps
        got = _steps(Adam([p], lr=lr), p, GRADS)
        g = GRADS.astype(np.float64)
        want = P0.astype(np.float64)
        for t in range(1, 4):
            w1 = np.array([(1 - b1) * b1 ** (t - i) for i in range(1, t + 1)])
            w2 = np.array([(1 - b2) * b2 ** (t - i) for i in range(1, t + 1)])
            m_hat = w1 @ g[:t] / (1 - b1 ** t)
            v_hat = w2 @ g[:t] ** 2 / (1 - b2 ** t)
            want = want - lr * m_hat / (np.sqrt(v_hat) + eps)
        np.testing.assert_allclose(got, want, rtol=1e-6)

    def test_constant_gradient_moves_lr_per_step(self):
        # with bias correction the first steps are full size: lr * sign(G)
        p = Parameter(P0)
        got = _steps(Adam([p], lr=0.01), p, [G] * 3)
        np.testing.assert_allclose(got, P0 - 3 * 0.01 * np.sign(G), rtol=1e-5)


class _Net(Module):
    def __init__(self):
        super().__init__()
        self.w = Parameter(np.ones(2, dtype=np.float32))
        self.bn = BatchNorm(3)
        self.count = self.register_buffer("count", np.zeros(1, dtype=np.float32))
        self.layers = [BatchNorm(2), BatchNorm(2)]
        self.b = Parameter(np.zeros(2, dtype=np.float32))


class TestStateDict:
    def test_registration_order(self):
        net = _Net()
        assert list(net.state_dict()) == [
            "w", "b",
            "bn.gamma", "bn.beta", "layers.0.gamma", "layers.0.beta",
            "layers.1.gamma", "layers.1.beta",
            "buffer:count",
            "buffer:bn.running_mean", "buffer:bn.running_var",
            "buffer:layers.0.running_mean", "buffer:layers.0.running_var",
            "buffer:layers.1.running_mean", "buffer:layers.1.running_var"]

    def test_entries_are_copies(self):
        net = _Net()
        state = net.state_dict()
        state["w"][:] = 5.0
        state["buffer:count"][:] = 5.0
        np.testing.assert_array_equal(net.w.data, 1.0)
        np.testing.assert_array_equal(net.count, 0.0)
