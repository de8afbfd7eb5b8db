"""Tensor core: ops, tape backward, finite-difference oracle, serialization."""

import os
import sys
import threading
import time
import tracemalloc
import weakref
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from spikegraph import blocks, tensor
from spikegraph.blocks import channel_map, graph_conv
from spikegraph.tensor import (FormatError, InvalidInputError, NumericalError, Tape, Tensor,
                               _bn_stats, _kernel_view,
                               add, backward, batch_norm, concat, conv2d,
                               depthwise_conv2d, div, exp, log,
                               lstm_cell, matmul, max_, mean, mul, permute, record_op,
                               relu, reshape, repeat0, scale, slice_, sqrt,
                               sub, sum_, tensor_from_bytes,
                               tensor_to_bytes, load_tensor, save_tensor)
import oracles
from oracles import grad_check


def rand(*shape, seed=0, scale_=1.0):
    rng = np.random.default_rng(seed)
    return rng.normal(0.0, scale_, size=shape).astype(np.float32)


def zero_bias(cout):
    return Tensor(np.zeros(cout, dtype=np.float32))


def laid_out(a, layout):
    """[B, C, H, W] ``a`` with the same values, C-ordered ("C") or channels
    last in memory ("CL")."""
    if layout == "C":
        return np.ascontiguousarray(a)
    return np.ascontiguousarray(a.transpose(0, 2, 3, 1)).transpose(0, 3, 1, 2)


def taped(op, *args, **kwargs):
    """(op's output, the backward closure it recorded, its worker jobs joined)."""
    with Tape() as tape:
        out = op(*args, **kwargs)
    bwd = tape._records[-1].backward
    return out, lambda *g: oracles.settled(bwd(*g))


class TestMatmul:
    def test_identity(self):
        a = Tensor([[1, 0], [0, 1]])
        b = Tensor([[3, 4], [5, 6]])
        np.testing.assert_allclose(matmul(a, b).data, [[3, 4], [5, 6]])

    def test_hand_arithmetic(self):
        out = matmul(Tensor([[1, 2]]), Tensor([[3], [4]]))
        np.testing.assert_allclose(out.data, [[11]])

    def test_gradient_matches_fd(self):
        a0, b0 = rand(3, 4, seed=1), rand(4, 2, seed=2)

        def f(a, b):
            return sum_(matmul(a, b))

        report = grad_check(f, [Tensor(a0), Tensor(b0)], h=1e-4, tol=1e-5)
        assert report.passed, report

    def test_batched_broadcast(self):
        a = Tensor(rand(2, 3, 4, seed=3))
        b = Tensor(rand(4, 5, seed=4))
        out = matmul(a, b)
        assert out.shape == (2, 3, 5)
        np.testing.assert_allclose(out.data, np.matmul(a.data, b.data), rtol=1e-6)

    def test_shape_mismatch_names_both_shapes(self):
        with pytest.raises(InvalidInputError, match=r"\(2, 3\).*\(4, 2\)"):
            matmul(Tensor(rand(2, 3)), Tensor(rand(4, 2)))


class TestConv2d:
    def test_full_overlap_center(self):
        x = Tensor(np.ones((1, 1, 3, 3), dtype=np.float32))
        w = Tensor(np.ones((1, 1, 3, 3), dtype=np.float32))
        out = conv2d(x, w, zero_bias(1), stride=1, padding=1)
        assert out.shape == (1, 1, 3, 3)
        assert out.data[0, 0, 1, 1] == 9.0

    def test_delta_kernel_is_identity(self):
        for seed in range(5):
            x = Tensor(rand(2, 3, 6, 7, seed=seed))
            w = np.zeros((3, 3, 3, 3), dtype=np.float32)
            for c in range(3):
                w[c, c, 1, 1] = 1.0
            out = conv2d(x, Tensor(w), zero_bias(3), stride=1, padding=1)
            np.testing.assert_array_equal(out.data, x.data)

    def test_gradient_matches_fd_strided(self):
        x0, w0 = rand(2, 3, 5, 5, seed=5), rand(4, 3, 3, 3, seed=6)

        def f(x, w):
            return sum_(conv2d(x, w, zero_bias(4), stride=2, padding=1))

        report = grad_check(f, [Tensor(x0), Tensor(w0)], h=1e-4, tol=1e-5)
        assert report.passed, report

    def test_bias_gradient(self):
        x0, w0, b0 = rand(2, 2, 4, 4, seed=7), rand(3, 2, 3, 3, seed=8), rand(3, seed=9)

        def f(x, w, b):
            return sum_(mul(conv2d(x, w, b, stride=1, padding=1),
                            conv2d(x, w, b, stride=1, padding=1)))

        report = grad_check(f, [Tensor(x0), Tensor(w0), Tensor(b0)], h=1e-4, tol=1e-5)
        assert report.passed, report

    def test_kernel_larger_than_padded_input(self):
        with pytest.raises(InvalidInputError, match="kernel"):
            conv2d(Tensor(rand(1, 1, 2, 2)), Tensor(rand(1, 1, 5, 5)), zero_bias(1),
                   padding=0)

    def test_output_extent_formula(self):
        out = conv2d(Tensor(rand(1, 1, 11, 9)), Tensor(rand(2, 1, 3, 3)), zero_bias(2),
                     stride=2, padding=1)
        assert out.shape == (1, 2, (11 + 2 - 3) // 2 + 1, (9 + 2 - 3) // 2 + 1)

    def test_gradient_matches_fd_temporal_form(self):
        # the temporal conv's form: a (1, 5) kernel, stride (1, 2), padding (0, 2)
        x0, w0, b0 = rand(2, 3, 2, 8, seed=14), rand(4, 3, 1, 5, seed=15), rand(4, seed=16)

        def f(x, w, b):
            y = conv2d(x, w, b, stride=(1, 2), padding=(0, 2))
            return sum_(mul(y, y))

        report = grad_check(f, [Tensor(x0), Tensor(w0), Tensor(b0)], h=1e-4, tol=1e-5)
        assert report.passed, report

    def test_gradient_matches_fd_tap_outside_input(self):
        # H = 1, kh = 3, ph = 1: the kernel's first and last rows read only padding
        x0, w0 = rand(2, 2, 1, 4, seed=17), rand(3, 2, 3, 3, seed=18)

        def f(x, w):
            y = conv2d(x, w, zero_bias(3), stride=1, padding=1)
            return sum_(mul(y, y))

        report = grad_check(f, [Tensor(x0), Tensor(w0)], h=1e-4, tol=1e-5)
        assert report.passed, report

    def test_input_without_gradient(self):
        """x that needs no gradient gets None, and w's gradient is unchanged."""
        x0, w0, g = rand(2, 3, 4, 6, seed=19), rand(4, 3, 3, 3, seed=20), rand(2, 4, 4, 6)
        grads = [taped(conv2d, Tensor(x0, requires_grad=needs), Tensor(w0, requires_grad=True),
                       zero_bias(4), padding=1)[1](g) for needs in (True, False)]
        assert grads[0][0] is not None and grads[1][0] is None
        assert grads[1][1].tobytes() == grads[0][1].tobytes()


# x, w, stride and padding of the sites that call conv2d: the spike
# encoder, the temporal conv at stride 1 and (1, 2), the teacher's temporal
# conv, and the paper plan's temporal conv (batch cut to keep tests short)
CONV_SITES = {
    "encoder": ((8, 3, 25, 16), (3, 3, 3, 3), 1, 1),
    "stc": ((8, 16, 25, 16), (16, 16, 1, 5), 1, (0, 2)),
    "stc_stride2": ((8, 32, 25, 16), (32, 32, 1, 5), (1, 2), (0, 2)),
    "teacher": ((4, 64, 25, 8), (64, 64, 1, 5), (1, 2), (0, 2)),
    "paper": ((2, 128, 25, 32), (128, 128, 1, 5), 1, (0, 2)),
}


class TestConv2dMatchesOracle:
    """The channels-last ``conv2d`` against the padded, C-ordered kernel it
    replaced (``oracles.conv2d``): output, x's and w's gradients byte-identical,
    whatever the layouts of x and of the upstream gradient."""

    @pytest.mark.parametrize("g_layout", ["C", "CL"])
    @pytest.mark.parametrize("x_layout", ["C", "CL"])
    @pytest.mark.parametrize("site", sorted(CONV_SITES))
    def test_byte_identical(self, site, x_layout, g_layout):
        xs, ws, stride, padding = CONV_SITES[site]
        x = Tensor(laid_out(rand(*xs, seed=30), x_layout), requires_grad=True)
        w = Tensor(rand(*ws, seed=31), requires_grad=True)
        b = Tensor(rand(ws[0], seed=32), requires_grad=True)
        out, bwd = taped(conv2d, x, w, b, stride=stride, padding=padding)
        ref, ref_bwd = taped(oracles.conv2d, x, w, b, stride=stride, padding=padding)
        assert out.data.tobytes() == ref.data.tobytes()
        assert np.moveaxis(out.data, 1, -1).flags.c_contiguous
        g = laid_out(rand(*out.shape, seed=33), g_layout)
        (gx, gw, gb), (rx, rw, rb) = bwd(g), ref_bwd(g)
        assert gx.tobytes() == rx.tobytes() and gw.tobytes() == rw.tobytes()
        assert gx.strides == x.data.strides
        np.testing.assert_allclose(gb, g.astype(np.float64).sum(axis=(0, 2, 3)),
                                   rtol=1e-6, atol=1e-6 * np.abs(g).sum() / g.shape[1])


class TestDepthwiseConv2d:
    def test_matches_explicit_per_channel(self):
        x = rand(2, 3, 5, 5, seed=10)
        w = rand(3, 3, 3, seed=11)
        out = depthwise_conv2d(Tensor(x), Tensor(w), padding=1)
        ref = np.zeros_like(out.data)
        for c in range(3):
            full = conv2d(Tensor(x[:, c:c + 1]), Tensor(w[c][None, None]), zero_bias(1),
                          stride=1, padding=1)
            ref[:, c] = full.data[:, 0]
        np.testing.assert_allclose(out.data, ref, rtol=1e-5, atol=1e-6)

    def test_gradient_matches_fd(self):
        x0, w0 = rand(2, 2, 4, 4, seed=12), rand(2, 3, 3, seed=13)

        def f(x, w):
            return sum_(mul(depthwise_conv2d(x, w, padding=1),
                            depthwise_conv2d(x, w, padding=1)))

        report = grad_check(f, [Tensor(x0), Tensor(w0)], h=1e-4, tol=1e-5)
        assert report.passed, report

    def test_gradient_matches_fd_non_square(self):
        x0, w0 = rand(2, 2, 3, 5, seed=22), rand(2, 3, 3, seed=23)

        def f(x, w):
            y = depthwise_conv2d(x, w, padding=1)
            return sum_(mul(y, y))

        report = grad_check(f, [Tensor(x0), Tensor(w0)], h=1e-4, tol=1e-5)
        assert report.passed, report

    def test_input_without_gradient(self):
        """x that needs no gradient gets None, and w's gradient is unchanged."""
        x0, w0, g = rand(2, 3, 4, 6, seed=24), rand(3, 3, 3, seed=25), rand(2, 3, 4, 6)
        grads = [taped(depthwise_conv2d, Tensor(x0, requires_grad=needs),
                       Tensor(w0, requires_grad=True), padding=1)[1](g)
                 for needs in (True, False)]
        assert grads[0][0] is not None and grads[1][0] is None
        assert grads[1][1].tobytes() == grads[0][1].tobytes()

    @pytest.mark.parametrize("g_layout", ["C", "CL"])
    @pytest.mark.parametrize("x_layout", ["C", "CL"])
    @pytest.mark.parametrize("shape", [(4, 128, 25, 8), (4, 256, 25, 4), (2, 3, 4, 6)],
                             ids=["ftm_mid", "ftm_high", "small"])
    def test_matches_oracle(self, shape, x_layout, g_layout):
        """Against the C-ordered kernel it replaced: output and x's gradient
        byte-identical; w's gradient sums in another order, so it must lie
        within 5e-7 of the largest |gw| (about four float32 epsilons) of both
        that kernel's and a float64 reference."""
        x = Tensor(laid_out(rand(*shape, seed=34), x_layout), requires_grad=True)
        w = Tensor(rand(shape[1], 3, 3, seed=35), requires_grad=True)
        out, bwd = taped(depthwise_conv2d, x, w, padding=1)
        ref, ref_bwd = taped(oracles.depthwise_conv2d, x, w, stride=1, padding=1)
        assert out.data.tobytes() == ref.data.tobytes()
        assert np.moveaxis(out.data, 1, -1).flags.c_contiguous
        g = laid_out(rand(*shape, seed=36), g_layout)
        (gx, gw), (rx, rw) = bwd(g), ref_bwd(g)
        assert gx.tobytes() == rx.tobytes() and gx.strides == x.data.strides
        x64 = Tensor(x.data.astype(np.float64), requires_grad=True, dtype=np.float64)
        w64 = Tensor(w.data.astype(np.float64), dtype=np.float64)
        exact = taped(oracles.depthwise_conv2d, x64, w64, stride=1, padding=1)[1](
            g.astype(np.float64))[1]
        for want in (rw, exact):
            assert np.abs(gw - want).max() <= 5e-7 * np.abs(want).max()


class TestBatchNorm:
    def _stats(self, c):
        return np.zeros(c, dtype=np.float32), np.ones(c, dtype=np.float32)

    def test_zero_input_zero_shift(self):
        rm, rv = self._stats(3)
        x = Tensor(np.zeros((4, 3, 2, 2), dtype=np.float32))
        out = batch_norm(x, Tensor(np.ones(3)), Tensor(np.zeros(3)), rm, rv, True)
        np.testing.assert_array_equal(out.data, 0.0)

    def test_unit_variance_pair(self):
        rm, rv = self._stats(1)
        x = Tensor(np.array([-1.0, 1.0], dtype=np.float32).reshape(2, 1, 1, 1))
        out = batch_norm(x, Tensor(np.ones(1)), Tensor(np.zeros(1)), rm, rv, True)
        np.testing.assert_allclose(out.data.reshape(-1), [-1.0, 1.0], atol=1e-4)

    def test_gamma_zero_collapses_to_beta(self):
        rm, rv = self._stats(2)
        x = Tensor(rand(5, 2, 3, 2, seed=14))
        out = batch_norm(x, Tensor(np.zeros(2)), Tensor(np.full(2, 0.7)), rm, rv, True)
        np.testing.assert_allclose(out.data, 0.7, rtol=1e-6)

    def test_batch_statistics_invariant(self):
        rm, rv = self._stats(4)
        x = Tensor(rand(16, 4, 5, 3, seed=15, scale_=3.0))
        out = batch_norm(x, Tensor(np.ones(4)), Tensor(np.zeros(4)), rm, rv, True)
        mu = out.data.mean(axis=(0, 2, 3))
        var = out.data.var(axis=(0, 2, 3))
        assert np.all(np.abs(mu) < 1e-5)
        assert np.all(np.abs(var - 1.0) < 1e-4)

    def test_running_stats_update_and_eval(self):
        rm, rv = self._stats(2)
        x = rand(8, 2, 4, 3, seed=16, scale_=2.0)
        batch_norm(Tensor(x), Tensor(np.ones(2)), Tensor(np.zeros(2)), rm, rv, True)
        mu = x.mean(axis=(0, 2, 3))
        np.testing.assert_allclose(rm, 0.1 * mu, rtol=1e-5, atol=1e-6)
        out = batch_norm(Tensor(x), Tensor(np.ones(2)), Tensor(np.zeros(2)),
                         rm, rv, False)
        stat = (slice(None), None, None)
        expected = (x - rm[stat]) / np.sqrt(rv[stat] + 1e-5)
        np.testing.assert_allclose(out.data, expected, rtol=1e-5, atol=1e-5)

    def test_zero_batch_rejected(self):
        rm, rv = self._stats(2)
        with pytest.raises(InvalidInputError):
            batch_norm(Tensor(np.zeros((0, 2, 3, 3), dtype=np.float32)),
                       Tensor(np.ones(2)), Tensor(np.zeros(2)), rm, rv, True)

    def test_eval_empty_batch_has_zero_gradients(self):
        """Eval mode takes a batch with no rows: x's gradient is empty and
        gamma's and beta's are zero sums."""
        rm, rv = self._stats(2)
        x = Tensor(np.zeros((0, 2, 3, 3), dtype=np.float32), requires_grad=True)
        gamma = Tensor(np.ones(2), requires_grad=True)
        beta = Tensor(np.zeros(2), requires_grad=True)
        with Tape() as tape:
            out = batch_norm(x, gamma, beta, rm, rv, False)
            backward(sum_(out), tape)
        assert out.shape == x.grad.shape == (0, 2, 3, 3)
        np.testing.assert_array_equal(gamma.grad, [0.0, 0.0])
        np.testing.assert_array_equal(beta.grad, [0.0, 0.0])

    @pytest.mark.parametrize("layout", ["contiguous", "channel_last"])
    def test_statistics_at_least_as_accurate_as_numpy(self, layout):
        # paper-plan scale: 102,400 elements per channel around a nonzero
        # mean; against float64, the batch statistics may err at most twice
        # as much as np.mean / np.var on the same float32 array
        rng = np.random.default_rng(23)
        x = rng.normal(3.0, 0.5, size=(4, 16, 4, 25, 64)).astype(np.float32)
        if layout == "channel_last":
            x = np.moveaxis(np.ascontiguousarray(np.moveaxis(x, 2, -1)), -1, 2)
        axes = (0, 1, 3, 4)
        mu64, var64 = x.astype(np.float64).mean(axis=axes), x.astype(np.float64).var(axis=axes)
        mu, var = _bn_stats(_kernel_view(x, True)[0])
        assert mu.dtype == var.dtype == np.float32
        assert np.abs(mu - mu64).max() <= 2 * np.abs(x.mean(axis=axes) - mu64).max()
        assert np.abs(var - var64).max() <= 2 * np.abs(x.var(axis=axes) - var64).max()

    @pytest.mark.parametrize("layout", ["C", "CL"])
    @pytest.mark.parametrize("training", [True, False], ids=["train", "eval"])
    def test_rank3_matches_unit_leading_axis(self, training, layout):
        """x[C, V, T], whose channel axis is axis 0, normalizes as the same
        data with a unit leading axis: output, gradients and running
        statistics byte-identical, with the statistics of the C channels."""
        x4 = laid_out(rand(1, 5, 4, 6, seed=24, scale_=2.0) + 0.5, layout)   # [1, C, V, T]
        w = rand(1, 5, 4, 6, seed=25)
        runs = []
        for xd in (x4[0], x4):
            x = Tensor(xd, requires_grad=True)
            gamma = Tensor(1.0 + 0.2 * rand(5, seed=26), requires_grad=True)
            beta = Tensor(0.3 * rand(5, seed=27), requires_grad=True)
            rm, rv = 0.2 * rand(5, seed=28), 1.0 + np.abs(rand(5, seed=29))
            with Tape() as tape:
                out = batch_norm(x, gamma, beta, rm, rv, training)
                backward(sum_(mul(out, Tensor(w.reshape(xd.shape)))), tape)
            runs.append([out.data.reshape(x4.shape), x.grad.reshape(x4.shape),
                         gamma.grad, beta.grad, rm, rv])
        for got, want in zip(*runs):
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
        rm = 0.2 * rand(5, seed=28)
        want = 0.9 * rm + 0.1 * x4.mean(axis=(0, 2, 3)) if training else rm
        np.testing.assert_allclose(runs[0][4], want, rtol=1e-5, atol=1e-6)

    def test_gradient_matches_fd_training(self):
        x0 = rand(6, 3, 4, 1, seed=17)
        g0 = np.ones(3, dtype=np.float32) + 0.1 * rand(3, seed=18)
        b0 = 0.1 * rand(3, seed=19)

        w = Tensor(rand(6, 3, 4, 1, seed=20))

        def f(x, g, b):
            # the linear term gives x a first-order effect: with the squares
            # alone the loss depends on x only through eps
            rm, rv = self._stats(3)
            y = batch_norm(x, g, b, rm, rv, True)
            return add(sum_(mul(y, w)), sum_(mul(y, y)))

        report = grad_check(f, [Tensor(x0), Tensor(g0), Tensor(b0)], h=1e-4, tol=1e-4)
        assert report.passed, report


class TestLstmCell:
    def _weights(self, in_f, hidden, seed=20, zero=False):
        if zero:
            return [Tensor(np.zeros(s, dtype=np.float32)) for s in
                    [(4 * hidden, in_f), (4 * hidden, hidden), (4 * hidden,), (4 * hidden,)]]
        return [Tensor(rand(4 * hidden, in_f, seed=seed)),
                Tensor(rand(4 * hidden, hidden, seed=seed + 1)),
                Tensor(rand(4 * hidden, seed=seed + 2)),
                Tensor(rand(4 * hidden, seed=seed + 3))]

    def test_zero_fixed_point(self):
        w = self._weights(3, 4, zero=True)
        h, c = lstm_cell(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 4))),
                         Tensor(np.zeros((2, 4))), *w)
        np.testing.assert_array_equal(h.data, 0.0)
        np.testing.assert_array_equal(c.data, 0.0)

    def test_saturated_forget_gate(self):
        # with a huge forget bias f -> 1, so c ~ c_prev + i*g
        in_f, hidden = 2, 3
        w_ih = Tensor(0.3 * rand(4 * hidden, in_f, seed=22))
        w_hh = Tensor(np.zeros((4 * hidden, hidden), dtype=np.float32))
        b = np.zeros(4 * hidden, dtype=np.float32)
        b[hidden:2 * hidden] = 50.0
        x = Tensor(rand(4, in_f, seed=23))
        c_prev = Tensor(rand(4, hidden, seed=24))
        h, c = lstm_cell(x, Tensor(np.zeros((4, hidden))), c_prev,
                         w_ih, w_hh, Tensor(b), Tensor(np.zeros(4 * hidden)))
        z = x.data @ w_ih.data.T
        zi, _, zg, _ = np.split(z, 4, axis=1)
        expected_c = c_prev.data + (1 / (1 + np.exp(-zi))) * np.tanh(zg)
        np.testing.assert_allclose(c.data, expected_c, atol=1e-3)

    def test_gradient_matches_fd(self):
        in_f, hidden, n = 3, 4, 2
        leaves = [Tensor(rand(n, in_f, seed=25)), Tensor(rand(n, hidden, seed=26)),
                  Tensor(rand(n, hidden, seed=27))] + self._weights(in_f, hidden, seed=28)

        def f(x, h0, c0, w_ih, w_hh, b_ih, b_hh):
            h, c = lstm_cell(x, h0, c0, w_ih, w_hh, b_ih, b_hh)
            return add(sum_(h), sum_(mul(c, c)))

        report = grad_check(f, leaves, h=1e-4, tol=1e-4)
        assert report.passed, report

    def test_extent_mismatch(self):
        w = self._weights(3, 4)
        with pytest.raises(InvalidInputError):
            lstm_cell(Tensor(rand(2, 5)), Tensor(np.zeros((2, 4))),
                      Tensor(np.zeros((2, 4))), *w)

    def _stacked(self, p, n, in_f, hidden, seed):
        """Inputs and states [P, N, .] and weights [P, 4H, .] of p cells."""
        leaves = [rand(p, n, in_f, seed=seed), rand(p, n, hidden, seed=seed + 1),
                  rand(p, n, hidden, seed=seed + 2)]
        per_cell = [[w.data for w in self._weights(in_f, hidden, seed=seed + 3 + 4 * k)]
                    for k in range(p)]
        return [Tensor(a) for a in leaves + [np.stack(w) for w in zip(*per_cell)]]

    def test_leading_axis_batches_independent_cells(self):
        # each slice of a batched cell is bit-identical to a cell of its own
        p, n, in_f, hidden = 3, 5, 6, 4
        leaves = self._stacked(p, n, in_f, hidden, seed=40)

        def run(args):
            args = [Tensor(a.data, requires_grad=True) for a in args]
            with Tape() as tape:
                h, c = lstm_cell(*args)
                backward(add(sum_(mul(h, h)), sum_(c)), tape)
            return [h.data, c.data] + [a.grad for a in args]

        batched = run(leaves)
        for k in range(p):
            single = run([Tensor(t.data[k]) for t in leaves])
            for got, want in zip(batched, single):
                np.testing.assert_array_equal(got[k], want)

    def test_batched_gradient_matches_fd(self):
        leaves = self._stacked(2, 3, 3, 2, seed=60)

        def f(*args):
            h, c = lstm_cell(*args)
            return add(sum_(h), sum_(mul(c, c)))

        report = grad_check(f, leaves, h=1e-4, tol=1e-4)
        assert report.passed, report


class TestBackward:
    def test_sum_gives_ones(self):
        x = Tensor(rand(3, 4, seed=30), requires_grad=True)
        with Tape() as tape:
            loss = sum_(x)
            backward(loss, tape)
        np.testing.assert_array_equal(x.grad, np.ones((3, 4), dtype=np.float32))

    def test_quadratic_gives_x(self):
        x = Tensor(rand(5, seed=31), requires_grad=True)
        with Tape() as tape:
            loss = scale(sum_(mul(x, x)), 0.5)
            backward(loss, tape)
        np.testing.assert_allclose(x.grad, x.data, rtol=1e-6)

    def test_composite_chain_matches_fd(self):
        x0 = rand(4, 2, 5, 5, seed=32)
        w0 = rand(3, 2, 3, 3, seed=33)
        g0 = np.ones(3, dtype=np.float32)
        b0 = np.zeros(3, dtype=np.float32)
        m0 = rand(3, 2, seed=34)

        def f(x, w, g, b, m):
            rm = np.zeros(3, dtype=np.float64)
            rv = np.ones(3, dtype=np.float64)
            y = conv2d(x, w, zero_bias(3), stride=1, padding=1)
            y = batch_norm(y, g, b, rm, rv, True)
            y = mean(y, axis=(2, 3))
            return sum_(mul(matmul(y, m), matmul(y, m)))

        leaves = [Tensor(a) for a in (x0, w0, g0, b0, m0)]
        report = grad_check(f, leaves, h=1e-4, tol=1e-4)
        assert report.passed, report

    def test_non_scalar_loss_rejected(self):
        x = Tensor(rand(3, seed=35), requires_grad=True)
        with Tape() as tape:
            y = mul(x, x)
            with pytest.raises(InvalidInputError):
                backward(y, tape)

    def test_unreachable_loss_rejected(self):
        x = Tensor(rand(3, seed=36), requires_grad=True)
        loose = Tensor(np.float32(1.0))
        with Tape() as tape:
            sum_(x)
            with pytest.raises(InvalidInputError):
                backward(loose, tape)

    def test_tape_reset_after_backward(self):
        x = Tensor(rand(3, seed=37), requires_grad=True)
        with Tape() as tape:
            loss = sum_(x)
            backward(loss, tape)
            assert len(tape) == 0

    def test_reused_tensor_accumulates(self):
        x = Tensor(np.array([2.0], dtype=np.float32), requires_grad=True)
        with Tape() as tape:
            loss = sum_(add(mul(x, x), x))
            backward(loss, tape)
        np.testing.assert_allclose(x.grad, [5.0])


def sweep_keeping_tape(loss, tape):
    """The reverse sweep without freeing: every record and every
    intermediate ``grad`` (in the records' gradient slots) is kept until
    the sweep ends."""
    loss.grad = np.ones_like(loss.data)
    for rec in reversed(tape._records):
        gouts = [out.grad for out in rec.outputs]
        if all(g is None for g in gouts):
            continue
        gouts = [np.zeros(shape, dtype) if g is None else g
                 for g, (shape, dtype, _) in zip(gouts, rec.out_specs)]
        gins = rec.backward(*gouts)
        for slot, dtype, g in zip(rec.inputs, rec.in_dtypes,
                                  gins if isinstance(gins, tuple) else (gins,)):
            if g is not None and slot.requires_grad:
                g = g.astype(dtype, copy=False)
                slot.grad = g if slot.grad is None else slot.grad + g


class TestSweepFreesTape:
    @staticmethod
    def fan_out_graph(sweep):
        """Leaf gradients and intermediate outputs of a graph with fan-out:
        ``add(x, x)``, a weight shared by two matmuls and an LSTM state
        whose cell output is unused."""
        rng = np.random.default_rng(47)
        x = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
        w = Tensor(rng.normal(size=(3, 3)), requires_grad=True)
        w_ih = Tensor(rng.normal(size=(12, 3)), requires_grad=True)
        w_hh = Tensor(rng.normal(size=(12, 3)), requires_grad=True)
        b = Tensor(rng.normal(size=12), requires_grad=True)
        zeros = Tensor(np.zeros((4, 3)))
        with Tape() as tape:
            h = matmul(add(x, x), w)
            h = matmul(relu(h), w)
            hs, _ = lstm_cell(h, zeros, zeros, w_ih, w_hh, b, b)
            loss = sum_(mul(slice_(hs, (slice(1, 3),)), hs[1:3]))
            outputs = [out for rec in tape._records for out in rec.outputs]
            sweep(loss, tape)
        return [t.grad for t in (x, w, w_ih, w_hh, b)], outputs, tape

    def test_leaf_grads_bit_identical_and_tape_emptied(self):
        want, _, _ = self.fan_out_graph(sweep_keeping_tape)
        got, outputs, tape = self.fan_out_graph(backward)
        assert len(tape) == 0
        assert outputs and all(out.grad is None for out in outputs)
        for g, ref in zip(got, want):
            assert g.dtype == ref.dtype
            assert g.tobytes() == ref.tobytes()

    def test_backward_peak_stays_near_forward_size(self):
        # 32 chained 1 MiB activations, of which the tape keeps the 31 that
        # a mul's backward reads (sum_ reads only the last one's shape); a
        # sweep that kept every intermediate gradient would need another
        # 32 MiB on top
        mib = 1 << 20
        x = Tensor(np.ones(mib // 4, dtype=np.float32), requires_grad=True)
        tracemalloc.start()
        try:
            with Tape() as tape:
                y = x
                for _ in range(32):
                    y = mul(y, Tensor(1.0))
                loss = sum_(y)
                del y
                forward, _ = tracemalloc.get_traced_memory()
                tracemalloc.reset_peak()
                backward(loss, tape)
                _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert forward >= 31 * mib
        assert peak <= forward + 4 * mib, (forward / mib, peak / mib)


def weight_op(name):
    """(x's shape, w's shape, op(x, w)) of an op whose w gradient is a job."""
    adj = rand(3, 5, 5, seed=60)
    return {
        "channel_map": ((2, 4, 5, 3), (4, 6), channel_map),
        "graph_conv": ((2, 4, 5, 3), (3, 4, 6), lambda x, w: graph_conv(x, adj, w)),
        "conv2d": ((2, 4, 5, 3), (6, 4, 1, 3),
                   lambda x, w: conv2d(x, w, zero_bias(6), padding=(0, 1))),
    }[name]


CHANNEL_MAP_SWEEP = """
import threading
import numpy as np
from spikegraph import blocks, tensor
from spikegraph.blocks import channel_map
from spikegraph.tensor import Tape, Tensor, backward, sum_

ran_on = []

def later(fn, *args):
    def job():
        ran_on.append(threading.current_thread())
        return fn(*args)
    return tensor._later(job)

blocks._later = later

def run():
    x = Tensor(np.ones((2, 4, 5, 3), dtype=np.float32), requires_grad=True)
    w = Tensor(np.ones((4, 6), dtype=np.float32), requires_grad=True)
    with Tape() as tape:
        backward(sum_(channel_map(x, w)), tape)
    job_thread = ran_on.pop()
    if ran_on or job_thread is threading.current_thread():
        raise AssertionError("the sweep's job did not run on its worker")
    return w.grad.tobytes()
"""


class TestWeightGradientJobs:
    """Weight gradients that the worker thread computes (the sweep rule in
    ``tensor``) reach the leaves as the same bytes as when every job runs
    inline, and a sweep that raises leaves no job and no part behind."""

    @staticmethod
    def shared_and_produced(name):
        """Gradients of x1, x2, x3 and w, where w feeds two calls of the op
        directly and a third through ``scale``: w's parts arrive as an
        array and two jobs, and scale's output gets a job before its record
        is swept."""
        xs, ws, op = weight_op(name)
        x = [Tensor(rand(*xs, seed=61 + i), requires_grad=True) for i in range(3)]
        w = Tensor(rand(*ws, seed=64), requires_grad=True)
        with Tape() as tape:
            loss = sum_(mul(add(op(x[0], w), op(x[1], w)), op(x[2], scale(w, 0.5))))
            backward(loss, tape)
        return [t.grad for t in x + [w]]

    @pytest.mark.parametrize("name", ["channel_map", "graph_conv", "conv2d"])
    def test_shared_and_produced_weight_equals_inline(self, name, monkeypatch):
        jobs = oracles.submitted_jobs(monkeypatch)
        got = self.shared_and_produced(name)
        oracles.inline_jobs(monkeypatch)
        want = self.shared_and_produced(name)
        assert len(jobs) == 3
        for g, ref in zip(got, want):
            assert type(g) is np.ndarray and g.dtype == ref.dtype
            assert g.tobytes() == ref.tobytes()

    def test_raising_sweep_joins_every_job(self, monkeypatch):
        jobs = oracles.submitted_jobs(monkeypatch)
        x0 = Tensor(rand(2, 4, 5, 3, seed=65), requires_grad=True)
        w = Tensor(rand(4, 6, seed=66), requires_grad=True)

        def diverging(g):
            tensor._later(time.sleep, 0.2)
            raise NumericalError("non-finite gradient")

        with Tape() as tape:
            x = Tensor._wrap(x0.data.copy())
            record_op((x0,), (x,), diverging)
            y = channel_map(x, w)
            loss = sum_(y)
            with pytest.raises(NumericalError):
                backward(loss, tape)
        assert len(jobs) == 2 and all(job.done() for job in jobs)
        assert type(w.grad) is np.ndarray
        assert all(t.grad is None for t in (x0, x, y))

    @pytest.mark.parametrize("raises", [False, True], ids=["returns", "raises"])
    def test_sweep_waits_only_for_its_own_jobs(self, raises, monkeypatch):
        # another thread's sweep is blocked in a job of its own until
        # released: a sweep that shared its worker, or joined every job,
        # would wait for it
        jobs = oracles.submitted_jobs(monkeypatch)
        submitted, release = threading.Event(), threading.Event()
        outside = []

        def blocked_sweep():
            x0 = Tensor(rand(3, seed=67), requires_grad=True)

            def blocking(g):
                outside.append(tensor._later(release.wait, 20))
                submitted.set()
                return (g,)

            with Tape() as tape:
                x = Tensor._wrap(x0.data.copy())
                record_op((x0,), (x,), blocking)
                backward(sum_(x), tape)

        x0 = Tensor(rand(2, 4, 5, 3, seed=65), requires_grad=True)
        w = Tensor(rand(4, 6, seed=66), requires_grad=True)

        def first(g):
            tensor._later(time.sleep, 0.2)
            if raises:
                raise NumericalError("non-finite gradient")
            return (g,)

        other = threading.Thread(target=blocked_sweep)
        other.start()
        try:
            assert submitted.wait(20)
            with Tape() as tape:
                x = Tensor._wrap(x0.data.copy())
                record_op((x0,), (x,), first)
                loss = sum_(channel_map(x, w))
                if raises:
                    with pytest.raises(NumericalError):
                        backward(loss, tape)
                else:
                    backward(loss, tape)
            own = [job for job in jobs if job not in outside]
            assert len(own) == 2 and all(job.done() for job in own)
            assert len(outside) == 1 and not outside[0].done()
        finally:
            release.set()
            other.join(timeout=20)
        assert not other.is_alive() and outside[0].done()
        assert outside[0].result() is True
        assert type(w.grad) is np.ndarray
        assert (x0.grad is None) == raises

    def test_sweeps_on_several_threads_use_their_own_workers(self, monkeypatch):
        # more sweeping threads than cores, switching often: each sweep
        # submits to a worker of its own, and each thread's gradients are
        # the inline bytes
        oracles.inline_jobs(monkeypatch)
        want = [g.tobytes() for g in self.shared_and_produced("graph_conv")]
        monkeypatch.undo()
        workers = []        # (sweeping thread, threads that submitted to it)

        class Worker(ThreadPoolExecutor):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                self.submitters = set()
                workers.append((threading.get_ident(), self.submitters))

            def submit(self, fn, *args):
                self.submitters.add(threading.get_ident())
                return super().submit(fn, *args)

        monkeypatch.setattr(tensor, "ThreadPoolExecutor", Worker)
        results = []

        def sweeps():
            for _ in range(5):
                results.append([g.tobytes() for g in self.shared_and_produced("graph_conv")])

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=sweeps) for _ in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert len(results) == 20 and all(r == want for r in results)
        assert len(workers) == 20
        assert all(submitters == {sweeper} for sweeper, submitters in workers)

    def test_later_outside_a_sweep_runs_at_once(self):
        a = rand(3, 4, seed=68)
        got = tensor._later(np.multiply, a, 2.0)
        assert type(got) is np.ndarray and got.tobytes() == (a * 2.0).tobytes()
        assert tensor._later(threading.get_ident) == threading.get_ident()

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork")
    def test_forked_child_runs_its_jobs_on_its_own_worker(self):
        # the child has none of the threads of the parent's sweep: its own
        # sweep must make a worker of its own, or it would hang
        assert oracles.forked_child(CHANNEL_MAP_SWEEP) == ["child", "0"]


class TestTapeKeepsOnlyWhatBackwardReads:
    """An input whose array an op's backward does not read is freed once
    the caller drops it, though the op's record is still on the tape."""

    OPS = {
        "add": lambda y, p: add(y, p["b"]),
        "sub": lambda y, p: sub(p["b"], y),
        "scale": lambda y, p: scale(y, 3.0),
        "reshape": lambda y, p: reshape(y, (2, -1)),
        "permute": lambda y, p: permute(y, (0, 2, 3, 1)),
        "slice_": lambda y, p: slice_(y, (slice(None), slice(1, 3))),
        "concat": lambda y, p: concat([p["b"], y], axis=1),
        "repeat0": lambda y, p: repeat0(y, 3),
        "sum_": lambda y, p: sum_(y, axis=(1, 3)),
        "mean": lambda y, p: mean(y, axis=2),
        "conv2d": lambda y, p: conv2d(y, p["w"], p["bias"], stride=(1, 2), padding=(0, 1)),
        "depthwise_conv2d": lambda y, p: depthwise_conv2d(y, p["dw"], padding=1),
    }

    @classmethod
    def run(cls, name, drop):
        """(whether y's array died, the leaf gradients) for loss =
        sum(op(y)), y = x * c; with ``drop`` y and op(y) are dropped
        before the sweep."""
        x = Tensor(rand(2, 3, 4, 5, seed=60), requires_grad=True)
        c = Tensor(rand(2, 3, 4, 5, seed=61))
        params = {"b": Tensor(rand(2, 3, 4, 5, seed=62), requires_grad=True),
                  "w": Tensor(rand(4, 3, 1, 3, seed=63), requires_grad=True),
                  "bias": Tensor(rand(4, seed=64), requires_grad=True),
                  "dw": Tensor(rand(3, 3, 3, seed=65), requires_grad=True)}
        with Tape() as tape:
            y = mul(x, c)
            alive = weakref.ref(y.data)
            z = cls.OPS[name](y, params)
            loss = sum_(z)
            if drop:
                del y, z
            died = alive() is None
            backward(loss, tape)
        return died, [t.grad for t in (x, *params.values()) if t.grad is not None]

    @pytest.mark.parametrize("name", sorted(OPS))
    def test_dropped_input_is_freed_and_grads_unchanged(self, name):
        died, got = self.run(name, drop=True)
        kept, want = self.run(name, drop=False)
        assert died and not kept
        assert len(got) == len(want) >= 1
        for g, w in zip(got, want):
            assert g.dtype == w.dtype and g.tobytes() == w.tobytes()


class TestIntegerInput:
    """Every op on uint8 input (spikes and their sums) against the same
    values in float32: where it does arithmetic it returns float32 with
    the float path's bytes, a shape op keeps uint8, and the input's
    gradient is float32 with the float path's bytes."""

    # op -> (op of x, whether it keeps uint8); x is [2, 3, 4, 5] of 1..3
    OPS = {
        "add": (lambda x: add(x, x), True),
        "sub": (lambda x: sub(x[:, :1], x), False),
        "mul": (lambda x: mul(x, x), False),
        "div": (lambda x: div(x, x[:, :1]), False),
        "scale": (lambda x: scale(x, 0.3), False),
        "exp": (lambda x: exp(x), False),
        "log": (lambda x: log(x), False),
        "sqrt": (lambda x: sqrt(x), False),
        "relu": (lambda x: relu(x), False),
        "sum_": (lambda x: sum_(x, axis=(1, 3)), False),
        "mean": (lambda x: mean(x, axis=2), False),
        "max_": (lambda x: max_(x, axis=3), False),
        "reshape": (lambda x: reshape(x, (6, -1)), True),
        "permute": (lambda x: permute(x, (0, 2, 3, 1)), True),
        "concat": (lambda x: concat([x, x[:, :1]], axis=1), True),
        "slice_": (lambda x: slice_(x, (slice(None), slice(1, 3))), True),
        "repeat0": (lambda x: repeat0(x, 2), True),
        "matmul": (lambda x: matmul(x, permute(x, (0, 1, 3, 2))), False),
        "conv2d": (lambda x: conv2d(x, Tensor(rand(4, 3, 1, 3, seed=70)), zero_bias(4),
                                    stride=(1, 2), padding=(0, 1)), False),
        "depthwise_conv2d": (lambda x: depthwise_conv2d(x, Tensor(rand(3, 3, 3, seed=71)),
                                                        padding=1), False),
        "batch_norm": (lambda x: batch_norm(x, Tensor(rand(3, seed=72)),
                                            Tensor(rand(3, seed=73)), np.zeros(3, np.float32),
                                            np.ones(3, np.float32), training=True), False),
        "lstm_cell": (lambda x: lstm_cell(x, Tensor(np.zeros((2, 3, 2), np.float32)),
                                          Tensor(np.zeros((2, 3, 2), np.float32)),
                                          Tensor(rand(2, 8, 5, seed=74)),
                                          Tensor(rand(2, 8, 2, seed=75)),
                                          Tensor(rand(2, 8, seed=76)),
                                          Tensor(rand(2, 8, seed=77)))[0], False),
    }

    @staticmethod
    def run(op, xd):
        x = Tensor(xd, requires_grad=True, dtype=xd.dtype)
        with Tape() as tape:
            out = op(x)
            g = np.random.default_rng(78).normal(size=out.shape).astype(np.float32)
            backward(sum_(mul(out, Tensor(g))), tape)
        return out.data, x.grad

    @pytest.mark.parametrize("name", sorted(OPS))
    def test_against_float(self, name):
        op, keeps = self.OPS[name]
        shape = (2, 3, 5) if name == "lstm_cell" else (2, 3, 4, 5)
        xd = np.random.default_rng(79).integers(1, 4, size=shape).astype(np.uint8)
        out, grad = self.run(op, xd)
        ref, ref_grad = self.run(op, xd.astype(np.float32))
        assert out.dtype == (np.uint8 if keeps else np.float32)
        assert out.astype(np.float32).tobytes() == ref.tobytes()
        assert grad.dtype == np.float32 and grad.tobytes() == ref_grad.tobytes()

    def test_add_does_not_wrap(self):
        a = Tensor(np.full((2, 3), 200, np.uint8), dtype=np.uint8)
        total = add(a, a)
        assert total.dtype == np.float32
        np.testing.assert_array_equal(total.data, np.full((2, 3), 400.0))
        assert add(a, Tensor(np.full(3, 55, np.uint8), dtype=np.uint8)).dtype == np.uint8

    def test_spike_mean_is_float32(self):
        x = Tensor(np.ones((7, 3), np.uint8), dtype=np.uint8)
        assert mean(x).dtype == np.float32 and mean(x).item() == 1.0


def test_closure_bytes_counts_each_base_array_once():
    a = Tensor(rand(4, 8, seed=80), requires_grad=True)
    b = Tensor(rand(8, 3, seed=81), requires_grad=True)
    with Tape() as tape:
        matmul(a, b)
        matmul(a[1:3], b)                # a view of a: counted already
        sum_(a)                          # holds shapes only
    assert oracles.closure_bytes(tape) == {"matmul": a.data.nbytes + b.data.nbytes}


class TestGradCheckOracle:
    def test_linear_is_exact(self):
        x0 = rand(4, seed=38)

        def f(x):
            return sum_(scale(x, 3.0))

        report = grad_check(f, [Tensor(x0)], h=1e-4, tol=1e-3)
        assert report.max_rel_error < 1e-8

    def test_quadratic_small_error(self):
        x0 = rand(4, seed=39)

        def f(x):
            return sum_(mul(x, x))

        report = grad_check(f, [Tensor(x0)], h=1e-4, tol=1e-3)
        assert report.max_rel_error < 1e-6

    def test_h_must_be_positive(self):
        with pytest.raises(InvalidInputError):
            grad_check(lambda x: sum_(x), [Tensor(rand(2, seed=40))], h=0.0)

    def test_nonfinite_gradient_reported(self):
        def f(x):
            return sum_(log(x))

        x0 = np.zeros(2, dtype=np.float32)
        with np.errstate(divide="ignore"):
            report = grad_check(f, [Tensor(x0)], h=1e-6)
        assert not report.passed and "non-finite" in report.note


class TestRelu:
    def test_equals_where_form_and_keeps_layout(self):
        a = np.moveaxis(rand(2, 3, 4, 5, seed=50), 1, -1)     # not C-ordered
        out = relu(Tensor(a))
        np.testing.assert_array_equal(out.data, np.where(a > 0, a, np.float32(0)))
        assert out.data.dtype == a.dtype and out.data.strides == a.strides

    def test_nan_propagates(self):
        """NaN is not zeroed, so a diverging input reaches the loss check."""
        out = relu(Tensor(np.array([np.nan, -1.0, 2.0], dtype=np.float32)))
        assert np.isnan(out.data[0]) and out.data[1:].tolist() == [0.0, 2.0]


class TestElementwiseAndShape:
    def test_random_composition_matches_fd(self):
        # smooth-only chains across the vocabulary, randomized shapes
        rng = np.random.default_rng(41)
        for trial in range(5):
            shape = tuple(rng.integers(2, 5, size=3))
            x0 = rng.normal(size=shape).astype(np.float32)
            y0 = rng.normal(size=shape).astype(np.float32)

            def f(x, y):
                a = add(mul(x, y), scale(x, 0.5))
                b = exp(scale(a, 0.3))
                c = log(add(b, Tensor(np.ones(shape))))
                d = permute(c, (2, 0, 1))
                e = reshape(d, (shape[2], -1))
                return add(sum_(e), mean(mul(e, e)))

            report = grad_check(f, [Tensor(x0), Tensor(y0)], h=1e-4, tol=1e-5)
            assert report.passed, (trial, report)

    def test_div_sqrt_relu_gradients(self):
        x0 = np.abs(rand(3, 3, seed=42)) + 0.5
        y0 = np.abs(rand(3, 3, seed=43)) + 0.5

        def f(x, y):
            return sum_(add(div(x, y), add(sqrt(x), relu(sub(x, y)))))

        report = grad_check(f, [Tensor(x0), Tensor(y0)], h=1e-4, tol=1e-4)
        assert report.passed, report

    @pytest.mark.parametrize("layout", ["C", "CL", "F"])
    def test_repeat_keeps_its_input_layout(self, layout):
        """repeat0's copies are laid out as its input, the new axis
        outermost; its gradient is the sum over that axis, as a C-ordered
        output's was."""
        x0 = rand(2, 3, 4, 5, seed=47)
        xd = np.asfortranarray(x0) if layout == "F" else laid_out(x0, layout)
        out, bwd = taped(repeat0, Tensor(xd, requires_grad=True), 3)
        assert out.data.strides == (xd.nbytes,) + xd.strides
        assert out.data.tobytes() == np.broadcast_to(x0, (3,) + x0.shape).tobytes()
        g = rand(3, 2, 3, 4, 5, seed=48)
        want = g.sum(axis=0)
        g_cl = np.ascontiguousarray(g.transpose(0, 2, 3, 4, 1)).transpose(0, 4, 1, 2, 3)
        for gd in (g, g_cl):
            assert bwd(gd)[0].tobytes() == want.tobytes()

    def test_concat_slice_repeat(self):
        x0, y0 = rand(2, 3, seed=44), rand(2, 3, seed=45)

        def f(x, y):
            c = concat([x, y], axis=0)
            s = slice_(c, (slice(1, 3), slice(None)))
            r = repeat0(s, 2)
            return sum_(mul(r, r))

        report = grad_check(f, [Tensor(x0), Tensor(y0)], h=1e-4, tol=1e-5)
        assert report.passed, report

    def test_max_reduction_gradient(self):
        x0 = rand(4, 5, seed=46)

        def f(x):
            return sum_(max_(x, axis=1))

        report = grad_check(f, [Tensor(x0)], h=1e-5, tol=1e-3)
        assert report.passed, report


class TestLargerRandomizedChains:
    def test_fuzzed_shapes_up_to_1e4_elements(self):
        rng = np.random.default_rng(48)
        for trial in range(3):
            b = int(rng.integers(2, 5))
            c = int(rng.integers(2, 4))
            h = int(rng.integers(6, 12))
            w = int(rng.integers(6, 12))
            x = Tensor(rng.normal(size=(b, c, h, w)).astype(np.float32),
                       requires_grad=True)
            wconv = Tensor(rng.normal(size=(4, c, 3, 3)).astype(np.float32) * 0.2,
                           requires_grad=True)
            with Tape() as tape:
                y = conv2d(x, wconv, zero_bias(4), stride=1, padding=1)
                loss = mean(mul(y, y))
                backward(loss, tape)
            assert x.grad is not None and np.isfinite(x.grad).all()
            assert wconv.grad is not None and np.isfinite(wconv.grad).all()


class TestSerialization:
    def test_round_trip_bytes(self):
        t = Tensor(rand(3, 4, 5, seed=49))
        blob = tensor_to_bytes(t)
        assert blob[:4] == b"SGT1"
        back = tensor_from_bytes(blob)
        np.testing.assert_array_equal(back.data, t.data)

    def test_header_layout(self):
        import struct
        t = Tensor(np.arange(6, dtype=np.float32).reshape(2, 3))
        blob = tensor_to_bytes(t)
        rank = struct.unpack_from("<I", blob, 4)[0]
        assert rank == 2
        assert struct.unpack_from("<2I", blob, 8) == (2, 3)
        first = struct.unpack_from("<f", blob, 16)[0]
        assert first == 0.0

    def test_file_round_trip(self, tmp_path):
        t = Tensor(rand(7, seed=50))
        path = tmp_path / "t.sgt"
        save_tensor(path, t)
        np.testing.assert_array_equal(load_tensor(path).data, t.data)

    def test_bad_magic_rejected(self):
        with pytest.raises(FormatError):
            tensor_from_bytes(b"NOPE" + b"\x00" * 16)

    def test_payload_must_match_header(self):
        blob = tensor_to_bytes(Tensor(rand(3, 4, seed=51)))
        for bad in (blob[:6], blob[:10], blob[:-4], blob + b"\0" * 4):
            with pytest.raises(FormatError, match="bad tensor blob"):
                tensor_from_bytes(bad)
