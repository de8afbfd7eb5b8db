"""Tensor core: ops, tape backward, finite-difference oracle, serialization."""

import tracemalloc

import numpy as np
import pytest

from spikegraph.tensor import (DimensionError, InvalidInputError, Tape, Tensor,
                               _bn_stats, _memory_view,
                               add, backward, batch_norm, concat, conv2d,
                               depthwise_conv2d, div, exp, log,
                               lstm_cell, matmul, max_, mean, mul, permute,
                               relu, reshape, repeat0, scale, slice_, sqrt,
                               sub, sum_, tensor_from_bytes,
                               tensor_to_bytes, load_tensor, save_tensor)
from oracles import grad_check


def rand(*shape, seed=0, scale_=1.0):
    rng = np.random.default_rng(seed)
    return rng.normal(0.0, scale_, size=shape).astype(np.float32)


def zero_bias(cout):
    return Tensor(np.zeros(cout, dtype=np.float32))


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
        with pytest.raises(DimensionError, match=r"\(2, 3\).*\(4, 2\)"):
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
        with pytest.raises(DimensionError, match="kernel"):
            conv2d(Tensor(rand(1, 1, 2, 2)), Tensor(rand(1, 1, 5, 5)), zero_bias(1),
                   padding=0)

    def test_output_extent_formula(self):
        out = conv2d(Tensor(rand(1, 1, 11, 9)), Tensor(rand(2, 1, 3, 3)), zero_bias(2),
                     stride=2, padding=1)
        assert out.shape == (1, 2, (11 + 2 - 3) // 2 + 1, (9 + 2 - 3) // 2 + 1)


class TestDepthwiseConv2d:
    def test_matches_explicit_per_channel(self):
        x = rand(2, 3, 5, 5, seed=10)
        w = rand(3, 3, 3, seed=11)
        out = depthwise_conv2d(Tensor(x), Tensor(w), stride=1, padding=1)
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
        mu, var = _bn_stats(_memory_view(x, 2)[0])
        assert mu.dtype == var.dtype == np.float32
        assert np.abs(mu - mu64).max() <= 2 * np.abs(x.mean(axis=axes) - mu64).max()
        assert np.abs(var - var64).max() <= 2 * np.abs(x.var(axis=axes) - var64).max()

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
        with pytest.raises(DimensionError):
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
    intermediate ``grad`` is kept until the sweep ends."""
    loss.grad = np.ones_like(loss.data)
    for rec in reversed(tape._records):
        gouts = [out.grad for out in rec.outputs]
        if all(g is None for g in gouts):
            continue
        gouts = [np.zeros_like(out.data) if g is None else g
                 for g, out in zip(gouts, rec.outputs)]
        gins = rec.backward(*gouts)
        for t, g in zip(rec.inputs, gins if isinstance(gins, tuple) else (gins,)):
            if g is not None and t.requires_grad:
                g = g.astype(t.data.dtype, copy=False)
                t.grad = g if t.grad is None else t.grad + g


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
        # 32 chained 1 MiB activations; a sweep that kept every
        # intermediate gradient would need another 32 MiB on top
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
        assert forward >= 32 * mib
        assert peak <= forward + 4 * mib, (forward / mib, peak / mib)


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
        with pytest.raises(InvalidInputError):
            tensor_from_bytes(b"NOPE" + b"\x00" * 16)

    def test_payload_must_match_header(self):
        blob = tensor_to_bytes(Tensor(rand(3, 4, seed=51)))
        for bad in (blob[:6], blob[:10], blob[:-4], blob + b"\0" * 4):
            with pytest.raises(InvalidInputError, match="bad tensor blob"):
                tensor_from_bytes(bad)
