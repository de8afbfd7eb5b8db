"""LIF dynamics, surrogate gradient, spike-step unrolling."""

import contextlib
import tracemalloc
import weakref

import numpy as np
import pytest

from spikegraph import tensor
from spikegraph.blocks import channel_map, graph_conv
from spikegraph.module import BatchNorm
from spikegraph.neurons import LifConfig, bn_sn_layer, sn_layer
from spikegraph.tensor import (InvalidInputError, NumericalError, Tape, Tensor,
                               add, backward, conv2d, mean, mul, permute,
                               record_op, reshape, sum_)
from oracles import (V_RESET, _lif_backward, _lif_forward, channel_rows, firing_rate,
                     grad_check, lif_step, spike)


CFG = LifConfig()


class TestLifConfig:
    def test_defaults_match_model_card(self):
        assert CFG.v_threshold == 1.0
        assert CFG.decay_tau == 0.25

    @pytest.mark.parametrize("kwargs", [
        dict(v_threshold=0.0),
        dict(decay_tau=0.0),
        dict(decay_tau=1.5),
    ])
    def test_invalid_configs_rejected(self, kwargs):
        with pytest.raises(InvalidInputError):
            LifConfig(**kwargs)


class TestLifStep:
    def test_resting_neuron(self):
        s, v = lif_step(Tensor([0.0]), Tensor([0.0]), CFG)
        assert s.data[0] == 0.0
        assert v.data[0] == 0.0

    def test_suprathreshold_reset(self):
        s, v = lif_step(Tensor([1.5]), Tensor([0.0]), CFG)
        assert s.data[0] == 1.0
        assert v.data[0] == 0.0

    def test_subthreshold_geometric_accumulation(self):
        v = Tensor([0.0])
        seen = []
        for _ in range(30):
            s, v = lif_step(Tensor([0.5]), v, CFG)
            seen.append((s.data[0], v.data[0]))
        assert all(s == 0.0 for s, _ in seen)
        np.testing.assert_allclose(seen[0][1], 0.5)
        np.testing.assert_allclose(seen[1][1], 0.625)
        np.testing.assert_allclose(seen[-1][1], 0.5 / (1 - 0.25), rtol=1e-5)

    def test_shape_mismatch(self):
        with pytest.raises(InvalidInputError):
            lif_step(Tensor(np.zeros(3)), Tensor(np.zeros(4)), CFG)

    def test_nonfinite_membrane_raises(self):
        with pytest.raises(NumericalError):
            lif_step(Tensor([np.inf]), Tensor([0.0]), CFG)


class TestSpikeNonlinearity:
    def test_boundary_inclusive(self):
        out = spike(Tensor([CFG.v_threshold]), CFG)
        assert out.data[0] == 1.0

    def test_window_arithmetic(self):
        # |0.4 - 1.0| = 0.6 > 0.5: forward 0, surrogate grad 0
        # |0.8 - 1.0| = 0.2 <= 0.5: forward 0, surrogate grad 1/a = 1.0
        x = Tensor(np.array([0.4, 0.8], dtype=np.float32), requires_grad=True)
        with Tape() as tape:
            out = spike(x, CFG)
            assert out.data.tolist() == [0.0, 0.0]
            backward(sum_(out), tape)
        np.testing.assert_allclose(x.grad, [0.0, 1.0])

    def test_relaxed_forward_is_clipped_linear(self):
        x = Tensor(np.array([-1.0, 0.5, 1.0, 1.5, 3.0], dtype=np.float32))
        out = spike(x, CFG, relaxed=True)
        np.testing.assert_allclose(out.data, [0.0, 0.0, 0.5, 1.0, 1.0])


class TestSnLayer:
    def test_all_zero_input(self):
        x = Tensor(np.zeros((4, 2, 3), dtype=np.float32))
        out = sn_layer(x, CFG)
        assert firing_rate(out) == 0.0
        np.testing.assert_array_equal(out.data, 0.0)

    def test_constant_two_fires_every_step(self):
        x = Tensor(np.full((4, 2, 3), 2.0, dtype=np.float32))
        out = sn_layer(x, CFG)
        np.testing.assert_array_equal(out.data, 1.0)
        assert firing_rate(out) == 1.0

    def test_binarity_for_random_inputs(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            x = Tensor(rng.normal(0, 2, size=(3, 4, 5)).astype(np.float32))
            out = sn_layer(x, CFG)
            assert np.isin(out.data, (0.0, 1.0)).all()

    def test_empty_step_axis_rejected(self):
        with pytest.raises(InvalidInputError):
            sn_layer(Tensor(np.zeros((0, 3))), CFG)

    def test_no_tape_keeps_no_membrane_history(self):
        x = Tensor(np.random.default_rng(9).normal(0.5, 1.0, size=(4, 1, 256, 25, 64))
                   .astype(np.float32))
        step = x.data[0].nbytes
        for requires_grad, taped in ((False, False), (True, False), (False, True)):
            x.requires_grad = requires_grad
            tracemalloc.start()
            try:
                base = tracemalloc.get_traced_memory()[0]
                if taped:
                    with Tape():
                        out = sn_layer(x, CFG)
                else:
                    out = sn_layer(x, CFG)
                peak = tracemalloc.get_traced_memory()[1] - base
            finally:
                tracemalloc.stop()
            assert peak < out.data.nbytes + 3 * step, (requires_grad, taped)

    def test_nonfinite_input_raises(self):
        for value in (np.nan, np.inf, -np.inf):
            for step in (0, -1):
                x = np.zeros((3, 2, 4, 3, 3), dtype=np.float32)
                x[step, 1, 2, 0, 1] = value
                with pytest.raises(NumericalError):
                    sn_layer(Tensor(x), CFG)

    def test_reset_is_exact(self):
        # after any spike the carried potential is exactly the reset, 0
        rng = np.random.default_rng(1)
        x = Tensor(rng.normal(0.8, 0.8, size=(6, 32)).astype(np.float32))
        v = Tensor(np.zeros(32, dtype=np.float32))
        for s_idx in range(6):
            spk, v = lif_step(Tensor(x.data[s_idx]), v, CFG)
            fired = spk.data == 1.0
            assert np.all(v.data[fired] == V_RESET)

    def test_monotone_in_input_per_step(self):
        rng = np.random.default_rng(2)
        v_prev = Tensor(rng.normal(size=40).astype(np.float32))
        lo = rng.normal(size=40).astype(np.float32)
        hi = lo + np.abs(rng.normal(size=40)).astype(np.float32)
        s_lo, _ = lif_step(Tensor(lo), v_prev, CFG)
        s_hi, _ = lif_step(Tensor(hi), v_prev, CFG)
        assert np.all(s_lo.data <= s_hi.data)


class TestSnLayerMatchesLifSteps:
    """The fused ``sn_layer`` against S composed ``lif_step`` calls."""

    CONFIGS = {
        "default": LifConfig(),
        "custom": LifConfig(v_threshold=0.7, decay_tau=0.6),
    }

    @staticmethod
    def _grads(cfg, relaxed, x0, weights):
        fused = Tensor(x0, requires_grad=True)
        with Tape() as tape:
            out = sn_layer(fused, cfg, relaxed=relaxed)
            backward(sum_(mul(out, Tensor(weights))), tape)
        ref = Tensor(x0, requires_grad=True)
        v = Tensor(np.full(x0.shape[1:], V_RESET, dtype=np.float32))
        steps = []
        with Tape() as tape:
            loss = None
            for s in range(x0.shape[0]):
                spk, v = lif_step(ref[s], v, cfg, relaxed=relaxed)
                steps.append(spk.data)
                term = sum_(mul(spk, Tensor(weights[s])))
                loss = term if loss is None else add(loss, term)
            backward(loss, tape)
        return out.data, np.stack(steps), fused.grad, ref.grad

    @pytest.mark.parametrize("relaxed", [False, True], ids=["hard", "relaxed"])
    @pytest.mark.parametrize("name", sorted(CONFIGS))
    def test_spikes_identical_and_gradients_close(self, name, relaxed):
        rng = np.random.default_rng(4)
        x0 = rng.normal(0.6, 0.8, size=(6, 3, 5, 4)).astype(np.float32)
        weights = rng.normal(size=x0.shape).astype(np.float32)
        out, ref_out, grad, ref_grad = self._grads(self.CONFIGS[name], relaxed,
                                                   x0, weights)
        np.testing.assert_array_equal(out, ref_out)
        assert np.abs(ref_grad).max() > 0
        assert np.abs(grad - ref_grad).max() <= 1e-6 * np.abs(ref_grad).max()


def _sn_layouts(s, rng):
    """[S, ...] currents in each memory order that reaches ``sn_layer``."""
    x = Tensor(rng.normal(0.3, 1.0, size=(s, 2, 3, 5, 6)).astype(np.float32))
    w = Tensor(rng.normal(size=(3, 4)).astype(np.float32))
    adj = np.abs(rng.normal(size=(2, 5, 5))).astype(np.float32)
    wg = Tensor(rng.normal(0.0, 0.6, size=(2, 3, 4)).astype(np.float32))
    return {
        "contiguous": rng.normal(0.6, 1.0, size=(s, 2, 4, 5, 6)).astype(np.float32),
        "channel_map": channel_map(x, w).data,              # [S, B, V, T, C] in memory
        "graph_conv": graph_conv(x, adj, wg).data,          # [S, B, T, V, C] in memory
        # SMIC's spike input [S, P, B, H, T], laid out [P, S, B, H, T]
        "smic": np.float32(rng.normal(0.6, 1.0, size=(3, s, 2, 4, 6))).transpose(1, 0, 2, 3, 4),
    }


def _handing_on(t, g):
    """Identity op whose backward hands ``g`` on in its own memory order."""
    out = Tensor._wrap(t.data)
    record_op((t,), out, lambda _: (g,))
    return out


def _as_layout(a, like):
    """``a``'s values in an array laid out in memory as ``like``."""
    out = np.empty_like(like)
    out[...] = a
    return out


def _steps_outermost(a, dtype):
    """The strides of a dense array of ``a``'s shape and ``dtype`` laid out
    as ``a`` with axis 0 moved outermost."""
    order = (0, *(i for i in tensor._memory_order(a.strides) if i))
    dense = np.empty([a.shape[i] for i in order], dtype=dtype)
    return dense.transpose(np.argsort(order)).strides


class TestSnLayerMatchesParentLoop:
    """``sn_layer`` against the earlier whole-step loop (``oracles``) in
    every input layout: input gradients byte-identical, the spikes equal to
    the loop's, as ``uint8`` (hard) or byte-identical floats (relaxed), and
    laid out steps outermost, the other axes as in the input (the SMIC
    input, whose pairs are outermost, is read as one copy)."""

    LAYOUTS = ("contiguous", "channel_map", "graph_conv", "smic")

    def test_layouts_are_as_named(self):
        xs = _sn_layouts(3, np.random.default_rng(0))
        assert xs["contiguous"].flags.c_contiguous
        for name in ("channel_map", "graph_conv"):
            assert xs[name].strides[2] == 4, name                 # channels innermost
        assert xs["graph_conv"].strides[4] > xs["graph_conv"].strides[3]
        assert xs["smic"].strides[1] > xs["smic"].strides[0]    # S is not outermost

    @pytest.mark.parametrize("grad_layout", ["c_order", "as_input"])
    @pytest.mark.parametrize("relaxed", [False, True], ids=["hard", "relaxed"])
    @pytest.mark.parametrize("name", sorted(TestSnLayerMatchesLifSteps.CONFIGS))
    @pytest.mark.parametrize("layout", LAYOUTS)
    def test_byte_identical_in_input_layout(self, layout, name, relaxed, grad_layout):
        cfg = TestSnLayerMatchesLifSteps.CONFIGS[name]
        rng = np.random.default_rng(5)
        xd = _sn_layouts(4, rng)[layout]
        g = rng.normal(size=xd.shape).astype(np.float32)
        if grad_layout == "as_input":
            g = _as_layout(g, xd)
        x = Tensor(xd, requires_grad=True)
        with Tape() as tape:
            out = sn_layer(x, cfg, relaxed=relaxed)
            backward(sum_(_handing_on(out, g)), tape)
        h_hist = np.empty_like(xd)
        ref_out = _lif_forward(xd, h_hist, cfg, relaxed)
        ref_grad = _lif_backward(g, h_hist, ref_out, cfg)
        assert out.data.any() and not out.data.all()
        assert np.abs(ref_grad).max() > 0
        if relaxed:
            assert out.data.tobytes() == ref_out.tobytes()
        else:
            assert out.data.dtype == np.uint8
            assert np.array_equal(out.data, ref_out)
        assert x.grad.tobytes() == ref_grad.tobytes()
        assert out.data.strides == _steps_outermost(xd, out.data.dtype)

    @pytest.mark.parametrize("relaxed", [False, True], ids=["hard", "relaxed"])
    def test_zero_gradient_signs_above_the_window(self, relaxed):
        """Membranes above v_th + 0.5 fire outside the surrogate window, so
        with g < 0 every gradient is a zero: -0 at the last step (g * 0) and
        +0 before it (gv - gv*sigma), where gv * (1 - sigma) would give -0."""
        rng = np.random.default_rng(14)
        xd = rng.uniform(1.6, 3.0, size=(4, 2, 3, 5)).astype(np.float32)
        g = -rng.uniform(0.5, 1.5, size=xd.shape).astype(np.float32)
        x = Tensor(xd, requires_grad=True)
        with Tape() as tape:
            out = sn_layer(x, CFG, relaxed=relaxed)
            backward(sum_(_handing_on(out, g)), tape)
        h_hist = np.empty_like(xd)
        ref_grad = _lif_backward(g, h_hist, _lif_forward(xd, h_hist, CFG, relaxed), CFG)
        assert out.data.all() and not x.grad.any()
        assert np.signbit(x.grad[-1]).all() and not np.signbit(x.grad[:-1]).any()
        assert x.grad.tobytes() == ref_grad.tobytes()


# LIF op -> its run on x; sn_layer takes spike sums as currents where STC's
# residual and the head's SN run
INTEGER_CURRENT_OPS = {
    "sn_layer": lambda x: sn_layer(x, CFG),
    "sn_layer_relaxed": lambda x: sn_layer(x, CFG, relaxed=True),
    "bn_sn_layer": lambda x: bn_sn_layer(x, _bn(4, 0.1, 16), CFG),
}


@pytest.mark.parametrize("name", sorted(INTEGER_CURRENT_OPS))
def test_integer_currents_run_as_float32(name):
    """uint8 currents of 0..3 give the spikes, and the float32 input
    gradient, that the same values in float32 give, byte for byte."""
    xd = np.random.default_rng(15).integers(0, 4, size=(4, 2, 4, 5, 6)).astype(np.uint8)
    g = np.random.default_rng(16).normal(size=xd.shape).astype(np.float32)
    runs = []
    for data in (xd, xd.astype(np.float32)):
        x = Tensor(data, requires_grad=True, dtype=data.dtype)
        with Tape() as tape:
            out = INTEGER_CURRENT_OPS[name](x)
            backward(sum_(mul(out, Tensor(g))), tape)
        runs.append((out.data, x.grad))
    (out, grad), (ref, ref_grad) = runs
    assert out.dtype == ref.dtype == (np.float32 if name.endswith("relaxed") else np.uint8)
    assert out.tobytes() == ref.tobytes() and out.any() and not out.all()
    assert grad.dtype == np.float32 and grad.tobytes() == ref_grad.tobytes()


def _bn(channels, momentum, seed):
    """A training-mode BatchNorm with non-identity gamma, beta and buffers."""
    rng = np.random.default_rng(seed)
    bn = BatchNorm(channels)
    bn.momentum = momentum
    bn.gamma.data = rng.uniform(0.5, 1.5, channels).astype(np.float32)
    bn.beta.data = rng.normal(0.0, 0.3, channels).astype(np.float32)
    bn.running_mean[:] = rng.normal(0.0, 0.3, channels)
    bn.running_var[:] = rng.uniform(0.5, 2.0, channels)
    return bn


def _channel_map_input(s, rng):
    """[S, 2, 4, 5, 6] from a channel map: channels last in memory."""
    x = Tensor(rng.normal(size=(s, 2, 3, 5, 6)).astype(np.float32), requires_grad=True)
    w = Tensor(rng.normal(size=(3, 4)).astype(np.float32), requires_grad=True)
    return (x, w), lambda: channel_map(x, w)


def _conv2d_input(s, rng):
    """[S, 2, 4, 5, 6] from a conv2d over the merged S*B axis: channels last
    in memory ([S, B, V, T, C])."""
    x = Tensor(rng.normal(size=(s * 2, 3, 5, 6)).astype(np.float32), requires_grad=True)
    w = Tensor(rng.normal(size=(4, 3, 1, 3)).astype(np.float32), requires_grad=True)
    b = Tensor(rng.normal(size=4).astype(np.float32), requires_grad=True)
    return (x, w, b), lambda: reshape(conv2d(x, w, b, padding=(0, 1)), (s, 2, 4, 5, 6))


def _graph_conv_input(s, rng):
    """[S, 2, 4, 5, 6] from a graph conv: laid out [S, B, T, V, C] in memory."""
    x = Tensor(rng.normal(size=(s, 2, 3, 5, 6)).astype(np.float32), requires_grad=True)
    w = Tensor(rng.normal(size=(2, 3, 4)).astype(np.float32), requires_grad=True)
    adj = np.abs(rng.normal(size=(2, 5, 5))).astype(np.float32)
    return (x, w), lambda: graph_conv(x, adj, w)


def _steps_inner_input(s, rng):
    """[S, 2, 4, 5, 6] whose steps are not outermost in memory ([B, S, ...])."""
    x = Tensor(rng.normal(size=(2, s, 4, 5, 6)).astype(np.float32), requires_grad=True)
    return (x,), lambda: permute(x, (1, 0, 2, 3, 4))


class TestBnSnLayer:
    """``bn_sn_layer`` against ``sn_layer(tensor.batch_norm(x))``: spikes,
    gradients and running statistics must be bit-identical, in training
    and in eval."""

    @staticmethod
    def _run(fused, make_input, s, training=True, momentum=0.3, seed=0):
        rng = np.random.default_rng(seed)
        bn = _bn(4, momentum, seed + 1).train(training)
        buffers = bn.running_mean.copy(), bn.running_var.copy()
        leaves, produce = make_input(s, rng)
        weights = Tensor(rng.normal(size=(s, 2, 4, 5, 6)).astype(np.float32))
        with Tape() as tape:
            x = produce()
            out = bn_sn_layer(x, bn, CFG) if fused else sn_layer(bn(x), CFG)
            backward(sum_(mul(out, weights)), tape)
        assert out.data.any() and not out.data.all()
        if not training:
            np.testing.assert_array_equal(bn.running_mean, buffers[0])
            np.testing.assert_array_equal(bn.running_var, buffers[1])
        return [out.data, bn.running_mean, bn.running_var, bn.gamma.grad, bn.beta.grad,
                *(t.grad for t in leaves)]

    @pytest.mark.parametrize("training", [True, False], ids=["train", "eval"])
    @pytest.mark.parametrize("steps", [1, 4])
    @pytest.mark.parametrize("make_input", [_channel_map_input, _conv2d_input,
                                            _graph_conv_input, _steps_inner_input],
                             ids=["channel_map", "conv2d", "graph_conv", "steps_inner"])
    def test_bit_identical_to_composition(self, make_input, steps, training):
        got = self._run(True, make_input, steps, training)
        want = self._run(False, make_input, steps, training)
        for g, w in zip(got, want):
            assert g.dtype == w.dtype and g.tobytes() == w.tobytes()

    @pytest.mark.parametrize("training", [True, False], ids=["train", "eval"])
    def test_no_tape_keeps_no_membrane_history(self, training):
        """As ``sn_layer``: the history is kept only under a tape when x,
        gamma or beta needs a gradient.  x is channels last in memory, as
        every BatchNorm input in the models is, so it is read as a view."""
        x0 = np.random.default_rng(9).normal(0.5, 1.0, size=(4, 1, 25, 64, 256))
        x = Tensor(np.moveaxis(x0.astype(np.float32), -1, 2))
        bn = _bn(256, 0.1, 10).train(training)
        step = x.data[0].nbytes
        for taped, needs_grad in ((False, True), (True, False), (True, True)):
            bn.gamma.requires_grad = bn.beta.requires_grad = needs_grad
            tracemalloc.start()
            try:
                base = tracemalloc.get_traced_memory()[0]
                with Tape() if taped else contextlib.nullcontext():
                    out = bn_sn_layer(x, bn, CFG)
                peak = tracemalloc.get_traced_memory()[1] - base
            finally:
                tracemalloc.stop()
            if taped and needs_grad:
                assert peak >= 2 * out.data.nbytes
            else:
                assert peak < out.data.nbytes + 3 * step, (taped, needs_grad)

    def test_eval_empty_batch_has_zero_gradients(self):
        """As eval-mode ``batch_norm``: a batch with no rows spikes nothing,
        its x gradient is empty and gamma's and beta's are zero sums."""
        bn = _bn(2, 0.1, 0).eval()
        x = Tensor(np.zeros((2, 0, 2, 3, 3), dtype=np.float32), requires_grad=True)
        with Tape() as tape:
            out = bn_sn_layer(x, bn, CFG)
            backward(sum_(out), tape)
        assert out.shape == x.grad.shape == (2, 0, 2, 3, 3)
        np.testing.assert_array_equal(bn.gamma.grad, [0.0, 0.0])
        np.testing.assert_array_equal(bn.beta.grad, [0.0, 0.0])

    def test_layouts_reach_the_op_as_built(self):
        rng = np.random.default_rng(0)
        assert not _channel_map_input(2, rng)[1]().data.flags.c_contiguous
        conv = _conv2d_input(2, rng)[1]().data
        assert not conv.flags.c_contiguous
        assert np.moveaxis(conv, 2, -1).flags.c_contiguous
        graph = _graph_conv_input(2, rng)[1]().data
        assert graph.strides[2] == 4 and graph.strides[4] > graph.strides[3]

    def test_two_elements_per_channel_unbiased_variance(self):
        # n = 2: the running variance takes var * 2 / (2 - 1)
        x0 = np.random.default_rng(5).normal(size=(2, 1, 3, 1, 1)).astype(np.float32)
        results = []
        for fused in (True, False):
            bn = _bn(3, 0.05, 6)
            x = Tensor(x0, requires_grad=True)
            with Tape() as tape:
                out = bn_sn_layer(x, bn, CFG) if fused else sn_layer(bn(x), CFG)
                backward(sum_(out), tape)
            results.append([out.data, x.grad, bn.running_mean, bn.running_var])
        for g, w in zip(*results):
            assert g.tobytes() == w.tobytes()
        var = x0.var(axis=(0, 1, 3, 4))
        want = 0.95 * _bn(3, 0.05, 6).running_var + 0.05 * (2.0 * var)
        np.testing.assert_allclose(results[0][3], want, rtol=1e-6)

    def test_nonfinite_input_raises(self):
        for value in (np.nan, np.inf, -np.inf):
            for step in (0, -1):
                bn = _bn(4, 0.1, 7)
                before = bn.running_mean.copy(), bn.running_var.copy()
                x = np.zeros((2, 2, 4, 3, 3), dtype=np.float32)
                x[step, 0, 2, 1, 1] = value
                with pytest.raises(NumericalError):
                    bn_sn_layer(Tensor(x), bn, CFG)
                np.testing.assert_array_equal(bn.running_mean, before[0])
                np.testing.assert_array_equal(bn.running_var, before[1])

    def test_empty_step_axis_rejected(self):
        with pytest.raises(InvalidInputError):
            bn_sn_layer(Tensor(np.zeros((0, 2, 4, 3, 3))), _bn(4, 0.1, 8), CFG)


class TestTapeKeepsNoSpikes:
    """As ``test_tensor.TestTapeKeepsOnlyWhatBackwardReads``, for the LIF
    ops: backward reads the membrane history, not the spikes, so spikes
    the caller drops are freed though the op's record is still on the
    tape, and the gradients do not change."""

    OPS = {
        "sn_layer": lambda x, bn: sn_layer(x, CFG),
        "sn_layer_relaxed": lambda x, bn: sn_layer(x, CFG, relaxed=True),
        "bn_sn_layer_train": lambda x, bn: bn_sn_layer(x, bn.train(True), CFG),
        "bn_sn_layer_eval": lambda x, bn: bn_sn_layer(x, bn.train(False), CFG),
    }

    @classmethod
    def run(cls, name, drop):
        """(whether the spikes' memory died, the leaf gradients) for loss =
        sum(g * op(x)), x a channel map's output; with ``drop`` the spikes
        are dropped before the sweep."""
        rng = np.random.default_rng(12)
        leaves, produce = _channel_map_input(4, rng)
        bn = _bn(4, 0.3, 13)
        g = rng.normal(size=(4, 2, 4, 5, 6)).astype(np.float32)
        with Tape() as tape:
            out = cls.OPS[name](produce(), bn)
            assert out.data.any() and not out.data.all()
            memory = out.data
            while memory.base is not None:
                memory = memory.base
            alive = weakref.ref(memory)
            loss = sum_(_handing_on(out, g))
            del memory
            if drop:
                del out
            died = alive() is None
            backward(loss, tape)
        return died, [t.grad for t in (*leaves, bn.gamma, bn.beta) if t.grad is not None]

    @pytest.mark.parametrize("name", sorted(OPS))
    def test_dropped_spikes_are_freed_and_grads_unchanged(self, name):
        died, got = self.run(name, drop=True)
        kept, want = self.run(name, drop=False)
        assert died and not kept
        assert len(got) == len(want) == (2 if name.startswith("sn_layer") else 4)
        for g, w in zip(got, want):
            assert g.dtype == w.dtype and g.tobytes() == w.tobytes()


class TestChannelRuns:
    """Channels innermost in memory: the per-channel BatchNorm affine goes
    over runs of k*C elements and a ragged tail of C-long rows
    (``tensor._channel_runs``), with results bit-identical to the plain
    per-channel broadcast over the same rows (``oracles.channel_rows``)."""

    @staticmethod
    def _run(c, training, fused):
        rng = np.random.default_rng(c)
        # [S, B, C, V, T], channels last in memory
        x0 = np.moveaxis(rng.normal(0.3, 1.0, size=(4, 2, 25, 16, c)).astype(np.float32), -1, 2)
        weights = Tensor(rng.normal(size=x0.shape).astype(np.float32))
        bn = _bn(c, 0.3, c + 1).train(training)
        x = Tensor(x0, requires_grad=True)
        with Tape() as tape:
            out = bn_sn_layer(x, bn, CFG) if fused else bn(x)
            backward(sum_(mul(out, weights)), tape)
        return [out.data, x.grad, bn.gamma.grad, bn.beta.grad, bn.running_mean,
                bn.running_var]

    @pytest.mark.parametrize("fused", [True, False], ids=["bn_sn_layer", "batch_norm"])
    @pytest.mark.parametrize("training", [True, False], ids=["train", "eval"])
    @pytest.mark.parametrize("c", [3, 16, 256])
    def test_bit_identical_to_broadcast(self, monkeypatch, c, training, fused):
        runs, forms = tensor._channel_runs, set()

        def spy(*arrays):
            pieces = runs(*arrays)
            forms.update(form for _, form in pieces)
            return pieces

        monkeypatch.setattr(tensor, "_channel_runs", spy)
        got = self._run(c, training, fused)
        assert 0 in forms and (c != 3 or 1 in forms)    # C=3 leaves a ragged tail
        monkeypatch.setattr(tensor, "_channel_runs", channel_rows)
        want = self._run(c, training, fused)
        for g, w in zip(got, want):
            assert g.dtype == w.dtype and g.tobytes() == w.tobytes()

    def test_non_contiguous_chunk_goes_whole(self):
        rng = np.random.default_rng(11)
        x = rng.normal(size=(40, 3)).astype(np.float32)[::2]
        out = np.empty_like(x)
        assert [form for _, form in tensor._channel_runs(x, out)] == [1]
        mu, s, b = (rng.normal(size=3).astype(np.float32) for _ in range(3))
        tensor._bn_normalize(x, out, tuple(tensor._per_channel(v) for v in (mu, s, b)))
        assert out.tobytes() == ((x - mu) * s + b).tobytes()


class TestSurrogateConsistency:
    def test_relaxed_network_gradcheck(self):
        # the relaxed forward is continuous, so its analytic gradient must
        # match finite differences (away from the window kinks)
        rng = np.random.default_rng(3)
        x0 = rng.normal(0.7, 0.6, size=(2, 3, 4)).astype(np.float32)
        w0 = rng.normal(0, 0.5, size=(4, 4)).astype(np.float32)

        def f(x, w):
            from spikegraph.tensor import matmul
            h = matmul(x, w)
            s = sn_layer(h, CFG, relaxed=True)
            return mean(mul(s, s))

        report = grad_check(f, [Tensor(x0), Tensor(w0)], h=1e-4, tol=1e-3,
                            min_pass_fraction=0.99)
        assert report.passed, report

    def test_surrogate_equals_relaxed_derivative_in_window(self):
        xs = np.array([0.6, 0.9, 1.0, 1.1, 1.4], dtype=np.float32)
        for relaxed in (False, True):
            x = Tensor(xs, requires_grad=True)
            with Tape() as tape:
                out = spike(x, CFG, relaxed=relaxed)
                backward(sum_(out), tape)
            np.testing.assert_allclose(x.grad, [1.0, 1.0, 1.0, 1.0, 1.0])


class TestFiringRateHelper:
    def test_values(self):
        assert firing_rate(np.zeros(4)) == 0.0
        assert firing_rate(np.ones(4)) == 1.0
        assert firing_rate(np.array([1.0, 0.0])) == 0.5

    def test_rejects_non_binary(self):
        with pytest.raises(InvalidInputError):
            firing_rate(np.array([0.3]))
