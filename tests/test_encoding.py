"""Spike encoding of skeleton modalities."""

import numpy as np
import pytest

from spikegraph.encoding import SscEncoder
from spikegraph.neurons import LifConfig
from spikegraph.tensor import InvalidInputError, Tape, Tensor, backward, mul, repeat0, sum_
import oracles
from oracles import firing_rate


LIF = LifConfig()


class TestSscExpand:
    """The encoder's expansion over spike steps, ``repeat0``, which codes
    the conv's output."""

    def test_singleton_axis(self):
        x = Tensor(np.random.default_rng(0).normal(size=(3, 25, 16)).astype(np.float32))
        out = repeat0(x, 1)
        assert out.shape == (1, 3, 25, 16)
        np.testing.assert_array_equal(out.data[0], x.data)

    def test_replication(self):
        x = Tensor(np.random.default_rng(1).normal(size=(3, 25, 16)).astype(np.float32))
        out = repeat0(x, 4)
        for s in range(1, 4):
            np.testing.assert_array_equal(out.data[s], out.data[0])

    def test_axis_bookkeeping(self):
        x = Tensor(np.zeros((3, 25, 16), dtype=np.float32))
        assert repeat0(x, 4).shape == (4, 3, 25, 16)

    def test_batched_variant(self):
        x = Tensor(np.zeros((2, 3, 25, 16), dtype=np.float32))
        assert repeat0(x, 4).shape == (4, 2, 3, 25, 16)

    def test_invalid_steps(self):
        with pytest.raises(InvalidInputError):
            SscEncoder(3, 0, 4, LIF, np.random.default_rng(0))


class TestSscEncoder:
    def _encoder(self, d=64, seed=2):
        rng = np.random.default_rng(seed)
        return SscEncoder(3, 4, d, LIF, rng)

    def test_zero_input_zero_spikes(self):
        enc = self._encoder(d=8)
        enc.bias.data[:] = 0.0
        x = Tensor(np.zeros((2, 3, 25, 16), dtype=np.float32))
        out = enc(x)
        np.testing.assert_array_equal(out.data, 0.0)

    def test_output_shape_contract(self):
        enc = self._encoder(d=64)
        x = Tensor(np.random.default_rng(3).normal(size=(1, 3, 25, 16)).astype(np.float32))
        out = enc(x)
        assert out.shape == (4, 1, 64, 25, 16)
        assert np.isin(out.data, (0.0, 1.0)).all()

    def test_binarity_random_weights(self):
        rng = np.random.default_rng(4)
        for trial in range(10):
            enc = self._encoder(d=6, seed=100 + trial)
            x = Tensor(rng.normal(size=(2, 3, 10, 8)).astype(np.float32))
            out = enc(x)
            assert np.isin(out.data, (0.0, 1.0)).all()

    def test_firing_rate_bounded_for_random_inputs(self):
        rng = np.random.default_rng(5)
        rates = []
        for trial in range(100):
            enc = self._encoder(d=4, seed=200 + trial)
            x = Tensor(rng.normal(size=(1, 3, 8, 6)).astype(np.float32))
            rates.append(firing_rate(enc(x)))
        rates = np.array(rates)
        assert np.all(rates >= 0.0) and np.all(rates <= 1.0)
        assert rates.mean() < 0.9

    def test_deterministic(self):
        enc = self._encoder(d=8, seed=6)
        x = Tensor(np.random.default_rng(7).normal(size=(2, 3, 10, 8)).astype(np.float32))
        enc.eval()
        a = enc(x).data
        b = enc(x).data
        np.testing.assert_array_equal(a, b)


class TestConvOncePerClip:
    """The encoder runs its conv once per clip and repeats the output over
    the spike steps.  Against the earlier composition, which repeated the
    clip before the conv (``oracles.ssc_encoder``), at fixed weights: the
    spikes and the BatchNorm running buffers are byte-equal, the weight
    and bias gradients (the S copies' gradients are now summed before the
    GEMM) are within 1e-5 of the largest entry of the encoder's gradient,
    and the im2col the conv keeps for backward is 1/S of the reference's.
    In training mode the bias gradient is 0 but for rounding, as the
    BatchNorm subtracts the batch mean, so it is held to the weights'
    scale."""

    STEPS = 4

    @staticmethod
    def run(encode, seed, training):
        rng = np.random.default_rng(seed)
        enc = SscEncoder(3, TestConvOncePerClip.STEPS, 16, LIF, rng).train(training)
        x = Tensor(rng.normal(size=(2, 3, 25, 16)).astype(np.float32))
        with Tape() as tape:
            out = encode(enc, x)
            loss = sum_(mul(out, Tensor(rng.normal(size=out.shape).astype(np.float32))))
            held = oracles.closure_bytes(tape)["conv2d"] - enc.weight.data.nbytes
            backward(loss, tape)
        return (out.data, enc.bn.running_mean, enc.bn.running_var, enc.weight.grad,
                enc.bias.grad, held)

    @pytest.mark.parametrize("training", [True, False], ids=["train", "eval"])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_repeat_before_conv(self, seed, training):
        spikes, mean, var, gw, gb, cols = self.run(lambda enc, x: enc(x), seed, training)
        r_spikes, r_mean, r_var, r_gw, r_gb, r_cols = self.run(oracles.ssc_encoder, seed,
                                                               training)
        assert spikes.dtype == np.uint8 and 0 < firing_rate(spikes) < 1
        assert spikes.tobytes() == r_spikes.tobytes()
        assert mean.tobytes() == r_mean.tobytes() and var.tobytes() == r_var.tobytes()
        scale = max(np.abs(r_gw).max(), np.abs(r_gb).max())
        for g, ref in ((gw, r_gw), (gb, r_gb)):
            assert np.abs(g - ref).max() <= 1e-5 * scale
        if training:
            assert max(np.abs(gb).max(), np.abs(r_gb).max()) <= 1e-5 * scale
        assert cols * self.STEPS == r_cols
