"""Spike encoding of skeleton modalities."""

import numpy as np
import pytest

from spikegraph.encoding import SscEncoder
from spikegraph.neurons import LifConfig
from spikegraph.tensor import InvalidInputError, Tensor, repeat0
from oracles import firing_rate


LIF = LifConfig()


class TestSscExpand:
    """The encoder's expansion over spike steps, ``repeat0``."""

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
