"""Multimodal fusion: joint/marginal construction, DV bound, weights, SMIC."""

import numpy as np
import pytest

from spikegraph.fusion import (MODALITY_ORDER, FusionWeights, SmicNet, SpikeMultimodalFusion,
                               compute_mi_weights, fuse_modalities, mi_lower_bound,
                               smic_inputs)
from spikegraph.module import Adam
from spikegraph.neurons import LifConfig
from spikegraph.tensor import (InvalidInputError, NumericalError, Tape, Tensor,
                               backward, exp, scale, sum_)

LIF = LifConfig()
PAIRS = SpikeMultimodalFusion.PAIRS


def spikes(shape, seed, p=0.5):
    rng = np.random.default_rng(seed)
    return Tensor((rng.uniform(size=shape) < p).astype(np.float32))


def four(shape, seed):
    return [spikes(shape, seed + k) for k in range(4)]


class TestMakeJoint:
    """The joint input of ``smic_inputs``: pooled pair concatenations."""

    def test_shape_contract(self):
        joint, marginal = smic_inputs(four((4, 2, 64, 25, 16), 0), 0)
        assert joint.shape == marginal.shape == (6, 4, 2, 128, 16)

    def test_preserves_binarity_and_ordering(self):
        # one joint, so pooling is the identity
        mods = four((4, 8, 5, 1, 6), 2)
        joint, _ = smic_inputs(mods, 0)
        assert np.isin(joint, (0.0, 1.0)).all()
        for k, (i, j) in enumerate(PAIRS):
            np.testing.assert_array_equal(joint[k, ..., :5, :], mods[i].data[..., 0, :])
            np.testing.assert_array_equal(joint[k, ..., 5:, :], mods[j].data[..., 0, :])

    def test_pooling_commutes_with_concat(self):
        # bit-identical to pooling the full-size channel concatenation
        mods = four((4, 16, 3, 25, 16), 3)
        joint, _ = smic_inputs(mods, 0)
        for k, (i, j) in enumerate(PAIRS):
            cat = np.concatenate([mods[i].data, mods[j].data], axis=-3)
            np.testing.assert_array_equal(joint[k], cat.mean(axis=-2))

    def test_shape_mismatch(self):
        mods = four((4, 8, 5, 6, 3), 4)
        mods[3] = spikes((4, 8, 5, 7, 3), 5)
        with pytest.raises(InvalidInputError):
            smic_inputs(mods, 0)


class TestMakeMarginal:
    """The marginal input of ``smic_inputs``: the second modality's
    spike-step slices permuted by the seed."""

    def test_single_step_equals_joint(self):
        joint, marginal = smic_inputs(four((1, 8, 5, 4, 6), 6), 0)
        np.testing.assert_array_equal(marginal, joint)

    def test_multiset_preserved(self):
        joint, marginal = smic_inputs(four((4, 8, 5, 3, 6), 8), 123)
        np.testing.assert_array_equal(marginal[..., :5, :], joint[..., :5, :])
        for k in range(len(PAIRS)):
            orig_slices = {joint[k, s, :, 5:].tobytes() for s in range(4)}
            new_slices = {marginal[k, s, :, 5:].tobytes() for s in range(4)}
            assert orig_slices == new_slices

    def test_same_seed_same_permutation(self):
        mods = four((4, 8, 5, 3, 6), 10)
        np.testing.assert_array_equal(smic_inputs(mods, 42)[1], smic_inputs(mods, 42)[1])

    def test_fuzzed_multiset_preservation(self):
        rng = np.random.default_rng(12)
        for trial in range(200):
            s = int(rng.integers(2, 6))
            d = int(rng.integers(1, 5))
            shape = (s, int(rng.integers(1, 4)), d, 3, 4)
            mods = [Tensor((rng.uniform(size=shape) < 0.5).astype(np.float32))
                    for _ in range(4)]
            joint, marginal = smic_inputs(mods, trial)
            for k in range(len(PAIRS)):
                got = sorted(marginal[k, s_, :, d:].tobytes() for s_ in range(s))
                want = sorted(joint[k, s_, :, d:].tobytes() for s_ in range(s))
                assert got == want


class TestMiLowerBound:
    def test_degenerate_estimator_zero(self):
        c = 0.73
        t_vals = Tensor(np.full(8, c, dtype=np.float32))
        et_vals = Tensor(np.full(8, np.exp(c), dtype=np.float32))
        assert abs(mi_lower_bound(t_vals, et_vals).item()) < 1e-6

    def test_zeros(self):
        out = mi_lower_bound(Tensor([0.0, 0.0]), Tensor([1.0, 1.0]))
        assert abs(out.item()) < 1e-7

    def test_direct_arithmetic(self):
        out = mi_lower_bound(Tensor([1.0, 1.0]), Tensor([1.0, 1.0]))
        np.testing.assert_allclose(out.item(), 1.0, rtol=1e-6)

    def test_nonpositive_et_rejected(self):
        with pytest.raises(NumericalError):
            mi_lower_bound(Tensor([0.0]), Tensor([0.0]))


class TestMiMatrix:
    def test_asymmetric_rejected(self):
        bad = np.zeros((4, 4))
        bad[0, 1] = 1.0
        with pytest.raises(InvalidInputError):
            compute_mi_weights(bad)


class TestComputeMiWeights:
    def test_hand_min_max(self):
        # row averages proportional to [0.2, 0.4, 0.6, 0.8]
        m = np.zeros((4, 4))
        targets = np.array([0.2, 0.4, 0.6, 0.8])
        # construct a symmetric matrix with those row sums: x_ij = (t_i*t_j)/c
        outer = np.outer(targets, targets)
        np.fill_diagonal(outer, 0.0)
        row = outer.sum(axis=1)
        scale_fix = targets / row
        # symmetrize via sqrt scaling; easier: directly solve small system
        m = outer * np.sqrt(np.outer(scale_fix, scale_fix))
        got = compute_mi_weights((m + m.T) / 2)
        averaged = ((m + m.T) / 2).sum(axis=1)
        expect = (averaged - averaged.min()) / (averaged.max() - averaged.min())
        np.testing.assert_allclose(got.w, expect, atol=1e-6)
        assert not got.degenerate

    def test_exact_example_row_values(self):
        # averaged row values [0.2,0.4,0.6,0.8] -> [0, 1/3, 2/3, 1]
        averaged = np.array([0.2, 0.4, 0.6, 0.8])
        w = (averaged - averaged.min()) / (averaged.max() - averaged.min())
        np.testing.assert_allclose(w, [0.0, 1 / 3, 2 / 3, 1.0])

    def test_degenerate_uniform(self):
        m = np.full((4, 4), 0.5)
        np.fill_diagonal(m, 0.0)
        got = compute_mi_weights(m)
        assert got.degenerate
        np.testing.assert_array_equal(got.w, 1.0)

    def test_min_zero_max_one_fuzzed(self):
        rng = np.random.default_rng(13)
        rows, cols = zip(*PAIRS)
        for _ in range(50):
            m = np.zeros((4, 4))
            m[rows, cols] = m[cols, rows] = rng.normal(size=len(PAIRS))
            got = compute_mi_weights(m)
            if not got.degenerate:
                assert got.w.min() == 0.0
                assert got.w.max() == 1.0


class TestFuseModalities:
    def _four(self, seed):
        return [spikes((4, 8, 5, 6), seed + k) for k in range(4)]

    def test_selector_weights(self):
        mods = self._four(20)
        out = fuse_modalities(mods, FusionWeights(np.array([1.0, 0, 0, 0])))
        np.testing.assert_array_equal(out.data, mods[0].data)

    def test_zero_weights(self):
        out = fuse_modalities(self._four(24), FusionWeights(np.zeros(4)))
        np.testing.assert_array_equal(out.data, 0.0)

    def test_all_ones_sum_of_weights(self):
        mods = [Tensor(np.ones((2, 3, 4, 5), dtype=np.float32)) for _ in range(4)]
        w = np.array([0.0, 1 / 3, 2 / 3, 1.0], dtype=np.float32)
        out = fuse_modalities(mods, FusionWeights(w))
        np.testing.assert_allclose(out.data, 2.0, rtol=1e-6)

    def test_output_range(self):
        rng = np.random.default_rng(14)
        mods = self._four(30)
        w = np.abs(rng.normal(size=4)).astype(np.float32)
        out = fuse_modalities(mods, FusionWeights(w))
        assert out.data.min() >= 0.0
        assert out.data.max() <= w.sum() + 1e-6

    def test_shape_mismatch(self):
        mods = self._four(40)
        mods[2] = spikes((4, 8, 5, 7), 99)
        with pytest.raises(InvalidInputError):
            fuse_modalities(mods, FusionWeights(np.ones(4)))


def pooled(shape, seed):
    """One pair's input [1, S, B, C, T]: spikes mean-pooled over joints."""
    return spikes(shape, seed).data.mean(axis=-2)[None]


class TestSmicNet:
    def test_zero_network_outputs(self):
        net = SmicNet(1, 8, 16, LIF, np.random.default_rng(15))
        for p in net.parameters():
            p.data[:] = 0.0
        x = pooled((4, 3, 8, 5, 6), 16)
        t_vals = net(x)
        np.testing.assert_allclose(t_vals.data, 0.0, atol=1e-7)
        et_vals = exp(net(x))
        np.testing.assert_allclose(et_vals.data, 1.0, rtol=1e-6)

    def test_finite_scalar_outputs(self):
        net = SmicNet(1, 8, 16, LIF, np.random.default_rng(17))
        out = net(pooled((4, 5, 8, 5, 6), 18))
        assert out.shape == (1, 5)
        assert np.isfinite(out.data).all()

    def test_gap_of_constant_is_constant(self):
        net = SmicNet(1, 8, 16, LIF, np.random.default_rng(19))
        c = 0.37
        net.fc_w.data[:] = 0.0
        net.fc_b.data[:] = c
        out = net(pooled((4, 3, 8, 5, 6), 20))
        np.testing.assert_allclose(out.data, c, rtol=1e-6)

    def test_wrong_channels_rejected(self):
        net = SmicNet(1, 8, 16, LIF, np.random.default_rng(21))
        with pytest.raises(InvalidInputError):
            net(pooled((4, 3, 6, 5, 6), 22))

    def test_pairs_are_independent_estimators(self):
        # slice k of the stacked estimator scores pair k exactly as a
        # one-pair estimator holding slice k's weights does
        stacked = SmicNet(3, 8, 16, LIF, np.random.default_rng(23))
        x = np.concatenate([pooled((4, 3, 8, 5, 6), 24 + k) for k in range(3)])
        out = stacked(x)
        for k in range(3):
            np.testing.assert_array_equal(one_pair(stacked, k)(x[k:k + 1]).data,
                                          out.data[k:k + 1])


def one_pair(stacked: SmicNet, k: int) -> SmicNet:
    """A one-pair estimator holding a copy of slice k of ``stacked``."""
    single = SmicNet(1, stacked.in_channels, stacked.hidden, stacked.lif,
                     np.random.default_rng(0))
    for name, p in single.named_parameters():
        p.data = getattr(stacked, name).data[k:k + 1].copy()
    return single


def _stream_batch(rng, copied, s=4, d=4, v=3, t=6, b=64):
    rates = rng.choice([0.25, 0.75], size=(b, s))
    pa = (rng.uniform(size=(s, b, d, v, t)) < rates.T[:, :, None, None, None]
          ).astype(np.float32)
    if copied:
        pb = pa.copy()
    else:
        rates_b = rng.choice([0.25, 0.75], size=(b, s))
        pb = (rng.uniform(size=(s, b, d, v, t)) < rates_b.T[:, :, None, None, None]
              ).astype(np.float32)
    return Tensor(pa), Tensor(pb)


def stacked_pairs(singles: list[SmicNet]) -> SmicNet:
    """``one_pair`` in reverse: one estimator whose slice k is ``singles[k]``."""
    net = SmicNet(len(singles), singles[0].in_channels, singles[0].hidden, singles[0].lif,
                  np.random.default_rng(0))
    for name, p in net.named_parameters():
        p.data = np.concatenate([getattr(single, name).data for single in singles])
    return net


def train_smic_on_streams(runs, steps: int = 150) -> list[float]:
    """Frozen empirical oracle: fixed budget, fixed shapes, eval on fresh draws.

    Each (copied, seed) run is one pair of a stacked estimator, so the runs
    train as independent estimators would (slices share no weight, Adam
    acts elementwise) in one forward per step.  A run draws its initial
    weights from seed + 1000 and its streams from ``seed``; its marginal
    shuffle follows its own seed.
    """
    net = stacked_pairs([SmicNet(1, 8, 32, LIF, np.random.default_rng(seed + 1000))
                         for _, seed in runs])
    opt = Adam(net.parameters(), lr=3e-3)
    rngs = [np.random.default_rng(seed) for _, seed in runs]

    def bounds(marginal_seed) -> Tensor:
        joint, marginal = [], []
        for (copied, seed), rng in zip(runs, rngs):
            pa, pb = _stream_batch(rng, copied)
            j, m = smic_inputs([pa, pb, pa, pb], marginal_seed(seed))  # PAIRS[0] is (0, 1)
            joint.append(j[:1])
            marginal.append(m[:1])
        return mi_lower_bound(net(np.concatenate(joint)),
                              exp(net(np.concatenate(marginal))))

    for step in range(steps):
        with Tape() as tape:
            backward(scale(sum_(bounds(lambda seed: seed * 100000 + step)), -1.0), tape)
        opt.step()
        opt.zero_grad()
    evals = np.stack([bounds(lambda seed: seed * 999983 + k).data for k in range(5)])
    return [float(np.mean([float(e) for e in column])) for column in evals.T]


class TestIndependenceSanity:
    def test_independent_vs_copied_streams(self):
        runs = [(copied, seed) for seed in (0, 1, 2) for copied in (False, True)]
        final = dict(zip(runs, train_smic_on_streams(runs)))
        for seed in (0, 1, 2):
            ind, cop = final[False, seed], final[True, seed]
            assert abs(ind) <= 0.1, (seed, ind)
            assert cop - ind >= 0.2, (seed, ind, cop)


class TestSpikeMultimodalFusion:
    def _mods(self, seed, d=4):
        return [spikes((4, 6, d, 3, 5), seed + k, p=0.3 + 0.1 * k) for k in range(4)]

    def test_matrix_symmetric_zero_diagonal(self):
        smf = SpikeMultimodalFusion(4, 16, LIF, np.random.default_rng(23), 1e-3)
        bounds = smf.train_step(self._mods(50))
        m = smf.mi_ema
        np.testing.assert_array_equal(np.diag(m), 0.0)
        np.testing.assert_array_equal(m, m.T)
        for (i, j), value in bounds.items():
            assert m[i, j] == np.float32(value)

    def test_train_step_moves_bounds_and_keeps_determinism(self):
        smf = SpikeMultimodalFusion(4, 16, LIF, np.random.default_rng(24), 1e-3)
        mods = self._mods(60)
        before = [p.data[0].copy() for p in smf.estimator.parameters()]
        bounds = smf.train_step(mods)
        assert set(bounds) == set(SpikeMultimodalFusion.PAIRS)
        after = [p.data[0] for p in smf.estimator.parameters()]
        assert any(not np.array_equal(b, a) for b, a in zip(before, after))

    def test_summed_objective_gives_each_pair_its_own_gradient(self):
        # a low threshold lets the hidden states fire, so every bound and
        # every weight's gradient is nonzero
        smf = SpikeMultimodalFusion(4, 16, LifConfig(v_threshold=0.3),
                                    np.random.default_rng(27), 1e-3)
        mods = self._mods(90)
        joint, marginal = smic_inputs(mods, 0)   # the first ascent's shuffle seed
        singles, single_bounds = [], []
        for k in range(len(PAIRS)):
            net = one_pair(smf.estimator, k)
            with Tape() as tape:
                bound = mi_lower_bound(net(joint[k:k + 1]), exp(net(marginal[k:k + 1])))
                backward(scale(bound, -1.0), tape)
            singles.append(net)
            single_bounds.append(float(bound.data[0]))
        smf._optim.zero_grad = lambda: None      # keep the ascent's gradients
        bounds = smf.train_step(mods)
        assert [bounds[pair] for pair in PAIRS] == single_bounds
        for k, net in enumerate(singles):
            for name, p in net.named_parameters():
                np.testing.assert_array_equal(getattr(smf.estimator, name).grad[k:k + 1],
                                              p.grad)

    def test_no_gradient_leaks_into_inputs(self):
        smf = SpikeMultimodalFusion(4, 16, LIF, np.random.default_rng(25), 1e-3)
        mods = self._mods(70)
        for m in mods:
            m.requires_grad = True
        smf.train_step(mods)
        assert all(m.grad is None for m in mods)

    def test_diverged_matrix_is_a_numerical_error(self):
        smf = SpikeMultimodalFusion(4, 16, LIF, np.random.default_rng(26), 1e-3)
        smf.mi_ema[0, 1] = smf.mi_ema[1, 0] = np.nan
        smf.mi_ema_count[0] = smf.burn_in_steps
        with pytest.raises(NumericalError, match="non-finite"):
            smf.weights(self._mods(80))

    def test_weights_from_fresh_estimators(self):
        smf = SpikeMultimodalFusion(4, 16, LIF, np.random.default_rng(26), 1e-3)
        w = smf.weights(self._mods(80))
        assert w.degenerate
        np.testing.assert_array_equal(w.w, np.ones(4, dtype=np.float32))
