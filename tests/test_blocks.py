"""Adjacency normalization and the SA-SGC / STC blocks."""

import numpy as np
import pytest

from spikegraph.blocks import (SaSgcLayer, StcLayer, channel_map, graph_conv,
                               normalize_adjacency, partition_branches,
                               sa_sgc_stc_block)
from spikegraph.data import SkeletonTopology
from spikegraph.module import BatchNorm
from spikegraph.neurons import LifConfig, bn_sn_layer, sn_layer
from spikegraph.tensor import (InvalidInputError, Tape, Tensor, backward, conv2d,
                               matmul, mul, permute, reshape, sum_)
from oracles import grad_check


LIF = LifConfig()


def random_tree(v, rng):
    edges = []
    for child in range(1, v):
        parent = int(rng.integers(0, child))
        edges.append((child, parent))
    return SkeletonTopology(tuple(edges), root=0, num_joints=v)


def spectral_radius(m, iters=200):
    x = np.ones(m.shape[0])
    for _ in range(iters):
        y = m @ x
        n = np.linalg.norm(y)
        if n == 0:
            return 0.0
        x = y / n
    return float(np.abs(x @ (m @ x)) / (x @ x))


class TestNormalizeAdjacency:
    def test_isolated_node_row_stays_zero(self):
        out = normalize_adjacency(np.array([[0.0, 0.0, 0.0], [0.0, 0.0, 1.0], [0.0, 1.0, 0.0]]))
        np.testing.assert_array_equal(out, [[0.0, 0.0, 0.0], [0.0, 0.0, 1.0], [0.0, 1.0, 0.0]])

    def test_three_node_path_hand_computed(self):
        # degrees 1, 2, 1 and no self-loops: each edge weighs 1 / sqrt(2)
        a = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 1.0], [0.0, 1.0, 0.0]])
        out = normalize_adjacency(a)
        r = 2 ** -0.5
        np.testing.assert_allclose(out, [[0.0, r, 0.0], [r, 0.0, r], [0.0, r, 0.0]], atol=1e-7)

    def test_symmetry_preserved(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            a = rng.uniform(0, 1, size=(6, 6))
            a = (a + a.T) / 2
            out = normalize_adjacency(a)
            np.testing.assert_allclose(out, out.T, atol=1e-6)

    def test_negative_entries_rejected(self):
        with pytest.raises(InvalidInputError):
            normalize_adjacency(np.array([[0.0, -1.0], [-1.0, 0.0]]))

    def test_spectral_radius_bound_fuzzed(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            v = int(rng.integers(2, 12))
            topo = random_tree(v, rng)
            a = np.zeros((v, v), dtype=np.float32)
            for c, p in topo.edges:
                a[c, p] = a[p, c] = 1.0
            out = normalize_adjacency(a)
            assert spectral_radius(out) <= 1.0 + 1e-6


class TestPartitionBranches:
    def test_self_branch_is_identity(self):
        for topo in (SkeletonTopology.ntu25(), SkeletonTopology.ucla20()):
            adj = partition_branches(topo)
            assert adj.dtype == np.float32
            np.testing.assert_array_equal(adj[0], np.eye(topo.num_joints, dtype=np.float32))

    def test_two_joint_chain_inward_single_edge(self):
        topo = SkeletonTopology(((1, 0),), root=0, num_joints=2)
        v = topo.num_joints
        inward = np.zeros((v, v), dtype=np.float32)
        for c, p in topo.edges:
            inward[p, c] = 1.0
        assert (inward != 0).sum() == 1
        assert inward[0, 1] == 1.0

    def test_inward_transpose_equals_outward_prenorm(self):
        topo = SkeletonTopology.ntu25()
        v = topo.num_joints
        inward = np.zeros((v, v), dtype=np.float32)
        outward = np.zeros((v, v), dtype=np.float32)
        for c, p in topo.edges:
            inward[p, c] = 1.0
            outward[c, p] = 1.0
        np.testing.assert_array_equal(inward.T, outward)

    def test_branch_count_and_radius(self):
        adj = partition_branches(SkeletonTopology.ntu25())
        assert adj.shape == (3, 25, 25)
        for k in range(3):
            assert spectral_radius(adj[k]) <= 1.0 + 1e-6


# (x shape, per-branch einsum) for the two ranks of the one feature layout
# [..., C, V, T]: the student's [S, B, C, V, T] and the teacher's [B, C, V, T]
GRAPH_LAYOUTS = {
    "student": ((2, 3, 4, 5, 3), "sbdut,vu,de->sbevt"),
    "teacher": ((3, 4, 5, 3), "bdut,vu,de->bevt"),
}


def _weighted_sum(out, seed):
    """Scalar with a distinct random weight per output element, so a
    gradient routed to the wrong element cannot pass."""
    coeff = np.random.default_rng(seed).uniform(-1.0, 1.0, size=out.shape)
    return sum_(mul(out, Tensor(coeff, dtype=np.float64)))


class TestGraphConv:
    def _operands(self, layout, seed=0):
        shape, _ = GRAPH_LAYOUTS[layout]
        rng = np.random.default_rng(seed)
        d, v, k, d_out = shape[-3], shape[-2], 3, 6
        x = rng.normal(size=shape).astype(np.float32)
        adj = rng.uniform(size=(k, v, v)).astype(np.float32)  # not symmetric
        w = rng.normal(size=(k, d, d_out)).astype(np.float32)
        return x, adj, w

    @pytest.mark.parametrize("layout", sorted(GRAPH_LAYOUTS))
    def test_matches_per_branch_reference(self, layout):
        _, spec = GRAPH_LAYOUTS[layout]
        x, adj, w = self._operands(layout)
        got = graph_conv(Tensor(x), adj, Tensor(w)).data
        ref = sum(np.einsum(spec, x.astype(np.float64), adj[k].astype(np.float64),
                            w[k].astype(np.float64)) for k in range(adj.shape[0]))
        assert got.shape == ref.shape
        assert np.abs(got - ref).max() <= 1e-6 * np.abs(ref).max()

    @pytest.mark.parametrize("layout", sorted(GRAPH_LAYOUTS))
    def test_gradient_matches_fd(self, layout):
        x0, adj, w0 = self._operands(layout, seed=1)
        adj = adj.astype(np.float64)

        def f(x, w):
            return _weighted_sum(graph_conv(x, adj, w), seed=2)

        report = grad_check(f, [Tensor(x0), Tensor(w0)], h=1e-4, tol=1e-5)
        assert report.passed, report

    def test_shape_mismatch_rejected(self):
        x, adj, w = self._operands("student")
        with pytest.raises(InvalidInputError):
            graph_conv(Tensor(x), adj[:2], Tensor(w))
        with pytest.raises(InvalidInputError):
            graph_conv(Tensor(x.swapaxes(-3, -2)), adj, Tensor(w))


class TestChannelMap:
    @pytest.mark.parametrize("layout", sorted(GRAPH_LAYOUTS))
    def test_gradient_matches_fd(self, layout):
        shape, _ = GRAPH_LAYOUTS[layout]
        rng = np.random.default_rng(len(shape))
        x0 = rng.normal(size=shape).astype(np.float32)
        w0 = rng.normal(size=(shape[-3], 3)).astype(np.float32)

        def f(x, w):
            return _weighted_sum(channel_map(x, w), seed=3)

        report = grad_check(f, [Tensor(x0), Tensor(w0)], h=1e-4, tol=1e-5)
        assert report.passed, report


def _spike_map(shape, high, rate, layout, seed):
    """uint8 [S, B, C, V, T] of values in [0, high], each nonzero with
    probability ``rate``; C-ordered ("C") or channels innermost in memory
    ("CL"), as a channel map's or a conv's output is."""
    rng = np.random.default_rng(seed)
    a = ((rng.random(shape) < rate) * rng.integers(1, high + 1, shape)).astype(np.uint8)
    if layout == "C":
        return a
    return np.ascontiguousarray(a.transpose(0, 1, 3, 4, 2)).transpose(0, 1, 4, 2, 3)


class TestSpikeGemmsMatchFloat:
    """The four GEMM ops given uint8 spikes and given the same values in
    float32, laid out alike: outputs and every gradient byte-identical.
    The operands reach the GEMMs as the blocks pass them: the SSA's
    permuted Q, K and V, STC's reshaped input."""

    @staticmethod
    def run(op, spikes, params, seed):
        """(output, gradients of the spike and parameter leaves) for each
        of uint8 and float32 spikes, through loss = sum(op(...) * g)."""
        results = []
        for cast in (lambda a: a, lambda a: a.astype(np.float32)):
            leaves = [Tensor(cast(a), requires_grad=True, dtype=cast(a).dtype)
                      for a in spikes]
            weights = [Tensor(p, requires_grad=True) for p in params]
            with Tape() as tape:
                out = op(*leaves, *weights)
                g = np.random.default_rng(seed).normal(size=out.shape).astype(np.float32)
                backward(sum_(mul(out, Tensor(g))), tape)
            results.append((out.data, [t.grad for t in leaves + weights]))
        (out_u8, grads_u8), (out_f, grads_f) = results
        assert out_u8.dtype == np.float32
        assert out_u8.strides == out_f.strides and out_u8.tobytes() == out_f.tobytes()
        for gu, gf in zip(grads_u8, grads_f):
            assert gu.dtype == gf.dtype == np.float32
            assert gu.strides == gf.strides and gu.tobytes() == gf.tobytes()
        return out_u8

    # (shape, firing rate): 320 channels at 95% give Q K^T counts past
    # 255, where uint8 arithmetic would wrap; 64 channels of 25 joints are
    # where a cast left to numpy, after the transpose, changed the bytes
    SSA_SHAPES = {"counts_past_255": ((2, 1, 320, 5, 3), 0.95),
                  "joints_25": ((1, 1, 64, 25, 2), 0.5)}

    @pytest.mark.parametrize("layout", ["C", "CL"])
    @pytest.mark.parametrize("shape", sorted(SSA_SHAPES))
    def test_ssa_matmuls(self, shape, layout):
        size, rate = self.SSA_SHAPES[shape]
        q, k, v = (_spike_map(size, 1, rate, layout, seed) for seed in (1, 2, 3))
        counts = []

        def ssa(q, k, v):
            qk = matmul(permute(q, (0, 1, 4, 3, 2)), permute(k, (0, 1, 4, 2, 3)))
            counts.append(qk.data.max())
            return matmul(qk, permute(v, (0, 1, 4, 3, 2)))

        self.run(ssa, (q, k, v), (), seed=4)
        assert (counts[0] > 255) == (shape == "counts_past_255")

    @pytest.mark.parametrize("layout", ["C", "CL"])
    def test_stc_conv2d(self, layout):
        h_sa = _spike_map((2, 3, 6, 5, 8), 3, 0.5, layout, seed=5)
        rng = np.random.default_rng(6)
        w = rng.normal(size=(6, 6, 1, 5)).astype(np.float32)
        b = rng.normal(size=6).astype(np.float32)

        def stc(h, w, b):
            return conv2d(reshape(h, (6, 6, 5, 8)), w, b, stride=(1, 2), padding=(0, 2))

        self.run(stc, (h_sa,), (w, b), seed=7)

    @pytest.mark.parametrize("layout", ["C", "CL"])
    def test_channel_map(self, layout):
        x = _spike_map((2, 2, 64, 25, 2), 2, 0.5, layout, seed=8)
        w = np.random.default_rng(9).normal(size=(64, 64)).astype(np.float32)
        self.run(channel_map, (x,), (w,), seed=10)

    @pytest.mark.parametrize("layout", ["C", "CL"])
    def test_graph_conv(self, layout):
        adj = partition_branches(SkeletonTopology.ntu25())
        x = _spike_map((2, 2, 64, 25, 2), 2, 0.5, layout, seed=11)
        w = np.random.default_rng(12).normal(size=(3, 64, 64)).astype(np.float32)
        self.run(lambda x, w: graph_conv(x, adj, w), (x,), (w,), seed=13)


# op kind -> (x shape, w shape, bias length or None, op); every op writes
# its output channels (4 of them) to axis -3
LINEAR_OPS = {
    "conv2d": ((2, 3, 5, 6), (4, 3, 1, 3), 4,
               lambda x, w, b: conv2d(x, w, b, stride=(1, 2), padding=(0, 1))),
    "graph_conv": ((2, 2, 3, 5, 6), (3, 3, 4), None,
                   lambda x, w: graph_conv(x, ADJ_5, w)),
    "channel_map": ((2, 2, 3, 5, 6), (3, 4), None, channel_map),
}
ADJ_5 = np.random.default_rng(30).uniform(size=(3, 5, 5)).astype(np.float32)


def random_bn(channels, seed):
    """A BatchNorm with random non-identity gamma, beta, mean and variance."""
    rng = np.random.default_rng(seed)
    bn = BatchNorm(channels)
    bn.gamma.data = rng.uniform(0.5, 1.5, channels).astype(np.float32)
    bn.beta.data = rng.normal(0.0, 0.5, channels).astype(np.float32)
    bn.running_mean[:] = rng.normal(0.0, 1.0, channels)
    bn.running_var[:] = rng.uniform(0.2, 3.0, channels)
    return bn


class TestBnOfLinearMap:
    def _operands(self, kind, seed):
        x_shape, w_shape, bias_len, op = LINEAR_OPS[kind]
        rng = np.random.default_rng(seed)
        x = Tensor(rng.normal(size=x_shape).astype(np.float32))
        w = Tensor(rng.normal(size=w_shape).astype(np.float32))
        extra = () if bias_len is None else (
            Tensor(rng.normal(size=bias_len).astype(np.float32)),)
        return op, x, w, extra

    @pytest.mark.parametrize("training", [True, False], ids=["train", "eval"])
    @pytest.mark.parametrize("kind", sorted(LINEAR_OPS))
    def test_spiking_is_sn_layer_of_bn(self, kind, training):
        """A spiking site, ``bn_sn_layer(op(...))``, against the unfused
        ``sn_layer(bn(op(...)))``: bit-identical spikes, gradients and
        statistics in both modes."""
        results = []
        for fused in (True, False):
            op, x, w, extra = self._operands(kind, seed=38)
            bn = random_bn(4, seed=39).train(training)
            for t in (x, w, *extra):
                t.requires_grad = True
            with Tape() as tape:
                y = op(x, w, *extra)
                out = bn_sn_layer(y, bn, LIF) if fused else sn_layer(bn(y), LIF)
                backward(_weighted_sum(out, seed=40), tape)
            assert out.data.any() and not out.data.all()
            results.append([out.data, bn.running_mean, bn.running_var, bn.gamma.grad,
                            bn.beta.grad, *(t.grad for t in (x, w, *extra))])
        for got, want in zip(*results):
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("kind", sorted(LINEAR_OPS))
    def test_eval_gradient_matches_fd(self, kind):
        """The teacher's and the FTM's sites, ``bn(op(x, w[, bias]))`` in
        eval: gradients of x, w, gamma, beta and the bias against central
        differences."""
        op, x, w, extra = self._operands(kind, seed=35)
        bn = random_bn(4, seed=36).eval()

        def f(x, w, gamma, beta, *bias):
            bn.gamma, bn.beta = gamma, beta
            return _weighted_sum(bn(op(x, w, *bias)), seed=37)

        report = grad_check(f, [x, w, bn.gamma, bn.beta, *extra], h=1e-4, tol=1e-5)
        assert report.passed, report


def make_layers(din, dout, rng, stride=1, kernel_t=5):
    sgc = SaSgcLayer(din, dout, 3, LIF, rng, 0.125)
    stc = StcLayer(dout, LIF, rng, kernel_t=kernel_t, stride=stride)
    return sgc, stc


def zero_bn_gamma_one(layer):
    """BN in pass-through state: gamma 1, beta 0 (fresh init already is)."""
    return layer


class TestSgcForward:
    def test_zero_input_zero_output(self):
        rng = np.random.default_rng(2)
        sgc, _ = make_layers(3, 8, rng)
        adj = partition_branches(SkeletonTopology.ucla20())
        x = Tensor(np.zeros((2, 2, 3, 20, 6), dtype=np.float32))
        out = sgc.sgc(x, adj)
        np.testing.assert_array_equal(out.data, 0.0)

    def test_values_in_0_1_2(self):
        rng = np.random.default_rng(3)
        adj = partition_branches(SkeletonTopology.ucla20())
        for trial in range(5):
            sgc, _ = make_layers(4, 6, np.random.default_rng(50 + trial))
            x = Tensor((rng.uniform(size=(2, 2, 4, 20, 6)) > 0.7).astype(np.float32))
            out = sgc.sgc(x, adj)
            assert np.isin(out.data, (0.0, 1.0, 2.0)).all()

    def test_channel_mismatch(self):
        rng = np.random.default_rng(4)
        sgc, _ = make_layers(3, 8, rng)
        adj = partition_branches(SkeletonTopology.ucla20())
        with pytest.raises(InvalidInputError):
            sgc.sgc(Tensor(np.zeros((1, 1, 5, 20, 4), dtype=np.float32)), adj)


class TestSsaForward:
    def test_dead_query_keeps_input(self):
        rng = np.random.default_rng(5)
        sgc, _ = make_layers(3, 6, rng)
        sgc.w_q.data[:] = 0.0
        sgc.w_k.data[:] = 0.0
        sgc.w_v.data[:] = 0.0
        h = Tensor((np.random.default_rng(6).uniform(size=(2, 1, 6, 20, 4)) > 0.5)
                   .astype(np.float32))
        out = sgc.ssa(h)
        # zero projections + zero-beta BN give sub-threshold zeros everywhere
        np.testing.assert_array_equal(out.data, h.data)

    def test_attention_term_binary_bound(self):
        rng = np.random.default_rng(7)
        sgc, _ = make_layers(3, 6, rng)
        h = Tensor((np.random.default_rng(8).uniform(size=(2, 2, 6, 10, 4)) > 0.5)
                   .astype(np.float32))
        out = sgc.ssa(h)
        assert np.all(out.data <= h.data + 1.0)

    def test_qk_product_counting_bound(self):
        rng = np.random.default_rng(9)
        d = 6
        q = (rng.uniform(size=(2, 1, 4, 5, d)) > 0.5).astype(np.float32)
        k = (rng.uniform(size=(2, 1, 4, 5, d)) > 0.5).astype(np.float32)
        prod = np.matmul(q, k.transpose(0, 1, 2, 4, 3))
        assert prod.min() >= 0
        assert prod.max() <= d
        assert np.allclose(prod, np.round(prod))


class TestStcForward:
    def test_zero_input_zero_output(self):
        rng = np.random.default_rng(10)
        _, stc = make_layers(3, 6, rng)
        x = Tensor(np.zeros((2, 2, 6, 5, 8), dtype=np.float32))
        np.testing.assert_array_equal(stc(x).data, 0.0)

    def test_stride_two_halves_t(self):
        rng = np.random.default_rng(11)
        _, stc = make_layers(3, 6, rng, stride=2)
        x = Tensor(np.zeros((2, 1, 6, 5, 16), dtype=np.float32))
        assert stc(x).shape == (2, 1, 6, 5, 8)

    def test_values_in_0_1_2(self):
        rng = np.random.default_rng(12)
        for trial in range(5):
            _, stc = make_layers(3, 4, np.random.default_rng(60 + trial))
            x = Tensor((rng.uniform(size=(2, 2, 4, 5, 8)) > 0.5).astype(np.float32) * 2)
            out = stc(x)
            assert np.isin(out.data, (0.0, 1.0, 2.0)).all()

    def test_odd_t_with_stride_two_rejected(self):
        rng = np.random.default_rng(13)
        _, stc = make_layers(3, 4, rng, stride=2)
        with pytest.raises(InvalidInputError):
            stc(Tensor(np.zeros((1, 1, 4, 5, 7), dtype=np.float32)))


class TestFullBlock:
    def test_table_shape_pipeline(self):
        # layer-3 geometry: channels 64->128 at stride 2, [4,64,25,16] -> [4,128,25,8]
        rng = np.random.default_rng(14)
        sgc = SaSgcLayer(64, 128, 3, LIF, rng, 0.125)
        stc = StcLayer(128, LIF, rng, kernel_t=5, stride=2)
        adj = partition_branches(SkeletonTopology.ntu25())
        x = Tensor((np.random.default_rng(15).uniform(size=(4, 1, 64, 25, 16)) > 0.8)
                   .astype(np.float32))
        out = sa_sgc_stc_block(x, sgc, stc, adj)
        assert out.shape == (4, 1, 128, 25, 8)

    def test_zero_input_zero_output(self):
        rng = np.random.default_rng(16)
        sgc, stc = make_layers(3, 6, rng)
        adj = partition_branches(SkeletonTopology.ucla20())
        x = Tensor(np.zeros((2, 1, 3, 20, 8), dtype=np.float32))
        out = sa_sgc_stc_block(x, sgc, stc, adj)
        np.testing.assert_array_equal(out.data, 0.0)

    def test_values_bounded_by_two(self):
        rng = np.random.default_rng(17)
        sgc, stc = make_layers(3, 5, rng)
        adj = partition_branches(SkeletonTopology.ucla20())
        x = Tensor((np.random.default_rng(18).uniform(size=(2, 2, 3, 20, 8)) > 0.5)
                   .astype(np.float32))
        out = sa_sgc_stc_block(x, sgc, stc, adj)
        assert out.data.max() <= 2.0

    def test_permutation_equivariance_exact(self):
        rng = np.random.default_rng(19)
        topo = SkeletonTopology.ucla20()
        adj = partition_branches(topo)
        sgc, stc = make_layers(3, 6, np.random.default_rng(20))
        sgc.eval(); stc.eval()
        x_np = (np.random.default_rng(21).uniform(size=(2, 2, 3, 20, 8)) > 0.6
                ).astype(np.float32)
        base = sa_sgc_stc_block(Tensor(x_np), sgc, stc, adj).data
        for _ in range(5):
            perm = rng.permutation(20)
            adj_p = adj[:, perm][:, :, perm]
            x_p = Tensor(x_np[:, :, :, perm, :])
            out_p = sa_sgc_stc_block(x_p, sgc, stc, adj_p).data
            np.testing.assert_array_equal(out_p, base[:, :, :, perm, :])
