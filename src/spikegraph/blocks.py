"""Graph blocks: adjacency branches, spiking graph conv with self-attention,
and spiking temporal conv.

Every feature, student or teacher, is laid out [..., C, V, T]: channels at
axis -3, joints at -2, frames at -1, behind any leading axes (the student's
[S, B], the teacher's [B]).  The models' inputs, x[B, 3, V, T] per
modality, share that layout.  Channel maps act on axis -3; the adjacency,
one adj[K, V, V] array of K normalized branches, acts on the joint axis;
the temporal conv slides over T.
"""

from __future__ import annotations

import numpy as np

from .data import SkeletonTopology
from .module import BatchNorm, Module, Parameter, kaiming_normal
from .neurons import LifConfig, bn_sn_layer, sn_layer
from .profiler import record_cost
from .tensor import (InvalidInputError, Tensor, _later, add, conv2d, matmul, permute,
                     record_op, reshape, scale, slice_)


def normalize_adjacency(adj: np.ndarray) -> np.ndarray:
    """Symmetric normalization D^{-1/2} A D^{-1/2}, with no self-loops added.

    D is the diagonal of row degrees; zero-degree rows stay zero.
    """
    adj = np.asarray(adj, dtype=np.float32)
    if adj.ndim != 2 or adj.shape[0] != adj.shape[1]:
        raise InvalidInputError(f"adjacency must be square, got {adj.shape}")
    if (adj < 0).any():
        raise InvalidInputError("adjacency entries must be nonnegative")
    deg = adj.sum(axis=1)
    with np.errstate(divide="ignore"):
        d_inv_sqrt = np.where(deg > 0, deg ** -0.5, 0.0).astype(np.float32)
    return d_inv_sqrt[:, None] * adj * d_inv_sqrt[None, :]


def partition_branches(topo: SkeletonTopology) -> np.ndarray:
    """Self / inward (child->parent) / outward branches, stacked as
    adj[K=3, V, V].

    The self branch is the identity, which normalization leaves as it is;
    the directional branches are normalized without self-loops (identity
    is its own branch), leaving zero-degree rows zero.
    """
    v = topo.num_joints
    inward = np.zeros((v, v), dtype=np.float32)
    for child, parent in topo.edges:
        inward[parent, child] = 1.0  # message flows child -> parent
    outward = inward.T.copy()
    return np.stack([np.eye(v, dtype=np.float32),
                     normalize_adjacency(inward), normalize_adjacency(outward)])


def channel_map(x: Tensor, w: Tensor) -> Tensor:
    """Apply w[D, D'] to the channel axis (-3) of x (a 1x1 convolution), fused.
    w's gradient runs on the sweep's worker thread (``tensor._later``)
    while backward computes x's."""
    if x.ndim < 3 or x.shape[-3] != w.shape[0]:
        raise InvalidInputError(f"channel map of {x.shape} with weight {w.shape}")
    xd, wd = x.data, w.data
    out_data = np.moveaxis(np.tensordot(xd, wd, axes=([-3], [0])), -1, -3)
    out = Tensor._wrap(out_data)
    reduce_axes = tuple(range(x.ndim - 1))

    def backward(g):
        gm = np.moveaxis(g, -3, -1)
        gw = _later(np.tensordot, np.moveaxis(xd, -3, -1), gm, (reduce_axes, reduce_axes))
        gx = np.moveaxis(np.tensordot(gm, wd, axes=([-1], [1])), -1, -3)
        return gx, gw

    record_op((x, w), out, backward)
    return out


def graph_conv(x: Tensor, adj: np.ndarray, w: Tensor) -> Tensor:
    """Partitioned graph convolution sum_k A_k x W_k, as one op.

    adj[K, V, V] mixes the joint axis (-2; out_v = sum_u A_k[v, u] x_u) and
    w[K, D, D'] maps the channel axis (-3).  The forward maps channels
    first, in one GEMM to K*D' whose rows fold every other axis, then
    contracts (u, k) against the stacked adjacency once per row group; no
    row's result depends on the others, so a sample's output does not
    depend on its batch.  Backward keeps only x; w's gradient runs on the
    sweep's worker thread (``tensor._later``) while backward computes x's.
    """
    k, d, d_out = w.shape
    if x.ndim < 3 or x.shape[-3] != d or adj.shape != (k, x.shape[-2], x.shape[-2]):
        raise InvalidInputError(
            f"graph conv of {x.shape} with adjacency {adj.shape} and weights {w.shape}")
    v = x.shape[-2]
    xm = np.moveaxis(x.data, (-2, -3), (-2, -1))                    # [R.., V, D]
    lead = xm.shape[:-2]
    a_cat = adj.transpose(1, 2, 0).reshape(v, v * k)                # [v, (u, k)]
    wd = w.data
    w_cat = wd.transpose(1, 0, 2).reshape(d, k * d_out)             # [d, (k, d')]
    y = np.tensordot(xm, w_cat, axes=([-1], [0])).reshape(-1, v * k, d_out)
    out = np.matmul(a_cat, y).reshape(lead + (v, d_out))
    out = Tensor._wrap(np.moveaxis(out, (-2, -1), (-2, -3)))
    rows = tuple(range(len(lead) + 1))

    def weight_grad(gy):                                              # [K, D, D']
        return np.tensordot(xm, gy.reshape(lead + (v, k, d_out)),
                            axes=(rows, rows)).transpose(1, 0, 2)

    def backward(g):
        gm = np.ascontiguousarray(np.moveaxis(g, (-2, -3), (-2, -1)))
        gy = np.matmul(a_cat.T, gm.reshape(-1, v, d_out))            # [R, (u, k), D']
        gw = _later(weight_grad, gy)
        gx = gy.reshape(-1, k * d_out) @ wd.transpose(0, 2, 1).reshape(k * d_out, d)
        return np.moveaxis(gx.reshape(lead + (v, d)), (-2, -1), (-2, -3)), gw

    record_op((x, w), out, backward)
    return out


class SaSgcLayer(Module):
    """Multi-branch spiking graph convolution plus spiking self-attention."""

    def __init__(self, in_channels: int, out_channels: int, num_branches: int,
                 lif: LifConfig, rng: np.random.Generator, attention_scale: float):
        super().__init__()
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.lif = lif
        self.attention_scale = attention_scale
        self.w_graph = Parameter(np.stack([
            kaiming_normal(rng, (in_channels, out_channels), in_channels)
            for _ in range(num_branches)]))
        self.w_residual = Parameter(
            kaiming_normal(rng, (in_channels, out_channels), in_channels))
        self.bn_branches = BatchNorm(out_channels)
        self.bn_residual = BatchNorm(out_channels)
        self.w_q = Parameter(kaiming_normal(rng, (out_channels, out_channels), out_channels))
        self.w_k = Parameter(kaiming_normal(rng, (out_channels, out_channels), out_channels))
        self.w_v = Parameter(kaiming_normal(rng, (out_channels, out_channels), out_channels))
        self.bn_q = BatchNorm(out_channels)
        self.bn_k = BatchNorm(out_channels)
        self.bn_v = BatchNorm(out_channels)

    def sgc(self, x: Tensor, adj: np.ndarray) -> Tensor:
        """H = SN(BN(x W_r)) + SN(BN(sum_k A_k x W_k)): uint8, values in {0,1,2}."""
        if x.ndim != 5:
            raise InvalidInputError(f"sgc expects [S,B,D,V,T], got {x.shape}")
        record_cost("sgc", self, x)
        branch = bn_sn_layer(graph_conv(x, adj, self.w_graph), self.bn_branches, self.lif)
        residual = bn_sn_layer(channel_map(x, self.w_residual), self.bn_residual, self.lif)
        return add(residual, branch)

    def ssa(self, h: Tensor) -> Tensor:
        """H_SA = H + SN((Q K^T) V * s), tokens = joints per (step, frame)."""
        if h.shape[2] != self.out_channels:
            raise InvalidInputError(
                f"ssa channel extent {h.shape[2]} != weights {self.out_channels}")
        q = bn_sn_layer(channel_map(h, self.w_q), self.bn_q, self.lif)
        k = bn_sn_layer(channel_map(h, self.w_k), self.bn_k, self.lif)
        v = bn_sn_layer(channel_map(h, self.w_v), self.bn_v, self.lif)
        record_cost("ssa", self, h, q, k, v)
        # tokens are the V joints of each (spike step, frame) slice
        qt = permute(q, (0, 1, 4, 3, 2))  # [S,B,T,V,C]
        kt = permute(k, (0, 1, 4, 2, 3))  # [S,B,T,C,V]
        vt = permute(v, (0, 1, 4, 3, 2))  # [S,B,T,V,C]
        attn = matmul(matmul(qt, kt), vt)           # [S,B,T,V,C]
        attn = scale(attn, self.attention_scale)
        attn = sn_layer(attn, self.lif)
        attn = permute(attn, (0, 1, 4, 3, 2))       # [S,B,C,V,T]
        return add(h, attn)


def check_temporal_kernel(kernel_t: int) -> None:
    """A temporal conv padded by (k - 1) // 2 keeps T only for odd k."""
    if kernel_t < 1 or kernel_t % 2 == 0:
        raise InvalidInputError(f"temporal_kernel must be odd and >= 1, got {kernel_t}")


class StcLayer(Module):
    """Spiking temporal convolution with a spiking residual path.

    T_out = SN(BN(W_t * h)) + SN(residual(h)); the channel extent is kept
    and on stride 2 the residual is subsampled before SN.
    """

    def __init__(self, channels: int, lif: LifConfig, rng: np.random.Generator,
                 kernel_t: int, stride: int = 1):
        super().__init__()
        if stride not in (1, 2):
            raise InvalidInputError(f"stride must be 1 or 2, got {stride}")
        check_temporal_kernel(kernel_t)
        self.channels = channels
        self.kernel_t = kernel_t
        self.stride = stride
        self.lif = lif
        fan_in = channels * kernel_t
        self.weight = Parameter(
            kaiming_normal(rng, (channels, channels, 1, kernel_t), fan_in))
        self.bias = Parameter(np.zeros(channels, dtype=np.float32))
        self.bn = BatchNorm(channels)

    def forward(self, h_sa: Tensor) -> Tensor:
        if h_sa.ndim != 5:
            raise InvalidInputError(f"stc expects [S,B,D,V,T], got {h_sa.shape}")
        s, b, d, v, t = h_sa.shape
        if d != self.channels:
            raise InvalidInputError(
                f"stc channel extent {d} != weights {self.channels}")
        if self.stride == 2 and t % 2 != 0:
            raise InvalidInputError(f"stride-2 temporal conv requires even T, got {t}")
        record_cost("stc", self, h_sa)
        pad_t = (self.kernel_t - 1) // 2
        y = conv2d(reshape(h_sa, (s * b, d, v, t)), self.weight, self.bias,
                   stride=(1, self.stride), padding=(0, pad_t))
        main = bn_sn_layer(reshape(y, (s, b) + y.shape[1:]), self.bn, self.lif)
        res = h_sa
        if self.stride == 2:
            res = slice_(res, (..., slice(0, None, 2)))
        return add(main, sn_layer(res, self.lif))


def sa_sgc_stc_block(x: Tensor, sgc_layer: SaSgcLayer, stc_layer: StcLayer,
                     adj: np.ndarray) -> Tensor:
    """One student block: graph conv -> self-attention -> temporal conv."""
    return stc_layer(sgc_layer.ssa(sgc_layer.sgc(x, adj)))
