"""Equivariant encoder: spherical-harmonic tensor-product layers and readout.

Node features start as scalars, pick up higher-degree blocks by coupling
with edge-direction harmonics (layer one), and are contracted back to
scalars (layer two). Every coupling path carries a per-edge, per-channel
weight computed from the edge's radial features. The scalar readout feeds a
node-wise transformer and projection head identical in form to the invariant
encoder's, yielding the pooled embedding.

Degree-l blocks rotate by the degree-l Wigner matrix when the crystal
rotates; everything pooled into the final embedding is degree 0.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .harmonics import real_coupling
from .nn import BatchNorm, Linear, ParamStore, ProjectionHead, mean_pool
from .se3 import SE3NodeLayer
from .tensor import Tensor, segment_sum


class TensorProductLayer:
    """One round of Agg_j[coupled(h_j, Y_ij) * w(e_ij)] + residual.

    `paths` lists the (degree_in, filter_degree, degree_out) couplings; the
    selection rule |l_in - l_f| <= l_out <= l_in + l_f is enforced at
    construction. Aggregation is the mean over each node's incoming edges;
    the residual applies wherever input and output carry the same degree.
    """

    def __init__(self, store: ParamStore, name: str, *, channels: int,
                 num_rbf: int, paths: list[tuple[int, int, int]]):
        for l_in, l_f, l_out in paths:
            if not abs(l_in - l_f) <= l_out <= l_in + l_f:
                raise ValueError(f"forbidden coupling path {(l_in, l_f, l_out)}")
        self.paths = list(paths)
        self.channels = channels
        self.weight_map = Linear(store, name + ".weights", num_rbf,
                                 len(paths) * channels)

    def __call__(self, blocks: dict[int, Tensor], sh: list[np.ndarray],
                 edge_rbf: np.ndarray, src: np.ndarray, dst: np.ndarray,
                 num_nodes: int) -> dict[int, Tensor]:
        num_edges = len(src)
        ch = self.channels
        w = self.weight_map(Tensor(edge_rbf)).reshape(num_edges, len(self.paths), ch)
        inv_degree = 1.0 / np.bincount(src, minlength=num_nodes)

        per_degree: dict[int, Tensor] = {}
        for p, (l_in, l_f, l_out) in enumerate(self.paths):
            coupling = real_coupling(l_in, l_f, l_out)
            # fold the edge harmonics into the coupling tensor: (E, m_in, m_out)
            mixer = np.einsum("ef,ifo->eio", sh[l_f], coupling)
            h_edge = blocks[l_in].take(dst)  # (E, ch, 2*l_in+1)
            mixed = (h_edge.reshape(num_edges, ch, 2 * l_in + 1, 1)
                     * Tensor(mixer[:, None, :, :])).sum(axis=2)
            contrib = mixed * w[:, p, :].reshape(num_edges, ch, 1)
            if l_out in per_degree:
                per_degree[l_out] = per_degree[l_out] + contrib
            else:
                per_degree[l_out] = contrib

        out: dict[int, Tensor] = {}
        for l_out, contrib in per_degree.items():
            agg = segment_sum(contrib, src, num_nodes) * Tensor(
                inv_degree[:, None, None])
            out[l_out] = agg + blocks[l_out] if l_out in blocks else agg
        return out


@dataclass
class SO3Result:
    """Intermediate and final products of one equivariant forward pass."""

    layer1: dict[int, Tensor]   # degree -> (N, ch, 2l+1)
    layer2_scalars: Tensor      # (N, ch)
    readout: Tensor             # (N, ch)
    nodes: Tensor               # (N, width)
    pooled: Tensor              # (B, width), one row per structure


class SO3Encoder:
    """Scalar projection, two tensor-product layers, invariant readout,
    node-wise transformer, mean pool, projection head."""

    def __init__(self, store: ParamStore, name: str, *, width: int,
                 atom_dim: int, num_rbf: int, l_max: int, node_layers: int):
        if width % 4 != 0:
            raise ValueError(f"model width must be divisible by 4, got {width}")
        ch = width // 4
        self.channels = ch
        self.scalar_proj = Linear(store, name + ".scalar_proj", atom_dim, ch)
        self.tp1 = TensorProductLayer(
            store, name + ".tp1", channels=ch, num_rbf=num_rbf,
            paths=[(0, l, l) for l in range(l_max + 1)])
        self.tp2 = TensorProductLayer(
            store, name + ".tp2", channels=ch, num_rbf=num_rbf,
            paths=[(l, l, 0) for l in range(l_max + 1)])
        self.bn_read = BatchNorm(store, name + ".bn_read", ch)
        self.f_read = Linear(store, name + ".f_read", ch, ch)
        self.scalar_lift = Linear(store, name + ".scalar_lift", ch, width)
        self.edge_proj = Linear(store, name + ".edge_proj", num_rbf, width)
        self.node_layers = [
            SE3NodeLayer(store, f"{name}.node_layers.{i}", width)
            for i in range(node_layers)]
        self.head = ProjectionHead(store, name + ".head", width)

    def __call__(self, atom_feats: np.ndarray, edge_rbf: np.ndarray,
                 sh: list[np.ndarray], src: np.ndarray, dst: np.ndarray,
                 node_graph: np.ndarray, edge_graph: np.ndarray,
                 training: bool) -> SO3Result:
        """Encode a pack of structures; `node_graph` and `edge_graph` give
        each node's and edge's structure, and `pooled` has one row per
        structure."""
        num_nodes = atom_feats.shape[0]
        h0 = self.scalar_proj(Tensor(atom_feats))  # (N, ch)
        blocks = {0: h0.reshape(num_nodes, self.channels, 1)}
        layer1 = self.tp1(blocks, sh, edge_rbf, src, dst, num_nodes)
        layer2 = self.tp2(layer1, sh, edge_rbf, src, dst, num_nodes)
        h2 = layer2[0].reshape(num_nodes, self.channels)
        readout = self.f_read(
            self.bn_read(h2, node_graph, training).softplus()).softplus() + h0
        nodes = self.scalar_lift(readout)
        e = self.edge_proj(Tensor(edge_rbf))
        for layer in self.node_layers:
            nodes = layer(nodes, e, src, dst, node_graph, edge_graph,
                          training)
        pooled = self.head(mean_pool(nodes, node_graph))
        return SO3Result(layer1=layer1, layer2_scalars=h2, readout=readout,
                         nodes=nodes, pooled=pooled)
