"""Equivariant encoder: two closed-form tensor-product rounds and readout.

Node features start as scalars h0 (N, ch). The expand round couples them
with the edge-direction harmonics Y_l, as in Tensor Field Networks (Thomas
et al., 2018): degree l of node i is the mean over its incoming edges of
h0[dst] * w_l ⊗ Y_l, plus h0 at degree 0. The contract round takes every
degree back to a scalar: the mean of Σ_l c_l (h_l[dst] · Y_l) w_l, plus the
degree-0 block. Each w_l is a per-edge, per-channel weight computed from the
edge's radial features. Those depend on the edge's length only, so the
weight maps, like `edge_proj`, run on one row per bond and are gathered to
the directed edges; the harmonics and everything after the gather stay per
directed edge.

These are the (0, l, l) and (l, l, 0) couplings. In the real orthonormal
basis of `harmonics.py` their Clebsch–Gordan tensors are I and
c_l·I with c_l = (-1)^l / sqrt(2l+1), so no coupling tensor is built; the
test suite checks both constants against a Clebsch–Gordan oracle.

Degree-l blocks rotate by the degree-l Wigner matrix when the crystal
rotates; the scalar readout feeds a node-wise transformer and projection
head identical in form to the invariant encoder's, and everything pooled
into the final embedding is degree 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .nn import BatchNorm, Linear, ParamStore, ProjectionHead, mean_pool
from .se3 import SE3NodeLayer
from .tensor import Tensor, segment_sum

if TYPE_CHECKING:
    from .model import Pack


class TensorProductLayer:
    """Both rounds, expand (0, l, l) then contract (l, l, 0), for l ≤ l_max.

    The per-edge weights come from `<name>.tp1.weights` (expand) and
    `<name>.tp2.weights` (contract), each (num_rbf, (l_max+1) * channels)
    with degree-major columns. Aggregation is the mean over each node's
    incoming edges.
    """

    def __init__(self, store: ParamStore, name: str, *, channels: int,
                 num_rbf: int, l_max: int):
        self.contract_coeffs = [(-1.0) ** l / math.sqrt(2 * l + 1)
                                for l in range(l_max + 1)]
        self.expand_weights = Linear(store, name + ".tp1.weights", num_rbf,
                                     (l_max + 1) * channels)
        self.contract_weights = Linear(store, name + ".tp2.weights", num_rbf,
                                       (l_max + 1) * channels)

    def __call__(self, h0: Tensor, sh: list[np.ndarray],
                 edge_rbf: np.ndarray, src: np.ndarray, dst: np.ndarray,
                 edge_bond: np.ndarray | None = None
                 ) -> tuple[dict[int, Tensor], Tensor]:
        """Degree blocks {l: (N, ch, 2l+1)} after the expand round, and the
        (N, ch) scalars after the contract round. `edge_rbf` has one row
        per bond when `edge_bond` gives each edge's row, else one per edge."""
        num_nodes, ch = h0.shape
        num_edges = len(src)
        num_degrees = len(self.contract_coeffs)
        rbf = [(Tensor(edge_rbf), edge_bond)]
        w1 = self.expand_weights(rbf).reshape(num_edges, num_degrees, ch)
        w2 = self.contract_weights(rbf).reshape(num_edges, num_degrees, ch)
        inv_degree = 1.0 / np.bincount(src, minlength=num_nodes)

        def mean_in(msg: Tensor) -> Tensor:
            scale = inv_degree.reshape((num_nodes,) + (1,) * (msg.ndim - 1))
            return segment_sum(msg, src, num_nodes) * Tensor(scale)

        h_dst = h0.take(dst)
        layer1 = {}
        for l, y in enumerate(sh):
            msg = ((h_dst * w1[:, l, :]).reshape(num_edges, ch, 1)
                   * Tensor(y[:, None, :]))
            layer1[l] = mean_in(msg)
        layer1[0] = layer1[0] + h0.reshape(num_nodes, ch, 1)

        msg = None
        for l, (y, c) in enumerate(zip(sh, self.contract_coeffs)):
            dot = (layer1[l].take(dst) * Tensor(c * y[:, None, :])).sum(axis=2)
            term = dot * w2[:, l, :]
            msg = term if msg is None else msg + term
        return layer1, mean_in(msg) + layer1[0].reshape(num_nodes, ch)


@dataclass
class SO3Result:
    """Intermediate and final products of one equivariant forward pass."""

    layer1: dict[int, Tensor]   # degree -> (N, ch, 2l+1)
    layer2_scalars: Tensor      # (N, ch)
    nodes: Tensor               # (N, width)
    pooled: Tensor              # (B, width), one row per structure


class SO3Encoder:
    """Scalar projection, both tensor-product rounds, invariant readout,
    node-wise transformer, mean pool, projection head."""

    def __init__(self, store: ParamStore, name: str, *, width: int,
                 atom_dim: int, num_rbf: int, l_max: int, node_layers: int):
        if width % 4 != 0:
            raise ValueError(f"model width must be divisible by 4, got {width}")
        ch = width // 4
        self.scalar_proj = Linear(store, name + ".scalar_proj", atom_dim, ch)
        self.tp = TensorProductLayer(store, name, channels=ch,
                                     num_rbf=num_rbf, l_max=l_max)
        self.bn_read = BatchNorm(store, name + ".bn_read", ch)
        self.f_read = Linear(store, name + ".f_read", ch, ch)
        self.scalar_lift = Linear(store, name + ".scalar_lift", ch, width)
        self.edge_proj = Linear(store, name + ".edge_proj", num_rbf, width)
        self.node_layers = [
            SE3NodeLayer(store, f"{name}.node_layers.{i}", width)
            for i in range(node_layers)]
        self.head = ProjectionHead(store, name + ".head", width)

    def __call__(self, p: Pack, training: bool) -> SO3Result:
        """Encode the pack `p` from its radial rows `so3_edge_rbf` and
        harmonics `sh`; `pooled` has one row per structure."""
        h0 = self.scalar_proj(Tensor(p.atom_feats))  # (N, ch)
        layer1, h2 = self.tp(h0, p.sh, p.so3_edge_rbf, p.src, p.dst, p.edge_bond)
        readout = self.f_read(
            self.bn_read(h2, p.node_graph, training).softplus()).softplus() + h0
        nodes = self.scalar_lift(readout)
        e = self.edge_proj(Tensor(p.so3_edge_rbf))
        for layer in self.node_layers:
            nodes = layer(nodes, e, p, training)
        pooled = self.head(mean_pool(nodes, p.node_graph))
        return SO3Result(layer1=layer1, layer2_scalars=h2, nodes=nodes,
                         pooled=pooled)
