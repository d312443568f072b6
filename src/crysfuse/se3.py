"""Invariant graph transformer over periodic-edge scalars.

Edge-wise layers refine edge features with per-channel angle and lattice
information (three channels, one per reference vector); node-wise layers
aggregate gated messages from incoming edges. All inputs are scalars
(distances, angles, lattice invariants), so the whole encoder is unchanged
under rigid motions of the crystal by construction. Attention is elementwise
query-key gating through a sigmoid — there is no normalization across
neighbors.

An edge and its reverse carry the same scalars, so the edge stack runs on
one row per bond (`graph.PeriodicGraph`), and node layers gather its rows
to the directed edges.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

import numpy as np

from .nn import MLP2, BatchNorm, Linear, ParamStore, ProjectionHead, mean_pool
from .tensor import Tensor, concat, segment_sum

if TYPE_CHECKING:
    from .model import Pack


class SE3EdgeLayer:
    """Update edge features from angle and lattice channels.

    For each channel k of the three reference directions, key and value are
    built from (edge ∥ lattice-k ∥ angle-k) through shared nonlinear blocks;
    the sigmoid-gated values of the channels are summed, batch-normalized,
    and added back residually. The angle map is shared between key and value
    paths; the lattice maps are per-channel and separate for key/value.
    """

    def __init__(self, store: ParamStore, name: str, dim: int, lattice_dim: int,
                 angle_dim: int):
        self.dim = dim
        self.f_q = Linear(store, name + ".f_q", dim, dim)
        self.f_k = Linear(store, name + ".f_k", dim, dim)
        self.f_v = Linear(store, name + ".f_v", dim, dim)
        self.f_k_lat = [Linear(store, f"{name}.f_k_lat{m}", lattice_dim, dim)
                        for m in range(3)]
        self.f_v_lat = [Linear(store, f"{name}.f_v_lat{m}", lattice_dim, dim)
                        for m in range(3)]
        self.f_angle = Linear(store, name + ".f_angle", angle_dim, dim)
        self.phi_k = MLP2(store, name + ".phi_k", 3 * dim, dim, dim)
        self.phi_v = MLP2(store, name + ".phi_v", 3 * dim, dim, dim)
        self.bn_attn = BatchNorm(store, name + ".bn_attn", dim)
        self.bn_msg = BatchNorm(store, name + ".bn_msg", dim)

    def __call__(self, e: Tensor, p: Pack, training: bool) -> Tensor:
        """`e` has one row per edge-scalar row of the pack `p`; training
        batch norms count row r `p.bond_weight[r]` times."""
        scale = 1.0 / math.sqrt(self.dim)
        weight = p.bond_weight if training else None
        q = self.f_q(e)
        ke = self.f_k(e)
        ve = self.f_v(e)
        logits = []
        values = []
        for m in range(3):
            ang = self.f_angle(Tensor(p.se3_angle_rbf[:, m, :]))
            # lattice key and value: one row per structure, gathered per edge
            # after phi's first matmul
            lat = Tensor(p.lattice_feats[:, m, :])
            k_lat = (self.f_k_lat[m](lat), p.bond_graph)
            v_lat = (self.f_v_lat[m](lat), p.bond_graph)
            k_m = self.phi_k([ke, k_lat, ang])
            v_m = self.phi_v([ve, v_lat, ang])
            logits.append(q * k_m * scale)
            values.append(v_m)
        # One batch norm over all three channels' gating logits. Rows are
        # bond-major (bond i's three channels at 3i..3i+2), so each
        # structure's rows stay one contiguous group.
        alpha = self.bn_attn(concat(logits, axis=1).reshape(-1, self.dim),
                             np.repeat(p.bond_graph, 3), training,
                             None if weight is None else np.repeat(weight, 3)
                             ).sigmoid()
        gated = alpha * concat(values, axis=1).reshape(-1, self.dim)
        msg = gated.reshape(-1, 3, self.dim).sum(axis=1)
        return (e + self.bn_msg(msg, p.bond_graph, training, weight)).softplus()


class SE3NodeLayer:
    """Aggregate gated messages from each node's incoming edges.

    Keys/values combine the center node, the neighbor node, and the edge
    feature (center and neighbor have separate maps; the edge map is shared
    between key and value paths). Messages are summed per node, normalized,
    and added residually. The edge feature `e` may have one row per bond:
    `edge_bond` then gives each directed edge's row, and the edge map runs
    on the bond rows before the gather.
    """

    def __init__(self, store: ParamStore, name: str, dim: int):
        self.dim = dim
        self.f_q = Linear(store, name + ".f_q", dim, dim)
        self.f_k_ctr = Linear(store, name + ".f_k_ctr", dim, dim)
        self.f_k_nbr = Linear(store, name + ".f_k_nbr", dim, dim)
        self.f_v_ctr = Linear(store, name + ".f_v_ctr", dim, dim)
        self.f_v_nbr = Linear(store, name + ".f_v_nbr", dim, dim)
        self.f_e = Linear(store, name + ".f_e", dim, dim)
        self.phi_k = MLP2(store, name + ".phi_k", 3 * dim, dim, dim)
        self.phi_v = MLP2(store, name + ".phi_v", 3 * dim, dim, dim)
        self.bn_attn = BatchNorm(store, name + ".bn_attn", dim)
        self.bn_msg = BatchNorm(store, name + ".bn_msg", dim)

    def __call__(self, h: Tensor, e: Tensor, p: Pack, training: bool) -> Tensor:
        num_nodes = h.shape[0]
        scale = 1.0 / math.sqrt(self.dim)
        q = self.f_q(h).take(p.src)
        fe = (self.f_e(e), p.edge_bond)
        # centre, neighbour and bond terms go through phi's first matmul per
        # node or bond, then are gathered onto the edges
        k = self.phi_k([(self.f_k_ctr(h), p.src), (self.f_k_nbr(h), p.dst), fe])
        v = self.phi_v([(self.f_v_ctr(h), p.src), (self.f_v_nbr(h), p.dst), fe])
        alpha = self.bn_attn(q * k * scale, p.edge_graph, training).sigmoid()
        msg = segment_sum(alpha * v, p.src, num_nodes)
        return (h + self.bn_msg(msg, p.node_graph, training)).softplus()


class SE3Encoder:
    """Edge-wise stack, node-wise stack, mean pool, projection head."""

    def __init__(self, store: ParamStore, name: str, *, width: int,
                 atom_dim: int, num_rbf: int, num_angle_rbf: int,
                 edge_layers: int, node_layers: int):
        lattice_dim = num_rbf + 2  # basis-vector length rbf + two pairwise cosines
        self.node_proj = Linear(store, name + ".node_proj", atom_dim, width)
        self.edge_proj = Linear(store, name + ".edge_proj", num_rbf, width)
        self.edge_layers = [
            SE3EdgeLayer(store, f"{name}.edge_layers.{i}", width, lattice_dim,
                         num_angle_rbf)
            for i in range(edge_layers)]
        self.node_layers = [
            SE3NodeLayer(store, f"{name}.node_layers.{i}", width)
            for i in range(node_layers)]
        self.head = ProjectionHead(store, name + ".head", width)

    def __call__(self, p: Pack, training: bool) -> tuple[Tensor, Tensor, Tensor]:
        """Encode the pack `p`: (node embeddings (N, d), embeddings of its
        edge-scalar rows (R, d), pooled (B, d))."""
        e = self.edge_proj(Tensor(p.se3_edge_rbf))
        for layer in self.edge_layers:
            e = layer(e, p, training)
        h = self.node_proj(Tensor(p.atom_feats))
        for layer in self.node_layers:
            h = layer(h, e, p, training)
        pooled = self.head(mean_pool(h, p.node_graph))
        return h, e, pooled


def lattice_scalars(ref_vectors: np.ndarray, rbf_fn) -> np.ndarray:
    """Invariant per-channel lattice features from the reference frame.

    Channel m gets the basis expansion of |u_m| plus the cosines of u_m
    against the other two reference vectors, shape (3, num_rbf + 2).
    `rbf_fn` expands the array of the three lengths, shape (3, num_rbf).
    """
    refs = np.asarray(ref_vectors, dtype=np.float64)
    lengths = np.linalg.norm(refs, axis=1)
    cosines = [[refs[m] @ refs[o] / (lengths[m] * lengths[o])
                for o in ((m + 1) % 3, (m + 2) % 3)] for m in range(3)]
    return np.concatenate([rbf_fn(lengths), cosines], axis=1)
