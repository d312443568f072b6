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

Each round is one tape node. Layer 1 is one planar (N, Σ(2l+1), ch) array:
degree l holds components l² to (l+1)² − 1, and the channels are the
innermost axis, so each component of each degree is one contiguous (rows,
ch) pass. The rounds build their per-edge messages one degree at a time,
and neither node keeps an edge-row array: each keeps the bond-row output of
its weight map, (R, (l_max+1)·ch), and its backward gathers that to the
edges and gathers h0[dst] or layer1[dst] again. Outputs are bitwise those
of the same rounds composed from one tape operation per numpy operation:
the contraction adds a degree's components in order, as numpy's sum over a
short contiguous axis does. The per-degree (N, ch, 2l+1) blocks of
`SO3Result.layer1` are views of the planar array.

Degree-l blocks rotate by the degree-l Wigner matrix when the crystal
rotates; the scalar readout feeds a node-wise transformer and projection
head identical in form to the invariant encoder's, and everything pooled
into the final embedding is degree 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, NamedTuple

import numpy as np

from .nn import BatchNorm, Linear, ParamStore, ProjectionHead, mean_pool
from .se3 import SE3NodeLayer
from .tensor import Tensor, _segment_rows

if TYPE_CHECKING:
    from .model import Pack


class _Edges(NamedTuple):
    """What both rounds read of the graph, at the model's precision."""

    src: np.ndarray
    dst: np.ndarray
    bond: np.ndarray | None  # each edge's row of `rbf`; None if one per edge
    rbf: np.ndarray          # (R, num_rbf)
    inv_degree: np.ndarray   # (N, 1), 1 / incoming edges

    def weights(self, w: np.ndarray, l: int, ch: int) -> np.ndarray:
        """Degree l's (E, ch) per-edge weights from a weight map's rows."""
        cols = w[:, l * ch:(l + 1) * ch]
        return cols if self.bond is None else cols[self.bond]

    def mean_in(self, msg: np.ndarray) -> np.ndarray:
        """The mean of the edge rows `msg` over each node's incoming edges,
        summed in one call: the rounds' other per-degree work runs on the
        calling thread, and splitting these sums alone across the pool
        made a round slower."""
        out = _segment_rows(msg, self.src, len(self.inv_degree), split=False)
        out *= self.inv_degree.reshape((-1,) + (1,) * (msg.ndim - 1))
        return out


def _dot(blocks: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Σ_m blocks[:, m] * y[:, m] for blocks (E, 2l+1, ch), y (E, 2l+1),
    adding the components in order. `blocks` is overwritten."""
    blocks *= y[:, :, None]
    out = blocks[:, 0].copy()
    for m in range(1, blocks.shape[1]):
        out += blocks[:, m]
    return out


def _degree_view(layer1: Tensor, l: int) -> Tensor:
    """Degree l of the planar layer 1 as an (N, ch, 2l+1) view."""
    lo, hi = l * l, (l + 1) ** 2

    def back(g):
        full = np.zeros_like(layer1.data)
        full[:, lo:hi] = g.transpose(0, 2, 1)
        layer1._add_grad(full)

    return Tensor._result(layer1.data[:, lo:hi].transpose(0, 2, 1),
                          (layer1,), back)


class TensorProductLayer:
    """Both rounds, expand (0, l, l) then contract (l, l, 0), for l ≤ l_max.

    The per-edge weights come from `<name>.tp1.weights` (expand) and
    `<name>.tp2.weights` (contract), each (num_rbf, (l_max+1) * channels)
    with degree-major columns. Aggregation is the mean over each node's
    incoming edges. Each round is one tape node (`_expand`, `_contract`).
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
        dtype = h0.data.dtype
        # constants at the model's precision, as Tensor(...) casts them
        inv_degree = 1.0 / np.bincount(src, minlength=len(h0.data))
        e = _Edges(src, dst, edge_bond, np.asarray(edge_rbf, dtype=dtype),
                   inv_degree.astype(dtype)[:, None])
        layer1 = self._expand(h0, sh, e)
        h2 = self._contract(layer1, sh, e)
        return {l: _degree_view(layer1, l) for l in range(len(sh))}, h2

    def _expand(self, h0: Tensor, sh: list[np.ndarray], e: _Edges) -> Tensor:
        """Planar layer 1, (N, Σ(2l+1), ch): the mean over incoming edges of
        h0[dst] * w_l ⊗ Y_l, plus h0 at degree 0. Keeps the bond-row
        weights."""
        lin = self.expand_weights
        w = lin.forward([(e.rbf, None)])
        x = h0.data
        ch = x.shape[1]
        hd = x[e.dst]
        out = np.empty((len(x), len(sh) ** 2, ch), dtype=x.dtype)
        for l, y in enumerate(sh):
            t = hd * e.weights(w, l, ch)
            out[:, l * l:(l + 1) ** 2] = e.mean_in(
                t[:, None, :] * np.asarray(y, dtype=x.dtype)[:, :, None])
        out[:, 0] += x

        def back(g):
            hd = x[e.dst]
            gw = np.empty((len(hd), w.shape[1]), dtype=g.dtype)
            ghd = None
            # degrees in reverse, and the gather's gradient before the
            # residual's: the order a composed tape adds them to h0's
            for l in reversed(range(len(sh))):
                gm = (g[:, l * l:(l + 1) ** 2] * e.inv_degree[:, :, None])[e.src]
                gt = _dot(gm, np.asarray(sh[l], dtype=g.dtype))
                np.multiply(gt, hd, out=gw[:, l * ch:(l + 1) * ch])
                if h0.needs_grad():
                    gt *= e.weights(w, l, ch)
                    ghd = gt if ghd is None else np.add(ghd, gt, out=ghd)
            lin.vjp(gw, [(e.rbf, e.bond)], [False])
            if ghd is not None:
                h0.accumulate_grad(_segment_rows(ghd, e.dst, len(x)))
                h0.accumulate_grad(g[:, 0])

        return Tensor._result(out, (h0,) + lin.params, back)

    def _contract(self, layer1: Tensor, sh: list[np.ndarray], e: _Edges
                  ) -> Tensor:
        """h2, (N, ch): the mean over incoming edges of
        Σ_l (layer1_l[dst] · c_l Y_l) w_l, plus layer 1's degree 0. Keeps
        the bond-row weights."""
        lin = self.contract_weights
        w = lin.forward([(e.rbf, None)])
        x = layer1.data
        ch = x.shape[2]

        def dots():
            """(l, c_l Y_l, layer1_l[dst] · c_l Y_l) per degree."""
            for l, (y, c) in enumerate(zip(sh, self.contract_coeffs)):
                cy = np.asarray(c * y, dtype=x.dtype)
                yield l, cy, _dot(x[e.dst, l * l:(l + 1) ** 2], cy)

        msg = None
        for l, _, dot in dots():
            dot *= e.weights(w, l, ch)
            msg = dot if msg is None else np.add(msg, dot, out=msg)
        h2 = e.mean_in(msg)
        h2 += x[:, 0]

        def back(g):
            gmsg = (g * e.inv_degree)[e.src]
            gw = np.empty((len(gmsg), w.shape[1]), dtype=g.dtype)
            gx = None
            if layer1.needs_grad():
                gx = np.zeros_like(x)
                gx[:, 0] = g
            for l, cy, dot in dots():
                np.multiply(gmsg, dot, out=gw[:, l * ch:(l + 1) * ch])
                if gx is not None:
                    gdot = gmsg * e.weights(w, l, ch)
                    gx[:, l * l:(l + 1) ** 2] += _segment_rows(
                        gdot[:, None, :] * cy[:, :, None], e.dst, len(x))
            lin.vjp(gw, [(e.rbf, e.bond)], [False])
            if gx is not None:
                layer1.accumulate_grad(gx)

        return Tensor._result(h2, (layer1,) + lin.params, back)


@dataclass
class SO3Result:
    """Intermediate and final products of one equivariant forward pass."""

    layer1: dict[int, Tensor]   # degree -> (N, ch, 2l+1), planar views
    layer2_scalars: Tensor      # (N, ch)
    nodes: Tensor               # (N, width)
    pooled: Tensor              # (B, width), one row per structure


class SO3Encoder:
    """Scalar projection, both tensor-product rounds, invariant readout,
    node-wise transformer, mean pool, projection head. The node-wise layers
    are `se3.SE3NodeLayer`s on the radial bond rows, so their edge maps run
    composed with φ's first layer there too."""

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
