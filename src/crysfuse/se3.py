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

Every attention block of both encoders is one chain, `gated_sum`: φ_k and
φ_v, the gate and a gated sum of rows over their owner (a node layer's
edges over their `src` node, the edge layer's three channels per bond
over the bond), run a tile of rows at a time in one body.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

import numpy as np

from . import parallel
from .nn import (MLP2, BatchNorm, Linear, ParamStore, ProjectionHead,
                 Standardized, _blocks, _parents, mean_pool)
from .tensor import Tensor, _stable_sigmoid, _sum_sorted, concat, recording

if TYPE_CHECKING:
    from .model import Pack


# Most rows in a tile of an attention chain (`gated_sum`). A forward holds
# a tile's keys and values, not the layer's, and without a tape its φ
# activations, logits and gates too.
TILE_ROWS = 512


def _tile_bounds(starts: np.ndarray, n: int) -> np.ndarray:
    """Where the tiles of n rows begin, and n. The rows are cut into the
    fewest equal tiles of at most TILE_ROWS rows whose count is a power
    of two, and each cut moves back to the last of the sorted run
    `starts` at or before it. So the tiles depend on the rows alone, none
    splits a run, and where `parallel.run` cuts the rows into two or four
    even parts of whole tiles, the parts keep even: with tiles cut
    elsewhere they came out up to a tile apart."""
    count = 1 << max(0, math.ceil(math.log2(max(n, 1) / TILE_ROWS)))
    grid = np.arange(1, count) * n // count
    bounds = np.concatenate(
        ([0], starts[np.searchsorted(starts, grid, side="right") - 1], [n]))
    # sorted already, so dropping repeats is all np.unique would do (and
    # it imports numpy.ma)
    return bounds[np.diff(bounds, prepend=-1) != 0]


class _Rows:
    """The keys or the values of `gated_sum`: a Tensor of rows, or a pair
    (φ, x) of an `nn.MLP2` and its input blocks, whose rows the chain
    computes a tile at a time, and in backward again from φ's hidden
    activation."""

    def __init__(self, x):
        self.given = x if isinstance(x, Tensor) else None
        self.hidden = None
        if self.given is not None:
            self.parents = (x,)
            return
        self.phi, self.x = x
        self.parents = (_parents(_blocks(self.x)) + self.phi.lin1.params
                        + self.phi.lin2.params)

    def kernel(self):
        """The forward, `rows(lo, hi, y, out)`: rows [lo, hi), the given
        ones, or φ's, its hidden activation written into `y` and its output
        into `out`."""
        if self.given is not None:
            data = self.given.data
            return lambda lo, hi, y, out: data[lo:hi]
        return self.phi.row_kernel([(t.data, rows, pre)
                                    for t, rows, pre in _blocks(self.x)])[1]

    def keep_hidden(self, n: int, dtype) -> np.ndarray | None:
        """An array of n rows for φ's hidden activation, which a forward
        that records a tape fills; None for given rows."""
        if self.given is None:
            width = self.phi.lin1.weight.data.shape[1]
            self.hidden = np.empty((n, width), dtype)
        return self.hidden

    def again(self, lo: int, hi: int, out: np.ndarray) -> np.ndarray:
        """Rows [lo, hi) in backward: the given ones, or φ's output of the
        kept hidden activation written into `out` by the call that wrote
        it in the forward, so the bits match where [lo, hi) is a tile."""
        if self.given is not None:
            return self.given.data[lo:hi]
        return self.phi.output(self.hidden[lo:hi], out)

    def tensor(self) -> Tensor:
        """The rows' tape node: the given one, or φ's over the kept hidden
        activation, which keeps no output (`nn.MLP2.node`)."""
        return self.given if self.given is not None else self.phi.node(
            self.x, self.hidden)


def _tiles(bounds: np.ndarray, lo: int, hi: int) -> list[tuple[int, int]]:
    """The tiles of `bounds` in rows [lo, hi), cut at lo and hi too."""
    edges = [lo, *bounds[(bounds > lo) & (bounds < hi)].tolist(), hi]
    return list(zip(edges, edges[1:]))


def gated_sum(bn: BatchNorm, q: Tensor, k, v, owner: np.ndarray,
              groups: np.ndarray, training: bool,
              weight: np.ndarray | None = None) -> Tensor:
    """segment_sum(sigmoid(bn(q[owner] * k * scale)) * v, owner), scale
    1/sqrt(d), a whole attention block as one chain: `q` has one row per
    owner, `owner` is sorted, and the keys `k` and values `v` have one row
    per entry of `owner`. Each is a Tensor of those rows, or a pair
    (φ, x) of an `nn.MLP2` and its input blocks, which the chain runs
    itself. A training batch norm standardizes each structure of `groups`
    apart, counting row r `weight[r]` times.

    The rows run in tiles of at most about `TILE_ROWS` (`_tile_bounds`): a
    tile ends at an owner, and in training at a structure, so each is
    summed and standardized whole. One body takes a tile through φ_k,
    φ_v, the logits, the gate and the sum into its owners' rows of the
    output. The tile's keys and values go into scratch of its part, and
    only the sums are written out. A pass that records no tape puts φ's
    hidden activations (d wide), the logits and the gate into one more
    scratch array. One that does writes them into whole arrays instead:
    φ's tape nodes (`nn.MLP2.node`) keep the hidden activations and no
    output, and the chain's node the standardized logits, the gate and
    bn's statistics, gathering q again in backward. Backward runs the
    forward's tiles again, recomputes each tile's keys and values from the
    hidden activations by the call that formed them (`nn.MLP2.output`),
    and hands the whole key and value gradients to φ's nodes. Those stay
    nodes of their own so that the tape runs them where it ran them when
    they kept their outputs: a shared input, such as the edge layer's
    features, then sums its gradients in the same order. Parts are unions
    of whole tiles, so φ's products are cut the same way at any part
    count; given keys and values leave no product, and parts then cut at
    any owner (in training, structure). Outputs and gradients are bitwise
    those of the same expression composed from tape operations."""
    n, d = len(owner), q.data.shape[1]
    dtype = q.data.dtype
    scale = 1.0 / math.sqrt(d)
    k, v = _Rows(k), _Rows(v)
    keep = recording((q, bn.gamma, bn.beta) + k.parents + v.parents)
    cuts = groups if training else owner
    bounds = _tile_bounds(np.flatnonzero(np.diff(cuts, prepend=-1)), n)
    if k.given is None or v.given is None:
        cuts = np.repeat(np.arange(len(bounds) - 1), np.diff(bounds))
    krows, vrows = k.kernel(), v.kernel()
    msg = np.zeros_like(q.data)
    if keep:
        logits, alpha = np.empty((n, d), dtype), np.empty((n, d), dtype)
        kept = [k.keep_hidden(n, dtype), v.keep_hidden(n, dtype), logits,
                alpha]
    gate = Standardized(bn, None, groups, training, weight,
                        out=logits if keep else None)

    def body(lo, hi):
        tiles = _tiles(bounds, lo, hi)
        # the tile's keys and values, and without a tape φ's hidden
        # activations, the logits and the gate taking turns in a third
        scratch = np.empty((2 if keep else 3, max(b - a for a, b in tiles),
                            d), dtype)
        kk, vv = scratch[:2]
        for a, b in tiles:
            if keep:
                yk, yv, lg, al = (None if x is None else x[a:b] for x in kept)
            else:
                yk = yv = lg = al = scratch[2, :b - a]
            o = owner[a:b]
            kt, vt = krows(a, b, yk, kk[:b - a]), vrows(a, b, yv, vv[:b - a])
            np.multiply(q.data[o], kt, out=lg)
            lg *= scale
            gate.standardize(lg, lg, a, b)
            bn.affine(lg, out=al)
            _stable_sigmoid(al, out=al)
            _sum_sorted(al * vt, o, msg)

    parallel.run(body, n, cuts)
    gate.fold()
    if not keep:
        return Tensor(msg)
    kt, vt = k.tensor(), v.tensor()

    def back(g):
        gv = np.empty_like(alpha) if vt.needs_grad() else None
        gk = np.empty_like(alpha) if kt.needs_grad() else None
        gq = np.zeros_like(q.data) if q.needs_grad() else None
        ga = np.empty_like(alpha)

        def body(lo, hi):
            tiles = _tiles(bounds, lo, hi)
            # a tile's values, then its keys, recomputed
            rows = np.empty((max(b - a for a, b in tiles), d), dtype)
            o = owner[lo:hi]
            gr = g[o]
            if gv is not None:
                np.multiply(gr, alpha[lo:hi], out=gv[lo:hi])
            # ga, the gate's gradient, becomes bn's output gradient and xhat
            # that times xhat: their sums are beta's and gamma's gradients
            gz, gl = ga[lo:hi], alpha[lo:hi]
            for a, b in tiles:
                np.multiply(gr[a - lo:b - lo], v.again(a, b, rows[:b - a]),
                            out=gz[a - lo:b - lo])
            gz *= gl
            gz *= 1.0 - gl
            np.multiply(gz, bn.gamma.data, out=gl)
            gate.to_x(alpha, lo, hi)
            gate.xhat[lo:hi] *= gz
            gl *= scale  # the logits' gradient
            if gk is not None:
                np.multiply(gl, q.data[o], out=gk[lo:hi])
            if gq is not None:
                for a, b in tiles:
                    gl[a - lo:b - lo] *= k.again(a, b, rows[:b - a])
                _sum_sorted(gl, o, gq)

        parallel.run(body, n, cuts)
        bn.gamma._add_grad(gate.xhat.sum(axis=0))
        bn.beta._add_grad(ga.sum(axis=0))
        if gv is not None:
            vt.accumulate_grad(gv)
        if gk is not None:
            kt.accumulate_grad(gk)
        if gq is not None:
            q.accumulate_grad(gq)

    return Tensor._result(msg, (q, kt, vt, bn.gamma, bn.beta), back)


class SE3EdgeLayer:
    """Update edge features from angle and lattice channels.

    For each channel m of the three reference directions, key and value are
    built from (edge ∥ lattice-m ∥ angle-m) through shared nonlinear blocks;
    the sigmoid-gated values of the channels are summed, batch-normalized,
    and added back residually. The angle map is shared between key and value
    paths; the lattice maps are per-channel and separate for key/value.

    The channels run as one bond-major (3R, d) stack: row 3i + m is bond
    i's channel m, so each φ MLP is one call over all channels. Its edge
    block is the bond's row of `e`, gathered three times after φ's first
    product, and its lattice block the structure's row of channel m,
    gathered likewise. The edge, key-value and angle maps `f_k`, `f_v` and
    `f_angle` meet no nonlinearity before φ's first layer, so each runs
    composed with that layer's block (`nn.Linear`'s mapped blocks): the
    stack takes one product per block, and the edge blocks' products run
    on the R bond rows once, not once per channel. φ_k, φ_v, the gating
    and the sum over a bond's channels are one chain, `gated_sum` over the
    stack with the bond as each row's owner (`attend`).
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
        weight = p.bond_weight if training else None
        rows = len(e.data)
        q = self.f_q(e)
        # row 3i + m of the stack reads bond i's row of e, and row 3b + m of
        # the lattice maps' outputs, structure b's channel m
        bond = np.repeat(np.arange(rows), 3)
        lat = [Tensor(p.lattice_feats[:, m, :]) for m in range(3)]
        ang = (Tensor(p.se3_angle_rbf.reshape(3 * rows, -1)), None,
               self.f_angle)

        def lattice(maps):
            stack = concat([f(x) for f, x in zip(maps, lat)], axis=1)
            return stack.reshape(-1, self.dim), p.bond_graph

        k = (self.phi_k, [(e, bond, self.f_k), lattice(self.f_k_lat), ang])
        v = (self.phi_v, [(e, bond, self.f_v), lattice(self.f_v_lat), ang])
        msg = self.attend(q, k, v, p, training, weight)
        return (e + self.bn_msg(msg, p.bond_graph, training, weight)).softplus()

    def attend(self, q: Tensor, k: Tensor, v: Tensor, p: Pack, training: bool,
               weight: np.ndarray | None) -> Tensor:
        """Σ_m sigmoid(bn_attn(q * k_m * scale)) * v_m over the channels m:
        `gated_sum` over the bond-major (3R, d) stack of keys `k` and values
        `v`, bond i owning rows 3i..3i+2 and weighting each `weight[i]`."""
        return gated_sum(self.bn_attn, q, k, v,
                         np.repeat(np.arange(len(q.data)), 3),
                         np.repeat(p.bond_graph, 3), training,
                         None if weight is None else np.repeat(weight, 3))


class SE3NodeLayer:
    """Aggregate gated messages from each node's incoming edges.

    Keys/values combine the center node, the neighbor node, and the edge
    feature (center and neighbor have separate maps; the edge map is shared
    between key and value paths). Messages are summed per node, normalized,
    and added residually. The edge feature `e` may have one row per bond:
    `edge_bond` then gives each directed edge's row, and φ's first product
    runs on the bond rows before the gather. The edge map `f_e` meets no
    nonlinearity before φ's first layer, so it runs composed with that
    layer's block (`nn.Linear`'s mapped blocks): one bond-row product per
    φ, not three in all. The centre and neighbour maps run on node rows,
    where composing saves little. φ_k, φ_v, the gating and the sum over
    each node's edges are one chain, `gated_sum` with the edge's `src` as
    its owner (`attend`).
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
        q = self.f_q(h)
        fe = (e, p.edge_bond, self.f_e)
        # centre, neighbour and bond terms go through phi's first matmul per
        # node or bond, then are gathered onto the edges; the edge map runs
        # composed with that matmul
        k = (self.phi_k,
             [(self.f_k_ctr(h), p.src), (self.f_k_nbr(h), p.dst), fe])
        v = (self.phi_v,
             [(self.f_v_ctr(h), p.src), (self.f_v_nbr(h), p.dst), fe])
        msg = self.attend(q, k, v, p, training)
        return (h + self.bn_msg(msg, p.node_graph, training)).softplus()

    def attend(self, q: Tensor, k: Tensor, v: Tensor, p: Pack,
               training: bool) -> Tensor:
        """segment_sum(sigmoid(bn_attn(q[src] * k * scale)) * v, src):
        `gated_sum` over each node's incoming edges, `q` with one row per
        node and `k`, `v` one per edge."""
        return gated_sum(self.bn_attn, q, k, v, p.src, p.edge_graph, training)


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
