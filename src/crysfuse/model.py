"""The full dual-view property model.

One forward pass builds the invariant encoder over edge scalars (distances,
angles, lattice invariants), the equivariant encoder over edge directions
and radial features, and the fusion head over the two pooled embeddings.
Per-edge denoising heads for the self-supervised objective hang off the
final edge/node embeddings.

`MGTModel.make_inputs` featurizes a batch of graphs straight into one
`Pack`: the disjoint union of their graphs, with node and edge arrays
concatenated, `src`/`dst` offset, lattice features stacked per structure,
and each node, edge and edge-scalar row tagged with its structure.
Distances, angle cosines and edge directions are expanded once over the
whole pack, so featurization costs a few numpy calls per batch, not per
structure, and gives the bits of a per-structure expansion.

Clean packs are featurized per bond: an edge and its reverse have the same
distance and angles (`graph.PeriodicGraph`), so the distance and angle
expansions, the invariant encoder's `edge_proj` and edge layers, every node
layer's edge map `f_e`, the equivariant encoder's `edge_proj` and its
tensor-product weight maps, and the distance-noise head's radial block run
on one row per bond. Each directed edge reads its bond's row through a
gathered `Linear` block. Harmonics, endpoint gathers, node-layer attention
and messages stay per directed edge. Eval outputs equal those of a
per-edge pass bitwise; in training, batch norm over bond rows counts each
row once per directed edge, which matches a per-edge pass to rounding.
Pretraining's noisy views perturb each directed edge on its own, so their
packs hold one row per edge and no bond map.

In a training forward every `Linear`, batch norm and φ MLP (`nn.MLP2`) is
one tape node, and so is each attention block and each round of the
SO(3) tensor product (`so3.TensorProductLayer`). Each keeps only what its
backward reads, or what is costly to form again: a φ MLP its hidden
activation, an attention block its standardized logits, its gate and its
batch norm's per-structure statistics, a tensor-product round the bond
rows of its weight map; no round keeps a per-edge array. Every attention
block, in edge and node layers of both encoders, runs as one chain,
`se3.gated_sum`: φ_k, φ_v, the gate and a sum of rows over their owner, a
node owning its incoming edges and a bond its three edge-layer channels,
taken a tile of about `se3.TILE_ROWS` rows at a time. Every forward keeps
a tile's keys and values in scratch and never forms them for a whole
layer; backward recomputes them a tile at a time from φ's hidden
activations, one product each. An eval forward keeps the tile's φ
activations, logits and gates in scratch too, where a training forward
writes them into the arrays its tape nodes keep.

Every forward runs both encoders once over a pack, and the encoders, their
layers and the denoising heads read it. Pooling is a per-structure mean,
and in training passes every batch norm standardizes each structure over
its own nodes or edges (segment statistics over the pack's contiguous
rows), folding them into the running estimates one structure at a time in
pack order. So no crystal's statistics leak into another's, and the order
of a batch changes no structure's output. Eval passes use the running
statistics instead. So does every pass of encoders transferred by
`transfer_encoder_params`, and fine-tuning never updates them:
per-structure standardization subtracts the per-structure mean that a
pooled, structure-level target needs, so fine-tuning then optimizes the
same function that eval-mode prediction computes. Packing changes only how
BLAS blocks the matmuls, about 1e-12 relative against one structure at a
time. `predict_batch` runs eval forwards on packs of up to `PREDICT_CHUNK`
structures without recording a tape.

Inside `predict_batch`, `pretrain.pretrain_step` and
`pipeline.finetune_step` (`parallel.threads`) the `Linear` maps, softplus,
batch norm and the attention chains, and their backward, run as
row-range bodies split across the usable CPUs: the calling thread
computes one range and a pool thread each other range, with numpy's
OpenBLAS pinned to one thread until the call returns. An attention
chain's ranges are unions of whole tiles, and a tile holds whole owners,
nodes or bonds, since the chain sums each owner's rows; in training it
holds whole structures, as does every batch norm's range, since each is
standardized by its own statistics. Tiles depend on the rows alone, every
row is computed as in one call, and weight gradients are summed over
fixed row blocks, so predictions and training are bitwise independent of
the number of threads and of BLAS's.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass
from itertools import islice

import numpy as np

from . import parallel
from .config import RunConfig
from .featurize import (AtomTable, embed_angles, embed_atoms, load_atom_table,
                        one_hot_table, rbf_expand, uniform_rbf)
from .graph import PeriodicGraph, build_graph
from .harmonics import spherical_harmonics
from .moe import ConcatHead, MoEHead
from .nn import MLP2, ParamStore
from .se3 import SE3Encoder, lattice_scalars
from .so3 import SO3Encoder, SO3Result
from .structures import CrystalStructure
from .tensor import Tensor, no_grad, set_default_dtype

PREDICT_CHUNK = 32  # structures per packed inference forward


@dataclass
class Pack:
    """Several structures' featurized inputs as one disjoint-union graph.

    The edge-scalar features have R rows: one per bond (R = B) with
    `edge_bond` mapping each directed edge to its row, or, in pretraining's
    noisy views, one per directed edge (R = E) with `edge_bond` None.
    """

    atom_feats: np.ndarray       # (N, atom_dim), structures' nodes in order
    se3_edge_rbf: np.ndarray     # (R, K), structures' edge-scalar rows in order
    se3_angle_rbf: np.ndarray    # (R, 3, Ka)
    lattice_feats: np.ndarray    # (B, 3, K + 2)
    so3_edge_rbf: np.ndarray     # (R, K)
    sh: list[np.ndarray]         # per-degree (E, 2l+1)
    src: np.ndarray              # (E,) node indices into the pack
    dst: np.ndarray              # (E,)
    node_graph: np.ndarray       # (N,) structure of each node
    edge_graph: np.ndarray       # (E,) structure of each edge
    bond_graph: np.ndarray       # (R,) structure of each edge-scalar row
    edge_bond: np.ndarray | None  # (E,) row of each edge; None if R = E
    bond_weight: np.ndarray | None  # (R,) directed edges per row; None if R = E


@dataclass
class EncodedPack:
    pack: Pack          # the encoded inputs, which the denoising heads read
    se3_nodes: Tensor   # (N, d)
    se3_bonds: Tensor   # (R, d), one row per edge-scalar row of the pack
    e1: Tensor          # (B, d)
    so3: SO3Result

    @property
    def e2(self) -> Tensor:
        return self.so3.pooled


@dataclass
class ModelOutputs:
    e1: Tensor            # (B, d)
    e2: Tensor            # (B, d)
    prediction: Tensor    # (B, 1)
    scores: np.ndarray    # (B, 2) router weights (nan for the concat head)


class MGTModel:
    """Dual-encoder model with a switchable fusion head."""

    def __init__(self, cfg: RunConfig):
        errs = cfg.validate()
        if errs:
            raise ValueError("invalid config: " + "; ".join(errs))
        self.cfg = cfg
        set_default_dtype(cfg.precision)
        self.store = ParamStore(cfg.seed)
        self.atom_table: AtomTable = (
            one_hot_table() if cfg.atom_table is None
            else load_atom_table(cfg.atom_table))
        self.dist_spec = uniform_rbf(0.0, cfg.cutoff, cfg.num_rbf)
        self.angle_spec = uniform_rbf(-1.0, 1.0, cfg.num_angle_rbf)
        d = cfg.width
        self.se3 = SE3Encoder(
            self.store, "se3", width=d, atom_dim=self.atom_table.dim,
            num_rbf=cfg.num_rbf, num_angle_rbf=cfg.num_angle_rbf,
            edge_layers=cfg.se3_edge_layers, node_layers=cfg.se3_node_layers)
        self.so3 = SO3Encoder(
            self.store, "so3", width=d, atom_dim=self.atom_table.dim,
            num_rbf=cfg.num_rbf, l_max=cfg.l_max,
            node_layers=cfg.so3_node_layers)
        if cfg.head == "moe":
            self.fusion = MoEHead(self.store, "moe", d)
        else:
            self.fusion = ConcatHead(self.store, "concat", d)
        self.denoise_se3 = MLP2(self.store, "denoise.se3", d, d, 3)
        self.denoise_so3 = MLP2(self.store, "denoise.so3",
                                2 * d + cfg.num_rbf, d, 1)
        # Set by pipeline.transfer_encoder_params: the encoders' batch norms
        # then always normalize with their (pretrained) running statistics.
        self.frozen_encoder_stats = False

    # -- input preparation -------------------------------------------------

    def build_graph(self, s: CrystalStructure) -> PeriodicGraph:
        return build_graph(s, r=self.cfg.cutoff,
                           max_neighbors=self.cfg.max_neighbors,
                           image_budget=self.cfg.image_budget)

    def make_inputs(self, graphs: list[PeriodicGraph],
                    angles: list[np.ndarray] | None = None,
                    so3_distances: list[np.ndarray] | None = None) -> Pack:
        """Featurize `graphs` into one pack, one edge-scalar row per bond.

        Pretraining's noisy views pass each graph's perturbed per-edge
        `angles` and `so3_distances`, together, and get one row per
        directed edge and no bond map (directions are never perturbed).
        Distances, angles and harmonics are expanded once over the pack,
        lattice features once per structure.
        """
        if (angles is None) != (so3_distances is None):
            raise ValueError("noisy angles and distances go together")
        nodes = [g.num_nodes for g in graphs]
        edges = [g.num_edges for g in graphs]
        # batch norm and pooling reduce over each structure's contiguous rows,
        # and np.add.reduceat misreads an empty segment
        assert min(nodes) > 0 and min(edges) > 0, "structure without nodes or edges"
        if angles is None:
            rows = [g.num_bonds for g in graphs]
            angles = np.concatenate([g.angles[g.bond_edges] for g in graphs])
            edge_bond = np.concatenate([
                g.edge_bond + o
                for g, o in zip(graphs, np.cumsum([0] + rows[:-1]))])
            bond_weight = np.bincount(edge_bond, minlength=sum(rows))
            # nothing writes into input features, so both views share one array
            se3_rbf = so3_rbf = rbf_expand(
                np.concatenate([g.distance[g.bond_edges] for g in graphs]),
                self.dist_spec)
        else:
            rows, edge_bond, bond_weight = edges, None, None
            angles = np.concatenate(angles)
            se3_rbf = rbf_expand(np.concatenate([g.distance for g in graphs]),
                                 self.dist_spec)
            so3_rbf = rbf_expand(np.concatenate(so3_distances), self.dist_spec)
        offsets = np.cumsum([0] + nodes[:-1])
        ids = np.arange(len(graphs))
        return Pack(
            atom_feats=embed_atoms(
                [z for g in graphs for z in g.structure.species],
                self.atom_table),
            se3_edge_rbf=se3_rbf,
            se3_angle_rbf=embed_angles(angles, self.angle_spec),
            lattice_feats=np.stack([
                lattice_scalars(g.ref_vectors,
                                lambda x: rbf_expand(x, self.dist_spec))
                for g in graphs]),
            so3_edge_rbf=so3_rbf,
            sh=spherical_harmonics(np.concatenate([g.vector for g in graphs]),
                                   self.cfg.l_max),
            src=np.concatenate([g.src + o for g, o in zip(graphs, offsets)]),
            dst=np.concatenate([g.dst + o for g, o in zip(graphs, offsets)]),
            node_graph=np.repeat(ids, nodes),
            edge_graph=np.repeat(ids, edges),
            bond_graph=np.repeat(ids, rows),
            edge_bond=edge_bond,
            bond_weight=bond_weight,
        )

    # -- forward -----------------------------------------------------------

    def encode(self, p: Pack, training: bool) -> EncodedPack:
        """Run both encoders once over the pack `p`, at this model's
        precision; training passes standardize each structure with its own
        batch statistics."""
        set_default_dtype(self.cfg.precision)
        training = training and not self.frozen_encoder_stats
        nodes, bonds, e1 = self.se3(p, training)
        return EncodedPack(pack=p, se3_nodes=nodes, se3_bonds=bonds, e1=e1,
                           so3=self.so3(p, training))

    def forward(self, graphs: list[PeriodicGraph], training: bool,
                router_override: np.ndarray | None = None) -> ModelOutputs:
        """Featurize `graphs` as one clean pack, encode it, and fuse the
        pooled embeddings into one prediction per structure."""
        enc = self.encode(self.make_inputs(graphs), training)
        prediction, scores = self.fusion(enc.e1, enc.e2, router_override)
        return ModelOutputs(e1=enc.e1, e2=enc.e2, prediction=prediction,
                            scores=scores)

    def predict_batch(self, graphs: Iterable[PeriodicGraph]
                      ) -> tuple[np.ndarray, np.ndarray]:
        """Eval-mode normalized-space predictions (B,) and router scores
        (B, 2), nan for the concat head.

        Runs one packed forward per `PREDICT_CHUNK` graphs and records no
        tape. `graphs` is consumed lazily, so a generator that builds them
        on demand holds one chunk's graphs and features at a time.
        """
        it = iter(graphs)
        preds, scores = [], []
        with no_grad(), parallel.threads():
            while chunk := list(islice(it, PREDICT_CHUNK)):
                out = self.forward(chunk, training=False)
                preds.append(out.prediction.data.ravel())
                scores.append(out.scores)
        if not preds:
            return np.empty(0), np.empty((0, 2))
        return np.concatenate(preds), np.concatenate(scores)

    # -- denoising heads ----------------------------------------------------

    def predict_angle_noise(self, enc: EncodedPack) -> Tensor:
        """Per-edge 3-channel angle-noise estimate from final edge
        embeddings, at this model's precision."""
        set_default_dtype(self.cfg.precision)
        return self.denoise_se3([(enc.se3_bonds, enc.pack.edge_bond)])

    def predict_distance_noise(self, enc: EncodedPack) -> Tensor:
        """Per-edge distance-noise estimate from endpoint nodes + radial
        features, over all edges of the pack, at this model's precision."""
        set_default_dtype(self.cfg.precision)
        p = enc.pack
        return self.denoise_so3([(enc.so3.nodes, p.src), (enc.so3.nodes, p.dst),
                                 (Tensor(p.so3_edge_rbf), p.edge_bond)])
