"""The full dual-view property model.

One forward pass builds the invariant encoder over edge scalars (distances,
angles, lattice invariants), the equivariant encoder over edge directions
and radial features, and the fusion head over the two pooled embeddings.
Per-edge denoising heads for the self-supervised objective hang off the
final edge/node embeddings.

The encoders run on packs. A pack is the disjoint union of some structures'
graphs: node and edge arrays concatenated, `src`/`dst` offset, lattice
features stacked per structure, and each node and edge tagged with its
structure, so every layer runs once per pack and pooling is a per-structure
mean. `forward` packs its whole list whenever the batch norms use running
statistics (eval passes, and every pass after `transfer_encoder_params`):
a batch norm is then a fixed per-row map, so packing changes only how
BLAS blocks the matmuls, about 1e-12 relative in the predictions.
Otherwise each structure is a pack of one, which does exactly the
arithmetic of a forward over that structure alone: each concatenation
copies one array, the lattice row gathered to every edge equals its
broadcast, and pooling sums rows in order and then divides, as `mean`
does. So per-structure statistics keep their bits. `predict_batch` runs
eval forwards on packs of up to `PREDICT_CHUNK` structures without
recording a tape.

Batch statistics (batch norm) are computed per structure — each crystal is
normalized over its own nodes and edges — so evaluation order never leaks
between structures. That holds for pretraining and for fine-tuning from
scratch. Encoders transferred from a pretrained model instead keep the
pretrained running statistics in every pass, training passes included, and
fine-tuning never updates them: per-structure standardization subtracts the
per-structure mean that a pooled, structure-level target needs, so
fine-tuning then optimizes the same function that eval-mode prediction
computes.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass
from itertools import islice

import numpy as np

from .config import RunConfig
from .featurize import (AtomTable, embed_angles, embed_atoms, embed_edges,
                        load_atom_table, one_hot_table, rbf_expand,
                        uniform_rbf)
from .graph import PeriodicGraph, build_graph
from .harmonics import spherical_harmonics
from .moe import ConcatHead, MoEHead
from .nn import MLP2, ParamStore
from .se3 import SE3Encoder, lattice_scalars
from .so3 import SO3Encoder, SO3Result
from .structures import CrystalStructure
from .tensor import Tensor, concat, no_grad, set_default_dtype

PREDICT_CHUNK = 32  # structures per packed inference forward


@dataclass
class ModelInputs:
    """Precomputed constant features for one structure's forward pass."""

    graph: PeriodicGraph
    atom_feats: np.ndarray       # (N, atom_dim)
    se3_edge_rbf: np.ndarray     # (E, K) — clean distances
    se3_angle_rbf: np.ndarray    # (E, 3, Ka) — possibly perturbed angles
    lattice_feats: np.ndarray    # (3, K + 2)
    so3_edge_rbf: np.ndarray     # (E, K) — possibly perturbed distances
    sh: list[np.ndarray]         # per-degree (E, 2l+1) edge-direction harmonics


@dataclass
class Pack:
    """Several structures' inputs as one disjoint-union graph."""

    atom_feats: np.ndarray       # (N, atom_dim), structures' nodes in order
    se3_edge_rbf: np.ndarray     # (E, K)
    se3_angle_rbf: np.ndarray    # (E, 3, Ka)
    lattice_feats: np.ndarray    # (B, 3, K + 2)
    so3_edge_rbf: np.ndarray     # (E, K)
    sh: list[np.ndarray]         # per-degree (E, 2l+1)
    src: np.ndarray              # (E,) node indices into the pack
    dst: np.ndarray              # (E,)
    node_graph: np.ndarray       # (N,) structure of each node
    edge_graph: np.ndarray       # (E,) structure of each edge


def pack_inputs(inputs: list[ModelInputs]) -> Pack:
    nodes = [len(inp.atom_feats) for inp in inputs]
    edges = [len(inp.graph.src) for inp in inputs]
    offsets = np.cumsum([0] + nodes[:-1])
    ids = np.arange(len(inputs))
    return Pack(
        atom_feats=np.concatenate([inp.atom_feats for inp in inputs]),
        se3_edge_rbf=np.concatenate([inp.se3_edge_rbf for inp in inputs]),
        se3_angle_rbf=np.concatenate([inp.se3_angle_rbf for inp in inputs]),
        lattice_feats=np.stack([inp.lattice_feats for inp in inputs]),
        so3_edge_rbf=np.concatenate([inp.so3_edge_rbf for inp in inputs]),
        sh=[np.concatenate(blocks)
            for blocks in zip(*(inp.sh for inp in inputs))],
        src=np.concatenate([inp.graph.src + o for inp, o in zip(inputs, offsets)]),
        dst=np.concatenate([inp.graph.dst + o for inp, o in zip(inputs, offsets)]),
        node_graph=np.repeat(ids, nodes),
        edge_graph=np.repeat(ids, edges),
    )


@dataclass
class EncodedPack:
    se3_nodes: Tensor   # (N, d)
    se3_edges: Tensor   # (E, d)
    e1: Tensor          # (B, d)
    so3: SO3Result

    @property
    def e2(self) -> Tensor:
        return self.so3.pooled


@dataclass
class ModelOutputs:
    encoded: list[EncodedPack]
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

    def make_inputs(self, graph: PeriodicGraph,
                    angles: np.ndarray | None = None,
                    so3_distances: np.ndarray | None = None) -> ModelInputs:
        """Featurize one graph; pass perturbed angles/distances to build the
        noisy views used in pretraining (directions are never perturbed)."""
        angles = graph.angles if angles is None else angles
        so3_dist = graph.distance if so3_distances is None else so3_distances
        return ModelInputs(
            graph=graph,
            atom_feats=embed_atoms(graph.structure.species, self.atom_table),
            se3_edge_rbf=embed_edges(graph.distance, self.dist_spec),
            se3_angle_rbf=embed_angles(angles, self.angle_spec),
            lattice_feats=lattice_scalars(
                graph.ref_vectors[0],
                lambda x: rbf_expand(np.array([x]), self.dist_spec)[0]),
            so3_edge_rbf=embed_edges(so3_dist, self.dist_spec),
            sh=spherical_harmonics(graph.vector, self.cfg.l_max),
        )

    def inputs_for_structure(self, s: CrystalStructure) -> ModelInputs:
        return self.make_inputs(self.build_graph(s))

    # -- forward -----------------------------------------------------------

    def encode(self, inputs: list[ModelInputs], training: bool) -> EncodedPack:
        """Run both encoders once over the pack of `inputs`."""
        training = training and not self.frozen_encoder_stats
        p = pack_inputs(inputs)
        nodes, edges, e1 = self.se3(
            p.atom_feats, p.se3_edge_rbf, p.se3_angle_rbf, p.lattice_feats,
            p.src, p.dst, p.node_graph, p.edge_graph, training)
        so3 = self.so3(p.atom_feats, p.so3_edge_rbf, p.sh, p.src, p.dst,
                       p.node_graph, training)
        return EncodedPack(se3_nodes=nodes, se3_edges=edges, e1=e1, so3=so3)

    def forward(self, inputs: list[ModelInputs], training: bool,
                router_override: np.ndarray | None = None) -> ModelOutputs:
        """One pack of all `inputs` when the batch norms use running
        statistics, else a pack per structure (module docstring)."""
        if training and not self.frozen_encoder_stats:
            packs = [[inp] for inp in inputs]
        else:
            packs = [inputs]
        encoded = [self.encode(pack, training) for pack in packs]
        e1 = concat([enc.e1 for enc in encoded], axis=0)
        e2 = concat([enc.e2 for enc in encoded], axis=0)
        prediction, scores = self.fusion(e1, e2, router_override)
        return ModelOutputs(encoded=encoded, e1=e1, e2=e2,
                            prediction=prediction, scores=scores)

    def predict_batch(self, inputs: Iterable[ModelInputs]
                      ) -> tuple[np.ndarray, np.ndarray]:
        """Eval-mode normalized-space predictions (B,) and router scores
        (B, 2), nan for the concat head.

        Runs one packed forward per `PREDICT_CHUNK` inputs and records no
        tape. `inputs` is consumed lazily, so a generator that featurizes
        on demand holds one chunk's features at a time.
        """
        it = iter(inputs)
        preds, scores = [], []
        with no_grad():
            while chunk := list(islice(it, PREDICT_CHUNK)):
                out = self.forward(chunk, training=False)
                preds.append(out.prediction.data.ravel())
                scores.append(out.scores)
        if not preds:
            return np.empty(0), np.empty((0, 2))
        return np.concatenate(preds), np.concatenate(scores)

    def predict_raw(self, structures: list[CrystalStructure]) -> np.ndarray:
        """Eval-mode normalized-space predictions, shape (B,)."""
        return self.predict_batch(
            self.inputs_for_structure(s) for s in structures)[0]

    # -- denoising heads ----------------------------------------------------

    def predict_angle_noise(self, enc: EncodedPack) -> Tensor:
        """Per-edge 3-channel angle-noise estimate from final edge embeddings."""
        return self.denoise_se3(enc.se3_edges)

    def predict_distance_noise(self, enc: EncodedPack,
                               inp: ModelInputs) -> Tensor:
        """Per-edge distance-noise estimate from endpoint nodes + radial
        features, for `enc` the pack of the single structure `inp`."""
        src, dst = inp.graph.src, inp.graph.dst
        feats = concat([enc.so3.nodes.take(src), enc.so3.nodes.take(dst),
                        Tensor(inp.so3_edge_rbf)], axis=1)
        return self.denoise_so3(feats)
