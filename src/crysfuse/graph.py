"""Periodic neighbor graph with scalar (distance/angle) and vector edge views.

For every atom the builder enumerates periodic images of all atoms out to a
cutoff radius and emits directed edges with the integer image offset, the
cartesian displacement, its length, and the angles against three per-node
reference vectors (the shortest independent self-image translations of the
lattice). Scalars feed the invariant encoder; displacement vectors feed the
equivariant one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .structures import CrystalStructure

DEFAULT_CUTOFF = 8.0
DEFAULT_MAX_NEIGHBORS = 25
DEFAULT_IMAGE_BUDGET = 200_000

_INDEP_TOL = 1e-10


class GraphError(ValueError):
    pass


@dataclass(frozen=True)
class PeriodicGraph:
    """Immutable directed multigraph over a crystal's periodic images.

    Edge arrays share one deterministic order: ascending source node, then
    (distance, dst, k1, k2, k3). ``ref_vectors[i]`` stacks the three
    reference translations of node i as rows.
    """

    structure: CrystalStructure
    src: np.ndarray          # (E,) int64
    dst: np.ndarray          # (E,) int64
    image: np.ndarray        # (E, 3) int64
    vector: np.ndarray       # (E, 3) float64, cart(dst image) - cart(src)
    distance: np.ndarray     # (E,) float64
    angles: np.ndarray       # (E, 3) float64 line angles in [0, pi/2]
    ref_vectors: np.ndarray  # (N, 3, 3) float64

    def __post_init__(self):
        for name in ("src", "dst", "image", "vector", "distance", "angles", "ref_vectors"):
            getattr(self, name).flags.writeable = False

    @property
    def num_nodes(self) -> int:
        return len(self.structure)

    @property
    def num_edges(self) -> int:
        return len(self.src)

    def to_json_dict(self) -> dict:
        """Dump nodes, reference vectors, and edge records for offline diffing."""
        return {
            "species": list(self.structure.species),
            "ref_vectors": self.ref_vectors.tolist(),
            "edges": [
                {
                    "src": int(self.src[e]),
                    "dst": int(self.dst[e]),
                    "image": self.image[e].tolist(),
                    "distance": float(self.distance[e]),
                    "vector": self.vector[e].tolist(),
                    "angles": self.angles[e].tolist(),
                }
                for e in range(self.num_edges)
            ],
        }


def perpendicular_widths(lattice: np.ndarray) -> np.ndarray:
    """Distance between opposite cell faces along each lattice direction."""
    volume = abs(float(np.linalg.det(lattice)))
    widths = np.empty(3)
    for m in range(3):
        cross = np.cross(lattice[(m + 1) % 3], lattice[(m + 2) % 3])
        widths[m] = volume / np.linalg.norm(cross)
    return widths


def _image_grid(bounds: np.ndarray) -> np.ndarray:
    """All integer offset triples with |k_m| <= bounds[m], shape (M, 3)."""
    axes = [np.arange(-int(b), int(b) + 1) for b in bounds]
    grid = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, 3)
    return grid


def _check_budget(bounds: np.ndarray, budget: int):
    count = int(np.prod(2 * bounds + 1))
    if count > budget:
        raise GraphError(
            f"image budget exceeded: scan of {count} periodic images is over the "
            f"cap of {budget}")


def _scan_bounds(r: float, widths: np.ndarray) -> np.ndarray:
    # An image offset k contributes a displacement whose component across face
    # m is at least (|k_m| - 1) * widths[m] for in-cell endpoints, so this box
    # covers every image within r.
    return np.array([math.ceil(r / w) + 1 for w in widths], dtype=np.int64)


def _node_candidates(cart, offsets, images, i, r):
    """Edges from node i: (dst, image, vector, distance) within radius r.

    The displacement is (cart_j - cart_i) + offset so that the +k and -k
    images of a self edge are exact negations — their distances tie bitwise,
    which keeps the sort and the neighbor cap deterministic under rigid
    motions of the cell.
    """
    disp = (cart - cart[i])[None, :, :] + offsets[:, None, :]  # (M, N, 3)
    dist = np.linalg.norm(disp, axis=2)
    mask = dist <= r
    zero = np.flatnonzero(np.all(images == 0, axis=1))[0]
    mask[zero, i] = False  # no zero-offset self edge
    m_idx, j_idx = np.nonzero(mask)
    return j_idx, images[m_idx], disp[m_idx, j_idx], dist[m_idx, j_idx]


def _edge_order(dst, image, dist):
    """Sort key (distance, dst, k1, k2, k3) ascending."""
    return np.lexsort((image[:, 2], image[:, 1], image[:, 0], dst, dist))


def reference_vectors(lattice: np.ndarray, image_budget: int = DEFAULT_IMAGE_BUDGET) -> tuple[np.ndarray, np.ndarray]:
    """Three shortest mutually independent lattice translations.

    Candidates are ranked by length; among equal lengths the offset with the
    largest (k1, k2, k3) wins, so a cubic cell yields the positive unit axes.
    Returns (vectors (3, 3) rows, integer offsets (3, 3) rows). The search box
    grows until it provably contains every translation at most as long as the
    current third pick.
    """
    widths = perpendicular_widths(lattice)
    bounds = np.array([1, 1, 1], dtype=np.int64)
    while True:
        _check_budget(bounds, image_budget)
        ks = _image_grid(bounds)
        ks = ks[np.any(ks != 0, axis=1)]
        vecs = ks @ lattice
        lengths = np.linalg.norm(vecs, axis=1)
        order = np.lexsort((-ks[:, 2], -ks[:, 1], -ks[:, 0], lengths))

        picked: list[int] = []
        for idx in order:
            if not picked:
                picked.append(idx)
            elif len(picked) == 1:
                area = np.linalg.norm(np.cross(vecs[picked[0]], vecs[idx]))
                if area > _INDEP_TOL:
                    picked.append(idx)
            else:
                det = np.linalg.det(np.vstack([vecs[picked[0]], vecs[picked[1]], vecs[idx]]))
                if abs(det) > _INDEP_TOL:
                    picked.append(idx)
                    break
        if len(picked) < 3:
            bounds = bounds + 1
            continue

        # box must cover every translation no longer than the third pick
        needed = np.array(
            [math.ceil(lengths[picked[2]] / w) for w in widths], dtype=np.int64)
        if np.all(bounds >= needed):
            return vecs[picked].copy(), ks[picked].copy()
        bounds = np.maximum(needed, bounds + 1)


def build_graph(
    s: CrystalStructure,
    r: float = DEFAULT_CUTOFF,
    max_neighbors: int = DEFAULT_MAX_NEIGHBORS,
    image_budget: int = DEFAULT_IMAGE_BUDGET,
) -> PeriodicGraph:
    """Build the periodic neighbor graph of a structure.

    Every directed edge i -> (j, k) with cartesian separation <= r is kept,
    except the zero-offset self pair. Nodes over `max_neighbors` keep only
    their nearest edges under the deterministic (distance, dst, image) order;
    nodes with no neighbor inside r get their own radius grown by 1.5x until
    one appears. Two atoms at the same periodic position raise `GraphError`.
    """
    if r <= 0:
        raise ValueError(f"cutoff radius must be positive, got {r}")
    if max_neighbors < 1:
        raise ValueError(f"max_neighbors must be >= 1, got {max_neighbors}")

    n = len(s)
    cart = s.cart_coords()
    widths = perpendicular_widths(s.lattice)
    bounds = _scan_bounds(r, widths)
    _check_budget(bounds, image_budget)
    images = _image_grid(bounds)
    offsets = images @ s.lattice

    srcs, dsts, imgs, vecs, dists = [], [], [], [], []
    for i in range(n):
        j_idx, img, vec, dist = _node_candidates(cart, offsets, images, i, r)
        if len(j_idx) == 0:
            # isolated at this radius: grow the radius for this node only
            r_i = r
            while len(j_idx) == 0:
                r_i *= 1.5
                b_i = _scan_bounds(r_i, widths)
                _check_budget(b_i, image_budget)
                images_i = _image_grid(b_i)
                offsets_i = images_i @ s.lattice
                j_idx, img, vec, dist = _node_candidates(
                    cart, offsets_i, images_i, i, r_i)
        order = _edge_order(j_idx, img, dist)[:max_neighbors]
        srcs.append(np.full(len(order), i, dtype=np.int64))
        dsts.append(j_idx[order].astype(np.int64))
        imgs.append(img[order].astype(np.int64))
        vecs.append(vec[order])
        dists.append(dist[order])

    src = np.concatenate(srcs)
    dst = np.concatenate(dsts)
    image = np.vstack(imgs)
    vector = np.vstack(vecs)
    distance = np.concatenate(dists)
    coincident = np.flatnonzero(distance == 0)
    if len(coincident):
        e = coincident[0]
        raise GraphError(
            f"atoms {src[e]} and {dst[e]} coincide (image offset "
            f"{image[e].tolist()}): a zero-length edge has no direction")

    refs, _ = reference_vectors(s.lattice, image_budget)
    ref_norms = np.linalg.norm(refs, axis=1)
    cosines = (vector @ refs.T) / (distance[:, None] * ref_norms[None, :])
    # Line angles, not vector angles: a reference translation and its negation
    # are the same self-image axis, so the sign carries no geometry. Folding
    # keeps the features independent of how that sign was canonicalized.
    angles = np.arccos(np.clip(np.abs(cosines), 0.0, 1.0))

    return PeriodicGraph(
        structure=s,
        src=src,
        dst=dst,
        image=image,
        vector=vector,
        distance=distance,
        angles=angles,
        ref_vectors=np.tile(refs, (n, 1, 1)),
    )
