"""Periodic neighbor graph with scalar (distance/angle) and vector edge views.

For every atom the builder finds the periodic images of all atoms out to a
cutoff radius and emits directed edges with the integer image offset, the
cartesian displacement, its length, and the angles against three per-node
reference vectors (the shortest independent self-image translations of the
lattice). Scalars feed the invariant encoder; displacement vectors feed the
equivariant one.

The neighbor search prunes per atom pair before it computes a displacement.
With fractional coordinates wrapped into [0, 1) and ``df = frac_j - frac_i``,
the image k of j is at ``v = (df + k) @ lattice``, and the projection of v on
the unit normal of the faces opposite lattice vector m has length
``|df_m + k_m| * w_m``, where w are the perpendicular widths. Since
``|v| >= |df_m + k_m| * w_m`` on every axis, an image within r needs k_m in
``[ceil(-r/w_m - df_m), floor(r/w_m - df_m)]``. The scan widens these ranges
by a relative 1e-9, so rounding never drops an edge, clips them to the box
of ``_scan_bounds``, and computes distances for the surviving (i, j, k) only.
Survivors are computed from the same offsets and with the same formula as a
scan of the whole box would use, so the edge set and every bit of every
edge array equal the unpruned scan's. Sources are taken `_BLOCK` at a time,
so the scan's temporaries stay O(_BLOCK * N), never O(N^2).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .structures import CrystalStructure

DEFAULT_CUTOFF = 8.0
DEFAULT_MAX_NEIGHBORS = 25
DEFAULT_IMAGE_BUDGET = 200_000

_INDEP_TOL = 1e-10
# relative widening of the per-pair image ranges, far above float rounding
_SLACK = 1e-9
# source nodes per scan block
_BLOCK = 64


class GraphError(ValueError):
    pass


@dataclass(frozen=True)
class PeriodicGraph:
    """Immutable directed multigraph over a crystal's periodic images.

    Edge arrays share one deterministic order: ascending source node, then
    (distance, dst, k1, k2, k3). ``ref_vectors`` stacks the cell's three
    reference translations as rows; every node shares that one frame.

    The reverse of edge i -> (j, k) is j -> (i, -k), whose displacement is
    the exact negation: the two carry bitwise the same distance and angles
    and form one bond, represented by whichever comes first. An edge whose
    reverse the neighbour cap removed is a bond of its own. ``bond_edges``
    lists the representatives in ascending order and ``edge_bond`` gives
    each edge's bond. The model runs everything that reads only edge
    scalars once per bond, and harmonics, endpoint gathers and node-layer
    attention per directed edge.
    """

    structure: CrystalStructure
    src: np.ndarray          # (E,) int64
    dst: np.ndarray          # (E,) int64
    image: np.ndarray        # (E, 3) int64
    vector: np.ndarray       # (E, 3) float64, cart(dst image) - cart(src)
    distance: np.ndarray     # (E,) float64
    angles: np.ndarray       # (E, 3) float64 line angles in [0, pi/2]
    ref_vectors: np.ndarray  # (3, 3) float64
    edge_bond: np.ndarray    # (E,) int64 bond of each edge
    bond_edges: np.ndarray   # (B,) int64 representative edge of each bond

    def __post_init__(self):
        for name in ("src", "dst", "image", "vector", "distance", "angles",
                     "ref_vectors", "edge_bond", "bond_edges"):
            getattr(self, name).flags.writeable = False

    @property
    def num_nodes(self) -> int:
        return len(self.structure)

    @property
    def num_edges(self) -> int:
        return len(self.src)

    @property
    def num_bonds(self) -> int:
        return len(self.bond_edges)

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
    """Distance between opposite cell faces along each lattice direction:
    the volume over the area of the face the other two vectors span."""
    cross = np.cross(lattice[[1, 2, 0]], lattice[[2, 0, 1]])
    return abs(float(np.linalg.det(lattice))) / np.linalg.norm(cross, axis=1)


def _image_grid(bounds: np.ndarray) -> np.ndarray:
    """All integer offset triples with |k_m| <= bounds[m], shape (M, 3).

    `build_graph` asks for a few small boxes over and over, so grids are
    cached by their bounds, each in the narrowest integer type that holds
    it, and every call gets its own int64 copy.
    """
    return _cached_grid(tuple(int(b) for b in bounds)).astype(np.int64)


@functools.lru_cache(maxsize=32)
def _cached_grid(bounds: tuple[int, ...]) -> np.ndarray:
    axes = [np.arange(-b, b + 1) for b in bounds]
    grid = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, 3)
    return grid.astype(np.min_scalar_type(-1 - max(bounds)))


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


def _expand(lo: np.ndarray, count: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Enumerate ``lo + t`` for t in [0, count) per row: (row index, value)."""
    row = np.repeat(np.arange(len(count)), count)
    run_start = np.cumsum(count) - count
    return row, lo[row] + (np.arange(len(row)) - run_start[row])


def _node_candidates(rows, frac, cart, images, offsets, reach, r, max_neighbors):
    """Nearest edges (src, dst, image, vector, distance) of the source nodes
    `rows` (ascending) within radius r, at most `max_neighbors` per source,
    in the graph's edge order.

    `images` is the box ``_image_grid(bounds)`` and `offsets` its cartesian
    translations; `reach` is r / widths, widened. Only the (i, j, k) inside
    each pair's image ranges get a displacement. The displacement is
    (cart_j - cart_i) + offset, so the +k and -k images of a self edge are
    exact negations — their distances tie bitwise, which keeps the sort and
    the neighbor cap deterministic under rigid motions of the cell.
    """
    n = len(frac)
    bounds = images[-1]
    df = frac[None, :, :] - frac[rows, None, :]  # (B, N, 3)
    lo = np.maximum(np.ceil(-reach - df), -bounds).astype(np.int64).reshape(-1, 3)
    hi = np.minimum(np.floor(reach - df), bounds).astype(np.int64).reshape(-1, 3)
    pair = np.flatnonzero(np.all(hi >= lo, axis=1))
    src, dst, lo, count = rows[pair // n], pair % n, lo[pair], (hi - lo + 1)[pair]
    # expand the ranges axis by axis: p is the pair, cell the row of the box
    p = np.arange(len(pair))
    cell = np.zeros(len(pair), dtype=np.int64)
    for m in range(3):
        row, k = _expand(lo[p, m], count[p, m])
        p = p[row]
        cell = cell[row] * (2 * bounds[m] + 1) + (k + bounds[m])
    vec = (cart[dst] - cart[src])[p] + offsets[cell]
    dist = np.linalg.norm(vec, axis=-1)
    # the zero offset is the box's centre row; no zero-offset self edge
    keep = np.flatnonzero((dist <= r) & ((cell != len(images) // 2) | (src != dst)[p]))
    # candidates come in (src, dst, k1, k2, k3) order and box rows ascend in
    # (k1, k2, k3), so a stable sort on (src, distance) gives the edge order
    order = keep[np.lexsort((dist[keep], src[p[keep]]))]
    source = src[p[order]]
    order = order[np.arange(len(order)) - np.searchsorted(source, source) < max_neighbors]
    return (src[p[order]], dst[p[order]], images[cell[order]], vec[order],
            dist[order])


def reference_vectors(lattice: np.ndarray, image_budget: int = DEFAULT_IMAGE_BUDGET,
                      widths: np.ndarray | None = None
                      ) -> tuple[np.ndarray, np.ndarray]:
    """Three shortest mutually independent lattice translations.

    Candidates are ranked by length; among equal lengths the offset with the
    largest (k1, k2, k3) wins, so a cubic cell yields the positive unit axes.
    The first candidate is the first pick, the first one not collinear with
    it the second, and the first one after that off their plane the third.
    Returns (vectors (3, 3) rows, integer offsets (3, 3) rows). The search
    box grows until it provably contains every translation at most as long
    as the current third pick. `widths` are the cell's
    `perpendicular_widths`, computed here when not given.
    """
    if widths is None:
        widths = perpendicular_widths(lattice)
    # The cell vectors are three independent translations, so no pick is
    # longer than the longest of them and a box covering that length needs
    # no regrowth. A skewed basis can make that box huge; then start from
    # the unit box and grow.
    longest = float(np.max(np.linalg.norm(lattice, axis=1)))
    bounds = np.array([math.ceil(longest / w) for w in widths], dtype=np.int64)
    if np.prod(2 * bounds + 1) > image_budget:
        bounds = np.array([1, 1, 1], dtype=np.int64)
    while True:
        _check_budget(bounds, image_budget)
        ks = _image_grid(bounds)
        ks = ks[np.any(ks != 0, axis=1)]
        vecs = ks @ lattice
        lengths = np.linalg.norm(vecs, axis=1)
        order = np.lexsort((-ks[:, 2], -ks[:, 1], -ks[:, 0], lengths))

        v = vecs[order]
        area = np.linalg.norm(np.cross(v[0], v[1:]), axis=1)
        seconds = 1 + np.flatnonzero(area > _INDEP_TOL)
        if len(seconds):
            b = seconds[0]
            frames = np.empty((len(v) - b - 1, 3, 3))
            frames[:, 0], frames[:, 1], frames[:, 2] = v[0], v[b], v[b + 1:]
            thirds = b + 1 + np.flatnonzero(np.abs(np.linalg.det(frames)) > _INDEP_TOL)
        if not len(seconds) or not len(thirds):
            bounds = bounds + 1
            continue
        picked = order[[0, seconds[0], thirds[0]]]

        # box must cover every translation no longer than the third pick
        needed = np.array(
            [math.ceil(lengths[picked[2]] / w) for w in widths], dtype=np.int64)
        if np.all(bounds >= needed):
            return vecs[picked].copy(), ks[picked].copy()
        bounds = np.maximum(needed, bounds + 1)


def _bond_map(src: np.ndarray, dst: np.ndarray, image: np.ndarray,
              num_nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """(edge_bond, bond_edges) of the edges (src, dst, image).

    Each edge gets one integer key from (src, dst, image) and is looked up
    by the key of its reverse (dst, src, -image) in the sorted keys. The key
    space is n^2 times the box of the images in use, at most n^2 times the
    scan box; past int64 it raises `GraphError`.
    """
    edges = np.arange(len(src))
    span = np.abs(image).max(axis=0, initial=0)
    dims = (num_nodes, num_nodes, *(2 * span + 1).tolist())
    if math.prod(dims) > np.iinfo(np.intp).max:
        raise GraphError(
            f"bond keys of {num_nodes} nodes over images up to "
            f"+-{span.tolist()} overflow int64")
    key = np.ravel_multi_index((src, dst, *(image + span).T), dims)
    rev = np.ravel_multi_index((dst, src, *(span - image).T), dims)
    order = np.argsort(key, kind="stable")
    found = order[np.minimum(np.searchsorted(key, rev, sorter=order),
                             len(key) - 1)]
    rep = np.where(key[found] == rev, np.minimum(edges, found), edges)
    bond_edges = np.flatnonzero(rep == edges)
    return np.searchsorted(bond_edges, rep), bond_edges


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
    one appears. Two atoms at the same periodic position raise `GraphError`,
    and so does a scan box of more than `image_budget` images.

    The search computes a displacement only for the images that a pair's
    per-axis ranges allow (see the module docstring), `_BLOCK` sources at a
    time, and gives bitwise the edges of a scan over the whole
    ``_scan_bounds`` box.
    """
    if r <= 0:
        raise ValueError(f"cutoff radius must be positive, got {r}")
    if max_neighbors < 1:
        raise ValueError(f"max_neighbors must be >= 1, got {max_neighbors}")

    n = len(s)
    frac = s.frac_coords
    cart = s.cart_coords()
    widths = perpendicular_widths(s.lattice)  # once per cell

    def scan(rows, radius):
        bounds = _scan_bounds(radius, widths)
        _check_budget(bounds, image_budget)
        images = _image_grid(bounds)
        offsets = images @ s.lattice
        reach = radius / widths * (1 + _SLACK)
        blocks = [_node_candidates(rows[b:b + _BLOCK], frac, cart, images, offsets,
                                   reach, radius, max_neighbors)
                  for b in range(0, len(rows), _BLOCK)]
        return [np.concatenate(arrays) for arrays in zip(*blocks)]

    parts = [scan(np.arange(n), r)]
    # isolated at this radius: grow the radius for those nodes only
    pending = np.flatnonzero(np.bincount(parts[0][0], minlength=n) == 0)
    r_i = r
    while len(pending):
        r_i *= 1.5
        parts.append(scan(pending, r_i))
        pending = pending[np.bincount(parts[-1][0], minlength=n)[pending] == 0]
    src, dst, image, vector, distance = (np.concatenate(a) for a in zip(*parts))
    if len(parts) > 1:
        order = np.argsort(src, kind="stable")
        src, dst, image, vector, distance = (
            src[order], dst[order], image[order], vector[order], distance[order])

    coincident = np.flatnonzero(distance == 0)
    if len(coincident):
        e = coincident[0]
        raise GraphError(
            f"atoms {src[e]} and {dst[e]} coincide (image offset "
            f"{image[e].tolist()}): a zero-length edge has no direction")

    refs, _ = reference_vectors(s.lattice, image_budget, widths)
    ref_norms = np.linalg.norm(refs, axis=1)
    cosines = (vector @ refs.T) / (distance[:, None] * ref_norms[None, :])
    # Line angles, not vector angles: a reference translation and its negation
    # are the same self-image axis, so the sign carries no geometry. Folding
    # keeps the features independent of how that sign was canonicalized.
    angles = np.arccos(np.clip(np.abs(cosines), 0.0, 1.0))
    edge_bond, bond_edges = _bond_map(src, dst, image, n)

    return PeriodicGraph(
        structure=s,
        src=src,
        dst=dst,
        image=image,
        vector=vector,
        distance=distance,
        angles=angles,
        ref_vectors=refs,
        edge_bond=edge_bond,
        bond_edges=bond_edges,
    )
