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

Most nodes hit the neighbour cap well inside r, so the scan runs at two
radii. The first pass uses r1 = min(r, (3 * _FILL * max_neighbors * V /
(4 pi n))^(1/3)), the radius of a sphere that holds `_FILL` times the cap at
the cell's mean density, over the same r box and with the same formula. A
node that gets its full cap within r1 keeps that list: every edge within r1
was enumerated, ties included, and every edge in (r1, r] is longer than the
last one kept, so the capped list within r is the same list, bit for bit.
Only the other nodes are scanned again at r. So r1 changes the work done,
never the graph.
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
# the first scan's sphere holds this many times max_neighbors atoms at the
# cell's mean density; it sets only how much is rescanned, never the graph
_FILL = 2.0


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


def _norms(v_t: np.ndarray) -> np.ndarray:
    """Lengths of the columns of a (3, ...) array. The squares are added in
    the order ``np.linalg.norm(v, axis=-1)`` adds a row's, so the lengths
    carry its bits."""
    sq = v_t * v_t
    return np.sqrt((sq[0] + sq[1]) + sq[2])


def _volume_and_widths(lattice: np.ndarray) -> tuple[float, np.ndarray]:
    a, b, c = lattice.tolist()
    # the faces b x c, c x a, a x b; Python floats round as np.cross does
    faces = [[u[1] * v[2] - u[2] * v[1], u[2] * v[0] - u[0] * v[2],
              u[0] * v[1] - u[1] * v[0]] for u, v in ((b, c), (c, a), (a, b))]
    volume = abs(float(np.linalg.det(lattice)))
    return volume, volume / _norms(np.array(faces).T)


def perpendicular_widths(lattice: np.ndarray) -> np.ndarray:
    """Distance between opposite cell faces along each lattice direction:
    the volume over the area of the face the other two vectors span."""
    return _volume_and_widths(lattice)[1]


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


@functools.lru_cache(maxsize=32)
def _translation_grid(bounds: tuple[int, ...]) -> np.ndarray:
    """The box of `_cached_grid` without its zero row, in descending
    (k1, k2, k3) order (narrow and shared: callers must not write it)."""
    grid = _cached_grid(bounds)[::-1]
    return np.delete(grid, len(grid) // 2, axis=0)


def _check_budget(bounds, budget: int):
    count = math.prod(2 * int(b) + 1 for b in bounds)
    if count > budget:
        raise GraphError(
            f"image budget exceeded: scan of {count} periodic images is over the "
            f"cap of {budget}")


def _scan_bounds(r: float, widths: np.ndarray) -> np.ndarray:
    # An image offset k contributes a displacement whose component across face
    # m is at least (|k_m| - 1) * widths[m] for in-cell endpoints, so this box
    # covers every image within r.
    return np.array([math.ceil(r / w) + 1 for w in widths], dtype=np.int64)


def _node_candidates(rows, frac, cart, images, offsets, reach, r, max_neighbors):
    """Nearest edges (src, dst, image, vector, distance) of the source nodes
    `rows` (ascending) within radius r, at most `max_neighbors` per source,
    in the graph's edge order.

    `images` is the box ``_image_grid(bounds)`` and `offsets` its cartesian
    translations; `reach` is r / widths, widened. Only the (i, j, k) inside
    each pair's image ranges get a displacement. The displacement is
    (cart_j - cart_i) + offset, so the +k and -k images of a self edge are
    exact negations — their distances tie bitwise, which keeps the sort and
    the neighbor cap deterministic under rigid motions of the cell. Rows
    are gathered with ``take``, which is faster than fancy indexing here.
    """
    n = len(frac)
    bounds = images[-1]
    df = frac[None, :, :] - frac[rows, None, :]  # (B, N, 3)
    lo = np.maximum(np.ceil(-reach - df), -bounds).astype(np.int64).reshape(-1, 3)
    hi = np.minimum(np.floor(reach - df), bounds).astype(np.int64).reshape(-1, 3)
    count = hi - lo + 1
    pair = np.flatnonzero(count.min(axis=1) > 0)
    src, dst, count = rows[pair // n], pair % n, count.take(pair, axis=0)
    # Each pair's ranges are a sub-box of the box; t counts through it with
    # k3 fastest, so q = (t // (c2 c3), t // c3 % c2, t % c3) ascends in
    # (k1, k2, k3). p is the pair, cell the row of the box.
    stride = np.array([(2 * bounds[1] + 1) * (2 * bounds[2] + 1),
                       2 * bounds[2] + 1, 1])
    size = count[:, 0] * count[:, 1] * count[:, 2]
    p = np.repeat(np.arange(len(pair)), size)
    t = np.arange(len(p)) - np.repeat(np.cumsum(size) - size, size)
    q1, t = np.divmod(t, (count[:, 1] * count[:, 2])[p])
    q2, q3 = np.divmod(t, count[:, 2][p])
    corner = (lo.take(pair, axis=0) + bounds) @ stride
    cell = corner[p] + q1 * stride[0] + q2 * stride[1] + q3
    vec = ((cart.take(dst, axis=0) - cart.take(src, axis=0)).take(p, axis=0)
           + offsets.take(cell, axis=0))
    dist = _norms(vec.T)
    # the zero offset is the box's centre row; no zero-offset self edge
    keep = np.flatnonzero((dist <= r) & ((cell != len(images) // 2) | (src != dst)[p]))
    # Candidates come in (src, dst, k1, k2, k3) order and box rows ascend in
    # (k1, k2, k3), so a stable sort on (src, distance) gives the edge order.
    # A complex key sorts by its real part, then its imaginary part.
    key = np.empty(len(keep), dtype=complex)
    key.real, key.imag = src[p[keep]], dist[keep]
    order = keep[np.argsort(key, kind="stable")]
    source = src[p[order]]
    order = order[np.arange(len(order)) - np.searchsorted(source, source) < max_neighbors]
    return (src[p[order]], dst[p[order]], images.take(cell[order], axis=0),
            vec.take(order, axis=0), dist[order])


def _independent_picks(v: np.ndarray) -> list[int] | None:
    """Where in `v` (translations, shortest first) the pick loop picks: the
    first vector, the first one not collinear with it, and the first one
    after that off their plane; None when `v` runs out first. The picks
    come early, so rows are read a few at a time."""
    rows = (row for b in range(0, len(v), 16) for row in v[b:b + 16].tolist())
    (a0, a1, a2), second = next(rows), None
    for i, (x0, x1, x2) in enumerate(rows, 1):
        if second is None:
            normal = (a1 * x2 - a2 * x1, a2 * x0 - a0 * x2, a0 * x1 - a1 * x0)
            if math.hypot(*normal) > _INDEP_TOL:
                second = i
        elif abs(normal[0] * x0 + normal[1] * x1 + normal[2] * x2) > _INDEP_TOL:
            return [0, second, i]
    return None


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
    widths = widths.tolist()
    # Python floats round as numpy's elementwise ops do
    longest = max(math.sqrt((x * x + y * y) + z * z) for x, y, z in lattice.tolist())
    bounds = tuple(math.ceil(longest / w) for w in widths)
    if math.prod(2 * b + 1 for b in bounds) > image_budget:
        bounds = (1, 1, 1)
    while True:
        _check_budget(bounds, image_budget)
        # descending (k1, k2, k3), so a stable sort by length breaks ties
        # towards the largest offset
        ks = _translation_grid(bounds)
        vecs = ks @ lattice
        lengths = _norms(vecs.T)
        order = np.argsort(lengths, kind="stable")

        picked = _independent_picks(vecs[order])
        if picked is None:
            bounds = tuple(b + 1 for b in bounds)
            continue
        picked = order[picked]

        # box must cover every translation no longer than the third pick
        needed = [math.ceil(float(lengths[picked[2]]) / w) for w in widths]
        if all(b >= m for b, m in zip(bounds, needed)):
            return vecs[picked], ks[picked].astype(np.int64)
        bounds = tuple(max(m, b + 1) for b, m in zip(bounds, needed))


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
    # flat indices of (src, dst, image + span) and (dst, src, span - image)
    stride = np.array([dims[3] * dims[4], dims[4], 1])
    k, centre, box = image @ stride, int(span @ stride), math.prod(dims[2:])
    key = (src * num_nodes + dst) * box + (centre + k)
    rev = (dst * num_nodes + src) * box + (centre - k)
    order = np.argsort(key, kind="stable")
    found = order[np.minimum(np.searchsorted(key[order], rev), len(key) - 1)]
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
    ``_scan_bounds`` box. It scans every node first at the smaller radius
    r1 of the module docstring and again at r only the nodes that r1 left
    short of `max_neighbors`; a node full at r1 has the capped list it
    would have at r, so the graph and its bits do not depend on r1.
    """
    if r <= 0:
        raise ValueError(f"cutoff radius must be positive, got {r}")
    if max_neighbors < 1:
        raise ValueError(f"max_neighbors must be >= 1, got {max_neighbors}")

    n = len(s)
    frac = s.frac_coords
    cart = s.cart_coords()
    volume, widths = _volume_and_widths(s.lattice)  # once per cell
    if not all(0.0 < w < math.inf for w in widths.tolist()):
        # a lattice so large that its face areas or volume overflow
        raise GraphError(f"cell widths {widths.tolist()} are not finite "
                         "and positive")

    def scan(rows, radius, box_radius):
        # the box, its offsets and the budget check come from box_radius
        bounds = _scan_bounds(box_radius, widths)
        _check_budget(bounds, image_budget)
        images = _image_grid(bounds)
        offsets = images @ s.lattice
        reach = radius / widths * (1 + _SLACK)
        blocks = [_node_candidates(rows[b:b + _BLOCK], frac, cart, images, offsets,
                                   reach, radius, max_neighbors)
                  for b in range(0, len(rows), _BLOCK)]
        if len(blocks) == 1:
            return blocks[0]
        return [np.concatenate(arrays) for arrays in zip(*blocks)]

    rows, parts = np.arange(n), []
    r1 = (3 * _FILL * max_neighbors * volume / (4 * math.pi * n)) ** (1 / 3)
    if r1 < r:
        first = scan(rows, r1, r)
        short = np.bincount(first[0], minlength=n) < max_neighbors
        rows = np.flatnonzero(short)
        parts.append([a[~short[first[0]]] for a in first] if len(rows) else first)
    if len(rows):
        parts.append(scan(rows, r, r))
        # isolated at this radius: grow the radius for those nodes only
        pending = rows[np.bincount(parts[-1][0], minlength=n)[rows] == 0]
        r_i = r
        while len(pending):
            r_i *= 1.5
            parts.append(scan(pending, r_i, r_i))
            pending = pending[np.bincount(parts[-1][0], minlength=n)[pending] == 0]
    if len(parts) == 1:
        src, dst, image, vector, distance = parts[0]
    else:
        src, dst, image, vector, distance = (np.concatenate(a) for a in zip(*parts))
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
    ref_norms = _norms(refs.T)
    cosines = (vector @ refs.T) / (distance[:, None] * ref_norms[None, :])
    # Line angles, not vector angles: a reference translation and its negation
    # are the same self-image axis, so the sign carries no geometry. Folding
    # keeps the features independent of how that sign was canonicalized.
    angles = np.arccos(np.minimum(np.abs(cosines), 1.0))
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
