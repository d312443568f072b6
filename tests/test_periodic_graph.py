import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import crysfuse.graph as graph_module
from crysfuse.graph import (DEFAULT_CUTOFF, DEFAULT_IMAGE_BUDGET,
                            DEFAULT_MAX_NEIGHBORS, GraphError, _bond_map,
                            _check_budget, _image_grid, _scan_bounds,
                            build_graph, perpendicular_widths,
                            reference_vectors)
from crysfuse.structures import CrystalStructure


def cubic(a=1.0, species=(1,), frac=((0, 0, 0),)):
    return CrystalStructure(species, np.array(frac, dtype=float), np.eye(3) * a)


class TestSimpleCubicOracle:
    """Hand-derivable geometry: one atom in a unit cube, cutoff 1.1."""

    def setup_method(self):
        self.g = build_graph(cubic(1.0), r=1.1)

    def test_exactly_six_edges_at_unit_distance(self):
        assert self.g.num_edges == 6
        assert np.all(self.g.distance == 1.0)

    def test_images_are_unit_offsets(self):
        images = {tuple(k) for k in self.g.image}
        assert images == {(1, 0, 0), (-1, 0, 0), (0, 1, 0),
                          (0, -1, 0), (0, 0, 1), (0, 0, -1)}

    def test_reference_vectors_are_unit_axes(self):
        assert np.array_equal(self.g.ref_vectors, np.eye(3))

    def test_angle_multiset_per_edge(self):
        # line angles: every +-axis edge lies on exactly one reference axis
        # and is perpendicular to the other two, so all six rows agree
        half = round(np.pi / 2, 12)
        for row in self.g.angles:
            assert sorted(np.round(row, 12)) == [0.0, half, half]


class TestReferenceVectors:

    def test_cubic_axes(self):
        vecs, ks = reference_vectors(np.eye(3) * 2.5)
        assert np.allclose(vecs, np.eye(3) * 2.5)
        assert np.array_equal(ks, np.eye(3, dtype=int))

    def test_skips_collinear_candidates(self):
        # a tall thin cell: the two shortest translations along z are +/-c and 2c;
        # the picker must skip 2c (collinear) and take the a/b directions.
        lattice = np.diag([8.0, 9.0, 1.0])
        vecs, _ = reference_vectors(lattice)
        lengths = np.linalg.norm(vecs, axis=1)
        assert pytest.approx(sorted(lengths)) == [1.0, 8.0, 9.0]
        assert abs(np.linalg.det(vecs)) > 1e-6

    def test_triclinic_lengths_are_minimal(self):
        lattice = np.array([[3.0, 0.0, 0.0],
                            [1.4, 3.2, 0.0],
                            [0.9, 1.1, 3.5]])
        vecs, ks = reference_vectors(lattice)
        # brute-force all short combos and confirm nothing shorter was missed
        grid = np.array(np.meshgrid(*[np.arange(-4, 5)] * 3)).reshape(3, -1).T
        grid = grid[np.any(grid != 0, axis=1)]
        all_lengths = np.sort(np.linalg.norm(grid @ lattice, axis=1))
        picked = np.sort(np.linalg.norm(vecs, axis=1))
        assert picked[0] == pytest.approx(all_lengths[0])
        assert np.array_equal(vecs, ks @ lattice)


class TestBuildGraph:

    def test_cutoff_is_inclusive(self):
        g = build_graph(cubic(1.0), r=1.0)
        assert g.num_edges == 6

    def test_max_neighbors_cap(self):
        g = build_graph(cubic(1.0), r=2.5, max_neighbors=6)
        assert g.num_edges == 6
        # the cap keeps the six nearest (distance 1) images
        assert np.all(g.distance == 1.0)

    def test_two_atom_cell(self):
        g = build_graph(cubic(4.0, (11, 17), ((0, 0, 0), (0.5, 0.5, 0.5))),
                        r=3.5)
        # each atom sees the 8 opposite-corner copies at sqrt(3)*2
        assert g.num_nodes == 2
        d = 4.0 * np.sqrt(3) / 2
        assert np.all(np.abs(g.distance - d) < 1e-12)
        assert g.num_edges == 16

    def test_isolated_node_radius_expansion(self):
        # 9 A layer spacing with a 2 A cutoff: the builder must widen its
        # search rather than return a disconnected node
        g = build_graph(cubic(9.0), r=2.0)
        assert g.num_edges > 0
        assert np.all(g.src == 0) and np.all(g.dst == 0)

    def test_image_budget_error(self):
        with pytest.raises(GraphError, match="image budget exceeded"):
            build_graph(cubic(1.0), r=60.0, image_budget=1000)

    def test_self_image_pairs_tie_break(self):
        g = build_graph(cubic(1.0), r=1.1)
        # for each +/- image pair the negative key sorts first
        seen = list(map(tuple, g.image))
        assert seen.index((-1, 0, 0)) < seen.index((1, 0, 0))
        assert seen.index((0, -1, 0)) < seen.index((0, 1, 0))

    def test_vector_matches_image_arithmetic(self):
        s = cubic(3.0, (11, 17), ((0.1, 0.2, 0.3), (0.6, 0.7, 0.8)))
        g = build_graph(s, r=3.0)
        cart = s.cart_coords()
        recon = (cart[g.dst] - cart[g.src]) + g.image @ s.lattice
        assert np.max(np.abs(recon - g.vector)) < 1e-12
        assert np.max(np.abs(np.linalg.norm(g.vector, axis=1) - g.distance)) < 1e-12

    def test_deterministic_rebuild(self):
        s = cubic(3.0, (11, 17), ((0.1, 0.2, 0.3), (0.6, 0.7, 0.8)))
        g1 = build_graph(s, r=3.0)
        g2 = build_graph(s, r=3.0)
        assert np.array_equal(g1.src, g2.src)
        assert np.array_equal(g1.image, g2.image)
        assert np.array_equal(g1.vector, g2.vector)

    def test_angles_in_range(self):
        s = cubic(3.0, (11, 17), ((0.1, 0.2, 0.3), (0.6, 0.7, 0.8)))
        g = build_graph(s, r=3.0)
        assert np.all(g.angles >= 0.0) and np.all(g.angles <= np.pi)


class TestPerpendicularWidths:

    def test_cube(self):
        assert np.allclose(perpendicular_widths(np.eye(3) * 2.0), [2, 2, 2])

    def test_sheared_cell_shrinks_width(self):
        sheared = np.array([[1.0, 0.0, 0.0], [0.9, 1.0, 0.0], [0.0, 0.0, 1.0]])
        w = perpendicular_widths(sheared)
        assert w[0] < 1.0 or w[1] < 1.0


def test_widths_and_lengths_carry_numpys_bits():
    """The widths and lengths the scan computes by hand equal np.cross's and
    np.linalg.norm's bit for bit, on 200 seeded lattices and row counts."""
    rng = np.random.default_rng(26)
    for t in range(200):
        lattice = rng.normal(size=(3, 3)) * rng.uniform(0.5, 30.0)
        cross = np.cross(lattice[[1, 2, 0]], lattice[[2, 0, 1]])
        want = abs(float(np.linalg.det(lattice))) / np.linalg.norm(cross, axis=1)
        assert perpendicular_widths(lattice).tobytes() == want.tobytes()
        v = rng.normal(size=(1 + t % 40, 3)) * rng.uniform(0.1, 50.0)
        assert graph_module._norms(v.T).tobytes() == np.linalg.norm(v, axis=1).tobytes()


# -- brute-force oracle: the per-node scan over the whole image box ----------

def oracle_reference_vectors(lattice, image_budget=DEFAULT_IMAGE_BUDGET):
    """The pick loop: first candidate, first non-collinear, first off-plane."""
    widths = perpendicular_widths(lattice)
    bounds = np.array([1, 1, 1], dtype=np.int64)
    while True:
        _check_budget(bounds, image_budget)
        ks = _image_grid(bounds)
        ks = ks[np.any(ks != 0, axis=1)]
        vecs = ks @ lattice
        lengths = np.linalg.norm(vecs, axis=1)
        order = np.lexsort((-ks[:, 2], -ks[:, 1], -ks[:, 0], lengths))
        picked = []
        for idx in order:
            if not picked:
                picked.append(idx)
            elif len(picked) == 1:
                area = np.linalg.norm(np.cross(vecs[picked[0]], vecs[idx]))
                if area > 1e-10:
                    picked.append(idx)
            else:
                det = np.linalg.det(np.vstack([vecs[picked[0]], vecs[picked[1]], vecs[idx]]))
                if abs(det) > 1e-10:
                    picked.append(idx)
                    break
        if len(picked) < 3:
            bounds = bounds + 1
            continue
        needed = np.array(
            [math.ceil(lengths[picked[2]] / w) for w in widths], dtype=np.int64)
        if np.all(bounds >= needed):
            return vecs[picked].copy(), ks[picked].copy()
        bounds = np.maximum(needed, bounds + 1)


def _oracle_node(cart, offsets, images, i, r):
    disp = (cart - cart[i])[None, :, :] + offsets[:, None, :]  # (M, N, 3)
    dist = np.linalg.norm(disp, axis=2)
    mask = dist <= r
    zero = np.flatnonzero(np.all(images == 0, axis=1))[0]
    mask[zero, i] = False
    m_idx, j_idx = np.nonzero(mask)
    return j_idx, images[m_idx], disp[m_idx, j_idx], dist[m_idx, j_idx]


def oracle_graph(s, r=DEFAULT_CUTOFF, max_neighbors=DEFAULT_MAX_NEIGHBORS,
                 image_budget=DEFAULT_IMAGE_BUDGET):
    """Every array of `build_graph`, from a scan of the whole image box per
    node: dict of name -> array, or GraphError."""
    n = len(s)
    cart = s.cart_coords()
    widths = perpendicular_widths(s.lattice)
    bounds = _scan_bounds(r, widths)
    _check_budget(bounds, image_budget)
    images = _image_grid(bounds)
    offsets = images @ s.lattice
    srcs, dsts, imgs, vecs, dists = [], [], [], [], []
    for i in range(n):
        j_idx, img, vec, dist = _oracle_node(cart, offsets, images, i, r)
        r_i = r
        while len(j_idx) == 0:
            r_i *= 1.5
            b_i = _scan_bounds(r_i, widths)
            _check_budget(b_i, image_budget)
            images_i = _image_grid(b_i)
            j_idx, img, vec, dist = _oracle_node(
                cart, images_i @ s.lattice, images_i, i, r_i)
        order = np.lexsort((img[:, 2], img[:, 1], img[:, 0], j_idx, dist))[:max_neighbors]
        srcs.append(np.full(len(order), i, dtype=np.int64))
        dsts.append(j_idx[order].astype(np.int64))
        imgs.append(img[order].astype(np.int64))
        vecs.append(vec[order])
        dists.append(dist[order])
    g = {"src": np.concatenate(srcs), "dst": np.concatenate(dsts),
         "image": np.vstack(imgs), "vector": np.vstack(vecs),
         "distance": np.concatenate(dists)}
    coincident = np.flatnonzero(g["distance"] == 0)
    if len(coincident):
        e = coincident[0]
        raise GraphError(
            f"atoms {g['src'][e]} and {g['dst'][e]} coincide (image offset "
            f"{g['image'][e].tolist()}): a zero-length edge has no direction")
    refs, _ = oracle_reference_vectors(s.lattice, image_budget)
    cosines = (g["vector"] @ refs.T) / (
        g["distance"][:, None] * np.linalg.norm(refs, axis=1)[None, :])
    g["angles"] = np.arccos(np.clip(np.abs(cosines), 0.0, 1.0))
    g["ref_vectors"] = refs
    return g


def reverse_edges(g):
    """Index of each edge's reverse (dst, src, -image) in `g`, or -1."""
    index = {(i, j, tuple(k)): e for e, (i, j, k) in enumerate(
        zip(g.src.tolist(), g.dst.tolist(), g.image.tolist()))}
    return np.array([index.get((j, i, tuple(-x for x in k)), -1)
                     for i, j, k in zip(g.src.tolist(), g.dst.tolist(),
                                        g.image.tolist())], dtype=np.int64)


def assert_bond_map(g):
    """An edge and its reverse share one bond, represented by the earlier
    of the two; an unpaired edge is a bond of its own; and every edge's
    distance and angles are bitwise its representative's."""
    edges = np.arange(g.num_edges)
    rev = reverse_edges(g)
    paired = rev >= 0
    rep = np.where(paired, np.minimum(edges, rev), edges)
    assert np.array_equal(g.bond_edges, np.unique(rep))
    assert np.array_equal(g.bond_edges[g.edge_bond], rep)
    assert np.array_equal(g.edge_bond[paired], g.edge_bond[rev[paired]])
    assert np.array_equal(g.edge_bond[g.bond_edges], np.arange(g.num_bonds))
    assert g.num_bonds == g.num_edges - np.count_nonzero(paired) // 2
    for name in ("distance", "angles"):
        values = getattr(g, name)
        assert values[rep].tobytes() == values.tobytes(), name
    for name in ("edge_bond", "bond_edges"):
        assert getattr(g, name).dtype == np.int64
        assert not getattr(g, name).flags.writeable


def assert_matches_oracle(s, **kwargs):
    """`build_graph` equals the oracle bitwise, or both raise one message;
    the graph's bond map passes `assert_bond_map`."""
    try:
        want = oracle_graph(s, **kwargs)
    except GraphError as err:
        with pytest.raises(GraphError) as got:
            build_graph(s, **kwargs)
        assert str(got.value) == str(err)
        return None
    g = build_graph(s, **kwargs)
    for name, expected in want.items():
        actual = getattr(g, name)
        assert actual.dtype == expected.dtype and actual.shape == expected.shape, name
        assert actual.tobytes() == expected.tobytes(), name
    assert_bond_map(g)
    return g


def lower_triangular(diag, shear):
    """A right-handed cell with rows a = (d0, 0, 0), b = (s0, d1, 0),
    c = (s1, s2, d2)."""
    return np.array([[diag[0], 0.0, 0.0],
                     [shear[0], diag[1], 0.0],
                     [shear[1], shear[2], diag[2]]])


class TestOracle:

    @pytest.mark.parametrize("a,r", [(1.0, 1.1), (1.0, 2.5), (2.7, 8.0),
                                     (4.0, 3.99), (4.0, 4.0)])
    def test_one_atom_cubic(self, a, r):
        g = assert_matches_oracle(cubic(a), r=r)
        assert g.num_edges > 0

    def test_isolated_node_in_a_20_angstrom_cube(self):
        g = assert_matches_oracle(cubic(20.0), r=8.0)
        # 8 -> 12 -> 18 -> 27: the six face images at 20 A
        assert g.num_edges == 6 and np.all(g.distance == 20.0)

    def test_two_far_apart_atoms(self):
        s = cubic(20.0, (8, 26), ((0.0, 0.0, 0.0), (0.5, 0.5, 0.5)))
        g = assert_matches_oracle(s, r=8.0)
        assert set(g.src.tolist()) == {0, 1}

    def test_one_isolated_node_among_neighbours(self):
        # atoms 1 and 2 are 2 A apart; atom 0 is over 8 A from every image,
        # so its regrown edges go before theirs
        lattice = np.diag([30.0, 30.0, 30.0])
        s = CrystalStructure((6, 1, 1), [[0.6, 0.6, 0.6], [0.1, 0.1, 0.1],
                                         [0.1, 0.1, 0.1 + 2 / 30]], lattice)
        g = assert_matches_oracle(s, r=8.0)
        assert np.array_equal(np.unique(g.src), [0, 1, 2])

    @pytest.mark.parametrize("diag", [(1.5, 9.0, 10.0), (3.9, 3.5, 12.0),
                                      (1.2, 1.1, 1.3)])
    def test_thin_cells(self, diag):
        # every listed cell is under r/2 = 4 A wide along at least one axis
        s = CrystalStructure((14, 8, 8), [[0.0, 0.0, 0.0], [0.3, 0.5, 0.2],
                                          [0.7, 0.1, 0.9]], np.diag(diag))
        assert min(perpendicular_widths(s.lattice)) < 4.0
        assert_matches_oracle(s, r=8.0)

    @pytest.mark.parametrize("shear", [(2.9, -2.5, 3.1), (-4.0, 1.5, -3.8),
                                       (6.0, 6.0, 6.0)])
    def test_skewed_triclinic(self, shear):
        lattice = lower_triangular((4.2, 3.8, 5.1), shear)
        rng = np.random.default_rng(7)
        s = CrystalStructure((3, 8, 25, 8), rng.random((4, 3)), lattice)
        assert_matches_oracle(s, r=6.0)

    @pytest.mark.parametrize("max_neighbors", [1, 6, 7, 10, 18])
    def test_cap_inside_a_shell_of_tied_distances(self, max_neighbors):
        # 6 images at 1, then 12 tied at sqrt(2): the cap cuts the shells
        # where only (dst, k1, k2, k3) decides
        g = assert_matches_oracle(cubic(1.0), r=1.5, max_neighbors=max_neighbors)
        assert g.num_edges == max_neighbors

    def test_cap_with_tied_distances_across_atoms(self):
        s = cubic(2.0, (11, 11, 11, 11), ((0, 0, 0), (0.5, 0.5, 0), (0.5, 0, 0.5),
                                          (0, 0.5, 0.5)))
        assert_matches_oracle(s, r=3.0, max_neighbors=8)

    def test_coincident_atom_message(self):
        s = cubic(3.0, (11, 17, 8), ((0.2, 0.2, 0.2), (0.5, 0.5, 0.5),
                                     (0.2, 0.2, 0.2)))
        with pytest.raises(GraphError, match=r"atoms 0 and 2 coincide \(image offset \[0, 0, 0\]\)"):
            build_graph(s, r=3.0)
        assert_matches_oracle(s, r=3.0)

    def test_image_budget_message(self):
        with pytest.raises(GraphError, match="scan of 6859 periodic images is over the cap of 4000"):
            build_graph(cubic(1.0), r=7.5, image_budget=4000)
        assert_matches_oracle(cubic(1.0), r=7.5, image_budget=4000)

    def test_regrown_radius_respects_the_budget(self):
        # the main scan fits, the first regrown radius does not
        s = cubic(20.0)
        with pytest.raises(GraphError, match="image budget exceeded"):
            build_graph(s, r=8.0, image_budget=100)
        assert_matches_oracle(s, r=8.0, image_budget=100)


def cluster_and_far_atoms(a=12.0):
    """64 atoms 1.5 A apart around the corner of an a-angstrom cube and 4
    around its centre, 6.5 A and more from the cluster's atoms."""
    axis = (np.arange(4) - 1.5) * 1.5
    cluster = np.array(np.meshgrid(axis, axis, axis, indexing="ij")).reshape(3, -1).T
    far = a / 2 + np.array([[0, 0, 0], [1.5, 0, 0], [0, 1.5, 0], [0, 0, 1.5]])
    return CrystalStructure((14,) * 64 + (8,) * 4, np.vstack([cluster, far]) / a,
                            np.eye(3) * a)


def count_scans(monkeypatch):
    """Record (source rows, radius) of every `_node_candidates` call."""
    calls = []
    scan = graph_module._node_candidates

    def counted(*args):
        calls.append((args[0].tolist(), args[6]))
        return scan(*args)

    monkeypatch.setattr(graph_module, "_node_candidates", counted)
    return calls


class TestTwoRadiusScan:
    """Every node is scanned at r1 first; only those short of the cap there
    are scanned again at r."""

    def test_nodes_short_at_the_first_radius_are_scanned_again(self, monkeypatch):
        calls = count_scans(monkeypatch)
        g = assert_matches_oracle(cluster_and_far_atoms())
        r1 = (3 * graph_module._FILL * DEFAULT_MAX_NEIGHBORS * 12.0**3
              / (4 * math.pi * 68)) ** (1 / 3)
        assert r1 < DEFAULT_CUTOFF
        # two blocks at r1, then the four far atoms alone at r
        assert [rows for rows, _ in calls] == [list(range(64)), [64, 65, 66, 67],
                                               [64, 65, 66, 67]]
        assert [radius for _, radius in calls] == pytest.approx([r1, r1, DEFAULT_CUTOFF])
        # the rescanned atoms fill their cap between r1 and r
        assert np.all(np.bincount(g.src) == DEFAULT_MAX_NEIGHBORS)
        assert np.all(g.distance[g.src >= 64].reshape(4, -1)[:, -1] > r1)

    @pytest.mark.parametrize("fill", [0.25, 1.0, 3.0, 50.0])
    def test_first_radius_changes_no_bit(self, monkeypatch, fill):
        # 0.25 rescans almost every node, 50 puts r1 past r (one scan)
        monkeypatch.setattr(graph_module, "_FILL", fill)
        assert_matches_oracle(cluster_and_far_atoms())
        assert_matches_oracle(cluster_and_far_atoms(), max_neighbors=7)


class TestBondMap:

    def test_cap_leaves_unpaired_edges_as_bonds_of_their_own(self):
        # six images at 1, then one of the twelve tied at sqrt(2): the six
        # pair up into three bonds, and the seventh, whose reverse the cap
        # dropped, is a bond of its own
        g = assert_matches_oracle(cubic(1.0), r=1.5, max_neighbors=7)
        unpaired = np.flatnonzero(reverse_edges(g) < 0)
        assert unpaired.tolist() == [6] and g.num_bonds == 4
        assert np.isin(unpaired, g.bond_edges).all()
        assert np.count_nonzero(g.edge_bond == g.edge_bond[6]) == 1

    def test_two_atoms_with_capped_neighbours(self):
        # each atom keeps 3 of the 8 tied images of the other atom at 2.6 A,
        # chosen by image offset, so 2 of the 6 edges lose their reverse
        s = cubic(3.0, (11, 17), ((0.1, 0.2, 0.3), (0.6, 0.7, 0.8)))
        g = assert_matches_oracle(s, r=4.0, max_neighbors=3)
        unpaired = np.flatnonzero(reverse_edges(g) < 0)
        assert len(unpaired) == 2 and g.num_edges == 6 and g.num_bonds == 4
        assert np.isin(unpaired, g.bond_edges).all()

    def test_keys_past_int64_are_a_graph_error(self):
        image = np.array([[1, -1, 1], [-1, 1, -1]]) * 2**20
        with pytest.raises(GraphError, match=r"2 nodes .*1048576"):
            _bond_map(np.array([0, 1]), np.array([1, 0]), image, 2)


@st.composite
def cells(draw):
    """1-12 atoms in a lower-triangular cell, thin and skewed ones included."""
    diag = [draw(st.floats(1.0, 10.0)) for _ in range(3)]
    shear = [draw(st.floats(-6.0, 6.0)) for _ in range(3)]
    n = draw(st.integers(1, 12))
    frac = draw(st.lists(st.tuples(*[st.floats(0.0, 1.0, exclude_max=True)] * 3),
                         min_size=n, max_size=n, unique=True))
    species = draw(st.lists(st.integers(1, 118), min_size=n, max_size=n))
    return CrystalStructure(species, np.array(frac), lower_triangular(diag, shear))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(s=cells(), r=st.floats(0.5, 8.0), max_neighbors=st.integers(1, 30))
def test_scan_matches_oracle_on_random_cells(s, r, max_neighbors):
    assert_matches_oracle(s, r=r, max_neighbors=max_neighbors, image_budget=20_000)


def test_reference_vectors_match_the_pick_loop():
    """200 seeded lattices: general, skewed and near-collinear ones."""
    rng = np.random.default_rng(20261018)
    lattices = []
    for t in range(200):
        kind = t % 4
        if kind == 0:
            lattice = lower_triangular(rng.uniform(1.0, 10.0, 3), rng.uniform(-3, 3, 3))
        elif kind == 1:
            lattice = lower_triangular(rng.uniform(1.0, 4.0, 3), rng.uniform(-9, 9, 3))
        elif kind == 2:
            # b and c within a few degrees of a
            a = rng.normal(size=3)
            a *= rng.uniform(2.0, 6.0) / np.linalg.norm(a)
            lattice = np.stack([a, a * rng.uniform(0.5, 2) + rng.normal(scale=0.2, size=3),
                                a * rng.uniform(0.5, 2) + rng.normal(scale=0.2, size=3)])
        else:
            lattice = rng.normal(size=(3, 3)) * rng.uniform(1.0, 8.0)
        lattices.append(lattice)
    for lattice in lattices:
        try:
            want = oracle_reference_vectors(lattice)
        except GraphError as err:
            with pytest.raises(GraphError, match=str(err)):
                reference_vectors(lattice)
            continue
        got = reference_vectors(lattice)
        for w, g in zip(want, got):
            assert w.dtype == g.dtype and w.tobytes() == g.tobytes()


def test_scan_memory_stays_blocked():
    """About 2,000 atoms: an unblocked (N, N, 3) float64 pass alone would
    take 96 MB."""
    rng = np.random.default_rng(3)
    n = 2000
    lattice = lower_triangular((29.0, 28.0, 30.0), (1.5, -2.0, 0.5))
    s = CrystalStructure(rng.integers(1, 90, n), rng.random((n, 3)), lattice)
    tracemalloc.start()
    try:
        g = build_graph(s)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert g.num_edges == n * DEFAULT_MAX_NEIGHBORS
    assert peak < 64 * 2**20, peak


@pytest.mark.parametrize("bounds", [(0, 0, 0), (1, 2, 3), (127, 0, 1),
                                    (128, 0, 1), (0, 32768, 0)])
def test_image_grid_is_the_whole_box_on_every_call(bounds):
    """Cached grids are stored narrow (int8 up to 127, int16 from 128);
    each call returns its own int64 box, so a caller's write stays its own."""
    axes = [np.arange(-b, b + 1) for b in bounds]
    want = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, 3)
    for _ in range(2):
        got = _image_grid(np.array(bounds))
        assert got.dtype == np.int64
        assert np.array_equal(got, want)
        got[:] = 0


def test_graph_build_peak_memory():
    """The 40-atom, 1,000-edge cell of the pipeline's heap test: a build
    after a warm-up peaks at about 679,000 traced bytes, against 1,056,424
    when every node was scanned out to the cutoff in one pass. The bound
    leaves 15 %."""
    gen = np.random.default_rng(40)
    cell = CrystalStructure(tuple(int(z) for z in gen.choice([8, 14, 26], 40)),
                            gen.uniform(0.0, 1.0, (40, 3)), np.diag([8.0, 9.0, 11.0]))
    build_graph(cell)  # warm-up: cached image grids
    tracemalloc.start()
    try:
        g = build_graph(cell)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert g.num_edges == 1000
    assert peak < 780_000, peak
