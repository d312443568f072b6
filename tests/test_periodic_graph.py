import numpy as np
import pytest

from crysfuse.graph import (GraphError, build_graph, perpendicular_widths,
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
        assert np.array_equal(self.g.ref_vectors[0], np.eye(3))

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
