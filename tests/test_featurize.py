"""Feature-construction tests: RBF grids, atom tables, embeddings."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crysfuse.errors import DataError
from crysfuse.featurize import (
    RBF_CUT,
    AtomTable,
    RbfSpec,
    embed_angles,
    embed_atoms,
    load_atom_table,
    one_hot_table,
    rbf_expand,
    uniform_rbf,
)


class TestRbf:

    def test_uniform_grid_centers_and_width(self):
        spec = uniform_rbf(0.0, 8.0, 5)
        assert np.allclose(spec.centers, [0, 2, 4, 6, 8])
        assert spec.gamma == pytest.approx(1.0 / (2 * 2.0 ** 2))
        assert spec.size == 5

    def test_expansion_values(self):
        spec = RbfSpec(np.array([0.0, 1.0]), gamma=0.5)
        out = rbf_expand(np.array([1.0]), spec)
        assert out.shape == (1, 2)
        assert out[0, 0] == pytest.approx(np.exp(-0.5))
        assert out[0, 1] == pytest.approx(1.0)

    def test_on_center_value_is_one(self):
        spec = uniform_rbf(1.0, 3.0, 3)
        out = rbf_expand(spec.centers.copy(), spec)
        assert np.allclose(np.diag(out), 1.0)

    def test_batch_shape(self):
        spec = uniform_rbf(0.0, 1.0, 4)
        assert rbf_expand(np.zeros((7, 3)), spec).shape == (7, 3, 4)

    def test_validation(self):
        with pytest.raises(ValueError):
            RbfSpec(np.array([1.0]), gamma=1.0)  # single center
        with pytest.raises(ValueError):
            RbfSpec(np.array([1.0, 0.5]), gamma=1.0)  # not ascending
        with pytest.raises(ValueError):
            RbfSpec(np.array([0.0, 1.0]), gamma=0.0)

    def test_centers_read_only(self):
        spec = uniform_rbf(0.0, 1.0, 3)
        with pytest.raises(ValueError):
            spec.centers[0] = 9.0


class TestAtomTable:

    def test_one_hot_rows(self):
        table = one_hot_table(10)
        assert table.dim == 10
        assert np.array_equal(table.rows[1], np.eye(10)[0])
        assert np.array_equal(table.rows[10], np.eye(10)[9])
        assert 11 not in table.rows

    def test_embed_stacks_rows(self):
        table = one_hot_table(4)
        out = embed_atoms((2, 2, 4), table)
        assert out.shape == (3, 4)
        assert np.array_equal(out[0], out[1])
        assert out[2, 3] == 1.0

    def test_embed_unknown_z_is_data_error(self):
        with pytest.raises(DataError, match="atomic number 7"):
            embed_atoms((1, 7), one_hot_table(4))

    def test_row_length_validated(self):
        with pytest.raises(ValueError, match="Z=2"):
            AtomTable(dim=3, rows={1: np.zeros(3), 2: np.zeros(2)})

    def test_load_json_table(self, tmp_path):
        path = tmp_path / "atoms.json"
        path.write_text(json.dumps({"1": [0.5, 1.0], "8": [2.0, 3.0]}))
        table = load_atom_table(str(path))
        assert table.dim == 2
        assert np.allclose(table.rows[8], [2.0, 3.0])
        assert np.allclose(embed_atoms((8, 1), table), [[2, 3], [0.5, 1]])

    def test_load_empty_table_raises(self, tmp_path):
        path = tmp_path / "empty.json"
        path.write_text("{}")
        with pytest.raises(ValueError, match="empty"):
            load_atom_table(str(path))


class TestEdgeAndAngleFeatures:

    def test_edge_embedding_shape(self):
        spec = uniform_rbf(0.0, 8.0, 16)
        assert rbf_expand(np.ones(5), spec).shape == (5, 16)

    def test_angle_embedding_uses_cosine(self):
        spec = uniform_rbf(-1.0, 1.0, 8)
        angles = np.array([[0.0, np.pi / 2, np.pi]])
        out = embed_angles(angles, spec)
        assert out.shape == (1, 3, 8)
        direct = rbf_expand(np.array([[1.0, 0.0, -1.0]]), spec)
        assert np.allclose(out, direct)


@st.composite
def specs_and_values(draw):
    """A random ascending grid and values inside it, far outside it,
    nan and +-inf."""
    lo = draw(st.floats(-10.0, 10.0))
    steps = draw(st.lists(st.floats(1e-3, 2.0), min_size=1, max_size=63))
    spec = RbfSpec(lo + np.cumsum([0.0, *steps]),
                   gamma=draw(st.floats(1e-3, 1e4)))
    inside = st.floats(spec.centers[0] - 1.0, spec.centers[-1] + 1.0)
    outside = st.floats(-1e100, 1e100)
    special = st.sampled_from([np.nan, np.inf, -np.inf])
    x = draw(st.lists(st.one_of(inside, outside, special),
                      min_size=1, max_size=20))
    return spec, np.array(x)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(case=specs_and_values())
def test_rbf_expand_is_the_gaussian_truncated_at_the_cut(case):
    spec, x = case
    out = rbf_expand(x, spec)
    diff = x[:, None] - spec.centers
    a = -spec.gamma * diff * diff
    kept = a >= RBF_CUT
    # no subnormal at float64 or once cast to float32
    for arr in (out, out.astype(np.float32)):
        mag = np.abs(arr)
        assert not np.any((mag > 0) & (mag < np.finfo(arr.dtype).tiny))
    assert np.array_equal(out[kept].view(np.uint64),
                          np.exp(a[kept]).view(np.uint64))
    below = a < RBF_CUT
    assert np.all(out[below] == 0.0) and not np.any(np.signbit(out[below]))
    assert np.all(np.isnan(out[np.isnan(x)]))
    assert np.all(out[np.isinf(x)] == 0.0)
