import json

import numpy as np
import pytest

from crysfuse.errors import DataError
from crysfuse.graph import GraphError, build_graph
from crysfuse.pipeline import load_jsonl
from crysfuse.structures import (CrystalStructure, GroupAction, StructureError,
                                 apply_group_action, parse_poscar,
                                 serialize_poscar, structure_from_dict,
                                 wrap_frac)

CUBIC = np.eye(3) * 4.0

POSCAR_NACL = """NaCl rock salt
1.0
  5.64 0.0 0.0
  0.0 5.64 0.0
  0.0 0.0 5.64
Na Cl
1 1
Direct
  0.0 0.0 0.0
  0.5 0.5 0.5
"""


class TestCrystalStructure:

    def test_wrapping_and_cart(self):
        s = CrystalStructure((1,), [[1.25, -0.5, 3.0]], CUBIC)
        assert np.allclose(s.frac_coords, [[0.25, 0.5, 0.0]])
        assert np.allclose(s.cart_coords(), [[1.0, 2.0, 0.0]])

    def test_wrap_frac_integer_shift_is_exact(self):
        frac = np.array([[0.125, 0.625, 0.875]])
        shifted = wrap_frac(frac + np.array([3.0, -2.0, 1.0]))
        # dyadic rationals survive the add/floor round-trip bitwise
        assert np.array_equal(shifted, frac)

    def test_rejects_left_handed_cell(self):
        left = np.diag([4.0, 4.0, -4.0])
        with pytest.raises(StructureError, match="positive"):
            CrystalStructure((1,), [[0, 0, 0]], left)

    def test_rejects_singular_lattice(self):
        bad = np.array([[1, 0, 0], [2, 0, 0], [0, 0, 1]], dtype=float)
        with pytest.raises(StructureError, match="singular"):
            CrystalStructure((1,), [[0, 0, 0]], bad)

    def test_rejects_bad_atomic_numbers(self):
        with pytest.raises(StructureError):
            CrystalStructure((0,), [[0, 0, 0]], CUBIC)
        with pytest.raises(StructureError):
            CrystalStructure((119,), [[0, 0, 0]], CUBIC)

    def test_rejects_count_mismatch(self):
        with pytest.raises(StructureError, match="species"):
            CrystalStructure((1, 2), [[0, 0, 0]], CUBIC)

    @pytest.mark.parametrize("field", ["frac_coords", "lattice"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite_values(self, field, bad):
        values = {"frac_coords": np.array([[0.0, 0.0, 0.0], [0.5, 0.5, 0.5]]),
                  "lattice": CUBIC.copy()}
        values[field][1, 1] = bad
        with pytest.raises(StructureError, match=field):
            CrystalStructure((11, 17), values["frac_coords"], values["lattice"])

    def test_coincident_atoms_name_both_in_a_graph_error(self):
        # 1.0 wraps onto 0.0, so atoms 0 and 2 share a periodic position
        s = CrystalStructure((11, 17, 11),
                             [[0.0, 0.0, 0.0], [0.5, 0.5, 0.5], [1.0, 0.0, 0.0]],
                             CUBIC)
        with pytest.raises(GraphError, match="atoms 0 and 2 coincide"):
            build_graph(s, r=3.5)

    def test_arrays_are_read_only(self):
        s = CrystalStructure((1,), [[0.1, 0.2, 0.3]], CUBIC)
        with pytest.raises(ValueError):
            s.frac_coords[0, 0] = 9.0
        with pytest.raises(ValueError):
            s.lattice[0, 0] = 9.0


class TestGroupAction:

    def test_rejects_non_orthogonal(self):
        with pytest.raises(ValueError, match="orthogonal"):
            GroupAction(np.eye(3) * 2.0)

    def test_rejects_reflection(self):
        refl = np.diag([1.0, 1.0, -1.0])
        with pytest.raises(ValueError, match="determinant"):
            GroupAction(refl)

    def test_inverse_composes_to_identity(self):
        theta = 0.7
        rot = np.array([[np.cos(theta), -np.sin(theta), 0],
                        [np.sin(theta), np.cos(theta), 0],
                        [0, 0, 1.0]])
        shift = np.array([1.0, -2.0, 0.5])
        g = GroupAction(rot, shift)
        # x' = x R^T + b  =>  x = x' R - b R
        inverse = GroupAction(rot.T, -shift @ rot)
        s = CrystalStructure((6, 8), [[0.1, 0.2, 0.3], [0.7, 0.1, 0.9]], CUBIC)
        back = apply_group_action(apply_group_action(s, g), inverse)
        assert np.allclose(back.frac_coords, s.frac_coords, atol=1e-12)
        assert np.allclose(back.lattice, s.lattice, atol=1e-12)

    def test_positions_preserved_up_to_lattice_translations(self):
        rot = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
        g = GroupAction(rot, np.array([3.0, 1.0, -2.0]))
        s = CrystalStructure((6, 8), [[0.1, 0.2, 0.3], [0.7, 0.1, 0.9]], CUBIC)
        moved = apply_group_action(s, g)
        # wrapping may shift atoms by whole cells, so compare modulo the
        # (rotated) lattice: the residual must be integer in frac space
        expected_cart = s.cart_coords() @ rot.T + g.translation
        resid = (moved.cart_coords() - expected_cart) @ np.linalg.inv(moved.lattice)
        assert np.allclose(resid, np.round(resid), atol=1e-12)
        # lattice rows rotate with the coordinates
        assert np.allclose(moved.lattice, s.lattice @ rot.T)


class TestPoscar:

    def test_parse_nacl(self):
        s = parse_poscar(POSCAR_NACL)
        assert s.species == (11, 17)
        assert np.allclose(s.lattice, np.eye(3) * 5.64)
        assert np.allclose(s.frac_coords, [[0, 0, 0], [0.5, 0.5, 0.5]])

    def test_scale_factor_applies_to_lattice(self):
        text = POSCAR_NACL.replace("1.0", "2.0", 1)
        s = parse_poscar(text)
        assert np.allclose(s.lattice, np.eye(3) * 11.28)

    def test_cartesian_mode(self):
        text = """cart
1.0
  4.0 0.0 0.0
  0.0 4.0 0.0
  0.0 0.0 4.0
H
1
Cartesian
  2.0 2.0 2.0
"""
        s = parse_poscar(text)
        assert np.allclose(s.frac_coords, [[0.5, 0.5, 0.5]])

    def test_round_trip_fractional_coordinates(self):
        s = CrystalStructure(
            (11, 17, 17),
            [[0.123456789012, 0.9, 0.25],
             [0.5, 0.333333333333, 0.0],
             [0.1, 0.2, 0.77]],
            np.array([[5.1, 0.2, 0.0], [0.0, 4.7, 0.1], [0.3, 0.0, 6.2]]))
        back = parse_poscar(serialize_poscar(s))
        assert back.species == s.species
        assert np.max(np.abs(back.frac_coords - s.frac_coords)) < 1e-10
        assert np.max(np.abs(back.lattice - s.lattice)) < 1e-10

    def test_errors_carry_line_numbers(self):
        bad = POSCAR_NACL.replace("0.5 0.5 0.5", "0.5 oops 0.5")
        with pytest.raises(StructureError, match="line 10"):
            parse_poscar(bad)

    def test_selective_dynamics_rejected(self):
        text = POSCAR_NACL.replace("Direct", "Selective dynamics\nDirect")
        with pytest.raises(StructureError, match="[Ss]elective"):
            parse_poscar(text)

    def test_unknown_symbol(self):
        with pytest.raises(StructureError, match="Xx"):
            parse_poscar(POSCAR_NACL.replace("Na Cl", "Na Xx"))


class TestJsonSchema:

    def test_symbols_and_numbers_both_work(self):
        obj = {"species": ["Na", 17],
               "frac_coords": [[0, 0, 0], [0.5, 0.5, 0.5]],
               "lattice": CUBIC.tolist()}
        s = structure_from_dict(obj)
        assert s.species == (11, 17)

    def test_unknown_keys_rejected(self):
        obj = {"species": [1], "frac_coords": [[0, 0, 0]],
               "lattice": CUBIC.tolist(), "color": "blue"}
        with pytest.raises(StructureError, match="color"):
            structure_from_dict(obj)

    def test_missing_key(self):
        with pytest.raises(StructureError, match="lattice"):
            structure_from_dict({"species": [1], "frac_coords": [[0, 0, 0]]})

    def test_json_round_trip(self):
        # the dataset rows' form: a JSON object per structure
        s = CrystalStructure((11, 17), [[0.1, 0.2, 0.3], [0.5, 0.5, 0.5]],
                             np.array([[5.1, 0.2, 0.0], [0.0, 4.7, 0.1], [0.3, 0.0, 6.2]]))
        text = json.dumps({"species": list(s.species),
                           "frac_coords": s.frac_coords.tolist(),
                           "lattice": s.lattice.tolist()})
        again = structure_from_dict(json.loads(text))
        assert again.species == s.species
        assert again.frac_coords.tobytes() == s.frac_coords.tobytes()
        assert again.lattice.tobytes() == s.lattice.tobytes()

    def test_load_jsonl_rejects_garbage(self, tmp_path):
        path = tmp_path / "data.jsonl"
        path.write_text("{not json\n")
        with pytest.raises(DataError, match="line 1: invalid JSON"):
            load_jsonl(str(path))
