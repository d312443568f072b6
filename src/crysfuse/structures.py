"""Crystal structure data model, file ingestion, and rigid-motion transforms.

A structure is the triple (species, fractional coordinates, lattice matrix).
Cartesian positions follow the row-vector convention ``x = frac @ lattice``
with the lattice rows being the three cell vectors in angstroms. Fractional
coordinates are always stored wrapped into [0, 1).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .elements import SYMBOL_TO_Z, symbol_of
from .errors import DataError

_DET_TOL = 1e-10
_ORTHO_TOL = 1e-12


class StructureError(DataError):
    """Malformed structure input (file content or in-memory values)."""


def wrap_frac(frac: np.ndarray) -> np.ndarray:
    """Wrap fractional coordinates into [0, 1). Integer shifts map to 0 exactly."""
    wrapped = frac - np.floor(frac)
    # floor(x) == x for integral x already yields 0; guard the 1.0 - eps edge
    wrapped[wrapped >= 1.0] -= 1.0
    return wrapped


@dataclass(frozen=True)
class CrystalStructure:
    """Atomic species, wrapped fractional coordinates, and a 3x3 lattice (rows)."""

    species: tuple[int, ...]
    frac_coords: np.ndarray  # (N, 3) float64, wrapped into [0, 1)
    lattice: np.ndarray      # (3, 3) float64, rows are the cell vectors

    def __post_init__(self):
        species = tuple(int(z) for z in self.species)
        frac = np.array(self.frac_coords, dtype=np.float64).reshape(-1, 3)
        lattice = np.array(self.lattice, dtype=np.float64)
        if lattice.shape != (3, 3):
            raise StructureError(f"lattice must be 3x3, got {lattice.shape}")
        if len(species) == 0:
            raise StructureError("structure must contain at least one atom")
        if len(species) != len(frac):
            raise StructureError(
                f"{len(species)} species but {len(frac)} coordinate rows")
        for z in species:
            if not 1 <= z <= 118:
                raise StructureError(f"atomic number {z} outside 1..118")
        if not np.isfinite(lattice).all():
            raise StructureError("lattice holds non-finite values")
        if not np.isfinite(frac).all():
            raise StructureError("frac_coords holds non-finite values")
        det = float(np.linalg.det(lattice))
        if abs(det) < _DET_TOL:
            raise StructureError("singular lattice")
        if det < 0:
            raise StructureError("lattice determinant must be positive (right-handed cell)")
        frac = wrap_frac(frac)
        frac.flags.writeable = False
        lattice.flags.writeable = False
        object.__setattr__(self, "species", species)
        object.__setattr__(self, "frac_coords", frac)
        object.__setattr__(self, "lattice", lattice)

    def __len__(self) -> int:
        return len(self.species)

    def cart_coords(self) -> np.ndarray:
        """Cartesian positions of the in-cell representatives, ``frac @ lattice``."""
        return self.frac_coords @ self.lattice


@dataclass(frozen=True)
class GroupAction:
    """A proper rigid motion: rotation (det +1 orthogonal) plus translation."""

    rotation: np.ndarray     # (3, 3)
    translation: np.ndarray = field(default_factory=lambda: np.zeros(3))

    def __post_init__(self):
        rot = np.array(self.rotation, dtype=np.float64)
        trans = np.array(self.translation, dtype=np.float64).reshape(3)
        if rot.shape != (3, 3):
            raise ValueError(f"rotation must be 3x3, got {rot.shape}")
        if np.max(np.abs(rot @ rot.T - np.eye(3))) > 1e-9:
            raise ValueError("rotation matrix is not orthogonal")
        if abs(np.linalg.det(rot) - 1.0) > 1e-9:
            raise ValueError("rotation matrix must have determinant +1")
        rot.flags.writeable = False
        trans.flags.writeable = False
        object.__setattr__(self, "rotation", rot)
        object.__setattr__(self, "translation", trans)


def apply_group_action(s: CrystalStructure, g: GroupAction) -> CrystalStructure:
    """Rotate and translate a structure; species kept, fractions rewrapped.

    Cartesian coordinates become ``x @ R^T + b`` and every lattice row is
    rotated the same way, so all interatomic distances (periodic images
    included) are preserved.
    """
    new_lattice = s.lattice @ g.rotation.T
    new_cart = s.cart_coords() @ g.rotation.T + g.translation
    new_frac = new_cart @ np.linalg.inv(new_lattice)
    return CrystalStructure(s.species, new_frac, new_lattice)


# ---------------------------------------------------------------------------
# POSCAR (VASP-5 subset)
# ---------------------------------------------------------------------------

def _floats(line: str, n: int, lineno: int) -> np.ndarray:
    parts = line.split()
    if len(parts) < n:
        raise StructureError(f"line {lineno}: expected {n} numbers, got {len(parts)}")
    try:
        return np.array([float(p) for p in parts[:n]])
    except ValueError:
        raise StructureError(f"line {lineno}: could not parse numbers") from None


def parse_poscar(text: str) -> CrystalStructure:
    """Parse a VASP-5-style POSCAR string.

    Layout: comment, scale factor, three lattice rows, element symbols,
    per-element counts, a "Direct"/"Cartesian" marker, then the coordinate
    rows. Errors carry the offending line number.
    """
    lines = text.splitlines()
    if len(lines) < 8:
        raise StructureError(f"POSCAR too short: {len(lines)} lines, need at least 8")

    try:
        scale = float(lines[1].split()[0])
    except (ValueError, IndexError):
        raise StructureError("line 2: could not parse scale factor") from None
    if scale <= 0:
        raise StructureError(f"line 2: scale factor must be positive, got {scale}")

    lattice = np.vstack([_floats(lines[2 + i], 3, 3 + i) for i in range(3)]) * scale

    symbols = lines[5].split()
    if not symbols:
        raise StructureError("line 6: missing element symbols")
    species_per_block = []
    for sym in symbols:
        if sym not in SYMBOL_TO_Z:
            raise StructureError(f"line 6: unknown element symbol {sym!r}")
        species_per_block.append(SYMBOL_TO_Z[sym])

    counts_parts = lines[6].split()
    if len(counts_parts) != len(symbols):
        raise StructureError(
            f"line 7: {len(counts_parts)} counts for {len(symbols)} symbols")
    try:
        counts = [int(c) for c in counts_parts]
    except ValueError:
        raise StructureError("line 7: counts must be integers") from None
    if any(c < 1 for c in counts):
        raise StructureError("line 7: counts must be >= 1")

    mode = lines[7].strip().lower()
    if mode.startswith("s"):
        raise StructureError("line 8: selective dynamics is not supported")
    if mode.startswith("d"):
        cartesian = False
    elif mode.startswith("c") or mode.startswith("k"):
        cartesian = True
    else:
        raise StructureError(f"line 8: expected Direct or Cartesian, got {lines[7]!r}")

    natoms = sum(counts)
    if len(lines) < 8 + natoms:
        raise StructureError(
            f"expected {natoms} coordinate rows from line 9, file has {len(lines) - 8}")
    coords = np.vstack([_floats(lines[8 + i], 3, 9 + i) for i in range(natoms)])

    species = [z for z, c in zip(species_per_block, counts) for _ in range(c)]
    if cartesian:
        frac = (coords * scale) @ np.linalg.inv(lattice)
    else:
        frac = coords
    return CrystalStructure(tuple(species), frac, lattice)


def serialize_poscar(s: CrystalStructure, comment: str = "crysfuse") -> str:
    """Emit a Direct-coordinate POSCAR with 12 significant digits."""
    out = [comment, "1.0"]
    for row in s.lattice:
        out.append("  " + " ".join(f"{v:.12g}" for v in row))
    blocks: list[tuple[str, int]] = []
    for z in s.species:
        sym = symbol_of(z)
        if blocks and blocks[-1][0] == sym:
            blocks[-1] = (sym, blocks[-1][1] + 1)
        else:
            blocks.append((sym, 1))
    out.append(" ".join(sym for sym, _ in blocks))
    out.append(" ".join(str(c) for _, c in blocks))
    out.append("Direct")
    for row in s.frac_coords:
        out.append("  " + " ".join(f"{v:.12g}" for v in row))
    return "\n".join(out) + "\n"


# ---------------------------------------------------------------------------
# JSON schema
# ---------------------------------------------------------------------------

_ALLOWED_KEYS = {"species", "frac_coords", "lattice", "target", "id"}


def _float_array(obj: dict, key: str) -> np.ndarray:
    try:
        return np.array(obj[key], dtype=np.float64)
    except (TypeError, ValueError):  # ragged rows, strings, objects
        raise StructureError(f"{key} must be rows of numbers") from None


def structure_from_dict(obj: dict) -> CrystalStructure:
    """Build a structure from the JSON object schema.

    Required keys: "species" (atomic numbers or symbols), "frac_coords"
    (N x 3), "lattice" (3 x 3 rows). "target" and "id" are tolerated here and
    consumed by the dataset pipeline.
    """
    if not isinstance(obj, dict):
        raise StructureError("structure JSON must be an object")
    unknown = set(obj) - _ALLOWED_KEYS
    if unknown:
        raise StructureError(f"unknown structure keys: {sorted(unknown)}")
    for key in ("species", "frac_coords", "lattice"):
        if key not in obj:
            raise StructureError(f"missing structure key {key!r}")

    if not isinstance(obj["species"], list):
        raise StructureError(f"species must be a list, got {obj['species']!r}")
    species = []
    for item in obj["species"]:
        if isinstance(item, str):
            if item not in SYMBOL_TO_Z:
                raise StructureError(f"unknown element symbol {item!r}")
            species.append(SYMBOL_TO_Z[item])
        elif isinstance(item, (int, np.integer)) and not isinstance(item, bool):
            species.append(int(item))
        else:
            raise StructureError(f"species entries must be int or symbol, got {item!r}")

    frac, lattice = (_float_array(obj, key)
                     for key in ("frac_coords", "lattice"))
    if frac.ndim != 2 or frac.shape[1] != 3:
        raise StructureError(f"frac_coords must be N x 3, got shape {frac.shape}")
    if frac.shape[0] != len(species):
        raise StructureError(
            f"{len(species)} species but {frac.shape[0]} frac_coords rows")
    if lattice.shape != (3, 3):
        raise StructureError(f"lattice must be 3 x 3, got shape {lattice.shape}")
    return CrystalStructure(tuple(species), frac, lattice)

