"""Initial node, edge-distance, and angle features for both encoders.

Distances and angle cosines are expanded over Gaussian radial basis grids;
atoms map to table rows (one-hot by default, or an external per-element
vector table). Everything here is plain numpy — these are constant inputs to
the differentiable encoders.

The basis is truncated to exact zeros where its exponent falls below
`RBF_CUT`, where exp drops under float32's smallest normal number. Far from
its centre a Gaussian underflows: kept, its tail would hold subnormals
(float32 always, float64 past exp(-708)), and both numpy's `exp` and BLAS
take a slow path on those, about 100x and 4-7x slower per element. A
truncated tail lies far below the rounding of the O(1) entries in its row.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .errors import DataError

DEFAULT_NUM_RBF = 64
DEFAULT_ONE_HOT_MAX_Z = 100

# ln of float32's smallest normal number, taken in float64: exp(RBF_CUT) is
# normal in float32, and exp of the next float64 below it is not
RBF_CUT = float(np.log(float(np.finfo(np.float32).tiny)))


@dataclass(frozen=True)
class RbfSpec:
    """Gaussian basis grid: component k of x is exp(-gamma * (x - mu_k)^2).

    A component whose exponent is below `RBF_CUT` (about -87.3) is exactly
    0, so no expansion holds a subnormal number at float64 or float32.
    """

    centers: np.ndarray
    gamma: float

    def __post_init__(self):
        centers = np.asarray(self.centers, dtype=np.float64)
        if centers.ndim != 1 or len(centers) < 2:
            raise ValueError(f"need >= 2 rbf centers, got shape {centers.shape}")
        if not np.all(np.diff(centers) > 0):
            raise ValueError("rbf centers must be strictly ascending")
        if self.gamma <= 0:
            raise ValueError(f"rbf gamma must be positive, got {self.gamma}")
        centers.flags.writeable = False
        object.__setattr__(self, "centers", centers)

    @property
    def size(self) -> int:
        return len(self.centers)


def uniform_rbf(lo: float, hi: float, k: int = DEFAULT_NUM_RBF) -> RbfSpec:
    """K centers evenly spaced on [lo, hi]; width matched to the spacing."""
    centers = np.linspace(lo, hi, k)
    spacing = centers[1] - centers[0]
    return RbfSpec(centers, gamma=1.0 / (2.0 * spacing * spacing))


def rbf_expand(x: np.ndarray, spec: RbfSpec) -> np.ndarray:
    """Expand values over the basis; output shape = x.shape + (K,).

    Entries with exponent >= `RBF_CUT` are the bits of the plain Gaussian,
    the others are 0; a nan value gives a nan row and +-inf a zero row.
    """
    x = np.asarray(x, dtype=np.float64)
    diff = x[..., None] - spec.centers
    out = -spec.gamma * diff
    out *= diff
    keep = out >= RBF_CUT
    # clamping keeps exp off its underflow path, and the mask zeroes what
    # was clamped; maximum, exp and the product all pass nan through
    np.maximum(out, RBF_CUT, out=out)
    np.exp(out, out=out)
    out *= keep
    return out


@dataclass(frozen=True)
class AtomTable:
    """Per-element feature rows keyed by atomic number."""

    dim: int
    rows: dict

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError(f"atom table dim must be >= 1, got {self.dim}")
        for z, row in self.rows.items():
            if len(row) != self.dim:
                raise ValueError(
                    f"atom table row for Z={z} has length {len(row)}, declared dim {self.dim}")


def one_hot_table(max_z: int = DEFAULT_ONE_HOT_MAX_Z) -> AtomTable:
    eye = np.eye(max_z)
    return AtomTable(dim=max_z, rows={z: eye[z - 1] for z in range(1, max_z + 1)})


def load_atom_table(path: str) -> AtomTable:
    """Load a JSON atom table: {"1": [row...], "2": [row...], ...}, one
    flat row of finite numbers per atomic number, all of one length. Any
    fault raises `DataError` naming the path and the problem."""
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise DataError(f"cannot read atom table {path}: {exc}") from None
    except ValueError as exc:  # invalid JSON or text
        raise DataError(f"atom table {path}: invalid JSON: {exc}") from None
    if not isinstance(raw, dict) or not raw:
        raise DataError(f"atom table {path}: expected a non-empty object "
                        "mapping atomic numbers to rows")
    rows = {}
    for key, row in raw.items():
        try:
            z = int(key)
            vec = np.asarray(row, dtype=np.float64)
        except (TypeError, ValueError):
            raise DataError(f"atom table {path}: entry {key!r} is not an "
                            "atomic number with a flat row of numbers") from None
        if vec.ndim != 1 or not np.all(np.isfinite(vec)):
            raise DataError(f"atom table {path}: row for Z={z} is not a flat "
                            "vector of finite numbers")
        rows[z] = vec
    try:
        return AtomTable(dim=len(next(iter(rows.values()))), rows=rows)
    except ValueError as exc:
        raise DataError(f"atom table {path}: {exc}") from None


def check_species(species, table: AtomTable) -> None:
    """Raise `DataError` at the first atomic number `table` has no row for."""
    for z in species:
        if z not in table.rows:
            raise DataError(f"no atom table row for atomic number {z}")


def embed_atoms(species, table: AtomTable) -> np.ndarray:
    """Stack table rows for each atom, shape (N, dim)."""
    check_species(species, table)
    out = np.empty((len(species), table.dim))
    for i, z in enumerate(species):
        out[i] = table.rows[z]
    return out


def embed_angles(angles: np.ndarray, spec: RbfSpec) -> np.ndarray:
    """Cosine-of-angle basis features, shape (E, 3, K)."""
    return rbf_expand(np.cos(angles), spec)
