"""Initial node, edge-distance, and angle features for both encoders.

Distances and angle cosines are expanded over Gaussian radial basis grids;
atoms map to table rows (one-hot by default, or an external per-element
vector table). Everything here is plain numpy — these are constant inputs to
the differentiable encoders.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .errors import DataError

DEFAULT_NUM_RBF = 64
DEFAULT_ONE_HOT_MAX_Z = 100


@dataclass(frozen=True)
class RbfSpec:
    """Gaussian basis grid: component k of x is exp(-gamma * (x - mu_k)^2)."""

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
    """Expand values over the basis; output shape = x.shape + (K,)."""
    x = np.asarray(x, dtype=np.float64)
    diff = x[..., None] - spec.centers
    out = -spec.gamma * diff
    out *= diff
    return np.exp(out, out=out)


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
    """Load a JSON atom table: {"1": [row...], "2": [row...], ...}."""
    with open(path) as fh:
        raw = json.load(fh)
    rows = {}
    dim = None
    for key, row in raw.items():
        z = int(key)
        vec = np.asarray(row, dtype=np.float64)
        if vec.ndim != 1:
            raise ValueError(f"atom table row for Z={z} is not a flat vector")
        if dim is None:
            dim = len(vec)
        rows[z] = vec
    if dim is None:
        raise ValueError("atom table is empty")
    return AtomTable(dim=dim, rows=rows)


def embed_atoms(species: tuple, table: AtomTable) -> np.ndarray:
    """Stack table rows for each atom, shape (N, dim)."""
    out = np.empty((len(species), table.dim))
    for i, z in enumerate(species):
        if z not in table.rows:
            raise DataError(f"no atom table row for atomic number {z}")
        out[i] = table.rows[z]
    return out


def embed_edges(distances: np.ndarray, spec: RbfSpec) -> np.ndarray:
    """Distance basis features, shape (E, K)."""
    return rbf_expand(distances, spec)


def embed_angles(angles: np.ndarray, spec: RbfSpec) -> np.ndarray:
    """Cosine-of-angle basis features, shape (E, 3, K)."""
    return rbf_expand(np.cos(angles), spec)
