"""Real spherical harmonics of edge directions, degrees 0..L_MAX_SUPPORTED.

Harmonics use the orthonormal real convention with components ordered
m = -l..l, which places the degree-1 triple in (y, z, x) order. Each degree
is written out as a polynomial in the unit direction. In this basis the
only couplings the equivariant encoder uses, (0, l, l) and (l, l, 0), are
I and (-1)^l / sqrt(2l+1)·I, so no Clebsch–Gordan tensor is built here;
the test suite keeps the Racah construction as its oracle for both.
"""

from __future__ import annotations

import math

import numpy as np

L_MAX_SUPPORTED = 3


def spherical_harmonics(vectors: np.ndarray, l_max: int) -> list[np.ndarray]:
    """Evaluate degrees 0..l_max on the directions of `vectors` (E, 3).

    Returns one (E, 2l+1) array per degree. Raises on zero-length rows since
    a direction is required.
    """
    if not 0 <= l_max <= L_MAX_SUPPORTED:
        raise ValueError(f"l_max must be in 0..{L_MAX_SUPPORTED}, got {l_max}")
    v = np.asarray(vectors, dtype=np.float64)
    if v.ndim != 2 or v.shape[1] != 3:
        raise ValueError(f"expected (E, 3) vectors, got shape {v.shape}")
    norms = np.linalg.norm(v, axis=1)
    if np.any(norms == 0):
        raise ValueError("cannot take the direction of a zero vector")
    n = v / norms[:, None]
    x, y, z = n[:, 0], n[:, 1], n[:, 2]

    out = [np.full((len(v), 1), 0.5 * math.sqrt(1.0 / math.pi))]
    if l_max >= 1:
        c1 = math.sqrt(3.0 / (4.0 * math.pi))
        out.append(np.stack([c1 * y, c1 * z, c1 * x], axis=1))
    if l_max >= 2:
        c2a = 0.5 * math.sqrt(15.0 / math.pi)
        c2b = 0.25 * math.sqrt(5.0 / math.pi)
        c2c = 0.25 * math.sqrt(15.0 / math.pi)
        out.append(np.stack([
            c2a * x * y,
            c2a * y * z,
            c2b * (3.0 * z * z - 1.0),
            c2a * x * z,
            c2c * (x * x - y * y),
        ], axis=1))
    if l_max >= 3:
        c3a = 0.25 * math.sqrt(35.0 / (2.0 * math.pi))
        c3b = 0.5 * math.sqrt(105.0 / math.pi)
        c3c = 0.25 * math.sqrt(21.0 / (2.0 * math.pi))
        c3d = 0.25 * math.sqrt(7.0 / math.pi)
        c3e = 0.25 * math.sqrt(105.0 / math.pi)
        out.append(np.stack([
            c3a * y * (3.0 * x * x - y * y),
            c3b * x * y * z,
            c3c * y * (5.0 * z * z - 1.0),
            c3d * (5.0 * z ** 3 - 3.0 * z),
            c3c * x * (5.0 * z * z - 1.0),
            c3e * z * (x * x - y * y),
            c3a * x * (x * x - 3.0 * y * y),
        ], axis=1))
    return out
