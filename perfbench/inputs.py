"""Seeded crystal generator for the benchmark workloads.

It uses numpy only, not crysfuse, so no change to the program can change
the inputs it is measured on.

Every cell is drawn from its own named random stream keyed by
(workload seed, dataset, index), so a dataset of k cells is the first k
cells of a larger one and the same seed always gives the same files.
Atom counts and the share of thin cells are fixed per workload, and cell
shapes do not depend on the seed: the seed moves atoms and picks species,
which keeps the work per run the same across seeds while the outputs change.
"""

from __future__ import annotations

import json
import math
import zlib
from dataclasses import dataclass

import numpy as np

CUTOFF = 8.0        # RunConfig default: neighbour radius (angstrom)
MAX_NEIGHBORS = 25  # RunConfig default: per-node edge cap
MIN_SEPARATION = 1.6  # smallest allowed interatomic distance (angstrom)
THIN_WIDTH = (2.6, 3.9)  # perpendicular width of thin cells, below CUTOFF / 2
VOLUME_PER_ATOM = (10.0, 30.0)  # angstrom^3, dense oxides to open frameworks
PLACEMENT_ATTEMPTS = 20  # fresh placements in one cell before a new cell shape

# Common elements of inorganic crystals; the default one-hot table covers them.
ELEMENTS = (3, 6, 7, 8, 9, 11, 12, 13, 14, 15, 16, 17, 19, 20, 22, 25, 26,
            27, 28, 29, 30, 31, 38, 40, 42, 50, 56, 57, 74, 82)


@dataclass(frozen=True)
class CellSpec:
    atoms: int
    thin: bool = False


def cell_stream(seed: int, dataset: str, index: int) -> np.random.Generator:
    tag = zlib.crc32(f"{dataset}/{index}".encode())
    return np.random.Generator(np.random.Philox(np.random.SeedSequence([seed, tag])))


def perpendicular_widths(lattice: np.ndarray) -> np.ndarray:
    volume = abs(np.linalg.det(lattice))
    return np.array([volume / np.linalg.norm(np.cross(lattice[(m + 1) % 3],
                                                      lattice[(m + 2) % 3]))
                     for m in range(3)])


def image_offsets(lattice: np.ndarray, radius: float) -> np.ndarray:
    """Cartesian offsets of every periodic image that can lie within radius."""
    bounds = [math.ceil(radius / w) + 1 for w in perpendicular_widths(lattice)]
    axes = [np.arange(-b, b + 1) for b in bounds]
    ks = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, 3)
    return ks @ lattice


def scanned_images(lattice: np.ndarray) -> int:
    """Periodic images a full scan out to CUTOFF visits for this cell."""
    bounds = [math.ceil(CUTOFF / w) + 1 for w in perpendicular_widths(lattice)]
    return int(np.prod([2 * b + 1 for b in bounds]))


def _regular_lattice(gen: np.random.Generator, volume: float) -> np.ndarray:
    while True:
        ratios = np.exp(gen.uniform(-0.3, 0.3, 3))
        alpha, beta, gamma = np.radians(gen.uniform(62.0, 118.0, 3))
        cx = math.cos(beta)
        cy = (math.cos(alpha) - math.cos(beta) * math.cos(gamma)) / math.sin(gamma)
        cz_sq = 1.0 - cx * cx - cy * cy
        if cz_sq < 0.2:
            continue
        unit = np.array([
            [ratios[0], 0.0, 0.0],
            [ratios[1] * math.cos(gamma), ratios[1] * math.sin(gamma), 0.0],
            [ratios[2] * cx, ratios[2] * cy, ratios[2] * math.sqrt(cz_sq)],
        ])
        return unit * (volume / np.linalg.det(unit)) ** (1.0 / 3.0)


def _thin_lattice(gen: np.random.Generator, volume: float) -> np.ndarray:
    """Slab-like skewed cell: one perpendicular width below half the cutoff."""
    width = gen.uniform(*THIN_WIDTH)
    area = volume / width
    gamma = math.radians(gen.uniform(55.0, 125.0))
    ratio = math.exp(gen.uniform(-0.3, 0.3))
    a = math.sqrt(area / math.sin(gamma) * ratio)
    b = area / (a * math.sin(gamma))
    a_vec = np.array([a, 0.0, 0.0])
    b_vec = np.array([b * math.cos(gamma), b * math.sin(gamma), 0.0])
    tilt = gen.uniform(-0.4, 0.4, 2)
    c_vec = tilt[0] * a_vec + tilt[1] * b_vec + np.array([0.0, 0.0, width])
    return np.stack([a_vec, b_vec, c_vec])


def _place_atoms(gen: np.random.Generator, lattice: np.ndarray, n: int,
                 tries: int = 400) -> np.ndarray | None:
    """Random sequential placement honouring MIN_SEPARATION under periodicity."""
    offsets = image_offsets(lattice, MIN_SEPARATION)
    self_images = np.linalg.norm(offsets, axis=1)
    if np.min(self_images[self_images > 0]) < MIN_SEPARATION:
        return None
    frac = np.empty((0, 3))
    for _ in range(n):
        for _ in range(tries):
            cand = gen.uniform(0.0, 1.0, 3)
            if len(frac) == 0:
                break
            disp = ((frac - cand) @ lattice)[None, :, :] + offsets[:, None, :]
            if np.min(np.linalg.norm(disp, axis=2)) >= MIN_SEPARATION:
                break
        else:
            return None
        frac = np.vstack([frac, cand])
    return frac


def _target(species: list[int], frac: np.ndarray, lattice: np.ndarray) -> float:
    """Smooth, rigid-motion-invariant property: volume, chemistry, packing."""
    n = len(species)
    cart = frac @ lattice
    offsets = image_offsets(lattice, 4.0)
    packing = 0.0
    for i in range(n):
        d = np.linalg.norm((cart - cart[i])[None] + offsets[:, None], axis=2)
        d = d[(d > 1e-9) & (d < 4.0)]
        packing += float(np.sum(np.exp(-(d - MIN_SEPARATION))))
    volume_per_atom = abs(np.linalg.det(lattice)) / n
    return (math.log(volume_per_atom) - 0.01 * float(np.mean(species))
            + 0.05 * packing / n)


def make_cell(seed: int, dataset: str, index: int, spec: CellSpec) -> dict:
    """One JSONL row: species, fractional coordinates, lattice, target.

    The cell's volume and shape come from a stream that ignores the seed, so
    the properties the program's cost depends on (atoms, widths, images
    scanned, edges) are the same for every seed; the seed moves the atoms
    and picks the species.
    """
    shape_gen = cell_stream(0, f"shape/{dataset}", index)
    gen = cell_stream(seed, dataset, index)
    while True:
        volume = spec.atoms * shape_gen.uniform(*VOLUME_PER_ATOM)
        lattice = (_thin_lattice(shape_gen, volume) if spec.thin
                   else _regular_lattice(shape_gen, volume))
        frac = next((f for f in (_place_atoms(gen, lattice, spec.atoms)
                                 for _ in range(PLACEMENT_ATTEMPTS))
                     if f is not None), None)
        if frac is not None:
            break
    kinds = gen.choice(ELEMENTS, size=min(spec.atoms, int(gen.integers(1, 4))),
                       replace=False)
    species = [int(kinds[i % len(kinds)]) for i in gen.permutation(spec.atoms)]
    return {
        "id": f"{dataset}-{index:04d}",
        "species": species,
        "frac_coords": frac.tolist(),
        "lattice": lattice.tolist(),
        "target": _target(species, frac, lattice),
    }


def make_dataset(seed: int, dataset: str, specs: list[CellSpec]) -> list[dict]:
    return [make_cell(seed, dataset, i, spec) for i, spec in enumerate(specs)]


def write_jsonl(rows: list[dict], path) -> None:
    with open(path, "w") as fh:
        for row in rows:
            fh.write(json.dumps(row) + "\n")


def edge_count(row: dict) -> int:
    """Directed edges within CUTOFF, each node capped at MAX_NEIGHBORS."""
    lattice = np.asarray(row["lattice"])
    cart = np.asarray(row["frac_coords"]) @ lattice
    offsets = image_offsets(lattice, CUTOFF)
    total = 0
    for i in range(len(cart)):
        d = np.linalg.norm((cart - cart[i])[None] + offsets[:, None], axis=2)
        total += min(MAX_NEIGHBORS, int(np.count_nonzero((d > 1e-9) & (d <= CUTOFF))))
    return total


def dataset_stats(rows: list[dict]) -> dict:
    """Input properties the program's cost depends on, averaged per cell."""
    atoms = [len(r["species"]) for r in rows]
    lattices = [np.asarray(r["lattice"]) for r in rows]
    return {
        "cells": len(rows),
        "atoms_per_cell": float(np.mean(atoms)),
        "atoms_min": min(atoms),
        "atoms_max": max(atoms),
        "thin_cells": int(sum(min(perpendicular_widths(L)) < CUTOFF / 2 for L in lattices)),
        "edges_per_struct": float(np.mean([edge_count(r) for r in rows])),
        "scanned_images_per_struct": float(np.mean([scanned_images(L) for L in lattices])),
    }
