"""Property checks: symmetry sweeps and finite-difference gradient audits.

Everything here is generative — random triclinic structures, random rigid
motions — so the suite can be sized by a trial count. Each check returns a
`CheckResult` with the worst observed error and its tolerance; the CLI turns
any failure into a nonzero exit.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from .config import RunConfig
from .harmonics import spherical_harmonics
from .model import MGTModel
from .pretrain import NoisySample, inject_noise, noisy_pack, ssl_losses
from .rng import stream
from .structures import CrystalStructure, GroupAction, apply_group_action
from .tensor import Tensor

# Relative-error denominators are floored here: central differences on a
# loss of order 1-100 carry ~1e-9 roundoff, so derivatives far below this
# scale cannot be resolved and would only report FD noise.
_FD_DENOM_FLOOR = 1e-3


@dataclass(frozen=True)
class CheckResult:
    name: str
    max_err: float
    tol: float
    passed: bool
    detail: str = ""


def _result(name: str, max_err: float, tol: float, detail: str = "") -> CheckResult:
    return CheckResult(name=name, max_err=float(max_err), tol=tol,
                       passed=bool(max_err < tol), detail=detail)


# ---------------------------------------------------------------------------
# Random generators
# ---------------------------------------------------------------------------

def random_lattice(gen: np.random.Generator) -> np.ndarray:
    """Random well-conditioned triclinic cell from lengths and angles."""
    while True:
        a, b, c = gen.uniform(3.0, 7.0, 3)
        alpha, beta, gamma = np.radians(gen.uniform(70.0, 110.0, 3))
        cx = np.cos(beta)
        cy = (np.cos(alpha) - np.cos(beta) * np.cos(gamma)) / np.sin(gamma)
        cz_sq = 1.0 - cx * cx - cy * cy
        if cz_sq < 0.05:  # nearly flat cell; resample
            continue
        lattice = np.array([
            [a, 0.0, 0.0],
            [b * np.cos(gamma), b * np.sin(gamma), 0.0],
            [c * cx, c * cy, c * np.sqrt(cz_sq)],
        ])
        if np.linalg.det(lattice) > 1.0:
            return lattice


def random_structure(gen: np.random.Generator, min_atoms: int = 2,
                     max_atoms: int = 16) -> CrystalStructure:
    n = int(gen.integers(min_atoms, max_atoms + 1))
    species = tuple(int(z) for z in gen.integers(1, 95, n))
    return CrystalStructure(species, gen.uniform(0.0, 1.0, (n, 3)),
                            random_lattice(gen))


def random_rotation(gen: np.random.Generator) -> np.ndarray:
    """Haar-ish random proper rotation via QR with sign fixing."""
    q, r = np.linalg.qr(gen.normal(size=(3, 3)))
    q = q * np.sign(np.diag(r))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q


def random_group_action(gen: np.random.Generator) -> GroupAction:
    return GroupAction(random_rotation(gen), gen.uniform(-5.0, 5.0, 3))


# ---------------------------------------------------------------------------
# Symmetry checks
# ---------------------------------------------------------------------------

def _embeddings(model: MGTModel, s: CrystalStructure):
    out = model.forward([model.build_graph(s)], training=False)
    return out.e1.data.copy(), out.e2.data.copy(), out.prediction.data.copy()


def check_se3_invariance(model: MGTModel, num_structures: int,
                         actions_per_structure: int, seed: int,
                         tol: float = 1e-8,
                         min_atoms: int = 2, max_atoms: int = 16) -> CheckResult:
    """Pooled embeddings and predictions must survive any rigid motion."""
    gen = stream(seed, "check/se3")
    worst = 0.0
    for _ in range(num_structures):
        s = random_structure(gen, min_atoms, max_atoms)
        e1, e2, pred = _embeddings(model, s)
        for _ in range(actions_per_structure):
            moved = apply_group_action(s, random_group_action(gen))
            f1, f2, fpred = _embeddings(model, moved)
            worst = max(worst, np.max(np.abs(f1 - e1)),
                        np.max(np.abs(f2 - e2)), np.max(np.abs(fpred - pred)))
    return _result("se3_invariance", worst, tol,
                   f"{num_structures} structures x {actions_per_structure} actions")


def degree1_rotation(rotation: np.ndarray) -> np.ndarray:
    """The rotation acting on degree-1 harmonics, which are ordered (y, z, x)."""
    perm = np.array([1, 2, 0])
    return rotation[np.ix_(perm, perm)]


def fitted_rotations(rotation: np.ndarray, l_max: int) -> list[np.ndarray]:
    """Each degree's rotation D_l, Y_l(R u) = Y_l(u) @ D_l.T in the row
    convention of `spherical_harmonics`, fitted by least squares on 64
    fixed directions."""
    u = stream(0, "check/so3/directions").normal(size=(64, 3))
    return [np.linalg.lstsq(y, y_rot, rcond=None)[0].T
            for y, y_rot in zip(spherical_harmonics(u, l_max),
                                spherical_harmonics(u @ rotation.T, l_max))]


def check_so3_equivariance(model: MGTModel, num_rotations: int, seed: int,
                           tol: float = 1e-8, vec_tol: float = 1e-10,
                           num_structures: int = 3) -> CheckResult:
    """Feature blocks of every degree must co-rotate with the crystal.

    A pure rotation leaves fractional coordinates untouched, so both graphs
    enumerate identical edges in identical order and blocks compare row by
    row. Edge displacement vectors must follow the rotation exactly. Degree
    1 is checked against the rotation itself and every degree up to
    `l_max` against its rotation fitted from the harmonics
    (`fitted_rotations`), each relative to the block's largest entry.
    """
    gen = stream(seed, "check/so3")
    worst_rel = 0.0
    worst_vec = 0.0
    worst_degree = [0.0] * (model.cfg.l_max + 1)
    for _ in range(num_structures):
        s = random_structure(gen, 2, 8)
        g = model.build_graph(s)
        base = model.encode(model.make_inputs([g]), training=False)
        block = base.so3.layer1[1].data
        for _ in range(num_rotations):
            rot = random_rotation(gen)
            g2 = model.build_graph(apply_group_action(s, GroupAction(rot)))
            if not (np.array_equal(g.src, g2.src) and np.array_equal(g.dst, g2.dst)
                    and np.array_equal(g.image, g2.image)):
                return CheckResult("so3_equivariance", np.inf, tol, False,
                                   "edge ordering changed under pure rotation")
            worst_vec = max(worst_vec,
                            np.max(np.abs(g2.vector - g.vector @ rot.T)))
            moved = model.encode(model.make_inputs([g2]), training=False)
            expected = block @ degree1_rotation(rot).T
            scale = max(np.max(np.abs(expected)), 1e-30)
            worst_rel = max(worst_rel,
                            np.max(np.abs(moved.so3.layer1[1].data - expected)) / scale)
            for l, d in enumerate(fitted_rotations(rot, model.cfg.l_max)):
                want = base.so3.layer1[l].data @ d.T
                err = (np.max(np.abs(moved.so3.layer1[l].data - want))
                       / max(np.max(np.abs(want)), 1e-30))
                worst_degree[l] = max(worst_degree[l], err)
    worst = max(worst_rel, *worst_degree)
    return CheckResult(
        "so3_equivariance", max_err=float(worst), tol=tol,
        passed=bool(worst < tol and worst_vec < vec_tol),
        detail=f"block rel err {worst_rel:.3e}, by degree "
               + ", ".join(f"{e:.1e}" for e in worst_degree)
               + f", vector err {worst_vec:.3e} (tol {vec_tol:g})")


def check_permutation_invariance(model: MGTModel, num_structures: int,
                                 seed: int, tol: float = 1e-10) -> CheckResult:
    gen = stream(seed, "check/perm")
    worst = 0.0
    for _ in range(num_structures):
        s = random_structure(gen, 2, 8)
        perm = gen.permutation(len(s))
        relabeled = CrystalStructure(
            tuple(s.species[i] for i in perm), s.frac_coords[perm], s.lattice)
        e1, e2, pred = _embeddings(model, s)
        f1, f2, fpred = _embeddings(model, relabeled)
        worst = max(worst, np.max(np.abs(f1 - e1)), np.max(np.abs(f2 - e2)),
                    np.max(np.abs(fpred - pred)))
    return _result("permutation_invariance", worst, tol,
                   f"{num_structures} random relabelings")


def check_periodicity(model: MGTModel, num_structures: int, seed: int,
                      tol: float = 1e-10) -> CheckResult:
    """Integer lattice shifts of the fractional coordinates change nothing."""
    gen = stream(seed, "check/periodic")
    worst = 0.0
    for _ in range(num_structures):
        s = random_structure(gen, 2, 8)
        shifts = gen.integers(-3, 4, (len(s), 3)).astype(np.float64)
        shifted = CrystalStructure(s.species, s.frac_coords + shifts, s.lattice)
        e1, e2, pred = _embeddings(model, s)
        f1, f2, fpred = _embeddings(model, shifted)
        worst = max(worst, np.max(np.abs(f1 - e1)), np.max(np.abs(f2 - e2)),
                    np.max(np.abs(fpred - pred)))
    return _result("periodicity", worst, tol,
                   f"{num_structures} integer-shift sweeps")


# ---------------------------------------------------------------------------
# Gradient audit
# ---------------------------------------------------------------------------

def _grad_probe_config(cfg: RunConfig) -> RunConfig:
    """Shrink the model for finite differencing; tolerances stay unchanged."""
    return dataclasses.replace(cfg, width=16, num_rbf=16, num_angle_rbf=16,
                               cutoff=4.0, max_neighbors=12, l_max=min(cfg.l_max, 2),
                               precision="f64")


def _loss_functions(model: MGTModel, samples: list[NoisySample],
                    targets: np.ndarray) -> dict:
    """The five training objectives as deterministic closures over parameters."""
    clean = model.make_inputs([sample.graph for sample in samples])
    noisy = noisy_pack(model, samples)

    def ssl_term(k):
        return lambda: ssl_losses(model, noisy, samples,
                                  range(len(samples)))[k]

    def loss_mse():
        enc = model.encode(clean, training=True)
        pred, _ = model.fusion(enc.e1, enc.e2, None)
        diff = pred - Tensor(targets.reshape(-1, 1))
        return (diff * diff).mean()

    return {"denoise_angles": ssl_term(2), "denoise_distances": ssl_term(3),
            "contrastive": ssl_term(1), "combined_ssl": ssl_term(0),
            "mse": loss_mse}


def _directional_errors(model: MGTModel, loss_fn, h: float, seed: int) -> float:
    """Worst relative disagreement between backprop and central differences,
    probing each parameter tensor along one fixed random direction."""
    store = model.store
    store.zero_grad()
    loss_fn().backward()
    grads = {n: None if p.grad is None else p.grad.copy()
             for n, p in store.params.items()}
    worst = 0.0
    for name, p in store.params.items():
        direction = stream(seed, "fd/" + name).normal(size=p.data.shape)
        direction /= np.linalg.norm(direction)
        analytic = (0.0 if grads[name] is None
                    else float(np.sum(grads[name] * direction)))
        base = p.data
        p.data = base + h * direction
        up = float(loss_fn().data)
        p.data = base - h * direction
        down = float(loss_fn().data)
        p.data = base
        fd = (up - down) / (2.0 * h)
        diff = abs(fd - analytic)
        worst = max(worst, diff / max(abs(fd), abs(analytic), _FD_DENOM_FLOOR))
    return worst


def check_gradients(cfg: RunConfig, num_structures: int = 4, h: float = 1e-5,
                    tol: float = 1e-4, seed: int = 0) -> CheckResult:
    """Backprop vs central differences for every loss and parameter tensor."""
    model = MGTModel(_grad_probe_config(cfg))
    gen = stream(seed, "check/grad-structures")
    noise_gen = stream(seed, "check/grad-noise")
    samples = [inject_noise(model.build_graph(random_structure(gen, 2, 4)),
                            model.cfg.sigma, noise_gen)
               for _ in range(num_structures)]
    targets = stream(seed, "check/grad-targets").normal(size=num_structures)
    state = model.store.state()
    worst = 0.0
    per_loss = []
    try:
        for loss_name, fn in _loss_functions(model, samples, targets).items():
            err = _directional_errors(model, fn, h, seed)
            per_loss.append(f"{loss_name}={err:.3e}")
            worst = max(worst, err)
    finally:
        model.store.load(*state)
    return _result("gradient_check", worst, tol, ", ".join(per_loss))


# ---------------------------------------------------------------------------
# Suite
# ---------------------------------------------------------------------------

def run_all(cfg: RunConfig, trials: int = 20) -> list[CheckResult]:
    """The full battery at the configured size; `trials` sets structure counts."""
    model = MGTModel(cfg)
    return [
        check_se3_invariance(model, num_structures=trials,
                             actions_per_structure=3, seed=cfg.seed,
                             min_atoms=2, max_atoms=8),
        check_so3_equivariance(model, num_rotations=max(1, trials // 4),
                               seed=cfg.seed),
        check_permutation_invariance(model, num_structures=trials, seed=cfg.seed),
        check_periodicity(model, num_structures=trials, seed=cfg.seed),
        check_gradients(cfg, seed=cfg.seed),
    ]
