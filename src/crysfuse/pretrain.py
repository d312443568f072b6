"""Self-supervised pretraining: geometric denoising plus cross-view contrast.

Each step perturbs every structure's edge geometry with Gaussian noise —
angles for the invariant view, distances for the equivariant view (directions
are kept, so only radial features change) — runs both encoders on the noisy
views, and optimizes three terms: squared-error recovery of the realized
angle noise, the same for distance noise, and an NT-Xent loss pulling the two
views' pooled embeddings together across the batch.

Denoising losses are plain sums over structures and edges; the contrastive
loss averages over the 2N anchors of the batch pool.
"""

from __future__ import annotations

import json
import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from . import parallel
from .errors import DataError, NumericError
from .graph import PeriodicGraph
from .model import MGTModel, Pack
from .optim import AdamW, adamw_from_config, epoch_batches, lr_schedule
from .rng import stream
from .tensor import Tensor, concat

DISTANCE_FLOOR = 1e-6  # perturbed distances are clamped to stay positive


@dataclass(frozen=True)
class NoisySample:
    """A structure's perturbed edge geometry and the realized noise."""

    graph: PeriodicGraph
    noisy_angles: np.ndarray      # (E, 3), clamped to [0, pi]
    noisy_distances: np.ndarray   # (E,), clamped positive
    eps_theta: np.ndarray         # (E, 3) post-clamp angle deltas
    eps_e: np.ndarray             # (E,) post-clamp distance deltas


def inject_noise(graph: PeriodicGraph, sigma: float,
                 gen: np.random.Generator) -> NoisySample:
    """Perturb angles and distances with N(0, sigma^2) noise.

    Values are clamped back into their valid ranges and the stored noise is
    the realized (post-clamp) delta, so a zero-error denoiser must predict
    exactly the delta that was applied. ``sigma = 0`` degenerates to the
    identity (all noise exactly zero).
    """
    if sigma < 0:
        raise ValueError(f"noise scale must be non-negative, got {sigma}")
    num_edges = graph.num_edges
    noisy_angles = np.clip(
        graph.angles + gen.normal(0.0, sigma, (num_edges, 3)), 0.0, math.pi)
    noisy_distances = np.clip(
        graph.distance + gen.normal(0.0, sigma, num_edges),
        DISTANCE_FLOOR, None)
    return NoisySample(
        graph=graph,
        noisy_angles=noisy_angles,
        noisy_distances=noisy_distances,
        eps_theta=noisy_angles - graph.angles,
        eps_e=noisy_distances - graph.distance,
    )


def noisy_pack(model: MGTModel, samples: list[NoisySample]) -> Pack:
    """One pack of the samples' noisy views, one row per directed edge."""
    return model.make_inputs(
        [s.graph for s in samples], angles=[s.noisy_angles for s in samples],
        so3_distances=[s.noisy_distances for s in samples])


def nt_xent(z_view1: Tensor, z_view2: Tensor, tau: float) -> Tensor:
    """Contrastive loss over the 2N-row pool [view1; view2].

    Row k of view 1 and row k of view 2 are the positive pair; every other
    row in the pool is a negative. Each of the 2N rows anchors once and the
    denominator excludes self-similarity.
    """
    n = z_view1.shape[0]
    if n < 2:
        raise ValueError(f"contrastive batch needs >= 2 structures, got {n}")
    if tau <= 0:
        raise ValueError(f"temperature must be positive, got {tau}")
    z = concat([z_view1, z_view2], axis=0)
    sq_norms = (z * z).sum(axis=1, keepdims=True)
    if np.any(sq_norms.data <= 0):
        raise ValueError("zero-norm embedding row in contrastive batch")
    zn = z / sq_norms ** 0.5
    sim = (zn @ zn.T) * (1.0 / tau)  # (2N, 2N)

    two_n = 2 * n
    off_diag = sim.data.copy()
    np.fill_diagonal(off_diag, -np.inf)
    row_max = off_diag.max(axis=1, keepdims=True)  # detached shift for stability
    exp_sim = (sim - Tensor(row_max)).exp() * Tensor(1.0 - np.eye(two_n))
    log_denom = exp_sim.sum(axis=1, keepdims=True).log() + Tensor(row_max)
    pos = np.concatenate([np.arange(n) + n, np.arange(n)])
    pos_sim = sim[np.arange(two_n), pos].reshape(two_n, 1)
    return (log_denom - pos_sim).mean()


def _summed_squares(diff: Tensor, bounds: np.ndarray) -> Tensor:
    """Σ_s Σ diff[rows of s]², one tape node over the batch's rows.

    Each structure's rows `bounds[s]:bounds[s + 1]` are summed on their own
    and the per-structure sums added in order, so the batch's loss is bitwise
    the in-order sum of its structures' own losses.
    """
    sq = diff.data * diff.data
    total = sum(sq[a:b].sum() for a, b in zip(bounds[:-1], bounds[1:]))

    def back(g):
        diff._add_grad(2.0 * g * diff.data)

    return Tensor._result(np.asarray(total), (diff,), back)


def denoising_losses(pred_theta: Tensor, pred_e: Tensor,
                     samples: list[NoisySample]) -> tuple[Tensor, Tensor]:
    """Summed squared error of noise predictions over the whole batch.

    `pred_theta` (E, 3) and `pred_e` (E, 1) hold the batch's edges in the
    order of `samples`.
    """
    bounds = np.cumsum([0] + [s.graph.num_edges for s in samples])
    eps_theta = np.concatenate([s.eps_theta for s in samples])
    eps_e = np.concatenate([s.eps_e for s in samples]).reshape(-1, 1)
    return (_summed_squares(pred_theta - Tensor(eps_theta), bounds),
            _summed_squares(pred_e - Tensor(eps_e), bounds))


@dataclass
class PretrainParts:
    total: float
    contrast: float
    se3: float
    so3: float


def ssl_losses(model: MGTModel, noisy: Pack, samples: list[NoisySample],
               ids: Sequence) -> tuple[Tensor, Tensor, Tensor, Tensor]:
    """(total, contrastive, angle-denoising, distance-denoising) losses of a
    batch, from one training-mode encode of its noisy views' pack.

    A non-finite head output or embedding raises `NumericError` naming the
    first structure (by `ids`) it belongs to; per-structure batch statistics
    keep one structure's non-finite values out of the others' rows.
    """
    cfg = model.cfg
    enc = model.encode(noisy, training=True)
    p_theta = model.predict_angle_noise(enc)
    p_e = model.predict_distance_noise(enc)
    bounds = np.cumsum([0] + [s.graph.num_edges for s in samples])
    bad_edge = ~(np.isfinite(p_theta.data).all(axis=1)
                 & np.isfinite(p_e.data).all(axis=1))
    bad = (np.logical_or.reduceat(bad_edge, bounds[:-1])
           | ~np.isfinite(enc.e1.data).all(axis=1)
           | ~np.isfinite(enc.e2.data).all(axis=1))
    if bad.any():
        raise NumericError(
            f"non-finite pretraining loss at structure {ids[int(np.argmax(bad))]}")
    loss_se3, loss_so3 = denoising_losses(p_theta, p_e, samples)
    loss_contrast = nt_xent(enc.e1, enc.e2, cfg.tau)
    total = (cfg.lambda_contrast * loss_contrast
             + cfg.lambda_se3 * loss_se3 + cfg.lambda_so3 * loss_so3)
    return total, loss_contrast, loss_se3, loss_so3


def pretrain_step(model: MGTModel, batch: list[tuple[PeriodicGraph, str]],
                  opt: AdamW, noise_gen: np.random.Generator) -> PretrainParts:
    """One optimizer step on the combined objective for one batch, its row
    kernels split across the usable CPUs (`parallel.threads`)."""
    samples = [inject_noise(graph, model.cfg.sigma, noise_gen)
               for graph, _ in batch]
    with parallel.threads():
        total, loss_contrast, loss_se3, loss_so3 = ssl_losses(
            model, noisy_pack(model, samples), samples,
            [sid for _, sid in batch])
        if not np.isfinite(total.data):
            raise NumericError(
                f"non-finite pretraining loss at structure {batch[0][1]}")
        opt.zero_grad()
        total.backward()
        opt.step()
    return PretrainParts(total=float(total.data),
                         contrast=float(loss_contrast.data),
                         se3=float(loss_se3.data), so3=float(loss_so3.data))


def run_pretraining(model: MGTModel, graphs: list[tuple[PeriodicGraph, str]],
                    log_path: str | None = None,
                    epochs: int | None = None,
                    max_steps: int | None = None) -> list[dict]:
    """Full SSL loop: shuffled batches, warmup + cosine schedule, JSONL log.

    Batches that would leave fewer than two structures (no contrastive pool)
    are folded into the previous batch. Returns the per-step log records.
    """
    cfg = model.cfg
    epochs = cfg.pretrain_epochs if epochs is None else epochs
    batch_size = min(cfg.pretrain_batch_size, len(graphs))
    if batch_size < 2:
        raise DataError("pretraining needs at least 2 structures")
    batches = epoch_batches(len(graphs), batch_size)
    total_steps = epochs * len(batches)
    if max_steps is not None:
        total_steps = min(total_steps, max_steps)
    warmup = min(cfg.warmup_steps, total_steps - 1) if total_steps > 1 else 0
    opt = adamw_from_config(model.store.params, cfg, cfg.pretrain_lr)
    noise_gen = stream(cfg.seed, "noise")
    history: list[dict] = []
    log_fh = open(log_path, "w") if log_path else None
    try:
        step = 0
        for epoch in range(epochs):
            order = stream(cfg.seed, f"shuffle/pretrain/{epoch}").permutation(
                len(graphs))
            for batch_slice in batches:
                if step >= total_steps:
                    return history
                batch = [graphs[i] for i in order[batch_slice]]
                step += 1
                opt.lr = lr_schedule(step, total_steps, warmup,
                                     cfg.pretrain_lr, cfg.lr_min)
                parts = pretrain_step(model, batch, opt, noise_gen)
                record = {"step": step, "lr": opt.lr, "L_total": parts.total,
                          "L_contrast": parts.contrast, "L_SE3": parts.se3,
                          "L_SO3": parts.so3}
                history.append(record)
                if log_fh:
                    log_fh.write(json.dumps(record) + "\n")
    finally:
        if log_fh:
            log_fh.close()
    return history
