"""AdamW with decoupled weight decay, global-norm gradient clipping, the
warmup + cosine LR schedule, and the batches of a training epoch."""

from __future__ import annotations

import math

import numpy as np

from .config import RunConfig
from .tensor import Tensor


class AdamW:
    """Adam with bias-corrected moments; weight decay shrinks parameters
    directly instead of entering the gradient."""

    def __init__(
        self,
        params: dict[str, Tensor],
        lr: float = 1e-3,
        betas: tuple[float, float] = (0.9, 0.999),
        eps: float = 1e-8,
        weight_decay: float = 0.01,
    ):
        self.params = dict(params)
        self.lr = lr
        self.beta1, self.beta2 = betas
        self.eps = eps
        self.weight_decay = weight_decay
        self.t = 0
        self.m = {k: np.zeros_like(p.data) for k, p in self.params.items()}
        self.v = {k: np.zeros_like(p.data) for k, p in self.params.items()}

    def zero_grad(self):
        for p in self.params.values():
            p.grad = None

    def step(self):
        self.t += 1
        bc1 = 1.0 - self.beta1 ** self.t
        bc2 = 1.0 - self.beta2 ** self.t
        for name, p in self.params.items():
            g = p.grad
            if g is None:
                continue
            if self.weight_decay:
                p.data *= 1.0 - self.lr * self.weight_decay
            m = self.m[name]
            v = self.v[name]
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * g * g
            p.data -= self.lr * (m / bc1) / (np.sqrt(v / bc2) + self.eps)


def adamw_from_config(params: dict[str, Tensor], cfg: RunConfig,
                      lr: float) -> AdamW:
    """AdamW over `params` with `cfg`'s betas, epsilon and weight decay."""
    return AdamW(params, lr=lr, betas=(cfg.beta1, cfg.beta2), eps=cfg.adam_eps,
                 weight_decay=cfg.weight_decay)


def epoch_batches(n: int, batch_size: int) -> list[slice]:
    """Slices of an epoch's shuffled order of `n` samples: max(1, n //
    batch_size) batches of `batch_size`, the last taking the remainder."""
    count = max(1, n // batch_size)
    return [slice(b * batch_size, n if b == count - 1 else (b + 1) * batch_size)
            for b in range(count)]


def clip_grad_norm(params, max_norm: float) -> float:
    """Rescale the gradients of `params` so their joint L2 norm is at most
    `max_norm`; returns the norm before clipping.

    Parameters without a gradient are skipped. Gradients at or below the
    bound are left as they are, bit for bit; above it, each is replaced by
    a scaled copy, never written in place, since gradients may share
    memory (`Tensor.accumulate_grad`).
    """
    grads = [p for p in params if p.grad is not None]
    # numpy's pairwise sum, not a BLAS dot: OpenBLAS's `vdot` changed its
    # last bits with its thread count from about 20k elements on
    norm = math.sqrt(sum(float(np.square(p.grad).sum()) for p in grads))
    if norm > max_norm:
        scale = max_norm / norm
        for p in grads:
            p.grad = p.grad * scale
    return norm


def lr_schedule(step: int, total_steps: int, warmup: int, lr_max: float, lr_min: float) -> float:
    """Linear ramp 0 -> lr_max over `warmup` steps, then cosine down to lr_min."""
    if not 0 <= step <= total_steps:
        raise ValueError(f"step {step} outside [0, {total_steps}]")
    if warmup >= total_steps:
        raise ValueError(f"warmup {warmup} must be < total_steps {total_steps}")
    if step < warmup:
        return lr_max * step / warmup
    progress = (step - warmup) / (total_steps - warmup)
    return lr_min + 0.5 * (lr_max - lr_min) * (1.0 + math.cos(math.pi * progress))
