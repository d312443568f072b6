"""Two-expert fusion of the invariant and equivariant graph embeddings.

Each embedding passes through its own expert MLP; a single-head
self-attention router over the two expert tokens emits one raw scalar weight
per expert (no normalization across experts — weights may be negative), and
the weighted sum of expert outputs feeds the scalar output layer. A plain
concat-MLP head is provided as the fusion-off baseline.
"""

from __future__ import annotations

import math

import numpy as np

from .nn import MLP2, Linear, ParamStore
from .tensor import Tensor


def _softmax_pair(a: Tensor, b: Tensor) -> tuple[Tensor, Tensor]:
    """Row-wise softmax over two logit columns, max-shifted for stability."""
    m = np.maximum(a.data, b.data)
    ea = (a - Tensor(m)).exp()
    eb = (b - Tensor(m)).exp()
    denom = ea + eb
    return ea / denom, eb / denom


class MoEHead:
    """Mixture of two experts with a self-attention router."""

    def __init__(self, store: ParamStore, name: str, dim: int):
        self.dim = dim
        self.expert1 = MLP2(store, name + ".expert1", dim, dim, dim)
        self.expert2 = MLP2(store, name + ".expert2", dim, dim, dim)
        self.router_q = Linear(store, name + ".router_q", dim, dim)
        self.router_k = Linear(store, name + ".router_k", dim, dim)
        self.router_v = Linear(store, name + ".router_v", dim, dim)
        self.router_score = Linear(store, name + ".router_score", dim, 1)
        self.f_o = Linear(store, name + ".f_o", dim, 1)

    def route(self, h1: Tensor, h2: Tensor) -> tuple[Tensor, Tensor]:
        """Raw per-expert weights (B, 1) each from attention over the 2 tokens."""
        scale = 1.0 / math.sqrt(self.dim)
        q1, q2 = self.router_q(h1), self.router_q(h2)
        k1, k2 = self.router_k(h1), self.router_k(h2)
        v1, v2 = self.router_v(h1), self.router_v(h2)
        s11 = (q1 * k1).sum(axis=1, keepdims=True) * scale
        s12 = (q1 * k2).sum(axis=1, keepdims=True) * scale
        s21 = (q2 * k1).sum(axis=1, keepdims=True) * scale
        s22 = (q2 * k2).sum(axis=1, keepdims=True) * scale
        p11, p12 = _softmax_pair(s11, s12)
        p21, p22 = _softmax_pair(s21, s22)
        a1 = p11 * v1 + p12 * v2
        a2 = p21 * v1 + p22 * v2
        return self.router_score(a1), self.router_score(a2)

    def __call__(self, e1: Tensor, e2: Tensor,
                 router_override: np.ndarray | None = None
                 ) -> tuple[Tensor, np.ndarray]:
        """Fuse embedding batches (B, d) into predictions (B, 1).

        `router_override` replaces the learned weights with fixed values
        (shape (2,) or (B, 2)), e.g. one-hot vectors to isolate one expert.
        Returns (prediction, per-sample weight pairs as a (B, 2) array).
        """
        h1 = self.expert1(e1)
        h2 = self.expert2(e2)
        if router_override is not None:
            w = np.broadcast_to(
                np.asarray(router_override, dtype=np.float64),
                (h1.shape[0], 2))
            w1, w2 = Tensor(w[:, :1]), Tensor(w[:, 1:])
        else:
            w1, w2 = self.route(h1, h2)
        fused = w1 * h1 + w2 * h2
        pred = self.f_o(fused)
        scores = np.column_stack([w1.data.ravel(), w2.data.ravel()])
        return pred, scores


class ConcatHead(MLP2):
    """Fusion-off baseline: an `MLP2` over both embeddings side by side
    (its first layer takes them as two blocks, never concatenated)."""

    def __init__(self, store: ParamStore, name: str, dim: int):
        super().__init__(store, name, 2 * dim, dim, 1)

    def __call__(self, e1: Tensor, e2: Tensor,
                 router_override: np.ndarray | None = None
                 ) -> tuple[Tensor, np.ndarray]:
        """Predictions (B, 1) and nan scores; there is no router to override."""
        if router_override is not None:
            raise ValueError("the concat head has no router to override")
        pred = super().__call__([e1, e2])
        scores = np.full((e1.shape[0], 2), np.nan)
        return pred, scores


def report_contributions(task: str, scores: np.ndarray) -> dict:
    """Per-sample and mean router weights as a JSON-ready summary."""
    scores = np.asarray(scores, dtype=np.float64)
    if scores.ndim != 2 or scores.shape[1] != 2:
        raise ValueError(f"expected (B, 2) score pairs, got shape {scores.shape}")
    return {
        "task": task,
        "scores": [[float(a), float(b)] for a, b in scores],
        "mean": [float(scores[:, 0].mean()), float(scores[:, 1].mean())],
    }
