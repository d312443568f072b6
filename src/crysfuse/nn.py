"""Neural-net building blocks on top of the autodiff tensors.

Parameters live in a `ParamStore` keyed by dotted path names. Initialization
draws from a per-parameter named random stream, so a parameter's initial
values depend only on (seed, name) — adding or removing other layers never
reshuffles them.
"""

from __future__ import annotations

import math

import numpy as np

from .rng import stream
from .tensor import Tensor, default_dtype, segment_sum


class ParamStore:
    """Name -> tensor registry for trainable parameters and fixed buffers."""

    def __init__(self, seed: int):
        self.seed = seed
        self.params: dict[str, Tensor] = {}
        self.buffers: dict[str, np.ndarray] = {}

    def add_param(self, name: str, data: np.ndarray) -> Tensor:
        if name in self.params:
            raise ValueError(f"duplicate parameter name {name!r}")
        t = Tensor(np.asarray(data, dtype=default_dtype()), requires_grad=True)
        self.params[name] = t
        return t

    def uniform_param(self, name: str, shape: tuple, bound: float) -> Tensor:
        g = stream(self.seed, "init/" + name)
        return self.add_param(name, g.uniform(-bound, bound, shape))

    def add_buffer(self, name: str, data: np.ndarray) -> np.ndarray:
        if name in self.buffers:
            raise ValueError(f"duplicate buffer name {name!r}")
        arr = np.array(data, dtype=default_dtype())
        self.buffers[name] = arr
        return arr

    def zero_grad(self):
        for p in self.params.values():
            p.grad = None


class Linear:
    """x @ W + b with fan-in scaled uniform init."""

    def __init__(self, store: ParamStore, name: str, fan_in: int, fan_out: int,
                 bias: bool = True):
        bound = 1.0 / math.sqrt(fan_in)
        self.weight = store.uniform_param(name + ".weight", (fan_in, fan_out), bound)
        self.bias = (store.uniform_param(name + ".bias", (fan_out,), bound)
                     if bias else None)

    def __call__(self, x: Tensor) -> Tensor:
        out = x @ self.weight
        if self.bias is not None:
            out = out + self.bias
        return out


class MLP2:
    """Two linear layers with a softplus between them."""

    def __init__(self, store: ParamStore, name: str, fan_in: int, hidden: int,
                 fan_out: int):
        self.lin1 = Linear(store, name + ".lin1", fan_in, hidden)
        self.lin2 = Linear(store, name + ".lin2", hidden, fan_out)

    def __call__(self, x: Tensor) -> Tensor:
        return self.lin2(self.lin1(x).softplus())


class BatchNorm:
    """Normalize each feature over the rows of the current batch.

    Training mode standardizes with the batch's own (biased) statistics and
    folds them into the running estimates; eval mode is the fixed affine map
    built from those estimates.
    """

    def __init__(self, store: ParamStore, name: str, dim: int,
                 momentum: float = 0.1, eps: float = 1e-5):
        self.gamma = store.add_param(name + ".gamma", np.ones(dim))
        self.beta = store.add_param(name + ".beta", np.zeros(dim))
        self.running_mean = store.add_buffer(name + ".running_mean", np.zeros(dim))
        self.running_var = store.add_buffer(name + ".running_var", np.ones(dim))
        self.momentum = momentum
        self.eps = eps

    def __call__(self, x: Tensor, training: bool) -> Tensor:
        if training:
            mu = x.mean(axis=0)
            centered = x - mu
            var = (centered * centered).mean(axis=0)
            out = centered / ((var + self.eps) ** 0.5) * self.gamma + self.beta
            m = self.momentum
            self.running_mean *= 1.0 - m
            self.running_mean += m * mu.data
            self.running_var *= 1.0 - m
            self.running_var += m * var.data
            return out
        scale = 1.0 / np.sqrt(self.running_var + self.eps)
        return (x - Tensor(self.running_mean)) * Tensor(scale) * self.gamma + self.beta


class LayerNorm:
    """Normalize each row over its features."""

    def __init__(self, store: ParamStore, name: str, dim: int, eps: float = 1e-5):
        self.gamma = store.add_param(name + ".gamma", np.ones(dim))
        self.beta = store.add_param(name + ".beta", np.zeros(dim))
        self.eps = eps

    def __call__(self, x: Tensor) -> Tensor:
        mu = x.mean(axis=-1, keepdims=True)
        centered = x - mu
        var = (centered * centered).mean(axis=-1, keepdims=True)
        return centered / ((var + self.eps) ** 0.5) * self.gamma + self.beta


def mean_pool(h: Tensor, node_graph: np.ndarray) -> Tensor:
    """Mean of each structure's node rows, (N, d) -> (B, d).

    `node_graph` holds each row's structure index; every structure has at
    least one row. Summing in row order and then dividing (not multiplying
    by a reciprocal) gives, for a single structure, the same bits as
    ``h.mean(axis=0, keepdims=True)``.
    """
    counts = np.bincount(node_graph)
    return segment_sum(h, node_graph, len(counts)) / Tensor(counts[:, None])


class ProjectionHead:
    """Residual refinement z + LNorm(W2 (W1 z + b1 + b2)).

    The two additive biases are kept separate and the second matmul carries
    none of its own.
    """

    def __init__(self, store: ParamStore, name: str, dim: int):
        self.lin1 = Linear(store, name + ".lin1", dim, dim, bias=True)
        self.bias2 = store.uniform_param(name + ".bias2", (dim,), 1.0 / math.sqrt(dim))
        self.lin2 = Linear(store, name + ".lin2", dim, dim, bias=False)
        self.norm = LayerNorm(store, name + ".norm", dim)

    def __call__(self, z: Tensor) -> Tensor:
        return z + self.norm(self.lin2(self.lin1(z) + self.bias2))
