"""Neural-net building blocks on top of the autodiff tensors.

Parameters live in a `ParamStore` keyed by dotted path names. Initialization
draws from a per-parameter named random stream, so a parameter's initial
values depend only on (seed, name) — adding or removing other layers never
reshuffles them.
"""

from __future__ import annotations

import math

import numpy as np

from . import parallel
from .rng import stream
from .tensor import (Tensor, _segment_rows, _softplus, _softplus_vjp,
                     _weight_grad, default_dtype, segment_sum)


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

    def _owned(self, prefixes: tuple[str, ...]) -> tuple[dict, dict]:
        return ({n: p.data for n, p in self.params.items()
                 if n.startswith(prefixes)},
                {n: b for n, b in self.buffers.items() if n.startswith(prefixes)})

    def state(self, prefixes: tuple[str, ...] = ("",)) -> tuple[dict, dict]:
        """(params, buffers): name -> copy of the value, for every name that
        starts with one of `prefixes`."""
        return tuple({n: a.copy() for n, a in owned.items()}
                     for owned in self._owned(prefixes))

    def load(self, params: dict, buffers: dict,
             prefixes: tuple[str, ...] = ("",)) -> None:
        """Replace the values `state(prefixes)` returns, all or nothing: a
        ValueError names any missing, unknown or misshapen entry before
        anything is written. Parameters take a copy at their own dtype;
        buffers are written in place, because layers alias them."""
        problems = []
        for kind, given, own in zip(("parameters", "buffers"),
                                    (params, buffers), self._owned(prefixes)):
            for word, names in (("missing", own.keys() - given.keys()),
                                ("unknown", given.keys() - own.keys())):
                if names:
                    problems.append(f"{len(names)} {word} {kind} {sorted(names)[:5]}")
            problems += [f"shape mismatch for {n!r}: given {np.shape(given[n])},"
                         f" model {own[n].shape}"
                         for n in sorted(own.keys() & given.keys())
                         if np.shape(given[n]) != own[n].shape]
        if problems:
            raise ValueError("; ".join(problems))
        for n, a in params.items():
            self.params[n].data = np.array(a, dtype=self.params[n].data.dtype)
        for n, a in buffers.items():
            self.buffers[n][...] = a


def _blocks(x) -> list[tuple]:
    """A layer input, of tensors or of arrays, as `(x, rows, pre)` blocks,
    with None for what a block leaves out (see `Linear`)."""
    return [b + (None,) * (3 - len(b)) if isinstance(b, tuple)
            else (b, None, None) for b in (x if isinstance(x, list) else [x])]


def _parents(blocks) -> tuple[Tensor, ...]:
    """The blocks' tensors and the parameters of the maps they go through."""
    return (tuple(t for t, _, _ in blocks)
            + tuple(p for _, _, pre in blocks if pre is not None
                    for p in pre.params))


def _gather_index(rows: np.ndarray, n: int) -> np.ndarray:
    """The rows of a gathered block that n output rows read: `rows`, or,
    where it has one entry per k output rows, row k·rows[i] + j for output
    row k·i + j."""
    if len(rows) == n:
        return rows
    k = n // len(rows)
    return (k * rows[:, None] + np.arange(k)).ravel()


def _gather_grad(g: np.ndarray, rows: np.ndarray, n: int) -> np.ndarray:
    """The gradient on a gathered block's n rows from the gradient `g` of
    the rows it was gathered to (`_gather_index`): with k output rows per
    entry of `rows`, a sum over (len(rows), k·width) rows by `rows`."""
    if len(rows) == len(g):
        return _segment_rows(g, rows, n)
    k = len(g) // len(rows)
    return _segment_rows(g.reshape(len(rows), -1), rows, n // k).reshape(n, -1)


def _dtype(weight: Tensor, blocks) -> np.dtype:
    """The dtype of a map's output: its weight's and its array blocks'."""
    return np.result_type(weight.data, *(x for x, _, _ in _blocks(blocks)))


def _accumulate(blocks, grads):
    for (t, _, _), gt in zip(blocks, grads):
        if gt is not None:
            t.accumulate_grad(gt)


# A matrix product split by rows keeps its bits only where OpenBLAS computes
# each part with the kernel it uses for the whole. Over every split tried
# (numpy 2.4.6 with scipy-openblas 0.3.31 on AVX-512, one BLAS thread,
# parts of 2 rows or more, aligned or not) that held where the output width
# is a multiple of 16, and failed for some part sizes at widths such as 8,
# 12, 17, 40 and 100, so products of other widths run in one call. An
# attention chain (`se3.gated_sum`) cuts its φ products by its tiles at any
# width: tiles depend on the rows alone, so the bits do not depend on the
# number of parts.
_SPLIT_WIDTH = 16


def _run_rows(body, n: int, *widths: int):
    """`parallel.run(body, n)` for a body of products with these output
    widths: in one call unless every width is a multiple of 16."""
    if all(w % _SPLIT_WIDTH == 0 for w in widths):
        parallel.run(body, n)
    else:
        body(0, n)


def _product(x: np.ndarray, w: np.ndarray) -> np.ndarray:
    """x @ w, split by rows where `_run_rows` allows."""
    out = np.empty((len(x), w.shape[1]), dtype=np.result_type(x, w))

    def body(lo, hi):
        np.matmul(x[lo:hi], w, out=out[lo:hi])

    _run_rows(body, len(x), w.shape[1])
    return out


class Linear:
    """x @ W + b with fan-in scaled uniform init, as one tape node.

    `x` may be a list of row-aligned blocks [x_1, ..., x_n] whose widths sum
    to fan_in. The result is then Σ x_i @ W[cols_i] + b, the map of their
    column concatenation, without building the concatenation. A block may
    also be a tuple `(x_i, rows)` or `(x_i, rows, pre)`:

    - `rows` stands for `x_i.take(rows)`: the block's product is taken on
      x_i's own rows and then gathered, `(x_i @ W[cols_i])[rows]`, and
      backward sums the gradient onto x_i's rows before its matmuls. So a
      block gathered from N node rows onto E edges costs N-row matmuls, and
      the tape keeps x_i rather than its gather. None is no gather. `rows`
      may also hold one entry per k output rows: output row k·i + j then
      reads row k·rows[i] + j of x_i, and backward sums the gradient's
      (len(rows), k·fan_out) view by `rows`, a sorted sum if `rows` is
      sorted. So per-structure rows of k channels gather onto a stack of
      k channels per bond by the bonds' structure ids.
    - `pre`, a `Linear` with no nonlinearity after it, stands for
      `pre(x_i)`: the two maps are composed per call, C = W_pre @ W[cols_i]
      (a fan_in × fan_out product) and b_pre @ W[cols_i] joins the bias,
      so the rows take one product x_i @ C instead of two, and the tape
      keeps x_i rather than pre's output. Backward forms dC = x_i.T @ g and
      hands it to both factors: W_pre's gradient is dC @ W[cols_i].T and
      W[cols_i]'s is W_pre.T @ dC (plus b_pre ⊗ Σ g). Both stay parameters
      of their own, so outputs move from the uncomposed maps' by rounding
      only, and checkpoints do not change.

    `forward` and `vjp` are the node's array-level bodies; fused nodes such
    as `MLP2` call them. `row_kernel` is the map as a row-range body that
    writes into a buffer its caller gives, which `MLP2` and the attention
    chains (`se3.gated_sum`) fill a tile at a time.
    """

    def __init__(self, store: ParamStore, name: str, fan_in: int, fan_out: int,
                 bias: bool = True):
        bound = 1.0 / math.sqrt(fan_in)
        self.weight = store.uniform_param(name + ".weight", (fan_in, fan_out), bound)
        self.bias = (store.uniform_param(name + ".bias", (fan_out,), bound)
                     if bias else None)
        self.params = (self.weight,) if self.bias is None else (self.weight,
                                                                 self.bias)
        self._col_cache: dict[tuple[int, ...], list[slice]] = {}

    def __call__(self, x: Tensor | list[Tensor | tuple]) -> Tensor:
        blocks = _blocks(x)
        arrays = [(t.data, rows, pre) for t, rows, pre in blocks]

        def back(g):
            _accumulate(blocks, self.vjp(
                g, arrays, [t.needs_grad() for t, _, _ in blocks]))

        return Tensor._result(self.forward(arrays),
                              _parents(blocks) + self.params, back)

    def _weights(self, blocks) -> tuple[list[slice], list[np.ndarray],
                                        np.ndarray | None]:
        """Each block's rows of the weight (cached per tuple of widths), the
        weight its rows are multiplied by, and the bias of the whole map,
        mapped blocks' terms included."""
        widths = tuple((x if pre is None else pre.weight.data).shape[1]
                       for x, _, pre in blocks)
        cols = self._col_cache.get(widths)
        if cols is None:
            bounds = np.cumsum((0,) + widths)
            if bounds[-1] != self.weight.data.shape[0]:
                raise ValueError(f"input width {bounds[-1]} != fan_in "
                                 f"{self.weight.data.shape[0]}")
            cols = [slice(lo, hi) for lo, hi in zip(bounds[:-1], bounds[1:])]
            self._col_cache[widths] = cols
        w = self.weight.data
        b = None if self.bias is None else self.bias.data
        weights = []
        for (_, _, pre), c in zip(blocks, cols):
            if pre is None:
                weights.append(w[c])
                continue
            weights.append(pre.weight.data @ w[c])
            if pre.bias is not None:
                term = pre.bias.data @ w[c]
                b = term if b is None else b + term
        return cols, weights, b

    def forward(self, blocks: list[tuple]) -> np.ndarray:
        """The map of array blocks `(x_i, rows[, pre])`."""
        n, body = self.row_kernel(blocks)
        out = np.empty((n, self.weight.data.shape[1]),
                       dtype=_dtype(self.weight, blocks))
        _run_rows(lambda lo, hi: body(lo, hi, out[lo:hi]), n, out.shape[1])
        return out

    def row_kernel(self, blocks: list[tuple]):
        """(n, body): the map's row count, and the body that writes its rows
        [lo, hi) into `out`, an array of hi - lo rows: `out[lo:hi]` of a
        whole output, or a tile's scratch (`se3.gated_sum`). A gathered
        block's product is taken here, on the block's own rows; the body
        gathers it."""
        blocks = _blocks(blocks)
        _, weights, b = self._weights(blocks)
        x0, rows0, _ = blocks[0]
        n = len(x0 if rows0 is None else rows0)
        own = [None if rows is None
               else (_product(x, wb), _gather_index(rows, n))
               for (x, rows, _), wb in zip(blocks, weights)]

        def body(lo, hi, o):
            # the first product is written into the output and the others
            # are added to it (a gather takes a fresh array: np.take into a
            # given buffer copies through a temporary when it checks bounds)
            acc = None
            for (x, rows, _), wb, p in zip(blocks, weights, own):
                if rows is None:
                    prod = np.matmul(x[lo:hi], wb,
                                     out=o if acc is None else None)
                else:
                    prod = p[0].take(p[1][lo:hi], axis=0)
                acc = prod if acc is None else np.add(acc, prod, out=o)
            if b is not None:
                np.add(acc, b, out=o)
            elif acc is not o:
                o[...] = acc

        return n, body

    def vjp(self, g: np.ndarray, blocks: list[tuple], need: list[bool]
            ) -> list[np.ndarray | None]:
        """Add the weight's and bias's gradients, and those of mapped
        blocks' maps, for the output gradient `g`, and return each block's
        gradient, None where `need` is False. Weight gradients are summed
        over fixed row blocks (`_weight_grad`)."""
        blocks = _blocks(blocks)
        cols, weights, _ = self._weights(blocks)
        w = self.weight.data
        gw = np.empty_like(w)
        gb = g.sum(axis=0)
        grads = []
        for (x, rows, pre), c, wb, wanted in zip(blocks, cols, weights, need):
            gx = g if rows is None else _gather_grad(g, rows, len(x))
            if pre is None:
                _weight_grad(x, gx, out=gw[c])
            else:
                gc = _weight_grad(x, gx)  # the composed weight's gradient
                pre.weight._add_grad(gc @ w[c].T)
                np.matmul(pre.weight.data.T, gc, out=gw[c])
                if pre.bias is not None:
                    pre.bias._add_grad(gb @ w[c].T)
                    gw[c] += np.outer(pre.bias.data, gb)
            grads.append(_product(gx, wb.T) if wanted else None)
        self.weight._add_grad(gw)
        if self.bias is not None:
            self.bias._add_grad(gb)
        return grads


class MLP2:
    """lin2(softplus(lin1(x))) as one tape node; `x` may be a list of
    blocks, gathered and mapped ones included, as for `Linear`. A block
    mapped by `pre` runs one product with the composed weight, so the
    node computes lin2(softplus(lin1([..., pre(x_i), ...]))) and keeps x_i,
    not pre's output.

    The node keeps only the hidden activation y = softplus(lin1(x)): lin2's
    weight gradient reads y, and softplus's derivative is taken from y
    (`_softplus_vjp`), so the softplus overwrites the pre-activation in
    place and no backward needs it; backward then overwrites y with lin1's
    output gradient. Outputs and gradients are bitwise those of the
    composition `lin2(lin1(x).softplus())`.

    `row_kernel` is the forward as a row-range body, and `node` the tape
    node over arrays that body filled: `__call__` runs both, and the
    attention chain (`se3.gated_sum`) runs the body tile by tile itself.
    In training the chain's φ nodes keep no output either, only y: the
    chain recomputes its keys and values from y in backward (`output`),
    and the nodes' backward is the one `__call__`'s nodes run.
    """

    def __init__(self, store: ParamStore, name: str, fan_in: int, hidden: int,
                 fan_out: int):
        self.lin1 = Linear(store, name + ".lin1", fan_in, hidden)
        self.lin2 = Linear(store, name + ".lin2", hidden, fan_out)

    def __call__(self, x: Tensor | list) -> Tensor:
        blocks = _blocks(x)
        arrays = [(t.data, rows, pre) for t, rows, pre in blocks]
        n, body = self.row_kernel(arrays)
        dtype = _dtype(self.lin1.weight, arrays)
        y = np.empty((n, self.lin1.weight.data.shape[1]), dtype=dtype)
        out = np.empty((n, self.lin2.weight.data.shape[1]), dtype=dtype)
        _run_rows(lambda lo, hi: body(lo, hi, y[lo:hi], out[lo:hi]), n,
                  y.shape[1], out.shape[1])
        return self.node(blocks, y, out)

    def row_kernel(self, blocks: list[tuple]):
        """(n, body) for array blocks: `body(lo, hi, y, out)` writes rows
        [lo, hi) of the hidden activation into `y` and of the output into
        `out`, each an array of hi - lo rows, and returns `out`."""
        n, first = self.lin1.row_kernel(blocks)

        def body(lo, hi, y, out):
            first(lo, hi, y)
            _softplus(y, out=y)
            return self.output(y, out)

        return n, body

    def output(self, y: np.ndarray, out: np.ndarray) -> np.ndarray:
        """lin2 of the hidden rows `y`, written into `out`: the last step of
        `row_kernel`'s body. The attention chain's backward calls it again
        on the forward's tiles, so its keys and values come out bit for
        bit as the forward's."""
        np.matmul(y, self.lin2.weight.data, out=out)
        out += self.lin2.bias.data
        return out

    def node(self, x: Tensor | list, y: np.ndarray,
             out: np.ndarray | None = None) -> Tensor:
        """The tape node of the map of `x`, whose hidden activation `y` and
        output `out` `row_kernel`'s body has written. Without `out` the
        node keeps no output: its consumer, an attention chain, recomputes
        it from `y` (`output`), and the node's data is a read-only view of
        one nan in the output's shape."""
        if out is None:
            out = np.broadcast_to(np.array(np.nan, y.dtype),
                                  (len(y), self.lin2.weight.data.shape[1]))
        blocks = _blocks(x)
        arrays = [(t.data, rows, pre) for t, rows, pre in blocks]

        def back(g):
            (gy,) = self.lin2.vjp(g, [(y, None)], [True])
            parallel.run(lambda lo, hi: _softplus_vjp(y[lo:hi], gy[lo:hi],
                                                      out=y[lo:hi]), len(y))
            _accumulate(blocks, self.lin1.vjp(
                y, arrays, [t.needs_grad() for t, _, _ in blocks]))

        return Tensor._result(out, _parents(blocks) + self.lin1.params
                              + self.lin2.params, back)


class BatchNorm:
    """Normalize each feature over the rows of each group.

    `groups` gives each row's group, the structure it belongs to in a pack:
    ids 0..G-1 in sorted order, each with at least one row, so every group
    is a contiguous block of rows. Training mode standardizes each group
    with its own (biased) statistics, so no group sees another's rows, and
    folds them into the running estimates one group at a time, as G
    single-group batches in order would; its backward is the closed form of
    Ioffe & Szegedy (2015). Eval mode is the fixed affine map built from the
    running estimates and ignores `groups`. Either way the layer is one tape
    node that keeps the standardized rows xhat and the per-group statistics.

    `weight`, if given, counts how many rows each row stands for: a bond
    row stands for its one or two directed edges. Training statistics then
    count row r `weight[r]` times, so they equal those of the expanded
    rows. The backward is that of the expanded rows summed back onto each
    row: with `d` the row gradient (already summed over its copies) times
    gamma, `sum_d` and `xhat * sum_dx` are scaled by the weight, and
    gamma's and beta's gradients keep their form.

    `Standardized` and `affine` are the node's array-level bodies; the
    attention chains of `se3.py` use them too.
    """

    def __init__(self, store: ParamStore, name: str, dim: int,
                 momentum: float = 0.1, eps: float = 1e-5):
        self.gamma = store.add_param(name + ".gamma", np.ones(dim))
        self.beta = store.add_param(name + ".beta", np.zeros(dim))
        self.running_mean = store.add_buffer(name + ".running_mean", np.zeros(dim))
        self.running_var = store.add_buffer(name + ".running_var", np.ones(dim))
        self.momentum = momentum
        self.eps = eps

    def __call__(self, x: Tensor, groups: np.ndarray, training: bool,
                 weight: np.ndarray | None = None) -> Tensor:
        s = Standardized(self, x.data, groups, training, weight)
        out = np.empty_like(s.xhat)

        def body(lo, hi):
            s.rows(lo, hi)
            self.affine(s.xhat[lo:hi], out=out[lo:hi])

        parallel.run(body, len(out), s.cuts, out.size)
        s.fold()

        def back(g):
            self.gamma._add_grad((g * s.xhat).sum(axis=0))
            self.beta._add_grad(g.sum(axis=0))
            gx = np.empty_like(g)

            def body(lo, hi):
                np.multiply(g[lo:hi], self.gamma.data, out=gx[lo:hi])
                s.to_x(gx, lo, hi)

            parallel.run(body, len(gx), s.cuts, gx.size)
            x._add_grad(gx)

        return Tensor._result(out, (x, self.gamma, self.beta), back)

    def affine(self, xhat: np.ndarray, out: np.ndarray | None = None
               ) -> np.ndarray:
        out = np.multiply(xhat, self.gamma.data, out=out)
        out += self.beta.data
        return out


class Standardized:
    """A batch norm's standardized rows xhat of an (n, d) array x, computed
    and differentiated a range of rows at a time (`parallel.run` bodies).

    Eval mode maps each row on its own. In training a range must hold whole
    groups (`cuts`): `standardize` writes its groups' statistics into
    shared (G, d) arrays, and `fold`, called once after every range is
    done, folds them into the running estimates in group order. `rows`
    standardizes rows of `x` into `xhat`; `x` may be None where every range
    comes through `standardize` instead, and `out` may be `x` itself, which
    then holds xhat. Backward (`to_x`) reads xhat.
    """

    def __init__(self, bn: BatchNorm, x: np.ndarray | None,
                 groups: np.ndarray | None, training: bool,
                 weight: np.ndarray | None = None,
                 out: np.ndarray | None = None):
        self.bn, self.x, self.training = bn, x, training
        self.xhat = np.empty_like(x) if out is None and x is not None else out
        if not training:
            self.cuts = None
            self.scale = 1.0 / np.sqrt(bn.running_var + bn.eps)
            return
        dtype = (bn.gamma.data if x is None else x).dtype
        self.cuts = groups  # where a range may start
        self.w = None if weight is None else weight[:, None].astype(dtype)
        self.counts = np.bincount(groups, weights=weight)[:, None].astype(dtype)
        starts = np.flatnonzero(np.diff(groups, prepend=-1))
        self.runs = list(zip(starts.tolist(), starts[1:].tolist() + [len(groups)]))
        self.mu = np.empty((len(starts), bn.gamma.data.shape[0]), dtype=dtype)
        self.var = np.empty_like(self.mu)
        self.std = np.empty_like(self.mu)

    def _groups(self, lo: int, hi: int):
        """(group, first row, end row) of the groups in rows [lo, hi)."""
        first, last = self.cuts[lo], self.cuts[hi - 1]
        for g in range(first, last + 1):
            yield (g, *self.runs[g])

    def _weighted(self, a: np.ndarray, lo: int, hi: int) -> np.ndarray:
        return a if self.w is None else a * self.w[lo:hi]

    def rows(self, lo: int, hi: int):
        """Standardize rows [lo, hi) of x into xhat."""
        self.standardize(self.x[lo:hi], self.xhat[lo:hi], lo, hi)

    def standardize(self, x: np.ndarray, out: np.ndarray, lo: int, hi: int):
        """Standardize rows [lo, hi), held in `x`, into `out` (which may be
        `x`): by the running estimates in eval, else each group by its own
        statistics."""
        if not self.training:
            np.subtract(x, self.bn.running_mean, out=out)
            out *= self.scale
            return
        for g, a, b in self._groups(lo, hi):
            xg, xh, count = x[a - lo:b - lo], out[a - lo:b - lo], self.counts[g]
            np.add.reduce(self._weighted(xg, a, b), axis=0, out=self.mu[g])
            self.mu[g] /= count
            np.subtract(xg, self.mu[g], out=xh)
            np.add.reduce(self._weighted(xh * xh, a, b), axis=0,
                          out=self.var[g])
            self.var[g] /= count
            np.sqrt(self.var[g] + self.bn.eps, out=self.std[g])
            xh /= self.std[g]

    def fold(self):
        """Fold training statistics into the running estimates, one group
        at a time in order."""
        if not self.training:
            return
        bn, m = self.bn, self.bn.momentum
        for mu_g, var_g in zip(self.mu, self.var):
            bn.running_mean[:] = bn.running_mean * (1.0 - m) + m * mu_g
            bn.running_var[:] = bn.running_var * (1.0 - m) + m * var_g

    def to_x(self, d: np.ndarray, lo: int, hi: int):
        """Overwrite rows [lo, hi) of `d`, a gradient of xhat, with the
        gradient of x."""
        if not self.training:
            d[lo:hi] *= self.scale
            return
        for g, a, b in self._groups(lo, hi):
            dg, xh, count = d[a:b], self.xhat[a:b], self.counts[g]
            sum_d = np.add.reduce(dg, axis=0)
            sum_dx = np.add.reduce(dg * xh, axis=0)
            scale = 1.0 / (count * self.std[g])
            dg *= count
            dg -= self._weighted(sum_d, a, b)
            dg -= self._weighted(xh * sum_dx, a, b)
            dg *= scale


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
    least one row.
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
