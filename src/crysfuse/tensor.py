"""Dense real tensors with reverse-mode automatic differentiation.

Small numpy-backed engine in the classic tape style: every operation returns
a new Tensor whose ``_backward`` closure scatters the output gradient into its
inputs. ``backward()`` on a scalar topologically sorts the graph and runs the
closures in reverse; gradients accumulate additively into the leaves' ``.grad``
until explicitly cleared, so a sum of several losses backpropagates as one
scalar. Backward consumes the graph and frees it as it goes: once a node's
closure has run, the node drops its gradient, closure and parents, so each
intermediate is freed as soon as its last consumer has back-propagated. A
second ``backward()`` through a consumed graph raises ``RuntimeError``.
A constant operand, one that neither requires a gradient nor was computed
from one that does, gets no gradient: a binary op's closure forms only the
live operands' gradients (`Tensor.needs_grad`), so `x * Tensor(c)` costs
one product in backward, not two and a reduction.

Precision is a process-wide switch (`set_default_dtype`): double for the
verification suite, single for training throughput. `model.MGTModel` sets it
to its `cfg.precision` when it creates its parameters and on entry to every
`encode` and denoising head, so each model's forward runs at its own.
Inside `no_grad()` no tape is recorded: results keep their values but no
parents or closures, so the intermediates of an inference pass are freed as
soon as they are used.
"""

from __future__ import annotations

from contextlib import contextmanager

import numpy as np

from . import parallel

_DEFAULT_DTYPE = np.float64
_GRAD_ENABLED = True


def set_default_dtype(name: str):
    """Select the dtype newly created tensors use: "f64" or "f32"."""
    global _DEFAULT_DTYPE
    table = {"f64": np.float64, "f32": np.float32}
    if name not in table:
        raise ValueError(f"unknown precision {name!r}, expected one of {sorted(table)}")
    _DEFAULT_DTYPE = table[name]


def default_dtype():
    return _DEFAULT_DTYPE


@contextmanager
def no_grad():
    """Record no autodiff tape inside the block; the previous mode is
    restored on exit, also when the block raises."""
    global _GRAD_ENABLED
    previous = _GRAD_ENABLED
    _GRAD_ENABLED = False
    try:
        yield
    finally:
        _GRAD_ENABLED = previous


def recording(parents) -> bool:
    """Whether an op over `parents` records a tape node (`Tensor._result`):
    outside `no_grad`, with a parent that needs a gradient."""
    return _GRAD_ENABLED and any(p.requires_grad or p._prev for p in parents)


def _stable_sigmoid(x: np.ndarray, out: np.ndarray | None = None
                    ) -> np.ndarray:
    """e^min(x, 0) / (1 + e^-|x|): never exponentiates a positive number,
    so it stays finite at any x, and picks nothing per element (a select on
    mixed signs costs more than the arithmetic). `fmin` maps nan to 0, so a
    nan reaches the result through the denominator, with the sign that
    e^-|x| gives it. `out` may be `x` itself, which then holds the result
    in place. -|x| is one `copysign` pass."""
    den = np.copysign(x, -1.0)
    np.exp(den, out=den)
    den += 1.0
    out = np.fmin(x, 0.0, out=out)
    np.exp(out, out=out)
    out /= den
    return out


def _softplus(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """log(1 + e^x) = max(x, 0) + log1p(e^-|x|), in one scratch buffer.
    `out` may be `x` itself, which then holds the result in place."""
    pos = np.maximum(x, 0.0)
    out = np.copysign(x, -1.0, out=out)
    np.exp(out, out=out)
    np.log1p(out, out=out)
    return np.add(pos, out, out=out)


def _softplus_vjp(y: np.ndarray, g: np.ndarray,
                  out: np.ndarray | None = None) -> np.ndarray:
    """g times softplus's derivative at x, taken from the output
    y = softplus(x): the sigmoid σ(x) = 1 − e^−y, one `expm1` pass over y,
    never a recomputation from x. It is within 2 ulp of
    `_stable_sigmoid(x)` at float64 and 3 at float32, exact where y is 0
    or inf, and nan stays nan. `out` may be `y` itself, not `g`."""
    sig = np.negative(y, out=out)
    np.expm1(sig, out=sig)
    np.negative(sig, out=sig)
    sig *= g
    return sig


def _unbroadcast(g: np.ndarray, shape: tuple) -> np.ndarray:
    """Reduce a gradient back to `shape` after numpy broadcasting."""
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g.reshape(shape)


def _segment_rows(values: np.ndarray, ids: np.ndarray, num_segments: int,
                  split: bool = True) -> np.ndarray:
    """Sum the rows of `values` into `num_segments` buckets by `ids`.

    A stable argsort orders the rows by bucket, keeping their original
    order within one, and buckets no id names stay zero. Ids that are
    already non-decreasing, as a pack's `src` and node graph ids are, skip
    the sort: its permutation would be the identity, and unless `split` is
    False the rows are split by `parallel.run` where the id changes, so
    each bucket is summed within one part. When no bucket has more than
    two rows, as when a bond's one or two directed edges sum onto it, a
    bucket's sum is its first row plus its second: two gathers through the
    sort order and one add, never a permuted copy of `values`. Longer runs
    go to `np.add.reduceat`, which adds a run's first row to the pairwise
    sum of the others, so the last bits can differ from `np.add.at`'s
    running sum; on runs of one or two rows both paths give the same bits.
    Sorted runs all of the same 3 to 8 rows, as a bond's three channels,
    take reduceat's bits by strided adds, without its per-run loop.
    """
    out = np.zeros((num_segments,) + values.shape[1:], dtype=values.dtype)
    if np.any(ids[1:] < ids[:-1]):
        order = np.argsort(ids, kind="stable")
        _sum_sorted(values, ids[order], out, order)
    elif not split:
        _sum_sorted(values, ids, out)
    else:
        parallel.run(lambda lo, hi: _sum_sorted(values[lo:hi], ids[lo:hi], out),
                     len(ids), ids, values.size)
    return out


def _sum_sorted(values: np.ndarray, ids: np.ndarray, out: np.ndarray,
                order: np.ndarray | None = None):
    """Write into out[i] the sum of the rows of `values` (taken through
    `order`, if given) whose sorted id in `ids` is i."""
    starts = np.flatnonzero(np.diff(ids, prepend=-1))
    # a bucket of three or more rows needs fewer buckets than half the rows
    if 2 * len(starts) >= len(ids) > 0:
        second = np.append(starts[1:], len(ids)) - 1
        if np.all(second - starts <= 1):
            lone = np.flatnonzero(second == starts)
            first = starts
            if order is not None:
                first, second = order[first], order[second]
            sums = values[first]
            sums += values[second]
            sums[lone] = values[first[lone]]  # undo adding a lone row to itself
            out[ids[starts]] = sums
            return
    # runs all of k rows, 3 <= k <= 8, as a bond's three channels: the
    # first row plus the others' sum in order, the bits np.add.reduceat
    # gives such runs, without its per-run loop
    k = len(ids) // max(len(starts), 1)
    if (order is None and 3 <= k <= 8 and len(ids) == k * len(starts)
            and np.all(np.diff(starts) == k)):
        rows = values.reshape((-1, k) + values.shape[1:])
        rest = np.add(rows[:, 1], rows[:, 2])
        for j in range(3, k):
            rest += rows[:, j]
        out[ids[starts]] = np.add(rows[:, 0], rest, out=rest)
        return
    if order is not None:
        values = values[order]
    out[ids[starts]] = np.add.reduceat(values, starts, axis=0)


# Rows per block of a weight gradient's reduction (`_weight_grad`).
GRAD_BLOCK_ROWS = 256


def _weight_grad(x: np.ndarray, g: np.ndarray,
                 out: np.ndarray | None = None) -> np.ndarray:
    """x.T @ g, a weight's gradient, as the sum of the products of fixed
    256-row blocks, added in block order. The pool computes the blocks
    (`parallel.run`).

    OpenBLAS may cut a long reduction by its thread count, and the cut
    changes the last bits: with numpy 2.4.6 and scipy-openblas 0.3.31 a
    430-row product differed between one and two threads. A 256-row block's
    product did not, so the sum has the same bits at any BLAS thread count
    and any number of parts.
    """
    n = len(x)
    if n <= GRAD_BLOCK_ROWS:
        return np.matmul(x.T, g, out=out)
    blocks = np.empty((-(-n // GRAD_BLOCK_ROWS), x.shape[1], g.shape[1]),
                      dtype=np.result_type(x, g))

    def body(lo, hi):
        for b in range(lo, hi, GRAD_BLOCK_ROWS):
            e = b + GRAD_BLOCK_ROWS
            np.matmul(x[b:e].T, g[b:e], out=blocks[b // GRAD_BLOCK_ROWS])

    parallel.run(body, n, np.arange(n) // GRAD_BLOCK_ROWS)
    if out is None:
        out = np.empty_like(blocks[0])
    out[...] = blocks[0]
    for block in blocks[1:]:
        out += block
    return out


def _consumed(g):
    raise RuntimeError("backward through a graph that backward already consumed")


def _is_advanced(idx) -> bool:
    items = idx if isinstance(idx, tuple) else (idx,)
    return any(isinstance(it, (list, np.ndarray)) for it in items)


class Tensor:
    __slots__ = ("data", "grad", "requires_grad", "_backward", "_prev")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=_DEFAULT_DTYPE)
        self.grad: np.ndarray | None = None
        self.requires_grad = requires_grad
        self._backward = None
        self._prev: tuple[Tensor, ...] = ()

    # -- bookkeeping ---------------------------------------------------

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    def __len__(self):
        return len(self.data)

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"

    def accumulate_grad(self, g: np.ndarray):
        """Add `g` to this tensor's gradient.

        The first contribution is kept as it is, a view or a broadcast
        included, and later ones make a new sum: no gradient is ever written
        in place, so gradients may share memory with each other.
        """
        self.grad = g if self.grad is None else self.grad + g

    def backward(self):
        if self.data.size != 1:
            raise ValueError(
                f"backward requires a scalar loss, got shape {self.data.shape}")
        topo: list[Tensor] = []
        seen: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                topo.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for parent in node._prev:
                if id(parent) not in seen:
                    stack.append((parent, False))
        self.accumulate_grad(np.ones_like(self.data))
        # Pop so that topo holds no finished node. Each interior node drops
        # its gradient, closure and parents as its closure runs, so what only
        # that closure held is freed when it returns. Leaves keep their
        # gradients.
        while topo:
            node = topo.pop()
            back, grad = node._backward, node.grad
            if back is None:
                continue
            node.grad, node._backward, node._prev = None, _consumed, ()
            back(grad)

    # -- construction of op results -------------------------------------

    @staticmethod
    def _result(data, parents: tuple["Tensor", ...], backward):
        out = Tensor(data)
        if not _GRAD_ENABLED:
            return out
        needing = tuple(p for p in parents if p.requires_grad or p._prev)
        if needing:
            out.requires_grad = True
            out._prev = needing
            out._backward = backward
        return out

    # -- arithmetic ------------------------------------------------------

    def __add__(self, other):
        other = ensure(other)

        def back(g):
            if self.needs_grad():
                self.accumulate_grad(_unbroadcast(g, self.data.shape))
            if other.needs_grad():
                other.accumulate_grad(_unbroadcast(g, other.data.shape))

        return Tensor._result(self.data + other.data, (self, other), back)

    def __mul__(self, other):
        other = ensure(other)

        def back(g):
            if self.needs_grad():
                self.accumulate_grad(_unbroadcast(g * other.data, self.data.shape))
            if other.needs_grad():
                other.accumulate_grad(_unbroadcast(g * self.data, other.data.shape))

        return Tensor._result(self.data * other.data, (self, other), back)

    def __truediv__(self, other):
        other = ensure(other)

        def back(g):
            if self.needs_grad():
                self.accumulate_grad(_unbroadcast(g / other.data, self.data.shape))
            if other.needs_grad():
                other.accumulate_grad(
                    _unbroadcast(-g * self.data / (other.data * other.data),
                                 other.data.shape))

        return Tensor._result(self.data / other.data, (self, other), back)

    def __pow__(self, p):
        if not isinstance(p, (int, float)):
            raise TypeError("exponent must be a python number")

        def back(g):
            self._add_grad(g * p * self.data ** (p - 1))

        return Tensor._result(self.data ** p, (self,), back)

    def __neg__(self):
        def back(g):
            self._add_grad(-g)

        return Tensor._result(-self.data, (self,), back)

    def __sub__(self, other):
        return self + (-ensure(other))

    def __rmul__(self, other):
        return self * other

    def __matmul__(self, other):
        other = ensure(other)
        if self.data.ndim != 2 or other.data.ndim != 2:
            raise ValueError(
                f"matmul expects 2-d operands, got {self.data.shape} @ {other.data.shape}")
        if self.data.shape[1] != other.data.shape[0]:
            raise ValueError(
                f"matmul shape mismatch: {self.data.shape} @ {other.data.shape}")

        def back(g):
            if self.needs_grad():
                self.accumulate_grad(g @ other.data.T)
            if other.needs_grad():
                other.accumulate_grad(_weight_grad(self.data, g))

        return Tensor._result(self.data @ other.data, (self, other), back)

    def needs_grad(self) -> bool:
        """Whether backward must deliver a gradient here: a leaf that asks
        for one, or an op result that leads to such a leaf."""
        return self.requires_grad or bool(self._prev)

    def _add_grad(self, g):
        if self.needs_grad():
            self.accumulate_grad(g)

    # -- shape ops ---------------------------------------------------------

    def reshape(self, *shape):
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        old = self.data.shape

        def back(g):
            self._add_grad(g.reshape(old))

        return Tensor._result(self.data.reshape(shape), (self,), back)

    def transpose(self, axes=None):
        if axes is None:
            axes = tuple(reversed(range(self.data.ndim)))
        inv = np.argsort(axes)

        def back(g):
            self._add_grad(g.transpose(inv))

        return Tensor._result(self.data.transpose(axes), (self,), back)

    @property
    def T(self):
        return self.transpose()

    def __getitem__(self, idx):
        shape = self.data.shape
        advanced = _is_advanced(idx)

        def back(g):
            buf = np.zeros(shape, dtype=g.dtype)
            if advanced:
                np.add.at(buf, idx, g)
            else:
                buf[idx] += g
            self._add_grad(buf)

        return Tensor._result(self.data[idx].copy(), (self,), back)

    def take(self, indices: np.ndarray):
        """Gather rows along axis 0 (embedding/neighbor lookup)."""
        indices = np.asarray(indices)
        num_rows = self.data.shape[0]

        def back(g):
            self._add_grad(_segment_rows(g, indices, num_rows))

        return Tensor._result(self.data[indices], (self,), back)

    # -- reductions ----------------------------------------------------------

    def sum(self, axis=None, keepdims=False):
        shape = self.data.shape

        def back(g):
            gg = g if axis is None or keepdims else np.expand_dims(g, axis)
            self._add_grad(np.broadcast_to(gg, shape))

        return Tensor._result(self.data.sum(axis=axis, keepdims=keepdims), (self,), back)

    def mean(self, axis=None, keepdims=False):
        shape = self.data.shape
        count = self.data.size if axis is None else np.prod(
            [shape[a] for a in (axis if isinstance(axis, tuple) else (axis,))])

        def back(g):
            gg = g if axis is None or keepdims else np.expand_dims(g, axis)
            self._add_grad(np.broadcast_to(gg / count, shape))

        return Tensor._result(self.data.mean(axis=axis, keepdims=keepdims), (self,), back)

    # -- elementwise nonlinearities -------------------------------------------

    def exp(self):
        out_data = np.exp(self.data)

        def back(g):
            self._add_grad(g * out_data)

        return Tensor._result(out_data, (self,), back)

    def log(self):
        def back(g):
            self._add_grad(g / self.data)

        return Tensor._result(np.log(self.data), (self,), back)

    def softplus(self):
        """log(1 + e^x); backward reads only the output (`_softplus_vjp`).
        Both are split by rows (`parallel.run`)."""
        x = np.atleast_1d(self.data)
        out = np.empty_like(x)
        parallel.run(lambda lo, hi: _softplus(x[lo:hi], out=out[lo:hi]), len(x))
        out_data = out.reshape(self.data.shape)

        def back(g):
            g = np.broadcast_to(g, out.shape)
            gx = np.empty_like(out)
            parallel.run(lambda lo, hi: _softplus_vjp(out[lo:hi], g[lo:hi],
                                                      out=gx[lo:hi]), len(gx))
            self._add_grad(gx.reshape(self.data.shape))

        return Tensor._result(out_data, (self,), back)

    def sigmoid(self):
        out_data = _stable_sigmoid(self.data)

        def back(g):
            self._add_grad(g * out_data * (1.0 - out_data))

        return Tensor._result(out_data, (self,), back)


def ensure(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def concat(parts: list[Tensor], axis: int = 0) -> Tensor:
    parts = [ensure(p) for p in parts]
    sizes = [p.data.shape[axis] for p in parts]
    splits = np.cumsum(sizes)[:-1]

    def back(g):
        for p, piece in zip(parts, np.split(g, splits, axis=axis)):
            p._add_grad(piece)

    return Tensor._result(
        np.concatenate([p.data for p in parts], axis=axis), tuple(parts), back)


def segment_sum(values: Tensor, segment_ids: np.ndarray, num_segments: int) -> Tensor:
    """Sum rows of `values` into `num_segments` buckets given by `segment_ids`."""
    values = ensure(values)
    segment_ids = np.asarray(segment_ids)
    if len(segment_ids) != values.data.shape[0]:
        raise ValueError(
            f"segment_ids length {len(segment_ids)} != leading dim {values.data.shape[0]}")

    def back(g):
        values._add_grad(g[segment_ids])

    return Tensor._result(_segment_rows(values.data, segment_ids, num_segments),
                          (values,), back)

