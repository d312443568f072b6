"""Autodiff substrate checks: every op's analytic gradient is audited
against central finite differences on random inputs."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import crysfuse.tensor as tensor_mod
from crysfuse.featurize import RBF_CUT, rbf_expand, uniform_rbf
from crysfuse.harmonics import spherical_harmonics
from crysfuse.model import Pack
from crysfuse.nn import MLP2, ParamStore
from crysfuse.rng import stream
from crysfuse.se3 import SE3EdgeLayer, SE3NodeLayer, gated_sum
from crysfuse.so3 import TensorProductLayer
from crysfuse.tensor import (Tensor, _segment_rows, _softplus, _stable_sigmoid,
                             _weight_grad, concat, no_grad, segment_sum,
                             set_default_dtype)

H = 1e-6


def fd_grad(fn, x, h=H):
    """Central-difference gradient of a scalar-valued fn at x, elementwise."""
    g = np.zeros_like(x)
    flat = g.ravel()
    xf = x.ravel()
    for i in range(x.size):
        orig = xf[i]
        xf[i] = orig + h
        up = fn(x)
        xf[i] = orig - h
        down = fn(x)
        xf[i] = orig
        flat[i] = (up - down) / (2 * h)
    return g


def check_op(build, shape, seed_name, rel_tol=1e-6, positive=False):
    """Compare backward() against finite differences for loss = sum(op(x))."""
    gen = stream(11, seed_name)
    x = gen.uniform(0.2 if positive else -2.0, 2.0, shape)

    def loss_np(arr):
        t = Tensor(arr.copy(), requires_grad=True)
        return float(build(t).sum().data)

    t = Tensor(x.copy(), requires_grad=True)
    build(t).sum().backward()
    num = fd_grad(loss_np, x)
    scale = max(np.max(np.abs(num)), 1.0)
    assert np.max(np.abs(t.grad - num)) / scale < rel_tol


class TestElementwiseGrads:

    @pytest.mark.parametrize("name,build,positive", [
        ("exp", lambda t: t.exp(), False),
        ("log", lambda t: t.log(), True),
        ("softplus", lambda t: t.softplus(), False),
        ("sigmoid", lambda t: t.sigmoid(), False),
        ("square", lambda t: t * t, False),
        ("pow", lambda t: t ** 3, False),
        ("reciprocal", lambda t: Tensor(np.ones(())) / t, True),
        ("neg", lambda t: -t, False),
    ])
    def test_unary(self, name, build, positive):
        check_op(build, (4, 3), "unary/" + name, positive=positive)

    def test_softplus_derivative_at_zero(self):
        t = Tensor(np.zeros(1), requires_grad=True)
        t.softplus().sum().backward()
        assert abs(t.grad[0] - 0.5) < 1e-8

    def test_sigmoid_extreme_inputs_stay_finite(self):
        t = Tensor(np.array([-800.0, 800.0]), requires_grad=True)
        out = t.sigmoid()
        assert np.all(np.isfinite(out.data))
        out.sum().backward()
        assert np.all(np.isfinite(t.grad))

    def test_softplus_large_input_is_identity_like(self):
        t = Tensor(np.array([700.0]))
        assert np.isfinite(t.softplus().data[0])
        assert abs(t.softplus().data[0] - 700.0) < 1e-9


class TestKernelsAtExtremes:
    """One-pass sigmoid and softplus against reference formulas."""

    X = np.array([-800.0, -40.0, -1e-300, 0.0, 1e-300, 40.0, 800.0])

    @staticmethod
    def masked_sigmoid(x):
        out = np.empty_like(x)
        pos = x >= 0
        out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
        ex = np.exp(x[~pos])
        out[~pos] = ex / (1.0 + ex)
        return out

    def test_sigmoid_bitwise_equals_masked_reference(self):
        out = _stable_sigmoid(self.X)
        assert np.all(np.isfinite(out))
        assert np.array_equal(out, self.masked_sigmoid(self.X))
        t = Tensor(self.X)
        assert np.array_equal(t.sigmoid().data, out)

    def test_softplus_within_one_ulp_of_logaddexp(self):
        out = Tensor(self.X).softplus().data
        ref = np.logaddexp(0.0, self.X)
        assert np.all(np.isfinite(out))
        assert np.all(np.abs(out - ref) <= np.spacing(np.abs(ref)))

    def test_softplus_gradient_is_the_sigmoid(self):
        t = Tensor(self.X.copy(), requires_grad=True)
        t.softplus().sum().backward()
        assert np.all(np.isfinite(t.grad))
        assert np.array_equal(t.grad, self.masked_sigmoid(self.X))

    # The largest gap seen between the two over every float32 input and
    # 3e7 random float64 inputs: each kernel rounds differently, and
    # float32's exp and log1p are the less exact.
    ULPS = {"f64": 2, "f32": 3}

    @pytest.mark.parametrize("precision", ["f64", "f32"])
    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_softplus_gradient_from_its_output_is_the_sigmoid(self, precision,
                                                              data):
        # backward takes the sigmoid as -expm1(-softplus(x))
        width = 64 if precision == "f64" else 32
        drawn = data.draw(st.lists(st.floats(width=width), min_size=1,
                                   max_size=64))
        try:
            set_default_dtype(precision)
            t = Tensor(drawn + [745.0, -745.0, np.inf, -np.inf, np.nan],
                       requires_grad=True)
            with np.errstate(over="ignore"):  # the sum of huge outputs
                t.softplus().sum().backward()
            ref = _stable_sigmoid(t.data)
        finally:
            set_default_dtype("f64")
        got = t.grad
        assert got.dtype == ref.dtype == t.data.dtype
        nan = np.isnan(t.data)
        assert np.array_equal(np.isnan(got), nan)
        assert np.array_equal(np.isnan(ref), nan)
        # both are >= 0 here, so their integer views count the ulps between
        ints = np.int64 if precision == "f64" else np.int32
        gap = np.abs(got[~nan].view(ints).astype(np.int64)
                     - ref[~nan].view(ints).astype(np.int64))
        assert gap.max() <= self.ULPS[precision]


    EXTREMES = np.append(X, [np.inf, -np.inf, np.nan])

    @staticmethod
    def reference_grad(x, op):
        t = Tensor(x, requires_grad=True)
        getattr(t, op)().sum().backward()
        return t.grad

    @staticmethod
    def assert_grad(got, want, x):
        assert np.array_equal(got.view(np.uint8), want.view(np.uint8))
        assert np.array_equal(np.isnan(got), np.isnan(x))

    def test_fused_mlp_keeps_the_softplus_bits(self, precision):
        # one unit weights and zero biases: the output is the hidden layer
        mlp = MLP2(ParamStore(0), "m", 1, 1, 1)
        for p in mlp.lin1.params + mlp.lin2.params:
            p.data[...] = 1.0 if p.ndim == 2 else 0.0
        x = Tensor(self.EXTREMES[:, None], requires_grad=True)
        out = mlp(x)
        assert np.array_equal(out.data.view(np.uint8),
                              _softplus(x.data).view(np.uint8))
        with np.errstate(invalid="ignore"):  # weight gradients at inf
            out.sum().backward()
        self.assert_grad(x.grad, self.reference_grad(x.data, "softplus"),
                         x.data)

    @staticmethod
    def unit_gate(layer):
        """Frozen statistics that pass the logits through unchanged, a
        scale of 1 at width 1, and keys of 1 from a φ whose second weight
        is zero and bias one, so each gate is sigmoid(q). Values are the
        first input column over 2^60, exactly, since softplus(±2^60) is
        2^60 or 0."""
        layer.bn_attn.eps = 0.0
        k, v = layer.phi_k, layer.phi_v
        k.lin2.weight.data[...], k.lin2.bias.data[...] = 0.0, 1.0
        v.lin1.weight.data[...], v.lin1.bias.data[...] = [[1], [0], [0]], 0.0
        v.lin2.weight.data[...], v.lin2.bias.data[...] = 2.0 ** -60, 0.0

    def gated_extremes(self, cls, *args, values):
        """`se3.gated_sum` with the layer's batch norm and unit gates, q the
        extremes, each owning a row of each value in `values` (0 or 1)."""
        layer = cls(ParamStore(0), "l", 1, *args)
        self.unit_gate(layer)
        q = Tensor(self.EXTREMES[:, None], requires_grad=True)
        n, m = len(q.data), len(values)
        xv = np.zeros((n * m, 3))
        xv[:, 0] = np.tile(np.where(values, 2.0 ** 60, -2.0 ** 60), n)
        owner = np.repeat(np.arange(n), m)
        msg = gated_sum(layer.bn_attn, q,
                        (layer.phi_k, [Tensor(np.zeros((n * m, 3)))]),
                        (layer.phi_v, [Tensor(xv)]), owner,
                        np.zeros_like(owner), training=False)
        return q, msg

    def test_fused_node_gate_keeps_the_sigmoid_bits(self, precision):
        q, msg = self.gated_extremes(SE3NodeLayer, values=[1])
        assert np.array_equal(msg.data.view(np.uint8),
                              _stable_sigmoid(q.data).view(np.uint8))
        with np.errstate(invalid="ignore"):  # gamma's gradient at inf
            msg.sum().backward()
        self.assert_grad(q.grad, self.reference_grad(q.data, "sigmoid"), q.data)

    def test_fused_edge_gate_keeps_the_sigmoid_bits(self, precision):
        # channel 0's value is 1 and the others' 0 (rows 3i + m of the
        # stack): the sum is channel 0's gate
        q, msg = self.gated_extremes(SE3EdgeLayer, 1, 1, values=[1, 0, 0])
        assert np.array_equal(msg.data.view(np.uint8),
                              _stable_sigmoid(q.data).view(np.uint8))
        with np.errstate(invalid="ignore"):  # gamma's gradient at inf
            msg.sum().backward()
        self.assert_grad(q.grad, self.reference_grad(q.data, "sigmoid"), q.data)


class TestKernelsBitwise:
    """The in-place kernels give the bits of the plain formulas, at random
    and at extreme inputs (signed zeros, infinities, nan of either sign,
    subnormals, exp overflow and underflow)."""

    EXTREMES = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan,
                         5e-324, -5e-324, 1e-300, -1e-300, 40.0, -40.0,
                         709.0, -709.0, 746.0, -746.0, 1e308, -1e308])

    def inputs(self):
        gen = stream(12, "kernels")
        return [self.EXTREMES, gen.normal(0.0, 10.0, (257, 64)),
                gen.standard_cauchy(4099)]

    @staticmethod
    def assert_same_bits(got, want):
        assert got.shape == want.shape and got.dtype == want.dtype
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))

    def test_sigmoid(self):
        for x in self.inputs():
            ex = np.exp(-np.abs(x))
            self.assert_same_bits(_stable_sigmoid(x),
                                  np.where(x >= 0, 1.0, ex) / (1.0 + ex))

    def test_softplus(self):
        for x in self.inputs():
            self.assert_same_bits(
                Tensor(x).softplus().data,
                np.maximum(x, 0.0) + np.log1p(np.exp(-np.abs(x))))

    def test_rbf_expand(self):
        spec = uniform_rbf(0.0, 8.0, 64)
        for x in self.inputs():
            diff = x[..., None] - spec.centers
            with np.errstate(over="ignore"):  # at +-1e308
                a = -spec.gamma * diff * diff
                self.assert_same_bits(rbf_expand(x, spec),
                                      np.where(a < RBF_CUT, 0.0, np.exp(a)))


class TestNoGrad:

    @staticmethod
    def build(x, w):
        return ((x @ w).softplus() * 2.0).sigmoid().sum(axis=1)

    def test_records_no_tape_and_keeps_values(self):
        gen = stream(11, "no-grad")
        x = Tensor(gen.normal(size=(5, 4)))
        w = Tensor(gen.normal(size=(4, 3)), requires_grad=True)
        taped = self.build(x, w)
        with no_grad():
            untaped = self.build(x, w)
        assert taped._prev and taped.requires_grad
        assert untaped._prev == () and untaped._backward is None
        assert not untaped.requires_grad
        assert np.array_equal(untaped.data, taped.data)

    def test_mode_restored_after_exception(self):
        w = Tensor(np.ones(2), requires_grad=True)
        with pytest.raises(RuntimeError):
            with no_grad():
                raise RuntimeError("inside the block")
        assert (w * 2.0)._prev == (w,)

    def test_nesting_restores_outer_mode(self):
        w = Tensor(np.ones(2), requires_grad=True)
        with no_grad():
            with no_grad():
                pass
            assert (w * 2.0)._prev == ()
        assert (w * 2.0)._prev == (w,)


class TestBinaryAndBroadcast:

    def test_add_broadcast_row(self):
        check_op(lambda t: t + Tensor(np.arange(3.0)), (4, 3), "badd")

    def test_mul_broadcast_grad_sums_over_expansion(self):
        b = Tensor(np.array([2.0, 3.0, 4.0]), requires_grad=True)
        a = Tensor(np.ones((5, 3)), requires_grad=True)
        (a * b).sum().backward()
        assert np.allclose(b.grad, [5.0, 5.0, 5.0])
        assert np.allclose(a.grad, np.tile([2.0, 3.0, 4.0], (5, 1)))

    def test_div(self):
        check_op(lambda t: t / Tensor(np.array([2.0, 4.0, 8.0])), (4, 3), "div")

    def test_matmul_grads(self):
        gen = stream(11, "matmul")
        a = Tensor(gen.normal(size=(4, 5)), requires_grad=True)
        b = Tensor(gen.normal(size=(5, 3)), requires_grad=True)
        (a @ b).sum().backward()
        assert np.allclose(a.grad, np.ones((4, 3)) @ b.data.T)
        assert np.allclose(b.grad, a.data.T @ np.ones((4, 3)))

    # op(x, c) for a live x and a constant c broadcast against it, and the
    # gradient x gets from an upstream gradient w
    CONSTANT_CASES = {
        "add": (lambda x, c: x + c, lambda w, x, c: w),
        "radd": (lambda x, c: c + x, lambda w, x, c: w),
        "mul": (lambda x, c: x * c, lambda w, x, c: w * c),
        "rmul": (lambda x, c: c * x, lambda w, x, c: w * c),
        "div": (lambda x, c: x / c, lambda w, x, c: w / c),
        "rdiv": (lambda x, c: c / x, lambda w, x, c: -w * c / (x * x)),
    }

    @staticmethod
    def count_unbroadcasts(monkeypatch):
        shapes = []
        plain = tensor_mod._unbroadcast

        def counted(g, shape):
            shapes.append(shape)
            return plain(g, shape)

        monkeypatch.setattr(tensor_mod, "_unbroadcast", counted)
        return shapes

    @pytest.mark.parametrize("name", sorted(CONSTANT_CASES))
    def test_a_broadcast_constant_gets_no_gradient(self, name, monkeypatch):
        op, formula = self.CONSTANT_CASES[name]
        gen = stream(11, "constant-" + name)
        x = Tensor(gen.uniform(0.5, 2.0, (4, 3)), requires_grad=True)
        c = Tensor(gen.uniform(0.5, 2.0, 3))
        w = gen.normal(size=(4, 3))
        shapes = self.count_unbroadcasts(monkeypatch)
        (op(x, c) * Tensor(w)).sum().backward()
        assert c.grad is None
        assert x.grad.tobytes() == formula(w, x.data, c.data).tobytes()
        # once for op's output under `* w`, once for x; never for a constant
        assert shapes == [(4, 3), (4, 3)]

    @pytest.mark.parametrize("side", ["left", "right"])
    def test_a_constant_matmul_operand_gets_no_gradient(self, side,
                                                        monkeypatch):
        gen = stream(11, "constant-matmul-" + side)
        x = Tensor(gen.normal(size=(4, 3)), requires_grad=True)
        if side == "left":
            c = Tensor(gen.normal(size=(5, 4)))
            out, want = c @ x, lambda w: c.data.T @ w
        else:
            c = Tensor(gen.normal(size=(3, 2)))
            out, want = x @ c, lambda w: w @ c.data.T
        w = gen.normal(size=out.shape)
        shapes = self.count_unbroadcasts(monkeypatch)
        (out * Tensor(w)).sum().backward()
        assert c.grad is None
        assert x.grad.tobytes() == want(w).tobytes()
        assert shapes == [out.shape]

    def test_matmul_shape_error(self):
        with pytest.raises(ValueError):
            Tensor(np.ones((2, 3))) @ Tensor(np.ones((2, 3)))


class TestShapeOps:

    def test_reshape_transpose(self):
        check_op(lambda t: (t.reshape(3, 4).T * 2.0), (4, 3), "reshape")

    def test_getitem_basic(self):
        t = Tensor(np.arange(12.0).reshape(4, 3), requires_grad=True)
        t[1:3].sum().backward()
        expect = np.zeros((4, 3))
        expect[1:3] = 1.0
        assert np.array_equal(t.grad, expect)

    def test_getitem_advanced_repeats_accumulate(self):
        t = Tensor(np.arange(4.0), requires_grad=True)
        idx = np.array([0, 0, 2])
        t[idx].sum().backward()
        assert np.allclose(t.grad, [2.0, 0.0, 1.0, 0.0])

    def test_take_gather(self):
        t = Tensor(np.arange(6.0).reshape(3, 2), requires_grad=True)
        out = t.take(np.array([2, 0, 2]))
        assert np.array_equal(out.data, [[4, 5], [0, 1], [4, 5]])
        out.sum().backward()
        assert np.allclose(t.grad, [[1, 1], [0, 0], [2, 2]])

    def test_concat_backward_splits(self):
        a = Tensor(np.ones((2, 2)), requires_grad=True)
        b = Tensor(np.ones((3, 2)), requires_grad=True)
        concat([a, b], axis=0).sum().backward()
        assert np.allclose(a.grad, 1.0) and np.allclose(b.grad, 1.0)
        assert a.grad.shape == (2, 2) and b.grad.shape == (3, 2)


class TestReductions:

    @pytest.mark.parametrize("axis,keepdims", [
        (None, False), (0, False), (1, True), ((0, 1), False)])
    def test_sum_axes(self, axis, keepdims):
        check_op(lambda t: t.sum(axis=axis, keepdims=keepdims) * 1.0,
                 (4, 3), f"sum/{axis}/{keepdims}")

    def test_mean_counts_correctly(self):
        t = Tensor(np.ones((4, 3)), requires_grad=True)
        t.mean().backward()
        assert np.allclose(t.grad, 1.0 / 12)
        t2 = Tensor(np.ones((4, 3)), requires_grad=True)
        t2.mean(axis=0).sum().backward()
        assert np.allclose(t2.grad, 0.25)

    def test_segment_sum_forward_and_grad(self):
        vals = Tensor(np.arange(8.0).reshape(4, 2), requires_grad=True)
        ids = np.array([0, 2, 0, 1])
        out = segment_sum(vals, ids, 3)
        assert np.array_equal(out.data, [[4, 6], [6, 7], [2, 3]])
        (out * Tensor(np.array([[1.0], [10.0], [100.0]]))).sum().backward()
        assert np.allclose(vals.grad, [[1, 1], [100, 100], [1, 1], [10, 10]])


class TestBackwardSemantics:

    def test_non_scalar_backward_raises(self):
        t = Tensor(np.ones(3), requires_grad=True)
        with pytest.raises(ValueError, match="scalar"):
            (t * 2.0).backward()

    def test_grad_accumulates_across_backwards(self):
        t = Tensor(np.ones(2), requires_grad=True)
        (t * 3.0).sum().backward()
        (t * 3.0).sum().backward()
        assert np.allclose(t.grad, [6.0, 6.0])

    def test_diamond_reuse_sums_paths(self):
        t = Tensor(np.array([3.0]), requires_grad=True)
        y = t * t + t * 2.0  # dy/dt = 2t + 2 = 8
        y.sum().backward()
        assert np.allclose(t.grad, [8.0])

    @staticmethod
    def graph_nodes(root):
        nodes, stack, seen = [], [root], set()
        while stack:
            node = stack.pop()
            if id(node) not in seen:
                seen.add(id(node))
                nodes.append(node)
                stack.extend(node._prev)
        return nodes

    def test_backward_frees_the_tape(self):
        gen = stream(11, "free")
        w = Tensor(gen.normal(size=(4, 3)), requires_grad=True)
        h = (Tensor(gen.normal(size=(5, 4))) @ w).softplus()
        loss = (h * h + h).sum()
        interior = [n for n in self.graph_nodes(loss) if n._prev]
        assert len(interior) >= 5
        loss.backward()
        for node in interior:
            assert node.grad is None and node._prev == ()
            # the closure, and the activations it held, are gone
            assert node._backward.__closure__ is None
        assert w.grad is not None

    def test_second_backward_through_a_consumed_graph_raises(self):
        w = Tensor(np.ones(2), requires_grad=True)
        mid = w * 3.0
        loss = mid.sum()
        loss.backward()
        with pytest.raises(RuntimeError, match="consumed"):
            loss.backward()
        with pytest.raises(RuntimeError, match="consumed"):
            (mid * 2.0).sum().backward()
        assert np.array_equal(w.grad, [3.0, 3.0])

    def test_deep_chain_no_recursion_limit(self):
        t = Tensor(np.ones(1), requires_grad=True)
        out = t
        for _ in range(5000):
            out = out + 1.0
        out.sum().backward()
        assert t.grad[0] == 1.0


class TestTapeMemory:

    def test_backward_peak_stays_near_the_forward_footprint(self):
        """Backward frees activations as it goes, so its peak stays near
        what the forward left alive; keeping every interior gradient and
        closure to the end would double it."""
        tracemalloc.start()
        try:
            x = Tensor(stream(11, "chain").normal(size=(1000, 64)),
                       requires_grad=True)
            out = x
            for i in range(200):
                out = out.softplus() if i % 2 else out * 0.5
            loss = out.sum()
            del out
            after_forward = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            loss.backward()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert after_forward > 200 * x.data.nbytes
        assert peak < 1.25 * after_forward


class TestLayerTapeMemory:
    """What one training forward through an edge layer and a node layer
    leaves alive, in (rows x d) float64 arrays. The fused MLP2 and
    attention nodes keep the hidden activations, the standardized logits
    and the gate; the unfused compositions also kept the pre-activations,
    logits, gathers, concatenations and gated products: 53 and 14.6."""

    D = 64

    def pack(self, gen):
        """4 structures of 64 nodes, 16 incoming edges per node, one
        edge-scalar row per directed edge (as in a noisy view)."""
        structures, per, degree = 4, 64, 16
        node_graph = np.repeat(np.arange(structures), per)
        src = np.repeat(np.arange(structures * per), degree)
        edge_graph = node_graph[src]
        dst = edge_graph * per + gen.integers(0, per, len(src))
        rows = len(src)
        return Pack(atom_feats=np.zeros((len(node_graph), 1)),
                    se3_edge_rbf=np.zeros((rows, 1)),
                    se3_angle_rbf=gen.normal(size=(rows, 3, 8)),
                    lattice_feats=gen.normal(size=(structures, 3, 6)),
                    so3_edge_rbf=np.zeros((rows, 1)), sh=[], src=src, dst=dst,
                    node_graph=node_graph, edge_graph=edge_graph,
                    bond_graph=edge_graph, edge_bond=None, bond_weight=None)

    def test_live_arrays_after_a_training_forward(self):
        gen = stream(11, "layer-tape")
        p = self.pack(gen)
        store = ParamStore(11)
        edge_layer = SE3EdgeLayer(store, "edge", self.D, 6, 8)
        node_layer = SE3NodeLayer(store, "node", self.D)
        e = Tensor(gen.normal(size=(len(p.src), self.D)), requires_grad=True)
        h = Tensor(gen.normal(size=(len(p.node_graph), self.D)),
                   requires_grad=True)
        unit = e.data.nbytes
        tracemalloc.start()
        try:
            e_out = edge_layer(e, p, training=True)
            after_edge = tracemalloc.get_traced_memory()[0]
            h_out = node_layer(h, e_out, p, training=True)
            after_node = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert h_out.requires_grad
        # 29.1 and 7.6 at this layout (a node row is 1/16 of an array row):
        # one more array kept by either layer fails
        assert after_edge / unit < 30
        assert (after_node - after_edge) / unit < 8.5

    def test_live_arrays_after_a_tensor_product_forward(self):
        """The tensor product's two nodes keep their weight maps' rows,
        here one per edge: two (E x (l_max+1)·ch) arrays, plus the N-row
        layer 1 and h2. Composed from one node per numpy operation, the
        layer kept 17.7 such arrays."""
        gen = stream(11, "tp-tape")
        p = self.pack(gen)
        ch, l_max, rows = 16, 2, len(p.src)
        layer = TensorProductLayer(ParamStore(11), "tp", channels=ch,
                                   num_rbf=8, l_max=l_max)
        sh = spherical_harmonics(gen.normal(size=(rows, 3)), l_max)
        rbf = gen.uniform(size=(rows, 8))
        h0 = Tensor(gen.normal(size=(len(p.node_graph), ch)),
                    requires_grad=True)
        unit = rows * (l_max + 1) * ch * 8
        tracemalloc.start()
        try:
            _, h2 = layer(h0, sh, rbf, p.src, p.dst)
            live = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert h2.requires_grad
        # 2.21 at this layout: one more (E x ch) array fails
        assert live / unit < 2.5


class TestSortedScatter:
    """`take` gradients and `segment_sum` sums against `np.add.at`: ids
    unsorted and repeated, segments 4 and 8 empty, values as rows and as
    SO(3) blocks (E, ch, 2l+1)."""

    NUM = 9

    @staticmethod
    def case(tail):
        gen = stream(11, f"scatter-{tail}")
        ids = gen.choice([0, 1, 2, 3, 5, 6, 7], size=200)
        return ids, gen.normal(size=(len(ids),) + tail)

    def expected(self, ids, values):
        out = np.zeros((self.NUM,) + values.shape[1:])
        np.add.at(out, ids, values)
        return out

    @staticmethod
    def assert_close(got, expect):
        assert np.max(np.abs(got - expect)) <= 1e-12 * np.max(np.abs(expect))
        assert not got[[4, 8]].any()

    @pytest.mark.parametrize("tail", [(6,), (4, 5)])
    def test_segment_sum_matches_add_at(self, tail):
        ids, values = self.case(tail)
        out = segment_sum(Tensor(values), ids, self.NUM)
        self.assert_close(out.data, self.expected(ids, values))

    @pytest.mark.parametrize("tail", [(6,), (4, 5)])
    def test_take_gradient_matches_add_at(self, tail):
        ids, weights = self.case(tail)
        t = Tensor(np.ones((self.NUM,) + tail), requires_grad=True)
        (t.take(ids) * Tensor(weights)).sum().backward()
        self.assert_close(t.grad, self.expected(ids, weights))

    @pytest.mark.parametrize("tail", [(6,), (4, 5)])
    def test_sorted_ids_skip_the_sort_bitwise(self, tail):
        ids, values = self.case(tail)
        ids = np.sort(ids)
        # the argsort path as the sorted fast path replaces it
        expect = np.zeros((self.NUM,) + tail)
        order = np.argsort(ids, kind="stable")
        starts = np.flatnonzero(np.diff(ids[order], prepend=-1))
        expect[ids[order][starts]] = np.add.reduceat(values[order], starts, axis=0)
        got = _segment_rows(values, ids, self.NUM)
        assert got.tobytes() == expect.tobytes()
        assert not got[[4, 8]].any()


class TestBondPairSums:
    """`_segment_rows` on runs of one or two rows, a bond's directed edges,
    sums them as pairs, and on runs all of 3 to 8 rows, a bond's channels,
    by strided adds; the bits are `np.add.reduceat`'s."""

    NUM = 42  # buckets 0 and 41 stay empty

    @staticmethod
    def reduceat_sums(values, ids, num):
        out = np.zeros((num,) + values.shape[1:])
        order = np.argsort(ids, kind="stable")
        starts = np.flatnonzero(np.diff(ids[order], prepend=-1))
        out[ids[order][starts]] = np.add.reduceat(values[order], starts,
                                                  axis=0)
        return out

    @pytest.mark.parametrize("shuffled", [False, True])
    @pytest.mark.parametrize("tail", [(6,), (4, 5)])
    def test_runs_of_one_or_two_rows_match_reduceat_bitwise(self, tail,
                                                            shuffled):
        gen = stream(11, f"bond-pairs-{tail}")
        bonds = np.arange(1, self.NUM - 1)
        # a lone bond is one whose reverse edge the neighbour cap dropped
        lone = gen.random(len(bonds)) < 0.25
        ids = np.sort(np.concatenate([bonds, bonds[~lone]]))
        if shuffled:
            ids = gen.permutation(ids)
        values = gen.normal(size=(len(ids),) + tail)
        got = _segment_rows(values, ids, self.NUM)
        assert got.tobytes() == self.reduceat_sums(values, ids,
                                                   self.NUM).tobytes()
        assert not got[[0, self.NUM - 1]].any()

    def test_a_run_of_three_rows_takes_the_reduceat_path(self):
        # ten buckets on twenty rows pass the rows-per-bucket test; the pair
        # sum would drop the middle row of bucket 4
        ids = np.array([0, 0, 1, 1, 2, 2, 3, 3, 4, 4, 4, 5, 6, 6, 7, 7, 8, 8,
                        9, 9])
        gen = stream(11, "bond-triple")
        ids = gen.permutation(ids)
        values = gen.normal(size=(len(ids), 3))
        got = _segment_rows(values, ids, 10)
        assert got.tobytes() == self.reduceat_sums(values, ids, 10).tobytes()
        np.testing.assert_allclose(got[4], values[ids == 4].sum(axis=0),
                                   rtol=1e-15)


    @pytest.mark.parametrize("k", [3, 5, 8, 9])
    @pytest.mark.parametrize("tail", [(6,), (4, 5)])
    def test_runs_all_of_k_rows_match_reduceat_bitwise(self, k, tail):
        # a bond's k channels summed onto it; at 9 rows reduceat's pairwise
        # sum takes over and the sums still match, by reduceat itself
        gen = stream(11, f"bond-channels-{k}-{tail}")
        ids = np.repeat(np.arange(1, self.NUM - 1), k)
        values = gen.normal(size=(len(ids),) + tail) * 10.0 ** gen.uniform(
            -8, 8, size=(len(ids),) + (1,) * len(tail))
        got = _segment_rows(values, ids, self.NUM)
        assert got.tobytes() == self.reduceat_sums(values, ids,
                                                   self.NUM).tobytes()
        assert not got[[0, self.NUM - 1]].any()


class TestBlockedWeightGradient:
    """`_weight_grad` sums x.T @ g over fixed 256-row blocks in order."""

    @pytest.mark.parametrize("rows", [1, 256, 257, 1100])
    def test_matches_the_plain_product(self, rows):
        gen = stream(11, f"weight-grad-{rows}")
        x = gen.normal(size=(rows, 64))
        g = gen.normal(size=(rows, 48))
        got = _weight_grad(x, g)
        want = x.T @ g
        if rows <= 256:  # one block is the plain product
            assert got.tobytes() == want.tobytes()
        np.testing.assert_allclose(got, want, rtol=1e-14,
                                   atol=1e-14 * np.abs(want).max())
        blocks = [x[b:b + 256].T @ g[b:b + 256] for b in range(0, rows, 256)]
        assert got.tobytes() == sum(blocks[1:], blocks[0]).tobytes()


class TestSmallMlpOracle:
    """A 3-layer net's full gradient against finite differences (< 1e-6)."""

    def test_mlp_matches_fd(self):
        gen = stream(11, "mlp-oracle")
        w1 = gen.normal(size=(5, 8)) * 0.5
        w2 = gen.normal(size=(8, 8)) * 0.5
        w3 = gen.normal(size=(8, 1)) * 0.5
        x = gen.normal(size=(7, 5))

        def run(ws):
            a, b, c = (Tensor(w, requires_grad=True) for w in ws)
            h = (Tensor(x) @ a).softplus()
            h = (h @ b).sigmoid()
            return (h @ c).sum(), (a, b, c)

        loss, params = run((w1, w2, w3))
        loss.backward()
        for k, w in enumerate((w1, w2, w3)):
            def loss_at(arr, k=k):
                ws = [w1, w2, w3]
                ws[k] = arr
                return float(run(ws)[0].data)
            num = fd_grad(loss_at, w.copy())
            rel = np.max(np.abs(params[k].grad - num)) / max(np.max(np.abs(num)), 1.0)
            assert rel < 1e-6
