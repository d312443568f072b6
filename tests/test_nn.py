"""Layer-level oracles: every normalization/update rule recomputed by hand."""

import numpy as np
import pytest

from crysfuse.nn import MLP2, BatchNorm, LayerNorm, Linear, ParamStore, ProjectionHead
from crysfuse.rng import stream
from crysfuse.tensor import Tensor, no_grad


def assert_same_bits(got, want):
    assert got.shape == want.shape and got.dtype == want.dtype
    assert np.ascontiguousarray(got).tobytes() == np.ascontiguousarray(want).tobytes()


class TestParamStore:

    def test_duplicate_param_name_rejected(self):
        store = ParamStore(0)
        store.add_param("w", np.zeros(2))
        with pytest.raises(ValueError, match="duplicate"):
            store.add_param("w", np.zeros(2))

    def test_duplicate_buffer_name_rejected(self):
        store = ParamStore(0)
        store.add_buffer("b", np.zeros(2))
        with pytest.raises(ValueError, match="duplicate"):
            store.add_buffer("b", np.zeros(2))

    def test_init_depends_only_on_seed_and_name(self):
        # values must not shift when unrelated parameters are created first
        a = ParamStore(7)
        a.uniform_param("x", (4,), 1.0)
        first = a.uniform_param("layer.weight", (3, 3), 0.5)

        b = ParamStore(7)
        second = b.uniform_param("layer.weight", (3, 3), 0.5)
        assert np.array_equal(first.data, second.data)

    def test_different_seeds_differ(self):
        a = ParamStore(1).uniform_param("w", (8,), 1.0)
        b = ParamStore(2).uniform_param("w", (8,), 1.0)
        assert not np.array_equal(a.data, b.data)

    def test_zero_grad(self):
        store = ParamStore(0)
        p = store.add_param("w", np.ones(2))
        p.grad = np.ones(2)
        store.zero_grad()
        assert p.grad is None


class TestLinear:

    def test_affine_map(self):
        store = ParamStore(3)
        lin = Linear(store, "l", 4, 2)
        x = stream(3, "x").normal(size=(5, 4))
        out = lin(Tensor(x))
        assert np.allclose(out.data, x @ lin.weight.data + lin.bias.data)

    def test_init_bound_is_inverse_sqrt_fan_in(self):
        store = ParamStore(3)
        lin = Linear(store, "l", 16, 300)
        bound = 1.0 / 4.0
        assert np.max(np.abs(lin.weight.data)) <= bound
        assert np.max(np.abs(lin.weight.data)) > 0.9 * bound  # actually fills it

    def test_no_bias_option(self):
        store = ParamStore(3)
        lin = Linear(store, "l", 4, 2, bias=False)
        assert lin.bias is None
        assert "l.bias" not in store.params

    @staticmethod
    def blocks(gen):
        return [gen.normal(size=(6, w)) for w in (3, 1, 4)]

    def test_blocks_match_the_concatenated_input(self):
        lin = Linear(ParamStore(3), "l", 8, 5)
        parts = self.blocks(stream(3, "blocks"))
        whole = Tensor(np.concatenate(parts, axis=1), requires_grad=True)
        split = [Tensor(p, requires_grad=True) for p in parts]
        w = Tensor(stream(3, "w").normal(size=(6, 5)))
        (lin(whole) * w).sum().backward()
        ref_w, ref_b = lin.weight.grad, lin.bias.grad
        lin.weight.grad = lin.bias.grad = None
        out = lin(split)
        (out * w).sum().backward()
        pairs = [(out.data, lin(whole).data),
                 (np.concatenate([t.grad for t in split], axis=1), whole.grad),
                 (lin.weight.grad, ref_w), (lin.bias.grad, ref_b)]
        for got, expect in pairs:  # relative to the largest entry
            assert np.max(np.abs(got - expect)) <= 1e-12 * np.max(np.abs(expect))

    @staticmethod
    def assert_central_differences(loss, leaves, h=1e-6):
        loss().backward()
        for t in leaves:
            flat = t.data.ravel()
            fd = np.zeros_like(flat)
            for i in range(flat.size):
                orig = flat[i]
                flat[i] = orig + h
                up = float(loss().data)
                flat[i] = orig - h
                down = float(loss().data)
                flat[i] = orig
                fd[i] = (up - down) / (2 * h)
            np.testing.assert_allclose(t.grad.ravel(), fd, rtol=1e-6, atol=1e-8)

    def test_block_gradients_match_central_differences(self):
        lin = Linear(ParamStore(4), "l", 8, 5)
        split = [Tensor(p, requires_grad=True)
                 for p in self.blocks(stream(4, "blocks"))]
        w = Tensor(stream(4, "w").normal(size=(6, 5)))

        def loss():
            out = lin(split)
            return (out * out * w).sum()

        self.assert_central_differences(loss, split + [lin.weight, lin.bias])

    # 6 output rows gathered from 5 source rows: 0 and 4 repeat, 2 is never
    # named, so its gradient must be exactly zero
    ROWS = np.array([4, 0, 0, 3, 1, 4])

    def gathered(self, seed):
        gen = stream(seed, "gathered")
        source = Tensor(gen.normal(size=(5, 3)), requires_grad=True)
        rest = [Tensor(gen.normal(size=(6, w)), requires_grad=True)
                for w in (1, 4)]
        return source, rest

    @pytest.mark.parametrize("place", [0, 1])
    def test_gathered_block_matches_the_take(self, place):
        lin = Linear(ParamStore(6), "l", 8, 5)
        source, rest = self.gathered(6)
        got = lin(rest[:place] + [(source, self.ROWS)] + rest[place:]).data
        want = lin(rest[:place] + [source.take(self.ROWS)] + rest[place:]).data
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))

    def test_gathered_block_gradients_match_central_differences(self):
        lin = Linear(ParamStore(7), "l", 8, 5)
        source, rest = self.gathered(7)
        w = Tensor(stream(7, "w").normal(size=(6, 5)))

        def loss():
            out = lin([rest[0], (source, self.ROWS), rest[1]])
            return (out * out * w).sum()

        self.assert_central_differences(loss, [source, lin.weight, lin.bias])
        assert np.all(source.grad[2] == 0.0)

    def test_one_block_list_is_the_plain_call(self):
        lin = Linear(ParamStore(5), "l", 4, 3)
        x = stream(5, "x").normal(size=(7, 4))
        grads = []
        for arg in (lambda t: t, lambda t: [t]):
            t = Tensor(x, requires_grad=True)
            out = lin(arg(t))
            (out * out).sum().backward()
            grads.append((out.data, t.grad, lin.weight.grad, lin.bias.grad))
            lin.weight.grad = lin.bias.grad = None
        for plain, listed in zip(*grads):
            assert np.array_equal(plain, listed)

    def test_block_widths_must_sum_to_fan_in(self):
        lin = Linear(ParamStore(3), "l", 8, 5)
        with pytest.raises(ValueError, match="fan_in"):
            lin([Tensor(np.ones((2, 3))), Tensor(np.ones((2, 4)))])


class TestMLP2:

    def test_formula(self):
        store = ParamStore(4)
        mlp = MLP2(store, "m", 3, 5, 2)
        x = stream(4, "x").normal(size=(6, 3))
        h = x @ mlp.lin1.weight.data + mlp.lin1.bias.data
        h = np.logaddexp(0.0, h)
        expect = h @ mlp.lin2.weight.data + mlp.lin2.bias.data
        assert np.allclose(mlp(Tensor(x)).data, expect)
        split = mlp([Tensor(x[:, :1]), Tensor(x[:, 1:])]).data
        assert np.max(np.abs(split - expect)) <= 1e-12 * np.max(np.abs(expect))


class TestFusedMLP2:
    """The one-node MLP2 against its composition lin2(lin1(x).softplus())
    from tape primitives: outputs and every gradient bitwise."""

    @staticmethod
    def inputs(kind, gen):
        """(blocks for the call, the tensors among them that need grads)."""
        if kind == "plain":
            x = Tensor(gen.normal(size=(9, 6)), requires_grad=True)
            return x, [x]
        # a gathered block with repeated and missing rows, a constant
        # block, and a plain one
        nodes = Tensor(gen.normal(size=(4, 2)), requires_grad=True)
        const = Tensor(gen.normal(size=(9, 1)))
        plain = Tensor(gen.normal(size=(9, 3)), requires_grad=True)
        rows = np.array([3, 0, 0, 2, 3, 3, 0, 2, 0])
        return [(nodes, rows), const, plain], [nodes, plain]

    @pytest.mark.parametrize("kind", ["plain", "blocks"])
    @pytest.mark.parametrize("calls", [1, 3])
    def test_matches_the_composition_bitwise(self, precision, kind, calls):
        mlp = MLP2(ParamStore(8), "m", 6, 5, 4)
        params = mlp.lin1.params + mlp.lin2.params
        runs = []
        for fused in (True, False):
            gen = stream(8, f"mlp-{kind}")
            probe = Tensor(gen.normal(size=(9, 4)))
            out, leaves = None, []
            # the same parameters used `calls` times, as phi_k is per channel
            for _ in range(calls):
                x, live = self.inputs(kind, gen)
                y = mlp(x) if fused else mlp.lin2(mlp.lin1(x).softplus())
                out = y if out is None else out + y
                leaves += live
            (out * probe).sum().backward()
            if kind == "blocks":
                assert x[1].grad is None  # the constant block
            runs.append([out.data] + [t.grad for t in leaves + list(params)])
            for p in params:
                p.grad = None
        for got, want in zip(*runs):
            assert_same_bits(got, want)


class TestBatchNorm:

    def make(self, dim=3):
        store = ParamStore(5)
        return BatchNorm(store, "bn", dim), store

    def test_training_standardizes_with_biased_variance(self):
        bn, _ = self.make()
        gen = stream(5, "bn-x")
        x = gen.normal(size=(8, 3)) * 4.0 + 2.0
        out = bn(Tensor(x), np.zeros(len(x), int), training=True).data
        mu = x.mean(axis=0)
        var = x.var(axis=0)  # biased (ddof=0)
        assert np.allclose(out, (x - mu) / np.sqrt(var + 1e-5), atol=1e-12)

    def test_running_stats_update(self):
        bn, _ = self.make()
        x = np.array([[1.0, 0.0, 2.0], [3.0, 0.0, 6.0]])
        bn(Tensor(x), np.zeros(len(x), int), training=True)
        mu = x.mean(axis=0)
        var = x.var(axis=0)
        assert np.allclose(bn.running_mean, 0.9 * 0.0 + 0.1 * mu)
        assert np.allclose(bn.running_var, 0.9 * 1.0 + 0.1 * var)

    def test_eval_uses_running_stats_only(self):
        bn, _ = self.make()
        bn.running_mean[:] = [1.0, 2.0, 3.0]
        bn.running_var[:] = [4.0, 4.0, 4.0]
        x = np.array([[5.0, 6.0, 7.0]])
        out = bn(Tensor(x), np.zeros(len(x), int), training=False).data
        assert np.allclose(out, (x - [1, 2, 3]) / np.sqrt(4 + 1e-5), atol=1e-12)

    def test_eval_is_batch_size_independent(self):
        bn, _ = self.make()
        gen = stream(5, "bn-eval")
        x = gen.normal(size=(6, 3))
        full = bn(Tensor(x), np.zeros(len(x), int), training=False).data
        rows = np.vstack([bn(Tensor(x[i:i + 1]), np.zeros(1, int),
                             training=False).data
                          for i in range(6)])
        assert np.array_equal(full, rows)

    def test_gamma_beta_apply(self):
        bn, _ = self.make()
        bn.gamma.data[:] = 2.0
        bn.beta.data[:] = 1.0
        x = np.array([[0.0, 0.0, 0.0], [2.0, 2.0, 2.0]])
        out = bn(Tensor(x), np.zeros(len(x), int), training=True).data
        base = (x - 1.0) / np.sqrt(1.0 + 1e-5)
        assert np.allclose(out, 2.0 * base + 1.0, atol=1e-12)

    def test_two_groups_use_their_own_statistics(self):
        bn, _ = self.make()
        gen = stream(5, "bn-groups")
        x = np.vstack([gen.normal(size=(3, 3)) * 4.0 + 2.0,
                       gen.normal(size=(5, 3)) * 0.5 - 1.0])
        groups = np.array([0, 0, 0, 1, 1, 1, 1, 1])
        out = bn(Tensor(x), groups, training=True).data
        running_mean, running_var = np.zeros(3), np.ones(3)
        for g in (0, 1):
            xg = x[groups == g]
            want = (xg - xg.mean(axis=0)) / np.sqrt(xg.var(axis=0) + 1e-5)
            assert np.allclose(out[groups == g], want, atol=1e-12)
            # running statistics replay one single-group batch per group
            running_mean = 0.9 * running_mean + 0.1 * xg.mean(axis=0)
            running_var = 0.9 * running_var + 0.1 * xg.var(axis=0)
        assert np.allclose(bn.running_mean, running_mean, rtol=1e-14, atol=0)
        assert np.allclose(bn.running_var, running_var, rtol=1e-14, atol=0)

    def test_two_group_backward_matches_central_differences(self):
        bn, _ = self.make()
        gen = stream(5, "bn-grad")
        bn.gamma.data[:] = gen.uniform(0.5, 1.5, 3)
        bn.beta.data[:] = gen.uniform(-0.5, 0.5, 3)
        x = Tensor(gen.normal(size=(7, 3)) * 2.0, requires_grad=True)
        w = Tensor(gen.normal(size=(7, 3)))
        groups = np.array([0, 0, 0, 0, 1, 1, 1])

        def loss():
            out = bn(x, groups, training=True)
            return float((out * out * w).sum().data)

        out = bn(x, groups, training=True)
        (out * out * w).sum().backward()
        h = 1e-6
        for t in (x, bn.gamma, bn.beta):
            flat = t.data.ravel()
            fd = np.zeros_like(flat)
            for i in range(flat.size):
                orig = flat[i]
                flat[i] = orig + h
                up = loss()
                flat[i] = orig - h
                down = loss()
                flat[i] = orig
                fd[i] = (up - down) / (2 * h)
            np.testing.assert_allclose(t.grad.ravel(), fd, rtol=1e-6, atol=1e-8)

    # rows 0-6 in two groups; each row stands for 1 or 2 expanded rows
    WEIGHT = np.array([2, 1, 2, 2, 1, 2, 1])
    GROUPS = np.array([0, 0, 0, 0, 1, 1, 1])

    def test_weighted_rows_match_expanded_rows(self):
        # outputs, gradients and running estimates of weighted rows equal
        # those of the rows repeated by their weights
        gen = stream(5, "bn-weighted")
        x = gen.normal(size=(7, 3)) * 2.0 + 1.0
        expand = np.repeat(np.arange(7), self.WEIGHT)
        probe = Tensor(gen.normal(size=(len(expand), 3)))

        def run(weighted):
            bn, _ = self.make()
            bn.gamma.data[:] = [0.7, 1.3, 1.1]
            xt = Tensor(x, requires_grad=True)
            if weighted:
                out = bn(xt, self.GROUPS, training=True,
                         weight=self.WEIGHT).take(expand)
            else:
                out = bn(xt.take(expand), self.GROUPS[expand], training=True)
            (out * probe).sum().backward()
            return (out.data, xt.grad, bn.gamma.grad, bn.beta.grad,
                    bn.running_mean.copy(), bn.running_var.copy())

        for got, want in zip(run(True), run(False)):
            np.testing.assert_allclose(got, want, rtol=1e-13, atol=1e-15)

    def test_weighted_backward_matches_central_differences(self):
        bn, _ = self.make()
        gen = stream(5, "bn-weighted-grad")
        bn.gamma.data[:] = gen.uniform(0.5, 1.5, 3)
        bn.beta.data[:] = gen.uniform(-0.5, 0.5, 3)
        x = Tensor(gen.normal(size=(7, 3)) * 2.0, requires_grad=True)
        w = Tensor(gen.normal(size=(7, 3)))

        def loss():
            out = bn(x, self.GROUPS, training=True, weight=self.WEIGHT)
            return float((out * out * w).sum().data)

        out = bn(x, self.GROUPS, training=True, weight=self.WEIGHT)
        (out * out * w).sum().backward()
        h = 1e-6
        for t in (x, bn.gamma, bn.beta):
            flat = t.data.ravel()
            fd = np.zeros_like(flat)
            for i in range(flat.size):
                orig = flat[i]
                flat[i] = orig + h
                up = loss()
                flat[i] = orig - h
                down = loss()
                flat[i] = orig
                fd[i] = (up - down) / (2 * h)
            np.testing.assert_allclose(t.grad.ravel(), fd, rtol=1e-6, atol=1e-8)


    @staticmethod
    def per_group_reference(x, groups, weight, gamma, beta, g, eps=1e-5,
                            momentum=0.1):
        """Outputs, gradients and running estimates of a training forward,
        one group at a time; x's gradient through each feature's explicit
        Jacobian of the standardized rows."""
        out, dx = np.empty_like(x), np.empty_like(x)
        dgamma, dbeta = np.zeros(x.shape[1]), np.zeros(x.shape[1])
        running_mean, running_var = np.zeros(x.shape[1]), np.ones(x.shape[1])
        for grp in range(groups.max() + 1):
            rows = groups == grp
            xg, gg, wg = x[rows], g[rows], weight[rows]
            n = wg.sum()
            mu = np.average(xg, axis=0, weights=wg)
            var = np.average((xg - mu) ** 2, axis=0, weights=wg)
            std = np.sqrt(var + eps)
            xhat = (xg - mu) / std
            out[rows] = xhat * gamma + beta
            dgamma += (gg * xhat).sum(axis=0)
            dbeta += gg.sum(axis=0)
            for j in range(x.shape[1]):
                # d xhat_i / d x_k, each row counted weight times
                jac = ((np.eye(len(xg)) - wg[None, :] / n)
                       - np.outer(xhat[:, j], xhat[:, j] * wg) / n) / std[j]
                dx[rows, j] = jac.T @ (gg[:, j] * gamma[j])
            running_mean = (1 - momentum) * running_mean + momentum * mu
            running_var = (1 - momentum) * running_var + momentum * var
        return out, dx, dgamma, dbeta, running_mean, running_var

    @pytest.mark.parametrize("weighted", [False, True])
    def test_sixteen_uneven_groups_match_a_per_group_reference(self,
                                                               weighted):
        gen = stream(5, f"bn-sixteen-{weighted}")
        dim = 4
        groups = np.repeat(np.arange(16), gen.integers(2, 40, 16))
        weight = (gen.integers(1, 3, len(groups)) if weighted
                  else np.ones(len(groups), int))
        x = (gen.normal(size=(len(groups), dim)) * gen.uniform(0.5, 3.0, dim)
             + gen.normal(size=dim))
        probe = gen.normal(size=x.shape)
        bn, _ = self.make(dim)
        bn.gamma.data[:] = gen.uniform(0.5, 1.5, dim)
        bn.beta.data[:] = gen.uniform(-0.5, 0.5, dim)
        xt = Tensor(x, requires_grad=True)
        out = bn(xt, groups, training=True,
                 weight=weight if weighted else None)
        (out * Tensor(probe)).sum().backward()
        got = (out.data, xt.grad, bn.gamma.grad, bn.beta.grad,
               bn.running_mean, bn.running_var)
        want = self.per_group_reference(x, groups, weight, bn.gamma.data,
                                        bn.beta.data, probe)
        for a, b in zip(got, want):
            assert np.max(np.abs(a - b)) <= 1e-14 * np.max(np.abs(b))


    @staticmethod
    def composed_eval(bn, x):
        """The eval-mode map from tape primitives."""
        scale = 1.0 / np.sqrt(bn.running_var + bn.eps)
        return (x - Tensor(bn.running_mean)) * Tensor(scale) * bn.gamma + bn.beta

    def test_eval_node_matches_the_composition_bitwise(self, precision):
        # frozen statistics: eval-mode normalization on a recorded tape
        bn, _ = self.make(4)
        gen = stream(5, "bn-frozen")
        bn.running_mean[:] = gen.normal(size=4)
        bn.running_var[:] = gen.uniform(0.5, 2.0, 4)
        bn.gamma.data[:] = gen.uniform(0.5, 1.5, 4)
        bn.beta.data[:] = gen.uniform(-0.5, 0.5, 4)
        x = gen.normal(size=(11, 4))
        probe = Tensor(gen.normal(size=(11, 4)))
        runs = []
        for fused in (True, False):
            xt = Tensor(x, requires_grad=True)
            out = (bn(xt, np.zeros(11, int), training=False) if fused
                   else self.composed_eval(bn, xt))
            (out * probe).sum().backward()
            runs.append((out.data, xt.grad, bn.gamma.grad, bn.beta.grad))
            bn.gamma.grad = bn.beta.grad = None
        for got, want in zip(*runs):
            assert_same_bits(got, want)
        with no_grad():
            assert_same_bits(bn(Tensor(x), np.zeros(11, int), False).data,
                             self.composed_eval(bn, Tensor(x)).data)


class TestLayerNorm:

    def test_rows_standardized(self):
        store = ParamStore(6)
        ln = LayerNorm(store, "ln", 4)
        x = stream(6, "ln-x").normal(size=(5, 4)) * 3.0
        out = ln(Tensor(x)).data
        mu = x.mean(axis=1, keepdims=True)
        var = x.var(axis=1, keepdims=True)
        assert np.allclose(out, (x - mu) / np.sqrt(var + 1e-5), atol=1e-12)

    def test_gradient_flows(self):
        store = ParamStore(6)
        ln = LayerNorm(store, "ln", 4)
        x = Tensor(stream(6, "g").normal(size=(3, 4)), requires_grad=True)
        ln(x).sum().backward()
        assert x.grad is not None and np.all(np.isfinite(x.grad))


class TestProjectionHead:

    def test_residual_formula(self):
        store = ParamStore(7)
        head = ProjectionHead(store, "proj", 4)
        z = stream(7, "z").normal(size=(5, 4))
        inner = z @ head.lin1.weight.data + head.lin1.bias.data + head.bias2.data
        inner = inner @ head.lin2.weight.data
        mu = inner.mean(axis=1, keepdims=True)
        var = inner.var(axis=1, keepdims=True)
        expect = z + (inner - mu) / np.sqrt(var + 1e-5)
        assert np.allclose(head(Tensor(z)).data, expect, atol=1e-12)

    def test_second_linear_has_no_own_bias(self):
        store = ParamStore(7)
        ProjectionHead(store, "proj", 4)
        assert "proj.lin2.bias" not in store.params
        assert "proj.bias2" in store.params
