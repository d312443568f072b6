"""Optimizer and LR schedule oracles, computed by hand."""

import math

import numpy as np
import pytest

from crysfuse import parallel
from crysfuse.optim import AdamW, clip_grad_norm, epoch_batches, lr_schedule
from crysfuse.tensor import Tensor


def manual_adamw_step(theta, g, m, v, t, lr, b1, b2, eps, wd):
    """One reference AdamW update, written out longhand."""
    theta = theta * (1.0 - lr * wd)
    m = b1 * m + (1 - b1) * g
    v = b2 * v + (1 - b2) * g * g
    m_hat = m / (1 - b1 ** t)
    v_hat = v / (1 - b2 ** t)
    return theta - lr * m_hat / (np.sqrt(v_hat) + eps), m, v


class TestAdamW:

    def test_two_steps_match_hand_computation(self):
        lr, b1, b2, eps, wd = 0.1, 0.9, 0.999, 1e-8, 0.01
        p = Tensor(np.array([1.0, -2.0, 0.5]), requires_grad=True)
        opt = AdamW({"w": p}, lr=lr, betas=(b1, b2), eps=eps, weight_decay=wd)

        theta = p.data.copy()
        m = np.zeros(3)
        v = np.zeros(3)
        for t in (1, 2):
            g = np.array([0.3, -0.1, 0.7]) * t
            p.grad = g.copy()
            opt.step()
            theta, m, v = manual_adamw_step(theta, g, m, v, t, lr, b1, b2, eps, wd)
            assert np.allclose(p.data, theta, atol=1e-14), f"mismatch at step {t}"

    def test_decay_is_decoupled_pure_shrink_under_zero_grad(self):
        p = Tensor(np.array([4.0]), requires_grad=True)
        opt = AdamW({"w": p}, lr=0.5, weight_decay=0.1)
        p.grad = np.zeros(1)
        opt.step()
        # zero gradient means the adaptive term vanishes; only the shrink acts
        assert np.allclose(p.data, [4.0 * (1 - 0.5 * 0.1)])

    def test_none_grad_param_is_skipped_entirely(self):
        p = Tensor(np.array([4.0]), requires_grad=True)
        q = Tensor(np.array([1.0]), requires_grad=True)
        opt = AdamW({"p": p, "q": q}, lr=0.5, weight_decay=0.1)
        q.grad = np.ones(1)
        opt.step()
        assert p.data[0] == 4.0  # untouched, not even decayed
        assert q.data[0] != 1.0

    def test_zero_grad_clears(self):
        p = Tensor(np.array([1.0]), requires_grad=True)
        opt = AdamW({"w": p})
        p.grad = np.ones(1)
        opt.zero_grad()
        assert p.grad is None

    def test_descends_a_quadratic(self):
        p = Tensor(np.array([5.0]), requires_grad=True)
        opt = AdamW({"w": p}, lr=0.2, weight_decay=0.0)
        for _ in range(200):
            opt.zero_grad()
            loss = (p * p).sum()
            loss.backward()
            opt.step()
        assert abs(p.data[0]) < 1e-2


class TestClipGradNorm:

    def test_scales_joint_norm_down_to_bound(self):
        p = Tensor(np.array([3.0, 0.0]), requires_grad=True)
        q = Tensor(np.array([[4.0]]), requires_grad=True)
        p.grad, q.grad = np.array([3.0, 0.0]), np.array([[4.0]])
        assert clip_grad_norm([p, q], 1.0) == pytest.approx(5.0)
        assert np.allclose(p.grad, [0.6, 0.0], atol=1e-15)
        assert np.allclose(q.grad, [[0.8]], atol=1e-15)

    def test_below_bound_is_untouched(self):
        p = Tensor(np.zeros(3), requires_grad=True)
        g = np.array([0.1, -0.2, 0.3])
        p.grad = g
        assert clip_grad_norm([p], 1.0) == pytest.approx(math.sqrt(0.14))
        assert p.grad is g

    def test_shared_gradient_memory_is_not_written(self):
        shared = np.array([6.0, 8.0])
        p = Tensor(np.zeros(2), requires_grad=True)
        q = Tensor(np.zeros(2), requires_grad=True)
        p.grad = q.grad = shared
        clip_grad_norm([p, q], 1.0)
        assert np.array_equal(shared, [6.0, 8.0])
        assert np.allclose(p.grad, shared / math.sqrt(200.0), atol=1e-15)

    def test_norm_is_independent_of_blas_threads(self):
        """100k-element gradients, where OpenBLAS's `vdot` at one and at two
        threads gave norms a bit apart (for seeds 1, 2 and 4 of these): the
        norm is that of numpy's pairwise sum of squares at any BLAS thread
        count."""
        blas = parallel._blas_threads()
        counts = [None] if blas is None else [1, 2]
        previous = None if blas is None else blas[0]()
        try:
            for seed in range(5):
                g = np.random.default_rng(seed).normal(size=100_000)
                want = math.sqrt(float(np.square(g).sum()))
                for n in counts:
                    if n is not None:
                        blas[1](n)
                    p = Tensor(np.zeros(len(g)), requires_grad=True)
                    p.grad = g
                    assert clip_grad_norm([p], 1e9) == want
        finally:
            if blas is not None:
                blas[1](previous)

    def test_params_without_grad_are_skipped(self):
        p = Tensor(np.zeros(1), requires_grad=True)
        q = Tensor(np.zeros(1), requires_grad=True)
        q.grad = np.array([2.0])
        assert clip_grad_norm([p, q], 1.0) == 2.0
        assert p.grad is None and q.grad[0] == 1.0


class TestLrSchedule:

    def test_boundary_values(self):
        assert lr_schedule(0, 100, 10, 1.0, 0.1) == 0.0
        assert lr_schedule(10, 100, 10, 1.0, 0.1) == pytest.approx(1.0)
        assert lr_schedule(100, 100, 10, 1.0, 0.1) == pytest.approx(0.1)

    def test_warmup_is_linear(self):
        for s in range(11):
            assert lr_schedule(s, 100, 10, 2.0, 0.0) == pytest.approx(0.2 * s)

    def test_cosine_midpoint(self):
        # halfway through decay the LR is the mean of max and min
        assert lr_schedule(55, 100, 10, 1.0, 0.1) == pytest.approx(0.55)

    def test_cosine_shape(self):
        got = lr_schedule(32, 100, 10, 1.0, 0.0)
        expect = 0.5 * (1 + math.cos(math.pi * (32 - 10) / 90))
        assert got == pytest.approx(expect, abs=1e-15)

    def test_step_out_of_range_raises(self):
        with pytest.raises(ValueError):
            lr_schedule(-1, 100, 10, 1.0, 0.1)
        with pytest.raises(ValueError):
            lr_schedule(101, 100, 10, 1.0, 0.1)

    def test_warmup_not_below_total(self):
        with pytest.raises(ValueError):
            lr_schedule(5, 10, 10, 1.0, 0.1)


class TestEpochBatches:

    @pytest.mark.parametrize("n, batch_size, sizes", [
        (10, 3, [3, 3, 4]), (9, 3, [3, 3, 3]), (2, 5, [2]), (1, 1, [1])])
    def test_last_batch_takes_the_remainder(self, n, batch_size, sizes):
        batches = epoch_batches(n, batch_size)
        order = np.arange(n)[::-1]
        assert [len(order[b]) for b in batches] == sizes
        assert np.array_equal(np.concatenate([order[b] for b in batches]), order)
