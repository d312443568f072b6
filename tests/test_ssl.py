"""Self-supervised objective tests.

The contrastive loss is checked against a from-scratch brute-force
implementation (explicit similarity matrix, python loops) on random inputs,
plus the closed-form all-identical value. Denoising losses are checked via
the zero-head / perfect-head identities.
"""

import dataclasses
import json
import math
import tracemalloc

import numpy as np
import pytest

from crysfuse.checks import random_structure
from crysfuse.config import RunConfig
from crysfuse.errors import NumericError
from crysfuse.graph import build_graph
from crysfuse.model import MGTModel
from crysfuse.optim import AdamW
from crysfuse.pretrain import (
    NoisySample,
    denoising_losses,
    inject_noise,
    noisy_pack,
    nt_xent,
    pretrain_step,
    run_pretraining,
    ssl_losses,
)
from crysfuse.rng import stream
from crysfuse.structures import CrystalStructure
from crysfuse.tensor import Tensor, concat

TINY = RunConfig(width=8, num_rbf=4, num_angle_rbf=4, cutoff=3.5,
                 max_neighbors=8, l_max=1, seed=0, pretrain_lr=1e-3,
                 pretrain_epochs=2)

NACL = CrystalStructure(
    (11, 17), [[0.0, 0.0, 0.0], [0.5, 0.5, 0.5]], np.eye(3) * 4.0)
FCC_AL = CrystalStructure(
    (13,), [[0.0, 0.0, 0.0]], np.array([[0.0, 2.0, 2.0],
                                        [2.0, 0.0, 2.0],
                                        [2.0, 2.0, 0.0]]))


def brute_nt_xent(z1: np.ndarray, z2: np.ndarray, tau: float) -> float:
    """Direct transcription: explicit 2N x 2N matrix and per-anchor loop."""
    z = np.vstack([z1, z2])
    z = z / np.linalg.norm(z, axis=1, keepdims=True)
    two_n = len(z)
    n = len(z1)
    sim = z @ z.T / tau
    total = 0.0
    for i in range(two_n):
        j = i + n if i < n else i - n
        denom = sum(math.exp(sim[i, k]) for k in range(two_n) if k != i)
        total += -math.log(math.exp(sim[i, j]) / denom)
    return total / two_n


class TestNtXent:

    @pytest.mark.parametrize("n", [2, 4, 8])
    def test_matches_brute_force(self, n):
        gen = stream(13, f"ntxent/{n}")
        z1 = gen.normal(size=(n, 6))
        z2 = gen.normal(size=(n, 6))
        got = float(nt_xent(Tensor(z1), Tensor(z2), 0.1).data)
        assert abs(got - brute_nt_xent(z1, z2, 0.1)) < 1e-10

    @pytest.mark.parametrize("tau", [0.05, 0.5, 1.0])
    def test_temperature_dependence_matches(self, tau):
        gen = stream(13, "ntxent/tau")
        z1 = gen.normal(size=(4, 6))
        z2 = gen.normal(size=(4, 6))
        got = float(nt_xent(Tensor(z1), Tensor(z2), tau).data)
        assert abs(got - brute_nt_xent(z1, z2, tau)) < 1e-10

    @pytest.mark.parametrize("n", [2, 4, 8])
    def test_all_identical_rows_closed_form(self, n):
        z = np.tile([0.3, -0.4, 0.5], (n, 1))
        got = float(nt_xent(Tensor(z.copy()), Tensor(z.copy()), 0.1).data)
        assert abs(got - math.log(2 * n - 1)) < 1e-12

    def test_permuting_pairs_leaves_loss_unchanged(self):
        gen = stream(13, "ntxent/perm")
        z1 = gen.normal(size=(6, 5))
        z2 = gen.normal(size=(6, 5))
        perm = gen.permutation(6)
        a = float(nt_xent(Tensor(z1), Tensor(z2), 0.1).data)
        b = float(nt_xent(Tensor(z1[perm]), Tensor(z2[perm]), 0.1).data)
        assert abs(a - b) < 1e-12

    def test_aligned_views_score_lower_than_scrambled(self):
        gen = stream(13, "ntxent/align")
        z1 = gen.normal(size=(8, 6))
        noise = 0.01 * gen.normal(size=(8, 6))
        aligned = float(nt_xent(Tensor(z1), Tensor(z1 + noise), 0.1).data)
        scrambled = float(nt_xent(Tensor(z1), Tensor(np.roll(z1, 1, axis=0)),
                                  0.1).data)
        assert aligned < scrambled

    def test_gradient_flows_to_both_views(self):
        gen = stream(13, "ntxent/grad")
        z1 = Tensor(gen.normal(size=(3, 4)), requires_grad=True)
        z2 = Tensor(gen.normal(size=(3, 4)), requires_grad=True)
        nt_xent(z1, z2, 0.1).backward()
        assert z1.grad is not None and np.all(np.isfinite(z1.grad))
        assert z2.grad is not None and np.all(np.isfinite(z2.grad))

    def test_extreme_similarities_stay_finite(self):
        # near-duplicate rows at very low temperature: the shifted softmax
        # must not overflow
        z = np.tile([1.0, 0.0], (4, 1))
        z[1] = [0.999, 0.001]
        loss = nt_xent(Tensor(z.copy()), Tensor(z.copy()), 0.001)
        assert np.isfinite(float(loss.data))

    def test_input_validation(self):
        one = Tensor(np.ones((1, 3)))
        with pytest.raises(ValueError, match=">= 2"):
            nt_xent(one, one, 0.1)
        two = Tensor(np.ones((2, 3)))
        with pytest.raises(ValueError, match="temperature"):
            nt_xent(two, two, 0.0)
        with_zero = Tensor(np.array([[1.0, 0.0], [0.0, 0.0]]))
        with pytest.raises(ValueError, match="zero-norm"):
            nt_xent(with_zero, Tensor(np.ones((2, 2))), 0.1)


class FixedGen:
    """Generator stub: hands out preset normal draws in order."""

    def __init__(self, draws):
        self.draws = list(draws)

    def normal(self, loc, scale, size):
        out = np.asarray(self.draws.pop(0), dtype=np.float64)
        assert out.shape == tuple(np.atleast_1d(size)), "stub draw shape mismatch"
        return out


class TestInjectNoise:

    def graph(self):
        return build_graph(NACL, r=3.5, max_neighbors=8)

    def test_sigma_zero_is_identity(self):
        g = self.graph()
        sample = inject_noise(g, 0.0, stream(0, "noise"))
        assert np.array_equal(sample.noisy_angles, g.angles)
        assert np.array_equal(sample.noisy_distances, g.distance)
        assert not sample.eps_theta.any()
        assert not sample.eps_e.any()

    def test_negative_sigma_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            inject_noise(self.graph(), -0.1, stream(0, "noise"))

    def test_stored_noise_is_post_clamp_delta(self):
        g = self.graph()
        e = g.num_edges
        # push one angle far below 0 and one distance far below the floor
        angle_noise = np.zeros((e, 3))
        angle_noise[0, 0] = -10.0
        dist_noise = np.zeros(e)
        dist_noise[0] = -10.0
        sample = inject_noise(g, 1.0, FixedGen([angle_noise, dist_noise]))
        assert sample.noisy_angles[0, 0] == 0.0
        assert sample.eps_theta[0, 0] == -g.angles[0, 0]
        assert sample.noisy_distances[0] == 1e-6
        assert sample.eps_e[0] == 1e-6 - g.distance[0]
        # untouched entries carry exactly zero stored noise
        assert not sample.eps_theta[1:].any()
        assert not sample.eps_e[1:].any()

    def test_upper_angle_clamp(self):
        g = self.graph()
        e = g.num_edges
        angle_noise = np.full((e, 3), 10.0)
        sample = inject_noise(g, 1.0, FixedGen([angle_noise, np.zeros(e)]))
        assert np.all(sample.noisy_angles == math.pi)
        assert np.allclose(sample.eps_theta, math.pi - g.angles)

    def test_reconstruction_identity(self):
        # clean + stored noise == noisy, bitwise
        g = self.graph()
        sample = inject_noise(g, 0.2, stream(7, "noise"))
        assert np.array_equal(g.angles + sample.eps_theta, sample.noisy_angles)
        assert np.array_equal(g.distance + sample.eps_e, sample.noisy_distances)


class TestDenoisingLosses:

    def samples(self):
        g = build_graph(NACL, r=3.5, max_neighbors=8)
        gen = stream(3, "noise")
        return [inject_noise(g, 0.15, gen), inject_noise(g, 0.15, gen)]

    def test_zero_heads_give_sum_of_squared_noise(self):
        samples = self.samples()
        zero_t = concat([Tensor(np.zeros_like(s.eps_theta)) for s in samples])
        zero_e = concat([Tensor(np.zeros((len(s.eps_e), 1))) for s in samples])
        l_theta, l_e = denoising_losses(zero_t, zero_e, samples)
        want_t = sum(np.sum(s.eps_theta ** 2) for s in samples)
        want_e = sum(np.sum(s.eps_e ** 2) for s in samples)
        assert float(l_theta.data) == want_t
        assert float(l_e.data) == want_e

    def test_perfect_heads_give_zero(self):
        samples = self.samples()
        exact_t = concat([Tensor(s.eps_theta.copy()) for s in samples])
        exact_e = concat([Tensor(s.eps_e.reshape(-1, 1).copy()) for s in samples])
        l_theta, l_e = denoising_losses(exact_t, exact_e, samples)
        assert float(l_theta.data) == 0.0
        assert float(l_e.data) == 0.0

    def test_batch_terms_add(self):
        samples = self.samples()
        zero_t = [Tensor(np.zeros_like(s.eps_theta)) for s in samples]
        zero_e = [Tensor(np.zeros((len(s.eps_e), 1))) for s in samples]
        both, _ = denoising_losses(concat(zero_t), concat(zero_e), samples)
        first, _ = denoising_losses(zero_t[0], zero_e[0], samples[:1])
        second, _ = denoising_losses(zero_t[1], zero_e[1], samples[1:])
        assert float(both.data) == pytest.approx(
            float(first.data) + float(second.data), abs=1e-12)


class TestPretrainStep:

    def batch(self, cfg):
        return [(build_graph(NACL, r=cfg.cutoff, max_neighbors=cfg.max_neighbors),
                 "nacl"),
                (build_graph(FCC_AL, r=cfg.cutoff, max_neighbors=cfg.max_neighbors),
                 "al")]

    def test_weight_accounting(self):
        cfg = dataclasses.replace(TINY, lambda_contrast=1.0, lambda_se3=0.5,
                                  lambda_so3=0.25)
        model = MGTModel(cfg)
        opt = AdamW(model.store.params, lr=1e-3)
        parts = pretrain_step(model, self.batch(cfg), opt, stream(0, "noise"))
        assert parts.total == pytest.approx(
            parts.contrast + 0.5 * parts.se3 + 0.25 * parts.so3, rel=1e-12)
        assert parts.se3 > 0 and parts.so3 > 0 and parts.contrast > 0

    def test_zero_denoise_weights_reduce_to_contrastive(self):
        cfg = dataclasses.replace(TINY, lambda_se3=0.0, lambda_so3=0.0)
        model = MGTModel(cfg)
        opt = AdamW(model.store.params, lr=1e-3)
        parts = pretrain_step(model, self.batch(cfg), opt, stream(0, "noise"))
        assert parts.total == pytest.approx(parts.contrast, rel=1e-12)

    def test_parameters_move(self):
        model = MGTModel(TINY)
        before = {k: p.data.copy() for k, p in model.store.params.items()}
        opt = AdamW(model.store.params, lr=1e-3)
        pretrain_step(model, self.batch(TINY), opt, stream(0, "noise"))
        moved = [k for k, p in model.store.params.items()
                 if not np.array_equal(before[k], p.data)]
        assert len(moved) > 0

    def test_numeric_error_names_the_offending_structure(self):
        model = MGTModel(TINY)
        nacl, al = self.batch(TINY)
        g = nacl[0]
        broken = dataclasses.replace(g, angles=np.full_like(g.angles, np.nan))
        batch = [nacl, (broken, "broken"), al]
        opt = AdamW(model.store.params, lr=1e-3)
        with pytest.raises(NumericError, match="at structure broken$"):
            pretrain_step(model, batch, opt, stream(0, "noise"))


class TestRunPretraining:

    def graphs(self, cfg):
        out = []
        for i, a in enumerate((3.8, 4.0, 4.2, 4.4)):
            s = CrystalStructure((11, 17), [[0, 0, 0], [0.5, 0.5, 0.5]],
                                 np.eye(3) * a)
            out.append((build_graph(s, r=cfg.cutoff,
                                    max_neighbors=cfg.max_neighbors), str(i)))
        return out

    def test_runs_and_logs(self, tmp_path):
        model = MGTModel(TINY)
        log = tmp_path / "pretrain.jsonl"
        history = run_pretraining(model, self.graphs(TINY), log_path=str(log))
        assert len(history) == 2  # 2 epochs x 1 step (batch swallows all 4)
        rows = [json.loads(line) for line in log.read_text().splitlines()]
        assert rows == history
        assert set(rows[0]) == {"step", "lr", "L_total", "L_contrast",
                                "L_SE3", "L_SO3"}
        assert rows[0]["step"] == 1 and rows[1]["step"] == 2

    def test_max_steps_truncates(self):
        model = MGTModel(TINY)
        history = run_pretraining(model, self.graphs(TINY), epochs=50,
                                  max_steps=3)
        assert len(history) == 3

    def test_deterministic_across_runs(self):
        h1 = run_pretraining(MGTModel(TINY), self.graphs(TINY))
        h2 = run_pretraining(MGTModel(TINY), self.graphs(TINY))
        assert h1 == h2

    def test_single_structure_rejected(self):
        model = MGTModel(TINY)
        with pytest.raises(ValueError, match="at least 2"):
            run_pretraining(model, self.graphs(TINY)[:1])


class TestPretrainingTapeMemory:

    def test_live_tape_per_edge_after_a_forward(self):
        """What one pretraining forward at the default config leaves on
        the tape, per directed edge: 21,653 bytes on these 8 cells, where
        one more (E x width) float64 array is 512. With the attention
        chains' keys and values kept rather than recomputed in backward it
        was 29,332 run alone and 28,740 after another test had imported
        `numpy.ma` (which the chain's first call imported through
        `np.unique`); with the edge layer's key, value and angle maps and
        the node layers' edge maps on the tape of their own 33,316, and
        with the tensor product composed from one node per numpy
        operation 41,864."""
        model = MGTModel(RunConfig())
        gen = stream(19, "tape-guard")
        graphs = [model.build_graph(random_structure(gen, 4, 16))
                  for _ in range(8)]
        noise = stream(19, "tape-guard-noise")
        samples = [inject_noise(g, model.cfg.sigma, noise) for g in graphs]
        p = noisy_pack(model, samples)
        edges = sum(g.num_edges for g in graphs)
        tracemalloc.start()
        try:
            total = ssl_losses(model, p, samples, list(range(8)))[0]
            live = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert total.requires_grad and edges > 1000
        assert live / edges < 22_000
