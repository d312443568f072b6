"""Encoder-level tests: shapes, lattice invariants, symmetry spot checks.

The heavyweight symmetry sweeps live in the acceptance tests; here we run the
same checks at tiny sizes plus the structural details the sweeps can't see.
"""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from crysfuse import parallel, se3
from crysfuse.checks import (
    check_permutation_invariance,
    check_periodicity,
    check_se3_invariance,
    check_so3_equivariance,
    degree1_rotation,
    fitted_rotations,
    random_rotation,
    random_structure,
)
from crysfuse.config import RunConfig
from crysfuse.featurize import rbf_expand, uniform_rbf
from crysfuse.model import PREDICT_CHUNK, MGTModel
from crysfuse.nn import ParamStore
from crysfuse.optim import adamw_from_config
from crysfuse.pipeline import transfer_encoder_params
from crysfuse.pretrain import inject_noise, noisy_pack, pretrain_step
from crysfuse.rng import stream
from crysfuse.se3 import SE3EdgeLayer, SE3NodeLayer, lattice_scalars
from crysfuse.so3 import TensorProductLayer
from crysfuse.structures import CrystalStructure
from crysfuse.tensor import Tensor, concat, no_grad, segment_sum

TINY = RunConfig(width=8, num_rbf=4, num_angle_rbf=4, cutoff=3.5,
                 max_neighbors=8, l_max=1, seed=0)

NACL = CrystalStructure(
    (11, 17), [[0.0, 0.0, 0.0], [0.5, 0.5, 0.5]], np.eye(3) * 4.0)


def per_edge(p, rows):
    """Edge-scalar feature rows of the pack `p` read at each directed edge."""
    return rows if p.edge_bond is None else rows[p.edge_bond]


def per_edge_pack(model, graphs):
    """A pack of `graphs` with one row per directed edge and no bond map:
    the layout of a noisy view, here without noise."""
    return model.make_inputs(graphs, angles=[g.angles for g in graphs],
                             so3_distances=[g.distance for g in graphs])


@pytest.fixture()
def model():
    return MGTModel(TINY)


class TestLatticeScalars:

    def spec_fn(self, k=4):
        spec = uniform_rbf(0.0, 3.5, k)
        return lambda x: rbf_expand(x, spec)

    def test_cubic_values(self):
        feats = lattice_scalars(np.eye(3), self.spec_fn())
        assert feats.shape == (3, 6)
        # orthogonal axes: both pairwise cosines are zero
        assert np.allclose(feats[:, 4:], 0.0, atol=1e-15)
        # all three rows identical for a cube
        assert np.allclose(feats[0], feats[1])

    def test_rotation_invariant(self):
        gen = stream(9, "latrot")
        refs = gen.normal(size=(3, 3)) + np.eye(3) * 3
        rot = random_rotation(gen)
        a = lattice_scalars(refs, self.spec_fn())
        b = lattice_scalars(refs @ rot.T, self.spec_fn())
        assert np.max(np.abs(a - b)) < 1e-13

    def test_scale_sensitive(self):
        a = lattice_scalars(np.eye(3), self.spec_fn())
        b = lattice_scalars(2.0 * np.eye(3), self.spec_fn())
        assert not np.allclose(a, b)


class TestShapes:

    def test_encode_shapes(self, model):
        p = model.make_inputs([model.build_graph(NACL)])
        enc = model.encode(p, training=False)
        n, e = 2, len(p.src)
        assert enc.se3_nodes.shape == (n, 8)
        assert per_edge(p, enc.se3_bonds.data).shape == (e, 8)
        assert enc.e1.shape == (1, 8)
        assert enc.e2.shape == (1, 8)
        # l_max=1: degree blocks 0 and 1, channels = width // 4
        assert set(enc.so3.layer1) == {0, 1}
        assert enc.so3.layer1[0].shape == (n, 2, 1)
        assert enc.so3.layer1[1].shape == (n, 2, 3)
        assert enc.so3.layer2_scalars.shape == (n, 2)
        assert enc.so3.nodes.shape == (n, 8)

    def test_forward_batch_shapes(self, model):
        graphs = [model.build_graph(NACL)] * 3
        out = model.forward(graphs, training=False)
        assert out.e1.shape == (3, 8)
        assert out.e2.shape == (3, 8)
        assert out.prediction.shape == (3, 1)
        assert out.scores.shape == (3, 2)

    def test_denoise_head_shapes(self, model):
        p = model.make_inputs([model.build_graph(NACL)])
        enc = model.encode(p, training=False)
        e = len(p.src)
        assert model.predict_angle_noise(enc).shape == (e, 3)
        assert model.predict_distance_noise(enc).shape == (e, 1)

    def test_noisy_input_overrides_land_in_right_views(self, model):
        g = model.build_graph(NACL)
        clean = model.make_inputs([g])
        noisy = model.make_inputs([g], angles=[g.angles + 0.1],
                                  so3_distances=[g.distance + 0.1])
        # invariant-view distances stay clean; angle and radial views move
        assert np.array_equal(per_edge(noisy, noisy.se3_edge_rbf),
                              per_edge(clean, clean.se3_edge_rbf))
        assert not np.array_equal(per_edge(noisy, noisy.se3_angle_rbf),
                                  per_edge(clean, clean.se3_angle_rbf))
        assert not np.array_equal(per_edge(noisy, noisy.so3_edge_rbf),
                                  per_edge(clean, clean.so3_edge_rbf))
        assert np.array_equal(noisy.sh[1], clean.sh[1])  # directions untouched

    def test_clean_distance_views_share_one_expansion(self, model):
        g = model.build_graph(NACL)
        clean = model.make_inputs([g])
        assert clean.so3_edge_rbf is clean.se3_edge_rbf
        # pretraining's noisy view still expands its own distances
        noisy = noisy_pack(model, [inject_noise(g, 0.05, stream(0, "noise"))])
        assert np.array_equal(per_edge(noisy, noisy.se3_edge_rbf),
                              per_edge(clean, clean.se3_edge_rbf))
        assert not np.array_equal(per_edge(noisy, noisy.so3_edge_rbf),
                                  per_edge(clean, clean.so3_edge_rbf))


class TestInputsHoldNormalNumbersOnly:
    """No input array holds a subnormal, at float64 or cast to float32, on
    default-size bases, clean or noisy."""

    THIN = CrystalStructure(
        tuple(int(z) for z in stream(5, "thin").integers(1, 90, 24)),
        stream(6, "thin").uniform(0.0, 1.0, (24, 3)),
        [[3.0, 0.0, 0.0], [1.5, 9.0, 0.0], [-2.0, 2.5, 10.0]])
    # 20 A from its nearest image: the radius grows from 8 A to 27 A
    ISOLATED = CrystalStructure((26,), [[0.0, 0.0, 0.0]], np.eye(3) * 20.0)

    @staticmethod
    def assert_normal(inputs):
        arrays = [inputs.atom_feats, inputs.se3_edge_rbf, inputs.se3_angle_rbf,
                  inputs.lattice_feats, inputs.so3_edge_rbf, *inputs.sh]
        for arr in arrays:
            for x in (arr, arr.astype(np.float32)):
                mag = np.abs(x)
                assert not np.any((mag > 0) & (mag < np.finfo(x.dtype).tiny))

    @pytest.mark.parametrize("s", [THIN, ISOLATED], ids=["thin", "isolated"])
    def test_clean_and_noisy_views(self, s):
        model = MGTModel(RunConfig(seed=0))
        g = model.build_graph(s)
        self.assert_normal(model.make_inputs([g]))
        self.assert_normal(
            noisy_pack(model, [inject_noise(g, 0.05, stream(0, "noise"))]))
        if s is self.ISOLATED:
            assert g.distance.min() == 20.0 > model.cfg.cutoff


class TestPackLayout:
    """A pack keeps every edge on its own structure's rows and holds
    bitwise the features of one pack per structure."""

    @pytest.fixture()
    def graphs(self, model):
        gen = stream(7, "pack-layout")
        graphs = [model.build_graph(s) for s in
                  (NACL, random_structure(gen, 2, 6), random_structure(gen, 2, 6))]
        assert all(g.num_bonds < g.num_edges for g in graphs)
        return graphs

    def test_clean_layout(self, model, graphs):
        p = model.make_inputs(graphs)
        singles = [model.make_inputs([g]) for g in graphs]
        assert np.array_equal(p.bond_graph[p.edge_bond], p.edge_graph)
        assert np.array_equal(
            np.bincount(p.bond_graph, weights=p.bond_weight),
            [g.num_edges for g in graphs])
        for name in ("se3_edge_rbf", "se3_angle_rbf", "so3_edge_rbf"):
            assert np.array_equal(
                getattr(p, name)[p.edge_bond],
                np.concatenate([per_edge(q, getattr(q, name))
                                for q in singles]))

    def test_all_noisy_pack_needs_no_bond_map(self, model, graphs):
        p = per_edge_pack(model, graphs)
        assert p.edge_bond is None and p.bond_weight is None
        assert np.array_equal(p.bond_graph, p.edge_graph)

    @pytest.mark.parametrize("noisy", [False, True], ids=["clean", "noisy"])
    def test_pack_concatenates_single_packs(self, model, graphs, noisy):
        if noisy:
            gen = stream(7, "pack-noise")
            samples = [inject_noise(g, 0.1, gen) for g in graphs]
            p = noisy_pack(model, samples)
            singles = [noisy_pack(model, [s]) for s in samples]
        else:
            p = model.make_inputs(graphs)
            singles = [model.make_inputs([g]) for g in graphs]

        def joined(name, offsets=None):
            parts = [getattr(q, name) for q in singles]
            if offsets is not None:
                parts = [a + o for a, o in zip(parts, offsets)]
            return np.concatenate(parts)

        for name in ("atom_feats", "se3_edge_rbf", "se3_angle_rbf",
                     "lattice_feats", "so3_edge_rbf"):
            assert_same_bits(getattr(p, name), joined(name))
        assert len(p.sh) == len(singles[0].sh)
        for l, block in enumerate(p.sh):
            assert_same_bits(block, np.concatenate([q.sh[l] for q in singles]))
        nodes = np.cumsum([0] + [len(q.atom_feats) for q in singles])
        for name in ("src", "dst"):
            assert_same_bits(getattr(p, name), joined(name, nodes))
        for name in ("node_graph", "edge_graph", "bond_graph"):
            assert_same_bits(getattr(p, name), joined(name, range(len(singles))))
        if noisy:
            assert p.edge_bond is None and p.bond_weight is None
        else:
            rows = np.cumsum([0] + [len(q.se3_edge_rbf) for q in singles])
            assert_same_bits(p.edge_bond, joined("edge_bond", rows))
            assert_same_bits(p.bond_weight, joined("bond_weight"))


class TestPerStructureNormalization:

    def test_batch_order_does_not_leak(self, model):
        other = CrystalStructure((26,), [[0.0, 0.0, 0.0]], np.eye(3) * 3.0)
        a, b = model.build_graph(NACL), model.build_graph(other)
        ab = model.forward([a, b], training=True).prediction.data
        ba = model.forward([b, a], training=True).prediction.data
        assert np.array_equal(ab, ba[::-1])

    @pytest.fixture()
    def mixed(self, model):
        gen = stream(4, "mixed")
        cells = [random_structure(gen, 2, 6) for _ in range(4)]
        cells.insert(1, CrystalStructure((26,), [[0.2, 0.3, 0.4]],
                                         np.eye(3) * 3.0))
        return [model.build_graph(s) for s in cells]

    def test_packed_training_encode_matches_one_at_a_time(self, mixed):
        packed_model, single_model = MGTModel(TINY), MGTModel(TINY)
        packed = packed_model.encode(packed_model.make_inputs(mixed),
                                     training=True)
        singles = [single_model.encode(single_model.make_inputs([g]),
                                       training=True) for g in mixed]
        for get in (lambda enc: enc.e1.data, lambda enc: enc.e2.data,
                    lambda enc: per_edge(enc.pack, enc.se3_bonds.data),
                    lambda enc: enc.so3.nodes.data):
            np.testing.assert_allclose(
                get(packed), np.concatenate([get(s) for s in singles]),
                rtol=1e-12, atol=0)
        # running statistics: one update per structure, in pack order
        for name, buf in packed_model.store.buffers.items():
            np.testing.assert_allclose(buf, single_model.store.buffers[name],
                                       rtol=1e-12, atol=0, err_msg=name)


class TestPackedInference:
    """Packed, tape-free prediction against one structure at a time."""

    @pytest.fixture()
    def graphs(self, model):
        gen = stream(9, "packed")
        cells = [
            CrystalStructure((26,), [[0.2, 0.3, 0.4]], np.eye(3) * 3.0),
            # thin: 1.2 A between faces, under half the 3.5 A cutoff
            CrystalStructure((8, 14), [[0.0, 0.0, 0.0], [0.5, 0.5, 0.5]],
                             np.diag([3.2, 3.6, 1.2])),
        ]
        cells += [random_structure(gen, 8, 8) for _ in range(6)]
        cells += [random_structure(gen, 2, 6) for _ in range(32)]
        assert len(cells) > PREDICT_CHUNK
        return [model.build_graph(s) for s in cells]

    def test_matches_one_at_a_time(self, model, graphs):
        pred, scores = model.predict_batch(graphs)
        assert pred.shape == (len(graphs),) and scores.shape == (len(graphs), 2)
        singles = [model.predict_batch([g]) for g in graphs]
        np.testing.assert_allclose(pred, [p[0] for p, _ in singles],
                                   rtol=1e-12, atol=0)
        np.testing.assert_allclose(scores, np.vstack([s for _, s in singles]),
                                   rtol=1e-12, atol=0)

    def test_reversed_records_reverse_outputs(self, model, graphs):
        pred, scores = model.predict_batch(graphs)
        rpred, rscores = model.predict_batch(graphs[::-1])
        np.testing.assert_allclose(rpred, pred[::-1], rtol=1e-12, atol=0)
        np.testing.assert_allclose(rscores, scores[::-1], rtol=1e-12, atol=0)

    def test_pack_of_one_equals_taped_forward(self, model, graphs):
        for g in graphs[:3]:
            out = model.forward([g], training=False)
            pred, scores = model.predict_batch([g])
            assert np.array_equal(pred, out.prediction.data.ravel())
            assert np.array_equal(scores, out.scores)

    def test_empty_input(self, model):
        pred, scores = model.predict_batch([])
        assert pred.shape == (0,) and scores.shape == (0, 2)


class TestBondRows:
    """One feature row per bond against one per directed edge, on the same
    graphs: the bond map is an optimisation and changes no output."""

    # every edge of these two cells has the same length and angles, so each
    # training-mode batch norm sees a zero-variance group per structure
    ALIKE = [NACL, CrystalStructure((26,), [[0.2, 0.3, 0.4]], np.eye(3) * 3.0)]

    @staticmethod
    def graphs(model, cells):
        graphs = [model.build_graph(s) for s in cells]
        assert sum(g.num_bonds for g in graphs) < sum(g.num_edges for g in graphs)
        return graphs

    @pytest.fixture()
    def general(self):
        gen = stream(11, "bonds")
        return [random_structure(gen, 2, 8) for _ in range(6)]

    @staticmethod
    def inputs(model, graphs, edge_rows):
        """A clean pack, with one row per bond or, with `edge_rows`, one
        per directed edge."""
        return (per_edge_pack(model, graphs) if edge_rows
                else model.make_inputs(graphs))

    @staticmethod
    def eval_outputs(model, p):
        """The eval-mode encoding of `p` and its fused prediction."""
        enc = model.encode(p, training=False)
        return enc, model.fusion(enc.e1, enc.e2, None)[0]

    @staticmethod
    def assert_close(got, want, rtol, floor=0.0):
        """Equal within `rtol` of the larger of `floor` and the largest
        entry of `want`."""
        assert got.shape == want.shape
        assert (np.max(np.abs(got - want), initial=0.0)
                <= rtol * max(np.max(np.abs(want)), floor))

    def test_bond_rows_are_bond_sized(self, model, general):
        graphs = self.graphs(model, self.ALIKE + general)
        for g in graphs:
            p = self.inputs(model, [g], False)
            assert len(p.se3_edge_rbf) == len(p.se3_angle_rbf) == g.num_bonds
            assert p.sh[0].shape[0] == g.num_edges

    def test_eval_outputs_unchanged(self, model, general):
        graphs = self.graphs(model, self.ALIKE + general)
        # one structure at a time, then the whole pack, whose encodings
        # the edge checks below read
        for batch in [[g] for g in graphs] + [graphs]:
            (enc, pred), (ref, ref_pred) = (
                self.eval_outputs(model, self.inputs(model, batch, edge_rows))
                for edge_rows in (False, True))
            for a, b in ((pred, ref_pred), (enc.e1, ref.e1), (enc.e2, ref.e2)):
                self.assert_close(a.data, b.data, 1e-15)
        self.assert_close(per_edge(enc.pack, enc.se3_bonds.data),
                          per_edge(ref.pack, ref.se3_bonds.data), 1e-15)
        self.assert_close(model.predict_distance_noise(enc).data,
                          model.predict_distance_noise(ref).data, 1e-15)

    @staticmethod
    def training_pass(graphs, edge_rows):
        """Loss of one training-mode pass that reaches every parameter (the
        fused prediction and both denoising heads), and the model after its
        backward."""
        gen = stream(11, "bond-probes")
        num_edges = sum(g.num_edges for g in graphs)
        targets = Tensor(gen.normal(size=(len(graphs), 1)))
        probe_theta = Tensor(gen.normal(size=(num_edges, 3)))
        probe_e = Tensor(gen.normal(size=(num_edges, 1)))
        model = MGTModel(TINY)
        enc = model.encode(TestBondRows.inputs(model, graphs, edge_rows),
                           training=True)
        pred, _ = model.fusion(enc.e1, enc.e2, None)
        diff = pred - targets
        loss = ((diff * diff).mean()
                + (model.predict_angle_noise(enc) * probe_theta).sum()
                + (model.predict_distance_noise(enc) * probe_e).sum())
        loss.backward()
        return loss.data, model.store

    # Where a structure's edges are all alike, each group's standardized
    # values are rounding noise scaled by 1/sqrt(eps), so gradients move by
    # about 1e-12 of their largest entry under any change of summation
    # order: reversing the pack order alone moves them by 1.05e-12 with one
    # row per edge. Those cells are held to 1e-10.
    @pytest.mark.parametrize("alike,rtol", [(False, 1e-12), (True, 1e-10)])
    def test_training_losses_and_gradients_unchanged(self, general, alike, rtol):
        cells = self.ALIKE + general if alike else general
        graphs = self.graphs(MGTModel(TINY), cells)
        (loss, store), (ref_loss, ref) = (self.training_pass(graphs, edge_rows)
                                          for edge_rows in (False, True))
        self.assert_close(loss, ref_loss, 1e-12)
        # moe.router_k's bias shifts every router logit alike, so its exact
        # gradient is zero: compare against a millionth of the largest one
        floor = 1e-6 * max(np.max(np.abs(p.grad)) for p in ref.params.values())
        for name, p in ref.params.items():
            assert p.grad is not None, name
            self.assert_close(store.params[name].grad, p.grad, rtol, floor)
        for name, buf in ref.buffers.items():
            self.assert_close(store.buffers[name], buf, rtol)


def assert_same_bits(got, want):
    assert got.shape == want.shape and got.dtype == want.dtype
    assert np.ascontiguousarray(got).tobytes() == np.ascontiguousarray(want).tobytes()


def composed_attention(bn, q, k, v, owner, groups, training, weight=None):
    """se3.gated_sum from tape primitives, with key and value tensors: q
    gathered to the rows of its owner, one batch norm over the rows'
    structures `groups`, summed per owner."""
    logits = q.take(owner) * k * (1.0 / math.sqrt(q.data.shape[1]))
    alpha = bn(logits, groups, training, weight).sigmoid()
    return segment_sum(alpha * v, owner, len(q.data))


def composed_gated_sum(bn, q, k, v, owner, groups, training, weight=None):
    """`composed_attention` on se3.gated_sum's arguments: the (φ, x) pairs
    of keys and values run through `MLP2.__call__` first."""
    return composed_attention(bn, q, k[0](k[1]), v[0](v[1]), owner, groups,
                              training, weight)


class TestFusedAttention:
    """`se3.gated_sum` with each layer's owners, structures, weights and φ
    MLPs, against its composition from tape primitives
    (`composed_gated_sum`) on real packs: outputs, the gradients of q, of
    φ's inputs and parameters, of gamma and beta, and the running
    estimates, all bitwise. A constant key or value comes from a φ whose
    input and parameters ask for no gradient."""

    DIM = 8

    @pytest.fixture(scope="class", params=["bonds", "edges"])
    def pack(self, request):
        """A clean pack with one row per bond and its bond weights, or a
        noisy-view layout with one row per directed edge."""
        model = MGTModel(TINY)
        gen = stream(11, "fused-attention")
        graphs = [model.build_graph(random_structure(gen, 2, 8))
                  for _ in range(5)]
        p = (per_edge_pack(model, graphs) if request.param == "edges"
             else model.make_inputs(graphs))
        assert (p.bond_weight is None) == (request.param == "edges")
        return p

    @staticmethod
    def layer(cls, *args):
        """A new layer with moved batch-norm state."""
        layer = cls(ParamStore(3), "layer", *args)
        gen = stream(3, "bn-state")
        bn = layer.bn_attn
        bn.gamma.data[:] = gen.uniform(0.5, 1.5, bn.gamma.shape)
        bn.beta.data[:] = gen.uniform(-0.5, 0.5, bn.beta.shape)
        bn.running_mean[:] = gen.normal(size=bn.running_mean.shape)
        bn.running_var[:] = gen.uniform(0.5, 2.0, bn.running_var.shape)
        return layer

    def compare(self, mode, constant, new_layer, owner, groups, weight):
        """Run both sides in `mode` on one new layer each, with q of one
        row per owner and φ's inputs of one per row, backpropagate one
        probe, compare."""
        training = mode == "train"
        d = self.DIM
        results = []
        for side in (se3.gated_sum, composed_gated_sum):
            layer = new_layer()
            phis = (layer.phi_k, layer.phi_v)
            gen = stream(3, "attention-leaves")
            q, xk, xv = (Tensor(gen.normal(size=(n, w)),
                                requires_grad=c != constant)
                         for n, w, c in ((owner[-1] + 1, d, "q"),
                                         (len(owner), 3 * d, "k"),
                                         (len(owner), 3 * d, "v")))
            params = [t for phi in phis
                      for t in phi.lin1.params + phi.lin2.params]
            for c, phi in zip("kv", phis):
                for t in phi.lin1.params + phi.lin2.params:
                    t.requires_grad = c != constant
            args = (layer.bn_attn, q, (layer.phi_k, [xk]),
                    (layer.phi_v, [xv]), owner, groups, training,
                    weight if training else None)
            if mode == "eval":
                with no_grad():
                    results.append([side(*args).data])
                continue
            out = side(*args)
            (out * Tensor(gen.normal(size=out.shape))).sum().backward()
            leaves = [q, xk, xv] + params
            assert all((t.grad is None) != t.requires_grad for t in leaves)
            bn = layer.bn_attn
            results.append([out.data, bn.gamma.grad, bn.beta.grad,
                            bn.running_mean, bn.running_var]
                           + [t.grad for t in leaves if t.requires_grad])
        assert len(results[0]) == len(results[1])
        for got, want in zip(*results):
            assert_same_bits(got, want)

    @pytest.mark.parametrize("mode", ["train", "frozen", "eval"])
    @pytest.mark.parametrize("constant", [None, "q", "k", "v"])
    def test_node_layer(self, precision, pack, mode, constant):
        self.compare(mode, constant,
                     lambda: self.layer(SE3NodeLayer, self.DIM),
                     pack.src, pack.edge_graph, None)

    @pytest.mark.parametrize("mode", ["train", "frozen", "eval"])
    @pytest.mark.parametrize("constant", [None, "q", "k", "v"])
    def test_edge_layer(self, precision, pack, mode, constant):
        weight = pack.bond_weight
        self.compare(mode, constant,
                     lambda: self.layer(SE3EdgeLayer, self.DIM, 3, 3),
                     np.repeat(np.arange(len(pack.se3_edge_rbf)), 3),
                     np.repeat(pack.bond_graph, 3),
                     None if weight is None else np.repeat(weight, 3))


def composed_tensor_product(layer, h0, sh, edge_rbf, src, dst,
                            edge_bond=None):
    """TensorProductLayer.__call__ from one tape operation per numpy
    operation, with (N, ch, 2l+1) layer-1 blocks."""
    num_nodes, ch = h0.shape
    num_edges = len(src)
    num_degrees = len(layer.contract_coeffs)
    rbf = [(Tensor(edge_rbf), edge_bond)]
    w1 = layer.expand_weights(rbf).reshape(num_edges, num_degrees, ch)
    w2 = layer.contract_weights(rbf).reshape(num_edges, num_degrees, ch)
    inv_degree = 1.0 / np.bincount(src, minlength=num_nodes)

    def mean_in(msg):
        scale = inv_degree.reshape((num_nodes,) + (1,) * (msg.ndim - 1))
        return segment_sum(msg, src, num_nodes) * Tensor(scale)

    h_dst = h0.take(dst)
    layer1 = {}
    for l, y in enumerate(sh):
        msg = ((h_dst * w1[:, l, :]).reshape(num_edges, ch, 1)
               * Tensor(y[:, None, :]))
        layer1[l] = mean_in(msg)
    layer1[0] = layer1[0] + h0.reshape(num_nodes, ch, 1)

    msg = None
    for l, (y, c) in enumerate(zip(sh, layer.contract_coeffs)):
        dot = (layer1[l].take(dst) * Tensor(c * y[:, None, :])).sum(axis=2)
        term = dot * w2[:, l, :]
        msg = term if msg is None else msg + term
    return layer1, mean_in(msg) + layer1[0].reshape(num_nodes, ch)


class TestFusedTensorProduct:
    """The two-node tensor product against its composition from tape
    primitives, on real packs: h2 and every layer-1 block bitwise, and the
    gradients of h0 and of both weight maps close, through probes on h2 and
    on each block. In a whole training step, where the composition adds
    h0's gradients in the order the fused node does, every parameter
    gradient is bitwise."""

    CFG = dataclasses.replace(TINY, width=16, l_max=2)
    CH = 4

    @pytest.fixture(scope="class", params=["bonds", "edges"])
    def pack(self, request):
        """A clean pack with one radial row per bond, or a noisy-view
        layout with one per directed edge."""
        model = MGTModel(self.CFG)
        gen = stream(13, "fused-tp")
        graphs = [model.build_graph(random_structure(gen, 2, 8))
                  for _ in range(5)]
        p = (per_edge_pack(model, graphs) if request.param == "edges"
             else model.make_inputs(graphs))
        assert (p.edge_bond is None) == (request.param == "edges")
        return p

    def run(self, side, p, mode, constant):
        """Outputs [h2, layer1 blocks...] and gradients [h0, tp1 weight and
        bias, tp2 weight and bias] of one side."""
        layer = TensorProductLayer(ParamStore(5), "tp", channels=self.CH,
                                   num_rbf=p.so3_edge_rbf.shape[1],
                                   l_max=self.CFG.l_max)
        gen = stream(5, "fused-tp-leaves")
        nodes = len(p.atom_feats)
        h0 = Tensor(gen.normal(size=(nodes, self.CH)),
                    requires_grad=not constant)
        args = (h0, p.sh, p.so3_edge_rbf, p.src, p.dst, p.edge_bond)
        if mode == "eval":
            with no_grad():
                layer1, h2 = side(layer, *args)
            assert not h2._prev and not any(b._prev for b in layer1.values())
            return [h2.data] + [b.data for b in layer1.values()], []
        layer1, h2 = side(layer, *args)
        loss = (h2 * Tensor(gen.normal(size=h2.shape))).sum()
        for block in layer1.values():
            loss = loss + (block * Tensor(gen.normal(size=block.shape))).sum()
        loss.backward()
        if constant:
            assert h0.grad is None
        params = layer.expand_weights.params + layer.contract_weights.params
        return ([h2.data] + [b.data for b in layer1.values()],
                [h0.grad] * (not constant) + [t.grad for t in params])

    @pytest.mark.parametrize("mode", ["train", "eval"])
    @pytest.mark.parametrize("constant", [False, True])
    def test_matches_the_composition(self, precision, pack, mode, constant):
        (out, grads), (want_out, want_grads) = (
            self.run(side, pack, mode, constant)
            for side in (TensorProductLayer.__call__, composed_tensor_product))
        assert [b.shape for b in out[1:]] == [
            (len(pack.atom_feats), self.CH, 2 * l + 1)
            for l in range(self.CFG.l_max + 1)]
        for got, want in zip(out, want_out):
            assert_same_bits(got, want)
        assert len(grads) == len(want_grads)
        tol = {"f64": 1e-13, "f32": 1e-6}[precision]
        for got, want in zip(grads, want_grads):
            assert got.dtype == want.dtype
            assert np.max(np.abs(got - want)) <= tol * np.max(np.abs(want))

    @pytest.mark.parametrize("dtype", ["f64", "f32"])
    def test_training_step_gradients_are_bitwise(self, monkeypatch, dtype):
        """A pretraining-style step over noisy per-edge views and a
        fine-tuning-style step over clean per-bond inputs."""
        cfg = dataclasses.replace(self.CFG, precision=dtype)
        gen = stream(17, "fused-tp-step")
        cells = [random_structure(gen, 2, 8) for _ in range(4)]
        grads = []
        for composed in (False, True):
            if composed:
                monkeypatch.setattr(TensorProductLayer, "__call__",
                                    composed_tensor_product)
            model = MGTModel(cfg)
            graphs = [model.build_graph(s) for s in cells]
            noise = stream(17, "fused-tp-noise")
            noisy = noisy_pack(model, [inject_noise(g, 0.1, noise)
                                       for g in graphs])
            clean = model.make_inputs(graphs)
            loss = None
            for p in (noisy, clean):
                enc = model.encode(p, training=True)
                term = ((enc.e1 * enc.e2).sum()
                        + model.predict_distance_noise(enc).sum())
                loss = term if loss is None else loss + term
            loss.backward()
            grads.append({k: p.grad
                          for k, p in model.store.params.items()})
        assert grads[0].keys() == grads[1].keys()
        assert all(grads[0][k] is not None for k in grads[0]
                   if k.startswith("so3."))
        for name, got in grads[0].items():
            if got is None:
                assert grads[1][name] is None, name
            else:
                assert_same_bits(got, grads[1][name])


def uncomposed_edge_layer(layer, e, p, training):
    """SE3EdgeLayer.__call__ with f_k, f_v and f_angle run as maps of their
    own, and each φ run once per channel on (edge ∥ lattice-m ∥ angle-m),
    as the layer ran before composing them; the channels' keys and values
    are then stacked bond-major for the attention, composed from tape
    operations."""
    weight = p.bond_weight if training else None
    q, ke, ve = layer.f_q(e), layer.f_k(e), layer.f_v(e)
    keys, values = [], []
    for m in range(3):
        ang = layer.f_angle(Tensor(p.se3_angle_rbf[:, m, :]))
        lat = Tensor(p.lattice_feats[:, m, :])
        keys.append(layer.phi_k(
            [ke, (layer.f_k_lat[m](lat), p.bond_graph), ang]))
        values.append(layer.phi_v(
            [ve, (layer.f_v_lat[m](lat), p.bond_graph), ang]))

    def stack(channels):
        return concat(channels, axis=1).reshape(-1, layer.dim)

    msg = composed_attention(
        layer.bn_attn, q, stack(keys), stack(values),
        np.repeat(np.arange(len(q.data)), 3), np.repeat(p.bond_graph, 3),
        training, None if weight is None else np.repeat(weight, 3))
    return (e + layer.bn_msg(msg, p.bond_graph, training, weight)).softplus()


def uncomposed_node_layer(layer, h, e, p, training):
    """SE3NodeLayer.__call__ with f_e run as a map of its own, and the
    attention composed from tape operations."""
    q = layer.f_q(h)
    fe = (layer.f_e(e), p.edge_bond)
    k = layer.phi_k([(layer.f_k_ctr(h), p.src), (layer.f_k_nbr(h), p.dst), fe])
    v = layer.phi_v([(layer.f_v_ctr(h), p.src), (layer.f_v_nbr(h), p.dst), fe])
    msg = composed_attention(layer.bn_attn, q, k, v, p.src, p.edge_graph,
                             training)
    return (h + layer.bn_msg(msg, p.node_graph, training)).softplus()


class TestComposedMaps:
    """An edge layer and a node layer, whose edge-side maps run composed
    with φ's first layer, against the same layers with those maps run on
    their own and the attention composed from tape operations
    (`composed_attention`): outputs within 1e-13, every parameter and
    input gradient within 1e-12, each relative to its largest entry, and
    the batch-norm running estimates within 1e-13, on clean and
    noisy-layout packs, in training and in eval (frozen statistics, with
    gradients)."""

    DIM = 16

    @pytest.fixture(scope="class", params=["bonds", "edges"])
    def pack(self, request):
        model = MGTModel(TINY)
        gen = stream(13, "composed-maps")
        graphs = [model.build_graph(random_structure(gen, 2, 8))
                  for _ in range(5)]
        return (per_edge_pack(model, graphs) if request.param == "edges"
                else model.make_inputs(graphs))

    def run(self, p, training, composed):
        """(outputs, parameter gradients, input gradients, buffers) of one
        edge layer feeding one node layer."""
        store = ParamStore(13)
        d = self.DIM
        edge = SE3EdgeLayer(store, "edge", d, p.lattice_feats.shape[2],
                            p.se3_angle_rbf.shape[2])
        node = SE3NodeLayer(store, "node", d)
        gen = stream(13, "composed-maps-leaves")
        for bn in (edge.bn_attn, edge.bn_msg, node.bn_attn, node.bn_msg):
            bn.running_mean[:] = gen.normal(size=d)
            bn.running_var[:] = gen.uniform(0.5, 2.0, d)
        e = Tensor(gen.normal(size=(len(p.se3_edge_rbf), d)),
                   requires_grad=True)
        h = Tensor(gen.normal(size=(len(p.atom_feats), d)), requires_grad=True)
        if composed:
            e_out = edge(e, p, training)
            h_out = node(h, e_out, p, training)
        else:
            e_out = uncomposed_edge_layer(edge, e, p, training)
            h_out = uncomposed_node_layer(node, h, e_out, p, training)
        ((e_out * Tensor(gen.normal(size=e_out.shape))).sum()
         + (h_out * Tensor(gen.normal(size=h_out.shape))).sum()).backward()
        return ([e_out.data, h_out.data],
                {name: t.grad for name, t in store.params.items()},
                [e.grad, h.grad], store.buffers)

    @staticmethod
    def assert_close(got, want, rtol):
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) <= rtol * np.max(np.abs(want))

    @pytest.mark.parametrize("training", [True, False])
    def test_matches_the_uncomposed_maps(self, pack, training):
        (out, grads, inputs, bufs), (want_out, want_grads, want_inputs,
                                     want_bufs) = (
            self.run(pack, training, composed) for composed in (True, False))
        for got, want in zip(out, want_out):
            self.assert_close(got, want, 1e-13)
        assert grads.keys() == want_grads.keys()
        for name in ("edge.f_k", "edge.f_v", "edge.f_angle", "node.f_e"):
            assert grads[name + ".weight"] is not None
            assert grads[name + ".bias"] is not None
        for name, want in want_grads.items():
            self.assert_close(grads[name], want, 1e-12)
        for got, want in zip(inputs, want_inputs):
            self.assert_close(got, want, 1e-12)
        for name, want in want_bufs.items():
            self.assert_close(bufs[name], want, 1e-13)


class TestProductCount:
    """Row products of a default-config model on a fixed 8-cell pack (1,158
    bonds, 2,200 directed edges): the rows of every `np.matmul` whose first
    operand is row-major, summed, with every kernel in one part, so that
    the sum does not depend on the CPU count. Weight gradients (x.T @ g)
    are left out; products of two weights add their 64 or so rows. An
    eval forward multiplies 52,618 rows (45.44 in bond-row units) and a
    pretraining step 185,624 (160.30). 30,800 of those, 14 per directed
    edge, recompute the attention chains' keys and values in backward: a
    step that kept them took 154,824 (133.70). Cutting a product into
    tiles moves no row, and a change that adds a product back fails here.
    Counted as calls over at least 1,158 rows, composing the maps that
    meet no nonlinearity and stacking the edge layer's channels took an
    eval forward from 48 products to 27 and a pretraining step from 96 to
    55, or 55.2 to 42.2 and 182.4 to 127.3 bond rows."""

    @pytest.fixture()
    def counted(self, monkeypatch):
        monkeypatch.setattr(parallel, "usable_cpus", lambda: 1)
        model = MGTModel(RunConfig())
        gen = stream(23, "product-count")
        graphs = [model.build_graph(random_structure(gen, 4, 16))
                  for _ in range(8)]
        assert sum(g.num_bonds for g in graphs) == 1158
        seen = []
        matmul = np.matmul

        def spy(a, *args, **kwargs):
            if np.ndim(a) == 2 and a.strides[0] >= a.strides[1]:
                seen.append(len(a))
            return matmul(a, *args, **kwargs)

        monkeypatch.setattr(np, "matmul", spy)
        return model, graphs, seen

    def test_eval_forward(self, counted):
        model, graphs, seen = counted
        model.predict_batch(graphs)
        assert sum(seen) == 52_618

    def test_pretraining_step(self, counted):
        model, graphs, seen = counted
        opt = adamw_from_config(model.store.params, model.cfg, 1e-5)
        pretrain_step(model, [(g, f"c{i}") for i, g in enumerate(graphs)],
                      opt, stream(23, "product-count-noise"))
        assert sum(seen) == 185_624


class TestEvalMemory:

    def test_traced_peak_per_edge_of_an_eval_forward(self, monkeypatch):
        """The tracemalloc peak of one eval forward over TestProductCount's
        8 cells (2,200 directed edges) at one usable CPU, per directed
        edge: 3,248 bytes, where one (E x width) float64 array is 512.
        With each attention block's φ keys and values, logits and gates
        held as whole arrays, before they were run a tile at a time, it
        was 6,456."""
        monkeypatch.setattr(parallel, "usable_cpus", lambda: 1)
        model = MGTModel(RunConfig())
        gen = stream(23, "product-count")
        graphs = [model.build_graph(random_structure(gen, 4, 16))
                  for _ in range(8)]
        edges = sum(g.num_edges for g in graphs)
        model.predict_batch(graphs)  # caches and tables built once
        tracemalloc.start()
        try:
            model.predict_batch(graphs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert edges == 2200
        assert peak / edges < 3_600


class TestSymmetrySpotChecks:
    """Tiny-size versions of the full audits (those run in acceptance)."""

    def test_se3_invariance(self, model):
        res = check_se3_invariance(model, num_structures=2,
                                   actions_per_structure=2, seed=1)
        assert res.passed, res.detail

    def test_so3_equivariance(self, model):
        res = check_so3_equivariance(model, num_rotations=2, seed=1,
                                     num_structures=2)
        assert res.passed, res.detail

    @pytest.mark.parametrize("l_max", [2, 3])
    def test_so3_equivariance_at_every_degree(self, l_max):
        model = MGTModel(dataclasses.replace(TINY, l_max=l_max))
        res = check_so3_equivariance(model, num_rotations=2, seed=1,
                                     num_structures=2)
        assert res.passed, res.detail
        by_degree = res.detail.split("by degree ")[1].split(", vector")[0]
        assert len(by_degree.split(", ")) == l_max + 1

    def test_fitted_rotations_are_the_degree_rotations(self):
        rot = random_rotation(stream(1, "fitted-rotations"))
        fitted = fitted_rotations(rot, 3)
        assert fitted[0].shape == (1, 1) and abs(fitted[0][0, 0] - 1.0) < 1e-14
        assert np.max(np.abs(fitted[1] - degree1_rotation(rot))) < 1e-14
        for d in fitted:
            assert np.max(np.abs(d @ d.T - np.eye(len(d)))) < 1e-13

    def test_permutation_invariance(self, model):
        res = check_permutation_invariance(model, num_structures=3, seed=1)
        assert res.passed, res.detail

    def test_periodicity(self, model):
        res = check_periodicity(model, num_structures=3, seed=1)
        assert res.passed, res.detail


class TestTensorProductLayer:

    def test_width_must_divide_by_four(self):
        bad = dataclasses.replace(TINY, width=10)
        assert any("divisible by 4" in e for e in bad.validate())

    def test_so3_names_and_shapes_are_pinned(self, model):
        # format-v1 checkpoints store parameters and buffers by these names
        nl = "so3.node_layers.0."
        want = {
            "so3.scalar_proj.weight": (100, 2), "so3.scalar_proj.bias": (2,),
            "so3.tp1.weights.weight": (4, 4), "so3.tp1.weights.bias": (4,),
            "so3.tp2.weights.weight": (4, 4), "so3.tp2.weights.bias": (4,),
            "so3.bn_read.gamma": (2,), "so3.bn_read.beta": (2,),
            "so3.f_read.weight": (2, 2), "so3.f_read.bias": (2,),
            "so3.scalar_lift.weight": (2, 8), "so3.scalar_lift.bias": (8,),
            "so3.edge_proj.weight": (4, 8), "so3.edge_proj.bias": (8,),
            **{nl + f"{lin}.{p}": (8, 8) if p == "weight" else (8,)
               for lin in ("f_q", "f_k_ctr", "f_k_nbr", "f_v_ctr", "f_v_nbr",
                           "f_e", "phi_k.lin2", "phi_v.lin2")
               for p in ("weight", "bias")},
            nl + "phi_k.lin1.weight": (24, 8), nl + "phi_k.lin1.bias": (8,),
            nl + "phi_v.lin1.weight": (24, 8), nl + "phi_v.lin1.bias": (8,),
            **{nl + f"{bn}.{p}": (8,) for bn in ("bn_attn", "bn_msg")
               for p in ("gamma", "beta")},
            "so3.head.lin1.weight": (8, 8), "so3.head.lin1.bias": (8,),
            "so3.head.bias2": (8,), "so3.head.lin2.weight": (8, 8),
            "so3.head.norm.gamma": (8,), "so3.head.norm.beta": (8,),
        }
        got = {k: p.shape for k, p in model.store.params.items()
               if k.startswith("so3.")}
        assert got == want
        buffers = {k: b.shape for k, b in model.store.buffers.items()
                   if k.startswith("so3.")}
        assert buffers == {
            f"{prefix}.{stat}": (width,)
            for prefix, width in (("so3.bn_read", 2), (nl + "bn_attn", 8),
                                  (nl + "bn_msg", 8))
            for stat in ("running_mean", "running_var")}


class TestPrecisionSwitch:

    def test_f32_model_params_are_f32(self):
        m32 = MGTModel(dataclasses.replace(TINY, precision="f32"))
        assert all(p.data.dtype == np.float32
                   for p in m32.store.params.values())
        pred = m32.predict_batch([m32.build_graph(NACL)])[0]
        assert pred.dtype == np.float32

    def test_each_model_computes_at_its_own_precision(self):
        """Building an f32 model changes neither an earlier f64 model's
        predictions nor the dtype an f64 model receives in a transfer."""
        m64, dst = MGTModel(TINY), MGTModel(TINY)
        before = m64.predict_batch([m64.build_graph(NACL)])[0]
        m32 = MGTModel(dataclasses.replace(TINY, precision="f32"))
        transfer_encoder_params(dst, m32)
        assert all(p.data.dtype == np.float64
                   for p in dst.store.params.values())
        after = m64.predict_batch([m64.build_graph(NACL)])[0]
        assert after.dtype == np.float64
        assert np.array_equal(after, before)
        assert m32.predict_batch([m32.build_graph(NACL)])[0].dtype == np.float32

    def test_denoising_heads_compute_at_their_models_precision(self):
        """An f64 model's denoising heads on its own encoding stay float64,
        bit for bit, when an f32 model encodes in between."""
        m64 = MGTModel(TINY)
        enc = m64.encode(m64.make_inputs([m64.build_graph(NACL)]),
                         training=False)
        heads = (m64.predict_angle_noise, m64.predict_distance_noise)
        before = [head(enc).data for head in heads]
        m32 = MGTModel(dataclasses.replace(TINY, precision="f32"))
        m32.encode(m32.make_inputs([m32.build_graph(NACL)]), training=False)
        for head, want in zip(heads, before):
            got = head(enc).data
            assert want.dtype == got.dtype == np.float64
            assert got.tobytes() == want.tobytes()

    def test_f64_is_default(self, model):
        assert all(p.data.dtype == np.float64
                   for p in model.store.params.values())
