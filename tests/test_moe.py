"""Fusion-head tests: router identities, overrides, the concat baseline."""

import dataclasses

import numpy as np
import pytest

from crysfuse.config import RunConfig
from crysfuse.model import MGTModel
from crysfuse.moe import ConcatHead, MoEHead, _softmax_pair, report_contributions
from crysfuse.nn import ParamStore
from crysfuse.rng import stream
from crysfuse.structures import CrystalStructure
from crysfuse.tensor import Tensor

DIM = 8


def make_head():
    return MoEHead(ParamStore(42), "moe", DIM)


def embeddings(b=5):
    gen = stream(42, "emb")
    return Tensor(gen.normal(size=(b, DIM))), Tensor(gen.normal(size=(b, DIM)))


class TestRouterOverride:

    def test_one_hot_isolates_expert_one(self):
        head = make_head()
        e1, e2 = embeddings()
        pred, scores = head(e1, e2, router_override=np.array([1.0, 0.0]))
        manual = head.f_o(head.expert1(e1))
        assert np.max(np.abs(pred.data - manual.data)) < 1e-12
        assert np.array_equal(scores, np.tile([1.0, 0.0], (5, 1)))

    def test_one_hot_isolates_expert_two(self):
        head = make_head()
        e1, e2 = embeddings()
        pred, _ = head(e1, e2, router_override=np.array([0.0, 1.0]))
        manual = head.f_o(head.expert2(e2))
        assert np.max(np.abs(pred.data - manual.data)) < 1e-12

    def test_negative_and_per_sample_weights(self):
        head = make_head()
        e1, e2 = embeddings(3)
        w = np.array([[-1.0, 2.0], [0.5, 0.5], [0.0, 0.0]])
        pred, scores = head(e1, e2, router_override=w)
        h1, h2 = head.expert1(e1), head.expert2(e2)
        manual = head.f_o(Tensor(w[:, :1]) * h1 + Tensor(w[:, 1:]) * h2)
        assert np.max(np.abs(pred.data - manual.data)) < 1e-12
        assert np.array_equal(scores, w)
        # zero weights: output is exactly the output layer's bias
        assert np.allclose(pred.data[2], head.f_o.bias.data, atol=1e-15)

    def test_learned_scores_shape_and_finiteness(self):
        head = make_head()
        e1, e2 = embeddings(7)
        pred, scores = head(e1, e2, None)
        assert pred.shape == (7, 1)
        assert scores.shape == (7, 2)
        assert np.all(np.isfinite(scores))


class TestSoftmaxPair:

    def test_sums_to_one_and_matches_numpy(self):
        gen = stream(42, "sm")
        a, b = Tensor(gen.normal(size=(6, 1))), Tensor(gen.normal(size=(6, 1)))
        pa, pb = _softmax_pair(a, b)
        assert np.allclose(pa.data + pb.data, 1.0, atol=1e-15)
        expect = np.exp(a.data) / (np.exp(a.data) + np.exp(b.data))
        assert np.allclose(pa.data, expect, atol=1e-12)

    def test_extreme_logits_stay_finite(self):
        pa, pb = _softmax_pair(Tensor(np.array([[1000.0]])),
                               Tensor(np.array([[-1000.0]])))
        assert pa.data[0, 0] == pytest.approx(1.0)
        assert pb.data[0, 0] == pytest.approx(0.0)


class TestConcatHead:

    def test_formula(self):
        head = ConcatHead(ParamStore(42), "concat", DIM)
        e1, e2 = embeddings(4)
        both = np.hstack([e1.data, e2.data])
        hidden = np.logaddexp(0.0, both @ head.lin1.weight.data + head.lin1.bias.data)
        expect = hidden @ head.lin2.weight.data + head.lin2.bias.data
        pred, scores = head(e1, e2, None)
        assert np.allclose(pred.data, expect, atol=1e-14)
        assert scores.shape == (4, 2) and np.all(np.isnan(scores))

    def test_rejects_router_override(self):
        head = ConcatHead(ParamStore(42), "concat", DIM)
        e1, e2 = embeddings(4)
        with pytest.raises(ValueError, match="no router"):
            head(e1, e2, router_override=np.array([1.0, 0.0]))


class TestReportContributions:

    def test_summary_layout(self):
        report = report_contributions("property", np.array([[0.2, 0.8],
                                                            [0.4, 0.6]]))
        assert report["task"] == "property"
        assert report["scores"] == [[0.2, 0.8], [0.4, 0.6]]
        assert report["mean"] == [pytest.approx(0.3), pytest.approx(0.7)]

    def test_rejects_wrong_shape(self):
        with pytest.raises(ValueError, match="score pairs"):
            report_contributions("property", np.zeros((4, 3)))


class TestHeadSwapParity:
    """Same seed, same encoders: only the fusion head differs."""

    def test_upstream_embeddings_identical(self):
        cfg = RunConfig(width=8, num_rbf=4, num_angle_rbf=4, cutoff=3.5,
                        max_neighbors=8, l_max=1, seed=0)
        s = CrystalStructure((11, 17), [[0.0, 0.0, 0.0], [0.5, 0.5, 0.5]],
                             np.eye(3) * 4.0)
        moe_model = MGTModel(cfg)
        cat_model = MGTModel(dataclasses.replace(cfg, head="concat"))
        out_a = moe_model.forward([moe_model.build_graph(s)],
                                  training=False)
        out_b = cat_model.forward([cat_model.build_graph(s)],
                                  training=False)
        assert np.array_equal(out_a.e1.data, out_b.e1.data)
        assert np.array_equal(out_a.e2.data, out_b.e2.data)
        # predictions legitimately differ (different heads)
        assert not np.allclose(out_a.prediction.data, out_b.prediction.data)
