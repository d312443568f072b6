"""Dataset IO, splits, metrics, checkpoints, and the fine-tuning loop."""

import json
import os
import platform
import re
import sys

import numpy as np
import pytest

from crysfuse.config import RunConfig
from crysfuse.errors import DataError, NumericError
from crysfuse.model import MGTModel
from crysfuse import pipeline
from crysfuse.optim import AdamW
from crysfuse.pipeline import (
    Normalizer,
    Record,
    evaluate_records,
    finetune,
    finetune_step,
    load_checkpoint,
    load_jsonl,
    predict_records,
    regression_metrics,
    save_checkpoint,
    split_dataset,
    transfer_encoder_params,
)
from crysfuse.structures import CrystalStructure
from crysfuse.tensor import Tensor

TINY = dict(width=8, num_rbf=4, num_angle_rbf=4, cutoff=3.5,
            max_neighbors=8, l_max=1, seed=0, precision="f64")


def rocksalt(a=3.0, z=(11, 17)):
    return CrystalStructure(z, [[0, 0, 0], [0.5, 0.5, 0.5]], np.eye(3) * a)


def toy_records(n=6):
    recs = []
    for i in range(n):
        a = 2.8 + 0.2 * i
        recs.append(Record(f"s{i}", rocksalt(a), target=float(a) / 2))
    return recs


@pytest.fixture
def model():
    return MGTModel(RunConfig(**TINY))


class TestLoadJsonl:
    def _write(self, tmp_path, lines):
        path = os.path.join(tmp_path, "data.jsonl")
        with open(path, "w") as fh:
            fh.write("\n".join(lines) + "\n")
        return path

    def _row(self, **extra):
        obj = {"species": [11, 17],
               "frac_coords": [[0, 0, 0], [0.5, 0.5, 0.5]],
               "lattice": [[3, 0, 0], [0, 3, 0], [0, 0, 3]]}
        obj.update(extra)
        return json.dumps(obj)

    def test_reads_rows(self, tmp_path):
        path = self._write(tmp_path, [
            self._row(id="a", target=1.5),
            "",  # blank lines are skipped
            self._row(target=2),
        ])
        recs = load_jsonl(path)
        assert [r.id for r in recs] == ["a", "3"]  # default id = line number
        assert recs[0].target == 1.5
        assert recs[1].target == 2.0
        assert tuple(recs[0].structure.species) == (11, 17)

    def test_target_optional(self, tmp_path):
        recs = load_jsonl(self._write(tmp_path, [self._row()]))
        assert recs[0].target is None

    def test_invalid_json_names_line(self, tmp_path):
        path = self._write(tmp_path, [self._row(), "{not json"])
        with pytest.raises(DataError, match="line 2"):
            load_jsonl(path)

    def test_bad_structure_names_line(self, tmp_path):
        path = self._write(tmp_path, [json.dumps({"species": [11]})])
        with pytest.raises(DataError, match="line 1"):
            load_jsonl(path)

    def test_boolean_target_rejected(self, tmp_path):
        path = self._write(tmp_path, [self._row(target=True)])
        with pytest.raises(DataError, match="target must be a number"):
            load_jsonl(path)

    def test_non_finite_target_rejected(self, tmp_path):
        path = self._write(tmp_path, [self._row(target=float("nan"))])
        with pytest.raises(DataError, match="non-finite target"):
            load_jsonl(path)

    def test_empty_file(self, tmp_path):
        path = os.path.join(tmp_path, "empty.jsonl")
        open(path, "w").close()
        with pytest.raises(DataError, match="empty dataset"):
            load_jsonl(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataError, match="cannot read dataset"):
            load_jsonl(os.path.join(tmp_path, "nope.jsonl"))


class TestSplitDataset:
    def test_counts_ten(self):
        tr, va, te = split_dataset(toy_records(10), 0, 0.8, 0.1, 0.1)
        assert (len(tr), len(va), len(te)) == (8, 1, 1)

    def test_remainder_goes_to_train(self):
        tr, va, te = split_dataset(toy_records(11), 0, 0.8, 0.1, 0.1)
        assert (len(tr), len(va), len(te)) == (9, 1, 1)

    def test_disjoint_and_covering(self):
        recs = toy_records(10)
        tr, va, te = split_dataset(recs, 5, 0.8, 0.1, 0.1)
        ids = [r.id for r in tr + va + te]
        assert sorted(ids) == sorted(r.id for r in recs)
        assert len(set(ids)) == len(ids)

    def test_deterministic_in_seed(self):
        recs = toy_records(10)
        a = split_dataset(recs, 3, 0.8, 0.1, 0.1)
        b = split_dataset(recs, 3, 0.8, 0.1, 0.1)
        assert [r.id for r in a[0]] == [r.id for r in b[0]]
        c = split_dataset(recs, 4, 0.8, 0.1, 0.1)
        assert [r.id for r in a[0]] != [r.id for r in c[0]]

    def test_ratios_must_sum_to_one(self):
        with pytest.raises(DataError, match="sum to 1"):
            split_dataset(toy_records(10), 0, 0.8, 0.1, 0.2)

    def test_empty_split_rejected(self):
        # 5 records at 10% val floors to zero.
        with pytest.raises(DataError, match="val split is empty"):
            split_dataset(toy_records(5), 0, 0.8, 0.1, 0.1)


class TestNormalizer:
    def test_round_trip(self):
        norm = Normalizer.fit([1.0, 2.0, 4.0])
        y = np.array([0.5, 3.7, -2.0])
        assert np.allclose(norm.denormalize(norm.normalize(y)), y, atol=1e-12)

    def test_fit_values(self):
        norm = Normalizer.fit([1.0, 3.0])
        assert norm.mean == 2.0
        assert norm.std == 1.0

    def test_constant_targets_rejected(self):
        with pytest.raises(DataError, match="constant"):
            Normalizer.fit([2.0, 2.0, 2.0])

    def test_empty_rejected(self):
        with pytest.raises(DataError, match="without targets"):
            Normalizer.fit([])

    def test_non_finite_rejected(self):
        with pytest.raises(DataError, match="non-finite"):
            Normalizer.fit([1.0, float("inf")])


class TestRegressionMetrics:
    def test_hand_oracle(self):
        # errors (0, 0, 1): MAE 1/3, RMSE sqrt(1/3), R^2 = 1 - 1/2
        m = regression_metrics([1, 2, 3], [1, 2, 4])
        assert abs(m["mae"] - 1 / 3) < 1e-15
        assert abs(m["rmse"] - np.sqrt(1 / 3)) < 1e-15
        assert abs(m["r2"] - 0.5) < 1e-15

    def test_perfect(self):
        m = regression_metrics([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])
        assert m == {"mae": 0.0, "rmse": 0.0, "r2": 1.0}

    def test_mean_prediction_gives_zero_r2(self):
        m = regression_metrics([1.0, 2.0, 3.0], [2.0, 2.0, 2.0])
        assert abs(m["r2"]) < 1e-15

    def test_constant_targets_make_r2_undefined(self):
        assert regression_metrics([2.0, 2.0], [1.0, 3.0])["r2"] is None

    def test_length_mismatch(self):
        with pytest.raises(DataError, match="2 targets vs 3 predictions"):
            regression_metrics([1, 2], [1, 2, 3])

    def test_empty(self):
        with pytest.raises(DataError, match="empty split"):
            regression_metrics([], [])


class TestCheckpoints:
    def _f32_model(self):
        return MGTModel(RunConfig(**{**TINY, "precision": "f32", "seed": 7}))

    def test_round_trip_bitwise(self, tmp_path):
        model = self._f32_model()
        recs = toy_records(3)
        before = predict_records(model, recs, None)
        save_checkpoint(model, str(tmp_path / "ck"))
        loaded, norm = load_checkpoint(str(tmp_path / "ck"))
        assert norm is None
        after = predict_records(loaded, recs, None)
        got = np.array([r["prediction"] for r in after], dtype=np.float32)
        want = np.array([r["prediction"] for r in before], dtype=np.float32)
        assert np.array_equal(got, want)
        assert loaded.cfg == model.cfg

    def test_normalizer_round_trip(self, tmp_path):
        model = self._f32_model()
        save_checkpoint(model, str(tmp_path / "ck"),
                        Normalizer(mean=1.25, std=0.5))
        _, norm = load_checkpoint(str(tmp_path / "ck"))
        assert (norm.mean, norm.std) == (1.25, 0.5)

    def test_truncated_payload(self, tmp_path):
        model = self._f32_model()
        save_checkpoint(model, str(tmp_path / "ck"))
        payload = tmp_path / "ck" / "params.bin"
        payload.write_bytes(payload.read_bytes()[:-8])
        with pytest.raises(DataError, match="truncated or corrupt"):
            load_checkpoint(str(tmp_path / "ck"))

    def test_version_gate(self, tmp_path):
        model = self._f32_model()
        save_checkpoint(model, str(tmp_path / "ck"))
        mpath = tmp_path / "ck" / "manifest.json"
        manifest = json.loads(mpath.read_text())
        manifest["format_version"] = 999
        mpath.write_text(json.dumps(manifest))
        with pytest.raises(DataError, match="version 999 unsupported"):
            load_checkpoint(str(tmp_path / "ck"))

    def test_shape_mismatch(self, tmp_path):
        model = self._f32_model()
        save_checkpoint(model, str(tmp_path / "ck"))
        mpath = tmp_path / "ck" / "manifest.json"
        manifest = json.loads(mpath.read_text())
        # swap one parameter's declared shape without touching the payload size
        entry = next(e for e in manifest["params"] if len(e["shape"]) == 2)
        entry["shape"] = entry["shape"][::-1]
        ok = entry["shape"][0] != entry["shape"][1]
        mpath.write_text(json.dumps(manifest))
        if ok:
            with pytest.raises(DataError, match="shape mismatch"):
                load_checkpoint(str(tmp_path / "ck"))

    @pytest.mark.parametrize("change,message", [("missing", "1 missing buffers"),
                                                ("extra", "1 unknown buffers")],
                             ids=["missing", "extra"])
    def test_manifest_buffers_must_match_the_model(self, tmp_path, change,
                                                   message):
        """A buffer left out of the manifest, or one the model lacks (here a
        parameter's name listed again as a buffer), rejects the load even
        when the payload length agrees with the manifest."""
        model = self._f32_model()
        save_checkpoint(model, str(tmp_path / "ck"))
        mpath = tmp_path / "ck" / "manifest.json"
        payload = tmp_path / "ck" / "params.bin"
        manifest = json.loads(mpath.read_text())
        values = np.frombuffer(payload.read_bytes(), dtype="<f4")
        if change == "missing":
            gone = manifest["buffers"].pop()
            values = values[:-int(np.prod(gone["shape"]))]
        else:
            first = manifest["params"][0]
            manifest["buffers"].append(first)
            values = np.concatenate([values, values[:int(np.prod(first["shape"]))]])
        mpath.write_text(json.dumps(manifest))
        payload.write_bytes(values.tobytes())
        with pytest.raises(DataError, match=message):
            load_checkpoint(str(tmp_path / "ck"))

    def test_save_load_save_is_byte_identical(self, tmp_path):
        model = MGTModel(RunConfig(**TINY))
        model.forward([model.build_graph(r.structure) for r in toy_records(3)],
                      training=True)  # running statistics off their init
        save_checkpoint(model, str(tmp_path / "a"), Normalizer(mean=0.5, std=2.0))
        loaded, norm = load_checkpoint(str(tmp_path / "a"))
        save_checkpoint(loaded, str(tmp_path / "b"), norm)
        for name in ("params.bin", "manifest.json"):
            assert ((tmp_path / "a" / name).read_bytes()
                    == (tmp_path / "b" / name).read_bytes()), name

    @pytest.mark.parametrize("edit,message", [
        (lambda m: [m], "manifest is not a JSON object"),
        (lambda m: {**m, "params": [{"name": m["params"][0]["name"]},
                                    *m["params"][1:]]},
         "manifest 'params' must be a list of {name, shape} entries"),
        (lambda m: {**m, "buffers": {"x": [1]}},
         "manifest 'buffers' must be a list"),
        (lambda m: {**m, "params": [m["params"][0], *m["params"]]},
         "manifest 'params' lists a name twice"),
        (lambda m: {**m, "normalizer": [0.5, 2.0]},
         "normalizer must be null or {mean, std}"),
        (lambda m: {**m, "normalizer": {"mean": 0.5}},
         "normalizer must be null or {mean, std}"),
    ], ids=["list", "entry-without-shape", "buffers-object", "name-twice",
            "normalizer-list", "normalizer-without-std"])
    def test_malformed_manifest_is_data_error(self, tmp_path, edit, message):
        save_checkpoint(self._f32_model(), str(tmp_path / "ck"),
                        Normalizer(mean=0.5, std=2.0))
        mpath = tmp_path / "ck" / "manifest.json"
        mpath.write_text(json.dumps(edit(json.loads(mpath.read_text()))))
        with pytest.raises(DataError, match=re.escape(message)) as info:
            load_checkpoint(str(tmp_path / "ck"))
        assert str(tmp_path / "ck") in str(info.value)

    def test_manifest_with_rng_seed_still_loads(self, tmp_path):
        """Checkpoints once repeated the config's seed as "rng_seed"."""
        model = self._f32_model()
        save_checkpoint(model, str(tmp_path / "ck"))
        mpath = tmp_path / "ck" / "manifest.json"
        manifest = json.loads(mpath.read_text())
        assert "rng_seed" not in manifest
        mpath.write_text(json.dumps({**manifest, "rng_seed": model.cfg.seed}))
        loaded, _ = load_checkpoint(str(tmp_path / "ck"))
        assert loaded.cfg == model.cfg

    def test_missing_manifest(self, tmp_path):
        with pytest.raises(DataError, match="cannot read checkpoint"):
            load_checkpoint(str(tmp_path / "nothing"))


class TestTransfer:
    def test_encoders_copied_heads_kept(self):
        src = MGTModel(RunConfig(**{**TINY, "seed": 1}))
        dst = MGTModel(RunConfig(**{**TINY, "seed": 2}))
        head_before = {n: p.data.copy() for n, p in dst.store.params.items()
                       if not n.startswith(("se3.", "so3."))}
        copied = transfer_encoder_params(dst, src)
        assert copied
        assert all(n.startswith(("se3.", "so3.")) for n in copied)
        for name in copied:
            if name in src.store.params:
                assert np.array_equal(dst.store.params[name].data,
                                      src.store.params[name].data)
        for name, data in head_before.items():
            assert np.array_equal(dst.store.params[name].data, data), name

    def test_projection_heads_travel_with_encoders(self):
        src = MGTModel(RunConfig(**{**TINY, "seed": 1}))
        dst = MGTModel(RunConfig(**{**TINY, "seed": 2}))
        copied = transfer_encoder_params(dst, src)
        assert any("proj" in n for n in copied)

    def test_shape_mismatch_rejected(self):
        src = MGTModel(RunConfig(**{**TINY, "num_rbf": 8}))
        dst = MGTModel(RunConfig(**TINY))
        with pytest.raises(DataError, match="mismatch"):
            transfer_encoder_params(dst, src)

    @pytest.mark.parametrize("src_layers,dst_layers", [(1, 3), (3, 1)],
                             ids=["shallower", "deeper"])
    def test_other_depth_rejected_with_target_untouched(self, src_layers,
                                                        dst_layers):
        src = MGTModel(RunConfig(**{**TINY, "seed": 1,
                                    "se3_node_layers": src_layers}))
        dst = MGTModel(RunConfig(**{**TINY, "seed": 2,
                                    "se3_node_layers": dst_layers}))
        src.forward([src.build_graph(r.structure) for r in toy_records(3)],
                    training=True)  # running statistics off their init
        params = {n: p.data.tobytes() for n, p in dst.store.params.items()}
        buffers = {n: b.tobytes() for n, b in dst.store.buffers.items()}
        with pytest.raises(DataError, match=r"se3\.node_layers\.1\."):
            transfer_encoder_params(dst, src)
        assert dst.frozen_encoder_stats is False
        assert {n: p.data.tobytes() for n, p in dst.store.params.items()} == params
        assert {n: b.tobytes() for n, b in dst.store.buffers.items()} == buffers

    def test_transferred_batch_statistics_stay_frozen(self):
        src = MGTModel(RunConfig(**{**TINY, "seed": 1}))
        dst = MGTModel(RunConfig(**{**TINY, "seed": 2}))
        recs = toy_records(3)
        graphs = [dst.build_graph(r.structure) for r in recs]
        encoder_buffers = [n for n in src.store.buffers
                           if n.startswith(("se3.", "so3."))]
        assert encoder_buffers
        # Without a transfer, a training pass standardizes per structure
        # and folds the batch statistics into the running estimates.
        init = {n: src.store.buffers[n].copy() for n in encoder_buffers}
        src.forward(graphs, training=True)
        for name in encoder_buffers:
            assert not np.array_equal(src.store.buffers[name], init[name]), name

        transfer_encoder_params(dst, src)
        train = dst.forward(graphs, training=True)
        evaluated = dst.forward(graphs, training=False)
        for got, want in ((train.e1, evaluated.e1), (train.e2, evaluated.e2),
                          (train.prediction, evaluated.prediction)):
            assert np.array_equal(got.data, want.data)

        stats = {n: dst.store.buffers[n].copy() for n in encoder_buffers}
        opt = AdamW(dst.store.params, lr=1e-3)
        finetune_step(dst, graphs, np.array([0.1, -0.4, 0.3]),
                      [r.id for r in recs], opt)
        for name in encoder_buffers:
            assert np.array_equal(dst.store.buffers[name], stats[name]), name


class TestFinetuneStep:
    def test_matches_manual_forward(self, model):
        recs = toy_records(3)
        graphs = [model.build_graph(r.structure) for r in recs]
        y = np.array([0.1, -0.4, 0.3])
        out = model.forward(graphs, training=True)
        diff = out.prediction.data.ravel() - y
        want_mse = float(np.mean(diff ** 2))
        want_mae = float(np.mean(np.abs(diff)))
        opt = AdamW(model.store.params, lr=1e-3)
        before = model.store.params["moe.f_o.weight"].data.copy()
        mse, mae = finetune_step(model, graphs, y, [r.id for r in recs], opt)
        assert abs(mse - want_mse) < 1e-12
        assert abs(mae - want_mae) < 1e-12
        assert not np.array_equal(
            model.store.params["moe.f_o.weight"].data, before)

    def test_gradients_clipped_to_bound(self, monkeypatch):
        recs = toy_records(3)
        y = np.array([0.1, -0.4, 0.3])
        grads = {}
        for bound in (np.inf, 1e-6):
            monkeypatch.setattr(pipeline, "FINETUNE_CLIP_NORM", bound)
            m = MGTModel(RunConfig(**TINY))
            graphs = [m.build_graph(r.structure) for r in recs]
            opt = AdamW(m.store.params, lr=1e-3)
            finetune_step(m, graphs, y, [r.id for r in recs], opt)
            grads[bound] = {n: p.grad for n, p in m.store.params.items()
                            if p.grad is not None}
        free, clipped = grads[np.inf], grads[1e-6]
        assert free.keys() == clipped.keys()
        norm = np.sqrt(sum(np.vdot(g, g) for g in free.values()))
        assert norm > 1e-6
        for name, g in free.items():
            assert np.allclose(clipped[name], g * (1e-6 / norm),
                               rtol=1e-12, atol=0), name

    def test_non_finite_prediction_names_structure(self, model):
        recs = toy_records(2)
        graphs = [model.build_graph(r.structure) for r in recs]
        model.store.params["moe.f_o.weight"].data[:] = np.nan
        opt = AdamW(model.store.params, lr=1e-3)
        with pytest.raises(NumericError, match="structure s0"):
            finetune_step(model, graphs, np.zeros(2), ["s0", "s1"], opt)


class TestFinetuneLoop:
    def _cfg(self, **over):
        base = {**TINY, "finetune_lr": 1e-3, "finetune_batch_size": 2,
                "finetune_epochs": 3, "warmup_steps": 2}
        base.update(over)
        return RunConfig(**base)

    def test_history_and_log(self, tmp_path):
        model = MGTModel(self._cfg())
        log = str(tmp_path / "ft.jsonl")
        res = finetune(model, toy_records(4), log_path=log)
        assert res.epochs_run == 3
        assert [h["epoch"] for h in res.history] == [1, 2, 3]
        for h in res.history:
            assert set(h) == {"epoch", "lr", "train_mse", "train_mae"}
            assert np.isfinite(h["train_mae"])
        logged = [json.loads(line) for line in open(log)]
        assert logged == res.history

    def test_goal_stops_immediately(self):
        model = MGTModel(self._cfg())
        res = finetune(model, toy_records(4), train_mae_goal=1e9)
        assert res.epochs_run == 1

    def test_patience_stops_and_restores_best(self):
        model = MGTModel(self._cfg(finetune_epochs=40, patience=2))
        recs = toy_records(6)
        res = finetune(model, recs[:4], val_records=recs[4:])
        assert res.stopped_early
        assert res.epochs_run < 40
        assert res.best_val_mae is not None
        # the restored weights reproduce the best epoch's validation MAE
        val = evaluate_records(model, recs[4:], res.normalizer)
        assert abs(val["mae"] - res.best_val_mae) < 1e-9

    def test_missing_target_rejected(self):
        model = MGTModel(self._cfg())
        recs = toy_records(3) + [Record("bare", rocksalt(), None)]
        with pytest.raises(DataError, match="record bare has no target"):
            finetune(model, recs)

    def test_empty_train_rejected(self):
        model = MGTModel(self._cfg())
        with pytest.raises(DataError, match="empty train split"):
            finetune(model, [])


class TestInference:
    def test_predict_rows(self, model):
        recs = toy_records(3)
        rows = predict_records(model, recs, Normalizer(mean=2.0, std=0.5))
        assert [r["id"] for r in rows] == ["s0", "s1", "s2"]
        again = predict_records(model, recs, Normalizer(mean=2.0, std=0.5))
        assert rows == again  # eval mode is deterministic

    def test_normalizer_rescales(self, model):
        recs = toy_records(2)
        raw = predict_records(model, recs, None)
        scaled = predict_records(model, recs, Normalizer(mean=1.0, std=2.0))
        for r, s in zip(raw, scaled):
            assert abs(s["prediction"] - (r["prediction"] * 2.0 + 1.0)) < 1e-12

    def test_evaluate_matches_metrics(self, model):
        recs = toy_records(4)
        rows = predict_records(model, recs, None)
        want = regression_metrics([r.target for r in recs],
                                  [row["prediction"] for row in rows])
        got = evaluate_records(model, recs, None)
        assert got == want

    def test_evaluate_needs_targets(self, model):
        with pytest.raises(DataError, match="no target"):
            evaluate_records(model, [Record("x", rocksalt(), None)], None)

    def test_evaluate_empty(self, model):
        with pytest.raises(DataError, match="empty split"):
            evaluate_records(model, [], None)

    def test_missing_atom_table_row_names_the_record(self, tmp_path):
        """Graphs are built per record and featurized per chunk; an element
        the atom table lacks still fails with its record's id."""
        path = tmp_path / "atoms.json"
        path.write_text(json.dumps({"11": [1.0, 0.0], "17": [0.0, 1.0]}))
        m = MGTModel(RunConfig(**TINY, atom_table=str(path)))
        recs = toy_records(2) + [Record("fe", rocksalt(z=(26, 17)))]
        assert len(predict_records(m, recs[:2], None)) == 2
        with pytest.raises(DataError, match="record fe: no atom table row "
                                            "for atomic number 26"):
            predict_records(m, recs, None)

    def test_benchmark_hooks_resolve_and_count(self, monkeypatch):
        """Every callable the benchmark's tracer wraps exists, and its
        counters read what a traced prediction and fine-tuning step pass."""
        monkeypatch.syspath_prepend(
            os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
        from perfbench import tracing
        tracer = tracing.Tracer()
        tracer.install()
        try:
            assert tracer.missing == []
            m = MGTModel(RunConfig(**TINY))
            recs = toy_records(3)
            predict_records(m, recs, None)
            pipeline.finetune(m, recs, epochs=1)
        finally:
            tracer.uninstall()
        stats = tracing.span_stats(tracer.spans)
        assert all(s.ok for s in tracer.spans)
        assert stats["model.forward"].counts["structs"] == 6
        assert stats["featurize.make_inputs"].counts["bytes"] > 0
        assert stats["graph.build_graph"].calls == 6
        metrics = tracing.per_layer_metrics(tracer, request_seconds=1.0)
        assert metrics["tensor.nodes_per_struct"]["value"] > 0
        assert metrics["featurize.bytes_per_struct"]["value"] > 0

    @pytest.mark.skipif(not sys.platform.startswith("linux")
                        or platform.libc_ver()[0] != "glibc",
                        reason="the heap thresholds are a glibc setting")
    def test_repeat_prediction_reuses_the_heap(self):
        """With glibc's default thresholds every forward faults its
        temporaries in afresh: 5,000 to 5,300 minor faults for this
        40-atom, 1,000-edge cell at the default config. Kept heap pages
        fault once."""
        import resource
        gen = np.random.default_rng(40)
        cell = CrystalStructure(tuple(int(z) for z in gen.choice([8, 14, 26], 40)),
                                gen.uniform(0.0, 1.0, (40, 3)),
                                np.diag([8.0, 9.0, 11.0]))
        m = MGTModel(RunConfig())
        records = [Record("c40", cell, None)]
        predict_records(m, records, None)  # warm-up
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        predict_records(m, records, None)
        assert resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before < 530
