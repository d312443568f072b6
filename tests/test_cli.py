"""End-to-end command-line runs, in process via main(argv)."""

import json
import os

import numpy as np
import pytest

from crysfuse.cli import main
from crysfuse.config import config_from_dict
from crysfuse.model import MGTModel
from crysfuse.pipeline import load_checkpoint, save_checkpoint
from crysfuse.tensor import set_default_dtype

SMALL = {
    "width": 8, "num_rbf": 4, "num_angle_rbf": 4, "cutoff": 3.5,
    "max_neighbors": 8, "l_max": 1, "seed": 0, "precision": "f64",
    "finetune_epochs": 2, "finetune_batch_size": 4, "warmup_steps": 1,
    "pretrain_epochs": 1, "pretrain_batch_size": 8, "pretrain_lr": 1e-4,
}


def _row(i, a):
    return json.dumps({
        "id": f"s{i}",
        "species": [11, 17],
        "frac_coords": [[0, 0, 0], [0.5, 0.5, 0.5]],
        "lattice": [[a, 0, 0], [0, a, 0], [0, 0, a]],
        "target": a / 2,
    })


@pytest.fixture
def workdir(tmp_path):
    data = tmp_path / "toy.jsonl"
    data.write_text("\n".join(_row(i, 2.6 + 0.15 * i) for i in range(10)) + "\n")
    cfg = tmp_path / "small.json"
    cfg.write_text(json.dumps(SMALL))
    yield tmp_path
    set_default_dtype("f64")


def run(workdir, *argv):
    return main(["--config" if a == "CFG" else a for a in argv])


def base_args(workdir, command):
    return [command, "--config", str(workdir / "small.json"),
            "--data", str(workdir / "toy.jsonl")]


class TestIngest:
    def test_summary_and_cache(self, workdir, capsys):
        out = workdir / "cache"
        code = main(base_args(workdir, "ingest") + ["--out", str(out)])
        assert code == 0
        summary = json.loads(capsys.readouterr().out.strip())
        assert summary["records"] == 10
        assert summary["nodes"] == 20
        assert summary["edges"] > 0
        # an edge and its reverse share a bond
        assert summary["edges"] / 2 <= summary["bonds"] < summary["edges"]
        lines = (out / "graphs.jsonl").read_text().splitlines()
        assert len(lines) == 10
        assert json.loads(lines[0])["id"] == "s0"

    def test_missing_data_flag_is_config_error(self, workdir, capsys):
        code = main(["ingest", "--config", str(workdir / "small.json")])
        assert code == 2
        assert "missing --data" in capsys.readouterr().err

    def test_bad_dataset_is_data_error(self, workdir, capsys):
        bad = workdir / "bad.jsonl"
        bad.write_text("{broken\n")
        code = main(["ingest", "--config", str(workdir / "small.json"),
                     "--data", str(bad)])
        assert code == 3
        assert "data error" in capsys.readouterr().err

    def test_unknown_config_key_is_config_error(self, workdir, capsys):
        cfg = workdir / "typo.json"
        cfg.write_text(json.dumps({"width": 8, "nope": 1}))
        code = main(["ingest", "--config", str(cfg),
                     "--data", str(workdir / "toy.jsonl")])
        assert code == 2
        assert "config error" in capsys.readouterr().err


class TestTrainingCommands:
    def test_pretrain_writes_checkpoint_and_log(self, workdir, capsys):
        out = workdir / "pt"
        code = main(base_args(workdir, "pretrain") + ["--out", str(out)])
        assert code == 0
        last = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert {"step", "lr", "L_total", "L_contrast",
                "L_SE3", "L_SO3"} == set(last)
        assert (out / "manifest.json").exists()
        assert (out / "params.bin").exists()
        steps = (out / "pretrain_log.jsonl").read_text().splitlines()
        assert json.loads(steps[-1]) == last

    def test_precision_flag_beats_config(self, workdir):
        out = workdir / "pt32"
        code = main(base_args(workdir, "pretrain")
                    + ["--out", str(out), "--precision", "f32"])
        assert code == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["precision"] == "f32"

    def test_finetune_predict_eval_round_trip(self, workdir, capsys):
        ck = workdir / "ck"
        code = main(base_args(workdir, "finetune") + ["--out", str(ck)])
        assert code == 0
        summary = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert {"mae", "rmse", "r2", "epochs_run", "best_val_mae"} <= set(summary)
        assert summary["epochs_run"] == 2

        pred_path = workdir / "pred.jsonl"
        code = main(["predict", "--from", str(ck),
                     "--data", str(workdir / "toy.jsonl"),
                     "--out", str(pred_path)])
        assert code == 0
        rows = [json.loads(l) for l in pred_path.read_text().splitlines()]
        assert [r["id"] for r in rows] == [f"s{i}" for i in range(10)]
        assert all(np.isfinite(r["prediction"]) for r in rows)

        code = main(["eval", "--from", str(ck),
                     "--data", str(workdir / "toy.jsonl")])
        assert code == 0
        metrics = json.loads(capsys.readouterr().out.strip())
        assert set(metrics) == {"mae", "rmse", "r2"}

    def test_finetune_from_pretrained_keeps_encoder_statistics(self, workdir):
        pt, ft = workdir / "pt", workdir / "ft"
        assert main(base_args(workdir, "pretrain") + ["--out", str(pt)]) == 0
        assert main(base_args(workdir, "finetune")
                    + ["--from", str(pt), "--out", str(ft)]) == 0
        pretrained, _ = load_checkpoint(str(pt))
        tuned, _ = load_checkpoint(str(ft))
        fresh = MGTModel(pretrained.cfg)
        names = [n for n in pretrained.store.buffers
                 if n.startswith(("se3.", "so3."))]
        assert names
        assert any(not np.array_equal(pretrained.store.buffers[n],
                                      fresh.store.buffers[n]) for n in names)
        for name in names:
            assert np.array_equal(tuned.store.buffers[name],
                                  pretrained.store.buffers[name]), name

    def test_predict_without_checkpoint_is_config_error(self, workdir, capsys):
        code = main(["predict", "--data", str(workdir / "toy.jsonl")])
        assert code == 2
        assert "missing --from" in capsys.readouterr().err


class TestMalformedInputs:
    """Bad structures end in a data error (exit 3), never a traceback."""

    def predict(self, workdir, row):
        ck = workdir / "ck"
        save_checkpoint(MGTModel(config_from_dict(SMALL)), str(ck))
        data = workdir / "bad.jsonl"
        data.write_text(_row(0, 3.0) + "\n" + json.dumps(row) + "\n")
        return main(["predict", "--from", str(ck), "--data", str(data)])

    def test_coincident_atoms(self, workdir, capsys):
        row = {"id": "dup", "species": [11, 17, 11],
               "frac_coords": [[0, 0, 0], [0.5, 0.5, 0.5], [0, 0, 0]],
               "lattice": [[3, 0, 0], [0, 3, 0], [0, 0, 3]]}
        assert self.predict(workdir, row) == 3
        err = capsys.readouterr().err
        assert "atoms 0 and 2 coincide" in err and "dup" in err

    def test_nan_coordinate(self, workdir, capsys):
        row = {"id": "nan", "species": [11, 17],
               "frac_coords": [[0, 0, 0], [0.5, float("nan"), 0.5]],
               "lattice": [[3, 0, 0], [0, 3, 0], [0, 0, 3]]}
        assert self.predict(workdir, row) == 3
        err = capsys.readouterr().err
        assert "line 2" in err and "frac_coords holds non-finite" in err

    @pytest.mark.parametrize("key,value,message", [
        ("frac_coords", [[0, 0, 0], [0.5, 0.5]], "line 2: frac_coords must"),
        ("frac_coords", [[0, 0, 0], [0.5, "x", 0.5]],
         "line 2: frac_coords must"),
        ("frac_coords", {"x": 0}, "line 2: frac_coords must"),
        ("lattice", [[3, 0, 0], [0, "x", 0], [0, 0, 3]],
         "line 2: lattice must"),
        ("species", 11, "line 2: species must be a list"),
        # face areas overflow, so the widths are 0; then the volume, so nan
        ("lattice", (np.eye(3) * 1e100).tolist(), "record bad: cell widths"),
        ("lattice", (np.eye(3) * 1e103).tolist(), "record bad: cell widths"),
    ], ids=["ragged", "string-coordinate", "object-coordinates",
            "string-lattice", "number-species", "huge-lattice",
            "overflowing-lattice"])
    def test_malformed_field(self, workdir, capsys, key, value, message):
        row = {"id": "bad", "species": [11, 17],
               "frac_coords": [[0, 0, 0], [0.5, 0.5, 0.5]],
               "lattice": [[3, 0, 0], [0, 3, 0], [0, 0, 3]], key: value}
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            assert self.predict(workdir, row) == 3
        assert message in capsys.readouterr().err


class TestCheckCommand:
    def test_pass_lines(self, workdir, capsys):
        code = main(["check", "--config", str(workdir / "small.json"),
                     "--trials", "2"])
        out = capsys.readouterr().out
        assert code == 0
        lines = [l for l in out.splitlines() if l]
        assert len(lines) == 5
        assert all(l.startswith("PASS ") for l in lines)
        for name in ("se3_invariance", "so3_equivariance",
                     "permutation_invariance", "periodicity", "gradient_check"):
            assert any(name in l for l in lines), name


class TestInspectRouter:
    def test_one_score_pair_per_record(self, workdir, capsys):
        code = main(base_args(workdir, "inspect-router"))
        assert code == 0
        report = json.loads(capsys.readouterr().out.strip())
        assert report["ids"] == [f"s{i}" for i in range(10)]
        assert len(report["scores"]) == 10
        assert all(len(pair) == 2 for pair in report["scores"])
        assert len(report["mean"]) == 2

    def test_concat_head_refused(self, workdir, capsys):
        cfg = workdir / "concat.json"
        cfg.write_text(json.dumps({**SMALL, "head": "concat"}))
        code = main(["inspect-router", "--config", str(cfg),
                     "--data", str(workdir / "toy.jsonl")])
        assert code == 2
        assert "head=moe" in capsys.readouterr().err
