"""End-to-end command-line runs, in process via main(argv)."""

import json
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crysfuse.cli import main
from crysfuse.config import config_from_dict
from crysfuse.model import MGTModel
from crysfuse.pipeline import load_checkpoint, save_checkpoint

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
    return tmp_path


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

    @pytest.mark.parametrize("row,message", [
        ({"species": [11, 105]}, "no atom table row for atomic number 105"),
        ({"frac_coords": [[0, 0, 0], [0, 0, 0]]}, "atoms 0 and 1 coincide"),
    ], ids=["element-missing-from-table", "coincident-atoms"])
    def test_unbuildable_record_is_named(self, workdir, capsys, row, message):
        """ingest builds its graphs as predict does, so a record whose
        graph cannot be built is a data error that names the record."""
        data = workdir / "bad.jsonl"
        data.write_text(_row(0, 3.0) + "\n"
                        + json.dumps({**json.loads(_row(1, 3.0)), **row}) + "\n")
        code = main(["ingest", "--config", str(workdir / "small.json"),
                     "--data", str(data)])
        assert code == 3
        assert f"record s1: {message}" in capsys.readouterr().err

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

    def test_pretrain_on_one_record_is_data_error(self, workdir, capsys):
        data = workdir / "one.jsonl"
        data.write_text(_row(0, 3.0) + "\n")
        code = main(["pretrain", "--config", str(workdir / "small.json"),
                     "--data", str(data)])
        assert code == 3
        assert "pretraining needs at least 2 structures" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", [["--seed", "5"], ["--precision", "f32"]],
                             ids=["seed", "precision"])
    @pytest.mark.parametrize("command", ["predict", "eval", "inspect-router"])
    def test_model_from_checkpoint_refuses_seed_and_precision(
            self, workdir, capsys, command, flag):
        """The checkpoint fixes the model's seed and precision, so a flag
        that would change them is a config error, not silently ignored."""
        ck = workdir / "ck"
        save_checkpoint(MGTModel(config_from_dict(SMALL)), str(ck))
        code = main([command, "--from", str(ck),
                     "--data", str(workdir / "toy.jsonl"), *flag])
        assert code == 2
        err = capsys.readouterr().err
        assert "takes seed and precision from the checkpoint" in err
        assert flag[0] in err

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

    def test_finetune_from_shallower_encoder_is_data_error(self, workdir,
                                                           capsys):
        ck = workdir / "shallow"
        save_checkpoint(MGTModel(config_from_dict({**SMALL,
                                                   "se3_node_layers": 1})),
                        str(ck))
        code = main(base_args(workdir, "finetune") + ["--from", str(ck)])
        assert code == 3
        assert "encoder transfer: " in capsys.readouterr().err

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


    @pytest.mark.parametrize("command", ["ingest", "check"])
    @pytest.mark.parametrize("content,message", [
        (None, "cannot read atom table"),
        ("{", "invalid JSON"),
        ("[[1.0]]", "expected a non-empty object"),
        ('{"H": [1.0]}', "entry 'H' is not an atomic number"),
        ('{"11": [1.0, 2.0], "17": [1.0]}', "has length 1, declared dim 2"),
        ('{"11": [[1.0], [2.0]]}', "not a flat vector"),
        ("{}", "expected a non-empty object"),
    ], ids=["missing", "invalid-json", "list", "symbol-key", "ragged",
            "nested", "empty"])
    def test_bad_atom_table(self, workdir, capsys, command, content, message):
        table = workdir / "atoms.json"
        if content is not None:
            table.write_text(content)
        cfg = workdir / "atoms-cfg.json"
        cfg.write_text(json.dumps({**SMALL, "atom_table": str(table)}))
        extra = {"ingest": ["--data", str(workdir / "toy.jsonl")],
                 "check": ["--trials", "1"]}[command]
        assert main([command, "--config", str(cfg), *extra]) == 3
        err = capsys.readouterr().err
        assert str(table) in err and message in err

    def test_atom_table_gone_from_checkpoint_is_data_error(self, workdir,
                                                           capsys):
        table = workdir / "atoms.json"
        table.write_text(json.dumps({"11": [1.0, 0.0], "17": [0.0, 1.0]}))
        ck = workdir / "ck"
        save_checkpoint(MGTModel(config_from_dict({**SMALL,
                                                   "atom_table": str(table)})),
                        str(ck))
        table.unlink()
        code = main(["predict", "--from", str(ck),
                     "--data", str(workdir / "toy.jsonl")])
        assert code == 3
        assert "cannot read atom table" in capsys.readouterr().err


def _predict(workdir, ck=None, data=None, out=None):
    """predict argv with a width-8 checkpoint and the toy dataset by default."""
    if ck is None:
        ck = workdir / "ck"
        save_checkpoint(MGTModel(config_from_dict(SMALL)), str(ck))
    argv = ["predict", "--from", str(ck),
            "--data", str(data or workdir / "toy.jsonl")]
    return argv + (["--out", str(out)] if out else [])


def _manifest_cutoff_infinite(workdir):
    argv = _predict(workdir)
    manifest = json.loads((workdir / "ck" / "manifest.json").read_text())
    manifest["config"]["cutoff"] = float("inf")
    (workdir / "ck" / "manifest.json").write_text(json.dumps(manifest))
    return argv, 3, [f"{workdir / 'ck'}: invalid config", "cutoff must be"]


def _manifest_mean_beyond_float(workdir):
    argv = _predict(workdir)
    manifest = json.loads((workdir / "ck" / "manifest.json").read_text())
    manifest["normalizer"] = {"mean": 10**400, "std": 1.0}
    (workdir / "ck" / "manifest.json").write_text(json.dumps(manifest))
    return argv, 3, [f"{workdir / 'ck'}: checkpoint normalizer must be"]


def _dataset_not_utf8(workdir):
    data = workdir / "utf16.jsonl"
    # a good first line, so that the error has to name the second
    data.write_bytes(_row(0, 3.0).encode() + b"\n\xff\xfe{}\n")
    return _predict(workdir, data=data), 3, [f"{data} line 2: not UTF-8"]


def _config_not_utf8(workdir):
    cfg = workdir / "utf16.json"
    cfg.write_bytes(b"\xff\xfe" + json.dumps(SMALL).encode("utf-16-le"))
    return ["check", "--config", str(cfg), "--trials", "1"], 2, [f"config {cfg}"]


def _manifest_not_utf8(workdir):
    argv = _predict(workdir)
    manifest = workdir / "ck" / "manifest.json"
    manifest.write_bytes(b"\xff\xfe" + manifest.read_text().encode("utf-16-le"))
    return argv, 3, [f"{workdir / 'ck'}: corrupt checkpoint manifest"]


def _out_in_missing_directory(workdir):
    out = workdir / "absent" / "p.jsonl"
    return _predict(workdir, out=out), 2, [f"cannot write --out {out}"]


def _out_is_a_directory(workdir):
    return _predict(workdir, out=workdir), 2, [f"cannot write --out {workdir}"]


def _out_directory_is_a_file(workdir):
    out = workdir / "taken"
    out.write_text("")
    return base_args(workdir, "ingest") + ["--out", str(out)], 2, [
        f"cannot make --out {out} a directory"]


class TestUnusableSettingsAndFiles:
    """A malformed config or manifest value, a file that is not UTF-8 or an
    unusable --out ends in a typed error naming the key or the path, never
    a traceback."""

    @pytest.mark.parametrize("key,value", [
        ("train_ratio", "0.8"), ("cutoff", float("inf")),
        ("val_ratio", float("nan")), ("l_max", True),
    ], ids=["string-ratio", "infinite-cutoff", "nan-ratio", "bool-l-max"])
    def test_malformed_config_value_is_config_error(self, workdir, capsys,
                                                    key, value):
        cfg = workdir / "bad.json"
        cfg.write_text(json.dumps({**SMALL, key: value}))
        code = main(["ingest", "--config", str(cfg),
                     "--data", str(workdir / "toy.jsonl")])
        assert code == 2
        assert f"config error: {key} must be" in capsys.readouterr().err

    @pytest.mark.parametrize("case", [
        _manifest_cutoff_infinite, _manifest_mean_beyond_float,
        _dataset_not_utf8, _config_not_utf8, _manifest_not_utf8,
        _out_in_missing_directory, _out_is_a_directory, _out_directory_is_a_file,
    ], ids=["manifest-infinite-cutoff", "manifest-mean-beyond-float",
            "dataset-not-utf8", "config-not-utf8", "manifest-not-utf8",
            "out-in-missing-directory", "out-is-a-directory",
            "out-directory-is-a-file"])
    def test_exit_code_names_the_path(self, workdir, capsys, case):
        argv, want, messages = case(workdir)
        assert main(argv) == want
        err = capsys.readouterr().err
        for message in messages:
            assert message in err


_NASTY = st.sampled_from([float("nan"), float("inf"), -float("inf"), 1e300,
                          "x", None])


@st.composite
def _rows(draw):
    """A JSON dataset row that each of several faults spoils one time in
    eight: an atomic number outside 1..118 or missing from the atom
    table, overlapping atoms, a non-finite, string or ragged coordinate,
    a singular, skewed or non-finite lattice, a bad target. Cells are
    often thin: each edge is 0.05 to 6 Å."""
    def sometimes():
        return draw(st.integers(1, 8)) == 1

    n = draw(st.integers(1, 4))
    coord = st.sampled_from([0.0, 0.5]) | st.floats(0.0, 1.0)
    species = draw(st.lists(st.integers(1, 100), min_size=n, max_size=n))
    frac = draw(st.lists(st.lists(coord, min_size=3, max_size=3),
                         min_size=n, max_size=n))
    a, b, c = draw(st.lists(st.floats(0.05, 6.0), min_size=3, max_size=3))
    lattice = [[a, 0.0, 0.0], [0.0, b, 0.0], [0.0, 0.0, c]]
    if sometimes():
        species[-1] = draw(st.sampled_from([0, -3, 105, 119, 300, 11.5, "Xx"]))
    if sometimes():
        frac[-1] = list(frac[0])
    if sometimes():
        frac[-1][draw(st.integers(0, 2))] = draw(_NASTY)
    if sometimes():
        frac[-1] = frac[-1][:2]
    if sometimes():
        lattice[draw(st.integers(0, 2))][draw(st.integers(0, 2))] = draw(
            _NASTY | st.floats(-6.0, 6.0))
    if sometimes():
        lattice = [[a, a, 0.0], [a, a, 0.0], [0.0, 0.0, c]]
    row = {"id": f"h{draw(st.integers(0, 9))}", "species": species,
           "frac_coords": frac, "lattice": lattice}
    if sometimes():
        row["target"] = draw(_NASTY)
    return row


@pytest.fixture(scope="module")
def width8_checkpoint(tmp_path_factory):
    path = tmp_path_factory.mktemp("fuzz")
    save_checkpoint(MGTModel(config_from_dict(SMALL)), str(path / "ck"))
    return path


@settings(max_examples=50, deadline=None, derandomize=True, database=None)
@given(rows=st.lists(_rows(), min_size=1, max_size=2))
def test_predict_on_malformed_rows_exits_0_or_3(width8_checkpoint, rows):
    """Whatever a JSONL row holds, predict ends in finite predictions
    (exit 0) or a data error (exit 3), never a traceback."""
    data, out = width8_checkpoint / "rows.jsonl", width8_checkpoint / "pred.jsonl"
    data.write_text("".join(json.dumps(r) + "\n" for r in rows))
    out.unlink(missing_ok=True)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        code = main(["predict", "--from", str(width8_checkpoint / "ck"),
                     "--data", str(data), "--out", str(out)])
    assert code in (0, 3)
    if code == 0:
        preds = [json.loads(l)["prediction"] for l in out.read_text().splitlines()]
        assert len(preds) == len(rows) and np.all(np.isfinite(preds))


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
