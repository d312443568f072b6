"""Benchmark self-tests at tiny sizes.

    python -m pytest -q perfbench
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from perfbench.run import ROOT, locate_program, run

locate_program()

from perfbench import tracing  # noqa: E402
from perfbench.gate import Gate  # noqa: E402
from perfbench.inputs import (CUTOFF, MIN_SEPARATION, CellSpec,  # noqa: E402
                              image_offsets, make_dataset,
                              perpendicular_widths)
from perfbench.workloads import PredictLarge, PredictSmall, Train  # noqa: E402

COUNT_METRICS = ("graph.edges_per_struct", "graph.candidates_per_struct",
                 "graph.edge_yield", "tensor.nodes_per_struct",
                 "featurize.bytes_per_struct")


def tiny(name):
    return {
        "predict-small": lambda: PredictSmall(cells=4, probe_cells=2, se3_sample=2),
        "predict-large": lambda: PredictLarge(cells=2, probe_cells=1, se3_sample=1),
        "train": lambda: Train(pretrain_cells=4, finetune_cells=2, val_cells=1,
                               finetune_epochs=1, se3_sample=1),
    }[name]()


def spec_names(key):
    with open(ROOT / "BENCHMARK.json") as fh:
        return [m["name"] for m in json.load(fh)[key]]


@pytest.fixture(scope="module")
def results(tmp_path_factory):
    """Per workload: one untraced run and two traced runs, tiny sizes."""
    out = {}
    for name in ("predict-small", "predict-large", "train"):
        runs = []
        for k, trace in enumerate((False, True, True)):
            workdir = tmp_path_factory.mktemp(f"{name}-{k}")
            runs.append(run(tiny(name), seed=1, seconds=0.01, trace=trace,
                            workdir=workdir, out=lambda line: None))
        out[name] = runs
    return out


def test_generator_is_deterministic_per_seed():
    specs = [CellSpec(3), CellSpec(30, thin=True)]
    a = make_dataset(5, "unit", specs)
    assert a == make_dataset(5, "unit", specs)
    assert a != make_dataset(6, "unit", specs)
    # a shorter dataset is a prefix of a longer one
    assert make_dataset(5, "unit", specs[:1]) == a[:1]


def test_generator_honours_separation_and_thin_widths():
    rows = make_dataset(2, "unit", [CellSpec(8), CellSpec(24, thin=True)])
    for row in rows:
        lattice = np.asarray(row["lattice"])
        cart = np.asarray(row["frac_coords"]) @ lattice
        offsets = image_offsets(lattice, MIN_SEPARATION)
        for i in range(len(cart)):
            d = np.linalg.norm((cart - cart[i])[None] + offsets[:, None], axis=2)
            assert d[d > 1e-9].min() >= MIN_SEPARATION
        assert np.isfinite(row["target"])
    assert min(perpendicular_widths(np.asarray(rows[1]["lattice"]))) < CUTOFF / 2


@pytest.mark.parametrize("name", ["predict-small", "predict-large", "train"])
def test_every_workload_emits_the_listed_metrics(results, name):
    untraced, traced, _ = results[name]
    for result in (untraced, traced):
        assert result["correct"] and result["failed"] == 0
        assert result["attempted"] >= 1
    assert sorted(untraced["metrics"]) == sorted(spec_names("end_to_end"))
    assert sorted(traced["metrics"]) == sorted(spec_names("per_layer"))
    for metric in untraced["metrics"].values():
        assert metric["value"] > 0


@pytest.mark.parametrize("name", ["predict-small", "predict-large", "train"])
def test_count_metrics_repeat_exactly(results, name):
    _, first, second = results[name]
    for metric in COUNT_METRICS:
        assert first["metrics"][metric] == second["metrics"][metric], metric
    assert first["metrics"]["graph.edges_per_struct"]["value"] > 0


def test_gate_counts_a_perturbed_prediction():
    # predictions in normalized units, losses as reported
    reference = {"a": 0.0125, "b": -0.05, "loss": [3.0, 2.0]}
    gate = Gate()
    gate.check(dict(reference), "exact", reference)
    gate.check({"a": 0.0125 + 4e-15, "loss": [3.0 * (1 + 4e-12), 2.0]},
               "reordered sums", reference)
    gate.check({"b": 1e300}, "unchecked")
    assert gate.failed == 0 and gate.error_rate == 0.0
    gate.check({"a": 0.0125 + 1e-6, "b": -0.05}, "perturbed by 1e-6", reference)
    gate.check({"loss": [3.0, 2.0 * (1 + 1e-7)]}, "loss off by 1e-7", reference)
    gate.check({"loss": [3.0, float("nan")]}, "non-finite", reference)
    gate.check({"c": 1.0}, "unknown output", reference)
    gate.check_se3([("x", 2.0, 2.0 + 1e-6, 1.0), ("y", 2.0, 2.0, 1.0)])
    assert gate.failed == 5
    assert gate.error_rate == pytest.approx(5 / gate.attempted)


def test_missing_layer_is_reported_not_fatal(monkeypatch):
    gone = ("graph.node_candidates", "crysfuse.graph", "_no_such_function", None)
    layers = [gone if layer[0] == gone[0] else layer for layer in tracing.LAYERS]
    monkeypatch.setattr(tracing, "LAYERS", layers)
    tracer = tracing.Tracer()
    tracer.install()
    tracer.uninstall()
    assert tracer.missing == ["graph.node_candidates"]
    metrics = tracing.per_layer_metrics(tracer, request_seconds=1.0)
    assert "graph.candidates_per_struct" not in metrics
    assert "graph.build_ms_per_struct" in metrics
