"""The three workloads, driven through crysfuse's public library API.

Calls go through module attributes (``pipeline.predict_records``) so that
the traced run's wrappers see them. Every model uses RunConfig defaults
except the pretraining batch size of the train workload.
"""

from __future__ import annotations

import dataclasses
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import crysfuse.model as model_mod
import crysfuse.pipeline as pipeline
import crysfuse.pretrain as pretrain
from crysfuse.config import RunConfig
from crysfuse.structures import GroupAction, apply_group_action

from .inputs import CellSpec, make_dataset, write_jsonl

# Fixed normalizer stored in the predict checkpoint, so predictions go
# through denormalization the way a fine-tuned checkpoint's do.
CHECKPOINT_NORMALIZER = (2.9, 0.4)


def direct(fn, *args, **kwargs):
    """Run one request untraced."""
    return fn(*args, **kwargs)


def no_idle() -> None:
    """Do nothing between timed operations."""


@dataclass
class Unit:
    """One measured unit of work and the outputs it produced."""

    latencies: list[float]  # seconds per request, or per round for train
    items: int              # structures predicted or samples trained
    outputs: dict           # name -> float or list of floats
    state: tuple            # (model, normalizer, records) for the rigid-motion check
    phases: dict = field(default_factory=dict)  # phase -> (items, seconds)

    @property
    def seconds(self) -> float:
        return sum(self.latencies)


@dataclass
class Files:
    data: Path
    checkpoint: Path | None = None


def write_checkpoint(path: Path) -> None:
    """Fixed-seed checkpoint of the default model (config seed 0)."""
    model = model_mod.MGTModel(RunConfig())
    mean, std = CHECKPOINT_NORMALIZER
    pipeline.save_checkpoint(model, str(path), pipeline.Normalizer(mean=mean, std=std))


def normalized(rows: list[dict], normalizer) -> dict:
    """Predictions by id in normalized units, the scale of the model's output."""
    return {r["id"]: (r["prediction"] - normalizer.mean) / normalizer.std for r in rows}


def se3_pairs(state, count: int, gen: np.random.Generator) -> list[tuple]:
    """Predict a sample of records and a rigidly moved copy of each.

    `state` is (model, normalizer, records). Returns (id, prediction,
    prediction of the moved copy, normalizer std) per sampled record.
    """
    model, normalizer, records = state
    picks = sorted(gen.choice(len(records), size=min(count, len(records)),
                              replace=False))
    sample = [records[i] for i in picks]
    moved = [dataclasses.replace(r, structure=apply_group_action(
        r.structure, random_motion(gen))) for r in sample]
    # one structure per call, so the check never holds more memory than a request
    return [(r.id, pipeline.predict_records(model, [r], normalizer)[0]["prediction"],
             pipeline.predict_records(model, [m], normalizer)[0]["prediction"],
             normalizer.std)
            for r, m in zip(sample, moved)]


def random_motion(gen: np.random.Generator) -> GroupAction:
    q, r = np.linalg.qr(gen.normal(size=(3, 3)))
    q = q * np.sign(np.diag(r))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return GroupAction(q, gen.uniform(-5.0, 5.0, 3))


class Predict:
    """Inputs and set-up shared by the two predict workloads.

    `run(state, call, idle)` sends each request through `call` and calls
    `idle` between requests, outside their timers.
    """

    min_units = 3

    def __init__(self, cells: int, probe_cells: int, se3_sample: int):
        self.cells = cells
        self.probe_cells = probe_cells
        self.se3_sample = se3_sample
        self.sizes = {"cells": cells, "probe_cells": probe_cells}

    def datasets(self, seed: int, workdir: Path, probe_seed: int):
        """Write the run's inputs and the probe inputs; return their rows."""
        rows = make_dataset(seed, self.name, self.specs())
        probe = make_dataset(probe_seed, self.name, self.specs()[:self.probe_cells])
        write_jsonl(rows, workdir / "data.jsonl")
        write_jsonl(probe, workdir / "probe.jsonl")
        write_checkpoint(workdir / "checkpoint")
        return (rows, Files(workdir / "data.jsonl", workdir / "checkpoint"),
                Files(workdir / "probe.jsonl", workdir / "checkpoint"))

    def setup(self, files: Files):
        model, normalizer = pipeline.load_checkpoint(str(files.checkpoint))
        records = pipeline.load_jsonl(str(files.data))
        return model, normalizer, records


class PredictSmall(Predict):
    name = "predict-small"

    def __init__(self, cells: int = 128, probe_cells: int = 16, se3_sample: int = 8):
        super().__init__(cells, probe_cells, se3_sample)

    def specs(self) -> list[CellSpec]:
        return [CellSpec(1 + i % 8) for i in range(self.cells)]

    def run(self, state, call=direct, idle=no_idle) -> Unit:
        """One request over every cell, so nothing lies between requests."""
        model, normalizer, records = state
        t0 = time.perf_counter()
        rows = call(pipeline.predict_records, model, records, normalizer)
        dt = time.perf_counter() - t0
        return Unit([dt], len(rows), normalized(rows, normalizer), state)


class PredictLarge(Predict):
    name = "predict-large"

    def __init__(self, cells: int = 40, probe_cells: int = 4, se3_sample: int = 3):
        super().__init__(cells, probe_cells, se3_sample)

    def specs(self) -> list[CellSpec]:
        # 17 is coprime to 41: the first 41 cells take every size 24..64 once
        return [CellSpec(24 + (17 * i) % 41, thin=(i % 4 == 3))
                for i in range(self.cells)]

    def run(self, state, call=direct, idle=no_idle) -> Unit:
        """One pass over every cell, one request each."""
        model, normalizer, records = state
        latencies, outputs = [], {}
        for record in records:
            t0 = time.perf_counter()
            rows = call(pipeline.predict_records, model, [record], normalizer)
            latencies.append(time.perf_counter() - t0)
            outputs.update(normalized(rows, normalizer))
            idle()
        return Unit(latencies, len(records), outputs, state)


class Train:
    """Pretraining for a fixed step count, then fine-tuning for fixed epochs."""

    name = "train"
    min_units = 2

    def __init__(self, pretrain_cells: int = 32, finetune_cells: int = 16,
                 val_cells: int = 4, finetune_epochs: int = 2,
                 se3_sample: int = 4):
        self.pretrain_cells = pretrain_cells
        self.finetune_cells = finetune_cells
        self.val_cells = val_cells
        self.finetune_epochs = finetune_epochs
        self.se3_sample = se3_sample
        self.sizes = {"pretrain_cells": pretrain_cells, "finetune_cells": finetune_cells,
                      "val_cells": val_cells, "finetune_epochs": finetune_epochs}
        # RunConfig defaults except the pretraining batch: the default of 128
        # needs about 9 GB at these sizes (see README.md).
        self.cfg = RunConfig(pretrain_batch_size=16, finetune_batch_size=16)

    def specs(self) -> list[CellSpec]:
        n = self.pretrain_cells + self.val_cells
        return [CellSpec(4 + i % 13) for i in range(n)]

    def datasets(self, seed: int, workdir: Path, probe_seed: int):
        rows = make_dataset(seed, self.name, self.specs())
        probe = make_dataset(probe_seed, self.name, self.specs())
        write_jsonl(rows, workdir / "data.jsonl")
        write_jsonl(probe, workdir / "probe.jsonl")
        return rows, Files(workdir / "data.jsonl"), Files(workdir / "probe.jsonl")

    def setup(self, files: Files):
        records = pipeline.load_jsonl(str(files.data))
        model = model_mod.MGTModel(self.cfg)
        graphs = [(model.build_graph(r.structure), r.id)
                  for r in records[:self.pretrain_cells]]
        return model, records, graphs

    def run(self, state, call=direct, idle=no_idle) -> Unit:
        """One round; `idle` is called between the two phases, untimed."""
        model, records, graphs = state
        t0 = time.perf_counter()
        # one epoch: pretrain_cells / 16 steps, every cell seen once
        history = call(pretrain.run_pretraining, model, graphs, epochs=1)
        pretrain_s = time.perf_counter() - t0
        idle()
        train = records[:self.finetune_cells]
        val = records[self.pretrain_cells:self.pretrain_cells + self.val_cells]
        t1 = time.perf_counter()
        result = call(pipeline.finetune, model, train, val,
                      epochs=self.finetune_epochs)
        finetune_s = time.perf_counter() - t1
        outputs = {
            "pretrain_L_total": [h["L_total"] for h in history],
            "pretrain_L_contrast": [h["L_contrast"] for h in history],
            "pretrain_L_SE3": [h["L_SE3"] for h in history],
            "pretrain_L_SO3": [h["L_SO3"] for h in history],
            "finetune_train_mse": [h["train_mse"] for h in result.history],
            "finetune_val_mae": [h["val_mae"] for h in result.history],
        }
        pre_items = len(graphs)
        ft_items = len(train) * result.epochs_run
        return Unit([pretrain_s + finetune_s], pre_items + ft_items, outputs,
                    (model, result.normalizer, train),
                    phases={"pretrain": (pre_items, pretrain_s),
                            "finetune": (ft_items, finetune_s)})


WORKLOADS = {w.name: w for w in (PredictSmall, PredictLarge, Train)}

