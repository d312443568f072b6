"""Dataset handling, supervised fine-tuning, metrics, and checkpointing.

Datasets are JSONL, one structure object per line with optional "target" and
"id" keys. Targets are z-scored with train-split statistics; every reported
metric and prediction is in the original target units. Checkpoints are a
directory of {manifest.json, params.bin} where the payload is single
precision regardless of compute precision.
"""

from __future__ import annotations

import json
import math
import os
from collections.abc import Iterable, Iterator
from dataclasses import asdict, dataclass, field

import numpy as np

from . import parallel
from .config import ConfigError, RunConfig, config_from_dict, finite_number
from .errors import DataError, NumericError
from .featurize import check_species
from .graph import PeriodicGraph
from .model import MGTModel
from .optim import (AdamW, adamw_from_config, clip_grad_norm, epoch_batches,
                    lr_schedule)
from .rng import stream
from .structures import CrystalStructure, StructureError, structure_from_dict
from .tensor import Tensor

CHECKPOINT_FORMAT_VERSION = 1
_ENCODER_PREFIXES = ("se3.", "so3.")


@dataclass(frozen=True)
class Record:
    """One dataset row: an identified structure with an optional target."""

    id: str
    structure: CrystalStructure
    target: float | None = None


def load_jsonl(path: str) -> list[Record]:
    """Read a UTF-8 JSONL dataset, whose lines end at "\\n"; every parse
    failure names its line number."""
    try:
        fh = open(path, "rb")
    except OSError as exc:
        raise DataError(f"cannot read dataset {path}: {exc}") from None
    records: list[Record] = []
    with fh:
        for lineno, raw in enumerate(fh, start=1):
            try:
                line = raw.decode("utf-8").strip()
            except UnicodeDecodeError as exc:
                raise DataError(f"{path} line {lineno}: not UTF-8: {exc}") from None
            if not line:
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise DataError(f"{path} line {lineno}: invalid JSON: {exc}") from None
            try:
                structure = structure_from_dict(obj)
            except StructureError as exc:
                raise DataError(f"{path} line {lineno}: {exc}") from None
            target = obj.get("target") if isinstance(obj, dict) else None
            if target is not None:
                if isinstance(target, bool) or not isinstance(target, (int, float)):
                    raise DataError(
                        f"{path} line {lineno}: target must be a number, got {target!r}")
                target = float(target)
                if not math.isfinite(target):
                    raise DataError(f"{path} line {lineno}: non-finite target")
            rid = str(obj.get("id", lineno)) if isinstance(obj, dict) else str(lineno)
            records.append(Record(id=rid, structure=structure, target=target))
    if not records:
        raise DataError(f"{path}: empty dataset")
    return records


def record_graphs(model: MGTModel, records: Iterable[Record]
                  ) -> Iterator[PeriodicGraph]:
    """The records' graphs, built lazily, in order. A data error (a
    structure or graph error, or an element the model's atom table lacks)
    is raised again with the same type, its message prefixed by the
    record's id."""
    for r in records:
        try:
            check_species(r.structure.species, model.atom_table)
            yield model.build_graph(r.structure)
        except DataError as exc:
            raise type(exc)(f"record {r.id}: {exc}") from None


def split_dataset(records: list[Record], seed: int, train_ratio: float,
                  val_ratio: float, test_ratio: float
                  ) -> tuple[list[Record], list[Record], list[Record]]:
    """Deterministic shuffled partition; fractional counts floor to val/test
    and the remainder goes to train (11 records at 8:1:1 -> 9/1/1)."""
    if abs(train_ratio + val_ratio + test_ratio - 1.0) > 1e-9:
        raise DataError("split ratios must sum to 1")
    n = len(records)
    order = stream(seed, "split").permutation(n)
    n_val = int(n * val_ratio)
    n_test = int(n * test_ratio)
    n_train = n - n_val - n_test
    for count, ratio, name in ((n_train, train_ratio, "train"),
                               (n_val, val_ratio, "val"),
                               (n_test, test_ratio, "test")):
        if ratio > 0 and count == 0:
            raise DataError(
                f"{name} split is empty: {n} records at ratio {ratio} — need more data")
    train = [records[i] for i in order[:n_train]]
    val = [records[i] for i in order[n_train:n_train + n_val]]
    test = [records[i] for i in order[n_train + n_val:]]
    return train, val, test


@dataclass(frozen=True)
class Normalizer:
    """Z-score map fit on train targets. denormalize(normalize(y)) == y."""

    mean: float
    std: float

    @classmethod
    def fit(cls, targets) -> "Normalizer":
        arr = np.asarray(targets, dtype=np.float64)
        if arr.size == 0:
            raise DataError("cannot fit a target normalizer without targets")
        if not np.all(np.isfinite(arr)):
            raise DataError("non-finite target values")
        std = float(arr.std())
        if std <= 0:
            raise DataError("targets are constant; z-score normalization undefined")
        return cls(mean=float(arr.mean()), std=std)

    def normalize(self, y):
        return (np.asarray(y, dtype=np.float64) - self.mean) / self.std

    def denormalize(self, y):
        return np.asarray(y, dtype=np.float64) * self.std + self.mean


def regression_metrics(y_true, y_pred) -> dict:
    """MAE, RMSE, and R^2 (None when the targets have zero variance)."""
    y_true = np.asarray(y_true, dtype=np.float64).ravel()
    y_pred = np.asarray(y_pred, dtype=np.float64).ravel()
    if y_true.size == 0:
        raise DataError("cannot compute metrics on an empty split")
    if y_true.shape != y_pred.shape:
        raise DataError(
            f"{y_true.size} targets vs {y_pred.size} predictions")
    err = y_true - y_pred
    ss_tot = float(np.sum((y_true - y_true.mean()) ** 2))
    r2 = None if ss_tot == 0 else 1.0 - float(np.sum(err ** 2)) / ss_tot
    return {
        "mae": float(np.mean(np.abs(err))),
        "rmse": float(np.sqrt(np.mean(err ** 2))),
        "r2": r2,
    }


# ---------------------------------------------------------------------------
# Checkpoints
# ---------------------------------------------------------------------------

def save_checkpoint(model: MGTModel, path: str,
                    normalizer: Normalizer | None = None) -> None:
    """Write {manifest.json, params.bin}: named f32 payload, params then buffers."""
    os.makedirs(path, exist_ok=True)
    store = model.store
    manifest = {
        "format_version": CHECKPOINT_FORMAT_VERSION,
        "config": asdict(model.cfg),
        "params": [{"name": n, "shape": list(p.data.shape)}
                   for n, p in store.params.items()],
        "buffers": [{"name": n, "shape": list(b.shape)}
                    for n, b in store.buffers.items()],
        "normalizer": (None if normalizer is None
                       else {"mean": normalizer.mean, "std": normalizer.std}),
    }
    chunks = [p.data.ravel() for p in store.params.values()]
    chunks += [b.ravel() for b in store.buffers.values()]
    payload = np.concatenate(chunks).astype("<f4")
    with open(os.path.join(path, "manifest.json"), "w") as fh:
        json.dump(manifest, fh, indent=2)
    with open(os.path.join(path, "params.bin"), "wb") as fh:
        fh.write(payload.tobytes())


def _read_manifest(path: str) -> dict:
    try:
        with open(os.path.join(path, "manifest.json"), encoding="utf-8") as fh:
            manifest = json.load(fh)
    except OSError as exc:
        raise DataError(f"cannot read checkpoint {path}: {exc}") from None
    except ValueError as exc:  # invalid JSON, or not UTF-8
        raise DataError(f"{path}: corrupt checkpoint manifest: {exc}") from None
    if not isinstance(manifest, dict):
        raise DataError(f"{path}: checkpoint manifest is not a JSON object")
    version = manifest.get("format_version")
    if version != CHECKPOINT_FORMAT_VERSION:
        raise DataError(
            f"{path}: checkpoint format version {version} unsupported "
            f"(expected {CHECKPOINT_FORMAT_VERSION})")
    return manifest


def _manifest_shapes(path: str, manifest: dict, key: str
                     ) -> list[tuple[str, list[int]]]:
    """The manifest's `key` list ("params" or "buffers") as (name, shape)
    pairs in payload order; a malformed list or entry raises `DataError`."""
    entries = manifest.get(key, [])
    ok = isinstance(entries, list) and all(
        isinstance(e, dict) and isinstance(e.get("name"), str)
        and isinstance(e.get("shape"), list)
        and all(type(d) is int and d >= 0 for d in e["shape"])
        for e in entries)
    if not ok:
        raise DataError(f"{path}: checkpoint manifest {key!r} must be a list of "
                        f"{{name, shape}} entries with shapes of non-negative integers")
    names = [e["name"] for e in entries]
    if len(set(names)) != len(names):
        raise DataError(f"{path}: checkpoint manifest {key!r} lists a name twice")
    return [(e["name"], e["shape"]) for e in entries]


def load_checkpoint(path: str) -> tuple[MGTModel, Normalizer | None]:
    """Rebuild the model from a checkpoint directory.

    The manifest's config reconstructs the architecture; the payload then
    replaces every parameter and buffer, batch-norm running statistics
    included (`ParamStore.load`). A malformed manifest, a wrong payload
    length, or any name or shape other than the model's, raises
    `DataError` naming the path, with nothing applied.
    """
    manifest = _read_manifest(path)
    try:
        cfg = config_from_dict(manifest["config"])
    except (ConfigError, KeyError, TypeError) as exc:
        raise DataError(f"{path}: invalid config in checkpoint: {exc}") from None
    groups = [_manifest_shapes(path, manifest, key) for key in ("params", "buffers")]
    raw = manifest.get("normalizer")
    if raw is not None and not (isinstance(raw, dict)
                                and finite_number(raw.get("mean"))
                                and finite_number(raw.get("std"))
                                and raw["std"] > 0):
        raise DataError(f"{path}: checkpoint normalizer must be null or "
                        f"{{mean, std}} with finite numbers and std > 0, got {raw!r}")
    model = MGTModel(cfg)

    try:
        with open(os.path.join(path, "params.bin"), "rb") as fh:
            payload = np.frombuffer(fh.read(), dtype="<f4")
    except OSError as exc:
        raise DataError(f"cannot read checkpoint payload: {exc}") from None

    sizes = [math.prod(shape) for group in groups for _, shape in group]
    if payload.size != sum(sizes):
        raise DataError(
            f"{path}: checkpoint payload holds {payload.size} values, "
            f"manifest expects {sum(sizes)} (truncated or corrupt)")
    chunks = iter(np.split(payload, np.cumsum(sizes)[:-1]))
    state = [{name: next(chunks).reshape(shape) for name, shape in group}
             for group in groups]
    try:
        model.store.load(*state)
    except ValueError as exc:
        raise DataError(f"{path}: checkpoint does not fit its config: {exc}") from None

    normalizer = None if raw is None else Normalizer(mean=raw["mean"], std=raw["std"])
    return model, normalizer


def transfer_encoder_params(dst: MGTModel, src: MGTModel) -> list[str]:
    """Copy both encoders (projection heads included) from src into dst.

    Both models must have the same encoder architecture; otherwise
    `DataError` names what differs and dst is left as it was.

    Fusion and denoising heads keep their fresh initialization, which is how
    a pretrained backbone is reused under a different head. The encoders'
    batch-norm running statistics travel too, and dst is marked to normalize
    with them in every pass (`MGTModel.frozen_encoder_stats`): training
    passes no longer standardize each structure of their pack with its own
    statistics, and no training step updates them. Returns the copied
    names.
    """
    params, buffers = src.store.state(_ENCODER_PREFIXES)
    try:
        dst.store.load(params, buffers, _ENCODER_PREFIXES)
    except ValueError as exc:
        raise DataError(f"encoder transfer: the source's encoders differ "
                        f"from the target's: {exc}") from None
    dst.frozen_encoder_stats = True
    return sorted([*params, *buffers])


# ---------------------------------------------------------------------------
# Fine-tuning
# ---------------------------------------------------------------------------

@dataclass
class FinetuneResult:
    normalizer: Normalizer
    history: list[dict] = field(default_factory=list)
    best_epoch: int = 0
    best_val_mae: float | None = None
    epochs_run: int = 0
    stopped_early: bool = False


# Joint gradient norm that fine-tuning clips to. Fine-tuning a transferred
# backbone at a high peak rate (8e-3 in the learning-signal acceptance test)
# can spike the norm past 1e6 in its first epochs and leave AdamW in a poor
# basin. At the default rate perfbench's train steps stay below the bound
# (norms 0.1-0.7), so it leaves them unchanged.
FINETUNE_CLIP_NORM = 1.0


def finetune_step(model: MGTModel, graphs: list[PeriodicGraph],
                  targets_norm: np.ndarray, ids: list[str],
                  opt: AdamW) -> tuple[float, float]:
    """One MSE step on a batch of graphs; targets already normalized.

    Before the update, gradients whose joint L2 norm exceeds
    `FINETUNE_CLIP_NORM` are scaled down to it, so a batch with an
    exploding gradient cannot swamp AdamW's moments.

    Returns (batch MSE, batch MAE), both in normalized space, computed from
    the training-mode forward pass that produced the update. The step's row
    kernels are split across the usable CPUs (`parallel.threads`).
    """
    with parallel.threads():
        out = model.forward(graphs, training=True)
        bad = ~np.isfinite(out.prediction.data.ravel())
        if bad.any():
            raise NumericError(
                f"non-finite prediction at structure {ids[int(np.argmax(bad))]}")
        diff = out.prediction - Tensor(targets_norm.reshape(-1, 1))
        loss = (diff * diff).mean()
        if not np.isfinite(loss.data):
            raise NumericError(
                f"non-finite fine-tuning loss at structure {ids[0]}")
        opt.zero_grad()
        loss.backward()
        clip_grad_norm(opt.params.values(), FINETUNE_CLIP_NORM)
        opt.step()
    return float(loss.data), float(np.mean(np.abs(diff.data)))


def finetune(model: MGTModel, train_records: list[Record],
             val_records: list[Record] = (),
             log_path: str | None = None,
             train_mae_goal: float | None = None,
             epochs: int | None = None) -> FinetuneResult:
    """Supervised loop: warmup + cosine LR, early stopping on validation MAE
    with best-snapshot restore.

    `train_mae_goal` (original units) stops the loop as soon as the epoch's
    running train MAE — the mean absolute error of the training-mode forward
    passes that produced the updates, denormalized — drops below the goal:
    the overfit-style escape hatch for small calibration runs. Validation
    metrics always come from eval-mode passes.

    After `transfer_encoder_params`, the training-mode passes normalize with
    the frozen pretrained statistics, so each one equals the eval-mode pass
    with the same parameters: the train MAE is the eval-mode MAE on the
    train split, each batch measured just before its update. Without a
    transfer, each training pass encodes its batch as one pack,
    standardizes each structure with that structure's own statistics, and
    folds them into the running estimates one structure at a time.
    """
    cfg = model.cfg
    for r in list(train_records) + list(val_records):
        if r.target is None:
            raise DataError(f"record {r.id} has no target; fine-tuning needs one")
    if not train_records:
        raise DataError("empty train split")
    normalizer = Normalizer.fit([r.target for r in train_records])

    train_graphs = list(record_graphs(model, train_records))
    val_graphs = list(record_graphs(model, val_records))
    y_train = normalizer.normalize([r.target for r in train_records])
    val_targets = np.array([r.target for r in val_records], dtype=np.float64)
    ids = [r.id for r in train_records]

    epochs = cfg.finetune_epochs if epochs is None else epochs
    batch_size = min(cfg.finetune_batch_size, len(train_records))
    batches = epoch_batches(len(train_records), batch_size)
    total_steps = max(1, epochs * len(batches))
    warmup = min(cfg.warmup_steps, total_steps - 1) if total_steps > 1 else 0
    opt = adamw_from_config(model.store.params, cfg, cfg.finetune_lr)

    result = FinetuneResult(normalizer=normalizer)
    best_snap = None
    since_best = 0
    step = 0
    log_fh = open(log_path, "w") if log_path else None
    try:
        for epoch in range(1, epochs + 1):
            order = stream(cfg.seed, f"shuffle/finetune/{epoch}").permutation(
                len(train_records))
            losses = []
            abs_err_sum = 0.0
            seen = 0
            for batch_slice in batches:
                idx = order[batch_slice]
                step += 1
                opt.lr = lr_schedule(min(step, total_steps), total_steps,
                                     warmup, cfg.finetune_lr, cfg.lr_min)
                mse, mae = finetune_step(
                    model, [train_graphs[i] for i in idx], y_train[idx],
                    [ids[i] for i in idx], opt)
                losses.append(mse)
                abs_err_sum += mae * len(idx)
                seen += len(idx)

            entry = {"epoch": epoch, "lr": opt.lr,
                     "train_mse": float(np.mean(losses)),
                     "train_mae": float(normalizer.std * abs_err_sum / seen)}
            result.epochs_run = epoch

            if val_graphs:
                val_pred = normalizer.denormalize(
                    model.predict_batch(val_graphs)[0])
                val_mae = float(np.mean(np.abs(val_pred - val_targets)))
                entry["val_mae"] = val_mae
                if result.best_val_mae is None or val_mae < result.best_val_mae:
                    result.best_val_mae = val_mae
                    result.best_epoch = epoch
                    best_snap = model.store.state()
                    since_best = 0
                else:
                    since_best += 1

            result.history.append(entry)
            if log_fh:
                log_fh.write(json.dumps(entry) + "\n")

            if train_mae_goal is not None and entry["train_mae"] < train_mae_goal:
                break
            if val_graphs and since_best >= cfg.patience:
                result.stopped_early = True
                break
    finally:
        if log_fh:
            log_fh.close()

    if best_snap is not None and (result.best_val_mae is not None
                                  and train_mae_goal is None):
        model.store.load(*best_snap)
    return result


# ---------------------------------------------------------------------------
# Inference
# ---------------------------------------------------------------------------

def predict_records(model: MGTModel, records: list[Record],
                    normalizer: Normalizer | None) -> list[dict]:
    """Eval-mode predictions in original target units, one row per record."""
    raw, _ = model.predict_batch(record_graphs(model, records))
    pred = raw if normalizer is None else normalizer.denormalize(raw)
    return [{"id": r.id, "prediction": float(p)} for r, p in zip(records, pred)]


def evaluate_records(model: MGTModel, records: list[Record],
                     normalizer: Normalizer | None) -> dict:
    """Denormalized regression metrics over a labeled split."""
    if not records:
        raise DataError("cannot evaluate an empty split")
    for r in records:
        if r.target is None:
            raise DataError(f"record {r.id} has no target; evaluation needs one")
    rows = predict_records(model, records, normalizer)
    y_pred = [row["prediction"] for row in rows]
    y_true = [r.target for r in records]
    return regression_metrics(y_true, y_pred)
