"""Run configuration: one flat record of every tunable, strictly validated.

Configs load from JSON. Unknown keys are rejected and all validation
failures are collected and reported together, so a bad config fails once
with the full list instead of dying on the first problem.
"""

from __future__ import annotations

import dataclasses
import json
import sys
from dataclasses import dataclass

from .featurize import DEFAULT_NUM_RBF
from .graph import DEFAULT_CUTOFF, DEFAULT_IMAGE_BUDGET, DEFAULT_MAX_NEIGHBORS
from .harmonics import L_MAX_SUPPORTED


def finite_number(v) -> bool:
    """A number, not a bool, that a float holds finitely (not NaN or inf)."""
    return (isinstance(v, (int, float)) and not isinstance(v, bool)
            and -sys.float_info.max <= v <= sys.float_info.max)


class ConfigError(ValueError):
    def __init__(self, errors: list[str]):
        self.errors = list(errors)
        super().__init__("; ".join(self.errors))


@dataclass
class RunConfig:
    # reproducibility / numerics
    seed: int = 0
    precision: str = "f64"
    # graph construction
    cutoff: float = DEFAULT_CUTOFF
    max_neighbors: int = DEFAULT_MAX_NEIGHBORS
    image_budget: int = DEFAULT_IMAGE_BUDGET
    # featurization
    num_rbf: int = DEFAULT_NUM_RBF
    num_angle_rbf: int = DEFAULT_NUM_RBF
    atom_table: str | None = None
    # architecture
    width: int = 64
    se3_edge_layers: int = 1
    se3_node_layers: int = 3
    so3_node_layers: int = 1
    l_max: int = 2
    head: str = "moe"
    task: str = "property"
    # self-supervised objective
    sigma: float = 0.15
    tau: float = 0.1
    lambda_contrast: float = 1.0
    lambda_se3: float = 0.5
    lambda_so3: float = 0.5
    # optimization
    pretrain_lr: float = 1e-5
    finetune_lr: float = 5e-4
    lr_min: float = 1e-8
    warmup_steps: int = 10
    weight_decay: float = 0.01
    beta1: float = 0.9
    beta2: float = 0.999
    adam_eps: float = 1e-8
    pretrain_batch_size: int = 128
    pretrain_epochs: int = 100
    finetune_batch_size: int = 16
    finetune_epochs: int = 500
    patience: int = 50
    # dataset splits
    train_ratio: float = 0.8
    val_ratio: float = 0.1
    test_ratio: float = 0.1
    # I/O (config-file equivalents of the CLI flags)
    data: str | None = None
    out: str | None = None
    from_checkpoint: str | None = None
    trials: int = 20

    def validate(self) -> list[str]:
        """Return every constraint violation (empty list = valid)."""
        errs = []

        def positive(name, allow_zero=False):
            v = getattr(self, name)
            if not finite_number(v):
                errs.append(f"{name} must be a number and finite, got {v!r}")
            elif v < 0 or (v == 0 and not allow_zero):
                errs.append(f"{name} must be {'>= 0' if allow_zero else '> 0'}, got {v}")

        def count(name, minimum=1):
            v = getattr(self, name)
            if not isinstance(v, int) or isinstance(v, bool):
                errs.append(f"{name} must be an integer, got {v!r}")
            elif v < minimum:
                errs.append(f"{name} must be >= {minimum}, got {v}")

        if self.precision not in ("f32", "f64"):
            errs.append(f"precision must be 'f32' or 'f64', got {self.precision!r}")
        if self.head not in ("moe", "concat"):
            errs.append(f"head must be 'moe' or 'concat', got {self.head!r}")
        count("seed", minimum=0)
        positive("cutoff")
        count("max_neighbors")
        count("image_budget")
        count("num_rbf", minimum=2)
        count("num_angle_rbf", minimum=2)
        count("width")
        if isinstance(self.width, int) and self.width % 4 != 0:
            errs.append(f"width must be divisible by 4, got {self.width}")
        count("se3_edge_layers", minimum=0)
        count("se3_node_layers", minimum=0)
        count("so3_node_layers", minimum=0)
        if (not isinstance(self.l_max, int) or isinstance(self.l_max, bool)
                or not 0 <= self.l_max <= L_MAX_SUPPORTED):
            errs.append(f"l_max must be an integer in 0..{L_MAX_SUPPORTED}, "
                        f"got {self.l_max!r}")
        positive("sigma")
        positive("tau")
        for name in ("lambda_contrast", "lambda_se3", "lambda_so3"):
            positive(name, allow_zero=True)
        positive("pretrain_lr")
        positive("finetune_lr")
        positive("lr_min", allow_zero=True)
        count("warmup_steps", minimum=0)
        positive("weight_decay", allow_zero=True)
        for name in ("beta1", "beta2"):
            v = getattr(self, name)
            if not finite_number(v) or not 0 <= v < 1:
                errs.append(f"{name} must be in [0, 1), got {v!r}")
        positive("adam_eps")
        count("pretrain_batch_size", minimum=2)  # contrastive pool needs >= 2
        count("pretrain_epochs")
        count("finetune_batch_size")
        count("finetune_epochs")
        count("patience")
        for name in ("train_ratio", "val_ratio", "test_ratio"):
            positive(name)
        ratios = (self.train_ratio, self.val_ratio, self.test_ratio)
        if all(map(finite_number, ratios)):
            total = self.train_ratio + self.val_ratio + self.test_ratio
            if abs(total - 1.0) > 1e-9:
                errs.append(f"split ratios must sum to 1, got {total}")
        for name in ("atom_table", "data", "out", "from_checkpoint"):
            v = getattr(self, name)
            if v is not None and not isinstance(v, str):
                errs.append(f"{name} must be a string path or null, got {v!r}")
        if self.task is not None and not isinstance(self.task, str):
            errs.append(f"task must be a string, got {self.task!r}")
        count("trials")
        return errs


_FIELD_NAMES = {f.name for f in dataclasses.fields(RunConfig)}


def config_from_dict(raw: dict) -> RunConfig:
    if not isinstance(raw, dict):
        raise ConfigError(["config root must be a JSON object"])
    unknown = sorted(set(raw) - _FIELD_NAMES)
    errs = [f"unknown config key {k!r}" for k in unknown]
    cfg = RunConfig(**{k: v for k, v in raw.items() if k in _FIELD_NAMES})
    errs.extend(cfg.validate())
    if errs:
        raise ConfigError(errs)
    return cfg


def load_config(path: str) -> RunConfig:
    try:
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError([f"cannot read config {path}: {exc}"]) from None
    except ValueError as exc:  # invalid JSON, or not UTF-8
        raise ConfigError([f"config {path} is not valid JSON: {exc}"]) from None
    return config_from_dict(raw)


def apply_overrides(cfg: RunConfig, **overrides) -> RunConfig:
    """Return a copy with non-None overrides applied, re-validated."""
    changes = {k: v for k, v in overrides.items() if v is not None}
    new = dataclasses.replace(cfg, **changes)
    errs = new.validate()
    if errs:
        raise ConfigError(errs)
    return new
