"""Dual-view crystal graph model: invariant + equivariant encoders with a
two-expert fusion head, denoising/contrastive pretraining, and a supervised
property pipeline."""

import ctypes

from .config import ConfigError, RunConfig, apply_overrides, load_config
from .errors import DataError, NumericError
from .graph import GraphError, PeriodicGraph, build_graph, reference_vectors
from .model import MGTModel
from .pipeline import (Normalizer, Record, evaluate_records, finetune,
                       load_checkpoint, load_jsonl, predict_records,
                       regression_metrics, save_checkpoint, split_dataset,
                       transfer_encoder_params)
from .pretrain import inject_noise, nt_xent, run_pretraining
from .structures import (CrystalStructure, GroupAction, StructureError,
                         apply_group_action, parse_poscar, serialize_poscar)
from .tensor import Tensor, set_default_dtype


def _keep_freed_heap() -> None:
    """Have glibc keep freed memory for reuse instead of returning it.

    A forward allocates and frees the same tens of megabytes of numpy
    temporaries per structure. By default glibc serves blocks over a
    (dynamic) threshold with mmap and trims the top of its heap after each
    free, so every forward faults those pages in again, at roughly a
    microsecond per 4 KiB page. Raising both thresholds keeps the pages
    mapped: RSS stays at its high-water mark and is reused. Where the C
    library has no `mallopt` (macOS, Windows) this does nothing.
    """
    try:
        mallopt = getattr(ctypes.CDLL(None), "mallopt", None)
    except (OSError, TypeError):
        return
    if mallopt is None:
        return
    mallopt.argtypes = [ctypes.c_int, ctypes.c_int]
    mallopt.restype = ctypes.c_int
    m_trim_threshold, m_mmap_threshold = -1, -3  # glibc's <malloc.h>
    mallopt(m_mmap_threshold, 32 << 20)  # the largest glibc accepts on 64-bit
    mallopt(m_trim_threshold, 256 << 20)


_keep_freed_heap()

__all__ = [
    "ConfigError", "RunConfig", "apply_overrides", "load_config",
    "DataError", "NumericError",
    "GraphError", "PeriodicGraph", "build_graph", "reference_vectors",
    "MGTModel",
    "Normalizer", "Record", "evaluate_records", "finetune",
    "load_checkpoint", "load_jsonl", "predict_records",
    "regression_metrics", "save_checkpoint", "split_dataset",
    "transfer_encoder_params",
    "inject_noise", "nt_xent", "run_pretraining",
    "CrystalStructure", "GroupAction", "StructureError",
    "apply_group_action", "parse_poscar", "serialize_poscar",
    "Tensor", "set_default_dtype",
]

__version__ = "0.1.0"
