"""Command-line entry point.

Subcommands: ingest, pretrain, finetune, predict, eval, check,
inspect-router. Each parser entry carries its handler, a thin call into
the library. Every command that reads --data builds its graphs through
`pipeline.record_graphs`, so `ingest` checks each record's elements
against the atom table as `predict` does. Every flag has a config-file
equivalent and overrides it, except that `predict`, `eval` and
`inspect-router --from` take seed and precision from the checkpoint and
refuse --seed and --precision. Exit codes sort failures by class:
2 configuration, 3 data, 4 numeric (including property-check violations).
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .checks import run_all
from .config import ConfigError, RunConfig, apply_overrides, load_config
from .errors import DataError, NumericError
from .model import MGTModel
from .moe import report_contributions
from .pipeline import (evaluate_records, finetune, load_checkpoint, load_jsonl,
                       predict_records, record_graphs, save_checkpoint,
                       split_dataset, transfer_encoder_params)
from .pretrain import run_pretraining

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_NUMERIC = 4

# commands whose model, seed and precision included, comes from --from
_MODEL_FROM_CHECKPOINT = ("predict", "eval", "inspect-router")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="crysfuse",
        description="Dual-view crystal property model: training, inference, "
                    "and property checks.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, help_text: str, handler, *, data=True, out=True,
            from_ckpt=False, trials=False):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(handler=handler)
        p.add_argument("--config", help="JSON config file")
        p.add_argument("--seed", type=int, help="override config seed")
        p.add_argument("--precision", choices=("f32", "f64"),
                       help="override compute precision")
        if data:
            p.add_argument("--data", help="JSONL dataset path")
        if out:
            p.add_argument("--out", help="output path")
        if from_ckpt:
            p.add_argument("--from", dest="from_checkpoint", metavar="CKPT",
                           help="checkpoint directory to start from")
        if trials:
            p.add_argument("--trials", type=int, help="structures per check")

    add("ingest", "validate a dataset and cache its graphs", cmd_ingest)
    add("pretrain", "run the self-supervised objective", cmd_pretrain)
    add("finetune", "supervised training, optionally from a checkpoint",
        cmd_finetune, from_ckpt=True)
    add("predict", "emit {id, prediction} JSONL for a dataset", cmd_predict,
        from_ckpt=True)
    add("eval", "metrics JSON over a labeled dataset", cmd_eval,
        from_ckpt=True)
    add("check", "invariance/equivariance/gradient property suite", cmd_check,
        data=False, out=False, trials=True)
    add("inspect-router", "per-sample expert contribution scores",
        cmd_inspect_router, from_ckpt=True)
    return parser


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    cfg = apply_overrides(
        load_config(args.config) if args.config else RunConfig(),
        **{k: getattr(args, k, None) for k in ("seed", "precision", "trials",
                                                "data", "out", "from_checkpoint")})
    refused = [f"--{k}" for k in ("seed", "precision") if getattr(args, k) is not None]
    if refused and cfg.from_checkpoint and args.command in _MODEL_FROM_CHECKPOINT:
        raise ConfigError([f"{args.command} --from takes seed and precision from "
                           f"the checkpoint; drop {' and '.join(refused)}"])
    return cfg


def _require(value, flag: str):
    if not value:
        raise ConfigError([f"missing {flag}: pass the flag or set it in the config"])
    return value


def _out_file(cfg: RunConfig, name: str) -> str | None:
    """The path of `name` under --out, the directory created; None without --out."""
    if not cfg.out:
        return None
    try:
        os.makedirs(cfg.out, exist_ok=True)
    except OSError as exc:
        raise ConfigError([f"cannot make --out {cfg.out} a directory: "
                           f"{exc.strerror}"]) from None
    return os.path.join(cfg.out, name)


def _write_or_print(text: str, out_path: str | None):
    if not out_path:
        print(text)
        return
    try:
        with open(out_path, "w") as fh:
            fh.write(text if text.endswith("\n") else text + "\n")
    except OSError as exc:
        raise ConfigError([f"cannot write --out {out_path}: {exc.strerror}"]) from None


def _checkpoint_and_records(cfg: RunConfig):
    """(model, records, normalizer): the model and normalizer of --from and
    the records of --data, in the argument order of `predict_records`."""
    model, normalizer = load_checkpoint(_require(cfg.from_checkpoint, "--from"))
    return model, load_jsonl(_require(cfg.data, "--data")), normalizer


def cmd_ingest(cfg: RunConfig) -> int:
    records = load_jsonl(_require(cfg.data, "--data"))
    graphs = list(record_graphs(MGTModel(cfg), records))
    path = _out_file(cfg, "graphs.jsonl")
    if path:
        with open(path, "w") as fh:
            for r, g in zip(records, graphs):
                fh.write(json.dumps({"id": r.id, **g.to_json_dict()}) + "\n")
    print(json.dumps({"records": len(records),
                      "nodes": sum(g.num_nodes for g in graphs),
                      "edges": sum(g.num_edges for g in graphs),
                      "bonds": sum(g.num_bonds for g in graphs)}))
    return EXIT_OK


def cmd_pretrain(cfg: RunConfig) -> int:
    records = load_jsonl(_require(cfg.data, "--data"))
    model = MGTModel(cfg)
    graphs = [(g, r.id)
              for g, r in zip(record_graphs(model, records), records)]
    history = run_pretraining(model, graphs,
                              log_path=_out_file(cfg, "pretrain_log.jsonl"))
    if cfg.out:
        save_checkpoint(model, cfg.out)
    print(json.dumps(history[-1] if history else {"steps": 0}))
    return EXIT_OK


def cmd_finetune(cfg: RunConfig) -> int:
    records = load_jsonl(_require(cfg.data, "--data"))
    train, val, test = split_dataset(records, cfg.seed, cfg.train_ratio,
                                     cfg.val_ratio, cfg.test_ratio)
    pretrained = (load_checkpoint(cfg.from_checkpoint)[0]
                  if cfg.from_checkpoint else None)
    model = MGTModel(cfg)  # built after any checkpoint load so its precision wins
    if pretrained is not None:
        transfer_encoder_params(model, pretrained)
    result = finetune(model, train, val,
                      log_path=_out_file(cfg, "finetune_log.jsonl"))
    metrics = evaluate_records(model, test, result.normalizer)
    if cfg.out:
        save_checkpoint(model, cfg.out, normalizer=result.normalizer)
    print(json.dumps({**metrics, "epochs_run": result.epochs_run,
                      "best_val_mae": result.best_val_mae}))
    return EXIT_OK


def cmd_predict(cfg: RunConfig) -> int:
    rows = predict_records(*_checkpoint_and_records(cfg))
    _write_or_print("\n".join(json.dumps(r) for r in rows), cfg.out)
    return EXIT_OK


def cmd_eval(cfg: RunConfig) -> int:
    metrics = evaluate_records(*_checkpoint_and_records(cfg))
    _write_or_print(json.dumps(metrics), cfg.out)
    return EXIT_OK


def cmd_check(cfg: RunConfig) -> int:
    results = run_all(cfg, trials=cfg.trials)
    failed = False
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        failed = failed or not r.passed
        line = f"{status} {r.name}: max_err={r.max_err:.3e} tol={r.tol:g}"
        if r.detail:
            line += f" ({r.detail})"
        print(line)
    if failed:
        print("property checks FAILED", file=sys.stderr)
        return EXIT_NUMERIC
    return EXIT_OK


def cmd_inspect_router(cfg: RunConfig) -> int:
    model = (load_checkpoint(cfg.from_checkpoint)[0] if cfg.from_checkpoint
             else MGTModel(cfg))
    if model.cfg.head != "moe":
        raise ConfigError(["inspect-router needs head=moe; "
                           f"this model uses head={model.cfg.head!r}"])
    records = load_jsonl(_require(cfg.data, "--data"))
    _, scores = model.predict_batch(record_graphs(model, records))
    report = report_contributions(model.cfg.task, scores)
    report["ids"] = [r.id for r in records]
    _write_or_print(json.dumps(report), cfg.out)
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.handler(_config_from_args(args))
    except ConfigError as exc:
        for err in exc.errors:
            print(f"config error: {err}", file=sys.stderr)
        return EXIT_CONFIG
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except NumericError as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
