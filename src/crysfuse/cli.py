"""Command-line entry point.

Subcommands: ingest, pretrain, finetune, predict, eval, check,
inspect-router. Every flag has a config-file equivalent and flags win.
Exit codes sort failures by class: 2 configuration, 3 data, 4 numeric
(including property-check violations).
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


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="crysfuse",
        description="Dual-view crystal property model: training, inference, "
                    "and property checks.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, help_text: str, *, data=False, out=False,
            from_ckpt=False, trials=False) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", help="JSON config file")
        p.add_argument("--seed", type=int, help="override config seed")
        p.add_argument("--precision", choices=("f32", "f64"),
                       help="override compute precision")
        if data:
            p.add_argument("--data", help="JSONL dataset path")
        if out:
            p.add_argument("--out", help="output path")
        if from_ckpt:
            p.add_argument("--from", dest="from_ckpt", metavar="CKPT",
                           help="checkpoint directory to start from")
        if trials:
            p.add_argument("--trials", type=int, help="structures per check")
        return p

    add("ingest", "validate a dataset and cache its graphs", data=True, out=True)
    add("pretrain", "run the self-supervised objective", data=True, out=True)
    add("finetune", "supervised training, optionally from a checkpoint",
        data=True, out=True, from_ckpt=True)
    add("predict", "emit {id, prediction} JSONL for a dataset",
        data=True, out=True, from_ckpt=True)
    add("eval", "metrics JSON over a labeled dataset",
        data=True, out=True, from_ckpt=True)
    add("check", "invariance/equivariance/gradient property suite", trials=True)
    add("inspect-router", "per-sample expert contribution scores",
        data=True, out=True, from_ckpt=True)
    return parser


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    cfg = load_config(args.config) if args.config else RunConfig()
    return apply_overrides(
        cfg,
        seed=args.seed,
        precision=args.precision,
        trials=getattr(args, "trials", None),
        data=getattr(args, "data", None),
        out=getattr(args, "out", None),
        from_checkpoint=getattr(args, "from_ckpt", None),
    )


def _require(value, flag: str):
    if not value:
        raise ConfigError([f"missing {flag}: pass the flag or set it in the config"])
    return value


def _write_or_print(text: str, out_path: str | None):
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text if text.endswith("\n") else text + "\n")
    else:
        print(text)


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def cmd_ingest(args) -> int:
    cfg = _config_from_args(args)
    records = load_jsonl(_require(cfg.data, "--data"))
    model = MGTModel(cfg)
    total_nodes = 0
    total_edges = 0
    total_bonds = 0
    dumps = []
    for r in records:
        g = model.build_graph(r.structure)
        total_nodes += g.num_nodes
        total_edges += g.num_edges
        total_bonds += g.num_bonds
        if cfg.out:
            dumps.append({"id": r.id, **g.to_json_dict()})
    if cfg.out:
        os.makedirs(cfg.out, exist_ok=True)
        with open(os.path.join(cfg.out, "graphs.jsonl"), "w") as fh:
            for d in dumps:
                fh.write(json.dumps(d) + "\n")
    print(json.dumps({"records": len(records), "nodes": total_nodes,
                      "edges": total_edges, "bonds": total_bonds}))
    return EXIT_OK


def cmd_pretrain(args) -> int:
    cfg = _config_from_args(args)
    records = load_jsonl(_require(cfg.data, "--data"))
    model = MGTModel(cfg)
    graphs = [(g, r.id)
              for g, r in zip(record_graphs(model, records), records)]
    log_path = None
    if cfg.out:
        os.makedirs(cfg.out, exist_ok=True)
        log_path = os.path.join(cfg.out, "pretrain_log.jsonl")
    history = run_pretraining(model, graphs, log_path=log_path)
    if cfg.out:
        save_checkpoint(model, cfg.out)
    print(json.dumps(history[-1] if history else {"steps": 0}))
    return EXIT_OK


def cmd_finetune(args) -> int:
    cfg = _config_from_args(args)
    records = load_jsonl(_require(cfg.data, "--data"))
    train, val, test = split_dataset(records, cfg.seed, cfg.train_ratio,
                                     cfg.val_ratio, cfg.test_ratio)
    pretrained = None
    if cfg.from_checkpoint:
        pretrained, _ = load_checkpoint(cfg.from_checkpoint)
    model = MGTModel(cfg)  # built after any checkpoint load so its precision wins
    if pretrained is not None:
        transfer_encoder_params(model, pretrained)
    log_path = None
    if cfg.out:
        os.makedirs(cfg.out, exist_ok=True)
        log_path = os.path.join(cfg.out, "finetune_log.jsonl")
    result = finetune(model, train, val, log_path=log_path)
    metrics = evaluate_records(model, test, result.normalizer)
    if cfg.out:
        save_checkpoint(model, cfg.out, normalizer=result.normalizer)
    print(json.dumps({**metrics, "epochs_run": result.epochs_run,
                      "best_val_mae": result.best_val_mae}))
    return EXIT_OK


def cmd_predict(args) -> int:
    cfg = _config_from_args(args)
    model, normalizer = load_checkpoint(_require(cfg.from_checkpoint, "--from"))
    records = load_jsonl(_require(cfg.data, "--data"))
    rows = predict_records(model, records, normalizer)
    _write_or_print("\n".join(json.dumps(r) for r in rows), cfg.out)
    return EXIT_OK


def cmd_eval(args) -> int:
    cfg = _config_from_args(args)
    model, normalizer = load_checkpoint(_require(cfg.from_checkpoint, "--from"))
    records = load_jsonl(_require(cfg.data, "--data"))
    metrics = evaluate_records(model, records, normalizer)
    _write_or_print(json.dumps(metrics), cfg.out)
    return EXIT_OK


def cmd_check(args) -> int:
    cfg = _config_from_args(args)
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


def cmd_inspect_router(args) -> int:
    cfg = _config_from_args(args)
    if cfg.from_checkpoint:
        model, _ = load_checkpoint(cfg.from_checkpoint)
    else:
        model = MGTModel(cfg)
    if model.cfg.head != "moe":
        raise ConfigError(["inspect-router needs head=moe; "
                           f"this model uses head={model.cfg.head!r}"])
    records = load_jsonl(_require(cfg.data, "--data"))
    _, scores = model.predict_batch(record_graphs(model, records))
    report = report_contributions(model.cfg.task, scores)
    report["ids"] = [r.id for r in records]
    _write_or_print(json.dumps(report), cfg.out)
    return EXIT_OK


_COMMANDS = {
    "ingest": cmd_ingest,
    "pretrain": cmd_pretrain,
    "finetune": cmd_finetune,
    "predict": cmd_predict,
    "eval": cmd_eval,
    "check": cmd_check,
    "inspect-router": cmd_inspect_router,
}


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
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
