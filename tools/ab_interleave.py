"""Interleaved A/B timing of two crysfuse checkouts in one process.

    python3 tools/ab_interleave.py PARENT CHANGE --workload predict-small --passes 40

Each checkout's `src/crysfuse` is imported under its own package name
(`crysfuse_a`, `crysfuse_b`), so both live in one interpreter, on the same
inputs and the same machine state.

For `predict-small` and `predict-large` the tool first checks that the two
trees predict every cell of the workload's seed bit for bit alike, then
runs passes of the workload from the two trees alternately (A, B, B, A,
...) and prints the median per-pass time ratio B/A and how many pairs B
won. A pass is one predict-small call over 128 cells of 1-8 atoms, or one
predict-large pass of 40 single-cell calls on cells of 24-64 atoms: the
inputs and the default-config model of `perfbench`, without its timers,
gate or memory readings. As in perfbench, each tree's model comes back
from a checkpoint round trip through that tree's own `save_checkpoint`
and `load_checkpoint`, so the weights are rounded to float32 and the
check covers both trees' load paths.

For `train` each tree builds the model of perfbench's train workload
(batch 16) and the first 16 cells of its seed, and a pass is one
pretraining step and one fine-tuning step on those 16 cells, from the two
trees alternately. Every step's losses and a hash of every parameter
gradient must be bitwise the same in both trees. The tool prints, per
kind of step, the median time ratio B/A, how many pairs B won, and each
tree's tracemalloc peak in one step, traced after one untimed pass.

For `graphs` each tree builds the neighbour graph of every cell of the
three workloads' seed (128 predict-small, 40 predict-large and the 36
cells of the train workload's pretraining and validation sets), and all
nine `PeriodicGraph` arrays (dtype, shape and bytes) and every raised
error (type and message) must be the same in both trees. A pass then
builds every cell once, from the two trees alternately, timing each
workload's cells on their own; the tool prints per workload the median
time ratio B/A and how many pairs B won.

The exit status is 1 when predictions, losses, gradients or graphs
differ.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
import statistics
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench.inputs import CellSpec, make_dataset, write_jsonl  # noqa: E402

# the cells of perfbench's workloads (`perfbench/workloads.py`): all of
# the predict workloads', the first batch of the train workload's
WORKLOADS = {
    "predict-small": [CellSpec(1 + i % 8) for i in range(128)],
    "predict-large": [CellSpec(24 + (17 * i) % 41, thin=(i % 4 == 3))
                      for i in range(40)],
    "train": [CellSpec(4 + i % 13) for i in range(16)],
}
# every cell of each workload's dataset; train's 32 pretraining cells and
# 4 validation cells
GRAPH_CELLS = {**WORKLOADS, "train": [CellSpec(4 + i % 13) for i in range(36)]}
GRAPH_ARRAYS = ("src", "dst", "image", "vector", "distance", "angles",
                "ref_vectors", "edge_bond", "bond_edges")


def load_tree(checkout: str, name: str):
    """The package `src/crysfuse` of `checkout`, imported as `name`."""
    pkg = Path(checkout).resolve() / "src" / "crysfuse"
    spec = importlib.util.spec_from_file_location(
        name, pkg / "__init__.py", submodule_search_locations=[str(pkg)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


class Arm:
    """One tree's model, normalizer and records for the workload. The
    default-config model goes through the tree's own `save_checkpoint` and
    `load_checkpoint`, into a directory named after the arm next to
    `data`, as perfbench's predict workloads load theirs: the weights are
    rounded to float32 and the tree's load path runs."""

    def __init__(self, checkout: str, name: str, data: Path):
        load_tree(checkout, name)
        self.pipeline = sys.modules[name + ".pipeline"]
        config = sys.modules[name + ".config"]
        model = sys.modules[name + ".model"]
        checkpoint = str(data.parent / name)
        self.pipeline.save_checkpoint(model.MGTModel(config.RunConfig()),
                                      checkpoint,
                                      self.pipeline.Normalizer(mean=0.0, std=1.0))
        self.model, self.normalizer = self.pipeline.load_checkpoint(checkpoint)
        self.records = self.pipeline.load_jsonl(str(data))

    def predict(self, batched: bool) -> list[float]:
        """Every record's prediction: one call over all, or one call each."""
        calls = [self.records] if batched else [[r] for r in self.records]
        return [row["prediction"] for batch in calls for row in
                self.pipeline.predict_records(self.model, batch,
                                              self.normalizer)]

    def timed(self, batched: bool) -> float:
        t0 = time.perf_counter()
        self.predict(batched)
        return time.perf_counter() - t0


class TrainArm:
    """One tree's model, optimizers and batch for the train workload."""

    def __init__(self, checkout: str, name: str, data: Path, seed: int):
        load_tree(checkout, name)
        module = lambda m: sys.modules[f"{name}.{m}"]  # noqa: E731
        pipeline, optim = module("pipeline"), module("optim")
        cfg = module("config").RunConfig(pretrain_batch_size=16,
                                         finetune_batch_size=16)
        self.model = module("model").MGTModel(cfg)
        records = pipeline.load_jsonl(str(data))
        self.batch = [(self.model.build_graph(r.structure), r.id)
                      for r in records]
        targets = [r.target for r in records]
        self.targets = pipeline.Normalizer.fit(targets).normalize(targets)
        params = self.model.store.params
        self.optimizers = {
            "pretrain": optim.adamw_from_config(params, cfg, cfg.pretrain_lr),
            "finetune": optim.adamw_from_config(params, cfg, cfg.finetune_lr)}
        self.noise = np.random.default_rng(seed)
        self.pretrain_step = module("pretrain").pretrain_step
        self.finetune_step = pipeline.finetune_step

    def step(self, kind: str) -> tuple[float, list[str]]:
        """One pretraining or fine-tuning step: its time, and its losses
        and the sha1 of every parameter gradient, as strings."""
        opt = self.optimizers[kind]
        t0 = time.perf_counter()
        if kind == "pretrain":
            parts = self.pretrain_step(self.model, self.batch, opt, self.noise)
            losses = [parts.total, parts.contrast, parts.se3, parts.so3]
        else:
            losses = self.finetune_step(
                self.model, [g for g, _ in self.batch], self.targets,
                [sid for _, sid in self.batch], opt)
        seconds = time.perf_counter() - t0
        grads = hashlib.sha1()
        for name in sorted(self.model.store.params):
            grad = self.model.store.params[name].grad
            if grad is not None:
                grads.update(name.encode() + np.ascontiguousarray(grad).tobytes())
        return seconds, [float(x).hex() for x in losses] + [grads.hexdigest()]


def traced_peak(arm: TrainArm, kind: str) -> tuple[float, list[str]]:
    """The tracemalloc peak of one step in MB, and the step's bits."""
    tracemalloc.start()
    try:
        _, bits = arm.step(kind)
        return tracemalloc.get_traced_memory()[1] / 1e6, bits
    finally:
        tracemalloc.stop()


def compare_training(a: str, b: str, data: Path, seed: int,
                     passes: int) -> int:
    """Alternate training steps of the two trees; 1 if any step's bits
    differ."""
    arms = [TrainArm(a, "crysfuse_a", data, seed),
            TrainArm(b, "crysfuse_b", data, seed)]
    kinds = ("pretrain", "finetune")
    same = True
    for kind in kinds:  # untimed, so first-call costs stay out of the peak
        same &= arms[0].step(kind)[1] == arms[1].step(kind)[1]
    for kind in kinds:
        (peak_a, bits_a), (peak_b, bits_b) = (traced_peak(arm, kind)
                                              for arm in arms)
        same &= bits_a == bits_b
        print(f"{kind} step: tracemalloc peak A {peak_a:.1f} MB, "
              f"B {peak_b:.1f} MB")
    ratios = {kind: [] for kind in kinds}
    for i in range(passes):
        order = arms if i % 2 == 0 else arms[::-1]
        for kind in kinds:
            steps = {id(arm): arm.step(kind) for arm in order}
            (ta, bits_a), (tb, bits_b) = (steps[id(arm)] for arm in arms)
            same &= bits_a == bits_b
            ratios[kind].append(tb / ta)
    print(f"losses and gradient hashes bitwise equal in every step: {same}")
    for kind in kinds:
        report(f"{kind} step", ratios[kind])
    return 0 if same else 1


class GraphArm:
    """One tree's structures of every graphs cell, by workload."""

    def __init__(self, checkout: str, name: str, rows: dict[str, list[dict]]):
        load_tree(checkout, name)
        from_dict = sys.modules[name + ".structures"].structure_from_dict
        self.build_graph = sys.modules[name + ".graph"].build_graph
        self.cells = {workload: [from_dict({key: row[key] for key in
                                            ("species", "frac_coords", "lattice")})
                                 for row in batch]
                      for workload, batch in rows.items()}

    def build(self, s):
        """The graph of `s`, or the error building it raised."""
        try:
            return self.build_graph(s)
        except Exception as exc:  # noqa: BLE001 -- compared, not handled
            return exc

    def outcomes(self, workload: str) -> list[tuple]:
        """Per cell: the nine arrays' dtype, shape and bytes, or the error's
        type and message."""
        out = []
        for g in map(self.build, self.cells[workload]):
            if isinstance(g, Exception):
                out.append((type(g).__name__, str(g)))
            else:
                out.append(tuple((a.dtype.str, a.shape, a.tobytes()) for a in
                                 (getattr(g, name) for name in GRAPH_ARRAYS)))
        return out

    def timed(self, workload: str) -> float:
        t0 = time.perf_counter()
        for s in self.cells[workload]:
            self.build(s)
        return time.perf_counter() - t0


def compare_graphs(a: str, b: str, seed: int, passes: int) -> int:
    """Alternate graph-build passes of the two trees; 1 if any graph or
    error differs."""
    rows = {workload: make_dataset(seed, workload, specs)
            for workload, specs in GRAPH_CELLS.items()}
    arms = [GraphArm(a, "crysfuse_a", rows), GraphArm(b, "crysfuse_b", rows)]
    same = True
    for workload in GRAPH_CELLS:
        got_a, got_b = (arm.outcomes(workload) for arm in arms)
        equal = sum(x == y for x, y in zip(got_a, got_b))
        errors = sum(len(x) == 2 for x in got_a)
        same &= equal == len(got_a)
        print(f"{workload}: {equal}/{len(got_a)} cells with all nine graph "
              f"arrays or the error bitwise equal ({errors} errors)")
    ratios = {workload: [] for workload in GRAPH_CELLS}
    for i in range(passes):
        order = arms if i % 2 == 0 else arms[::-1]
        for workload in GRAPH_CELLS:
            times = {id(arm): arm.timed(workload) for arm in order}
            ratios[workload].append(times[id(arms[1])] / times[id(arms[0])])
    for workload in GRAPH_CELLS:
        report(f"{workload} graph pass", ratios[workload])
    return 0 if same else 1


def report(what: str, ratios: list[float]):
    wins = sum(r < 1.0 for r in ratios)
    low, median, high = statistics.quantiles(ratios, n=4)
    print(f"B/A time per {what}: median x{median:.3f} over {len(ratios)} "
          f"pairs, B faster in {wins}; quartiles x{low:.3f}-x{high:.3f}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("a", help="checkout A (the baseline)")
    parser.add_argument("b", help="checkout B (the change)")
    parser.add_argument("--workload", choices=sorted([*WORKLOADS, "graphs"]),
                        default="predict-small")
    parser.add_argument("--passes", type=int, default=40,
                        help="timed passes per tree")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    if args.passes < 2 or args.seed < 0:
        parser.error("--passes must be at least 2 and --seed non-negative")
    if args.workload == "graphs":
        return compare_graphs(args.a, args.b, args.seed, args.passes)
    batched = args.workload == "predict-small"
    with tempfile.TemporaryDirectory() as tmp:
        data = Path(tmp) / "data.jsonl"
        write_jsonl(make_dataset(args.seed, args.workload,
                                 WORKLOADS[args.workload]), data)
        if args.workload == "train":
            return compare_training(args.a, args.b, data, args.seed,
                                    args.passes)
        arms = [Arm(args.a, "crysfuse_a", data), Arm(args.b, "crysfuse_b", data)]
    pa, pb = (arm.predict(batched) for arm in arms)
    same = sum(x.hex() == y.hex() for x, y in zip(pa, pb))
    worst = max(abs(x - y) for x, y in zip(pa, pb))
    print(f"{args.workload}: {same}/{len(pa)} predictions bitwise equal, "
          f"largest difference {worst:.3g}")
    ratios = []
    for i in range(args.passes):
        order = arms if i % 2 == 0 else arms[::-1]
        times = {id(arm): arm.timed(batched) for arm in order}
        ratios.append(times[id(arms[1])] / times[id(arms[0])])
    report("pass", ratios)
    return 0 if same == len(pa) else 1


if __name__ == "__main__":
    sys.exit(main())
