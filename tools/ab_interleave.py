"""Interleaved A/B timing of two crysfuse checkouts in one process.

    python3 tools/ab_interleave.py PARENT CHANGE --workload predict-small --passes 40

Each checkout's `src/crysfuse` is imported under its own package name
(`crysfuse_a`, `crysfuse_b`), so both live in one interpreter, on the same
inputs and the same machine state. The tool first checks that the two
trees predict every cell of the workload's seed bit for bit alike, then
runs passes of the workload from the two trees alternately (A, B, B, A,
...) and prints the median per-pass time ratio B/A and how many pairs B
won. A pass is one predict-small call over 128 cells of 1-8 atoms, or one
predict-large pass of 40 single-cell calls on cells of 24-64 atoms: the
inputs and the default-config model of `perfbench`, without its timers,
gate or memory readings. The exit status is 1 when predictions differ.
"""

from __future__ import annotations

import argparse
import importlib.util
import statistics
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench.inputs import CellSpec, make_dataset, write_jsonl  # noqa: E402

# the cells of perfbench's predict workloads (`perfbench/workloads.py`)
WORKLOADS = {
    "predict-small": [CellSpec(1 + i % 8) for i in range(128)],
    "predict-large": [CellSpec(24 + (17 * i) % 41, thin=(i % 4 == 3))
                      for i in range(40)],
}


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
    """One tree's model, normalizer and records for the workload."""

    def __init__(self, checkout: str, name: str, data: Path):
        load_tree(checkout, name)
        self.pipeline = sys.modules[name + ".pipeline"]
        config = sys.modules[name + ".config"]
        model = sys.modules[name + ".model"]
        self.model = model.MGTModel(config.RunConfig())
        self.normalizer = self.pipeline.Normalizer(mean=0.0, std=1.0)
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


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("a", help="checkout A (the baseline)")
    parser.add_argument("b", help="checkout B (the change)")
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        default="predict-small")
    parser.add_argument("--passes", type=int, default=40,
                        help="timed passes per tree")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    if args.passes < 2 or args.seed < 0:
        parser.error("--passes must be at least 2 and --seed non-negative")
    batched = args.workload == "predict-small"
    with tempfile.TemporaryDirectory() as tmp:
        data = Path(tmp) / "data.jsonl"
        write_jsonl(make_dataset(args.seed, args.workload,
                                 WORKLOADS[args.workload]), data)
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
    wins = sum(r < 1.0 for r in ratios)
    low, median, high = statistics.quantiles(ratios, n=4)
    print(f"B/A time per pass: median x{median:.3f} over {len(ratios)} "
          f"pairs, B faster in {wins}; quartiles x{low:.3f}-x{high:.3f}")
    return 0 if same == len(pa) else 1


if __name__ == "__main__":
    sys.exit(main())
