"""crysfuse benchmark: runs one workload in this process and reports metrics.

    python3 perfbench/run.py --workload predict-small --seed 0 --seconds 30 --trace 0

Run from the root of a checkout that holds ``src/crysfuse``; the program is
imported from that source tree and nowhere else. Inputs are generated from
--seed into a scratch directory under the checkout and removed at exit.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. With --trace 0 the
metrics are the end-to-end ones, measured untraced; with --trace 1 they are
the per-layer ones from a traced pass that follows an untraced measurement,
and the tracing overhead is printed. ``--workload all`` runs the three
workloads one after another, each in a process of its own. See README.md.
"""

from __future__ import annotations

import argparse
import gc
import itertools
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"

SETUP_SHARE = 0.1      # share of an untraced run spent on set-up samples
P90_MIN_SAMPLES = 100  # p90 is reported only with ten samples beyond it
SE3_STREAM = 0x5E3     # rigid motions draw from a stream of their own

WORKLOAD_NAMES = ("predict-small", "predict-large", "train")
END_TO_END_UNITS = {"setup_s": "s", "throughput_per_s": "1/s",
                    "latency_p50_ms": "ms", "peak_rss_mb": "MB"}


class ProgramMissing(RuntimeError):
    pass


def locate_program() -> None:
    """Import crysfuse from this checkout's src/ and the benchmark package."""
    package = SRC / "crysfuse" / "__init__.py"
    if not package.is_file():
        raise ProgramMissing(f"no crysfuse source tree at {package.parent}")
    for path in (str(SRC), str(ROOT)):
        if path not in sys.path:
            sys.path.insert(0, path)
    import crysfuse
    if Path(crysfuse.__file__).resolve() != package.resolve():
        raise ProgramMissing(f"crysfuse imported from {crysfuse.__file__}, not {package}")


@dataclass
class Measured:
    setups: list = field(default_factory=list)  # seconds per set-up
    units: list = field(default_factory=list)   # workloads.Unit per measured unit
    request_seconds: float = 0.0                # wall time of traced requests

    @property
    def latencies(self) -> list[float]:
        return [x for u in self.units for x in u.latencies]

    def throughput(self, phase: str | None = None) -> float:
        """Median over units of items per second, overall or for one phase."""
        rates = [u.items / u.seconds if phase is None
                 else u.phases[phase][0] / u.phases[phase][1] for u in self.units]
        return statistics.median(rates)


def _traced_call(tracer):
    counter = itertools.count()

    def call(fn, *args, **kwargs):
        tracer.request = f"req-{next(counter)}"
        return tracer.call("request", fn, args, kwargs)

    return call


def measure(wl, files, gate, budget: float, min_units: int, setup_share: float,
            tracer=None, baseline: dict | None = None) -> Measured:
    """Run units while the next one is expected to end within `budget`
    seconds, at least `min_units` attempts. Each unit runs on the state of a
    fresh set-up. Between its timed operations the workload calls `idle`,
    which takes further set-up samples, their state discarded, while set-up
    time is under `setup_share` of the run so far: set-up samples spread over
    the run in proportion to time, not in a few blocks. Each set-up follows
    a garbage collection outside its timer.

    Every unit's outputs are checked against the first unit's (or against
    `baseline`): the same inputs must give the same outputs.
    """
    from perfbench.workloads import direct

    m = Measured()
    call = direct if tracer is None else _traced_call(tracer)
    setups = itertools.count()

    def setup():
        k = next(setups)
        gc.collect()
        t0 = time.perf_counter()
        if tracer is None:
            state = wl.setup(files)
        else:
            tracer.request = f"setup-{k}"
            state = tracer.call("setup", wl.setup, (files,))
        m.setups.append(time.perf_counter() - t0)
        gate.record(True, "setup")
        return state

    def idle():
        while sum(m.setups) < setup_share * (time.perf_counter() - start):
            setup()

    start = time.perf_counter()
    for attempt in itertools.count(1):
        state = None
        idle()
        state = setup()
        try:
            unit = wl.run(state, call, idle)
        except Exception as exc:  # a failed request is an outcome to count
            gate.record(False, f"{wl.name} unit {attempt} raised {exc!r}")
        else:
            if m.units:  # only the last unit's state is kept, for the rigid-motion check
                m.units[-1].state = None
            m.units.append(unit)
            gate.check(unit.outputs, f"{wl.name} unit {attempt}", baseline)
            baseline = baseline or unit.outputs
        del state
        elapsed = time.perf_counter() - start
        if attempt >= min_units and elapsed * (attempt + 1) / attempt > budget:
            break
    if tracer is not None:
        m.request_seconds = sum(s.duration for s in tracer.spans if s.name == "request")
    return m


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile, q in (0, 100]."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100.0 * len(ordered)) - 1)]


def end_to_end(m: Measured) -> dict:
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # The mean, not the median: on a shared machine the CPU alternates
    # between fast and slow phases lasting seconds, set-up times split into
    # two modes, and a median jumps between them from run to run.
    values = {"setup_s": statistics.fmean(m.setups),
              "throughput_per_s": m.throughput(),
              "latency_p50_ms": 1e3 * statistics.median(m.latencies),
              "peak_rss_mb": rss_kb / 1024.0}
    return {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}


def describe(wl, m: Measured, metrics: dict) -> list[str]:
    """Metric lines under the workload's own names, with units and samples."""
    v = {k: x["value"] for k, x in metrics.items()}
    lat = m.latencies
    lines = [f"setup_s {v['setup_s']:.6g} s (mean of {len(m.setups)} set-ups)"]
    if wl.name == "train":
        lines += [
            f"pretrain_samples_per_s {m.throughput('pretrain'):.6g} 1/s "
            f"(median of {len(m.units)} rounds)",
            f"finetune_samples_per_s {m.throughput('finetune'):.6g} 1/s "
            f"(median of {len(m.units)} rounds)",
            f"throughput_per_s {v['throughput_per_s']:.6g} 1/s (both phases)",
            f"latency_p50_ms {v['latency_p50_ms']:.6g} ms "
            f"(one pretrain + fine-tune round, median of {len(lat)})"]
    else:
        per = "calls of" if wl.name == "predict-small" else "passes over"
        lines += [
            f"predict_structs_per_s {v['throughput_per_s']:.6g} 1/s "
            f"(median of {len(m.units)} {per} {wl.cells} structures)",
            f"predict_latency_p50_ms {v['latency_p50_ms']:.6g} ms "
            f"({len(lat)} requests)"]
        if len(lat) >= P90_MIN_SAMPLES:
            lines.append(f"predict_latency_p90_ms {1e3 * percentile(lat, 90):.6g} ms "
                         f"({len(lat)} requests)")
        else:
            lines.append(f"predict_latency_p90_ms n/a ({len(lat)} requests, "
                         f"p90 needs {P90_MIN_SAMPLES})")
    lines.append(f"peak_rss_mb {v['peak_rss_mb']:.6g} MB (whole process)")
    return lines


def run(wl, seed: int, seconds: float, trace: bool, workdir: Path,
        out=print) -> dict:
    """Run one workload and return the result object for the last line."""
    import numpy as np

    from perfbench import tracing
    from perfbench.gate import REFERENCE_SEED, Gate, load_reference
    from perfbench.inputs import dataset_stats
    from perfbench.workloads import se3_pairs

    gate = Gate()
    reference = load_reference().get(wl.name, {})
    expected = (reference["outputs"] if reference.get("sizes") == wl.sizes
                else None)
    rows, files, probe_files = wl.datasets(seed, workdir, REFERENCE_SEED)
    st = dataset_stats(rows)
    out(f"# {wl.name} seed {seed}: {st['cells']} cells, atoms/cell "
        f"{st['atoms_per_cell']:.2f} ({st['atoms_min']}-{st['atoms_max']}), "
        f"cells under cutoff/2 wide {st['thin_cells']}, edges/struct {st['edges_per_struct']:.1f}, "
        f"scanned images/struct {st['scanned_images_per_struct']:.1f}")
    if expected is None:
        out("# no reference for these sizes: outputs are checked for "
            "finiteness, repeatability and rigid motions only")

    # Warm-up on the default-seed probe inputs, checked against the reference.
    probe = wl.run(wl.setup(probe_files))
    gate.check(probe.outputs, f"{wl.name} probe", expected)
    del probe

    # A traced run spends half its time untraced, as the base of the overhead.
    m = measure(wl, files, gate, seconds / 2 if trace else seconds,
                1 if trace else wl.min_units, SETUP_SHARE)
    if not m.units:
        raise RuntimeError(f"every request failed: {gate.failures[:3]}")
    if seed == REFERENCE_SEED:
        gate.check(m.units[0].outputs, f"{wl.name} seed {seed}", expected)
    gate.check_se3(se3_pairs(m.units[-1].state, wl.se3_sample,
                             np.random.default_rng([seed, SE3_STREAM])))
    metrics = end_to_end(m)
    for line in describe(wl, m, metrics):
        out(line)

    if trace:
        tracer = tracing.Tracer()
        tracer.install()
        try:
            # one set-up and one unit, so count metrics repeat exactly
            t = measure(wl, files, gate, 0.0, 1, 0.0, tracer,
                        baseline=m.units[0].outputs)
        finally:
            tracer.uninstall()
        trace_path = workdir.parent / "traces" / f"{wl.name}-seed{seed}.json"
        trace_path.parent.mkdir(parents=True, exist_ok=True)
        tracer.write(trace_path)
        out(f"# spans: {len(tracer.spans)} written to {trace_path}")
        for line in tracing.layer_table(tracer, t.request_seconds):
            out("# " + line)
        for name in tracer.missing:
            out(f"missing layer {name}: its callable is gone; metrics that need it are omitted")
        if t.units:
            traced = end_to_end(t)
            for name in ("setup_s", "throughput_per_s", "latency_p50_ms"):
                a, b = metrics[name]["value"], traced[name]["value"]
                out(f"tracing overhead {name}: untraced {a:.6g}, traced {b:.6g} "
                    f"({100.0 * (b - a) / a:+.1f}%)")
        metrics = tracing.per_layer_metrics(tracer, t.request_seconds)
        for name, x in metrics.items():
            out(f"{name} {x['value']:.6g} {x['unit']}")

    out(f"error_rate {gate.error_rate:.6g} ({gate.failed} failed of "
        f"{gate.attempted} attempted)")
    for failure in gate.failures:
        out(f"# FAILED {failure}")
    return {"correct": gate.failed == 0, "attempted": gate.attempted,
            "failed": gate.failed, "metrics": metrics}


def run_all(args) -> int:
    """Every workload in a process of its own, one after another."""
    status = 0
    for name in WORKLOAD_NAMES:
        print(f"## {name}", flush=True)
        done = subprocess.run([sys.executable, __file__, "--workload", name,
                               "--seed", str(args.seed), "--seconds", str(args.seconds),
                               "--trace", str(args.trace)])
        status = status or done.returncode
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[*WORKLOAD_NAMES, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0 or args.seed < 0:
        parser.error("--seconds must be positive and --seed non-negative")
    if args.workload == "all":
        return run_all(args)
    try:
        locate_program()
    except ProgramMissing as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    from perfbench.workloads import WORKLOADS

    workdir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        result = run(WORKLOADS[args.workload](), args.seed, args.seconds,
                     bool(args.trace), workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
