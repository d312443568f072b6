"""Span tracing installed from outside the program.

Each traced layer is a callable of crysfuse (public, except the per-node
neighbour scan of graph construction) wrapped where its caller looks it up: a
module attribute or a class attribute. Wrappers record one span per call
(name, start, end, parent, request id, success) plus counts taken from the
call's arguments or result. Spans stay in memory and are written out once,
at exit. A name that no longer exists is reported as a missing layer
instead of failing the run.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from dataclasses import asdict, dataclass, field


@dataclass
class Span:
    id: int
    name: str
    start: float
    parent: int | None
    request: str | None
    end: float = 0.0
    ok: bool = True
    tensors: int = 0  # Tensor objects constructed while the span was open
    counts: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def _inputs_bytes(inp) -> int:
    arrays = [inp.atom_feats, inp.se3_edge_rbf, inp.se3_angle_rbf,
              inp.lattice_feats, inp.so3_edge_rbf, *inp.sh]
    return int(sum(a.nbytes for a in arrays))


# (span name, module, attribute path, counter(args, kwargs, result) -> dict)
LAYERS = [
    ("pipeline.load_checkpoint", "crysfuse.pipeline", "load_checkpoint", None),
    ("pipeline.load_jsonl", "crysfuse.pipeline", "load_jsonl", None),
    ("graph.build_graph", "crysfuse.model", "build_graph",
     lambda a, k, r: {"edges": r.num_edges}),
    # the periodic-image scan: one call per node, offsets (M, 3) x cart (N, 3)
    ("graph.node_candidates", "crysfuse.graph", "_node_candidates",
     lambda a, k, r: {"candidates": len(a[1]) * len(a[0])}),
    ("featurize.make_inputs", "crysfuse.model", "MGTModel.make_inputs",
     lambda a, k, r: {"bytes": _inputs_bytes(r)}),
    ("featurize.harmonics", "crysfuse.model", "spherical_harmonics", None),
    ("model.forward", "crysfuse.model", "MGTModel.forward",
     lambda a, k, r: {"structs": len(a[1])}),
    ("se3.forward", "crysfuse.se3", "SE3Encoder.__call__", None),
    ("so3.forward", "crysfuse.so3", "SO3Encoder.__call__", None),
    ("so3.tp", "crysfuse.so3", "TensorProductLayer.__call__", None),
    ("moe.forward", "crysfuse.moe", "MoEHead.__call__", None),
    ("tensor.backward", "crysfuse.tensor", "Tensor.backward", None),
    ("optim.step", "crysfuse.optim", "AdamW.step", None),
    ("pretrain.step", "crysfuse.pretrain", "pretrain_step", None),
    ("pretrain.inject_noise", "crysfuse.pretrain", "inject_noise", None),
    ("pretrain.nt_xent", "crysfuse.pretrain", "nt_xent", None),
]
TENSOR_CLASS = ("crysfuse.tensor", "Tensor")


def _resolve(module: str, path: str):
    """(owner object, attribute name) for a dotted attribute path, or None."""
    try:
        owner = importlib.import_module(module)
    except ImportError:
        return None
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    if not callable(getattr(owner, attr, None)):
        return None
    return owner, attr


class Tracer:
    """Collects spans while installed; `uninstall` restores every original."""

    def __init__(self):
        self.spans: list[Span] = []
        self.missing: list[str] = []
        self.request: str | None = None
        self.tensors = 0
        self._stack: list[Span] = []
        self._undo: list[tuple[object, str, object]] = []

    # -- spans ---------------------------------------------------------

    def open(self, name: str) -> Span:
        parent = self._stack[-1].id if self._stack else None
        span = Span(id=len(self.spans), name=name, start=time.perf_counter(),
                    parent=parent, request=self.request)
        span.tensors = self.tensors
        self.spans.append(span)
        self._stack.append(span)
        return span

    def close(self, span: Span, ok: bool = True) -> None:
        span.end = time.perf_counter()
        span.ok = ok
        span.tensors = self.tensors - span.tensors
        popped = self._stack.pop()
        assert popped is span, "spans must close in the order they opened"

    def call(self, name: str, fn, args: tuple = (), kwargs: dict | None = None,
             counter=None):
        """fn(*args, **kwargs) inside a span of the given name. `counter`, if
        given, maps (args, kwargs, result) to the span's counts."""
        kwargs = kwargs or {}
        span = self.open(name)
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            self.close(span, ok=False)
            raise
        self.close(span)
        if counter is not None:
            span.counts = counter(args, kwargs, result)
        return result

    # -- installation ----------------------------------------------------

    def _wrap(self, name, owner, attr, counter):
        original = getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            return tracer.call(name, original, args, kwargs, counter)

        setattr(owner, attr, wrapper)
        self._undo.append((owner, attr, original))

    def install(self) -> None:
        for name, module, path, counter in LAYERS:
            target = _resolve(module, path)
            if target is None:
                self.missing.append(name)
                continue
            self._wrap(name, *target, counter)
        target = _resolve(TENSOR_CLASS[0], TENSOR_CLASS[1] + ".__init__")
        if target is None:
            self.missing.append("tensor.nodes")
            return
        owner, attr = target
        original = owner.__init__
        tracer = self

        def counting_init(obj, *args, **kwargs):
            tracer.tensors += 1
            original(obj, *args, **kwargs)

        owner.__init__ = counting_init
        self._undo.append((owner, attr, original))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def write(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"missing": self.missing,
                       "spans": [asdict(s) for s in self.spans]}, fh)


# ---------------------------------------------------------------------------
# Per-layer metrics
# ---------------------------------------------------------------------------

@dataclass
class SpanStats:
    calls: int = 0
    failed: int = 0
    incl: float = 0.0    # seconds inside the span, children included
    self_: float = 0.0   # seconds minus the direct children's spans
    tensors: int = 0
    counts: dict = field(default_factory=dict)


def span_stats(spans: list[Span]) -> dict[str, SpanStats]:
    child_time = [0.0] * len(spans)
    for s in spans:
        if s.parent is not None:
            child_time[s.parent] += s.duration
    stats: dict[str, SpanStats] = {}
    for s in spans:
        st = stats.setdefault(s.name, SpanStats())
        st.calls += 1
        st.failed += not s.ok
        st.incl += s.duration
        st.self_ += s.duration - child_time[s.id]
        st.tensors += s.tensors
        for key, value in s.counts.items():
            st.counts[key] = st.counts.get(key, 0) + value
    return stats


def layer_entries(spans: list[Span]) -> dict[str, tuple[int, int]]:
    """Per layer (module prefix): (calls into it, failed calls into it).

    A call counts when no enclosing span belongs to the same layer, so
    so3.tp inside so3.forward is not a second entry into so3.
    """
    layer_of = [s.name.split(".")[0] for s in spans]
    out: dict[str, tuple[int, int]] = {}
    for s in spans:
        layer = layer_of[s.id]
        parent = s.parent
        nested = False
        while parent is not None:
            if layer_of[parent] == layer:
                nested = True
                break
            parent = spans[parent].parent
        if nested:
            continue
        calls, failed = out.get(layer, (0, 0))
        out[layer] = (calls + 1, failed + (not s.ok))
    return out


# Layers that report a call count and a failed-call count.
LAYER_NAMES = ("pipeline", "graph", "featurize", "model", "se3", "so3", "moe",
               "tensor", "optim", "pretrain")

# name -> (unit, span names the value needs)
PER_LAYER = {
    "pipeline.load_checkpoint_ms": ("ms", ["pipeline.load_checkpoint"]),
    "pipeline.load_jsonl_ms": ("ms", ["pipeline.load_jsonl"]),
    "graph.build_ms_per_struct": ("ms", ["graph.build_graph"]),
    "graph.build_share": ("%", ["graph.build_graph"]),
    "graph.edges_per_struct": ("count", ["graph.build_graph"]),
    "graph.candidates_per_struct": ("count", ["graph.build_graph", "graph.node_candidates"]),
    "graph.edge_yield": ("ratio", ["graph.build_graph", "graph.node_candidates"]),
    "featurize.inputs_ms_per_struct": ("ms", ["featurize.make_inputs"]),
    "featurize.bytes_per_struct": ("bytes_computed", ["featurize.make_inputs"]),
    "se3.forward_ms_per_struct": ("ms", ["se3.forward"]),
    "so3.forward_ms_per_struct": ("ms", ["so3.forward"]),
    "so3.tp_ms_per_struct": ("ms", ["so3.forward", "so3.tp"]),
    "moe.forward_ms_per_batch": ("ms", ["moe.forward"]),
    "tensor.nodes_per_struct": ("count", ["model.forward", "tensor.nodes"]),
    "tensor.backward_ms_per_step": ("ms", ["tensor.backward"]),
    "optim.step_ms": ("ms", ["optim.step"]),
    "pretrain.noise_ms_per_batch": ("ms", ["pretrain.step", "pretrain.inject_noise"]),
    "pretrain.contrast_ms_per_batch": ("ms", ["pretrain.step", "pretrain.nt_xent"]),
}
for _layer in LAYER_NAMES:
    PER_LAYER[f"{_layer}.calls"] = ("count", [])
    PER_LAYER[f"{_layer}.failed_calls"] = ("count", [])


def _per(total: float, count: int) -> float:
    """total / count, 0 when the workload never called the layer."""
    return total / count if count else 0.0


def per_layer_metrics(tracer: Tracer, request_seconds: float) -> dict:
    """Every PER_LAYER metric except those whose spans are missing.

    `request_seconds` is the wall time of the traced requests, the base of
    graph.build_share. Times are inclusive of child spans.
    """
    spans = tracer.spans
    stats = span_stats(spans)

    def get(name: str) -> SpanStats:
        return stats.get(name, SpanStats())

    def ms_per(name: str, per: str | None = None) -> float:
        """Milliseconds inside `name` per call of `per` (default: itself)."""
        return _per(get(name).incl * 1e3, get(per or name).calls)

    build = get("graph.build_graph")
    edges = build.counts.get("edges", 0)
    cands = get("graph.node_candidates").counts.get("candidates", 0)
    make_inputs = get("featurize.make_inputs")
    fwd = get("model.forward")
    in_requests = sum(s.duration for s in spans if s.name == "graph.build_graph"
                      and s.request and s.request.startswith("req"))
    values = {
        "pipeline.load_checkpoint_ms": ms_per("pipeline.load_checkpoint"),
        "pipeline.load_jsonl_ms": ms_per("pipeline.load_jsonl"),
        "graph.build_ms_per_struct": ms_per("graph.build_graph"),
        "graph.build_share": _per(100.0 * in_requests, request_seconds),
        "graph.edges_per_struct": _per(edges, build.calls),
        "graph.candidates_per_struct": _per(cands, build.calls),
        "graph.edge_yield": _per(edges, cands),
        "featurize.inputs_ms_per_struct": ms_per("featurize.make_inputs"),
        "featurize.bytes_per_struct": _per(make_inputs.counts.get("bytes", 0),
                                           make_inputs.calls),
        "se3.forward_ms_per_struct": ms_per("se3.forward"),
        "so3.forward_ms_per_struct": ms_per("so3.forward"),
        "so3.tp_ms_per_struct": ms_per("so3.tp", "so3.forward"),
        "moe.forward_ms_per_batch": ms_per("moe.forward"),
        "tensor.nodes_per_struct": _per(fwd.tensors, fwd.counts.get("structs", 0)),
        "tensor.backward_ms_per_step": ms_per("tensor.backward"),
        "optim.step_ms": ms_per("optim.step"),
        "pretrain.noise_ms_per_batch": ms_per("pretrain.inject_noise", "pretrain.step"),
        "pretrain.contrast_ms_per_batch": ms_per("pretrain.nt_xent", "pretrain.step"),
    }
    entries = layer_entries(spans)
    for layer in LAYER_NAMES:
        calls, failed = entries.get(layer, (0, 0))
        values[f"{layer}.calls"] = calls
        values[f"{layer}.failed_calls"] = failed
    missing = set(tracer.missing)
    return {name: {"value": values[name], "unit": unit}
            for name, (unit, needs) in PER_LAYER.items()
            if not missing.intersection(needs)}


def layer_table(tracer: Tracer, request_seconds: float) -> list[str]:
    """Human-readable per-span lines: calls, failures, inclusive and self time."""
    lines = [f"{'span':<26}{'calls':>8}{'failed':>8}{'incl_ms':>12}{'self_ms':>12}"
             f"{'self_%req':>11}"]
    for name, s in sorted(span_stats(tracer.spans).items()):
        share = _per(100.0 * s.self_, request_seconds)
        lines.append(f"{name:<26}{s.calls:>8}{s.failed:>8}{s.incl * 1e3:>12.1f}"
                     f"{s.self_ * 1e3:>12.1f}{share:>10.1f}%")
    return lines
