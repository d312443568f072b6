"""Row-parallel prediction and training: bitwise equality across part
counts and BLAS thread counts, group cuts, the BLAS pin, and the pool's
robustness (forks, a second caller, nested runs, errors in a part)."""

import hashlib
import json
import multiprocessing
import os
import subprocess
import sys
import threading
from types import SimpleNamespace

import numpy as np
import pytest

from crysfuse import nn, parallel, se3
from crysfuse.config import RunConfig
from crysfuse.model import MGTModel
from crysfuse.nn import ParamStore
from crysfuse.optim import adamw_from_config
from crysfuse.pipeline import Record, finetune, predict_records
from crysfuse.pretrain import pretrain_step, run_pretraining
from crysfuse.se3 import SE3EdgeLayer, SE3NodeLayer
from crysfuse.structures import CrystalStructure
from crysfuse.tensor import Tensor, set_default_dtype
from test_encoders import composed_attention


def cells(n=6, seed=3):
    """Cells of 3 to 8 atoms at least 1.6 apart: about 900 edges at the
    default cutoff and neighbour cap."""
    gen = np.random.default_rng(seed)
    out = []
    for i in range(n):
        count = 3 + i % 6
        frac = []
        while len(frac) < count:  # rejection sampling keeps atoms apart
            f = gen.uniform(0.0, 1.0, 3)
            d = np.array(frac) - f if frac else np.ones((1, 3))
            d -= np.round(d)
            if not frac or np.min(np.linalg.norm(d * 4.5, axis=1)) > 1.6:
                frac.append(f)
        out.append(CrystalStructure(tuple(int(z) for z in gen.choice([8, 14, 26], count)),
                                    np.array(frac), np.diag(gen.uniform(4.0, 5.0, 3))))
    return out


class FakeBlas:
    """A stand-in thread count where numpy's BLAS exposes none."""

    def __init__(self):
        self.threads = 4

    def get(self):
        return self.threads

    def put(self, n):
        self.threads = n


@pytest.fixture
def split(monkeypatch):
    """split(k): k usable CPUs from now on, parts of at least 64 rows (and
    1024 elements for cheap bodies), and a settable BLAS thread count.
    Returns the (get, set) pair in use."""
    blas = parallel._blas_threads()
    if blas is None:
        fake = FakeBlas()
        blas = (fake.get, fake.put)
        monkeypatch.setattr(parallel, "_blas_threads", lambda: blas)
    monkeypatch.setattr(parallel, "MIN_PART_ROWS", 64)
    monkeypatch.setattr(parallel, "MIN_PART_SIZE", 1024)
    previous = blas[0]()

    def use(k):
        monkeypatch.setattr(parallel, "usable_cpus", lambda: k)
        return blas

    yield use
    blas[1](previous)


@pytest.fixture
def counted(monkeypatch):
    """The part counts of every split run."""
    seen = []
    run = parallel._Pool.run

    def spy(self, body, cuts):
        seen.append(len(cuts) - 1)
        return run(self, body, cuts)

    monkeypatch.setattr(parallel._Pool, "run", spy)
    return seen


@pytest.fixture
def part_cuts(monkeypatch):
    """The part boundaries of every split run."""
    seen = []
    run = parallel._Pool.run

    def spy(self, body, cuts):
        seen.append(list(cuts))
        return run(self, body, cuts)

    monkeypatch.setattr(parallel._Pool, "run", spy)
    return seen


@pytest.mark.parametrize("precision,width", [("f64", 64), ("f32", 64),
                                             ("f64", 40), ("f32", 40)])
def test_predictions_bitwise_equal_over_part_counts(split, counted, precision,
                                                    width):
    """Width 40 gives products 10, 30 and 40 wide, which run whole. Up to
    four threads, more than a small box has cores, switching often."""
    interval = sys.getswitchinterval()
    try:
        model = MGTModel(RunConfig(precision=precision, width=width))
        graphs = [model.build_graph(s) for s in cells()]
        split(1)
        want = model.predict_batch(graphs)
        assert counted == []
        sys.setswitchinterval(1e-5)
        for k in (2, 3, 4):
            split(k)
            got = model.predict_batch(graphs)
            assert max(counted) == k
            for a, b in zip(got, want):
                assert a.dtype == b.dtype
                assert np.array_equal(a.view(np.uint8), b.view(np.uint8))
            counted.clear()
    finally:
        sys.setswitchinterval(interval)


def phi_pairs(layer, gen, rows):
    """Keys and values of `rows` rows for `se3.gated_sum`: the layer's φ
    MLPs over inputs of their fan-in, which ask for gradients."""
    return [(phi, [Tensor(gen.normal(size=(rows, 3 * layer.dim)),
                          requires_grad=True)])
            for phi in (layer.phi_k, layer.phi_v)]


def test_node_straddling_a_cut_gets_the_unsplit_sum(split, part_cuts, tile):
    """Node 1's edges 200..299 straddle row 256, where two even parts of
    512 edges would meet, and two tiles of at most 256 rows too: the
    tile's cut, and with it the parts', moves to its first edge. Three
    even parts would meet at rows 170 and 341, cut at owners at row 300;
    as runs of whole tiles they meet at row 200 alone."""
    tile(256)
    src = np.repeat([0, 1, 2], [200, 100, 212])
    assert parallel._cuts(len(src), 2, src) == [0, 200, 512]
    assert parallel._cuts(len(src), 3, src) == [0, 300, 512]
    assert se3._tile_bounds(np.array([0, 200, 300]), 512).tolist() == [
        0, 200, 512]
    layer = SE3NodeLayer(ParamStore(0), "n", 8)
    gen = np.random.default_rng(0)
    q = Tensor(gen.normal(size=(3, 8)))
    k, v = phi_pairs(layer, gen, 512)
    graph = np.zeros(512, int)
    split(1)
    want = se3.gated_sum(layer.bn_attn, q, k, v, src, graph, False).data
    for parts in (2, 3):
        split(parts)
        with parallel.threads():
            got = se3.gated_sum(layer.bn_attn, q, k, v, src, graph,
                                False).data
        assert np.array_equal(got, want)
    assert part_cuts == [[0, 200, 512]] * 2


@pytest.mark.parametrize("training,second,cut", [(False, 85, 255),
                                                 (True, 85, 255),
                                                 (True, 60, 180)])
def test_bond_straddling_a_cut_gets_the_unsplit_sum(split, part_cuts,
                                                    training, second, cut):
    """The edge layer's stack of 171 bonds has 513 rows, three per bond,
    and two tiles of at most 512 rows; two even parts would meet at row
    256, inside bond 85, so in eval the tiles' cut, and with it the
    parts', moves to its first row, 255. In training it moves to the
    first row of the structure holding row 256, which begins at bond
    `second`."""
    owner = np.repeat(np.arange(171), 3)
    groups = (owner >= second).astype(int)
    gen = np.random.default_rng(0)
    weight = np.repeat(gen.integers(1, 3, 171).astype(float), 3)
    results = []
    for parts in (1, 2):
        split(parts)
        layer = SE3EdgeLayer(ParamStore(0), "e", 8, 3, 3)
        gen = np.random.default_rng(0)
        q = Tensor(gen.normal(size=(171, 8)), requires_grad=True)
        k, v = phi_pairs(layer, gen, 513)
        with parallel.threads():
            msg = se3.gated_sum(layer.bn_attn, q, k, v, owner, groups,
                                training, weight if training else None)
            (msg * msg).sum().backward()
        results.append([msg.data, layer.bn_attn.running_mean,
                        layer.bn_attn.running_var, layer.bn_attn.gamma.grad,
                        q.grad, k[1][0].grad, v[1][0].grad]
                       + [t.grad for phi in (layer.phi_k, layer.phi_v)
                          for t in phi.lin1.params + phi.lin2.params])
    # the chain's forward and backward; φ's backward splits rows after it
    assert part_cuts[:2] == [[0, cut, 513]] * 2
    for got, want in zip(results[1], results[0]):
        assert np.array_equal(got, want)


@pytest.fixture
def tile(monkeypatch):
    """tile(size): attention chains cut their rows into tiles of at most
    about `size` rows from now on."""
    return lambda size: monkeypatch.setattr(se3, "TILE_ROWS", size)


def straddling_pack(gen, dim):
    """A node layer's inputs over 200 edges, whose owners hold rows 0, 20,
    45, 60, 110 and 140 on; owners 0 to 2 form structure 0 and owners 3
    to 5 structure 1."""
    src = np.repeat(np.arange(6), [20, 25, 15, 50, 30, 60])
    graph = np.repeat([0, 1], 3)
    p = SimpleNamespace(src=src, dst=gen.integers(0, 6, len(src)),
                        edge_bond=None, node_graph=graph, edge_graph=graph[src])
    return (Tensor(gen.normal(size=(6, dim)), requires_grad=True),
            Tensor(gen.normal(size=(len(src), dim)), requires_grad=True), p)


@pytest.mark.parametrize("training,bounds", [(False, [0, 45, 60, 140, 200]),
                                             (True, [0, 60, 200])])
def test_owner_straddling_a_grid_point_gets_the_untiled_sum(
        split, tile, part_cuts, training, bounds):
    """At most 64 rows a tile, 200 rows are cut at rows 50, 100 and 150,
    which owners 2, 3 and 5 straddle: each cut moves back to the start of
    its owner, and in training to the start of its structure. Three even
    parts would meet at rows 66 and 133; as runs of whole tiles they meet
    at row 60 alone. The layer's outputs, gradients and running estimates
    are those of one tile over all rows in one part."""
    starts = np.array([0, 60]) if training else np.array([0, 20, 45, 60,
                                                          110, 140])
    tile(64)
    assert se3._tile_bounds(starts, 200).tolist() == bounds
    results = []
    for size, parts in ((64, 3), (10 ** 6, 1)):
        tile(size)
        split(parts)
        store = ParamStore(5)
        layer = SE3NodeLayer(store, "n", 16)
        h, e, p = straddling_pack(np.random.default_rng(5), 16)
        with parallel.threads():
            out = layer(h, e, p, training)
            if parts == 3:
                assert part_cuts == [[0, 60, 200]]  # the chain, the forward's one split
            (out * out).sum().backward()
        results.append([out.data, h.grad, e.grad]
                       + [t.grad for t in store.params.values()]
                       + list(store.buffers.values()))
    for got, want in zip(*results):
        assert np.array_equal(got, want)


def encoder_bits(cfg, graphs) -> list:
    """A training forward and backward of a new model over a clean pack,
    then eval predictions: the embeddings, every parameter gradient, the
    batch-norm running estimates and the predictions."""
    model = MGTModel(cfg)
    with parallel.threads():
        enc = model.encode(model.make_inputs(graphs), training=True)
        loss = ((enc.e1 * enc.e2).sum()
                + model.predict_distance_noise(enc).sum())
        loss.backward()
    return ([enc.e1.data, enc.e2.data]
            + [t.grad for t in model.store.params.values()
               if t.grad is not None]
            + list(model.store.buffers.values())
            + list(model.predict_batch(graphs)))


@pytest.mark.parametrize("precision,width", [("f64", 64), ("f32", 40)])
@pytest.mark.parametrize("size", [64, 512])
def test_tiled_chains_bitwise_equal_over_part_counts(split, counted, tile,
                                                     size, precision, width):
    """Width 40 gives φ products 40 wide, whose bits may change where a
    product is cut, so a part must not cut a tile."""
    tile(size)
    cfg = RunConfig(precision=precision, width=width)
    graphs = [MGTModel(cfg).build_graph(s) for s in cells()]
    split(1)
    want = encoder_bits(cfg, graphs)
    assert counted == []
    for k in (2, 3, 4):
        split(k)
        got = encoder_bits(cfg, graphs)
        assert max(counted) == k
        counted.clear()
        assert len(got) == len(want)
        for a, b in zip(got, want):
            assert a.dtype == b.dtype
            assert np.array_equal(a.view(np.uint8), b.view(np.uint8))


def test_training_tiles_never_split_a_structure(split, tile, monkeypatch):
    """Every range a training batch norm standardizes in a pretraining
    step, a chain's tiles among them, holds whole structures, at 64-row
    tiles and two parts."""
    split(2)
    tile(64)
    seen = []
    standardize = nn.Standardized.standardize

    def spy(self, x, out, lo, hi):
        if self.training:
            ids = self.cuts
            seen.append((lo == 0 or ids[lo - 1] != ids[lo])
                        and (hi == len(ids) or ids[hi - 1] != ids[hi]))
        standardize(self, x, out, lo, hi)

    monkeypatch.setattr(nn.Standardized, "standardize", spy)
    model = MGTModel(RunConfig(pretrain_batch_size=4))
    batch = [(model.build_graph(s), f"c{i}") for i, s in enumerate(cells(4))]
    opt = adamw_from_config(model.store.params, model.cfg, 1e-3)
    pretrain_step(model, batch, opt, np.random.default_rng(0))
    assert len(seen) > 20 and all(seen)


def chain_pack(gen, dim):
    """A node layer's inputs over 1,622 edges of 64 nodes, 6 to 46 edges
    each, in 32 structures of 2 nodes."""
    src = np.repeat(np.arange(64), 6 + (np.arange(64) * 7) % 41)
    graph = np.repeat(np.arange(32), 2)
    p = SimpleNamespace(src=src, dst=gen.integers(0, 64, len(src)),
                        edge_bond=None, node_graph=graph, edge_graph=graph[src])
    return (Tensor(gen.normal(size=(64, dim)), requires_grad=True),
            Tensor(gen.normal(size=(len(src), dim)), requires_grad=True), p)


def tiled_rows(pair, bounds: np.ndarray) -> Tensor:
    """φ's rows of a (φ, blocks) pair as a tape node of their own, each
    tile of `bounds` computed by one call of `MLP2.row_kernel`'s body."""
    phi, x = pair
    arrays = [(t.data, rows, pre) for t, rows, pre in nn._blocks(x)]
    n, body = phi.row_kernel(arrays)
    dtype = nn._dtype(phi.lin1.weight, arrays)
    y = np.empty((n, phi.lin1.weight.data.shape[1]), dtype)
    out = np.empty((n, phi.lin2.weight.data.shape[1]), dtype)
    for a, b in zip(bounds[:-1], bounds[1:]):
        body(a, b, y[a:b], out[a:b])
    return phi.node(x, y, out)


@pytest.mark.parametrize("parts", [1, 2, 3, 4])
def test_backward_recomputes_keys_and_values_on_the_forward_tiles(
        split, counted, tile, monkeypatch, parts):
    """A training chain keeps φ's hidden activations, not its keys and
    values, and recomputes those in backward. At width 40 a product's bits
    may depend on where its rows are cut (with OpenBLAS 0.3.31 in f32, a
    product of some 700 rows or more took other bits than the same rows
    in tiles of up to 64), so unless backward cuts them at the forward's
    tiles, whatever the part count, the gradients and running estimates
    differ from those of the attention composed from tape operations
    (`composed_attention`) over keys and values built tile by tile."""
    tile(64)
    split(parts)
    set_default_dtype("f32")
    results = []
    for composed in (False, True):
        store = ParamStore(11)
        layer = SE3NodeLayer(store, "n", 40)
        h, e, p = chain_pack(np.random.default_rng(11), 40)
        if composed:
            bounds = se3._tile_bounds(
                np.flatnonzero(np.diff(p.edge_graph, prepend=-1)),
                len(p.src))
            assert len(bounds) > 8
            monkeypatch.setattr(
                se3, "gated_sum",
                lambda bn, q, k, v, *rest: composed_attention(
                    bn, q, tiled_rows(k, bounds), tiled_rows(v, bounds),
                    *rest))
        with parallel.threads():
            out = layer(h, e, p, training=True)
            (out * out).sum().backward()
        results.append([out.data, h.grad, e.grad]
                       + [t.grad for t in store.params.values()]
                       + list(store.buffers.values()))
    assert max(counted, default=1) == parts
    for got, want in zip(*results):
        assert got.dtype == want.dtype == np.float32
        assert np.array_equal(got.view(np.uint8), want.view(np.uint8))


def test_chains_leave_numpy_ma_unimported():
    """An eval and a training chain in a fresh process: finding the tiles
    imports nothing more (`np.unique` imports `numpy.ma`, 1.3 MB)."""
    here = os.path.dirname(os.path.abspath(__file__))
    src = os.path.join(os.path.dirname(here), "src")
    code = ("import sys; sys.path[:0] = [sys.argv[1], sys.argv[2]]; "
            "import numpy as np; import test_parallel; "
            "from crysfuse.nn import ParamStore; "
            "from crysfuse.se3 import SE3NodeLayer; "
            "layer = SE3NodeLayer(ParamStore(0), 'n', 8); "
            "h, e, p = test_parallel.chain_pack(np.random.default_rng(0), 8); "
            "layer(h, e, p, training=False); "
            "layer(h, e, p, training=True).sum().backward(); "
            "print('numpy.ma' in sys.modules)")
    done = subprocess.run([sys.executable, "-c", code, here, src],
                          capture_output=True, text=True, timeout=120,
                          check=True)
    assert done.stdout.split() == ["False"]


def train_outputs() -> dict:
    """Four pretraining steps and one fine-tuning epoch of a model at batch
    4 on eight cells of 3 to 8 atoms (about 600 edges a batch, so weight
    gradients sum over three 256-row blocks). Returns the loss lists, a
    hash of the final parameters and batch-norm estimates, and the eval
    predictions, as bits."""
    model = MGTModel(RunConfig(pretrain_batch_size=4, finetune_batch_size=4))
    structures = cells(8)
    graphs = [(model.build_graph(s), f"c{i}") for i, s in enumerate(structures)]
    pretrain = run_pretraining(model, graphs, epochs=2)
    records = [Record(f"c{i}", s, float(i % 3)) for i, s in
               enumerate(structures[:4])]
    tuned = finetune(model, records, epochs=1)
    state = hashlib.sha1()
    for table in (model.store.params, model.store.buffers):
        for name in sorted(table):
            t = table[name]
            state.update(getattr(t, "data", t).tobytes())
    return {
        "pretrain": [[float(h[k]).hex() for k in ("L_total", "L_contrast",
                                                   "L_SE3", "L_SO3")]
                     for h in pretrain],
        "finetune": [float(h["train_mse"]).hex() for h in tuned.history],
        "state": state.hexdigest(),
        "predictions": [float(x).hex() for x in
                        model.predict_batch(g for g, _ in graphs)[0]],
    }


def test_training_bitwise_equal_over_blas_threads():
    """The same training in two processes, OpenBLAS at one and at two
    threads. Inside a step BLAS is pinned to one thread when the pool runs;
    outside it, and on a one-CPU box throughout, it runs at its count."""
    here = os.path.dirname(os.path.abspath(__file__))
    src = os.path.join(os.path.dirname(here), "src")
    code = ("import json, sys; sys.path[:0] = [sys.argv[1], sys.argv[2]]; "
            "import test_parallel; "
            "print(json.dumps(test_parallel.train_outputs()))")
    runs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
        done = subprocess.run([sys.executable, "-c", code, here, src],
                              env=env, capture_output=True, text=True,
                              timeout=300, check=True)
        runs.append(json.loads(done.stdout.splitlines()[-1]))
    assert runs[0] == runs[1]


def test_training_bitwise_equal_over_part_counts(split, counted):
    """One CPU runs every body inline with BLAS at its own count; two and
    four cut forward and backward bodies into parts, BLAS on one thread."""
    interval = sys.getswitchinterval()
    try:
        split(1)
        want = train_outputs()
        assert counted == []
        sys.setswitchinterval(1e-5)
        for k in (2, 4):
            split(k)
            assert train_outputs() == want
            assert max(counted) == k
            counted.clear()
    finally:
        sys.setswitchinterval(interval)


def test_run_inside_a_part_runs_inline(split, counted):
    """A body that calls `run` from inside a part: one handoff, and each
    part's inner rows run on the thread that runs the part."""
    split(2)
    out = np.zeros(512)
    threads = {}

    def outer(lo, hi):
        me = threading.get_ident()

        def inner(a, b):
            assert threading.get_ident() == me
            out[lo + a:lo + b] += 1.0

        threads[lo] = me
        parallel.run(inner, hi - lo)

    with parallel.threads():
        parallel.run(outer, len(out))
    assert counted == [2] and len(set(threads.values())) == 2
    assert np.array_equal(out, np.ones(512))


def test_part_error_in_training_raised_after_every_part(split, counted,
                                                       monkeypatch):
    """The caller's part of a training batch norm fails at once; the
    step raises only after the pool's part has finished, the BLAS count
    comes back, and the next step splits again."""
    get, put = split(2)
    put(2)
    model = MGTModel(RunConfig(pretrain_batch_size=4))
    batch = [(model.build_graph(s), f"c{i}") for i, s in enumerate(cells(4))]
    opt = adamw_from_config(model.store.params, model.cfg, 1e-3)
    rows = nn.Standardized.rows
    finished = []

    def failing(self, lo, hi):
        if self.training and lo == 0:
            raise FloatingPointError("part 0")
        threading.Event().wait(0.05)
        rows(self, lo, hi)
        finished.append(lo)

    monkeypatch.setattr(nn.Standardized, "rows", failing)
    with pytest.raises(FloatingPointError, match="part 0"):
        pretrain_step(model, batch, opt, np.random.default_rng(0))
    # the failing run was the last split, and its pool part finished
    assert counted[-1] == 2 and len(finished) == 1 and get() == 2
    monkeypatch.setattr(nn.Standardized, "rows", rows)
    counted.clear()
    pretrain_step(model, batch, opt, np.random.default_rng(0))
    assert max(counted) == 2 and get() == 2


def test_blas_pinned_inside_and_restored_after(split):
    get, put = split(2)
    put(2)
    model = MGTModel(RunConfig(width=16, num_rbf=8, num_angle_rbf=8))
    graphs = [model.build_graph(s) for s in cells(2)]
    inside = []

    def feed(fail):
        for g in graphs:
            inside.append(get())
            yield g
        if fail:
            raise RuntimeError("bad record")

    model.predict_batch(feed(False))
    assert inside == [1, 1] and get() == 2
    with pytest.raises(RuntimeError, match="bad record"):
        model.predict_batch(feed(True))
    assert get() == 2


def test_part_error_raised_after_every_part(split):
    split(3)
    finished = []

    def body(lo, hi):
        if lo == 0:  # the caller's own part fails at once
            raise ValueError("part 0")
        threading.Event().wait(0.05)
        finished.append(lo)

    with parallel.threads():
        with pytest.raises(ValueError, match="part 0"):
            parallel.run(body, 300)
        assert sorted(finished) == [100, 200]
        out = np.zeros(300)

        def fill(lo, hi):
            out[lo:hi] = np.arange(lo, hi)

        parallel.run(fill, 300)  # the pool still serves
    assert np.array_equal(out, np.arange(300))


def test_second_caller_runs_inline(split, counted):
    """While one thread's prediction holds the pool, another's runs inline
    and neither waits for the other."""
    split(2)
    model = MGTModel(RunConfig())
    graphs = [model.build_graph(s) for s in cells(4)]
    want = model.predict_batch(graphs)[0]
    counted.clear()
    entered, release = threading.Event(), threading.Event()
    results = {}

    def held():
        entered.set()
        release.wait(60)
        yield from graphs

    def first():
        results["first"] = model.predict_batch(held())[0]

    def second():
        results["second"] = model.predict_batch(graphs)[0]

    a = threading.Thread(target=first)
    a.start()
    assert entered.wait(60)
    b = threading.Thread(target=second)
    b.start()
    b.join(60)
    assert not b.is_alive()
    assert counted == []  # the second caller never split
    release.set()
    a.join(60)
    assert not a.is_alive()
    assert counted  # the first did, after the second had finished
    assert np.array_equal(results["first"], want)
    assert np.array_equal(results["second"], want)


def _child_predict(model, graphs, queue):
    queue.put(model.predict_batch(graphs)[0])


@pytest.mark.skipif(not hasattr(os, "register_at_fork"), reason="no fork")
def test_forked_child_starts_its_own_pool(split, counted):
    split(2)
    model = MGTModel(RunConfig())
    graphs = [model.build_graph(s) for s in cells(4)]
    want = model.predict_batch(graphs)[0]  # the parent's pool is running
    assert counted
    ctx = multiprocessing.get_context("fork")
    queue = ctx.Queue()
    child = ctx.Process(target=_child_predict, args=(model, graphs, queue))
    child.start()
    try:
        got = queue.get(timeout=60)
        child.join(60)
        assert not child.is_alive() and child.exitcode == 0
    finally:
        if child.is_alive():
            child.kill()
    assert np.array_equal(got, want)


def test_traced_prediction_opens_spans_on_the_main_thread(split, counted,
                                                           monkeypatch):
    """Prediction, one pretraining step and one fine-tuning step."""
    monkeypatch.syspath_prepend(
        os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    from perfbench import tracing
    from crysfuse import tensor
    split(2)
    threads = set()

    class Recording(tracing.Tracer):
        def open(self, name):
            threads.add(threading.current_thread())
            return super().open(name)

    tracer = Recording()
    tracer.install()
    counting = tensor.Tensor.__init__

    def recording_init(obj, *args, **kwargs):
        threads.add(threading.current_thread())
        counting(obj, *args, **kwargs)

    tensor.Tensor.__init__ = recording_init
    try:
        model = MGTModel(RunConfig(pretrain_batch_size=4,
                                   finetune_batch_size=4))
        records = [Record(f"c{i}", s, float(i)) for i, s in enumerate(cells(4))]
        rows = predict_records(model, records, None)
        assert len(rows) == 4 and counted
        counted.clear()
        # one pretraining step, through the module attribute the tracer wraps
        run_pretraining(model, [(model.build_graph(r.structure), r.id)
                                for r in records], max_steps=1)
        assert counted
        counted.clear()
        finetune(model, records, epochs=1)  # one step
        assert counted
    finally:
        tensor.Tensor.__init__ = counting
        tracer.uninstall()
    assert tracer.missing == []
    assert {s.name for s in tracer.spans} >= {
        "se3.forward", "so3.forward", "pretrain.step", "tensor.backward",
        "optim.step"}
    assert threads == {threading.main_thread()}
