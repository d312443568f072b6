"""Acceptance suite: the twelve package-level guarantees, one test each.

Run with ``pytest -v tests/test_acceptance.py`` for one pass/fail line per
criterion. The slow entries (1, 5, 9) print their wall-clock usage; their
budgets are asserted, not aspirational.
"""

import hashlib
import json
import math
import time

import numpy as np

from crysfuse.checks import (
    check_gradients,
    check_periodicity,
    check_permutation_invariance,
    check_se3_invariance,
    check_so3_equivariance,
    random_structure,
)
from crysfuse.cli import main
from crysfuse.config import RunConfig
from crysfuse.graph import build_graph
from crysfuse.model import MGTModel
from crysfuse.moe import MoEHead
from crysfuse.nn import ParamStore
from crysfuse.pipeline import (
    Record,
    finetune,
    predict_records,
    load_checkpoint,
    save_checkpoint,
    transfer_encoder_params,
)
from crysfuse.pretrain import denoising_losses, inject_noise, nt_xent
from crysfuse.pretrain import run_pretraining
from crysfuse.rng import stream
from crysfuse.structures import (
    CrystalStructure,
    parse_poscar,
    serialize_poscar,
)
from crysfuse.tensor import Tensor, set_default_dtype

CHECK_CFG = RunConfig(width=16, num_rbf=8, num_angle_rbf=8, cutoff=4.0,
                      max_neighbors=12, l_max=1, seed=0, precision="f64")


def test_criterion_01_se3_invariance():
    model = MGTModel(CHECK_CFG)
    t0 = time.monotonic()
    res = check_se3_invariance(model, num_structures=100,
                               actions_per_structure=10, seed=0,
                               tol=1e-8, min_atoms=2, max_atoms=16)
    elapsed = time.monotonic() - t0
    assert res.passed, res
    assert elapsed < 120.0, f"SE3 sweep took {elapsed:.1f}s"
    print(f"PASS criterion 1: SE3 invariance max_err={res.max_err:.3e} "
          f"({elapsed:.1f}s)")


def test_criterion_02_so3_equivariance():
    model = MGTModel(CHECK_CFG)
    res = check_so3_equivariance(model, num_rotations=20, seed=0,
                                 tol=1e-8, vec_tol=1e-10)
    assert res.passed, res
    print(f"PASS criterion 2: SO3 equivariance {res.detail}")


def test_criterion_03_permutation_invariance():
    model = MGTModel(CHECK_CFG)
    res = check_permutation_invariance(model, num_structures=20, seed=0)
    assert res.passed and res.tol == 1e-10, res
    print(f"PASS criterion 3: permutation invariance max_err={res.max_err:.3e}")


def test_criterion_04_periodicity():
    model = MGTModel(CHECK_CFG)
    res = check_periodicity(model, num_structures=20, seed=0)
    assert res.passed and res.tol == 1e-10, res
    print(f"PASS criterion 4: periodicity max_err={res.max_err:.3e}")


def test_criterion_05_gradient_correctness():
    t0 = time.monotonic()
    res = check_gradients(CHECK_CFG, num_structures=4, h=1e-5, tol=1e-4,
                          seed=0)
    elapsed = time.monotonic() - t0
    assert res.passed, res
    assert elapsed < 300.0, f"gradient audit took {elapsed:.1f}s"
    print(f"PASS criterion 5: gradients max rel err={res.max_err:.3e} "
          f"({elapsed:.1f}s)")


def _brute_nt_xent(v1: np.ndarray, v2: np.ndarray, tau: float) -> float:
    """Direct 2Nx2N evaluation with python loops; no shared code."""
    z = np.vstack([v1, v2]).astype(np.float64)
    z = z / np.linalg.norm(z, axis=1, keepdims=True)
    sim = z @ z.T / tau
    n, two_n = len(v1), 2 * len(v1)
    total = 0.0
    for a in range(two_n):
        pos = a + n if a < n else a - n
        denom = sum(math.exp(sim[a, b]) for b in range(two_n) if b != a)
        total += -math.log(math.exp(sim[a, pos]) / denom)
    return total / two_n


def test_criterion_06_nt_xent_oracle():
    gen = stream(11, "acceptance/ntxent")
    for n in (2, 4, 8):
        v1 = gen.normal(size=(n, 6))
        v2 = gen.normal(size=(n, 6))
        got = float(nt_xent(Tensor(v1), Tensor(v2), tau=0.1).data)
        want = _brute_nt_xent(v1, v2, 0.1)
        assert abs(got - want) < 1e-10, (n, got, want)
    for n in (2, 4, 8):
        same = np.ones((n, 4))
        got = float(nt_xent(Tensor(same), Tensor(same), tau=0.1).data)
        assert abs(got - math.log(2 * n - 1)) < 1e-12, (n, got)
    print("PASS criterion 6: NT-Xent matches brute force (N=2,4,8) "
          "and ln(2N-1) identity")


def test_criterion_07_simple_cubic_oracle():
    s = CrystalStructure((11,), [[0.0, 0.0, 0.0]], np.eye(3))
    g = build_graph(s, 1.1, 25)
    assert g.num_edges == 6
    assert np.array_equal(g.distance, np.ones(6))
    assert np.array_equal(g.ref_vectors, np.eye(3))
    half = np.pi / 2
    for row in g.angles:
        assert sorted(row) == [0.0, half, half]  # exact
    print("PASS criterion 7: simple cubic a=1 r=1.1 -> 6 edges at 1.0, "
          "unit-axis refs, exact {0, pi/2, pi/2} angles")


def test_criterion_08_denoising_accounting():
    model = MGTModel(CHECK_CFG)
    gen = stream(11, "acceptance/noise")
    samples = [inject_noise(model.build_graph(random_structure(gen, 2, 6)),
                            0.15, gen) for _ in range(3)]
    zeros_t = Tensor(np.concatenate([np.zeros_like(s.eps_theta) for s in samples]))
    zeros_e = Tensor(np.concatenate([np.zeros((len(s.eps_e), 1)) for s in samples]))
    l_theta, l_e = denoising_losses(zeros_t, zeros_e, samples)
    want_theta = np.sum([np.sum(s.eps_theta ** 2) for s in samples])
    want_e = np.sum([np.sum(s.eps_e ** 2) for s in samples])
    assert float(l_theta.data) == float(want_theta)
    assert float(l_e.data) == float(want_e)

    perfect_t = Tensor(np.concatenate([s.eps_theta for s in samples]))
    perfect_e = Tensor(np.concatenate([s.eps_e for s in samples]).reshape(-1, 1))
    l_theta, l_e = denoising_losses(perfect_t, perfect_e, samples)
    assert float(l_theta.data) == 0.0
    assert float(l_e.data) == 0.0
    print("PASS criterion 8: zero heads give sum(eps^2) exactly; "
          "perfect heads give 0")


def test_criterion_09_learning_signal():
    base = dict(width=64, num_rbf=16, num_angle_rbf=16, cutoff=4.0,
                max_neighbors=12, l_max=1, seed=3, precision="f64",
                warmup_steps=10)
    gen = stream(3, "synth")
    structures = [random_structure(gen, 2, 4) for _ in range(64)]

    pt_cfg = RunConfig(**base, pretrain_batch_size=16, pretrain_epochs=50,
                       pretrain_lr=1e-3)
    pt_model = MGTModel(pt_cfg)

    targets = []
    for s in structures:
        g = pt_model.build_graph(s)
        nearest = np.full(len(s.species), np.inf)
        np.minimum.at(nearest, g.src, g.distance)
        targets.append(float(nearest.mean()))
    targets = np.array(targets)
    goal = 0.05 * float(targets.std())

    # pretraining on the same set must halve L_total within 200 steps
    graphs = [(pt_model.build_graph(s), f"s{i}")
              for i, s in enumerate(structures)]
    log = run_pretraining(pt_model, graphs, max_steps=200)
    assert pt_model.cfg.sigma == 0.15
    assert (pt_model.cfg.lambda_contrast, pt_model.cfg.lambda_se3,
            pt_model.cfg.lambda_so3) == (1.0, 0.5, 0.5)
    first = log[0]["L_total"]
    lowest = min(r["L_total"] for r in log)
    assert len(log) <= 200
    assert lowest <= 0.5 * first, f"L_total {first:.2f} -> {lowest:.2f}"

    # fine-tune the pretrained backbone down to the overfit goal
    ft_cfg = RunConfig(**base, finetune_lr=8e-3, finetune_batch_size=8,
                       finetune_epochs=500)
    ft_model = MGTModel(ft_cfg)
    transfer_encoder_params(ft_model, pt_model)
    records = [Record(f"s{i}", s, t)
               for i, (s, t) in enumerate(zip(structures, targets))]
    t0 = time.monotonic()
    res = finetune(ft_model, records, train_mae_goal=goal)
    elapsed = time.monotonic() - t0
    final_mae = res.history[-1]["train_mae"]
    assert res.epochs_run <= 500
    assert final_mae < goal, f"train MAE {final_mae:.4f} vs goal {goal:.4f}"
    assert elapsed < 600.0, f"fine-tuning took {elapsed:.1f}s"
    print(f"PASS criterion 9: L_total {first:.1f}->{lowest:.1f} "
          f"(halved within 200 steps); train MAE {final_mae:.4f} < "
          f"{goal:.4f} at epoch {res.epochs_run} ({elapsed:.1f}s)")


def test_criterion_10_moe_identities(tmp_path):
    store = ParamStore(5)
    head = MoEHead(store, "moe", 16)
    gen = stream(5, "acceptance/moe")
    e1 = Tensor(gen.normal(size=(4, 16)))
    e2 = Tensor(gen.normal(size=(4, 16)))
    for hot, expert in ((np.array([1.0, 0.0]), head.expert1),
                        (np.array([0.0, 1.0]), head.expert2)):
        pred, _ = head(e1, e2, router_override=hot)
        want = head.f_o(expert(e1 if hot[0] else e2))
        assert np.max(np.abs(pred.data - want.data)) < 1e-12

    rows = []
    for i in range(16):
        a = 2.7 + 0.1 * i
        rows.append(json.dumps({
            "id": f"s{i}", "species": [11, 17],
            "frac_coords": [[0, 0, 0], [0.5, 0.5, 0.5]],
            "lattice": [[a, 0, 0], [0, a, 0], [0, 0, a]]}))
    data = tmp_path / "sixteen.jsonl"
    data.write_text("\n".join(rows) + "\n")
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "width": 16, "num_rbf": 8, "num_angle_rbf": 8, "cutoff": 4.0,
        "max_neighbors": 12, "l_max": 1, "precision": "f64",
        "finetune_batch_size": 16}))
    out = tmp_path / "router.json"
    code = main(["inspect-router", "--config", str(cfg),
                 "--data", str(data), "--out", str(out)])
    assert code == 0
    report = json.loads(out.read_text())
    assert len(report["scores"]) == 16
    assert all(len(pair) == 2 for pair in report["scores"])
    print("PASS criterion 10: one-hot router == single expert (<1e-12); "
          "inspect-router emits 16 score pairs at batch size 16")


def test_criterion_11_serialization(tmp_path):
    cfg = RunConfig(width=16, num_rbf=8, num_angle_rbf=8, cutoff=4.0,
                    max_neighbors=12, l_max=1, seed=4, precision="f32")
    model = MGTModel(cfg)
    gen = stream(4, "acceptance/ser")
    records = [Record(f"s{i}", random_structure(gen, 2, 6), None)
               for i in range(5)]
    before = predict_records(model, records, None)
    save_checkpoint(model, str(tmp_path / "ck"))
    loaded, _ = load_checkpoint(str(tmp_path / "ck"))
    after = predict_records(loaded, records, None)
    got = np.array([r["prediction"] for r in after], dtype=np.float32)
    want = np.array([r["prediction"] for r in before], dtype=np.float32)
    assert np.array_equal(got, want), "checkpoint round trip not bitwise"

    set_default_dtype("f64")
    s = random_structure(stream(4, "acceptance/poscar"), 4, 8)
    back = parse_poscar(serialize_poscar(s))
    assert tuple(back.species) == tuple(s.species)
    assert np.max(np.abs(back.frac_coords - s.frac_coords)) < 1e-10
    assert np.max(np.abs(back.lattice - s.lattice)) < 1e-10
    print("PASS criterion 11: bitwise checkpoint round trip; "
          "POSCAR coordinates preserved to 1e-10")


def test_criterion_12_head_swap_parity():
    base = dict(width=16, num_rbf=8, num_angle_rbf=8, cutoff=4.0,
                max_neighbors=12, l_max=1, seed=6, precision="f64")
    moe = MGTModel(RunConfig(**base, head="moe"))
    concat = MGTModel(RunConfig(**base, head="concat"))
    gen = stream(6, "acceptance/swap")
    graphs = [moe.build_graph(random_structure(gen, 2, 6)) for _ in range(4)]
    out_a = moe.forward(graphs, training=False)
    out_b = concat.forward(graphs, training=False)
    for x, y in ((out_a.e1, out_b.e1), (out_a.e2, out_b.e2)):
        ha = hashlib.sha256(np.ascontiguousarray(x.data).tobytes()).hexdigest()
        hb = hashlib.sha256(np.ascontiguousarray(y.data).tobytes()).hexdigest()
        assert ha == hb, "upstream embeddings diverge between heads"
    assert not np.array_equal(out_a.prediction.data, out_b.prediction.data)
    print("PASS criterion 12: moe and concat heads share identical upstream "
          "embeddings (sha256 equal); only predictions differ")
