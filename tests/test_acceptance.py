"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
complete. Tolerances are pinned here, not configurable.
"""

import math
import time

import numpy as np
import pytest

from potts_sl import (
    AffinityConfig,
    AffinityGraph,
    Image,
    LogitField,
    LossConfig,
    ProbField,
    ScribbleField,
    argmax_decode,
    brute_force_discrete,
    build_graph,
    discrete_energy,
    miou,
    potts_value,
    random_walker_solve,
    read_image,
    read_probfield,
    read_scribbles,
    sl_loss,
    soft_jaccard,
    solve_pseudo_labels,
    write_image,
    write_labels,
    write_probfield,
    ws_loss,
    xent_value,
)
from potts_sl.cli import gradcheck_suite, main
from potts_sl.data_terms import XentKind
from potts_sl.fileio import read_label_map
from potts_sl.potts import PottsKind
from potts_sl.solver import SolverConfig
from potts_sl.synthetic import solver_oracle_instance, tightness_instance, two_region_instance
from potts_sl.trainer import PixelModel, TrainConfig, alternate, corruption_experiment, predict, pretrain
from helpers import interior_point, random_interior_field


def check(num, description, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f"  [{detail}]" if detail else ""
    print(f"ACCEPTANCE {num:02d} {status}  {description}{suffix}")
    assert ok, f"criterion {num}: {description}{suffix}"


def test_01_gradient_suite():
    start = time.monotonic()
    results = gradcheck_suite(pairs=100, classes=4, seed=0)
    elapsed = time.monotonic() - start
    worst = max(results.values())
    assert len(results) == 10  # six pairwise kinds + four couplings
    check(
        1,
        "analytic gradients match central differences (rel err < 1e-4, < 10 s)",
        worst < 1e-4 and elapsed < 10.0,
        f"worst {worst:.2e}, {elapsed:.1f}s",
    )


def test_02_pinned_interaction_constants():
    bl = potts_value(PottsKind.BL, [0.5, 0.5, 0.0], [0.5, 0.5, 0.0])
    q = potts_value(PottsKind.Q, [1.0, 0.0, 0.0], [0.0, 0.5, 0.5])
    check(
        2,
        "shared-soft-state bilinear = 1/2 and boundary-move quadratic = 3/4",
        abs(bl - 0.5) < 1e-12 and abs(q - 0.75) < 1e-12,
        f"bl {bl!r}, q {q!r}",
    )


def test_03_move_path_properties():
    ts = np.linspace(0.0, 1.0, 1001)
    ok = True
    # joint move: both pixels at (1-t, t, 0)
    bl = np.array([potts_value(PottsKind.BL, [1 - t, t, 0], [1 - t, t, 0]) for t in ts])
    q = np.array([potts_value(PottsKind.Q, [1 - t, t, 0], [1 - t, t, 0]) for t in ts])
    nq = np.array([potts_value(PottsKind.NQ, [1 - t, t, 0], [1 - t, t, 0]) for t in ts])
    ok &= np.max(np.abs(q)) < 1e-9 and np.max(np.abs(nq)) < 1e-9
    k = int(np.argmax(bl))
    ok &= ts[k] == 0.5 and abs(bl[k] - 0.5) < 1e-9
    # one-sided move: (1,0,0) against (0, t, 1-t)
    bl = np.array([potts_value(PottsKind.BL, [1, 0, 0], [0, t, 1 - t]) for t in ts])
    q = np.array([potts_value(PottsKind.Q, [1, 0, 0], [0, t, 1 - t]) for t in ts])
    nq = np.array([potts_value(PottsKind.NQ, [1, 0, 0], [0, t, 1 - t]) for t in ts])
    ok &= np.max(np.abs(bl - 1.0)) < 1e-9 and np.max(np.abs(nq - 1.0)) < 1e-9
    k = int(np.argmin(q))
    ok &= ts[k] == 0.5 and abs(q[k] - 0.75) < 1e-9
    check(3, "move-path values on a 1001-point grid (1e-9)", bool(ok))


def test_04_decisiveness_identity():
    rng = np.random.default_rng(4)
    worst = 0.0
    for _ in range(1000):
        p = rng.dirichlet(np.ones(4))
        q = rng.dirichlet(np.ones(4))
        lhs = potts_value(PottsKind.Q, p, q) - potts_value(PottsKind.BL, p, q)
        rhs = 0.5 * p @ p + 0.5 * q @ q - 1.0
        worst = max(worst, abs(lhs - rhs))
    check(4, "quadratic minus bilinear equals the norm identity (1e-9)", worst < 1e-9,
          f"worst {worst:.2e}")


def _pinned_instance(seed, h=4, w=4, k=3):
    rng = np.random.default_rng(seed)
    image = Image(rng.integers(0, 256, size=(h, w, 3)))
    graph = build_graph(image, AffinityConfig(color_bandwidth=60.0))
    sigma = random_interior_field(rng, h, w, k)
    data = np.zeros(h * w, dtype=np.int64)
    pick = rng.permutation(h * w)[:4]
    data[pick] = rng.integers(1, k + 1, size=4)
    scribbles = ScribbleField(data.reshape(h, w))
    pinned = sigma.data.copy()
    lab = scribbles.data
    for r, c in zip(*np.nonzero(lab)):
        pinned[r, c] = 0.0
        pinned[r, c, lab[r, c] - 1] = 1.0
    return ProbField(pinned), scribbles, graph


def test_05_splitting_identity():
    worst = 0.0
    for seed in range(20):
        sigma, scribbles, graph = _pinned_instance(seed)
        cfg = LossConfig(eta=0.3, lam=6.0, potts=PottsKind.CD, xent=XentKind.RCE)
        gap = abs(sl_loss(sigma, sigma, scribbles, graph, cfg) - ws_loss(sigma, scribbles, graph, cfg))
        worst = max(worst, gap)
    check(5, "self-labeling loss at y = sigma equals the direct loss (1e-9)",
          worst < 1e-9, f"worst {worst:.2e}")


SOLVER_SUITE_ETA = 4.0
SOLVER_SUITE_LAM = 2.0


def _solver_suite():
    cfg = LossConfig(eta=SOLVER_SUITE_ETA, lam=SOLVER_SUITE_LAM,
                     potts=PottsKind.Q, xent=XentKind.QUAD)
    for seed in range(10):
        sigma, scribbles, image = solver_oracle_instance(seed)
        graph = build_graph(image, AffinityConfig())
        yield sigma, scribbles, graph, cfg


def test_06_solver_matches_exact_oracle():
    start = time.monotonic()
    scores = []
    for sigma, scribbles, graph, cfg in _solver_suite():
        y, _ = solve_pseudo_labels(sigma, None, scribbles, graph, cfg,
                                   SolverConfig(steps=200, learning_rate=0.075))
        oracle = random_walker_solve(sigma, scribbles, graph, cfg.eta, cfg.lam)
        scores.append(soft_jaccard(y, oracle))
    elapsed = time.monotonic() - start
    mean, low = float(np.mean(scores)), float(np.min(scores))
    check(6, "gradient solver vs exact quadratic oracle (mean >= 0.98, min >= 0.95, < 60 s)",
          mean >= 0.98 and low >= 0.95 and elapsed < 60.0,
          f"mean {mean:.4f}, min {low:.4f}, {elapsed:.1f}s")


def test_07_step_halving_robustness():
    worst = 0.0
    for sigma, scribbles, graph, cfg in _solver_suite():
        _, full = solve_pseudo_labels(sigma, None, scribbles, graph, cfg,
                                      SolverConfig(steps=200, learning_rate=0.075))
        _, half = solve_pseudo_labels(sigma, None, scribbles, graph, cfg,
                                      SolverConfig(steps=100, learning_rate=0.075))
        rel = abs(half.trace[-1] - full.trace[-1]) / abs(full.trace[-1])
        worst = max(worst, rel)
    check(7, "halving the step count moves the objective by < 5%", worst < 0.05,
          f"worst {100 * worst:.2f}%")


def test_08_bilinear_tightness():
    eta = lam = 4.0
    hits = 0
    for seed in range(30):
        sigma, image = tightness_instance(seed)
        graph = build_graph(image, AffinityConfig(color_bandwidth=80.0))
        scribbles = ScribbleField(np.zeros((3, 3), dtype=np.int64))
        unary = eta * (-np.log(sigma.flat()))
        _, optimum = brute_force_discrete(unary, graph, lam)
        cfg = LossConfig(eta=eta, lam=lam, potts=PottsKind.BL, xent=XentKind.CCE)
        rng = np.random.default_rng(1000 + seed)
        best = np.inf
        for _ in range(5):
            init = LogitField(rng.standard_normal((3, 3, 2)))
            y, _ = solve_pseudo_labels(sigma, init, scribbles, graph, cfg, SolverConfig())
            energy = discrete_energy(argmax_decode(y).ravel(), unary, graph, lam)
            best = min(best, energy)
        if best <= optimum * 1.02 + 1e-12:
            hits += 1
    check(8, "best-of-5 bilinear decode within 2% of the enumerated optimum (>= 27/30)",
          hits >= 27, f"{hits}/30")


def test_09_corruption_ordering():
    start = time.monotonic()
    stable = 0
    gaps = []
    for seed in (1, 2, 3, 4, 5):
        rows = corruption_experiment(seed=seed)
        table = {(eta, kind): acc for eta, kind, acc in rows}
        rce_gap = table[(0.8, "rce")] - table[(0.8, "ce")]
        cce_gap = table[(0.8, "cce")] - table[(0.8, "ce")]
        gaps.append((rce_gap, cce_gap))
        if rce_gap >= 0.05 and cce_gap >= 0.05:
            stable += 1
    elapsed = time.monotonic() - start
    check(9, "at 80% corruption, reverse and collision beat standard by >= 5 pts (>= 4/5 seeds, < 60 s)",
          stable >= 4 and elapsed < 60.0,
          f"{stable}/5 seeds, gaps {[(round(a, 3), round(b, 3)) for a, b in gaps]}, {elapsed:.1f}s")


def test_10_alternation_descent():
    image, scribbles, gt = two_region_instance(seed=7)
    graph = build_graph(image, AffinityConfig())
    cfg = TrainConfig(rounds=20)
    model = pretrain(PixelModel.zeros(2), image, scribbles, cfg)
    pre_sigma, _ = predict(model, image)
    pre_miou = miou(argmax_decode(pre_sigma), gt, 2)
    model, y, trace = alternate(model, image, scribbles, graph, cfg)
    final_sigma, _ = predict(model, image)
    sigma_miou = miou(argmax_decode(final_sigma), gt, 2)
    y_miou = miou(argmax_decode(y), gt, 2)
    monotone = bool(np.max(np.diff(trace)) <= 1e-6)
    check(10, "20-round alternation: non-increasing joint loss and decode beats pretraining",
          monotone and y_miou > pre_miou and sigma_miou > pre_miou,
          f"pretrain {pre_miou:.3f} -> y {y_miou:.3f}, sigma {sigma_miou:.3f}, monotone {monotone}")


def test_11_constancy_under_uncertainty():
    rng = np.random.default_rng(11)
    k = 5
    u = np.full(k, 1.0 / k)
    worst = 0.0
    for _ in range(100):
        sigma = interior_point(rng, k)
        worst = max(worst, abs(xent_value(XentKind.RCE, u, sigma) - math.log(k)))
        worst = max(worst, abs(xent_value(XentKind.CCE, u, sigma) - math.log(k)))
    # numeric argmin of the standard coupling over a simplex grid (K = 3)
    u3 = np.full(3, 1.0 / 3.0)
    best, best_val = None, np.inf
    grid = np.linspace(0.01, 0.98, 98)
    for a in grid:
        for b in grid:
            c = 1.0 - a - b
            if c < 0.01:
                continue
            v = xent_value(XentKind.CE, u3, np.array([a, b, c]))
            if v < best_val:
                best, best_val = np.array([a, b, c]), v
    at_uniform = np.max(np.abs(best - u3)) < 0.011  # within one grid step
    check(11, "uniform targets: reverse/collision constant at ln K (1e-12), standard mimics",
          worst < 1e-12 and at_uniform, f"worst dev {worst:.2e}, argmin {np.round(best, 3)}")


def test_12_io_round_trips(tmp_path):
    ok = True
    rng = np.random.default_rng(12)
    # PFLD round trip, bit-exact at float32
    field = ProbField(rng.dirichlet(np.ones(3), size=(4, 6)).astype(np.float32).astype(np.float64))
    a, b = tmp_path / "a.pfld", tmp_path / "b.pfld"
    write_probfield(field, a)
    write_probfield(read_probfield(a), b)
    ok &= a.read_bytes() == b.read_bytes()
    # golden bytes for the 1x1 two-class field
    golden = tmp_path / "golden.pfld"
    write_probfield(ProbField(np.array([[[0.25, 0.75]]])), golden)
    expected = (b"PFLD" + b"\x01\x00\x00\x00" * 2 + b"\x02\x00\x00\x00"
                + b"\x00\x00\x80\x3e" + b"\x00\x00\x40\x3f")
    ok &= golden.read_bytes() == expected
    # PPM and PGM read/write identity
    image = Image(rng.integers(0, 256, size=(5, 4, 3)))
    ppm = tmp_path / "img.ppm"
    write_image(image, ppm)
    ok &= np.array_equal(read_image(ppm).data, image.data)
    labels = rng.integers(0, 3, size=(5, 4))
    pgm = tmp_path / "lab.pgm"
    write_labels(labels, pgm)
    ok &= np.array_equal(read_scribbles(pgm, classes=2).data, labels)
    raw = read_label_map(pgm)
    ok &= np.array_equal(np.where(raw == 255, 0, raw), labels)
    # hand-counted mean IoU
    pred = np.array([[1, 1], [2, 2]])
    gt = np.array([[1, 2], [2, 2]])
    ok &= abs(miou(pred, gt, 2) - 7.0 / 12.0) < 1e-12
    check(12, "file format round trips, golden bytes, and the hand-counted mIoU", bool(ok))


def test_13_end_to_end_determinism(tmp_path):
    image, scribbles, gt = two_region_instance(seed=7)
    files = {
        "image": tmp_path / "img.ppm",
        "scribbles": tmp_path / "scr.pgm",
        "gt": tmp_path / "gt.pgm",
        "config": tmp_path / "run.cfg",
    }
    write_image(image, files["image"])
    write_labels(scribbles.data, files["scribbles"])
    write_labels(gt, files["gt"])
    files["config"].write_text("seed = 7\nrounds = 3\nsteps = 60\n")
    snapshots = []
    for name in ("run1", "run2"):
        out = tmp_path / name
        code = main([
            "train", "--image", str(files["image"]), "--scribbles", str(files["scribbles"]),
            "--config", str(files["config"]), "--out", str(out), "--gt", str(files["gt"]),
        ])
        assert code == 0
        snapshots.append({f.name: f.read_bytes() for f in sorted(out.iterdir())})
    identical = snapshots[0].keys() == snapshots[1].keys() and all(
        snapshots[0][k] == snapshots[1][k] for k in snapshots[0]
    )
    check(13, "two seeded training runs write bitwise-identical artifacts", identical,
          f"{len(snapshots[0])} files compared")
