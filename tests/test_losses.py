import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from potts_sl import (
    AffinityConfig,
    DataError,
    Image,
    LogitField,
    LossConfig,
    PixelModel,
    ProbField,
    ScribbleField,
    SolverConfig,
    TrainConfig,
    alternate,
    build_graph,
    predict,
    pretrain,
    pseudo_label_objective,
    random_walker_solve,
    scribble_nll,
    sl_loss,
    solve_pseudo_labels,
    ws_loss,
)
from potts_sl.data_terms import XentKind, row_values
from potts_sl.losses import _joint_terms
from potts_sl.potts import PottsKind, plane_sum
from potts_sl.synthetic import solver_oracle_instance
from helpers import random_interior_field


def naive_ws(sigma, scribbles, graph, cfg):
    """Straight-line per-pixel/per-edge reimplementation with math.log."""
    flat = sigma.flat()
    lab = scribbles.data.ravel()
    total = 0.0
    for i in range(flat.shape[0]):
        if lab[i] > 0:
            total += -math.log(max(flat[i, lab[i] - 1], 1e-12))
        else:
            total += cfg.eta * sum(
                -p * math.log(p) for p in flat[i] if p > 0.0
            )
    for a, b, w in zip(graph.ei, graph.ej, graph.w):
        total += cfg.lam * w * pair_value(cfg.potts, flat[a], flat[b])
    return total


def pair_value(kind, p, q):
    dot = float(p @ q)
    if kind is PottsKind.Q:
        return 0.5 * float((p - q) @ (p - q))
    if kind is PottsKind.CD:
        return -math.log(dot / (np.linalg.norm(p) * np.linalg.norm(q)))
    if kind is PottsKind.BL:
        return 1.0 - dot
    raise AssertionError


def xent_ref(kind, y, s):
    if kind is XentKind.RCE:
        return sum(-s[k] * math.log(max(y[k], 1e-12)) for k in range(len(y)))
    if kind is XentKind.QUAD:
        return float((y - s) @ (y - s))
    if kind is XentKind.CCE:
        return -math.log(float(s @ y))
    raise AssertionError


def naive_sl(sigma, y, scribbles, graph, cfg):
    sf, yf = sigma.flat(), y.flat()
    lab = scribbles.data.ravel()
    total = 0.0
    for i in range(sf.shape[0]):
        if lab[i] > 0:
            total += -math.log(max(sf[i, lab[i] - 1], 1e-12))
        else:
            total += cfg.eta * xent_ref(cfg.xent, yf[i], sf[i])
    for a, b, w in zip(graph.ei, graph.ej, graph.w):
        total += cfg.lam * w * pair_value(cfg.potts, yf[a], yf[b])
    return total


def small_instance(seed, h=4, w=4, k=3, labeled=4):
    rng = np.random.default_rng(seed)
    image = Image(rng.integers(0, 256, size=(h, w, 3)))
    graph = build_graph(image, AffinityConfig(color_bandwidth=60.0))
    sigma = random_interior_field(rng, h, w, k)
    data = np.zeros(h * w, dtype=np.int64)
    pick = rng.permutation(h * w)[:labeled]
    data[pick] = rng.integers(1, k + 1, size=labeled)
    scribbles = ScribbleField(data.reshape(h, w))
    return sigma, scribbles, graph


def pin_to_scribbles(field, scribbles):
    data = field.data.copy()
    lab = scribbles.data
    for r, c in zip(*np.nonzero(lab)):
        data[r, c] = 0.0
        data[r, c, lab[r, c] - 1] = 1.0
    return ProbField(data)


class TestWsLoss:
    def test_zero_when_predictions_match_everywhere(self):
        data = np.zeros((3, 3, 2))
        data[:, :, 0] = 1.0
        sigma = ProbField(data)
        scribbles = ScribbleField(np.ones((3, 3), dtype=np.int64))
        image = Image(np.full((3, 3, 3), 10, dtype=np.uint8))
        graph = build_graph(image, AffinityConfig())
        cfg = LossConfig(eta=1.7, lam=4.2, potts=PottsKind.CD, xent=XentKind.CCE)
        assert ws_loss(sigma, scribbles, graph, cfg) == 0.0

    def test_term_isolation_lambda_zero(self):
        sigma, scribbles, graph = small_instance(0)
        cfg = LossConfig(eta=1.0, lam=0.0, potts=PottsKind.Q, xent=XentKind.CCE)
        flat = sigma.flat()
        lab = scribbles.data.ravel()
        nll = sum(-math.log(flat[i, lab[i] - 1]) for i in range(16) if lab[i] > 0)
        ent = sum(
            -sum(p * math.log(p) for p in flat[i])
            for i in range(16)
            if lab[i] == 0
        )
        assert abs(ws_loss(sigma, scribbles, graph, cfg) - (nll + ent)) < 1e-9

    @pytest.mark.parametrize("potts", [PottsKind.Q, PottsKind.CD, PottsKind.BL])
    def test_matches_naive_reimplementation(self, potts):
        sigma, scribbles, graph = small_instance(1)
        cfg = LossConfig(eta=0.3, lam=6.0, potts=potts, xent=XentKind.CCE)
        assert abs(ws_loss(sigma, scribbles, graph, cfg) - naive_ws(sigma, scribbles, graph, cfg)) < 1e-9

    def test_scribble_class_exceeding_k(self):
        sigma, scribbles, graph = small_instance(2)
        bad = scribbles.data.copy()
        bad[bad > 0] = 9
        with pytest.raises(DataError):
            ws_loss(sigma, ScribbleField(bad), graph, LossConfig())

    def test_monotone_in_lambda(self):
        sigma, scribbles, graph = small_instance(3)
        for potts in (PottsKind.Q, PottsKind.CD):
            prev = None
            for lam in (0.0, 1.0, 3.0, 10.0):
                cfg = LossConfig(eta=0.3, lam=lam, potts=potts)
                value = ws_loss(sigma, scribbles, graph, cfg)
                if prev is not None:
                    assert value >= prev - 1e-12
                prev = value


class TestSlLoss:
    def test_splitting_identity_rce(self):
        # with y == sigma and the reverse coupling the two losses coincide
        for seed in range(20):
            sigma, scribbles, graph = small_instance(seed)
            sigma = pin_to_scribbles(sigma, scribbles)
            cfg = LossConfig(eta=0.3, lam=6.0, potts=PottsKind.CD, xent=XentKind.RCE)
            a = sl_loss(sigma, sigma, scribbles, graph, cfg)
            b = ws_loss(sigma, scribbles, graph, cfg)
            assert abs(a - b) < 1e-9

    def test_quad_unconstrained_minimizer_is_sigma(self):
        sigma, scribbles, graph = small_instance(4)
        cfg = LossConfig(eta=1.0, lam=0.0, potts=PottsKind.Q, xent=XentKind.QUAD)
        y0 = pin_to_scribbles(sigma, scribbles)
        base = sl_loss(sigma, y0, scribbles, graph, cfg)
        rng = np.random.default_rng(5)
        for _ in range(10):
            noise = rng.standard_normal(sigma.data.shape) * 0.01
            noise -= noise.mean(axis=2, keepdims=True)
            perturbed = np.clip(y0.data + noise, 1e-9, None)
            perturbed /= perturbed.sum(axis=2, keepdims=True)
            y = pin_to_scribbles(ProbField(perturbed), scribbles)
            assert sl_loss(sigma, y, scribbles, graph, cfg) >= base - 1e-12

    @pytest.mark.parametrize("xent", [XentKind.RCE, XentKind.QUAD, XentKind.CCE])
    def test_matches_naive_reimplementation(self, xent):
        sigma, scribbles, graph = small_instance(6)
        rng = np.random.default_rng(7)
        y = pin_to_scribbles(random_interior_field(rng, 4, 4, 3), scribbles)
        cfg = LossConfig(eta=0.4, lam=2.0, potts=PottsKind.Q, xent=xent)
        assert abs(sl_loss(sigma, y, scribbles, graph, cfg) - naive_sl(sigma, y, scribbles, graph, cfg)) < 1e-9

    def test_constraint_violation_rejected(self):
        sigma, scribbles, graph = small_instance(8)
        rng = np.random.default_rng(9)
        y = random_interior_field(rng, 4, 4, 3)  # not pinned
        with pytest.raises(DataError):
            sl_loss(sigma, y, scribbles, graph, LossConfig())

    def test_permutation_equivariance(self):
        sigma, scribbles, graph = small_instance(10)
        sigma = pin_to_scribbles(sigma, scribbles)
        rng = np.random.default_rng(11)
        y = pin_to_scribbles(random_interior_field(rng, 4, 4, 3), scribbles)
        cfg = LossConfig(eta=0.5, lam=3.0, potts=PottsKind.CD, xent=XentKind.CCE)
        base_ws = ws_loss(sigma, scribbles, graph, cfg)
        base_sl = sl_loss(sigma, y, scribbles, graph, cfg)
        perm = np.array([2, 0, 1])  # new order of class channels
        inv = np.argsort(perm)
        sigma_p = ProbField(sigma.data[:, :, perm])
        y_p = ProbField(y.data[:, :, perm])
        lab = scribbles.data
        relabeled = np.where(lab > 0, inv[lab - 1] + 1, 0)
        scr_p = ScribbleField(relabeled)
        assert abs(ws_loss(sigma_p, scr_p, graph, cfg) - base_ws) < 1e-9
        assert abs(sl_loss(sigma_p, y_p, scr_p, graph, cfg) - base_sl) < 1e-9


@pytest.mark.parametrize("potts", list(PottsKind))
@pytest.mark.parametrize("xent", list(XentKind))
def test_joint_terms_are_the_loss_parts(potts, xent):
    # sl_loss, the solver and the trainer all sum the joint loss through
    # _joint_terms, so its parts and their one order are pinned here
    sigma, scribbles, graph = small_instance(12)
    y = pin_to_scribbles(random_interior_field(np.random.default_rng(13), 4, 4, 3), scribbles)
    cfg = LossConfig(eta=0.4, lam=2.0, potts=potts, xent=xent)
    s, yp = sigma.planes(), y.planes()
    lab = scribbles.data.ravel()
    free = np.flatnonzero(lab == 0)
    pairwise = plane_sum(potts, yp, graph, np.zeros_like(yp), cfg.lam)[0]
    picked = s[lab[lab > 0] - 1, lab > 0]
    terms, ndiv, grads = _joint_terms(cfg, picked, yp, s, free, pairwise)
    vals, ref_div, ref_grads = row_values(xent, yp[:, free], s[:, free])
    assert terms.nll == scribble_nll(sigma, scribbles)
    assert terms.coupling == cfg.eta * float(np.sum(vals))
    assert terms.pairwise == pairwise
    assert terms.value == terms.nll + terms.coupling + terms.pairwise
    assert sl_loss(sigma, y, scribbles, graph, cfg) == terms.value
    assert ndiv == np.count_nonzero(ref_div)
    # the gradient pair is row_values' on the whole planes, unscaled by eta
    for g, ref, whole in zip(grads, ref_grads, row_values(xent, yp, s)[2]):
        assert np.array_equal(g[:, free], ref)
        assert np.array_equal(g, whole)


@pytest.mark.parametrize("potts", list(PottsKind))
@pytest.mark.parametrize("lam", [1e300, 1e308])
def test_value_functions_at_an_extreme_pairwise_weight(potts, lam):
    # each value function assembles the pairwise gradient and drops it; at
    # lam = 1e308 that gradient overflows, silently (a RuntimeWarning fails
    # this suite), and the value is inf; at 1e300 it is the lam = 0 value
    # plus lam times the unit-weight edge sum, the bits of a plain sum
    sigma, scribbles, image = solver_oracle_instance(0, height=8, width=8)
    graph = build_graph(image, AffinityConfig())
    y = pin_to_scribbles(random_interior_field(np.random.default_rng(8), 8, 8, 3), scribbles)
    losses = {
        "ws_loss": (lambda c: ws_loss(sigma, scribbles, graph, c), sigma),
        "sl_loss": (lambda c: sl_loss(sigma, y, scribbles, graph, c), y),
        "pseudo_label_objective":
            (lambda c: pseudo_label_objective(sigma, y, scribbles, graph, c), y),
    }
    for name, (loss, field) in losses.items():
        value = loss(LossConfig(lam=lam, potts=potts))
        planes = field.planes()
        unit = plane_sum(potts, planes, graph, np.zeros_like(planes))[0]
        if lam == 1e308:
            assert value == math.inf, name
        else:
            assert value == loss(LossConfig(lam=0.0, potts=potts)) + lam * unit, name


def gathered_terms(cfg, y, s, free):
    """Coupling, divergent count and gradient pair of row_values on the
    free columns gathered first: the reference for whole-plane _joint_terms."""
    vals, div, grads = row_values(cfg.xent, np.ascontiguousarray(y[:, free]),
                                  np.ascontiguousarray(s[:, free]))
    return cfg.eta * float(np.sum(vals)), int(np.count_nonzero(div)), grads


@st.composite
def coupling_cases(draw):
    """(cfg, picked, y, s, free): random (K, N) planes with no, some or all
    pixels scribbled. y is pinned to its one-hot on scribbled pixels, some
    one-hot rows make free pixels diverge, and sigma is 0 in the scribbled
    class at some scribbled pixels."""
    k = draw(st.integers(2, 21))
    n = draw(st.integers(1, 40))
    scribbled_share = draw(st.sampled_from(["none", "some", "all"]))
    xent = draw(st.sampled_from(list(XentKind)))
    eta = draw(st.sampled_from([0.0, 1.0 / 7.0, 0.3, 1e3]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    y = rng.dirichlet(np.ones(k), size=n)
    s = rng.dirichlet(np.ones(k), size=n)
    eye = np.eye(k)
    for a in (y, s):
        hard = rng.uniform(size=n) < 0.2
        a[hard] = eye[rng.integers(k, size=np.count_nonzero(hard))]
    lab = {"none": np.zeros(n, dtype=np.int64),
           "some": rng.integers(0, k + 1, size=n) * (rng.uniform(size=n) < 0.5),
           "all": rng.integers(1, k + 1, size=n)}[scribbled_share]
    scribbled = np.flatnonzero(lab)
    y[scribbled] = eye[lab[scribbled] - 1]
    # sigma = 0 in the scribbled class: the other classes share its mass
    zero = scribbled[rng.uniform(size=scribbled.size) < 0.5]
    s[zero] = eye[lab[zero] % k]
    picked = s[scribbled, lab[scribbled] - 1]
    free = np.flatnonzero(lab == 0)
    cfg = LossConfig(eta=eta, xent=xent)
    return cfg, picked, np.ascontiguousarray(y.T), np.ascontiguousarray(s.T), free


@settings(max_examples=300)
@given(coupling_cases())
def test_whole_plane_joint_terms_match_gathered_columns_bit_for_bit(case):
    cfg, picked, y, s, free = case
    terms, ndiv, grads = _joint_terms(cfg, picked, y, s, free)
    coupling, ref_ndiv, ref_grads = gathered_terms(cfg, y, s, free)
    assert terms.coupling.hex() == coupling.hex()
    assert ndiv == ref_ndiv
    for g, ref in zip(grads, ref_grads):
        assert g.shape == y.shape
        assert np.ascontiguousarray(g[:, free]).tobytes() == ref.tobytes()


@pytest.mark.parametrize("data, message", [
    (np.ones((5, 5), dtype=np.int64), "field is 4x4 but scribbles are 5x5"),
    # as many pixels as the field, in another shape: no index error to catch it
    (np.ones((2, 8), dtype=np.int64), "field is 4x4 but scribbles are 2x8"),
    (np.diag([1, 3, 0, 2]), "scribble class 3 exceeds K=2"),
], ids=["larger", "same-size", "class-above-k"])
def test_scribble_nll_checks_its_instance(data, message):
    sigma = random_interior_field(np.random.default_rng(15), 4, 4, 2)
    with pytest.raises(DataError, match=message):
        scribble_nll(sigma, ScribbleField(data))


@pytest.mark.parametrize("shape", [(4, 5, 2), (5, 4, 3), (4, 5, 4)])
@pytest.mark.parametrize("loss", [sl_loss, pseudo_label_objective],
                         ids=["sl_loss", "pseudo_label_objective"])
def test_pseudo_label_shape_must_match_the_predictions(loss, shape):
    rng = np.random.default_rng(14)
    graph = build_graph(Image(rng.integers(0, 256, size=(4, 5, 3))),
                        AffinityConfig(color_bandwidth=60.0))
    sigma = random_interior_field(rng, 4, 5, 3)
    y = random_interior_field(rng, *shape)
    no_scribbles = ScribbleField(np.zeros((4, 5), dtype=np.int64))
    with pytest.raises(DataError, match="pseudo-label field shape differs"):
        loss(sigma, y, no_scribbles, graph, LossConfig())


def well_formed_instance():
    """A 4x4, K = 2 instance every entry point accepts."""
    rng = np.random.default_rng(25)
    image = Image(rng.integers(0, 256, size=(4, 4, 3)))
    sigma = random_interior_field(rng, 4, 4, 2)
    labels = np.diag([1, 2, 0, 1])
    y = sigma.data.copy()
    y[labels > 0] = np.eye(2)[labels[labels > 0] - 1]
    return {"sigma": sigma, "y": ProbField(y), "init_logits": LogitField(np.zeros((4, 4, 2))),
            "image": image, "scribbles": ScribbleField(labels),
            "graph": build_graph(image, AffinityConfig()), "model": PixelModel.zeros(2)}


# Each entry point that checks an instance, with the parts of it that it reads.
ENTRY_POINTS = {
    "solve_pseudo_labels": ({"scribbles", "graph", "init_logits"}, lambda i: solve_pseudo_labels(
        i["sigma"], i["init_logits"], i["scribbles"], i["graph"], LossConfig(),
        SolverConfig(steps=2))),
    "pseudo_label_objective": ({"scribbles", "graph", "y"}, lambda i: pseudo_label_objective(
        i["sigma"], i["y"], i["scribbles"], i["graph"], LossConfig())),
    "sl_loss": ({"scribbles", "graph", "y"}, lambda i: sl_loss(
        i["sigma"], i["y"], i["scribbles"], i["graph"], LossConfig())),
    "ws_loss": ({"scribbles", "graph"}, lambda i: ws_loss(
        i["sigma"], i["scribbles"], i["graph"], LossConfig())),
    "scribble_nll": ({"scribbles"}, lambda i: scribble_nll(i["sigma"], i["scribbles"])),
    "random_walker_solve": ({"scribbles", "graph"}, lambda i: random_walker_solve(
        i["sigma"], i["scribbles"], i["graph"], 0.3, 6.0)),
    "pretrain": ({"scribbles", "model"}, lambda i: pretrain(
        i["model"], i["image"], i["scribbles"], TrainConfig(pretrain_epochs=2))),
    "alternate": ({"scribbles", "graph", "model"}, lambda i: alternate(
        i["model"], i["image"], i["scribbles"], i["graph"],
        TrainConfig(rounds=1, inner_epochs=2, solver_cfg=SolverConfig(steps=2)))),
    "predict": ({"model"}, lambda i: predict(i["model"], i["image"])),
}

# (name, part replaced, its malformed value, the DataError message)
MALFORMED = [
    ("scribble-shape", "scribbles", ScribbleField(np.ones((5, 5), dtype=np.int64)),
     "field is 4x4 but scribbles are 5x5"),
    ("class-above-k", "scribbles", ScribbleField(np.diag([1, 3, 0, 2])),
     "scribble class 3 exceeds K=2"),
    ("graph-grid", "graph", build_graph(Image(np.zeros((2, 8, 3))), AffinityConfig()),
     "graph covers a 2x8 grid, field is 4x4"),
    ("y-shape", "y", ProbField.uniform(4, 4, 3),
     "pseudo-label field shape differs from prediction field"),
    ("init-logits-shape", "init_logits", LogitField(np.zeros((4, 5, 2))),
     "initial logits shape differs from the prediction field"),
    ("feature-width", "model", PixelModel.zeros(2, dim=32),
     "model takes 32 features per pixel, images give 5"),
]


@pytest.mark.parametrize("name", sorted(ENTRY_POINTS))
def test_entry_point_accepts_the_well_formed_instance(name):
    ENTRY_POINTS[name][1](well_formed_instance())


@pytest.mark.parametrize("name, part, value, message", [
    pytest.param(name, part, value, message, id=f"{name}-{case}")
    for name, (parts, _) in sorted(ENTRY_POINTS.items())
    for case, part, value, message in MALFORMED if part in parts])
def test_entry_point_refuses_a_malformed_instance(name, part, value, message):
    instance = well_formed_instance()
    instance[part] = value
    with pytest.raises(DataError, match=re.escape(message)):
        ENTRY_POINTS[name][1](instance)
