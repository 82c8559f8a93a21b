import itertools

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from potts_sl import (
    AffinityConfig,
    DataError,
    NeighborhoodKind,
    Image,
    ProbField,
    LossConfig,
    ScribbleField,
    argmax_decode,
    build_graph,
    miou,
    pseudo_label_objective,
    sl_loss,
)
from potts_sl.data_terms import XentKind, row_values
from potts_sl.losses import scribble_nll
from potts_sl.oracles import finite_diff_check
from potts_sl.potts import PottsKind, plane_sum
from potts_sl.simplex import one_hot_rows, softmax_rows
from potts_sl.solver import SolverConfig
from potts_sl.synthetic import gaussian_blobs_dataset, two_region_instance
from potts_sl.trainer import (
    PixelModel,
    TrainConfig,
    _fit_linear_softmax,
    _sl_value_and_grad,
    alternate,
    corruption_experiment,
    pixel_features,
    predict,
    pretrain,
)


def separable_image(h=8, w=8):
    """Left half dark, right half bright: trivially separable by color."""
    img = np.zeros((h, w, 3))
    img[:, w // 2 :] = 200.0
    labels = np.zeros((h, w), dtype=np.int64)
    labels[:, : w // 2] = 1
    labels[:, w // 2 :] = 2
    return Image(img), labels


class TestPredict:
    def test_zero_model_is_uniform(self):
        image, _ = separable_image()
        sigma, logits = predict(PixelModel.zeros(3), image)
        np.testing.assert_allclose(sigma.data, 1.0 / 3.0, atol=1e-15)
        np.testing.assert_allclose(logits.data, 0.0, atol=1e-15)

    def test_bias_shift_invariance(self):
        rng = np.random.default_rng(0)
        image = Image(rng.integers(0, 256, size=(5, 5, 3)))
        model = PixelModel(rng.standard_normal((3, 5)), rng.standard_normal(3))
        shifted = PixelModel(model.weights.copy(), model.bias + 13.7)
        a, _ = predict(model, image)
        b, _ = predict(shifted, image)
        np.testing.assert_allclose(a.data, b.data, atol=1e-12)

    def test_features_layout(self):
        image, _ = separable_image(2, 3)
        phi = pixel_features(image)
        assert phi.shape == (6, 5)
        assert phi[:, :3].max() <= 1.0 and phi[:, 3:].min() >= 0.0
        # row-major: second pixel is (row 0, col 1)
        assert phi[1, 3] == 1.0 / 3.0 and phi[1, 4] == 0.0


class TestPixelModel:
    def test_width_comes_from_the_weights(self):
        rng = np.random.default_rng(4)
        model = PixelModel(rng.standard_normal((3, 32)), rng.standard_normal(3))
        back = PixelModel.unpack(model.pack(), 3)
        assert back.weights.shape == (3, 32) and back.classes == 3
        np.testing.assert_array_equal(back.weights, model.weights)
        np.testing.assert_array_equal(back.bias, model.bias)

    @pytest.mark.parametrize("weights", [np.zeros((3, 0)), np.zeros(3)])
    def test_refuses_weights_without_a_feature_axis(self, weights):
        with pytest.raises(DataError, match=r"weights must be \(K, D\)"):
            PixelModel(weights, np.zeros(3))

    def test_zeros_takes_a_width(self):
        model = PixelModel.zeros(3, 32)
        assert model.weights.shape == (3, 32) and model.bias.shape == (3,)
        assert PixelModel.zeros(2).weights.shape == (2, 5)


class TestPretrain:
    def test_separable_scribbles_reach_full_accuracy(self):
        image, labels = separable_image()
        data = np.zeros_like(labels)
        data[1, 1] = 1
        data[2, 6] = 2
        data[5, 2] = 1
        data[6, 5] = 2
        scribbles = ScribbleField(data)
        cfg = TrainConfig(pretrain_epochs=300)
        model = pretrain(PixelModel.zeros(2), image, scribbles, cfg)
        sigma, _ = predict(model, image)
        decoded = argmax_decode(sigma)
        mask = data > 0
        assert np.array_equal(decoded[mask], data[mask])

    def test_no_scribbles_warns_and_keeps_model(self):
        image, _ = separable_image()
        scribbles = ScribbleField(np.zeros((8, 8), dtype=np.int64))
        model = PixelModel.zeros(2)
        with pytest.warns(UserWarning):
            out = pretrain(model, image, scribbles, TrainConfig())
        np.testing.assert_array_equal(out.weights, model.weights)

    def test_missing_class_warns(self):
        image, _ = separable_image()
        data = np.zeros((8, 8), dtype=np.int64)
        data[0, 0] = 1
        with pytest.warns(UserWarning):
            pretrain(PixelModel.zeros(2), image, ScribbleField(data), TrainConfig(pretrain_epochs=2))

    @pytest.mark.parametrize("shape", [(5, 5), (4, 6)])
    def test_scribbles_of_another_shape_rejected(self, shape):
        image, _ = separable_image(6, 4)
        data = np.zeros(shape, dtype=np.int64)
        data[0, 0], data[-1, -1] = 1, 2
        with pytest.raises(DataError, match=f"scribbles are {shape[0]}x{shape[1]}"):
            pretrain(PixelModel.zeros(2), image, ScribbleField(data), TrainConfig(pretrain_epochs=2))

    def test_nll_monotone_over_epochs(self):
        # deterministic backtracking: k epochs reproduce the first k steps
        image, labels = separable_image()
        data = np.where(np.random.default_rng(1).uniform(size=(8, 8)) < 0.2, labels, 0)
        scribbles = ScribbleField(data)
        values = []
        for epochs in range(1, 9):
            model = pretrain(PixelModel.zeros(2), image, scribbles,
                             TrainConfig(pretrain_epochs=epochs))
            sigma, _ = predict(model, image)
            values.append(scribble_nll(sigma, scribbles))
        diffs = np.diff(values)
        assert np.max(diffs) <= 1e-9

    def test_coupling_weight_does_not_reach_the_scribble_fit(self):
        # pretraining evaluates the coupling on its scribbled rows and drops
        # it; RCE's d/dsigma there is 27.6, so eta = 1e308 would overflow
        # (a RuntimeWarning fails this suite) if it were scaled before zeroing
        image, labels = separable_image()
        scribbles = ScribbleField(np.where(np.eye(8, dtype=bool), labels, 0))
        models = [pretrain(PixelModel.zeros(2), image, scribbles,
                           TrainConfig(loss_cfg=LossConfig(eta=eta, xent=XentKind.RCE),
                                       pretrain_epochs=5)).pack()
                  for eta in (1e308, 0.3)]
        assert models[0].tobytes() == models[1].tobytes()


class TestModelGradient:
    def test_matches_finite_differences_on_joint_loss(self):
        rng = np.random.default_rng(2)
        image = Image(rng.integers(0, 256, size=(4, 4, 3)))
        graph = build_graph(image, AffinityConfig(color_bandwidth=60.0))
        data = np.zeros((4, 4), dtype=np.int64)
        data[0, 0] = 1
        data[3, 3] = 2
        scribbles = ScribbleField(data)
        cfg = LossConfig(eta=0.4, lam=1.5, potts=PottsKind.Q, xent=XentKind.CCE)
        # a pinned pseudo-label field
        y = np.full((4, 4, 2), 0.5)
        y[0, 0] = [1.0, 0.0]
        y[3, 3] = [0.0, 1.0]
        y = ProbField(y)
        phi = pixel_features(image)
        scribbled = np.flatnonzero(data.ravel())
        free = np.flatnonzero(data.ravel() == 0)
        yp = y.planes()
        pairwise = plane_sum(cfg.potts, yp, graph, np.zeros_like(yp), cfg.lam)[0]
        flat0 = rng.standard_normal(2 * 5 + 2) * 0.5
        f = lambda p: _sl_value_and_grad(p, phi, scribbled, data.ravel()[scribbled] - 1, free,
                                         yp, pairwise, cfg)
        value, grad = f(flat0)
        assert finite_diff_check(lambda p: f(p)[0], grad, flat0) < 1e-4
        sigma, _ = predict(PixelModel.unpack(flat0, 2), image)
        assert value == sl_loss(sigma, y, scribbles, graph, cfg)

    @pytest.mark.parametrize("kind", [XentKind.CE, XentKind.RCE, XentKind.CCE])
    def test_all_free_mean_coupling_matches_finite_differences(self, kind):
        # the corruption experiment's fit: no scribbles, every row free,
        # eta = 1/n and no pairwise term
        rng = np.random.default_rng(5)
        x = rng.standard_normal((7, 3))
        targets = 0.3 / 4 + 0.7 * one_hot_rows(rng.integers(1, 5, size=7), 4)
        y = np.ascontiguousarray(targets.T)
        none = np.zeros(0, dtype=np.intp)
        cfg = LossConfig(eta=1.0 / 7, lam=0.0, xent=kind)
        f = lambda p: _sl_value_and_grad(p, x, none, none, slice(None), y, 0.0, cfg)
        flat0 = rng.standard_normal(4 * 3 + 4) * 0.5
        value, grad = f(flat0)
        assert finite_diff_check(lambda p: f(p)[0], grad, flat0) < 1e-4
        model = PixelModel.unpack(flat0, 4)
        probs = softmax_rows(model.weights @ x.T + model.bias[:, None])
        vals, _, _ = row_values(kind, y, probs)
        np.testing.assert_allclose(value, np.mean(vals), rtol=1e-14)


class TestAlternate:
    def test_entropy_like_case_descends(self):
        # no pairwise term: alternation is entropy-regularized self-training
        image, labels = separable_image()
        rng = np.random.default_rng(3)
        data = np.where(rng.uniform(size=(8, 8)) < 0.15, labels, 0)
        scribbles = ScribbleField(data)
        graph = build_graph(image, AffinityConfig())
        cfg = TrainConfig(
            rounds=5, inner_epochs=10,
            loss_cfg=LossConfig(eta=0.3, lam=0.0, potts=PottsKind.Q, xent=XentKind.RCE),
            solver_cfg=SolverConfig(steps=50),
        )
        model = pretrain(PixelModel.zeros(2), image, scribbles, cfg)
        _, y, trace = alternate(model, image, scribbles, graph, cfg)
        assert np.max(np.diff(trace)) <= 1e-6
        assert y.data.shape == (8, 8, 2)

    def test_joint_loss_trace_is_the_joint_loss(self):
        image, scribbles, _ = two_region_instance(seed=3, height=12, width=12)
        graph = build_graph(image, AffinityConfig())
        cfg = TrainConfig(rounds=3, inner_epochs=5, solver_cfg=SolverConfig(steps=40))
        model = pretrain(PixelModel.zeros(2), image, scribbles, cfg)
        model, y, trace = alternate(model, image, scribbles, graph, cfg)
        sigma, _ = predict(model, image)
        assert trace[-1] == sl_loss(sigma, y, scribbles, graph, cfg.loss_cfg)
        assert len(trace) == 3

    def test_pairwise_term_taken_from_the_solve(self, monkeypatch):
        # at fixed pseudo-labels the pairwise term does not depend on the
        # model, and the solve has already evaluated it at its final labels,
        # so a round evaluates the pairwise term only inside the solve
        from potts_sl import losses, potts, solver, trainer

        image, scribbles, _ = two_region_instance(seed=3, height=12, width=12)
        graph = build_graph(image, AffinityConfig())
        cfg = TrainConfig(rounds=3, inner_epochs=5, solver_cfg=SolverConfig(steps=10))
        model = pretrain(PixelModel.zeros(2), image, scribbles, cfg)
        solving, in_solve = [], []
        core = solver._solve_planes

        def solve(*args):
            solving.append(True)
            try:
                return core(*args)
            finally:
                solving.pop()

        def counted(*args, **kwargs):
            in_solve.append(bool(solving))
            return plane_sum(*args, **kwargs)

        monkeypatch.setattr(trainer, "_solve_planes", solve)
        # every module that binds plane_sum; the losses reach it through
        # potts._plane_value, the trainer not at all, and either would be
        # caught if it bound it
        for module in (potts, losses, solver, trainer):
            monkeypatch.setattr(module, "plane_sum", counted, raising=module in (potts, solver))
        alternate(model, image, scribbles, graph, cfg)
        assert len(in_solve) >= cfg.rounds * (cfg.solver_cfg.steps + 1)
        assert all(in_solve)

    @pytest.mark.parametrize("call", ["predict", "alternate"])
    def test_overflowing_model_is_refused(self, call):
        # finite parameters whose logits overflow to inf, so their softmax is
        # NaN: both entry points refuse the predictions, the alternation
        # before its first solve, and neither warns (RuntimeWarnings fail
        # this suite)
        image, scribbles, _ = two_region_instance(seed=3, height=12, width=12)
        graph = build_graph(image, AffinityConfig())
        model = PixelModel(np.full((2, 5), 1e308), np.full(2, 1e308))
        cfg = TrainConfig(rounds=2, inner_epochs=5, solver_cfg=SolverConfig(steps=10))
        run = {"predict": lambda: predict(model, image),
               "alternate": lambda: alternate(model, image, scribbles, graph, cfg)}[call]
        with pytest.raises(DataError, match="probability field has non-finite entries"):
            run()

    def test_simplex_invariants_preserved(self):
        image, scribbles, _ = two_region_instance(seed=4, height=10, width=10)
        graph = build_graph(image, AffinityConfig())
        cfg = TrainConfig(rounds=2, inner_epochs=5, solver_cfg=SolverConfig(steps=30))
        model = pretrain(PixelModel.zeros(2), image, scribbles, cfg)
        model, y, _ = alternate(model, image, scribbles, graph, cfg)
        sigma, _ = predict(model, image)
        for field in (sigma, y):
            assert field.data.min() >= 0.0
            np.testing.assert_allclose(field.data.sum(axis=2), 1.0, atol=1e-9)


class TestWarmStart:
    def test_each_solve_after_the_first_starts_at_the_last_labels(self, monkeypatch):
        # block-coordinate descent: a solve that starts at the previous labels
        # has their objective at the new predictions as trace[0], bit for bit,
        # and cannot end above it
        from potts_sl import losses, solver, trainer

        solves, calls = [], []
        core = solver._solve_planes

        def recording(s, logits, *rest):
            result = core(s, logits, *rest)
            solves.append((s, logits, *result))
            return result

        def counting(fn):
            def counted(*args, **kwargs):
                calls.append(fn.__name__)
                return fn(*args, **kwargs)
            return counted

        image, scribbles, _ = two_region_instance(seed=3, height=12, width=12)
        graph = build_graph(image, AffinityConfig())
        cfg = TrainConfig(rounds=4, inner_epochs=5, solver_cfg=SolverConfig(steps=40))
        model = pretrain(PixelModel.zeros(2), image, scribbles, cfg)
        monkeypatch.setattr(trainer, "_solve_planes", recording)
        check = counting(losses._check_instance)
        for module in (losses, solver, trainer):
            monkeypatch.setattr(module, "_check_instance", check)
        monkeypatch.setattr(trainer, "pixel_features", counting(trainer.pixel_features))
        _, y, _ = alternate(model, image, scribbles, graph, cfg)
        # one instance check and one feature map per call, none per round
        assert sorted(calls) == ["_check_instance", "pixel_features"]

        def field(planes):
            return ProbField(planes.T.reshape(12, 12, 2))

        assert len(solves) == cfg.rounds
        assert np.array_equal(solves[0][1], predict(model, image)[1].planes())
        for (*_, y_prev, _), (s, *_, report) in zip(solves, solves[1:]):
            assert report.trace[0] == pseudo_label_objective(
                field(s), field(y_prev), scribbles, graph, cfg.loss_cfg)
            assert report.trace[-1] <= report.trace[0]
        assert y.data.tobytes() == field(solves[-1][3]).data.tobytes()


@st.composite
def alternation_cases(draw):
    h = draw(st.integers(1, 9))
    w = draw(st.integers(1, 9))
    scribbled = draw(st.sampled_from(["none", "some", "all"]))
    potts = draw(st.sampled_from(list(PottsKind)))
    xent = draw(st.sampled_from(list(XentKind)))
    neighborhood = draw(st.sampled_from(["nn4", "sparse:2"]))
    k = draw(st.integers(2, 5))
    seed = draw(st.integers(0, 2**16))
    return h, w, scribbled, potts, xent, neighborhood, k, seed


def with_every_kind_pair(test):
    # one explicit example per (PottsKind, XentKind) pair, cycling through a
    # 1xW, a rectangular and a square shape, both neighborhoods and K = 2..5,
    # and one at K = 21
    shapes = [(1, 7), (5, 6), (9, 9)]
    neighborhoods = ["nn4", "sparse:2"]
    for i, (potts, xent) in enumerate(itertools.product(PottsKind, XentKind)):
        h, w = shapes[i % 3]
        test = example((h, w, "some", potts, xent, neighborhoods[i % 2], 2 + i % 4, i))(test)
    test = example((9, 9, "some", PottsKind.CD, XentKind.CCE, "sparse:2", 21, 24))(test)
    return settings(max_examples=40)(given(alternation_cases())(test))


@with_every_kind_pair
def test_joint_loss_never_rises(case):
    # each solve starts at the previous labels and each model step at the
    # previous model, so neither block step raises the joint loss; only
    # rounding in the sum of its terms may move it by a few ulps
    h, w, scribbled, potts, xent, neighborhood, k, seed = case
    rng = np.random.default_rng(seed)
    image = Image(rng.integers(0, 256, size=(h, w, 3)))
    kind = NeighborhoodKind.NN4 if neighborhood == "nn4" else NeighborhoodKind.SPARSE_WINDOW
    graph = build_graph(image, AffinityConfig(kind=kind, radius=2, color_bandwidth=60.0))
    labels = rng.integers(1, k + 1, size=(h, w))
    if scribbled == "none":
        labels[:] = 0
    elif scribbled == "some":
        labels[rng.uniform(size=(h, w)) < 0.7] = 0
    model = PixelModel(rng.standard_normal((k, 5)), rng.standard_normal(k))
    cfg = TrainConfig(rounds=4, inner_epochs=5, solver_cfg=SolverConfig(steps=25),
                      loss_cfg=LossConfig(potts=potts, xent=xent))
    _, _, trace = alternate(model, image, ScribbleField(labels), graph, cfg)
    assert np.all(np.isfinite(trace))
    assert np.all(np.diff(trace) <= 1e-12 * np.abs(trace[:-1]))


class TestDescent:
    def test_every_fit_runs_the_solver_descent(self, monkeypatch):
        # pretraining, each alternation round and each corruption-experiment
        # fit run one Armijo descent of the solver module on a one-argument
        # value_grad
        from potts_sl import trainer
        from potts_sl.solver import _armijo_descent

        budgets = []

        def recording(x, value_grad, steps, step0):
            budgets.append(steps)
            value, grad = value_grad(x)
            assert np.isfinite(value) and grad.shape == x.shape
            return _armijo_descent(x, value_grad, steps, step0)

        monkeypatch.setattr(trainer, "_armijo_descent", recording)
        image, scribbles, _ = two_region_instance(seed=3, height=12, width=12)
        graph = build_graph(image, AffinityConfig())
        cfg = TrainConfig(rounds=2, inner_epochs=6, pretrain_epochs=20,
                          solver_cfg=SolverConfig(steps=10))
        model = pretrain(PixelModel.zeros(2), image, scribbles, cfg)
        alternate(model, image, scribbles, graph, cfg)
        x, labels, _, _ = gaussian_blobs_dataset(0)
        _fit_linear_softmax(x, one_hot_rows(labels, 3), XentKind.CE, epochs=30)
        assert budgets == [20, 6, 6, 30]


class TestCorruption:
    def test_fit_returns_a_pixel_model_of_the_feature_width(self):
        x, labels, _, _ = gaussian_blobs_dataset(0)
        model = _fit_linear_softmax(x, one_hot_rows(labels, 3), XentKind.CCE, epochs=5)
        assert isinstance(model, PixelModel)
        assert model.weights.shape == (3, x.shape[1]) and model.bias.shape == (3,)

    def test_seed_0_table_is_pinned(self):
        # correct test predictions out of 600 per (eta, kind); a change to
        # the fit or its rounding that moves any accuracy shows here
        hits = [590, 588, 590, 577, 586, 575, 577, 586, 559, 506, 570, 511, 394, 572, 481]
        expected = [(eta, kind, h / 600) for (eta, kind), h in zip(
            itertools.product((0.0, 0.2, 0.4, 0.6, 0.8), ("ce", "rce", "cce")), hits)]
        assert corruption_experiment(seed=0) == expected

    def test_clean_labels_make_kinds_agree(self):
        rows = corruption_experiment(levels=(0.0,), seed=1)
        accs = {kind: acc for _, kind, acc in rows}
        assert max(accs.values()) - min(accs.values()) < 0.02

    def test_deterministic_given_seed(self):
        a = corruption_experiment(levels=(0.0, 0.4), seed=9)
        b = corruption_experiment(levels=(0.0, 0.4), seed=9)
        assert a == b

    def test_table_shape_and_range(self):
        rows = corruption_experiment(levels=(0.0, 0.8), seed=2)
        assert len(rows) == 6
        for eta, kind, acc in rows:
            assert kind in {"ce", "rce", "cce"}
            assert 0.0 <= acc <= 1.0

    def test_blobs_dataset_shapes(self):
        xtr, ytr, xte, yte = gaussian_blobs_dataset(0)
        assert xtr.shape[0] == 600 and xte.shape[0] == 600
        assert set(np.unique(ytr)) == {1, 2, 3}
        # balanced classes
        assert np.bincount(ytr)[1:].tolist() == [200, 200, 200]
