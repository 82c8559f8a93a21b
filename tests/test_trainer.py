import numpy as np
import pytest

from potts_sl import (
    AffinityConfig,
    DataError,
    Image,
    LossConfig,
    ScribbleField,
    argmax_decode,
    build_graph,
    miou,
    sl_loss,
)
from potts_sl.data_terms import XentKind
from potts_sl.losses import scribble_nll
from potts_sl.oracles import finite_diff_check
from potts_sl.potts import PottsKind, edge_sum
from potts_sl.simplex import one_hot_rows
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
        from potts_sl import ProbField
        y = ProbField(y)
        phi = pixel_features(image)
        labeled = data.ravel() > 0
        targets = one_hot_rows(data.ravel()[labeled], 2)
        y_free = y.flat()[~labeled]
        pairwise = edge_sum(cfg.potts, y.flat(), graph, scale=cfg.lam)[0]
        flat0 = rng.standard_normal(2 * 5 + 2) * 0.5
        f = lambda p, grad=True: _sl_value_and_grad(
            p, phi, labeled, targets, y_free, pairwise, cfg, grad)
        value, grad = f(flat0)
        assert finite_diff_check(lambda p: f(p, False)[0], grad, flat0) < 1e-4
        sigma, _ = predict(PixelModel.unpack(flat0, 2), image)
        assert value == sl_loss(sigma, y, scribbles, graph, cfg)


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

    def test_pairwise_term_once_per_round(self, monkeypatch):
        # at fixed pseudo-labels the pairwise term does not depend on the
        # model, so the inner epochs reuse one evaluation per round
        from potts_sl import trainer

        image, scribbles, _ = two_region_instance(seed=3, height=12, width=12)
        graph = build_graph(image, AffinityConfig())
        cfg = TrainConfig(rounds=3, inner_epochs=5, solver_cfg=SolverConfig(steps=10))
        model = pretrain(PixelModel.zeros(2), image, scribbles, cfg)
        calls = []
        monkeypatch.setattr(trainer, "edge_sum",
                            lambda *a, **k: calls.append(a) or edge_sum(*a, **k))
        alternate(model, image, scribbles, graph, cfg)
        assert len(calls) == cfg.rounds

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


class TestLineSearch:
    @staticmethod
    def count(monkeypatch, job):
        """(gradients, accepted steps, epochs) of each trainer._descend call in job().

        Gradients are value_grad(x, True) calls. An accepted step is a
        value-only trial whose point the descent then moves to: a gradient
        taken at the very array of the trial just before it, or the array the
        descent returns.
        """
        from potts_sl import trainer

        per_descent = []
        descend = trainer._descend

        def counting_descend(flat, value_grad, epochs, step0):
            counts, last_trial = [0, 0], [None]

            def counting(x, grad):
                if grad:
                    counts[0] += 1
                    counts[1] += x is last_trial[0]
                    last_trial[0] = None
                else:
                    last_trial[0] = x
                return value_grad(x, grad)

            result = descend(flat, counting, epochs, step0)
            counts[1] += result[0] is last_trial[0]
            per_descent.append((*counts, epochs))
            return result

        with monkeypatch.context() as m:
            m.setattr(trainer, "_descend", counting_descend)
            job()
        return per_descent

    def test_model_gradient_only_at_accepted_points(self, monkeypatch):
        # Armijo trials evaluate the loss alone: one gradient per descent
        # (one descent per round in alternate) plus one per accepted step,
        # except after the last step of a descent that uses all its epochs
        from potts_sl import trainer

        image, scribbles, _ = two_region_instance(seed=3, height=12, width=12)
        graph = build_graph(image, AffinityConfig())
        cfg = TrainConfig(rounds=2, inner_epochs=6, pretrain_epochs=20,
                          solver_cfg=SolverConfig(steps=10))
        model = pretrain(PixelModel.zeros(2), image, scribbles, cfg)
        x, labels, _, _ = gaussian_blobs_dataset(0)
        # 0.5 |x|^2 from step 1 reaches its minimum in one step and stops at
        # the zero gradient there, with epochs to spare
        quadratic = lambda v, grad: (0.5 * float(v @ v), v if grad else None)
        jobs = [
            (1, lambda: pretrain(PixelModel.zeros(2), image, scribbles, cfg)),
            (cfg.rounds, lambda: alternate(model, image, scribbles, graph, cfg)),
            (1, lambda: _fit_linear_softmax(x, one_hot_rows(labels, 3), XentKind.CE, epochs=30)),
            (1, lambda: trainer._descend(np.ones(3), quadratic, 5, 1.0)),
        ]
        early_stops = full_budgets = 0
        for descents, job in jobs:
            per_descent = self.count(monkeypatch, job)
            assert len(per_descent) == descents
            for grads, accepted, epochs in per_descent:
                assert accepted > 0
                if accepted == epochs:
                    full_budgets += 1
                    assert grads == accepted
                else:
                    early_stops += 1
                    assert grads == accepted + 1
        assert early_stops and full_budgets


class TestCorruption:
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
