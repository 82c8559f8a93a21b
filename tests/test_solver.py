import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from potts_sl import (
    AffinityConfig,
    AffinityGraph,
    Image,
    LogitField,
    LossConfig,
    NeighborhoodKind,
    NumericalError,
    ProbField,
    ScribbleField,
    build_graph,
    argmax_decode,
    pseudo_label_objective,
    soft_jaccard,
    solve_pseudo_labels,
)
from potts_sl.data_terms import XentKind
from potts_sl.oracles import finite_diff_check, random_walker_solve
from potts_sl.potts import PlaneWorkspace, PottsKind, plane_sum
from potts_sl import solver
from potts_sl.solver import SolverConfig, _armijo_descent, _objective
from potts_sl.synthetic import solver_oracle_instance
from potts_sl.trainer import _fit_linear_softmax
from helpers import permute_classes, random_interior_field


def empty_scribbles(h, w):
    return ScribbleField(np.zeros((h, w), dtype=np.int64))


def grid_instance(seed, h=6, w=6, k=3, labeled=3):
    rng = np.random.default_rng(seed)
    image = Image(rng.integers(0, 256, size=(h, w, 3)))
    graph = build_graph(image, AffinityConfig(color_bandwidth=60.0))
    sigma = random_interior_field(rng, h, w, k)
    data = np.zeros(h * w, dtype=np.int64)
    pick = rng.permutation(h * w)[:labeled]
    data[pick] = rng.integers(1, k + 1, size=labeled)
    return sigma, ScribbleField(data.reshape(h, w)), graph


class TestPerPixelLimits:
    def test_quad_without_pairwise_converges_to_sigma(self):
        sigma, scribbles, graph = grid_instance(0)
        cfg = LossConfig(eta=1.0, lam=0.0, potts=PottsKind.Q, xent=XentKind.QUAD)
        y, report = solve_pseudo_labels(sigma, None, scribbles, graph, cfg, SolverConfig())
        unlabeled = scribbles.data == 0
        gap = np.abs(y.data - sigma.data)[unlabeled]
        assert gap.max() < 1e-3
        assert report.trace[-1] < 1e-5

    def test_cce_without_pairwise_seeks_argmax_vertex(self):
        rng = np.random.default_rng(1)
        h = w = 10  # 100 unlabeled pixels
        sigma = random_interior_field(rng, h, w, 3)
        graph = AffinityGraph(npixels=h * w, ei=[], ej=[], w=[])
        cfg = LossConfig(eta=1.0, lam=0.0, potts=PottsKind.Q, xent=XentKind.CCE)
        y, _ = solve_pseudo_labels(
            sigma, None, empty_scribbles(h, w), graph, cfg, SolverConfig()
        )
        # the per-pixel optimum of -ln(sigma.y) is the vertex of argmax sigma
        np.testing.assert_array_equal(argmax_decode(y), argmax_decode(sigma))
        # and every pixel moved toward that vertex from its start at sigma
        top_idx = np.argmax(sigma.flat(), axis=1)[:, None]
        top_y = np.take_along_axis(y.flat(), top_idx, axis=1)
        top_sigma = np.take_along_axis(sigma.flat(), top_idx, axis=1)
        assert np.all(top_y > top_sigma)
        assert np.median(top_y) > 0.9

    def test_fully_scribbled_field_is_reset_exactly(self):
        rng = np.random.default_rng(2)
        h = w = 4
        sigma = random_interior_field(rng, h, w, 3)
        labels = rng.integers(1, 4, size=(h, w))
        scribbles = ScribbleField(labels)
        image = Image(rng.integers(0, 256, size=(h, w, 3)))
        graph = build_graph(image, AffinityConfig())
        cfg = LossConfig(potts=PottsKind.CD, xent=XentKind.CCE)
        y, _ = solve_pseudo_labels(sigma, None, scribbles, graph, cfg, SolverConfig(steps=5))
        expected = np.zeros((h, w, 3))
        for r in range(h):
            for c in range(w):
                expected[r, c, labels[r, c] - 1] = 1.0
        assert np.array_equal(y.data, expected)  # bitwise


class TestMechanics:
    def test_trace_shape_and_final(self):
        sigma, scribbles, graph = grid_instance(3)
        cfg = LossConfig(eta=1.0, lam=1.0, potts=PottsKind.Q, xent=XentKind.QUAD)
        scfg = SolverConfig(steps=57)
        y, report = solve_pseudo_labels(sigma, None, scribbles, graph, cfg, scfg)
        assert len(report.trace) == 58
        assert pseudo_label_objective(sigma, y, scribbles, graph, cfg) == report.trace[-1]

    def test_non_finite_start_objective_is_a_numerical_failure(self):
        # the gradient overflows too, silently: RuntimeWarnings fail this suite
        sigma, scribbles, graph = grid_instance(3)
        cfg = LossConfig(eta=1e308, lam=1e308)
        with pytest.raises(NumericalError, match="start point is inf"):
            solve_pseudo_labels(sigma, None, scribbles, graph, cfg, SolverConfig(steps=5))

    def test_scribbled_pixels_add_no_overflow_to_the_gradient(self):
        # CE's d/dy is -ln sigma: 0.69 at the free pixel, whose scaled
        # gradient stays finite at eta = 1e308, and 6.9 at the scribbled one,
        # which must be zeroed before the scaling (a RuntimeWarning fails
        # this suite)
        sigma = ProbField(np.array([[[0.5, 0.5], [0.999, 0.001]]]))
        graph = build_graph(Image(np.zeros((1, 2, 3))), AffinityConfig())
        y = np.array([[0.5, 1.0], [0.5, 0.0]])
        cfg = LossConfig(eta=1e308, lam=0.0, xent=XentKind.CE)
        terms, _, grad = _objective(y, sigma.planes(), np.array([0]), np.array([1]), graph, cfg,
                                    PlaneWorkspace(graph, cfg.lam, 2))
        assert terms.coupling == 1e308 * math.log(2.0)
        assert grad[:, 0].tolist() == [1e308 * math.log(2.0)] * 2
        assert grad[:, 1].tolist() == [0.0, 0.0]

    def test_non_finite_start_gradient_is_a_numerical_failure(self):
        # RCE's d/dy is -sigma / y: at y = 2e-12 and eta = 1e300 it overflows
        # while the objective, about eta * N * 27, stays finite
        sigma, scribbles, graph = grid_instance(3)
        y = np.full(sigma.data.shape, 2e-12)
        y[..., 0] = 1.0 - 2e-12 * (sigma.classes - 1)
        cfg = LossConfig(eta=1e300, lam=1.0, xent=XentKind.RCE)
        with pytest.raises(NumericalError, match="gradient at the start point is not finite"):
            solve_pseudo_labels(sigma, LogitField(np.log(y)), scribbles, graph, cfg,
                                SolverConfig(steps=5))

    def test_monotone_trace_on_convex_instance(self):
        sigma, scribbles, graph = grid_instance(4)
        cfg = LossConfig(eta=4.0, lam=2.0, potts=PottsKind.Q, xent=XentKind.QUAD)
        _, report = solve_pseudo_labels(sigma, None, scribbles, graph, cfg, SolverConfig())
        diffs = np.diff(report.trace)
        assert np.max(diffs) <= 1e-6

    def test_nonconvex_kinds_still_descend_overall(self):
        sigma, scribbles, graph = grid_instance(5)
        for potts, xent in [(PottsKind.CD, XentKind.CCE), (PottsKind.BL, XentKind.CCE)]:
            cfg = LossConfig(eta=0.3, lam=2.0, potts=potts, xent=xent)
            _, report = solve_pseudo_labels(sigma, None, scribbles, graph, cfg, SolverConfig())
            assert np.all(np.diff(report.trace) <= 0.0)
            assert report.trace[-1] < report.trace[0]

    def test_scribble_constraint_exact(self):
        sigma, scribbles, graph = grid_instance(6)
        cfg = LossConfig()
        y, _ = solve_pseudo_labels(sigma, None, scribbles, graph, cfg, SolverConfig(steps=20))
        lab = scribbles.data
        for r, c in zip(*np.nonzero(lab)):
            expected = np.zeros(3)
            expected[lab[r, c] - 1] = 1.0
            assert np.array_equal(y.data[r, c], expected)

    def test_edge_order_invariance(self):
        sigma, scribbles, graph = grid_instance(7)
        cfg = LossConfig(eta=0.5, lam=3.0, potts=PottsKind.Q, xent=XentKind.QUAD)
        y_base, _ = solve_pseudo_labels(sigma, None, scribbles, graph, cfg, SolverConfig(steps=50))
        rng = np.random.default_rng(8)
        perm = rng.permutation(graph.nedges)
        shuffled = AffinityGraph(
            npixels=graph.npixels, ei=graph.ei[perm], ej=graph.ej[perm], w=graph.w[perm],
        )
        y_shuf, _ = solve_pseudo_labels(sigma, None, scribbles, graph=shuffled,
                                        loss_cfg=cfg, solver_cfg=SolverConfig(steps=50))
        assert np.max(np.abs(y_base.data - y_shuf.data)) < 1e-9

    def test_divergent_edges_counted_and_skipped(self):
        # two adjacent pixels initialized at practically orthogonal one-hots
        sigma = ProbField.uniform(1, 2, 2)
        graph = AffinityGraph(npixels=2, ei=[0], ej=[1], w=[1.0])
        init = LogitField(np.array([[[40.0, -40.0], [-40.0, 40.0]]]))
        cfg = LossConfig(eta=0.0, lam=1.0, potts=PottsKind.CCE, xent=XentKind.QUAD)
        y, report = solve_pseudo_labels(
            sigma, init, empty_scribbles(1, 2), graph, cfg, SolverConfig(steps=3)
        )
        assert report.divergence_events > 0
        assert np.all(np.isfinite(report.trace))
        assert np.all(np.isfinite(y.data))

    def test_default_start_is_sigma(self):
        # without init_logits the solver starts at softmax(log sigma) = sigma,
        # with the scribbles pinned, and descends from there
        sigma, scribbles, graph = grid_instance(9)
        cfg = LossConfig(eta=1.0, lam=0.5, potts=PottsKind.Q, xent=XentKind.QUAD)
        y, report = solve_pseudo_labels(sigma, None, scribbles, graph, cfg, SolverConfig(steps=30))
        start = sigma.data.copy()
        lab = scribbles.data > 0
        start[lab] = np.eye(sigma.classes)[scribbles.data[lab] - 1]
        expected = pseudo_label_objective(sigma, ProbField(start), scribbles, graph, cfg)
        assert abs(report.trace[0] - expected) < 1e-12 * abs(expected)
        assert np.all(np.isfinite(y.data))
        assert report.trace[-1] <= report.trace[0]

    def test_explicit_init_logits_used(self):
        sigma, scribbles, graph = grid_instance(10)
        cfg = LossConfig(eta=1.0, lam=0.0, potts=PottsKind.Q, xent=XentKind.QUAD)
        rng = np.random.default_rng(11)
        init = LogitField(rng.standard_normal((6, 6, 3)))
        y1, r1 = solve_pseudo_labels(sigma, init, scribbles, graph, cfg, SolverConfig(steps=1))
        y2, r2 = solve_pseudo_labels(sigma, None, scribbles, graph, cfg, SolverConfig(steps=1))
        assert r1.trace[0] != r2.trace[0]

    @pytest.mark.parametrize("with_init", [False, True])
    def test_memory_layout_of_the_inputs_does_not_matter(self, with_init):
        # the solver transposes its inputs into class planes, so fields
        # holding F-ordered arrays (set after validation, which would copy
        # them to C order) give the same bytes as C-ordered ones
        sigma, scribbles, graph = grid_instance(12, h=7, w=5, k=5, labeled=4)
        logits = np.random.default_rng(13).standard_normal(sigma.data.shape)
        results = []
        for order in ("C", "F"):
            s = ProbField(sigma.data)
            s.data = np.asarray(sigma.data, order=order)
            assert s.data.flags.f_contiguous == (order == "F")
            init = None
            if with_init:
                init = LogitField(logits)
                init.data = np.asarray(logits, order=order)
            y, report = solve_pseudo_labels(s, init, scribbles, graph, LossConfig(),
                                            SolverConfig(steps=20))
            assert y.data.flags.c_contiguous and report.logits.data.flags.c_contiguous
            results.append((y.data, report.trace, report.logits.data, report.divergence_events))
        (y0, t0, l0, d0), (y1, t1, l1, d1) = results
        assert np.array_equal(y0, y1) and t0 == t1 and np.array_equal(l0, l1) and d0 == d1


class TestArmijoDescent:
    @staticmethod
    def recording(value_grad):
        """value_grad that also appends a copy of every point it evaluates."""
        points = []

        def wrapped(x):
            points.append(x.copy())
            return value_grad(x)

        return wrapped, points

    def test_one_call_per_trial_and_the_step_never_grows(self):
        # f = 1.5 x^2 from x = 1: the trial at step 1 (x = -2) fails, the one
        # at 0.5 (x = -0.5) passes, and every later step starts at 0.5 and
        # passes at once, halving x
        f, points = self.recording(lambda x: (1.5 * float(x @ x), 3.0 * x))
        x, value = _armijo_descent(np.ones(1), f, 5, 1.0)
        visited = [float(p[0]) for p in points]
        assert visited == [1.0, -2.0, -0.5, 0.25, -0.125, 0.0625, -0.03125]
        assert x[0] == -0.03125 and value == 1.5 * 0.03125**2

    def test_stops_at_zero_gradient_with_steps_to_spare(self):
        recorded = []
        f, points = self.recording(lambda x: (0.5 * float(x @ x), x))
        x, value = _armijo_descent(np.ones(3), f, 5, 1.0, recorded.append)
        assert len(points) == 2 and np.all(x == 0.0) and value == 0.0
        assert recorded == [1.5, 0.0]

    def test_stops_when_no_step_passes(self):
        # every trial point is worse than the start: the trials at t = 2^0
        # ... 2^-53 are evaluated, and the one at 2^-54 rounds back to x and
        # is not
        f, points = self.recording(lambda x: (1.0 if np.all(x == 1.0) else 2.0, np.ones(2)))
        x, value = _armijo_descent(np.ones(2), f, 5, 1.0)
        assert len(points) == 55
        assert points[-1].tolist() == [1.0 - 2.0**-53] * 2
        assert np.all(x == 1.0) and value == 1.0

    def test_a_trial_that_rounds_back_to_x_is_not_a_step(self):
        # -x is an ascent direction of 0.5 |x|^2, so every trial x + t x is
        # worse until t |x| drops below the resolution of x: the trials at
        # t = 2^0 ... 2^-52 are evaluated, and at 2^-53 x + t x == x ends the
        # descent without an evaluation, so no such point passes as a step
        f, points = self.recording(lambda x: (0.5 * float(x @ x), -x))
        x, value = _armijo_descent(np.ones(2), f, 5, 1.0)
        assert len(points) == 54
        assert not any(np.array_equal(p, np.ones(2)) for p in points[1:])
        assert np.all(x == 1.0) and value == 1.0

    @pytest.mark.parametrize("value, reason", [
        (math.inf, "toy objective at the start point is inf"),
        (math.nan, "toy objective at the start point is nan"),
        (1.0, "toy gradient at the start point is not finite"),
    ])
    def test_a_start_it_cannot_step_from_is_refused(self, value, reason):
        # finite gradient entries whose |g|^2 overflows: every trial would be
        # compared against value - 1e-4 t inf = -inf, so none could pass
        f, points = self.recording(lambda x: (value, np.full(2, 1e200)))
        with pytest.raises(NumericalError, match=f"^{reason}$"):
            _armijo_descent(np.ones(2), f, 5, 1.0, name="toy")
        assert len(points) == 1

    def test_a_trial_whose_gradient_norm_overflows_fails(self):
        # f = x[0] descends to 0, but |g|^2 overflows at x[0] <= 0.25: the trial
        # at 0 passes the Armijo test and fails, and the one at 0.5 is taken;
        # taking the point at 0 would leave no trial that could pass
        def f(x):
            return float(x[0]), np.array([1.0, 0.0]) if x[0] > 0.25 else np.full(2, 1e200)

        recorded = []
        f, points = self.recording(f)
        x, value = _armijo_descent(np.ones(2), f, 1, 1.0, recorded.append)
        assert [float(p[0]) for p in points] == [1.0, 0.0, 0.5]
        assert x.tolist() == [0.5, 1.0] and value == 0.5 and recorded == [1.0, 0.5]

    def test_trials_that_overflow_fail_without_a_warning(self):
        # a first trial step of 1e308 overflows the logits of the first trials
        # (a RuntimeWarning fails this suite); those trials fail, and the trace
        # stays finite and never rises
        sigma, scribbles, graph = grid_instance(9, h=3, w=4, k=3, labeled=3)
        _, report = solve_pseudo_labels(sigma, None, scribbles, graph, LossConfig(),
                                        SolverConfig(steps=4, learning_rate=1e308))
        assert np.all(np.isfinite(report.trace)) and np.all(np.diff(report.trace) <= 0.0)
        assert report.trace[-1] < report.trace[0]

    def test_model_fit_refuses_features_whose_gradient_overflows(self):
        # features near 1e200 give a finite start gradient whose |g|^2
        # overflows; its first trial would overflow the logits
        x = 1e200 * np.array([[1.0, 2.0], [2.0, 1.0], [1.0, 1.0], [2.0, 2.0]])
        targets = np.eye(2)[[0, 1, 0, 1]]
        with pytest.raises(NumericalError,
                           match="^model gradient at the start point is not finite$"):
            _fit_linear_softmax(x, targets, XentKind.CE, epochs=5)

    def test_terms_are_those_of_the_last_accepted_point(self, monkeypatch):
        # the start and the first 18 trials, three steps accepted among them,
        # keep their terms; from there on the spy adds 1 to the coupling, more
        # than any later step lowers the objective, so every later trial is
        # refused and the descent ends, rounding back, after a rejected trial
        # whose terms must not reach the report
        sigma, scribbles, graph = grid_instance(15, h=8, w=8, k=3, labeled=6)
        cfg = LossConfig()
        evaluated = []
        objective = solver._objective

        def spy(*args, **kwargs):
            terms, events, grad = objective(*args, **kwargs)
            if len(evaluated) >= 19:
                terms = terms._replace(coupling=terms.coupling + 1.0)
            evaluated.append(terms)
            return terms, events, grad

        monkeypatch.setattr(solver, "_objective", spy)
        y, report = solve_pseudo_labels(sigma, None, scribbles, graph, cfg,
                                        SolverConfig(steps=20, learning_rate=1e4))
        assert evaluated[-1].value > report.trace[-1]
        assert report.terms.value == report.trace[-1]
        yp = y.planes()
        assert report.terms.pairwise == plane_sum(cfg.potts, yp, graph, np.zeros_like(yp),
                                                  cfg.lam)[0]

    def test_one_objective_per_step_on_nn4(self, monkeypatch):
        # every first trial passes on this instance, so a solve costs one
        # evaluation per step plus the one at the start
        sigma, scribbles, graph = grid_instance(14, h=12, w=12, k=4, labeled=8)
        calls = []
        objective = solver._objective
        monkeypatch.setattr(solver, "_objective",
                            lambda *a, **k: calls.append(1) or objective(*a, **k))
        steps = 40
        _, report = solve_pseudo_labels(sigma, None, scribbles, graph, LossConfig(),
                                        SolverConfig(steps=steps))
        assert len(calls) == steps + 1
        assert report.trace[-1] < report.trace[0]


@pytest.mark.parametrize("seed", [0, 1])
def test_the_gap_to_the_exact_optimum_closes_with_the_step_budget(seed):
    # on Q/QUAD the random walker gives the exact optimum f*: the relative
    # gap (f - f*) / f* of a solve must not rise with its step budget and
    # must fall below 1e-3 at 1000 steps, so a stop rule that ends a real
    # descent early fails here
    sigma, scribbles, image = solver_oracle_instance(seed, 16, 16, 3)
    graph = build_graph(image, AffinityConfig())
    cfg = LossConfig(eta=0.3, lam=6.0, potts=PottsKind.Q, xent=XentKind.QUAD)
    exact = random_walker_solve(sigma, scribbles, graph, cfg.eta, cfg.lam)
    best = pseudo_label_objective(sigma, exact, scribbles, graph, cfg)
    gaps = []
    for steps in (50, 200, 1000):
        y, _ = solve_pseudo_labels(sigma, None, scribbles, graph, cfg, SolverConfig(steps=steps))
        gaps.append((pseudo_label_objective(sigma, y, scribbles, graph, cfg) - best) / best)
    assert gaps == sorted(gaps, reverse=True) and gaps[-1] < 1e-3, gaps


@st.composite
def solver_cases(draw):
    h = draw(st.integers(1, 7))
    w = draw(st.integers(1, 7))
    k = draw(st.integers(2, 4))
    scribbled = draw(st.sampled_from(["none", "some", "all"]))
    potts = draw(st.sampled_from(list(PottsKind)))
    xent = draw(st.sampled_from(list(XentKind)))
    neighborhood = draw(st.sampled_from(["nn4", "sparse:2"]))
    lr = draw(st.sampled_from([0.075, 1.0, 10.0]))
    seed = draw(st.integers(0, 2**16))
    return h, w, k, scribbled, potts, xent, neighborhood, lr, seed


def solver_instance(case):
    """(sigma, scribbles, graph, loss config, solver config, rng) of a
    solver_cases draw; rng continues the stream that built the instance."""
    h, w, k, scribbled, potts, xent, neighborhood, lr, seed = case
    rng = np.random.default_rng(seed)
    image = Image(rng.integers(0, 256, size=(h, w, 3)))
    kind = NeighborhoodKind.NN4 if neighborhood == "nn4" else NeighborhoodKind.SPARSE_WINDOW
    graph = build_graph(image, AffinityConfig(kind=kind, radius=2, color_bandwidth=60.0))
    sigma = random_interior_field(rng, h, w, k)
    labels = rng.integers(1, k + 1, size=(h, w))
    if scribbled == "none":
        labels[:] = 0
    elif scribbled == "some":
        labels[rng.uniform(size=(h, w)) < 0.7] = 0
    cfg = LossConfig(eta=0.3, lam=6.0, potts=potts, xent=xent)
    return sigma, ScribbleField(labels), graph, cfg, SolverConfig(25, lr), rng


SOLVER_EXAMPLES = [
    (1, 1, 3, "none", PottsKind.CD, XentKind.CCE, "nn4", 0.075, 0),
    (1, 6, 2, "all", PottsKind.NQ, XentKind.RCE, "sparse:2", 1.0, 1),
    (1, 6, 3, "some", PottsKind.LQ, XentKind.CE, "sparse:2", 10.0, 2),
]


def with_solver_examples(test):
    for case in reversed(SOLVER_EXAMPLES):
        test = example(case)(test)
    return settings(max_examples=40)(given(solver_cases())(test))


@with_solver_examples
# the strategy draws K <= 4; from K = 8 numpy sums the class axis pairwise and
# the solver adds its columns in order, so the invariants are checked there too
@example((5, 6, 8, "some", PottsKind.CD, XentKind.CE, "sparse:2", 0.075, 3))
@example((6, 7, 21, "some", PottsKind.NQ, XentKind.RCE, "nn4", 1.0, 4))
def test_solver_invariants(case):
    sigma, scribbles, graph, cfg, solver_cfg, _ = solver_instance(case)
    y, report = solve_pseudo_labels(sigma, None, scribbles, graph, cfg, solver_cfg)

    assert len(report.trace) == solver_cfg.steps + 1
    assert np.all(np.isfinite(report.trace))
    assert np.all(np.diff(report.trace) <= 0.0)
    assert report.terms.value == report.trace[-1]
    assert report.terms.nll == 0.0
    yp = y.planes()
    assert report.terms.pairwise == plane_sum(cfg.potts, yp, graph, np.zeros_like(yp), cfg.lam)[0]
    assert y.data.min() >= 0.0
    np.testing.assert_allclose(y.data.sum(axis=2), 1.0, atol=1e-12)
    labels = scribbles.data
    lab = labels > 0
    assert np.array_equal(y.data[lab], np.eye(sigma.classes)[labels[lab] - 1])


@with_solver_examples
def test_solver_is_class_permutation_equivariant(case):
    # only sums over classes change order, so results agree to rounding
    sigma, scribbles, graph, cfg, solver_cfg, rng = solver_instance(case)
    perm = rng.permutation(sigma.classes)
    y, report = solve_pseudo_labels(sigma, None, scribbles, graph, cfg, solver_cfg)
    sigma_perm, scribbles_perm = permute_classes(sigma, scribbles, perm)
    y_perm, report_perm = solve_pseudo_labels(sigma_perm, None, scribbles_perm, graph, cfg,
                                              solver_cfg)
    np.testing.assert_allclose(y_perm.data, y.data[..., perm], rtol=0, atol=1e-12)
    np.testing.assert_allclose(report_perm.trace, report.trace, rtol=1e-12, atol=0)
    assert report_perm.divergence_events == report.divergence_events


@pytest.mark.parametrize("case,rejects", [
    # a learning rate of 10 makes the descent refuse and halve trials
    ((8, 9, 5, "some", PottsKind.CD, XentKind.CCE, "sparse:2", 10.0, 7), True),
    ((7, 6, 3, "some", PottsKind.LQ, XentKind.CE, "nn4", 0.075, 8), False),
])
def test_solve_with_fresh_buffers_per_evaluation_is_identical(monkeypatch, case, rejects):
    """A solve reuses one PlaneWorkspace for all its evaluations; buffers
    that leaked from a refused trial into the accepted gradient would move it."""
    sigma, scribbles, graph, cfg, solver_cfg, _ = solver_instance(case)
    y, report = solve_pseudo_labels(sigma, None, scribbles, graph, cfg, solver_cfg)
    objective, evaluations = solver._objective, []

    def fresh_per_evaluation(*args):
        # the solve passes its workspace last; None builds one for the call
        assert isinstance(args[-1], PlaneWorkspace)
        evaluations.append(True)
        return objective(*args[:-1], None)

    monkeypatch.setattr(solver, "_objective", fresh_per_evaluation)
    y_fresh, report_fresh = solve_pseudo_labels(sigma, None, scribbles, graph, cfg, solver_cfg)
    assert y_fresh.data.tobytes() == y.data.tobytes()
    assert report_fresh.logits.data.tobytes() == report.logits.data.tobytes()
    assert report_fresh.trace == report.trace
    assert report_fresh.divergence_events == report.divergence_events
    assert len(set(report.trace)) > 1
    if rejects:
        assert len(evaluations) > solver_cfg.steps + 1


@pytest.mark.parametrize("potts", list(PottsKind))
@pytest.mark.parametrize("xent", list(XentKind))
def test_objective_gradient_matches_finite_differences(potts, xent):
    # eta and lambda differ from 1 and scribbled pixels carry no data term,
    # so a wrong scale or mask in the assembled gradient shows up here
    sigma, scribbles, graph = grid_instance(12, h=3, w=4, k=3, labeled=3)
    y = random_interior_field(np.random.default_rng(13), 3, 4, 3).planes()
    lab = scribbles.data.ravel()
    cols = np.flatnonzero(lab == 0), np.flatnonzero(lab)
    s = sigma.planes()
    cfg = LossConfig(eta=0.7, lam=1.3, potts=potts, xent=xent)
    ws = PlaneWorkspace(graph, cfg.lam, 3)
    terms, events, grad = _objective(y, s, *cols, graph, cfg, ws)
    assert events == 0
    f = lambda z: _objective(z.reshape(y.shape), s, *cols, graph, cfg, ws)[0].value
    assert finite_diff_check(f, grad, y) < 1e-6


class TestSoftJaccard:
    def test_identical_fields(self):
        rng = np.random.default_rng(12)
        a = random_interior_field(rng, 3, 3, 4)
        assert soft_jaccard(a, a) == 1.0

    def test_disjoint_one_hot_fields(self):
        a = np.zeros((2, 2, 2))
        a[:, :, 0] = 1.0
        b = np.zeros((2, 2, 2))
        b[:, :, 1] = 1.0
        assert soft_jaccard(ProbField(a), ProbField(b)) == 0.0

    def test_hand_computed_two_by_two(self):
        a = ProbField(np.array([
            [[0.2, 0.8], [0.5, 0.5]],
            [[1.0, 0.0], [0.3, 0.7]],
        ]))
        b = ProbField(np.array([
            [[0.1, 0.9], [0.5, 0.5]],
            [[0.0, 1.0], [0.6, 0.4]],
        ]))
        # class 1: min 0.1+0.5+0+0.3, max 0.2+0.5+1+0.6; class 2 analogous
        expected = 0.5 * (0.9 / 2.3 + 1.7 / 3.1)
        assert abs(soft_jaccard(a, b) - expected) < 1e-12

    def test_shape_mismatch(self):
        from potts_sl import DataError
        with pytest.raises(DataError):
            soft_jaccard(ProbField.uniform(2, 2, 2), ProbField.uniform(2, 3, 2))
