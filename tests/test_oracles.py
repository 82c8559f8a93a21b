import itertools

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from potts_sl import (
    AffinityConfig,
    AffinityGraph,
    DataError,
    Image,
    LossConfig,
    NumericalError,
    ProbField,
    ScribbleField,
    brute_force_discrete,
    build_graph,
    discrete_energy,
    finite_diff_check,
    potts_sum_grad,
    random_walker_solve,
)
from potts_sl.potts import PottsKind
from potts_sl.synthetic import solver_oracle_instance
from helpers import permute_classes, random_interior_field


def grid_instance(seed, h=5, w=5, k=3, labeled=4):
    rng = np.random.default_rng(seed)
    image = Image(rng.integers(0, 256, size=(h, w, 3)))
    graph = build_graph(image, AffinityConfig(color_bandwidth=60.0))
    sigma = random_interior_field(rng, h, w, k)
    data = np.zeros(h * w, dtype=np.int64)
    pick = rng.permutation(h * w)[:labeled]
    data[pick] = rng.integers(1, k + 1, size=labeled)
    return sigma, ScribbleField(data.reshape(h, w)), graph


class TestRandomWalker:
    def test_lambda_zero_returns_sigma(self):
        sigma, scribbles, graph = grid_instance(0)
        y = random_walker_solve(sigma, scribbles, graph, eta=1.0, lam=0.0)
        unlabeled = scribbles.data == 0
        assert np.max(np.abs(y.data - sigma.data)[unlabeled]) < 1e-9

    def test_huge_eta_approaches_sigma(self):
        sigma, scribbles, graph = grid_instance(1)
        y = random_walker_solve(sigma, scribbles, graph, eta=1e6, lam=1.0)
        unlabeled = scribbles.data == 0
        assert np.max(np.abs(y.data - sigma.data)[unlabeled]) < 1e-3

    def test_three_pixel_chain_midpoint(self):
        # hand solve: unit weights, ends pinned to opposite classes, eta = 0
        # stationarity at the middle pixel: 2 y - ybar_left - ybar_right = 0
        sigma = ProbField.uniform(1, 3, 2)
        scribbles = ScribbleField(np.array([[1, 0, 2]]))
        image = Image(np.full((1, 3, 3), 50, dtype=np.uint8))
        graph = build_graph(image, AffinityConfig())  # constant color: w = 1
        y = random_walker_solve(sigma, scribbles, graph, eta=0.0, lam=1.0)
        np.testing.assert_allclose(y.data[0, 1], [0.5, 0.5], atol=1e-9)

    def test_rows_sum_to_one_and_stay_in_range(self):
        for seed in range(5):
            sigma, scribbles, graph = grid_instance(seed, h=8, w=8)
            y = random_walker_solve(sigma, scribbles, graph, eta=0.3, lam=6.0)
            sums = y.data.sum(axis=2)
            assert np.max(np.abs(sums - 1.0)) < 1e-9
            assert y.data.min() >= -1e-9 and y.data.max() <= 1.0 + 1e-9

    def test_singular_system_detected(self):
        sigma = ProbField.uniform(1, 3, 2)
        scribbles = ScribbleField(np.array([[1, 0, 0]]))
        # zero-weight edge cuts the last pixel off from every scribble
        graph = AffinityGraph(npixels=3, ei=[0, 1], ej=[1, 2], w=[1.0, 0.0])
        with pytest.raises(NumericalError):
            random_walker_solve(sigma, scribbles, graph, eta=0.0, lam=1.0)

    def test_underflowing_affinities_are_a_numerical_failure(self):
        # 8x8 noise at the default bandwidth: weights down to ~1e-215 still
        # connect every pixel to a scribble, but with eta = 0 a system whose
        # pixels reach the scribbles only through edges below eps * max(w) is
        # singular in floating point, so the grounding check refuses it
        rng = np.random.default_rng(5)
        image = Image(rng.integers(0, 256, size=(8, 8, 3)))
        graph = build_graph(image, AffinityConfig())
        sigma = ProbField(rng.dirichlet(np.ones(3), size=(8, 8)))
        labels = np.zeros(64, dtype=np.int64)
        labels[rng.permutation(64)[:4]] = rng.integers(1, 4, size=4)
        assert graph.w.min() < 1e-200
        with pytest.raises(NumericalError, match="component has no scribble"):
            random_walker_solve(sigma, ScribbleField(labels.reshape(8, 8)), graph, 0.0, 1.0)

    @pytest.mark.parametrize("seed", range(6))
    def test_negligible_eta_is_refused_before_any_solve(self, seed, monkeypatch):
        # 2 eta = 2e-300 is far below eps * lambda * max(w), so the diagonal
        # does not ground the pixels cut off by underflowing edges: the same
        # check as at eta = 0 refuses the system, and CG never runs
        from potts_sl import oracles

        def no_cg(*args, **kwargs):
            raise AssertionError("cg called on a system the grounding check refuses")

        rng = np.random.default_rng(seed)
        image = Image(rng.integers(0, 256, size=(8, 8, 3)))
        graph = build_graph(image, AffinityConfig())
        sigma = ProbField(rng.dirichlet(np.ones(3), size=(8, 8)))
        labels = np.zeros(64, dtype=np.int64)
        labels[rng.permutation(64)[:3]] = rng.integers(1, 4, size=3)
        monkeypatch.setattr(oracles, "cg", no_cg)
        with pytest.raises(NumericalError, match="component has no scribble"):
            random_walker_solve(sigma, ScribbleField(labels.reshape(8, 8)), graph, 1e-300, 1.0)

    def test_off_simplex_solution_is_a_numerical_failure(self, monkeypatch):
        # a CG solution whose rows do not sum to 1 is not a probability field
        from potts_sl import oracles

        sigma, scribbles, graph = grid_instance(0)
        monkeypatch.setattr(oracles, "cg", lambda a, b, **kw: (np.full(b.shape, 2.0), 0))
        with pytest.raises(NumericalError, match="not on the simplex"):
            random_walker_solve(sigma, scribbles, graph, 0.5, 1.0)

    @pytest.mark.parametrize("seed", [0, 3])
    @pytest.mark.parametrize("scale", [1e-300, 1e-200, 1e-155, 1e-150, 2.0**-40, 2.0**40,
                                       1e152, 1e153, 1e154, 1e155, 1e200, 1e300])
    def test_solution_depends_on_lambda_over_eta_alone(self, seed, scale):
        # the weights are scaled by a power of two before the assembly, so CG
        # neither underflows nor overflows, and a power-of-two scale moves no bit
        sigma, scribbles, image = solver_oracle_instance(seed, 16, 16, 3)
        graph = build_graph(image, AffinityConfig())
        ref = random_walker_solve(sigma, scribbles, graph, 0.3, 6.0).data
        y = random_walker_solve(sigma, scribbles, graph, 0.3 * scale, 6.0 * scale).data
        if np.log2(scale).is_integer():
            assert np.array_equal(y, ref)
        else:
            np.testing.assert_allclose(y, ref, rtol=0.0, atol=1e-13)

    @pytest.mark.parametrize("weights", [[], [0.0, 0.0], [1e-310, 1e-310]],
                             ids=["no-edge", "zero-weights", "subnormal-weights"])
    def test_lambda_far_above_eta_with_no_normal_weight(self, weights):
        # at eta = 1e-300 and lambda = 1e300, a scale taken from eta alone (no
        # edge weight) or from a subnormal max(w) would overflow lambda; with
        # no weight the free pixels keep sigma, else they follow the scribble
        sigma = random_interior_field(np.random.default_rng(1), 1, 3, 2)
        graph = AffinityGraph(3, [0, 1][:len(weights)], [1, 2][:len(weights)], weights)
        scribbles = ScribbleField(np.array([[1, 0, 0]]))
        y = random_walker_solve(sigma, scribbles, graph, 1e-300, 1e300).data[0]
        assert np.array_equal(y[0], [1.0, 0.0])
        expected = [[1.0, 0.0]] * 2 if any(weights) else sigma.data[0, 1:]
        np.testing.assert_allclose(y[1:], expected, rtol=0.0, atol=1e-12)

    def test_stationarity_matches_loss_bookkeeping(self):
        # the assembled system must be the exact stationary point of
        # eta * sum quad + lam * potts_sum(Q): check the gradient vanishes
        sigma, scribbles, graph = grid_instance(2)
        eta, lam = 0.7, 2.5
        y = random_walker_solve(sigma, scribbles, graph, eta, lam)
        _, pgrad = potts_sum_grad(PottsKind.Q, y, graph)
        grad = lam * pgrad + eta * 2.0 * (y.data - sigma.data)
        unlabeled = scribbles.data == 0
        assert np.max(np.abs(grad[unlabeled])) < 1e-6

    def test_fully_scribbled(self):
        rng = np.random.default_rng(3)
        labels = rng.integers(1, 3, size=(3, 3))
        sigma = ProbField.uniform(3, 3, 2)
        image = Image(rng.integers(0, 256, size=(3, 3, 3)))
        graph = build_graph(image, AffinityConfig())
        y = random_walker_solve(sigma, ScribbleField(labels), graph, 0.3, 6.0)
        from potts_sl import argmax_decode
        np.testing.assert_array_equal(argmax_decode(y), labels)


    @settings(max_examples=40)
    @given(
        h=st.integers(1, 7),
        w=st.integers(1, 7),
        k=st.integers(2, 5),
        scribbled=st.floats(0.0, 1.0),
        eta=st.sampled_from([0.3, 1.0]),
        lam=st.sampled_from([0.0, 1.0, 6.0]),
        seed=st.integers(0, 2**16),
    )
    @example(h=1, w=1, k=3, scribbled=0.0, eta=0.3, lam=6.0, seed=0)
    @example(h=1, w=6, k=2, scribbled=0.5, eta=1.0, lam=6.0, seed=1)
    def test_class_permutation_equivariance_is_exact(self, h, w, k, scribbled, eta, lam, seed):
        # each class is its own CG solve with the same matrix, so permuting
        # the classes permutes the solutions without changing a bit
        sigma, scribbles, graph = grid_instance(seed, h, w, k, round(scribbled * h * w))
        perm = np.random.default_rng(seed).permutation(k)
        y = random_walker_solve(sigma, scribbles, graph, eta, lam)
        y_perm = random_walker_solve(*permute_classes(sigma, scribbles, perm), graph, eta, lam)
        assert np.array_equal(y_perm.data, y.data[..., perm])


def grid_system(seed, h=7, w=9, eta=0.3, lam=6.0):
    """(2 eta I + lam L, inverse diagonal, right-hand side) on a small grid."""
    from scipy import sparse
    from potts_sl import oracles

    _, _, graph = grid_instance(seed, h, w)
    a = ((2.0 * eta) * sparse.identity(h * w, format="csr") + lam * oracles._laplacian(graph)).tocsr()
    b = np.random.default_rng(seed).standard_normal(h * w)
    return a, 1.0 / a.diagonal(), b


class TestConjugateGradient:
    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("lam", [1.0, 6.0, 100.0])
    def test_matches_scipy_cg_step_for_step(self, seed, lam):
        from scipy import sparse
        from scipy.sparse.linalg import cg as scipy_cg
        from potts_sl import oracles

        a, inv_diag, b = grid_system(seed, lam=lam)
        ours, theirs = [], []
        x, info = oracles.cg(a, b, rtol=1e-10, atol=0.0, M=inv_diag, callback=ours.append)
        x_ref, info_ref = scipy_cg(a, b, rtol=1e-10, atol=0.0, M=sparse.diags(inv_diag),
                                   callback=theirs.append)
        assert info == info_ref == 0
        assert len(ours) == len(theirs) > 0
        assert np.max(np.abs(x - x_ref)) <= 1e-12 * np.max(np.abs(x_ref))

    @pytest.mark.parametrize("rtol", [1e-4, 1e-8])
    def test_final_residual_meets_the_tolerance(self, rtol):
        from potts_sl import oracles

        a, inv_diag, b = grid_system(7)
        x, info = oracles.cg(a, b, rtol=rtol, atol=0.0, M=inv_diag)
        assert info == 0
        assert np.linalg.norm(b - a @ x) <= rtol * np.linalg.norm(b)

    def test_zero_right_hand_side_returns_zeros_without_iterating(self):
        from potts_sl import oracles

        a, inv_diag, b = grid_system(1)
        calls = []
        x, info = oracles.cg(a, np.zeros_like(b), rtol=1e-10, atol=0.0, M=inv_diag,
                             callback=calls.append)
        assert info == 0 and calls == []
        assert x.shape == b.shape and not x.any()

    def test_pool_gives_the_serial_loop_bit_for_bit(self, monkeypatch):
        # record each class's system, then solve the same systems one after
        # another on this thread: the pooled solution must not differ by a
        # bit. The workers may start the classes in either order.
        from potts_sl import oracles

        real_cg, calls = oracles.cg, []

        def recording_cg(a, b, **kw):
            calls.append((a, b, kw))
            return real_cg(a, b, **kw)

        sigma, scribbles, graph = grid_instance(3, h=12, w=13, k=5, labeled=10)
        monkeypatch.setattr(oracles, "cg", recording_cg)
        y = random_walker_solve(sigma, scribbles, graph, 0.3, 6.0)
        assert len(calls) == 5
        unlabeled = scribbles.data.ravel() == 0
        flat = y.data.reshape(-1, 5)
        matched = set()
        for a, b, kw in calls:
            x, info = real_cg(a, b, **kw)
            assert info == 0
            matched |= {c for c in range(5) if np.array_equal(flat[unlabeled, c], x)}
        assert matched == set(range(5))

    def test_unconverged_solve_is_a_numerical_failure(self, monkeypatch):
        from potts_sl import oracles

        sigma, scribbles, graph = grid_instance(0)
        monkeypatch.setattr(oracles, "cg", lambda a, b, **kw: (np.zeros(b.shape), 3))
        with pytest.raises(NumericalError, match="failed to converge"):
            random_walker_solve(sigma, scribbles, graph, 0.5, 1.0)


class TestFiniteDiff:
    def test_exact_for_quadratics(self):
        rng = np.random.default_rng(4)
        a = rng.standard_normal((5, 5))
        a = a @ a.T + np.eye(5)
        b = rng.standard_normal(5)
        f = lambda x: 0.5 * x @ a @ x + b @ x
        x0 = rng.standard_normal(5)
        err = finite_diff_check(f, a @ x0 + b, x0)
        assert err < 1e-9

    def test_detects_wrong_gradient(self):
        f = lambda x: float(x @ x)
        x0 = np.array([1.0, 2.0])
        err = finite_diff_check(f, 3.0 * x0, x0)  # true gradient is 2 x
        assert err > 0.1

    def test_divergence_in_stencil_reported(self):
        def f(x):
            with np.errstate(invalid="ignore"):
                return float(np.log(x[0]))

        with pytest.raises(NumericalError):
            finite_diff_check(f, np.array([1e5]), np.array([5e-6]))


def dp_min_energy(unary, h, w, k, graph, lam):
    """Row-decomposition dynamic program for 4-connected grids: exact minimum
    by enumerating row states and scanning row transitions."""
    weights = {}
    for a, b, wv in zip(graph.ei, graph.ej, graph.w):
        weights[(int(a), int(b))] = lam * float(wv)
    states = list(itertools.product(range(k), repeat=w))

    def row_cost(r, state):
        cost = sum(unary[r * w + c, state[c]] for c in range(w))
        for c in range(w - 1):
            if state[c] != state[c + 1]:
                cost += weights[(r * w + c, r * w + c + 1)]
        return cost

    def trans_cost(r, top, bottom):
        cost = 0.0
        for c in range(w):
            if top[c] != bottom[c]:
                cost += weights[((r - 1) * w + c, r * w + c)]
        return cost

    best = {s: row_cost(0, s) for s in states}
    for r in range(1, h):
        nxt = {}
        for s in states:
            base = row_cost(r, s)
            nxt[s] = min(best[t] + trans_cost(r, t, s) for t in states)
            nxt[s] += base
        best = nxt
    return min(best.values())


class TestBruteForce:
    def test_lambda_zero_per_pixel_argmin(self):
        rng = np.random.default_rng(5)
        unary = rng.uniform(size=(6, 3))
        graph = AffinityGraph(npixels=6, ei=[], ej=[], w=[])
        labels, energy = brute_force_discrete(unary, graph, lam=0.0)
        np.testing.assert_array_equal(labels, np.argmin(unary, axis=1) + 1)
        assert abs(energy - unary.min(axis=1).sum()) < 1e-12

    def test_tie_broken_lexicographically(self):
        unary = np.zeros((2, 2))
        graph = AffinityGraph(npixels=2, ei=[0], ej=[1], w=[1.0])
        labels, _ = brute_force_discrete(unary, graph, lam=0.0)
        np.testing.assert_array_equal(labels, [1, 1])

    def test_strong_coupling_takes_cheaper_joint_class(self):
        # pixel 0 prefers class 1, pixel 1 prefers class 2; huge smoothing
        unary = np.array([[0.0, 1.0], [3.0, 0.0]])
        graph = AffinityGraph(npixels=2, ei=[0], ej=[1], w=[1.0])
        labels, energy = brute_force_discrete(unary, graph, lam=100.0)
        np.testing.assert_array_equal(labels, [2, 2])  # total 1 beats total 3
        assert abs(energy - 1.0) < 1e-12

    def test_against_row_dp_on_grids(self):
        for seed in range(5):
            rng = np.random.default_rng(100 + seed)
            h = w = 3
            image = Image(rng.integers(0, 256, size=(h, w, 3)))
            graph = build_graph(image, AffinityConfig(color_bandwidth=70.0))
            unary = rng.uniform(size=(h * w, 2))
            lam = 0.8
            labels, energy = brute_force_discrete(unary, graph, lam)
            assert abs(energy - dp_min_energy(unary, h, w, 2, graph, lam)) < 1e-10
            assert abs(discrete_energy(labels, unary, graph, lam) - energy) < 1e-12

    def test_instance_too_large(self):
        graph = AffinityGraph(npixels=17, ei=[], ej=[], w=[])
        with pytest.raises(DataError):
            brute_force_discrete(np.zeros((17, 2)), graph, 1.0)
        graph = AffinityGraph(npixels=2, ei=[], ej=[], w=[])
        with pytest.raises(DataError):
            brute_force_discrete(np.zeros((2, 4)), graph, 1.0)
