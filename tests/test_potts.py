import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from potts_sl import (
    AffinityConfig,
    AffinityGraph,
    DIVERGENT,
    DataError,
    DivergentPointError,
    Image,
    NeighborhoodKind,
    ProbField,
    build_graph,
    is_divergent,
    potts_grad,
    potts_sum,
    potts_sum_grad,
    potts_value,
    xent_grad,
    xent_value,
)
from potts_sl.data_terms import XentKind
from potts_sl.errors import LOG_CLAMP
from potts_sl.oracles import finite_diff_check
from potts_sl.potts import PlaneWorkspace, PottsKind, _evaluate, _row_terms, plane_sum
from helpers import interior_pair, random_interior_field

ALL_KINDS = list(PottsKind)
LOG_KINDS = [PottsKind.CCE, PottsKind.CD, PottsKind.LQ]


def scalar_reference(kind, p, q):
    """Straight-off-the-definition evaluation, independent of the kernels."""
    p, q = np.asarray(p, float), np.asarray(q, float)
    dot = float(p @ q)
    if kind is PottsKind.BL:
        return 1.0 - dot
    if kind is PottsKind.Q:
        return 0.5 * float((p - q) @ (p - q))
    if kind is PottsKind.NQ:
        return 1.0 - dot / (np.linalg.norm(p) * np.linalg.norm(q))
    if kind is PottsKind.CCE:
        return -math.log(dot)
    if kind is PottsKind.CD:
        return -math.log(dot / (np.linalg.norm(p) * np.linalg.norm(q)))
    if kind is PottsKind.LQ:
        return -math.log(1.0 - 0.5 * float((p - q) @ (p - q)))
    raise AssertionError


class TestValues:
    def test_bilinear_half_on_shared_soft_state(self):
        v = potts_value(PottsKind.BL, [0.5, 0.5, 0.0], [0.5, 0.5, 0.0])
        assert abs(v - 0.5) < 1e-12

    def test_quadratic_three_quarters_on_boundary_move(self):
        v = potts_value(PottsKind.Q, [1.0, 0.0, 0.0], [0.0, 0.5, 0.5])
        assert abs(v - 0.75) < 1e-12

    def test_nq_zero_on_equal_points(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            p, _ = interior_pair(rng, 4)
            assert abs(potts_value(PottsKind.NQ, p, p)) < 1e-12

    def test_cd_is_log_of_one_minus_nq(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            p, q = interior_pair(rng, 3)
            cd = potts_value(PottsKind.CD, p, q)
            nq = potts_value(PottsKind.NQ, p, q)
            assert abs(cd - (-math.log(1.0 - nq))) < 1e-10

    def test_orthogonal_one_hots_diverge(self):
        for kind in LOG_KINDS:
            assert is_divergent(potts_value(kind, [1.0, 0.0], [0.0, 1.0]))

    def test_matches_reference_on_random_pairs(self):
        rng = np.random.default_rng(2)
        for kind in ALL_KINDS:
            for _ in range(50):
                p, q = interior_pair(rng, 5)
                assert abs(potts_value(kind, p, q) - scalar_reference(kind, p, q)) < 1e-12

    def test_symmetry(self):
        rng = np.random.default_rng(3)
        for kind in ALL_KINDS:
            for _ in range(50):
                p, q = interior_pair(rng, 4)
                assert abs(potts_value(kind, p, q) - potts_value(kind, q, p)) < 1e-12

    def test_vertex_consistency(self):
        e = np.eye(3)
        for kind in ALL_KINDS:
            same = potts_value(kind, e[0], e[0])
            assert abs(same) < 1e-12
        for kind in (PottsKind.BL, PottsKind.Q, PottsKind.NQ):
            assert abs(potts_value(kind, e[0], e[1]) - 1.0) < 1e-12
        for kind in LOG_KINDS:
            assert is_divergent(potts_value(kind, e[0], e[1]))

    def test_decisiveness_identity(self):
        # Q - BL = |p|^2/2 + |q|^2/2 - 1
        rng = np.random.default_rng(4)
        for _ in range(1000):
            p, q = interior_pair(rng, 4)
            lhs = potts_value(PottsKind.Q, p, q) - potts_value(PottsKind.BL, p, q)
            rhs = 0.5 * p @ p + 0.5 * q @ q - 1.0
            assert abs(lhs - rhs) < 1e-9


class TestPaths:
    """Two parameterized moves on the simplex for K = 3."""

    ts = np.linspace(0.0, 1.0, 1001)

    def test_joint_move_path(self):
        # both endpoints move together: (1-t, t, 0) against itself
        bl = np.array([potts_value(PottsKind.BL, [1 - t, t, 0.0], [1 - t, t, 0.0]) for t in self.ts])
        q = np.array([potts_value(PottsKind.Q, [1 - t, t, 0.0], [1 - t, t, 0.0]) for t in self.ts])
        nq = np.array([potts_value(PottsKind.NQ, [1 - t, t, 0.0], [1 - t, t, 0.0]) for t in self.ts])
        assert np.max(np.abs(q)) < 1e-9
        assert np.max(np.abs(nq)) < 1e-9
        k = int(np.argmax(bl))
        assert abs(self.ts[k] - 0.5) < 1e-12 and abs(bl[k] - 0.5) < 1e-9

    def test_one_sided_move_path(self):
        # one endpoint fixed at a vertex, the other moves along the far face
        bl = np.array([potts_value(PottsKind.BL, [1.0, 0, 0], [0.0, t, 1 - t]) for t in self.ts])
        q = np.array([potts_value(PottsKind.Q, [1.0, 0, 0], [0.0, t, 1 - t]) for t in self.ts])
        nq = np.array([potts_value(PottsKind.NQ, [1.0, 0, 0], [0.0, t, 1 - t]) for t in self.ts])
        assert np.max(np.abs(bl - 1.0)) < 1e-9
        assert np.max(np.abs(nq - 1.0)) < 1e-9
        k = int(np.argmin(q))
        assert abs(self.ts[k] - 0.5) < 1e-12 and abs(q[k] - 0.75) < 1e-9

    def test_cd_constant_where_nq_constant(self):
        # joint move: NQ is identically 0, so CD = -ln(1 - 0) = 0 throughout
        for t in self.ts[::50]:
            assert abs(potts_value(PottsKind.CD, [1 - t, t, 0.0], [1 - t, t, 0.0])) < 1e-9
        # one-sided move: NQ is identically 1, so CD stays divergent throughout
        for t in self.ts[::50]:
            assert is_divergent(potts_value(PottsKind.CD, [1.0, 0, 0], [0.0, t, 1 - t]))


class TestGrads:
    def test_quadratic_gradient_closed_form(self):
        rng = np.random.default_rng(5)
        p, q = interior_pair(rng, 4)
        gp, gq = potts_grad(PottsKind.Q, p, q)
        np.testing.assert_allclose(gp, p - q, atol=1e-15)
        np.testing.assert_allclose(gq, q - p, atol=1e-15)

    def test_bilinear_gradient_closed_form(self):
        rng = np.random.default_rng(6)
        p, q = interior_pair(rng, 4)
        gp, gq = potts_grad(PottsKind.BL, p, q)
        np.testing.assert_allclose(gp, -q, atol=1e-15)
        np.testing.assert_allclose(gq, -p, atol=1e-15)

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_matches_finite_differences(self, kind):
        rng = np.random.default_rng(7)
        k = 4
        for _ in range(100):
            p, q = interior_pair(rng, k)
            gp, gq = potts_grad(kind, p, q)
            f = lambda z: potts_value(kind, z[:k], z[k:])
            err = finite_diff_check(f, np.concatenate([gp, gq]), np.concatenate([p, q]))
            assert err < 1e-4

    def test_divergent_gradient_refused(self):
        with pytest.raises(DivergentPointError):
            potts_grad(PottsKind.CCE, [1.0, 0.0], [0.0, 1.0])

    def test_log_quadratic_beats_quadratic_near_vertices(self):
        # gradient magnitude comparison a small distance from differing one-hots
        eps = 1e-2
        p = np.array([1.0 - eps, eps, 0.0])
        q = np.array([eps, 1.0 - eps, 0.0])
        glq, _ = potts_grad(PottsKind.LQ, p, q)
        gq, _ = potts_grad(PottsKind.Q, p, q)
        assert np.linalg.norm(glq) > 10 * np.linalg.norm(gq)


def chain_graph(weights):
    n = len(weights) + 1
    return AffinityGraph(
        npixels=n,
        ei=np.arange(n - 1),
        ej=np.arange(1, n),
        w=np.asarray(weights, float),
    )


class TestFieldSums:
    def test_constant_one_hot_field_is_zero(self):
        data = np.zeros((2, 3, 3))
        data[:, :, 1] = 1.0
        field = ProbField(data)
        graph = chain_graph([1.0] * 5)
        for kind in ALL_KINDS:
            assert potts_sum(kind, field, graph) == 0.0

    def test_two_pixel_graph_equals_single_value(self):
        field = ProbField(np.array([[[1.0, 0.0, 0.0], [0.0, 0.5, 0.5]]]))
        graph = chain_graph([1.0])
        for kind in (PottsKind.BL, PottsKind.Q, PottsKind.NQ):
            assert abs(potts_sum(kind, field, graph) - potts_value(kind, [1, 0, 0], [0, 0.5, 0.5])) < 1e-12

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_random_field_sum_matches_double_loop(self, kind):
        rng = np.random.default_rng(8)
        field = random_interior_field(rng, 4, 4, 3)
        ei, ej = [], []
        for a in range(16):
            for b in range(a + 1, 16):
                if rng.uniform() < 0.3:
                    ei.append(a)
                    ej.append(b)
        w = rng.uniform(0.1, 2.0, size=len(ei))
        graph = AffinityGraph(npixels=16, ei=ei, ej=ej, w=w)
        flat = field.flat()
        expected = sum(
            wv * scalar_reference(kind, flat[a], flat[b])
            for a, b, wv in zip(ei, ej, w)
        )
        assert abs(potts_sum(kind, field, graph) - expected) < 1e-9

    def test_dimension_mismatch(self):
        field = ProbField.uniform(2, 2, 3)
        graph = chain_graph([1.0, 1.0])
        with pytest.raises(DataError):
            potts_sum(PottsKind.Q, field, graph)

    def test_divergent_sum_tagged(self):
        field = ProbField(np.array([[[1.0, 0.0], [0.0, 1.0]]]))
        graph = chain_graph([1.0])
        assert is_divergent(potts_sum(PottsKind.CCE, field, graph))
        with pytest.raises(DivergentPointError):
            potts_sum_grad(PottsKind.CCE, field, graph)

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_sum_gradient_accumulates_edge_grads(self, kind):
        rng = np.random.default_rng(9)
        field = random_interior_field(rng, 3, 3, 3)
        graph = chain_graph(rng.uniform(0.2, 1.5, size=8))
        value, grad = potts_sum_grad(kind, field, graph)
        expected = np.zeros((9, 3))
        flat = field.flat()
        for a, b, wv in zip(graph.ei, graph.ej, graph.w):
            gp, gq = potts_grad(kind, flat[a], flat[b])
            expected[a] += wv * gp
            expected[b] += wv * gq
        np.testing.assert_allclose(grad.reshape(9, 3), expected, atol=1e-12)
        assert abs(value - potts_sum(kind, field, graph)) < 1e-12


def rows_with_divergent_head(rng, n=40, k=4, head=3):
    """(n, k) interior pairs whose first `head` rows are orthogonal one-hots."""
    p = 0.85 * rng.dirichlet(np.ones(k), size=n) + 0.15 / k
    q = 0.85 * rng.dirichlet(np.ones(k), size=n) + 0.15 / k
    p[:head], q[:head] = np.eye(k)[0], np.eye(k)[1]
    return p, q


class TestSinglePair:
    """potts_value and potts_grad against the kernel on the pair's own rows,
    bit for bit: the value is _evaluate's, and the gradient is
    (a_p p + b q, a_q q + b p) from its coefficients."""

    @pytest.mark.parametrize("kind", ALL_KINDS)
    @pytest.mark.parametrize("k", range(2, 22))
    def test_pair_api_is_the_kernel_bit_for_bit(self, kind, k):
        rng = np.random.default_rng(k)
        onehot = np.eye(k)
        pairs = [(onehot[0], onehot[0]), (onehot[0], onehot[1]), (onehot[1], 0.5 * onehot[1] + 0.5 / k)]
        for _ in range(20):
            p, q = rng.dirichlet(np.ones(k), size=2)
            if rng.uniform() < 0.3:
                p = onehot[rng.integers(k)]
            pairs.append((p, q))
        for p, q in pairs:
            tp, tq = _row_terms(kind, p[None]), _row_terms(kind, q[None])
            v, div, (ap, aq, b) = _evaluate(kind, p[None], q[None], tp, tq, np.ones(1))
            value = potts_value(kind, p, q)
            if div[0]:
                assert kind in LOG_KINDS and is_divergent(value)
                with pytest.raises(DivergentPointError):
                    potts_grad(kind, p, q)
                continue
            assert np.float64(value).tobytes() == v[0].tobytes()
            gp, gq = potts_grad(kind, p, q)
            assert gp.tobytes() == (ap[0] * p + b[0] * q).tobytes()
            assert gq.tobytes() == (aq[0] * q + b[0] * p).tobytes()
        assert is_divergent(potts_value(kind, onehot[0], onehot[1])) == (kind in LOG_KINDS)

    def test_unknown_kind_rejected(self):
        p, q = [0.3, 0.7], [0.6, 0.4]
        with pytest.raises(DataError):
            potts_value("nope", p, q)
        with pytest.raises(DataError):
            potts_grad("nope", p, q)
        graph = AffinityGraph(npixels=2, ei=[0], ej=[1], w=[1.0])
        planes = np.ascontiguousarray(np.array([p, q]).T)
        for g in (graph, AffinityGraph(2, [0], [1], [1.0], grid=(1, 2))):
            with pytest.raises(DataError):
                plane_sum("nope", planes, g, np.zeros_like(planes))

    @pytest.mark.parametrize("fn, kind", [
        (potts_value, PottsKind.BL), (potts_grad, PottsKind.BL),
        (xent_value, XentKind.CE), (xent_grad, XentKind.CE),
    ], ids=["potts_value", "potts_grad", "xent_value", "xent_grad"])
    @pytest.mark.parametrize("p, q", [
        ([[1.0, 0.0], [0.5, 0.5]], [[0.9, 0.1], [0.5, 0.5]]),  # two rows: not one pair
        ([[0.9, 0.1]], [[0.5, 0.5]]),
        ([0.9, 0.1], [0.2, 0.3, 0.5]),
        ([1.0], [1.0]),
    ], ids=["two-rows", "one-row", "lengths-differ", "k1"])
    def test_single_pair_api_takes_two_k_vectors(self, fn, kind, p, q):
        with pytest.raises(DataError, match="pair must be two K-vectors"):
            fn(kind, p, q)


class TestFusedKernel:
    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_edge_sum_scales_value_and_adds_gradient(self, kind):
        rng = np.random.default_rng(12)
        field = random_interior_field(rng, 3, 3, 3)
        graph = chain_graph(rng.uniform(0.2, 1.5, size=8))
        value, grad = potts_sum_grad(kind, field, graph)
        start = rng.normal(size=(3, 9))
        out = start.copy()
        scaled, div = plane_sum(kind, field.planes(), graph, out, 2.5)
        assert not div.any()
        assert abs(scaled - 2.5 * value) < 1e-12
        np.testing.assert_allclose((out - start).T, 2.5 * grad.reshape(9, 3), atol=1e-12)

    def test_edge_sum_counts_zero_weight_divergence_but_skips_its_gradient(self):
        y = np.ascontiguousarray([[1.0, 0.0, 0.5], [0.0, 1.0, 0.5]])
        graph = AffinityGraph(npixels=3, ei=[0, 1], ej=[1, 2], w=[0.0, 1.0])
        out = np.zeros_like(y)
        value, div = plane_sum(PottsKind.CCE, y, graph, out)
        assert div.tolist() == [True, False]
        assert abs(value - math.log(2.0)) < 1e-12
        np.testing.assert_allclose(out, [[0.0, -1.0, 0.0], [0.0, -1.0, -2.0]], atol=1e-12)


NEIGHBORHOODS = [
    AffinityConfig(),
    AffinityConfig(kind=NeighborhoodKind.SPARSE_WINDOW, radius=2),
    AffinityConfig(kind=NeighborhoodKind.DENSE_TRUNCATED, radius=3, spatial_bandwidth=1.5),
]


class TestGridPath:
    @pytest.mark.parametrize("kind", ALL_KINDS)
    @pytest.mark.parametrize("cfg", NEIGHBORHOODS, ids=lambda c: c.kind.value)
    @pytest.mark.parametrize("h,w", [(1, 1), (1, 7), (7, 1), (9, 5)])
    def test_grid_blocks_match_flat_edge_list_exactly(self, kind, cfg, h, w):
        rng = np.random.default_rng(h * 31 + w)
        graph = build_graph(Image(rng.integers(0, 256, size=(h, w, 3))), cfg)
        flat = AffinityGraph(graph.npixels, graph.ei, graph.ej, graph.w)
        assert graph.grid == (h, w) and flat.grid is None
        k = 4
        y = rng.dirichlet(np.ones(k), size=h * w)
        hot = rng.uniform(size=h * w) < 0.5
        y[hot] = np.eye(k)[rng.integers(0, k, size=hot.sum())]
        y[:2] = np.eye(k)[:2][: h * w]  # pixels 0 and 1 are neighbors: a divergent pair
        planes = np.ascontiguousarray(y.T)
        results = []
        for g in (graph, flat):
            out = np.full((k, h * w), 0.25)
            value, div = plane_sum(kind, planes, g, out, 1.7)
            results.append((value, div, out))
        (v0, d0, g0), (v1, d1, g1) = results
        assert v0 == v1
        assert d0.dtype == bool and np.array_equal(d0, d1)
        assert np.array_equal(g0, g1)
        if kind in LOG_KINDS and h * w > 1:
            assert d0.any()

    def test_grid_path_rejects_a_gradient_buffer_it_cannot_view(self):
        graph = build_graph(Image(np.zeros((3, 4, 3))), AffinityConfig())
        y = np.full((2, 12), 0.5)
        out = np.zeros((12, 2)).T  # (2, 12) but Fortran-ordered
        for g in (graph, AffinityGraph(graph.npixels, graph.ei, graph.ej, graph.w)):
            with pytest.raises(DataError):
                plane_sum(PottsKind.BL, y, g, out)


def per_edge_reference(kind, y, graph, scale, start):
    """Edge sum of kind with every term computed from the edge's own two rows.

    Returns (value, divergent, coefficient gradient, per-edge gradient), both
    gradients added to a copy of start. The coefficient gradient writes out
    (a_p, a_q, b) * scale * w from the module table, zeroed on divergent
    edges, and accumulates a_p and b q over ei, then a_q and b p over ej with
    np.add.at, then adds own * y. The per-edge gradient adds the (E, K)
    formulas dP/dp and dP/dq with np.add.at over ei, then over ej.
    """
    dot = lambda a, b: np.einsum("...k,...k->...", a, b)
    p, q = y[graph.ei], y[graph.ej]
    s, a2, b2 = dot(p, q), dot(p, p), dot(q, q)
    d = p - q
    zero, one = np.zeros(s.shape), np.ones(s.shape)
    div = np.zeros(s.shape, dtype=bool)
    ss = np.maximum(s, LOG_CLAMP)
    if kind is PottsKind.BL:
        v, coefs, grads = 1.0 - s, (zero, zero, -one), (-q, -p)
    elif kind is PottsKind.Q:
        v, coefs, grads = 0.5 * dot(d, d), (one, one, -one), (d, -d)
    elif kind is PottsKind.NQ:
        v = 1.0 - s / (np.sqrt(a2) * np.sqrt(b2))
        ab = np.sqrt(a2 * b2)
        coefs = (s / (a2 * ab), s / (b2 * ab), -1.0 / ab)
        grads = ((s / a2)[:, None] * p / ab[:, None] - q / ab[:, None],
                 (s / b2)[:, None] * q / ab[:, None] - p / ab[:, None])
    elif kind is PottsKind.CCE:
        v, div = -np.log(ss), s <= LOG_CLAMP
        coefs, grads = (zero, zero, -1.0 / ss), (-q / ss[:, None], -p / ss[:, None])
    elif kind is PottsKind.CD:
        c = s / (np.sqrt(a2) * np.sqrt(b2))
        v, div = -np.log(np.maximum(c, LOG_CLAMP)), c <= LOG_CLAMP
        coefs = (1.0 / a2, 1.0 / b2, -1.0 / ss)
        grads = (-q / ss[:, None] + p / a2[:, None], -p / ss[:, None] + q / b2[:, None])
    else:
        u = 1.0 - 0.5 * dot(d, d)
        uu = np.maximum(u, LOG_CLAMP)
        v, div = -np.log(uu), u <= LOG_CLAMP
        coefs, grads = (1.0 / uu, 1.0 / uu, -1.0 / uu), (d / uu[:, None], -d / uu[:, None])
    weights = scale * graph.w
    ap, aq, b = (np.where(div, 0.0, c * weights) for c in coefs)
    own, by_coefs = np.zeros(len(y)), start.copy()
    np.add.at(own, graph.ei, ap)
    np.add.at(by_coefs, graph.ei, b[:, None] * q)
    np.add.at(own, graph.ej, aq)
    np.add.at(by_coefs, graph.ej, b[:, None] * p)
    by_coefs += own[:, None] * y
    by_edge = start.copy()
    for index, g in zip((graph.ei, graph.ej), grads):
        g = g.copy()
        g[div] = 0.0
        np.add.at(by_edge, index, weights[:, None] * g)
    # the weighted sum in numpy's own (not BLAS's thread-dependent) order
    return scale * float(np.einsum("e,e->", graph.w, v)), div, by_coefs, by_edge


class TestRowTerms:
    """plane_sum against an edge-by-edge reference. Values and masks must be
    equal; the gradient must equal the coefficient form accumulated in edge
    order and match the per-edge (E, K) formulas to rounding."""

    @pytest.mark.parametrize("kind", ALL_KINDS)
    @pytest.mark.parametrize("cfg", NEIGHBORHOODS, ids=lambda c: c.kind.value)
    @pytest.mark.parametrize("h,w", [(1, 7), (9, 5), (12, 13)])
    def test_edge_sum_equals_per_edge_norms_exactly(self, kind, cfg, h, w):
        rng = np.random.default_rng(h * 17 + w)
        graph = build_graph(Image(rng.integers(0, 256, size=(h, w, 3))), cfg)
        k = 5
        y = rng.dirichlet(np.ones(k), size=h * w)
        hot = rng.uniform(size=h * w) < 0.4
        y[hot] = np.eye(k)[rng.integers(0, k, size=hot.sum())]
        y[:2] = np.eye(k)[:2]  # neighbours 0 and 1: orthogonal one-hots
        planes = np.ascontiguousarray(y.T)
        for start in (np.full(y.shape, 0.25), np.zeros(y.shape)):
            ref_value, ref_div, by_coefs, by_edge = per_edge_reference(kind, y, graph, 1.3, start)
            assert ref_div.any() == (kind in LOG_KINDS)
            for g in (graph, AffinityGraph(graph.npixels, graph.ei, graph.ej, graph.w)):
                out = np.ascontiguousarray(start.T)
                value, div = plane_sum(kind, planes, g, out, 1.3)
                assert value == ref_value
                assert np.array_equal(div, ref_div)
                assert np.array_equal(out.T, by_coefs)
                assert np.abs(out.T - by_edge).max() <= 1e-14 * np.abs(by_edge).max()

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_coefficients_have_value_shape_and_vanish_on_divergent_edges(self, kind):
        rng = np.random.default_rng(13)
        p, q = rows_with_divergent_head(rng)
        p, q = p.reshape(5, 8, -1), q.reshape(5, 8, -1)
        tp, tq = _row_terms(kind, p), _row_terms(kind, q)
        weights = rng.uniform(0.5, 2.0, size=p.shape[:-1])
        values, div, coefs = _evaluate(kind, p, q, tp, tq, weights)
        assert values.shape == div.shape == weights.shape
        assert div.any() == (kind in LOG_KINDS)
        assert len(coefs) == 3
        for c in coefs:
            assert c.shape == values.shape
            assert np.all(np.isfinite(c)) and not c[div].any()
            assert not any(np.shares_memory(c, t) for t in (*tp, *tq, weights))


class TestClassPlanes:
    """plane_sum on (K, N) class planes, on the same edges without a grid
    layout and, below K = 8 where _row_dot is einsum's order, against the
    edge-by-edge reference."""

    @settings(max_examples=80, deadline=None)
    @given(
        h=st.integers(1, 7),
        w=st.integers(1, 7),
        kind=st.sampled_from(ALL_KINDS),
        cfg=st.sampled_from(NEIGHBORHOODS),
        flat=st.booleans(),
        k=st.sampled_from([2, 3, 4, 5, 6, 7, 8, 21]),
        hot=st.sampled_from([0.3, 1.0]),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(h=1, w=1, kind=PottsKind.CD, cfg=NEIGHBORHOODS[0], flat=False, k=2, hot=0.3, seed=0)
    @example(h=1, w=6, kind=PottsKind.NQ, cfg=NEIGHBORHOODS[1], flat=False, k=21, hot=0.3, seed=1)
    @example(h=1, w=6, kind=PottsKind.LQ, cfg=NEIGHBORHOODS[2], flat=True, k=8, hot=0.3, seed=2)
    @example(h=6, w=5, kind=PottsKind.CCE, cfg=NEIGHBORHOODS[1], flat=True, k=5, hot=0.3, seed=3)
    # all rows one-hot under a window as wide as the image: the grid path's
    # runs hold pairs across row ends that diverge but are not edges
    @example(h=5, w=3, kind=PottsKind.CD, cfg=NEIGHBORHOODS[1], flat=False, k=2, hot=1.0, seed=4)
    @example(h=4, w=4, kind=PottsKind.LQ, cfg=NEIGHBORHOODS[2], flat=False, k=3, hot=1.0, seed=5)
    def test_plane_sum_is_row_major_edge_sum(self, h, w, kind, cfg, flat, k, hot, seed):
        rng = np.random.default_rng(seed)
        graph = build_graph(Image(rng.integers(0, 256, size=(h, w, 3))), cfg)
        if flat:
            graph = AffinityGraph(graph.npixels, graph.ei, graph.ej, graph.w)
        y = rng.dirichlet(np.ones(k), size=h * w)
        onehot = rng.uniform(size=h * w) < hot
        y[onehot] = np.eye(k)[rng.integers(0, k, size=onehot.sum())]
        start = rng.normal(size=y.shape)
        planes = np.ascontiguousarray(y.T)
        grad_planes = np.ascontiguousarray(start.T)
        value, div = plane_sum(kind, planes, graph, grad_planes, 0.7)
        assert div.dtype == bool
        no_layout = AffinityGraph(graph.npixels, graph.ei, graph.ej, graph.w)
        flat_planes = np.ascontiguousarray(start.T)
        flat_value, flat_div = plane_sum(kind, planes, no_layout, flat_planes, 0.7)
        assert flat_value == value and np.array_equal(flat_div, div)
        assert flat_planes.tobytes() == grad_planes.tobytes()
        if k < 8:
            r_value, r_div, by_coefs, _ = per_edge_reference(kind, y, graph, 0.7, start)
            assert value == r_value and np.array_equal(div, r_div)
            assert np.array_equal(grad_planes.T, by_coefs)


class TestEdgeOrderInvariance:
    @settings(max_examples=40)
    @given(
        h=st.integers(1, 8),
        w=st.integers(1, 8),
        kind=st.sampled_from(ALL_KINDS),
        cfg=st.sampled_from(NEIGHBORHOODS),
        k=st.integers(2, 5),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(h=1, w=1, kind=PottsKind.CD, cfg=NEIGHBORHOODS[1], k=3, seed=0)
    @example(h=1, w=6, kind=PottsKind.LQ, cfg=NEIGHBORHOODS[2], k=2, seed=1)
    def test_permuted_flat_graph_matches_grid_path(self, h, w, kind, cfg, k, seed):
        rng = np.random.default_rng(seed)
        graph = build_graph(Image(rng.integers(0, 256, size=(h, w, 3))), cfg)
        perm = rng.permutation(graph.nedges)
        shuffled = AffinityGraph(graph.npixels, graph.ei[perm], graph.ej[perm], graph.w[perm])
        y = rng.dirichlet(np.ones(k), size=h * w)
        hot = rng.uniform(size=h * w) < 0.3
        y[hot] = np.eye(k)[rng.integers(0, k, size=hot.sum())]
        planes = np.ascontiguousarray(y.T)
        results = []
        for g in (graph, shuffled):
            out = np.zeros_like(planes)
            value, div = plane_sum(kind, planes, g, out, 0.7)
            results.append((value, div, out))
        (v0, d0, g0), (v1, d1, g1) = results
        assert np.array_equal(d1, d0[perm])
        assert abs(v1 - v0) <= 1e-12 * abs(v0)
        np.testing.assert_allclose(g1, g0, rtol=1e-12, atol=1e-12 * np.abs(g0).max(initial=0.0))


class TestPlaneWorkspace:
    """plane_sum calls that share one PlaneWorkspace give what fresh calls
    give, bit for bit, and the arrays they hand back never alias it."""

    @pytest.mark.parametrize("kind", ALL_KINDS)
    @pytest.mark.parametrize("k", [2, 5, 21])
    @pytest.mark.parametrize("cfg", NEIGHBORHOODS[:2], ids=lambda c: c.kind.value)
    @pytest.mark.parametrize("h,w", [(1, 1), (1, 7), (6, 5)])
    def test_shared_workspace_equals_fresh_calls(self, kind, k, cfg, h, w):
        rng = np.random.default_rng(h * 1000 + w * 100 + k)
        built = build_graph(Image(rng.integers(0, 256, size=(h, w, 3))), cfg)
        weights = built.w.copy()
        weights[rng.uniform(size=weights.size) < 0.3] = 0.0
        graph = AffinityGraph(built.npixels, built.ei, built.ej, weights, grid=built.grid)
        workspace = PlaneWorkspace(graph, 1.7, k)
        kept = []
        # interior rows, then one-hot rows whose differing neighbours diverge
        # under the log kinds, then interior rows again
        for hot in (0.0, 1.0, 0.0, 0.5):
            y = rng.dirichlet(np.ones(k), size=h * w)
            onehot = rng.uniform(size=h * w) < hot
            y[onehot] = np.eye(k)[rng.integers(0, k, size=onehot.sum())]
            planes = np.ascontiguousarray(y.T)
            start = rng.normal(size=planes.shape)
            fresh_grad, shared_grad = start.copy(), start.copy()
            fresh = plane_sum(kind, planes, graph, fresh_grad, 1.7)
            shared = plane_sum(kind, planes, graph, shared_grad, 1.7, workspace)
            assert shared[0] == fresh[0]
            assert np.array_equal(shared[1], fresh[1])
            assert shared_grad.tobytes() == fresh_grad.tobytes()
            for mask, expected in kept:
                assert np.array_equal(mask, expected)
            kept.append((shared[1], fresh[1].copy()))
        if kind in LOG_KINDS and graph.nedges:
            assert any(expected.any() for _, expected in kept)

    def test_workspace_of_another_graph_scale_or_class_count_is_refused(self):
        rng = np.random.default_rng(5)
        image = Image(rng.integers(0, 256, size=(4, 5, 3)))
        graph = build_graph(image, AffinityConfig())
        twin = build_graph(image, AffinityConfig())
        planes = np.ascontiguousarray(rng.dirichlet(np.ones(3), size=20).T)
        for workspace in (PlaneWorkspace(twin, 2.0, 3), PlaneWorkspace(graph, 2.5, 3),
                          PlaneWorkspace(graph, 2.0, 4)):
            with pytest.raises(DataError, match="workspace"):
                plane_sum(PottsKind.CD, planes, graph, np.zeros_like(planes), 2.0, workspace)

    def test_warm_gradient_call_allocates_less_than_one_edge_array(self):
        # a 64x64 sparse:2 field at K = 5: the run-sized temporaries of the
        # kernels stay, every edge- and plane-sized buffer is the workspace's
        rng = np.random.default_rng(64)
        graph = build_graph(Image(rng.integers(0, 256, size=(64, 64, 3))), NEIGHBORHOODS[1])
        planes = np.ascontiguousarray(rng.dirichlet(np.ones(5), size=64 * 64).T)
        grad = np.zeros_like(planes)
        bound = graph.nedges * np.dtype(np.float64).itemsize

        def peak_above_start(workspace):
            tracemalloc.start()
            try:
                start = tracemalloc.get_traced_memory()[0]
                plane_sum(PottsKind.CD, planes, graph, grad, 6.0, workspace)
                return tracemalloc.get_traced_memory()[1] - start
            finally:
                tracemalloc.stop()

        workspace = PlaneWorkspace(graph, 6.0, 5)
        plane_sum(PottsKind.CD, planes, graph, grad, 6.0, workspace)
        assert peak_above_start(workspace) < bound
        # the bound is one that a call building its own buffers exceeds
        assert peak_above_start(None) > bound
