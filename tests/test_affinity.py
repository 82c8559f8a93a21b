import math
import warnings

import numpy as np
import pytest

from potts_sl import (
    AffinityConfig,
    AffinityGraph,
    DataError,
    Image,
    LossConfig,
    NeighborhoodKind,
    ScribbleField,
    build_graph,
    pseudo_label_objective,
    random_walker_solve,
    sl_loss,
    solve_pseudo_labels,
)
from potts_sl.potts import PottsKind, plane_sum, potts_sum, potts_sum_grad
from potts_sl.solver import SolverConfig
from helpers import random_interior_field


def pair_scan_oracle(image, cfg):
    """O(N^2) enumeration of every in-window pair, straight off the kernel
    definition. Returns {(i, j): w} with i < j."""
    h, w = image.height, image.width
    img = image.as_float()
    edges = {}
    for i in range(h * w):
        yi, xi = divmod(i, w)
        for j in range(i + 1, h * w):
            yj, xj = divmod(j, w)
            dy, dx = abs(yi - yj), abs(xi - xj)
            if cfg.kind is NeighborhoodKind.NN4:
                if dy + dx != 1:
                    continue
            elif max(dy, dx) > cfg.radius:
                continue
            diff = img[yi, xi] - img[yj, xj]
            weight = math.exp(-float(diff @ diff) / (2.0 * cfg.color_bandwidth**2))
            if cfg.kind is NeighborhoodKind.DENSE_TRUNCATED:
                weight *= math.exp(
                    -(dy * dy + dx * dx) / (2.0 * cfg.spatial_bandwidth**2)
                )
            edges[(i, j)] = weight
    return edges


def as_dict(graph):
    return {(int(i), int(j)): float(w) for i, j, w in zip(graph.ei, graph.ej, graph.w)}


class TestBuildGraph:
    def test_constant_image_nn4(self):
        image = Image(np.full((2, 2, 3), 77, dtype=np.uint8))
        graph = build_graph(image, AffinityConfig())
        assert graph.nedges == 4
        np.testing.assert_allclose(graph.w, 1.0)

    def test_kernel_value_single_edge(self):
        # neighboring pixels differing by (9, 0, 0) at bandwidth 9: e^{-1/2}
        img = np.zeros((1, 2, 3))
        img[0, 1, 0] = 9
        graph = build_graph(Image(img), AffinityConfig(color_bandwidth=9.0))
        assert graph.nedges == 1
        assert abs(graph.w[0] - math.exp(-0.5)) < 1e-12

    @pytest.mark.parametrize("h,w", [(1, 1), (2, 2), (3, 5), (7, 4)])
    def test_nn4_edge_count(self, h, w):
        rng = np.random.default_rng(h * 10 + w)
        image = Image(rng.integers(0, 256, size=(h, w, 3)))
        graph = build_graph(image, AffinityConfig())
        assert graph.nedges == 2 * h * w - h - w

    def test_sparse_window_against_pair_scan(self):
        rng = np.random.default_rng(5)
        image = Image(rng.integers(0, 256, size=(3, 3, 3)))
        cfg = AffinityConfig(kind=NeighborhoodKind.SPARSE_WINDOW, radius=2)
        graph = build_graph(image, cfg)
        oracle = pair_scan_oracle(image, cfg)
        got = as_dict(graph)
        assert set(got) == set(oracle)
        for key in oracle:
            assert abs(got[key] - oracle[key]) < 1e-12

    @pytest.mark.parametrize("kind,radius,gamma", [
        (NeighborhoodKind.NN4, 1, None),
        (NeighborhoodKind.SPARSE_WINDOW, 1, None),
        (NeighborhoodKind.SPARSE_WINDOW, 3, None),
        (NeighborhoodKind.DENSE_TRUNCATED, 2, 1.5),
        (NeighborhoodKind.DENSE_TRUNCATED, 4, 100.0),
    ])
    def test_all_kinds_match_pair_scan_small_images(self, kind, radius, gamma):
        rng = np.random.default_rng(11)
        for h, w in [(2, 2), (4, 3), (8, 8)]:
            image = Image(rng.integers(0, 256, size=(h, w, 3)))
            cfg = AffinityConfig(kind=kind, radius=radius, spatial_bandwidth=gamma,
                                 color_bandwidth=7.0)
            graph = build_graph(image, cfg)
            got = as_dict(graph)
            oracle = pair_scan_oracle(image, cfg)
            assert set(got) == set(oracle)
            for key in oracle:
                assert abs(got[key] - oracle[key]) < 1e-12
            # the recorded grid blocks, read in order, are the edge list
            assert graph.grid == (h, w)
            idx = np.arange(h * w).reshape(h, w)
            assert np.array_equal(
                np.concatenate([idx[src].ravel() for src, _ in graph.blocks]), graph.ei)
            assert np.array_equal(
                np.concatenate([idx[dst].ravel() for _, dst in graph.blocks]), graph.ej)

    @pytest.mark.parametrize("kind,gamma", [
        (NeighborhoodKind.SPARSE_WINDOW, None),
        (NeighborhoodKind.DENSE_TRUNCATED, 1.5),
    ])
    @pytest.mark.parametrize("h,w", [(1, 1), (1, 5), (5, 1), (3, 7), (8, 8)])
    def test_huge_radius_is_the_image_extent(self, kind, gamma, h, w):
        # offsets past the image join no pixels; a radius of 10^9 must build
        # the same graph as the largest radius that still reaches a pixel
        image = Image(np.random.default_rng(h * 10 + w).integers(0, 256, size=(h, w, 3)))
        cfg = lambda radius: AffinityConfig(kind=kind, radius=radius, spatial_bandwidth=gamma)
        huge = build_graph(image, cfg(10**9))
        whole = build_graph(image, cfg(max(h - 1, w - 1, 1)))
        for name in ("ei", "ej", "w"):
            assert np.array_equal(getattr(huge, name), getattr(whole, name))
        assert huge.blocks == whole.blocks

    def test_channel_permutation_invariance(self):
        rng = np.random.default_rng(6)
        raw = rng.integers(0, 256, size=(4, 4, 3))
        cfg = AffinityConfig(color_bandwidth=5.0)
        base = build_graph(Image(raw), cfg)
        permuted = build_graph(Image(raw[:, :, [2, 0, 1]]), cfg)
        np.testing.assert_allclose(base.w, permuted.w, atol=1e-15)

    def test_edges_are_canonical(self):
        rng = np.random.default_rng(7)
        image = Image(rng.integers(0, 256, size=(5, 6, 3)))
        g = build_graph(image, AffinityConfig(kind=NeighborhoodKind.SPARSE_WINDOW, radius=2))
        assert np.all(g.ei < g.ej)
        pairs = set(zip(g.ei.tolist(), g.ej.tolist()))
        assert len(pairs) == g.nedges  # each undirected edge stored once


class TestValidation:
    def test_zero_size_image_rejected(self):
        with pytest.raises(DataError):
            Image(np.zeros((0, 3, 3)))

    def test_image_channel_range(self):
        with pytest.raises(DataError):
            Image(np.full((1, 1, 3), 256.0))
        with pytest.raises(DataError):
            Image(np.full((1, 1, 3), -1.0))

    def test_config_validation(self):
        with pytest.raises(DataError):
            AffinityConfig(color_bandwidth=0.0)
        with pytest.raises(DataError):
            AffinityConfig(color_bandwidth=-3.0)
        with pytest.raises(DataError):
            AffinityConfig(radius=0)
        with pytest.raises(DataError):
            AffinityConfig(kind=NeighborhoodKind.DENSE_TRUNCATED, radius=2)

    @pytest.mark.parametrize("bandwidth", [1e200, 1e155, 1e-163, 1e-300, float("inf"), float("nan")])
    def test_bandwidth_whose_kernel_denominator_is_not_finite_positive(self, bandwidth):
        # 2 * bw**2 overflows or underflows: the kernel would be 0/0 or a
        # Python OverflowError inside build_graph
        with pytest.raises(DataError, match="color_bandwidth"):
            AffinityConfig(color_bandwidth=bandwidth)
        with pytest.raises(DataError, match="spatial_bandwidth"):
            AffinityConfig(kind=NeighborhoodKind.DENSE_TRUNCATED, radius=2,
                           spatial_bandwidth=bandwidth)

    @pytest.mark.parametrize("bandwidth", [1e153, 1e-161])
    def test_extreme_bandwidths_that_fit_build_a_graph(self, bandwidth):
        rng = np.random.default_rng(0)
        image = Image(rng.integers(0, 256, size=(4, 5, 3)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            graph = build_graph(image, AffinityConfig(color_bandwidth=bandwidth))
        assert np.all(graph.w == (1.0 if bandwidth > 1 else 0.0))

    def test_graph_invariants_enforced(self):
        with pytest.raises(DataError):
            AffinityGraph(npixels=2, ei=[1], ej=[0], w=[1.0])  # i >= j
        with pytest.raises(DataError):
            AffinityGraph(npixels=2, ei=[0], ej=[1], w=[-1.0])
        with pytest.raises(DataError):
            AffinityGraph(npixels=2, ei=[0], ej=[2], w=[1.0])
        block = ((slice(0, 1), slice(0, 1)), (slice(0, 1), slice(1, 2)))
        AffinityGraph(npixels=2, ei=[0], ej=[1], w=[1.0], grid=(1, 2), blocks=(block,))
        with pytest.raises(DataError):  # grid does not cover the pixels
            AffinityGraph(npixels=2, ei=[0], ej=[1], w=[1.0], grid=(2, 2), blocks=(block,))
        with pytest.raises(DataError):  # block areas do not sum to the edge count
            AffinityGraph(npixels=2, ei=[0], ej=[1], w=[1.0], grid=(1, 2), blocks=(block, block))
        with pytest.raises(DataError):  # blocks list edge 0-1, the edge list says 0-3
            AffinityGraph(npixels=4, ei=[0], ej=[3], w=[1.0], grid=(2, 2), blocks=(block,))
        with pytest.raises(DataError):  # same pixel ids, but a 1x2 row against a 2x1 column
            AffinityGraph(npixels=4, ei=[0, 1], ej=[1, 3], w=[1.0, 1.0], grid=(2, 2),
                          blocks=(((slice(0, 1), slice(0, 2)), (slice(0, 2), slice(1, 2))),))
        with pytest.raises(DataError):  # target slice runs past the grid edge
            AffinityGraph(npixels=2, ei=[0], ej=[1], w=[1.0], grid=(1, 2),
                          blocks=(((slice(0, 1), slice(0, 2)), (slice(0, 1), slice(1, 3))),))
        with pytest.raises(DataError):  # an integer index is not a slice rectangle
            AffinityGraph(npixels=2, ei=[0], ej=[1], w=[1.0], grid=(1, 2),
                          blocks=(((0, slice(0, 1)), (0, slice(1, 2))),))


class TestBlockNormalization:
    """Grid blocks are stored as unit-step slices with explicit bounds."""

    # (src, dst) rectangles of a 4x5 grid for the offsets (0, 1), (1, 0) and
    # (1, -1), written with open and negative bounds
    OPEN = (
        ((slice(None), slice(None, -1)), (slice(None), slice(1, None))),
        ((slice(None, -1), slice(None)), (slice(1, None), slice(-5, 5))),
        ((slice(0, -1), slice(1, None)), (slice(-3, 4), slice(None, 4))),
    )
    EXPLICIT = (
        ((slice(0, 4), slice(0, 4)), (slice(0, 4), slice(1, 5))),
        ((slice(0, 3), slice(0, 5)), (slice(1, 4), slice(0, 5))),
        ((slice(0, 3), slice(1, 5)), (slice(1, 4), slice(0, 4))),
    )

    @pytest.mark.parametrize("kind", list(PottsKind))
    def test_open_and_negative_bounds_match_the_edges_without_layout(self, kind):
        rng = np.random.default_rng(3)
        idx = np.arange(20).reshape(4, 5)
        ei = np.concatenate([idx[src].ravel() for src, _ in self.OPEN])
        ej = np.concatenate([idx[dst].ravel() for _, dst in self.OPEN])
        w = rng.uniform(0.1, 1.0, size=ei.size)
        graph = AffinityGraph(20, ei, ej, w, grid=(4, 5), blocks=self.OPEN)
        assert graph.blocks == self.EXPLICIT
        y = rng.dirichlet(np.ones(3), size=20)
        y[::3] = np.eye(3)[rng.integers(0, 3, size=7)]
        planes = np.ascontiguousarray(y.T)
        results = []
        for g in (graph, AffinityGraph(20, ei, ej, w)):
            grad = np.zeros_like(planes)
            value, div = plane_sum(kind, planes, g, grad, 0.7)
            results.append((value, div, grad))
        (v0, d0, g0), (v1, d1, g1) = results
        assert v0 == v1 and np.array_equal(d0, d1) and g0.tobytes() == g1.tobytes()

    def test_empty_blocks_are_dropped(self):
        empty = ((slice(0, 0), slice(0, 2)), (slice(1, 1), slice(0, 2)))
        block = ((slice(0, 1), slice(0, 1)), (slice(0, 1), slice(1, 2)))
        graph = AffinityGraph(npixels=2, ei=[0], ej=[1], w=[1.0], grid=(1, 2),
                              blocks=(empty, block, empty))
        assert graph.blocks == (block,)

    @pytest.mark.parametrize("cols, match", [
        ((slice(0, 4, 2), slice(1, 4, 2)), "unit steps"),
        ((slice(0, 4, -1), slice(1, 4, -1)), "unit steps"),
        ((slice(0, 4, 0), slice(1, 4, 0)), "not a rectangle"),
        ((slice(0.0, 3), slice(1, 4)), "not a rectangle"),
    ])
    def test_slices_that_are_not_unit_step_bounds_are_refused(self, cols, match):
        blocks = (((slice(0, 1), cols[0]), (slice(0, 1), cols[1])),)
        with pytest.raises(DataError, match=match):
            AffinityGraph(npixels=4, ei=[0, 2], ej=[1, 3], w=[1.0, 1.0], grid=(1, 4), blocks=blocks)


# Every library entry point that takes a field and a graph, called on
# (sigma, scribbles, graph).
FIELD_GRAPH_CALLS = {
    "solve_pseudo_labels": lambda s, scr, g: solve_pseudo_labels(
        s, None, scr, g, LossConfig(), SolverConfig(steps=2)),
    "random_walker_solve": lambda s, scr, g: random_walker_solve(s, scr, g, 0.3, 6.0),
    "pseudo_label_objective": lambda s, scr, g: pseudo_label_objective(s, s, scr, g, LossConfig()),
    "potts_sum": lambda s, scr, g: potts_sum(PottsKind.Q, s, g),
    "potts_sum_grad": lambda s, scr, g: potts_sum_grad(PottsKind.Q, s, g),
    "sl_loss": lambda s, scr, g: sl_loss(s, s, scr, g, LossConfig()),
}


class TestCheckCovers:
    """A graph built for a 6x4 image takes only 6x4 fields, not 4x6 ones."""

    @staticmethod
    def field(height, width):
        rng = np.random.default_rng(0)
        unlabeled = ScribbleField(np.zeros((height, width), dtype=np.int64))
        return random_interior_field(rng, height, width, 3), unlabeled

    def test_check_covers(self):
        rng = np.random.default_rng(1)
        graph = build_graph(Image(rng.integers(0, 256, size=(6, 4, 3))), AffinityConfig())
        graph.check_covers(6, 4)
        for shape in ((4, 6), (5, 5), (3, 8)):
            with pytest.raises(DataError, match="6x4 grid"):
                graph.check_covers(*shape)
        chain = AffinityGraph(npixels=24, ei=np.arange(23), ej=np.arange(1, 24), w=np.ones(23))
        chain.check_covers(4, 6)
        chain.check_covers(24, 1)
        with pytest.raises(DataError, match="24 pixels"):
            chain.check_covers(5, 5)

    @pytest.mark.parametrize("name", sorted(FIELD_GRAPH_CALLS))
    def test_transposed_field_rejected(self, name):
        rng = np.random.default_rng(2)
        graph = build_graph(Image(rng.integers(0, 256, size=(6, 4, 3))), AffinityConfig())
        sigma, scribbles = self.field(4, 6)
        with pytest.raises(DataError, match="6x4 grid, field is 4x6"):
            FIELD_GRAPH_CALLS[name](sigma, scribbles, graph)

    @pytest.mark.parametrize("name", sorted(FIELD_GRAPH_CALLS))
    def test_graph_without_layout_checks_pixel_count_only(self, name):
        chain = AffinityGraph(npixels=24, ei=np.arange(23), ej=np.arange(1, 24), w=np.ones(23))
        sigma, scribbles = self.field(4, 6)
        FIELD_GRAPH_CALLS[name](sigma, scribbles, chain)
