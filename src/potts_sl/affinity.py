"""Neighborhood systems over an image grid with intensity-edge affinities.

Edges carry Gaussian color affinities w_ij = exp(-||I_i - I_j||^2 / (2 beta^2));
truncated dense neighborhoods additionally apply a spatial Gaussian factor.
Pixel ids are row-major, and each undirected edge is stored once with i < j,
so edge order is reproducible.

Grid graphs list their edges one block per grid offset (dy, dx): the pixel
pairs (Y[src], Y[dst]) of two equal-shaped rectangles of the (H, W) grid,
read row-major. build_graph records that layout on the graph, so the
pairwise terms can walk shifted slices of an (H, W, K) field instead of
gathering rows by edge.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .errors import DataError


@dataclass
class Image:
    """H x W RGB image, channels in 0..255."""

    data: np.ndarray

    def __post_init__(self):
        a = np.ascontiguousarray(np.asarray(self.data))
        if a.ndim != 3 or a.shape[2] != 3 or a.shape[0] < 1 or a.shape[1] < 1:
            raise DataError(f"image must be (H, W, 3), got shape {a.shape}")
        if np.issubdtype(a.dtype, np.floating):
            if not np.all(np.isfinite(a)):
                raise DataError("image has non-finite channels")
            if a.min() < 0 or a.max() > 255:
                raise DataError("image channels must lie in [0, 255]")
            a = np.rint(a).astype(np.uint8)
        elif np.issubdtype(a.dtype, np.integer):
            if a.min() < 0 or a.max() > 255:
                raise DataError("image channels must lie in [0, 255]")
            a = a.astype(np.uint8)
        else:
            raise DataError("image must hold numbers")
        self.data = a

    @property
    def height(self) -> int:
        return self.data.shape[0]

    @property
    def width(self) -> int:
        return self.data.shape[1]

    @property
    def npixels(self) -> int:
        return self.data.shape[0] * self.data.shape[1]

    def as_float(self) -> np.ndarray:
        return self.data.astype(np.float64)


class NeighborhoodKind(enum.Enum):
    NN4 = "nn4"
    SPARSE_WINDOW = "sparse"
    DENSE_TRUNCATED = "dense"


@dataclass
class AffinityConfig:
    """Neighborhood choice plus kernel bandwidths.

    kind NN4 ignores radius; SPARSE_WINDOW connects all pairs within Chebyshev
    distance `radius` with color affinities only; DENSE_TRUNCATED does the same
    but multiplies in a spatial Gaussian with bandwidth `spatial_bandwidth`.
    """

    kind: NeighborhoodKind = NeighborhoodKind.NN4
    color_bandwidth: float = 9.0
    radius: int = 1
    spatial_bandwidth: float | None = None

    def __post_init__(self):
        if not isinstance(self.kind, NeighborhoodKind):
            raise DataError(f"unknown neighborhood kind {self.kind!r}")
        _check_bandwidth("color_bandwidth", self.color_bandwidth)
        if int(self.radius) != self.radius or self.radius < 1:
            raise DataError("radius must be an integer >= 1")
        self.radius = int(self.radius)
        if self.kind is NeighborhoodKind.DENSE_TRUNCATED:
            if self.spatial_bandwidth is None:
                raise DataError("dense neighborhoods need a positive spatial_bandwidth")
            _check_bandwidth("spatial_bandwidth", self.spatial_bandwidth)


def _check_bandwidth(name, value):
    """Refuse a kernel bandwidth unless it is positive and its Gaussian
    denominator 2 * value**2 is a positive finite float (roughly
    1e-162 < value < 1e154)."""
    with np.errstate(over="ignore", under="ignore"):
        denominator = 2.0 * np.float64(value) ** 2
    if not (value > 0 and np.isfinite(denominator) and denominator > 0):
        raise DataError(f"{name} must be positive with 2 * {name}**2 a positive "
                        f"finite float, got {value!r}")


@dataclass
class AffinityGraph:
    """Undirected weighted edge set over row-major pixel ids.

    Arrays ei/ej/w hold one row per edge with ei < ej, no self-loops, and
    finite nonnegative weights.

    Optional grid layout: `grid` is the image shape (H, W) and `blocks` holds
    one (src, dst) pair of 2-D slice tuples per contiguous run of edges, in
    edge order. Block b's edges are the pixel pairs of the rectangles src and
    dst of the (H, W) grid, row-major, and its weights are the next
    src-area entries of w. Hand-built graphs have no layout (grid is None).
    """

    npixels: int
    ei: np.ndarray
    ej: np.ndarray
    w: np.ndarray
    kind: NeighborhoodKind = NeighborhoodKind.NN4
    grid: tuple[int, int] | None = None
    blocks: tuple = ()

    def __post_init__(self):
        self.ei = np.ascontiguousarray(np.asarray(self.ei, dtype=np.int64))
        self.ej = np.ascontiguousarray(np.asarray(self.ej, dtype=np.int64))
        self.w = np.ascontiguousarray(np.asarray(self.w, dtype=np.float64))
        if not (self.ei.shape == self.ej.shape == self.w.shape) or self.ei.ndim != 1:
            raise DataError("edge arrays must be 1-D and equal length")
        if self.npixels < 1:
            raise DataError("graph needs at least one pixel")
        if self.ei.size:
            if self.ei.min() < 0 or self.ej.max() >= self.npixels:
                raise DataError("edge endpoint out of range")
            if np.any(self.ei >= self.ej):
                raise DataError("edges must satisfy i < j (no self-loops, stored once)")
            if not np.all(np.isfinite(self.w)) or self.w.min() < 0:
                raise DataError("edge weights must be finite and >= 0")
        if self.grid is not None:
            h, w = self.grid
            if h < 1 or w < 1 or h * w != self.npixels:
                raise DataError(f"grid {h}x{w} does not cover {self.npixels} pixels")
            idx = np.arange(self.npixels, dtype=np.int64).reshape(h, w)
            for src, dst in self.blocks:
                if not all(isinstance(s, slice) for s in (*src, *dst)) or (
                    idx[src].shape != idx[dst].shape
                ):
                    raise DataError("grid blocks must pair equal-shaped slice rectangles")
            none = [np.zeros(0, dtype=np.int64)]
            src_ids = np.concatenate(none + [idx[src].ravel() for src, _ in self.blocks])
            dst_ids = np.concatenate(none + [idx[dst].ravel() for _, dst in self.blocks])
            if not (np.array_equal(src_ids, self.ei) and np.array_equal(dst_ids, self.ej)):
                raise DataError("grid blocks do not list the edges ei/ej in order")

    @property
    def nedges(self) -> int:
        return self.ei.size

    def check_covers(self, height: int, width: int):
        """Raise DataError unless this graph is over an H x W field: the pixel
        counts agree and a recorded grid layout is (H, W)."""
        if self.npixels != height * width or (
            self.grid is not None and tuple(self.grid) != (height, width)
        ):
            layout = f"a {self.grid[0]}x{self.grid[1]} grid" if self.grid else f"{self.npixels} pixels"
            raise DataError(f"graph covers {layout}, field is {height}x{width}")

    def degrees(self) -> np.ndarray:
        """Weighted degree per pixel."""
        d = np.zeros(self.npixels)
        np.add.at(d, self.ei, self.w)
        np.add.at(d, self.ej, self.w)
        return d


def _forward_offsets(radius: int, height: int, width: int):
    """Offsets (dy, dx) covering each in-window unordered pair exactly once.

    Offsets that reach past the image (dy >= height or |dx| >= width) join no
    pixels, so they are left out and a huge radius costs no more than the
    image's own extent.
    """
    ry, rx = min(radius, height - 1), min(radius, width - 1)
    offsets = []
    for dy in range(0, ry + 1):
        for dx in range(-rx, rx + 1):
            if dy == 0 and dx <= 0:
                continue
            offsets.append((dy, dx))
    return offsets


def build_graph(image: Image, cfg: AffinityConfig) -> AffinityGraph:
    """Build the neighborhood system of cfg over the image grid.

    NN4 yields the 4-connected grid (2HW - H - W edges). Window kinds connect
    every pixel pair within Chebyshev distance cfg.radius. Weights are the
    Gaussian color kernel, times the spatial Gaussian for DENSE_TRUNCATED.
    """
    h, w = image.height, image.width
    img = image.as_float()
    beta2 = 2.0 * cfg.color_bandwidth ** 2

    if cfg.kind is NeighborhoodKind.NN4:
        offsets = [(0, 1), (1, 0)]
    else:
        offsets = _forward_offsets(cfg.radius, h, w)

    idx = np.arange(h * w, dtype=np.int64).reshape(h, w)
    eis, ejs, ws, blocks = [], [], [], []
    for dy, dx in offsets:
        y0, y1 = 0, h - dy
        x0, x1 = max(0, -dx), min(w, w - dx)
        if y1 <= y0 or x1 <= x0:
            continue
        src = (slice(y0, y1), slice(x0, x1))
        dst = (slice(y0 + dy, y1 + dy), slice(x0 + dx, x1 + dx))
        diff2 = np.sum((img[src] - img[dst]) ** 2, axis=2)
        with np.errstate(over="ignore"):  # a tiny bandwidth gives exp(-inf) = 0
            weight = np.exp(-diff2 / beta2)
        if cfg.kind is NeighborhoodKind.DENSE_TRUNCATED:
            dist2 = float(dy * dy + dx * dx)
            weight = weight * np.exp(-dist2 / (2.0 * cfg.spatial_bandwidth ** 2))
        eis.append(idx[src].ravel())
        ejs.append(idx[dst].ravel())
        ws.append(weight.ravel())
        blocks.append((src, dst))

    if eis:
        ei = np.concatenate(eis)
        ej = np.concatenate(ejs)
        wv = np.concatenate(ws)
    else:
        ei = np.zeros(0, dtype=np.int64)
        ej = np.zeros(0, dtype=np.int64)
        wv = np.zeros(0)
    return AffinityGraph(
        npixels=h * w, ei=ei, ej=ej, w=wv, kind=cfg.kind, grid=(h, w), blocks=tuple(blocks)
    )
