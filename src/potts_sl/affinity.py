"""Neighborhood systems over an image grid with intensity-edge affinities.

Edges carry Gaussian color affinities w_ij = exp(-||I_i - I_j||^2 / (2 beta^2));
truncated dense neighborhoods additionally apply a spatial Gaussian factor.
Pixel ids are row-major, and each undirected edge is stored once with i < j,
so edge order is reproducible.

A graph built over an (H, W) grid lists its edges one rectangle per grid
offset (dy, dx): the pixel pairs (Y[src], Y[dst]) of two equal-shaped
rectangles, read row-major. The graph derives that layout from its edge
list, so the pairwise terms can walk each rectangle as one contiguous run
of row-major pixel ids instead of gathering rows by edge.

The Image type lives here too, with pixel_features, the FEATURE_DIM
features per pixel that a pixel model reads from an image.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np

from .errors import DataError, check_count
from .simplex import _Grid


@dataclass(eq=False)
class Image(_Grid):
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

    def as_float(self) -> np.ndarray:
        return self.data.astype(np.float64)


# Width of pixel_features: the features a pixel model of an image takes.
FEATURE_DIM = 5


def pixel_features(image: Image) -> np.ndarray:
    """(N, 5) features: RGB / 255 and (x / W, y / H) in row-major order."""
    h, w = image.height, image.width
    rgb = image.as_float().reshape(-1, 3) / 255.0
    rows, cols = np.mgrid[0:h, 0:w]
    return np.column_stack([rgb, cols.ravel() / w, rows.ravel() / h])


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
        self.radius = check_count("radius", self.radius)
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


@dataclass(eq=False)
class AffinityGraph:
    """Undirected weighted edge set over row-major pixel ids.

    Arrays ei/ej/w hold one row per edge with ei < ej, no self-loops, and
    finite nonnegative weights.

    A graph given `grid` = (H, W) derives `runs`: one (a, t, h, w) per
    stretch of edges with one grid offset, whose sources are the h x w
    rectangle of the grid from pixel a, read row-major, and whose targets
    are the same rectangle from pixel t. The stretches end wherever
    ej - ei or the row offset ej // W - ei // W changes, so an offset's
    rectangle must be listed whole: two same-offset rectangles side by side
    are refused with DataError, as is any stretch whose sources are not a
    rectangle. Hand-built graphs may have no layout (grid is None).

    Two graphs compare equal only if they are the same object.
    """

    npixels: int
    ei: np.ndarray
    ej: np.ndarray
    w: np.ndarray
    grid: tuple[int, int] | None = None
    runs: tuple = field(init=False, default=())

    def __post_init__(self):
        self.ei = np.ascontiguousarray(np.asarray(self.ei, dtype=np.int64))
        self.ej = np.ascontiguousarray(np.asarray(self.ej, dtype=np.int64))
        self.w = np.ascontiguousarray(np.asarray(self.w, dtype=np.float64))
        if not (self.ei.shape == self.ej.shape == self.w.shape) or self.ei.ndim != 1:
            raise DataError("edge arrays must be 1-D and equal length")
        self.npixels = check_count("npixels", self.npixels)
        if self.ei.size:
            if self.ei.min() < 0 or self.ej.max() >= self.npixels:
                raise DataError("edge endpoint out of range")
            if np.any(self.ei >= self.ej):
                raise DataError("edges must satisfy i < j (no self-loops, stored once)")
            if not np.all(np.isfinite(self.w)) or self.w.min() < 0:
                raise DataError("edge weights must be finite and >= 0")
        if self.grid is not None:
            if not (isinstance(self.grid, (tuple, list)) and len(self.grid) == 2):
                raise DataError(f"grid must be two integers >= 1, got {self.grid!r}")
            h, w = self.grid = tuple(check_count("grid", n) for n in self.grid)
            if h * w != self.npixels:
                raise DataError(f"grid {h}x{w} does not cover {self.npixels} pixels")
            self.runs = _grid_runs(self.ei, self.ej, w)

    @property
    def nedges(self) -> int:
        return self.ei.size

    def check_covers(self, height: int, width: int):
        """Raise DataError unless this graph is over an H x W field: the pixel
        counts agree and a recorded grid layout is (H, W)."""
        if self.npixels != height * width or self.grid not in (None, (height, width)):
            layout = f"a {self.grid[0]}x{self.grid[1]} grid" if self.grid else f"{self.npixels} pixels"
            raise DataError(f"graph covers {layout}, field is {height}x{width}")

    def degrees(self) -> np.ndarray:
        """Weighted degree per pixel."""
        d = np.zeros(self.npixels)
        np.add.at(d, self.ei, self.w)
        np.add.at(d, self.ej, self.w)
        return d


def _grid_runs(ei, ej, width):
    """(a, t, h, w) per stretch of constant grid offset of the edge list;
    DataError unless each stretch's sources are a row-major rectangle."""
    if not ei.size:
        return ()
    offset, rows = ej - ei, ej // width - ei // width
    cuts = np.flatnonzero((offset[1:] != offset[:-1]) | (rows[1:] != rows[:-1])) + 1
    runs = []
    for lo, hi in zip([0, *cuts.tolist()], [*cuts.tolist(), ei.size]):
        src, a = ei[lo:hi], int(ei[lo])
        breaks = np.flatnonzero(np.diff(src) != 1)
        w = min(int(breaks[0]) + 1 if breaks.size else hi - lo, width - a % width)
        h = (hi - lo) // w
        rectangle = a + width * np.arange(h)[:, None] + np.arange(w)
        if h * w != hi - lo or not np.array_equal(src, rectangle.ravel()):
            raise DataError("grid edges must list each offset's pixel pairs as one "
                            "row-major rectangle")
        runs.append((a, int(ej[lo]), h, w))
    return tuple(runs)


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
    eis, ejs, ws = [], [], []
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

    if eis:
        ei = np.concatenate(eis)
        ej = np.concatenate(ejs)
        wv = np.concatenate(ws)
    else:
        ei = np.zeros(0, dtype=np.int64)
        ej = np.zeros(0, dtype=np.int64)
        wv = np.zeros(0)
    return AffinityGraph(npixels=h * w, ei=ei, ej=ej, w=wv, grid=(h, w))
