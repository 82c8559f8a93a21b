"""Simplex-valued fields and the softmax/entropy/KL primitives.

A pixel state is a point on the K-class probability simplex. Grids of such
points serve both as classifier predictions and as (soft) pseudo-labels, so
all loss and solver modules build on the types here.

The fields hold (H, W, K) arrays, the layout of the files. The compute path
holds per-pixel arrays as (K, N) class planes, C-contiguous (the fields'
planes method), so a reduction over the classes is a numpy reduction over
axis 0 that adds whole contiguous planes in class order. (With one pixel,
N = 1, numpy reduces the K entries as one vector instead, pairwise from
K = 8.)
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DataError, InfiniteDivergenceError, LOG_CLAMP, SIMPLEX_TOL

# ProbField entries may dip this far below zero (iterative linear solvers
# produce O(1e-10) undershoot); anything worse is rejected.
_FIELD_NEG_TOL = 1e-9


def _as_prob_vector(probs) -> np.ndarray:
    """Validate and canonicalize one probability vector.

    Entries within SIMPLEX_TOL of the simplex are renormalized; anything
    further out is rejected rather than silently cleaned up.
    """
    p = np.asarray(probs, dtype=np.float64).copy()
    if p.ndim != 1 or p.size < 2:
        raise DataError(f"probability vector must be 1-D with K >= 2, got shape {p.shape}")
    if not np.all(np.isfinite(p)):
        raise DataError("probability vector has non-finite entries")
    if np.min(p) < -SIMPLEX_TOL:
        raise DataError(f"negative probability {np.min(p):g} below tolerance")
    np.clip(p, 0.0, None, out=p)
    s = p.sum()
    if abs(s - 1.0) > SIMPLEX_TOL:
        raise DataError(f"probabilities sum to {s:.9g}, not 1 within {SIMPLEX_TOL:g}")
    p /= s
    return p


def _pair_arrays(p, q):
    """(1, K) float rows of a pair of points; DataError unless p and q are
    1-D vectors of one length K >= 2."""
    a = np.asarray(p, dtype=np.float64)
    b = np.asarray(q, dtype=np.float64)
    if a.ndim != 1 or a.shape != b.shape or a.size < 2:
        raise DataError(f"a pair must be two K-vectors (K >= 2), got shapes {a.shape} and "
                        f"{b.shape}")
    return a[None], b[None]


@dataclass(eq=False)
class Distribution:
    """A point on the K-class probability simplex."""

    probs: np.ndarray

    def __post_init__(self):
        self.probs = _as_prob_vector(self.probs)

    @property
    def classes(self) -> int:
        return self.probs.size

    def __array__(self, dtype=None, copy=None):
        arr = self.probs
        return arr.astype(dtype) if dtype is not None else arr

    def __len__(self):
        return self.probs.size


class _Grid:
    """Shape of a per-pixel grid whose data is an (H, W, ...) array."""

    @property
    def height(self) -> int:
        return self.data.shape[0]

    @property
    def width(self) -> int:
        return self.data.shape[1]

    @property
    def npixels(self) -> int:
        return self.data.shape[0] * self.data.shape[1]


class _ClassGrid(_Grid):
    """A grid of K-vectors: data is an (H, W, K) float array."""

    @property
    def classes(self) -> int:
        return self.data.shape[2]

    def flat(self) -> np.ndarray:
        """(N, K) view in row-major pixel order."""
        return self.data.reshape(-1, self.data.shape[2])

    def planes(self) -> np.ndarray:
        """(K, N) class planes, C-contiguous: the layout of the compute path."""
        return np.ascontiguousarray(self.flat().T)


def _class_grid(data, what) -> np.ndarray:
    """data as a C-contiguous finite (H, W, K >= 2) float64 array with
    H, W >= 1; DataError naming what otherwise."""
    a = np.ascontiguousarray(np.asarray(data, dtype=np.float64))
    if a.ndim != 3 or a.shape[0] < 1 or a.shape[1] < 1 or a.shape[2] < 2:
        raise DataError(f"{what} must be (H, W, K>=2), got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise DataError(f"{what} has non-finite entries")
    return a


@dataclass(eq=False)
class ProbField(_ClassGrid):
    """H x W grid of simplex points, stored as an (H, W, K) float array.

    Validation checks every pixel against the simplex tolerance but keeps the
    stored values bit-for-bit as given (no renormalization), so fields written
    to and read back from disk round-trip exactly.
    """

    data: np.ndarray

    def __post_init__(self):
        a = _class_grid(self.data, "probability field")
        if a.min() < -_FIELD_NEG_TOL:
            raise DataError(f"probability field entry {a.min():g} below tolerance")
        sums = a.sum(axis=2)
        worst = np.max(np.abs(sums - 1.0))
        if worst > SIMPLEX_TOL:
            raise DataError(f"pixel probabilities sum off by {worst:.3g} (> {SIMPLEX_TOL:g})")
        self.data = a

    def at(self, row: int, col: int) -> Distribution:
        return Distribution(self.data[row, col])

    @classmethod
    def uniform(cls, height: int, width: int, classes: int) -> "ProbField":
        return cls(np.full((height, width, classes), 1.0 / classes))


@dataclass(eq=False)
class LogitField(_ClassGrid):
    """H x W grid of unconstrained K-vectors; softmax image is a ProbField."""

    data: np.ndarray

    def __post_init__(self):
        self.data = _class_grid(self.data, "logit field")


@dataclass(eq=False)
class ScribbleField(_Grid):
    """Per-pixel optional ground-truth class: 1..K labeled, 0 unlabeled."""

    data: np.ndarray

    def __post_init__(self):
        a = np.ascontiguousarray(np.asarray(self.data))
        if a.ndim != 2 or a.shape[0] < 1 or a.shape[1] < 1:
            raise DataError(f"scribble field must be 2-D, got shape {a.shape}")
        if not np.issubdtype(a.dtype, np.integer):
            raise DataError("scribble field must hold integers")
        if a.min() < 0:
            raise DataError("scribble classes must be >= 1 (0 means unlabeled)")
        self.data = a.astype(np.int64)

    def partition(self, height: int, width: int, classes: int, graph=None):
        """(scribbled, classes, free) on an H x W instance of K classes: the
        row-major int64 ids of the scribbled pixels, their 0-based classes,
        and the ids of the other pixels.

        DataError, in this order, unless the scribbles are H x W, graph (if
        given) covers an H x W field, and no scribble class exceeds K.
        """
        if (self.height, self.width) != (height, width):
            raise DataError(f"field is {height}x{width} but scribbles are "
                            f"{self.height}x{self.width}")
        if graph is not None:
            graph.check_covers(height, width)
        if self.max_class() > classes:
            raise DataError(f"scribble class {self.max_class()} exceeds K={classes}")
        lab = self.data.ravel()
        scribbled = np.flatnonzero(lab)
        return scribbled, lab[scribbled] - 1, np.flatnonzero(lab == 0)

    def max_class(self) -> int:
        return int(self.data.max())

    @classmethod
    def empty(cls, height: int, width: int) -> "ScribbleField":
        return cls(np.zeros((height, width), dtype=np.int64))


# ---------------------------------------------------------------------------
# primitives


def softmax(logits) -> Distribution:
    """Map a length-K logit vector to the simplex.

    The max is subtracted before exponentiation, so the result is finite for
    any finite input and invariant to adding a constant to all logits.
    """
    z = np.asarray(logits, dtype=np.float64)
    if not np.all(np.isfinite(z)):
        raise DataError("softmax requires finite logits")
    e = np.exp(z - z.max())
    return Distribution(e / e.sum())


def _row_dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Dot product over the class (last) axis of two class-last arrays.

    Sums the even and the odd classes in two lanes, each adding its classes
    in order to 0.0, and adds the odd lane to the even one. Each lane is an
    einsum over a strided class slice, which numpy adds in order whatever
    the memory layout, so class-last views of (K, ...) planes give the same
    result as contiguous rows, and run faster: each class step is a whole
    contiguous plane. tests/test_simplex.py checks that order bit for bit
    against explicit lane sums. On numpy 2.4 (x86-64, AVX-512) it is also
    the order of np.einsum("...k,...k->...") on contiguous rows of K < 8,
    so the two agree exactly there; from K = 8 that einsum unrolls further
    and the two differ by rounding. Another numpy or SIMD width may order
    the plain einsum otherwise.
    """
    return (np.einsum("...k,...k->...", a[..., 0::2], b[..., 0::2])
            + np.einsum("...k,...k->...", a[..., 1::2], b[..., 1::2]))


def softmax_rows(logits: np.ndarray) -> np.ndarray:
    """Softmax of each pixel's logit vector; logits are (K, N) class planes."""
    e = np.exp(logits - logits.max(axis=0))
    return e / e.sum(axis=0)


def softmax_backward(p: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Chain rule through softmax_rows: logit gradient of output gradient g.

    p and g are (K, N) class planes. Each pixel's column is
    (diag(p) - p p^T) g = p * (g - sum_k p g), zero at one-hot p.
    """
    return p * (g - (p * g).sum(axis=0))


def entropy(p) -> float:
    """Shannon entropy in nats; zero-probability terms contribute 0."""
    q = np.asarray(p, dtype=np.float64)
    return float(-np.sum(np.where(q > 0.0, q * np.log(np.maximum(q, LOG_CLAMP)), 0.0)))


def entropy_rows(p: np.ndarray) -> np.ndarray:
    """Entropy of each pixel of (K, N) class planes."""
    return -np.sum(np.where(p > 0.0, p * np.log(np.maximum(p, LOG_CLAMP)), 0.0), axis=0)


def kl(p, q) -> float:
    """KL divergence KL(p || q) in nats.

    Raises InfiniteDivergenceError when q lacks support somewhere p has mass;
    an infinite divergence is an error to surface, not a float to propagate.
    """
    a = np.asarray(p, dtype=np.float64)
    b = np.asarray(q, dtype=np.float64)
    if a.shape != b.shape:
        raise DataError(f"kl shape mismatch: {a.shape} vs {b.shape}")
    support = a > 0.0
    if np.any(b[support] <= 0.0):
        raise InfiniteDivergenceError("kl(p, q) is infinite: q = 0 where p > 0")
    ratio = np.log(a[support]) - np.log(b[support])
    return float(np.sum(a[support] * ratio))


def one_hot(k: int, classes: int) -> Distribution:
    """One-hot distribution for class k (1-based)."""
    if not 1 <= k <= classes:
        raise DataError(f"class {k} out of range 1..{classes}")
    p = np.zeros(classes)
    p[k - 1] = 1.0
    return Distribution(p)


def one_hot_rows(labels: np.ndarray, classes: int) -> np.ndarray:
    """(n, K) one-hot rows for an array of 1-based class indices."""
    lab = np.asarray(labels, dtype=np.int64)
    if lab.size and (lab.min() < 1 or lab.max() > classes):
        raise DataError(f"class index out of range 1..{classes}")
    out = np.zeros((lab.size, classes))
    out[np.arange(lab.size), lab - 1] = 1.0
    return out


def argmax_decode(field: ProbField) -> np.ndarray:
    """Per-pixel most probable class (1-based); ties go to the smallest index."""
    return np.argmax(field.data, axis=2).astype(np.int64) + 1
