"""Seeded generators for desk-scale synthetic instances.

Everything here is deterministic given the seed, so experiments and the
acceptance suite reproduce bit-for-bit. Only smooth_prob_field needs scipy;
it imports scipy.ndimage inside the call, so importing this module (which
the trainer does) loads no scipy.
"""

from __future__ import annotations

import numpy as np

from .affinity import Image
from .simplex import LogitField, ProbField, ScribbleField, softmax_rows

# Distinct region colors for generated images (kept apart so affinity edges
# are sharp at desk-scale color bandwidths).
_REGION_COLORS = np.array(
    [
        [60, 90, 190],
        [200, 140, 60],
        [80, 180, 90],
        [180, 70, 150],
        [230, 210, 80],
    ],
    dtype=np.float64,
)


# Samples per blob split, blob dimensions and the centers' circumradius; the
# half-width of the Voronoi images' uniform color noise; the standard
# deviation of smooth_prob_field's logits.
BLOB_SAMPLES = 600
BLOB_DIM = 32
BLOB_SEPARATION = 3.0
VORONOI_NOISE = 2.0
FIELD_SHARPNESS = 2.0


def gaussian_blobs_dataset(seed: int):
    """Three Gaussian blobs with unit noise in BLOB_DIM dimensions.

    Blob centers form an equilateral triangle of circumradius
    BLOB_SEPARATION in the first two coordinates; the remaining coordinates
    carry pure noise. Returns (X_train, labels_train, X_test, labels_test),
    BLOB_SAMPLES samples each, with 1-based labels balanced across classes.
    """
    rng = np.random.default_rng(seed)
    angles = np.array([0.5, 0.5 + 2.0 / 3.0, 0.5 + 4.0 / 3.0]) * np.pi
    centers = np.zeros((3, BLOB_DIM))
    centers[:, 0] = BLOB_SEPARATION * np.cos(angles)
    centers[:, 1] = BLOB_SEPARATION * np.sin(angles)
    labels = np.repeat(np.arange(1, 4), BLOB_SAMPLES // 3)
    x_train, x_test = (rng.standard_normal((labels.size, BLOB_DIM)) + centers[labels - 1]
                       for _ in range(2))
    return x_train, labels, x_test, labels.copy()


def _voronoi_owner(sites, height: int, width: int) -> np.ndarray:
    """(height, width) index of the nearest of the (row, col) sites at each pixel."""
    rows, cols = np.mgrid[0:height, 0:width]
    d2 = (rows[..., None] - sites[:, 0]) ** 2 + (cols[..., None] - sites[:, 1]) ** 2
    return np.argmin(d2, axis=2)


def voronoi_image(rng: np.random.Generator, height: int, width: int, regions: int) -> Image:
    """Piecewise near-constant color image from random Voronoi cells, with
    uniform noise of half-width VORONOI_NOISE."""
    sites = rng.uniform(0, 1, size=(regions, 2)) * [height, width]
    owner = _voronoi_owner(sites, height, width)
    colors = _REGION_COLORS[np.arange(regions) % len(_REGION_COLORS)]
    img = colors[owner] + rng.uniform(-VORONOI_NOISE, VORONOI_NOISE, size=(height, width, 3))
    return Image(np.clip(img, 0, 255))


def _softmax_field(logits: np.ndarray) -> ProbField:
    """Softmax of an (H, W, K) logit array at each pixel."""
    return ProbField(softmax_rows(LogitField(logits).planes()).T.reshape(logits.shape))


def smooth_prob_field(rng: np.random.Generator, height: int, width: int, classes: int) -> ProbField:
    """Spatially smooth random field: softmax of blurred white-noise logits,
    scaled to standard deviation FIELD_SHARPNESS."""
    from scipy.ndimage import gaussian_filter

    logits = rng.standard_normal((height, width, classes))
    for c in range(classes):
        logits[:, :, c] = gaussian_filter(logits[:, :, c], sigma=2.0, mode="nearest")
    return _softmax_field(FIELD_SHARPNESS * logits / logits.std())


def sparse_scribbles(
    rng: np.random.Generator, height: int, width: int, classes: int, per_class: int
) -> ScribbleField:
    """Random scribble points, `per_class` pixels for each class, no overlap."""
    data = np.zeros((height, width), dtype=np.int64)
    order = rng.permutation(height * width)
    take = order[: per_class * classes]
    labels = np.repeat(np.arange(1, classes + 1), per_class)
    data.ravel()[take] = labels
    return ScribbleField(data)


def solver_oracle_instance(seed: int, height: int = 16, width: int = 16, classes: int = 3):
    """(sigma, scribbles, image) for comparing the solver with the exact
    quadratic oracle.

    Mimics the situation the gradient solver is meant for: a Voronoi region
    image, predictions = softmax of noisy logits peaked at each pixel's true
    region class (as a pretrained classifier would produce), and a few
    correctly labeled scribble points per class. The peak strength is kept
    moderate so the quadratic optimum stays interior and is reachable within
    the default step budget.
    """
    rng = np.random.default_rng(seed)
    sites = rng.uniform(0, 1, size=(2 * classes, 2)) * [height, width]
    owner = _voronoi_owner(sites, height, width)
    cls = owner % classes + 1
    img = _REGION_COLORS[owner % len(_REGION_COLORS)]
    img = img + rng.uniform(-2, 2, size=(height, width, 3))
    image = Image(np.clip(img, 0, 255))

    logits = 1.5 * np.eye(classes)[cls - 1]
    logits = logits + 0.5 * rng.standard_normal((height, width, classes))
    sigma = _softmax_field(logits)

    data = np.zeros((height, width), dtype=np.int64)
    pick = rng.permutation(height * width)[: 3 * classes]
    data.ravel()[pick] = cls.ravel()[pick]
    return sigma, ScribbleField(data), image


def tightness_instance(seed: int, height: int = 3, width: int = 3, classes: int = 2):
    """(sigma, image) for the discrete-tightness experiment: interior random
    predictions and a random-color image giving spread-out edge weights."""
    rng = np.random.default_rng(seed)
    sigma = ProbField(rng.dirichlet(np.ones(classes), size=(height, width)))
    image = Image(rng.integers(0, 255, size=(height, width, 3)))
    return sigma, image


def two_region_instance(seed: int = 7, height: int = 32, width: int = 32):
    """Disk-shaped foreground on a flat background, with ~3% scribbles.

    The disk's left half is colored base + d and its right half base - d,
    while the background sits exactly at the midpoint color base. No affine
    function of (RGB, x, y) can then separate the classes (the background
    color is a convex combination of the foreground colors at every
    position), so a linear pixel model cannot recover the disk from
    scribbles alone. The color steps at the disk boundary remain large, so
    affinity-graph propagation can. Returns (image, scribbles, gt_labels)
    with gt in {1, 2}.
    """
    rng = np.random.default_rng(seed)
    rows, cols = np.mgrid[0:height, 0:width]
    cy, cx = height * 0.52, width * 0.46
    radius = 0.30 * min(height, width)
    dist = np.sqrt((rows - cy) ** 2 + (cols - cx) ** 2)
    inside = dist <= radius
    gt = np.where(inside, 2, 1).astype(np.int64)

    base = np.array([120.0, 130.0, 125.0])
    d = np.array([28.0, -22.0, 18.0])
    sign = np.where(cols < cx, 1.0, -1.0)
    img = np.broadcast_to(base, (height, width, 3)).copy()
    img += np.where(inside, sign, 0.0)[..., None] * d
    img += rng.uniform(-2.0, 2.0, size=img.shape)
    image = Image(np.clip(img, 0, 255))

    n_per_class = max(1, int(round(0.015 * height * width)))
    margin = 2.5
    data = np.zeros((height, width), dtype=np.int64)
    for cls, mask in ((1, dist > radius + margin), (2, dist < radius - margin)):
        candidates = np.flatnonzero(mask.ravel())
        take = min(n_per_class, candidates.size)
        pick = rng.choice(candidates, size=take, replace=False)
        data.ravel()[pick] = cls
    return image, ScribbleField(data), gt
