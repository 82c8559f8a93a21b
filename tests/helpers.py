"""Shared test helpers: samplers kept away from the library code paths."""

import numpy as np


def interior_pair(rng, classes):
    """Two random simplex points bounded away from the boundary."""
    p = 0.85 * rng.dirichlet(np.ones(classes)) + 0.15 / classes
    q = 0.85 * rng.dirichlet(np.ones(classes)) + 0.15 / classes
    return p, q


def interior_point(rng, classes):
    return 0.85 * rng.dirichlet(np.ones(classes)) + 0.15 / classes


def random_interior_field(rng, height, width, classes):
    from potts_sl import ProbField

    raw = rng.dirichlet(np.ones(classes), size=(height, width))
    data = 0.85 * raw + 0.15 / classes
    return ProbField(data)


def permute_classes(sigma, scribbles, perm):
    """The instance with class j holding old class perm[j]: sigma's channels
    reordered and every scribble relabelled to match."""
    from potts_sl import ProbField, ScribbleField

    relabel = np.zeros(len(perm) + 1, dtype=np.int64)
    relabel[np.asarray(perm) + 1] = np.arange(1, len(perm) + 1)
    return ProbField(sigma.data[..., perm]), ScribbleField(relabel[scribbles.data])
