"""Segmentation quality metrics."""

from __future__ import annotations

import numpy as np

from .errors import DataError

IGNORE = 255


def miou(pred: np.ndarray, gt: np.ndarray, classes: int) -> float:
    """Mean intersection-over-union between 1-based label maps.

    Pixels where gt equals IGNORE (255, unlabeled) are dropped. A class
    enters the mean only if it occurs in pred or gt (after dropping ignored
    pixels); classes absent from both are excluded. DataError unless pred
    and gt have one shape.
    """
    p = np.asarray(pred, dtype=np.int64)
    g = np.asarray(gt, dtype=np.int64)
    if p.shape != g.shape:
        raise DataError(f"prediction and ground truth differ in shape: {p.shape} and {g.shape}")
    keep = g != IGNORE
    p, g = p[keep], g[keep]
    if not p.size:
        return 1.0
    if p.min() < 1 or p.max() > classes or g.min() < 1 or g.max() > classes:
        raise DataError(f"labels must lie in 1..{classes}")
    # classes above the largest label present are absent from both maps
    n = int(max(p.max(), g.max())) + 1
    inter = np.bincount(p[p == g], minlength=n)[1:]
    union = np.bincount(p, minlength=n)[1:] + np.bincount(g, minlength=n)[1:] - inter
    seen = union > 0
    return float(np.mean(inter[seen] / union[seen]))
