"""Segmentation quality metrics."""

from __future__ import annotations

import numpy as np

from .errors import DataError

IGNORE = 255


def miou(pred: np.ndarray, gt: np.ndarray, classes: int) -> float:
    """Mean intersection-over-union between 1-based label maps.

    Pixels where gt equals IGNORE (255, unlabeled) are dropped. A class
    enters the mean only if it occurs in pred or gt (after dropping ignored
    pixels); classes absent from both are excluded.
    """
    p = np.asarray(pred, dtype=np.int64).ravel()
    g = np.asarray(gt, dtype=np.int64).ravel()
    if p.shape != g.shape:
        raise DataError("prediction and ground truth differ in size")
    keep = g != IGNORE
    p, g = p[keep], g[keep]
    if p.size and (p.min() < 1 or p.max() > classes or g.min() < 1 or g.max() > classes):
        raise DataError(f"labels must lie in 1..{classes}")
    ious = []
    for c in range(1, classes + 1):
        in_p = p == c
        in_g = g == c
        union = np.count_nonzero(in_p | in_g)
        if union == 0:
            continue
        ious.append(np.count_nonzero(in_p & in_g) / union)
    if not ious:
        return 1.0
    return float(np.mean(ious))
