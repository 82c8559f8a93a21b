"""Assembly of the scribble-supervised loss and its self-labeling variant.

Both losses share the scribble NLL term and the affinity-weighted pairwise
term; they differ in the middle: the first regularizes predictions directly
with entropy, the second couples predictions to auxiliary pseudo-labels
through a chosen cross-entropy. With the reverse cross-entropy and y == sigma
the two coincide exactly, which is the splitting identity the alternating
trainer relies on.

Scribble pixels never enter the entropy/coupling sums, but their edges do
participate in the pairwise sum. Logs are clamped at LOG_CLAMP for evaluation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .affinity import AffinityGraph
from .data_terms import XentKind, row_values
from .errors import DataError, LOG_CLAMP
from .potts import PottsKind, edge_sum
from .simplex import ProbField, ScribbleField, entropy_rows, one_hot_rows


@dataclass
class LossConfig:
    """Weights and term choices for the weakly supervised losses."""

    eta: float = 0.3
    lam: float = 6.0
    potts: PottsKind = PottsKind.CD
    xent: XentKind = XentKind.CCE

    def __post_init__(self):
        if not (np.isfinite(self.eta) and self.eta >= 0):
            raise DataError("eta must be finite and >= 0")
        if not (np.isfinite(self.lam) and self.lam >= 0):
            raise DataError("lambda must be finite and >= 0")
        if not isinstance(self.potts, PottsKind):
            raise DataError(f"bad potts kind {self.potts!r}")
        if not isinstance(self.xent, XentKind):
            raise DataError(f"bad cross-entropy kind {self.xent!r}")


def _check_instance(sigma: ProbField, scribbles: ScribbleField, graph: AffinityGraph):
    if (sigma.height, sigma.width) != (scribbles.height, scribbles.width):
        raise DataError(
            f"field is {sigma.height}x{sigma.width} but scribbles are "
            f"{scribbles.height}x{scribbles.width}"
        )
    graph.check_covers(sigma.height, sigma.width)
    if scribbles.max_class() > sigma.classes:
        raise DataError(
            f"scribble class {scribbles.max_class()} exceeds K={sigma.classes}"
        )


def scribble_nll(sigma: ProbField, scribbles: ScribbleField) -> float:
    """Negative log-likelihood of the ground-truth classes on scribble pixels."""
    lab = scribbles.data.ravel()
    labeled = lab > 0
    if not np.any(labeled):
        return 0.0
    probs = sigma.flat()[labeled, lab[labeled] - 1]
    return float(-np.sum(np.log(np.maximum(probs, LOG_CLAMP))))


def ws_loss(
    sigma: ProbField,
    scribbles: ScribbleField,
    graph: AffinityGraph,
    cfg: LossConfig,
) -> float:
    """Scribble NLL + eta * entropy over unlabeled + lambda * pairwise sum."""
    _check_instance(sigma, scribbles, graph)
    s = sigma.flat()
    unlabeled = ~scribbles.labeled_mask().ravel()
    value = scribble_nll(sigma, scribbles)
    value += cfg.eta * float(np.sum(entropy_rows(s[unlabeled])))
    value += edge_sum(cfg.potts, s, graph, scale=cfg.lam)[0]
    return value


def sl_loss(
    sigma: ProbField,
    y: ProbField,
    scribbles: ScribbleField,
    graph: AffinityGraph,
    cfg: LossConfig,
) -> float:
    """Joint self-labeling loss over predictions sigma and pseudo-labels y.

    Scribble NLL on sigma + eta * xent(y_i, sigma_i) over unlabeled pixels
    + lambda * pairwise sum over y. Requires y to equal the ground-truth
    one-hots on scribbled pixels (within the simplex tolerance).
    """
    _check_instance(sigma, scribbles, graph)
    if y.data.shape != sigma.data.shape:
        raise DataError("pseudo-label field shape differs from prediction field")
    lab = scribbles.data.ravel()
    labeled = lab > 0
    yf = y.flat()
    if np.any(labeled):
        target = one_hot_rows(lab[labeled], y.classes)
        gap = np.max(np.abs(yf[labeled] - target))
        if gap > 1e-6:
            raise DataError(
                f"pseudo-labels violate the scribble constraint by {gap:.3g}"
            )
    s = sigma.flat()
    value = scribble_nll(sigma, scribbles)
    vals, _, _ = row_values(cfg.xent, yf[~labeled], s[~labeled])
    value += cfg.eta * float(np.sum(vals))
    value += edge_sum(cfg.potts, yf, graph, scale=cfg.lam)[0]
    return value
