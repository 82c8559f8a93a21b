"""Assembly of the scribble-supervised loss and its self-labeling variant.

Both losses share the scribble NLL term and the affinity-weighted pairwise
term; they differ in the middle: the first regularizes predictions directly
with entropy, the second couples predictions to auxiliary pseudo-labels
through a chosen cross-entropy. With the reverse cross-entropy and y == sigma
the two coincide exactly, which is the splitting identity the alternating
trainer relies on. sl_loss, the pseudo-label solver and the trainer's model
step all sum the second through _joint_terms, on whole (K, N) class planes.

Scribble pixels never enter the entropy/coupling sums (_joint_terms evaluates
the coupling there and drops it), but their edges do participate in the
pairwise sum. Logs are clamped at LOG_CLAMP for evaluation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .affinity import AffinityGraph
from .data_terms import XentKind, row_values
from .errors import DataError, LOG_CLAMP, check_real
from .potts import PottsKind, plane_sum
from .simplex import ProbField, ScribbleField, entropy_rows, one_hot_rows


@dataclass
class LossConfig:
    """Weights and term choices for the weakly supervised losses."""

    eta: float = 0.3
    lam: float = 6.0
    potts: PottsKind = PottsKind.CD
    xent: XentKind = XentKind.CCE

    def __post_init__(self):
        check_real("eta", self.eta)
        check_real("lam", self.lam)
        if not isinstance(self.potts, PottsKind):
            raise DataError(f"bad potts kind {self.potts!r}")
        if not isinstance(self.xent, XentKind):
            raise DataError(f"bad cross-entropy kind {self.xent!r}")


def _check_instance(sigma: ProbField, scribbles: ScribbleField, graph: AffinityGraph = None,
                    y=None):
    if (sigma.height, sigma.width) != (scribbles.height, scribbles.width):
        raise DataError(f"field is {sigma.height}x{sigma.width} but scribbles are "
                        f"{scribbles.height}x{scribbles.width}")
    if graph is not None:
        graph.check_covers(sigma.height, sigma.width)
    if scribbles.max_class() > sigma.classes:
        raise DataError(f"scribble class {scribbles.max_class()} exceeds K={sigma.classes}")
    if y is not None and y.data.shape != sigma.data.shape:
        raise DataError("pseudo-label field shape differs from prediction field")


class JointTerms(NamedTuple):
    """Parts of the joint loss; value adds them in this one order."""

    nll: float
    coupling: float
    pairwise: float

    @property
    def value(self) -> float:
        return self.nll + self.coupling + self.pairwise


def _nll(picked) -> float:
    """Clamped NLL of the scribbled classes' probabilities; 0.0 with none."""
    return float(-np.sum(np.log(np.maximum(picked, LOG_CLAMP)))) if picked.size else 0.0


def _joint_terms(cfg, picked, y, s, free, pairwise=0.0):
    """(JointTerms, divergent free rows, coupling gradient pair).

    picked holds sigma's probability of the scribbled class at each scribble
    pixel, y and s the (K, N) class planes of y and sigma, and free indexes
    the unscribbled pixels. One row_values call on the whole planes gives
    the pair (d/dy, d/dsigma) as (K, N) planes, unscaled by eta; only the
    values (gathered in free's order, then summed) and the divergent count
    are restricted to free. Each coupling is elementwise per pixel, so free
    pixels get the bits of a call on their gathered columns."""
    vals, div, grads = row_values(cfg.xent, y, s)
    terms = JointTerms(_nll(picked), cfg.eta * float(np.sum(vals[free])), pairwise)
    return terms, int(np.count_nonzero(div[free])), grads


def scribble_nll(sigma: ProbField, scribbles: ScribbleField) -> float:
    """Negative log-likelihood of the ground-truth classes on scribble pixels.

    DataError if the scribbles are not sigma's shape or name a class above K.
    """
    _check_instance(sigma, scribbles)
    lab = scribbles.data.ravel()
    return _nll(sigma.flat()[lab > 0, lab[lab > 0] - 1])


def ws_loss(
    sigma: ProbField,
    scribbles: ScribbleField,
    graph: AffinityGraph,
    cfg: LossConfig,
) -> float:
    """Scribble NLL + eta * entropy over unlabeled + lambda * pairwise sum."""
    _check_instance(sigma, scribbles, graph)
    s = sigma.planes()
    unlabeled = ~scribbles.labeled_mask().ravel()
    value = scribble_nll(sigma, scribbles)
    value += cfg.eta * float(np.sum(entropy_rows(s[:, unlabeled])))
    value += plane_sum(cfg.potts, s, graph, scale=cfg.lam)[0]
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
    _check_instance(sigma, scribbles, graph, y)
    lab = scribbles.data.ravel()
    labeled = lab > 0
    yp = y.planes()
    if np.any(labeled):
        gap = np.max(np.abs(yp[:, labeled] - one_hot_rows(lab[labeled], y.classes).T))
        if gap > 1e-6:
            raise DataError(f"pseudo-labels violate the scribble constraint by {gap:.3g}")
    s = sigma.planes()
    pairwise = plane_sum(cfg.potts, yp, graph, scale=cfg.lam)[0]
    return _joint_terms(cfg, s[lab[labeled] - 1, labeled], yp, s, np.flatnonzero(~labeled),
                        pairwise)[0].value
