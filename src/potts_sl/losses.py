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

from .affinity import FEATURE_DIM, AffinityGraph
from .data_terms import XentKind, row_values
from .errors import DataError, LOG_CLAMP, check_real
from .potts import PottsKind, _plane_value
from .simplex import ProbField, ScribbleField, entropy_rows


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


def _check_instance(field, scribbles, graph=None, y=None, init_logits=None, model=None):
    """The scribbles' (scribbled, classes, free) on an instance, as
    ScribbleField.partition gives them; None if scribbles is None.

    field is the instance's H x W grid: sigma, of K = sigma.classes, or the
    image a model of K = model.classes reads. DataError, in this order,
    unless the scribbles are H x W, graph covers an H x W field, no scribble
    class exceeds K, y and init_logits are sigma's shape, and the model
    takes FEATURE_DIM features.
    """
    classes = field.classes if model is None else model.classes
    parts = None if scribbles is None else scribbles.partition(field.height, field.width,
                                                               classes, graph)
    if y is not None and y.data.shape != field.data.shape:
        raise DataError("pseudo-label field shape differs from prediction field")
    if init_logits is not None and init_logits.data.shape != field.data.shape:
        raise DataError("initial logits shape differs from the prediction field")
    if model is not None and model.weights.shape[1] != FEATURE_DIM:
        raise DataError(f"model takes {model.weights.shape[1]} features per pixel, "
                        f"images give {FEATURE_DIM}")
    return parts


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
    scribbled, cls, _ = _check_instance(sigma, scribbles)
    return _nll(sigma.flat()[scribbled, cls])


def ws_loss(
    sigma: ProbField,
    scribbles: ScribbleField,
    graph: AffinityGraph,
    cfg: LossConfig,
) -> float:
    """Scribble NLL + eta * entropy over unlabeled + lambda * pairwise sum."""
    scribbled, cls, free = _check_instance(sigma, scribbles, graph)
    s = sigma.planes()
    value = _nll(s[cls, scribbled])
    value += cfg.eta * float(np.sum(entropy_rows(s[:, free])))
    value += _plane_value(cfg.potts, s, graph, cfg.lam)[0]
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
    scribbled, cls, free = _check_instance(sigma, scribbles, graph, y)
    yp = y.planes()
    if scribbled.size:
        gap = np.max(np.abs(yp[:, scribbled] - np.eye(y.classes)[:, cls]))
        if gap > 1e-6:
            raise DataError(f"pseudo-labels violate the scribble constraint by {gap:.3g}")
    s = sigma.planes()
    pairwise = _plane_value(cfg.potts, yp, graph, cfg.lam)[0]
    return _joint_terms(cfg, s[cls, scribbled], yp, s, free, pairwise)[0].value
