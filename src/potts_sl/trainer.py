"""Desk-scale alternating trainer for a pixelwise linear-softmax classifier.

The classifier maps per-pixel features (RGB scaled to [0,1], normalized
coordinates) through a K x 5 linear layer and softmax. Training alternates
between solving for pseudo-labels at fixed predictions and full-batch
backtracking gradient descent on the joint self-labeling loss at fixed
pseudo-labels, so the joint loss trace is non-increasing by construction.
Every descent here runs through one Armijo routine, _descend. A pseudo-label
candidate that would raise its sub-problem objective relative to the previous
round's labels is rejected: the solver starts from the model logits, so
nothing else bounds it by those labels.

Also hosts the label-corruption robustness experiment on a synthetic blob
dataset: the same linear-softmax classifier trained against mixed targets
eta * uniform + (1 - eta) * one_hot(observed) with each cross-entropy kind.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .affinity import AffinityGraph, Image
from .data_terms import XentKind, row_values
from .errors import DataError, LOG_CLAMP
from .losses import LossConfig
from .potts import edge_sum
from .simplex import (
    LogitField,
    ProbField,
    ScribbleField,
    one_hot_rows,
    softmax_backward,
    softmax_rows,
)
from .solver import SolverConfig, pseudo_label_objective, solve_pseudo_labels
from .synthetic import gaussian_blobs_dataset

FEATURE_DIM = 5

_ARMIJO = 1e-4
_MAX_HALVINGS = 60


@dataclass
class PixelModel:
    """Linear-softmax pixel classifier: K x 5 weights plus bias."""

    weights: np.ndarray
    bias: np.ndarray

    def __post_init__(self):
        self.weights = np.asarray(self.weights, dtype=np.float64)
        self.bias = np.asarray(self.bias, dtype=np.float64)
        if self.weights.ndim != 2 or self.weights.shape[1] != FEATURE_DIM:
            raise DataError(f"weights must be (K, {FEATURE_DIM})")
        if self.bias.shape != (self.weights.shape[0],):
            raise DataError("bias length must match the class count")
        if not (np.all(np.isfinite(self.weights)) and np.all(np.isfinite(self.bias))):
            raise DataError("model parameters must be finite")

    @property
    def classes(self) -> int:
        return self.weights.shape[0]

    @classmethod
    def zeros(cls, classes: int) -> "PixelModel":
        return cls(np.zeros((classes, FEATURE_DIM)), np.zeros(classes))

    def pack(self) -> np.ndarray:
        return np.concatenate([self.weights.ravel(), self.bias])

    @classmethod
    def unpack(cls, flat: np.ndarray, classes: int) -> "PixelModel":
        w = flat[: classes * FEATURE_DIM].reshape(classes, FEATURE_DIM)
        return cls(w.copy(), flat[classes * FEATURE_DIM :].copy())


@dataclass
class TrainConfig:
    rounds: int = 10
    inner_epochs: int = 25
    step_size: float = 1.0
    pretrain_epochs: int = 200
    loss_cfg: LossConfig = field(default_factory=LossConfig)
    solver_cfg: SolverConfig = field(default_factory=SolverConfig)

    def __post_init__(self):
        for name in ("rounds", "inner_epochs", "pretrain_epochs"):
            v = getattr(self, name)
            if int(v) != v or v < 1:
                raise DataError(f"{name} must be an integer >= 1")
            setattr(self, name, int(v))
        if not (np.isfinite(self.step_size) and self.step_size > 0):
            raise DataError("step_size must be positive")


def pixel_features(image: Image) -> np.ndarray:
    """(N, 5) features: RGB / 255 and (x / W, y / H) in row-major order."""
    h, w = image.height, image.width
    rgb = image.as_float().reshape(-1, 3) / 255.0
    rows, cols = np.mgrid[0:h, 0:w]
    return np.column_stack([rgb, cols.ravel() / w, rows.ravel() / h])


def predict(model: PixelModel, image: Image):
    """Per-pixel softmax predictions; returns (ProbField, LogitField)."""
    phi = pixel_features(image)
    logits = phi @ model.weights.T + model.bias
    probs = softmax_rows(logits)
    shape = (image.height, image.width, model.classes)
    return ProbField(probs.reshape(shape)), LogitField(logits.reshape(shape))


def _descend(flat, value_grad, epochs, step0):
    """Armijo backtracking gradient descent; returns (flat, value).

    value_grad(x, grad) -> (value, gradient or None). Trials ask for the value
    alone; the gradient is taken at the start and after each accepted step.
    Stops after `epochs` steps, at a zero gradient, or when no step down to
    step0 / 2**_MAX_HALVINGS decreases the value enough; the gradient after
    the last of `epochs` steps is not taken, since nothing reads it.
    """
    value, grad = value_grad(flat, True)
    for epoch in range(epochs):
        gnorm2 = float(np.dot(grad, grad))
        if gnorm2 == 0.0:
            break
        t = step0
        for _ in range(_MAX_HALVINGS):
            cand = flat - t * grad
            fc = value_grad(cand, False)[0]
            if fc <= value - _ARMIJO * t * gnorm2:
                break
            t *= 0.5
        else:
            break
        flat, value = cand, fc
        if epoch + 1 < epochs:
            grad = value_grad(flat, True)[1]
    return flat, value


def _nll_and_grad(flat, phi_s, targets, classes, grad=True):
    """Scribble NLL and, when grad is set, its gradient (else None)."""
    model = PixelModel.unpack(flat, classes)
    logits = phi_s @ model.weights.T + model.bias
    probs = softmax_rows(logits)
    picked = np.sum(probs * targets, axis=1)
    value = float(-np.sum(np.log(np.maximum(picked, 1e-300))))
    if not grad:
        return value, None
    glogit = probs - targets
    gw = glogit.T @ phi_s
    gb = glogit.sum(axis=0)
    return value, np.concatenate([gw.ravel(), gb])


def pretrain(model: PixelModel, image: Image, scribbles: ScribbleField, cfg: TrainConfig) -> PixelModel:
    """Full-batch backtracking GD on the scribble NLL (convex warm start)."""
    if (scribbles.height, scribbles.width) != (image.height, image.width):
        raise DataError(
            f"scribbles are {scribbles.height}x{scribbles.width} but the image is "
            f"{image.height}x{image.width}"
        )
    lab = scribbles.data.ravel()
    labeled = lab > 0
    if not labeled.any():
        warnings.warn("no scribbles given; pretraining is a no-op")
        return PixelModel(model.weights.copy(), model.bias.copy())
    if lab.max() > model.classes:
        raise DataError(f"scribble class {lab.max()} exceeds K={model.classes}")
    missing = sorted(set(range(1, model.classes + 1)) - set(np.unique(lab[labeled]).tolist()))
    if missing:
        warnings.warn(f"classes with no scribbles: {missing}")

    phi_s = pixel_features(image)[labeled]
    targets = one_hot_rows(lab[labeled], model.classes)
    value_grad = lambda x, grad: _nll_and_grad(x, phi_s, targets, model.classes, grad)
    flat, _ = _descend(model.pack(), value_grad, cfg.pretrain_epochs, cfg.step_size)
    return PixelModel.unpack(flat, model.classes)


def _sl_value_and_grad(flat, phi, labeled, targets, y_free, pairwise, cfg, grad=True):
    """Joint loss at fixed pseudo-labels and, when grad is set, its gradient
    w.r.t. the model parameters (else None).

    labeled masks the scribble pixels and targets holds their one-hot rows;
    y_free holds the pseudo-labels of the other pixels, and pairwise the
    model-independent lambda * sum w P(y_i, y_j). Terms are added in
    sl_loss's order, so the value equals sl_loss bit for bit.
    """
    model = PixelModel.unpack(flat, targets.shape[1])
    probs = softmax_rows(phi @ model.weights.T + model.bias)
    free = ~labeled
    probs_free = probs[free]
    vals, _, grads = row_values(cfg.xent, y_free, probs_free, grad=grad)
    picked = np.sum(probs[labeled] * targets, axis=1)
    value = float(-np.sum(np.log(np.maximum(picked, LOG_CLAMP)))) if picked.size else 0.0
    value += cfg.eta * float(np.sum(vals))
    value += pairwise
    if not grad:
        return value, None
    glogit = np.zeros_like(probs)
    glogit[labeled] = probs[labeled] - targets
    glogit[free] += softmax_backward(probs_free, cfg.eta * grads[1])
    gw = glogit.T @ phi
    gb = glogit.sum(axis=0)
    return value, np.concatenate([gw.ravel(), gb])


def alternate(
    model: PixelModel,
    image: Image,
    scribbles: ScribbleField,
    graph: AffinityGraph,
    cfg: TrainConfig,
):
    """Alternating minimization of the joint self-labeling loss.

    Each round solves the pseudo-label sub-problem at the current predictions
    (initialized from the model logits), keeps the candidate only if its final
    objective does not exceed the previous labels' objective, evaluates the
    pairwise term of the kept labels once, then runs inner epochs of
    backtracking GD on the model. Returns (model, pseudo-labels, per-round
    joint loss trace).
    """
    phi = pixel_features(image)
    classes = model.classes
    lab = scribbles.data.ravel()
    labeled = lab > 0
    targets = one_hot_rows(lab[labeled], classes)
    loss_cfg = cfg.loss_cfg
    y = None
    trace: list[float] = []
    flat = model.pack()
    for _ in range(cfg.rounds):
        sigma, logit_field = predict(PixelModel.unpack(flat, classes), image)
        candidate, report = solve_pseudo_labels(
            sigma, logit_field, scribbles, graph, loss_cfg, cfg.solver_cfg
        )
        if y is None or report.final_objective <= pseudo_label_objective(
            sigma, y, scribbles, graph, loss_cfg
        ):
            y = candidate

        yf = y.flat()
        y_free = yf[~labeled]
        pairwise = edge_sum(loss_cfg.potts, yf, graph, scale=loss_cfg.lam)[0]
        value_grad = lambda x, grad: _sl_value_and_grad(
            x, phi, labeled, targets, y_free, pairwise, loss_cfg, grad
        )
        flat, value = _descend(flat, value_grad, cfg.inner_epochs, cfg.step_size)
        trace.append(value)
    return PixelModel.unpack(flat, classes), y, trace


# ---------------------------------------------------------------------------
# label-corruption robustness experiment


def _fit_linear_softmax(x, targets, kind: XentKind, epochs: int = 400, step0: float = 0.25):
    """Linear-softmax weights fitted to soft targets with the given coupling."""
    n, dim = x.shape
    k = targets.shape[1]
    xa = np.column_stack([x, np.ones(n)])

    def value_grad(f, grad):
        w = f.reshape(k, dim + 1)
        probs = softmax_rows(xa @ w.T)
        vals, _, grads = row_values(kind, targets, probs, grad=grad)
        value = float(np.mean(vals))
        if not grad:
            return value, None
        glogit = softmax_backward(probs, grads[1]) / n
        return value, (glogit.T @ xa).ravel()

    flat, _ = _descend(np.zeros((k * (dim + 1),)), value_grad, epochs, step0)
    return flat.reshape(k, dim + 1)


def _accuracy(w, x, labels):
    xa = np.column_stack([x, np.ones(x.shape[0])])
    pred = np.argmax(xa @ w.T, axis=1) + 1
    return float(np.mean(pred == labels))


def corruption_experiment(
    dataset=None,
    levels=(0.0, 0.2, 0.4, 0.6, 0.8),
    kinds=(XentKind.CE, XentKind.RCE, XentKind.CCE),
    seed: int = 0,
):
    """Test accuracy of each coupling under increasing label corruption.

    For each level eta, a fraction eta of training labels is replaced by a
    uniformly random class, every target becomes the mixture
    eta * uniform + (1 - eta) * one_hot(observed), and a fresh linear-softmax
    classifier is trained per coupling kind. Returns rows
    (eta, kind name, test accuracy). Deterministic given the seed.
    """
    rng = np.random.default_rng(seed)
    if dataset is None:
        dataset = gaussian_blobs_dataset(seed)
    x_train, y_train, x_test, y_test = dataset
    k = int(max(y_train.max(), y_test.max()))
    rows = []
    for eta in levels:
        if not 0.0 <= eta <= 1.0:
            raise DataError(f"corruption level {eta} outside [0, 1]")
        observed = y_train.copy()
        n_corrupt = int(round(eta * observed.size))
        if n_corrupt:
            pick = rng.choice(observed.size, size=n_corrupt, replace=False)
            observed[pick] = rng.integers(1, k + 1, size=n_corrupt)
        targets = eta / k + (1.0 - eta) * one_hot_rows(observed, k)
        for kind in kinds:
            w = _fit_linear_softmax(x_train, targets, kind)
            rows.append((float(eta), kind.value, _accuracy(w, x_test, y_test)))
    return rows
