"""Desk-scale alternating trainer for a pixelwise linear-softmax classifier.

The classifier maps per-pixel features (RGB scaled to [0,1], normalized
coordinates) through a K x 5 linear layer and softmax. Training alternates
between solving for pseudo-labels at fixed predictions and full-batch
backtracking gradient descent on the joint self-labeling loss at fixed
pseudo-labels, so the joint loss trace is non-increasing by construction.
A pseudo-label candidate that would raise its sub-problem objective relative
to the previous round's labels is rejected (the fixed-step solver itself has
no descent guarantee).

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
from .errors import DataError
from .losses import LossConfig, sl_loss
from .simplex import (
    LogitField,
    ProbField,
    ScribbleField,
    one_hot_rows,
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


def _backtrack(flat, loss_fn, f0, grad, step0):
    """One Armijo backtracking step; returns (new_flat, new_loss, moved)."""
    gnorm2 = float(np.dot(grad, grad))
    if gnorm2 == 0.0:
        return flat, f0, False
    t = step0
    for _ in range(_MAX_HALVINGS):
        cand = flat - t * grad
        fc = loss_fn(cand)
        if fc <= f0 - _ARMIJO * t * gnorm2:
            return cand, fc, True
        t *= 0.5
    return flat, f0, False


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
    flat = model.pack()
    value, grad = _nll_and_grad(flat, phi_s, targets, model.classes)
    loss_only = lambda x: _nll_and_grad(x, phi_s, targets, model.classes, grad=False)[0]
    for _ in range(cfg.pretrain_epochs):
        flat, value, moved = _backtrack(flat, loss_only, value, grad, cfg.step_size)
        if not moved:
            break
        _, grad = _nll_and_grad(flat, phi_s, targets, model.classes)
    return PixelModel.unpack(flat, model.classes)


def _sl_value_and_grad(flat, phi, image_shape, y, scribbles, graph, cfg, classes, grad=True):
    """Joint loss and, when grad is set, its gradient w.r.t. model parameters
    at fixed y (else None)."""
    model = PixelModel.unpack(flat, classes)
    logits = phi @ model.weights.T + model.bias
    probs = softmax_rows(logits)
    sigma = ProbField(probs.reshape(image_shape))
    value = sl_loss(sigma, y, scribbles, graph, cfg)
    if not grad:
        return value, None

    lab = scribbles.data.ravel()
    labeled = lab > 0
    glogit = np.zeros_like(probs)
    if labeled.any():
        glogit[labeled] = probs[labeled] - one_hot_rows(lab[labeled], classes)
    unlabeled = ~labeled
    _, _, (_, gs) = row_values(cfg.xent, y.flat()[unlabeled], probs[unlabeled], grad=True)
    a = cfg.eta * gs
    # chain through softmax on unlabeled pixels
    pu = probs[unlabeled]
    glogit[unlabeled] += pu * (a - np.sum(pu * a, axis=1, keepdims=True))
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
    (initialized from the model logits), keeps the candidate only if it does
    not raise the sub-problem objective against the previous labels, then runs
    inner epochs of backtracking GD on the model. Returns
    (model, pseudo-labels, per-round joint loss trace).
    """
    phi = pixel_features(image)
    classes = model.classes
    image_shape = (image.height, image.width, classes)
    y = None
    trace: list[float] = []
    flat = model.pack()
    for _ in range(cfg.rounds):
        sigma, logit_field = predict(PixelModel.unpack(flat, classes), image)
        candidate, _ = solve_pseudo_labels(
            sigma, logit_field, scribbles, graph, cfg.loss_cfg, cfg.solver_cfg
        )
        if y is None:
            y = candidate
        else:
            cand_obj = pseudo_label_objective(sigma, candidate, scribbles, graph, cfg.loss_cfg)
            prev_obj = pseudo_label_objective(sigma, y, scribbles, graph, cfg.loss_cfg)
            if cand_obj <= prev_obj:
                y = candidate

        value, grad = _sl_value_and_grad(
            flat, phi, image_shape, y, scribbles, graph, cfg.loss_cfg, classes
        )
        loss_only = lambda x: _sl_value_and_grad(
            x, phi, image_shape, y, scribbles, graph, cfg.loss_cfg, classes, grad=False
        )[0]
        for _ in range(cfg.inner_epochs):
            flat, value, moved = _backtrack(flat, loss_only, value, grad, cfg.step_size)
            if not moved:
                break
            _, grad = _sl_value_and_grad(
                flat, phi, image_shape, y, scribbles, graph, cfg.loss_cfg, classes
            )
        trace.append(value)
    return PixelModel.unpack(flat, classes), y, trace


# ---------------------------------------------------------------------------
# label-corruption robustness experiment


def _fit_linear_softmax(x, targets, kind: XentKind, epochs: int = 400, step0: float = 0.25):
    """Linear-softmax weights fitted to soft targets with the given coupling."""
    n, dim = x.shape
    k = targets.shape[1]
    xa = np.column_stack([x, np.ones(n)])
    flat = np.zeros((k * (dim + 1),))

    def value_grad(f, grad=True):
        w = f.reshape(k, dim + 1)
        probs = softmax_rows(xa @ w.T)
        vals, _, grads = row_values(kind, targets, probs, grad=grad)
        value = float(np.mean(vals))
        if not grad:
            return value, None
        gs = grads[1]
        glogit = probs * (gs - np.sum(probs * gs, axis=1, keepdims=True)) / n
        return value, (glogit.T @ xa).ravel()

    value, grad = value_grad(flat)
    loss_only = lambda f: value_grad(f, grad=False)[0]
    for _ in range(epochs):
        flat, value, moved = _backtrack(flat, loss_only, value, grad, step0)
        if not moved:
            break
        _, grad = value_grad(flat)
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
