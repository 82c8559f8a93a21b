"""Desk-scale alternating trainer for a pixelwise linear-softmax classifier.

The classifier maps per-pixel features (RGB scaled to [0,1], normalized
coordinates) through a K x 5 linear layer and softmax. Training alternates
between solving for pseudo-labels at fixed predictions and full-batch
backtracking gradient descent on the joint self-labeling loss at fixed
pseudo-labels. Every descent is the solver's Armijo routine, whose first
trial step is STEP_SIZE and only shrinks, and every pseudo-label solve after
the first starts from the previous round's labels, so neither block step can
raise the joint loss and its trace is non-increasing by construction. Each
descent refuses a start it cannot step from with NumericalError.

Probabilities, logits, pseudo-labels and their gradients are (K, N) class
planes, as in the solver: the logits are W phi^T + b for the (N, D)
features phi, and the weight gradient is G phi for the logit gradient G.
The alternation checks once per call and passes planes from round to round
through the solver's core; it builds a field only for the labels it returns.

Also hosts the label-corruption robustness experiment on a synthetic blob
dataset: a PixelModel of the blobs' 32 features, fitted to mixed targets
eta * uniform + (1 - eta) * one_hot(observed) by the same joint-loss descent
with no scribbles, every sample free, eta = 1/n and no pairwise term.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .affinity import FEATURE_DIM, AffinityGraph, Image, pixel_features
from .data_terms import XentKind
from .errors import DataError, check_count
from .losses import JointTerms, LossConfig, _check_instance, _joint_terms, _nll
from .simplex import (LogitField, ProbField, ScribbleField, one_hot_rows, softmax_backward,
                      softmax_rows)
from .solver import SolverConfig, _armijo_descent, _solve_planes
from .synthetic import gaussian_blobs_dataset

# First trial step of every model descent (pretraining and each round's
# inner epochs); the Armijo search only halves it.
STEP_SIZE = 1.0


@dataclass(eq=False)
class PixelModel:
    """Linear-softmax classifier: K x D weights plus bias, D features wide."""

    weights: np.ndarray
    bias: np.ndarray

    def __post_init__(self):
        self.weights = np.asarray(self.weights, dtype=np.float64)
        self.bias = np.asarray(self.bias, dtype=np.float64)
        if self.weights.ndim != 2 or self.weights.shape[1] < 1:
            raise DataError(f"weights must be (K, D) with D >= 1, got {self.weights.shape}")
        if self.bias.shape != (self.weights.shape[0],):
            raise DataError("bias length must match the class count")
        if not (np.all(np.isfinite(self.weights)) and np.all(np.isfinite(self.bias))):
            raise DataError("model parameters must be finite")

    @property
    def classes(self) -> int:
        return self.weights.shape[0]

    @classmethod
    def zeros(cls, classes: int, dim: int = FEATURE_DIM) -> "PixelModel":
        return cls(np.zeros((classes, dim)), np.zeros(classes))

    def pack(self) -> np.ndarray:
        return np.concatenate([self.weights.ravel(), self.bias])

    @classmethod
    def unpack(cls, flat: np.ndarray, classes: int) -> "PixelModel":
        w, b = _split(flat, classes)
        return cls(w.copy(), b.copy())


def _split(flat, classes):
    """(K, D) weights and (K,) bias views of a packed model."""
    n = flat.size - classes
    return flat[:n].reshape(classes, n // classes), flat[n:]


@dataclass
class TrainConfig:
    rounds: int = 10
    inner_epochs: int = 25
    pretrain_epochs: int = 200
    loss_cfg: LossConfig = field(default_factory=LossConfig)
    solver_cfg: SolverConfig = field(default_factory=SolverConfig)

    def __post_init__(self):
        for name in ("rounds", "inner_epochs", "pretrain_epochs"):
            setattr(self, name, check_count(name, getattr(self, name)))


def predict(model: PixelModel, image: Image):
    """Per-pixel softmax predictions; returns (ProbField, LogitField).
    Logits that overflow raise DataError, with no RuntimeWarning."""
    _check_instance(image, None, model=model)
    with np.errstate(over="ignore", invalid="ignore"):
        logits = _logits(model.weights, model.bias, pixel_features(image))
        probs = softmax_rows(logits)
    shape = (image.height, image.width, model.classes)
    return ProbField(probs.T.reshape(shape)), LogitField(logits.T.reshape(shape))


def _logits(weights, bias, phi):
    """(K, N) class planes of the logits at the (N, D) features phi."""
    return weights @ phi.T + bias[:, None]


def pretrain(model: PixelModel, image: Image, scribbles: ScribbleField, cfg: TrainConfig) -> PixelModel:
    """Full-batch backtracking GD on the scribble NLL (convex warm start)."""
    scribbled, cls, _ = _check_instance(image, scribbles, model=model)
    if not scribbled.size:
        warnings.warn("no scribbles given; pretraining is a no-op")
        return PixelModel(model.weights.copy(), model.bias.copy())
    missing = (np.setdiff1d(np.arange(model.classes), cls) + 1).tolist()
    if missing:
        warnings.warn(f"classes with no scribbles: {missing}")

    # with every row scribbled the joint loss is the NLL alone, whatever the loss config
    phi_s = pixel_features(image)[scribbled]
    every = np.arange(len(phi_s))
    value_grad = lambda x: _sl_value_and_grad(x, phi_s, every, cls, None, None, 0.0, None)
    flat, _ = _armijo_descent(model.pack(), value_grad, cfg.pretrain_epochs, STEP_SIZE)
    return PixelModel.unpack(flat, model.classes)


def _sl_value_and_grad(flat, phi, scribbled, cls, free, y, pairwise, cfg):
    """Joint loss at fixed pseudo-labels and its gradient w.r.t. the packed
    model parameters flat.

    scribbled indexes the scribble pixels (rows of phi) and cls holds their
    0-based classes; free indexes the other pixels (slice(None) if nothing
    is scribbled), and y holds the pseudo-labels of all as (K, N) class
    planes. free, y and cfg are None when every row is scribbled: the NLL
    alone, no coupling. pairwise is the model-independent lambda * sum w
    P(y_i, y_j). The coupling gradient is zeroed at scribbled pixels before
    the eta scaling, so that it scales without overflow; G there is the NLL's.
    """
    probs = softmax_rows(_logits(*_split(flat, flat.size // (phi.shape[1] + 1)), phi))
    if y is None:
        terms, glogit = JointTerms(_nll(probs[cls, scribbled]), 0.0, pairwise), probs
    else:
        terms, _, (_, gs) = _joint_terms(cfg, probs[cls, scribbled], y, probs, free, pairwise)
        gs[:, scribbled] = 0.0
        glogit = softmax_backward(probs, np.multiply(cfg.eta, gs, out=gs))
        glogit[:, scribbled] = probs[:, scribbled]
    glogit[cls, scribbled] -= 1.0
    gw = glogit @ phi
    # adds each class's pixels in order; glogit.sum(axis=1) would add pairwise
    gb = np.cumsum(glogit, axis=1)[:, -1]
    return terms.value, np.concatenate([gw.ravel(), gb])


def alternate(
    model: PixelModel,
    image: Image,
    scribbles: ScribbleField,
    graph: AffinityGraph,
    cfg: TrainConfig,
):
    """Alternating minimization of the joint self-labeling loss.

    Each round solves the pseudo-label sub-problem at the current predictions,
    takes the pairwise term of its labels from the solve, then runs inner
    epochs of backtracking GD on the model. The first solve starts from the
    model logits; each later one from the previous solve's final logits, i.e.
    at the previous labels, so its result is bounded by them. Returns (model,
    pseudo-labels, per-round joint loss trace). Logits that overflow raise
    DataError, as in predict, with no RuntimeWarning.
    """
    scribbled, cls, free = _check_instance(image, scribbles, graph, model=model)
    phi = pixel_features(image)
    classes, loss_cfg, logits = model.classes, cfg.loss_cfg, None
    trace: list[float] = []
    flat = model.pack()
    for _ in range(cfg.rounds):
        with np.errstate(over="ignore", invalid="ignore"):
            model_logits = _logits(*_split(flat, classes), phi)
            s = softmax_rows(model_logits)
        if not np.all(np.isfinite(s)):
            raise DataError("probability field has non-finite entries")
        logits, y, report = _solve_planes(s, model_logits if logits is None else logits,
                                          scribbled, cls, free, graph, loss_cfg, cfg.solver_cfg)
        value_grad = lambda x: _sl_value_and_grad(x, phi, scribbled, cls, free, y,
                                                  report.terms.pairwise, loss_cfg)
        flat, value = _armijo_descent(flat, value_grad, cfg.inner_epochs, STEP_SIZE)
        trace.append(value)
    shape = (image.height, image.width, classes)
    return PixelModel.unpack(flat, classes), ProbField(y.T.reshape(shape)), trace


# ---------------------------------------------------------------------------
# label-corruption robustness experiment


# The corruption experiment's first trial step and the couplings it compares.
FIT_STEP_SIZE = 0.25
CORRUPTION_KINDS = (XentKind.CE, XentKind.RCE, XentKind.CCE)


def _fit_linear_softmax(x, targets, kind: XentKind, epochs: int = 400):
    """PixelModel fitted to soft targets by the mean coupling of the given
    kind, from first trial step FIT_STEP_SIZE. x holds one sample per row and
    targets one distribution per row."""
    (n, dim), k = x.shape, targets.shape[1]
    y = np.ascontiguousarray(targets.T)
    cfg = LossConfig(eta=1.0 / n, lam=0.0, xent=kind)
    none = np.zeros(0, dtype=np.intp)
    value_grad = lambda f: _sl_value_and_grad(f, x, none, none, slice(None), y, 0.0, cfg)
    flat, _ = _armijo_descent(PixelModel.zeros(k, dim).pack(), value_grad, epochs, FIT_STEP_SIZE)
    return PixelModel.unpack(flat, k)


def _accuracy(model, x, labels):
    pred = np.argmax(_logits(model.weights, model.bias, x), axis=0) + 1
    return float(np.mean(pred == labels))


def corruption_experiment(levels=(0.0, 0.2, 0.4, 0.6, 0.8), seed: int = 0):
    """Test accuracy of each coupling under increasing label corruption.

    The data is gaussian_blobs_dataset(seed). For each level eta, a fraction
    eta of training labels is replaced by a uniformly random class, every
    target becomes the mixture eta * uniform + (1 - eta) * one_hot(observed),
    and a fresh linear-softmax classifier is trained per coupling kind of
    CORRUPTION_KINDS. Returns rows (eta, kind name, test accuracy).
    Deterministic given the seed.

    Each classifier gets a fixed budget of 400 full-batch epochs, not a run
    to convergence, so the table (and acceptance gate 09, which asks the
    robust couplings to beat CE by 5 points at 80% corruption) measures
    early-stopped training. The gap shrinks with longer training: at 80%
    corruption, CCE - CE was 0.25 after 100 epochs, 0.085-0.117 after 400
    and 0.022-0.045 after 1600 (seeds 1 and 3).
    """
    rng = np.random.default_rng(seed)
    x_train, y_train, x_test, y_test = gaussian_blobs_dataset(seed)
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
        for kind in CORRUPTION_KINDS:
            model = _fit_linear_softmax(x_train, targets, kind)
            rows.append((float(eta), kind.value, _accuracy(model, x_test, y_test)))
    return rows
