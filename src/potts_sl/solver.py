"""Pseudo-label sub-problem solver: Armijo descent on per-pixel logits.

The sub-problem fixes the predictions sigma and minimizes

    eta * sum_{i not in S} xent(y_i, sigma_i) + lambda * sum_N w_ij P(y_i, y_j)

over pseudo-labels y constrained to the simplex and pinned to the ground
truth on scribbles S. Instead of projected descent, each y_i is parameterized
as softmax(l_i) of free logits, which keeps iterates strictly interior. The
scribble constraint is enforced by overriding the softmax output on S with
the one-hot ground truth at every evaluation; the softmax Jacobian at a
vertex is zero, so pinned pixels receive no logit update while their edges
still pull on unlabeled neighbors.

The logits descend by _armijo_descent, which the trainer shares: each step
first tries the last accepted step size (at first the learning rate) and
halves it until the objective drops enough, so it never rises. Divergent
log-based edges contribute the clamped value to the objective, are counted
in the report, and have their gradient skipped at that iterate.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .affinity import AffinityGraph
from .data_terms import row_values
from .errors import DataError, LOG_CLAMP, NumericalError
from .losses import LossConfig, _check_instance
from .potts import edge_sum
from .simplex import (
    LogitField,
    ProbField,
    ScribbleField,
    one_hot_rows,
    softmax_backward,
    softmax_rows,
)


_ARMIJO = 1e-4
_MAX_HALVINGS = 60


@dataclass
class SolverConfig:
    """learning_rate is the first trial step; the Armijo search only halves it."""

    steps: int = 200
    learning_rate: float = 0.075

    def __post_init__(self):
        if int(self.steps) != self.steps or self.steps < 1:
            raise DataError("steps must be an integer >= 1")
        self.steps = int(self.steps)
        if not (np.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise DataError("learning_rate must be positive")


@dataclass
class SolveReport:
    """Objective at the start and after each accepted step, padded with the
    final value to steps + 1 entries if the descent stops early, the
    divergent rows and edges summed over those iterates, and the final
    logits. A solve given those logits as init_logits starts at the returned
    labels: its trace[0] is their objective, so its result is no worse."""

    trace: list[float] = field(default_factory=list)
    final_objective: float = float("nan")
    divergence_events: int = 0
    logits: LogitField | None = None


def _objective(y, s, unlabeled, graph, cfg, grad=False):
    """(value, divergence count, dist-space gradient or None) at y.

    Divergent edges contribute their clamped value and no gradient; data rows
    use the gradient of the clamped coupling.
    """
    vals, vdiv, gdata = row_values(cfg.xent, y[unlabeled], s[unlabeled], grad=grad)
    value = cfg.eta * float(np.sum(vals))
    out = None
    if grad:
        out = np.zeros(y.shape)
        out[unlabeled] = cfg.eta * gdata[0]
    pairwise, ediv = edge_sum(cfg.potts, y, graph, grad_out=out, scale=cfg.lam)
    value += pairwise
    return value, int(np.count_nonzero(vdiv)) + int(np.count_nonzero(ediv)), out


def pseudo_label_objective(
    sigma: ProbField,
    y: ProbField,
    scribbles: ScribbleField,
    graph: AffinityGraph,
    cfg: LossConfig,
) -> float:
    """Sub-problem objective of a candidate y at fixed sigma (clamped logs)."""
    _check_instance(sigma, scribbles, graph)
    unlabeled = ~scribbles.labeled_mask().ravel()
    value, _, _ = _objective(y.flat(), sigma.flat(), unlabeled, graph, cfg)
    return value


def _initial_logits(sigma, init_logits):
    """init_logits if given, else the (clamped) log of sigma."""
    if init_logits is None:
        return np.log(np.maximum(sigma.flat(), LOG_CLAMP))
    if init_logits.data.shape != sigma.data.shape:
        raise DataError("initial logits shape differs from the prediction field")
    return init_logits.flat()


def _armijo_descent(x, value_grad, steps, step0, record=lambda value: None):
    """Armijo backtracking gradient descent; returns (x, value).

    value_grad(x) -> (value, gradient) runs once per trial. A step's first
    trial takes the last accepted step size (at first step0), which halves
    until f(x - t g) < f(x) - 1e-4 t |g|^2 and never grows. The test is
    strict so that a trial which rounds back to x (t |g| below the float
    resolution of x) fails instead of passing as a null step. Stops after
    `steps` steps, at a zero gradient, or after _MAX_HALVINGS failed trials.
    record(value) runs at the start and at each accepted point, right after
    value_grad evaluated it.
    """
    value, grad = value_grad(x)
    record(value)
    t = step0
    for _ in range(steps):
        gnorm2 = float(np.vdot(grad, grad))
        if gnorm2 == 0.0:
            break
        for _ in range(_MAX_HALVINGS):
            cand = x - t * grad
            fc, gc = value_grad(cand)
            if fc < value - _ARMIJO * t * gnorm2:
                break
            t *= 0.5
        else:
            break
        x, value, grad = cand, fc, gc
        record(value)
    return x, value


def solve_pseudo_labels(
    sigma: ProbField,
    init_logits: LogitField | None,
    scribbles: ScribbleField,
    graph: AffinityGraph,
    loss_cfg: LossConfig,
    solver_cfg: SolverConfig,
):
    """Minimize the pseudo-label objective; returns (y, SolveReport).

    The returned field satisfies the scribble constraint exactly (pinned
    one-hots), and report.trace is non-increasing with steps + 1 entries
    ending at the final objective. A start objective that is not finite (eta
    or lambda near the float range) raises NumericalError; from a finite
    start the descent keeps every trace entry finite.
    """
    _check_instance(sigma, scribbles, graph)
    s = sigma.flat()
    lab = scribbles.data.ravel()
    labeled = lab > 0
    unlabeled = ~labeled
    pinned = one_hot_rows(lab[labeled], sigma.classes)
    report = SolveReport()
    events = 0

    def labels(logits):
        y = softmax_rows(logits)
        y[labeled] = pinned
        return y

    def value_grad(logits):
        nonlocal events
        y = labels(logits)
        value, events, grad = _objective(y, s, unlabeled, graph, loss_cfg, grad=True)
        return value, softmax_backward(y, grad)

    def record(value):
        if not (report.trace or np.isfinite(value)):
            raise NumericalError(f"pseudo-label objective at the start point is {value!r}")
        report.trace.append(value)
        report.divergence_events += events

    logits, value = _armijo_descent(_initial_logits(sigma, init_logits), value_grad,
                                    solver_cfg.steps, solver_cfg.learning_rate, record)
    report.trace += [value] * (solver_cfg.steps + 1 - len(report.trace))
    report.final_objective = value
    report.logits = LogitField(logits.reshape(sigma.data.shape))
    return ProbField(labels(logits).reshape(sigma.data.shape)), report


def soft_jaccard(a: ProbField, b: ProbField) -> float:
    """Class-averaged sum-min over sum-max overlap of two soft label fields.

    1.0 iff the fields are identical; a class with zero mass in both fields
    counts as perfectly matched.
    """
    if a.data.shape != b.data.shape:
        raise DataError("soft_jaccard fields differ in shape")
    fa, fb = a.flat(), b.flat()
    num = np.minimum(fa, fb).sum(axis=0)
    den = np.maximum(fa, fb).sum(axis=0)
    ratios = np.where(den > 0.0, num / np.where(den > 0.0, den, 1.0), 1.0)
    return float(np.mean(ratios))
