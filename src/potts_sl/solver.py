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

The solver holds its state class-major: logits, labels and gradients are
(K, N) class planes, C-contiguous. The softmax, coupling and Potts routines
all take those planes, so every class-axis step, the coupling's included,
runs over whole contiguous planes and no evaluation gathers or scatters
pixel columns. One core, _solve_planes, runs every solve on the planes of
a checked instance: solve_pseudo_labels checks once and transposes once
on entry and on exit, and the trainer checks once per alternation and
passes planes from round to round. plane_sum's buffers (a PlaneWorkspace)
live one solve; their reuse saves kernel page-fault time, not numpy time.
The gradient is a fresh array at each evaluation, since the descent keeps
the accepted one across refused trials.

The logits descend by _armijo_descent, which the trainer shares, so the
objective never rises and every descent refuses, with NumericalError, a
start it cannot step from. Divergent log-based edges contribute the clamped
value to the objective, are counted in the report, and have their gradient
skipped at that iterate.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .affinity import AffinityGraph
from .errors import DataError, LOG_CLAMP, NumericalError, check_count, check_real
from .losses import JointTerms, LossConfig, _check_instance, _joint_terms
from .potts import PlaneWorkspace, _plane_value, plane_sum
from .simplex import LogitField, ProbField, ScribbleField, softmax_backward, softmax_rows


_ARMIJO = 1e-4
_MAX_HALVINGS = 60


@dataclass
class SolverConfig:
    """learning_rate is the first trial step; the Armijo search only halves it."""

    steps: int = 200
    learning_rate: float = 0.075

    def __post_init__(self):
        self.steps = check_count("steps", self.steps)
        check_real("learning_rate", self.learning_rate, positive=True)


@dataclass
class SolveReport:
    """Objective at the start and after each accepted step, padded with the
    final value to steps + 1 entries if the descent stops early, the
    divergent rows and edges summed over those iterates, the final logits and
    the JointTerms of the final labels (nll 0), whose value is trace[-1]. A
    solve given those logits as init_logits starts at the returned labels:
    its trace[0] is their objective, so its result is no worse. The
    plane-level core returns the logit planes beside it, logits None."""

    trace: list[float] = field(default_factory=list)
    divergence_events: int = 0
    logits: LogitField | None = None
    terms: JointTerms | None = None


def _objective(y, s, free, scribbled, graph, cfg, ws):
    """(JointTerms, divergence count, dist-space gradient) at y.

    y, sigma's planes s and the gradient are (K, N) class planes. free
    indexes the pixels that carry a data term and scribbled the others.
    Divergent edges contribute their clamped value and no gradient; data
    rows use the gradient of the clamped coupling, zeroed at scribbled
    pixels before the eta scaling, so that it scales without overflow there.
    The gradient is the coupling's fresh d/dy planes, into which plane_sum
    adds the pairwise part using ws, the solve's PlaneWorkspace.
    """
    terms, vdiv, gdata = _joint_terms(cfg, np.zeros(0), y, s, free)
    out = gdata[0]
    del gdata  # d/dsigma is freed before plane_sum, whose temporaries then reuse its memory
    out[:, scribbled] = 0.0
    np.multiply(cfg.eta, out, out=out)
    pairwise, ediv = plane_sum(cfg.potts, y, graph, out, cfg.lam, ws)
    return terms._replace(pairwise=pairwise), vdiv + int(np.count_nonzero(ediv)), out


def pseudo_label_objective(
    sigma: ProbField,
    y: ProbField,
    scribbles: ScribbleField,
    graph: AffinityGraph,
    cfg: LossConfig,
) -> float:
    """Sub-problem objective of a candidate y at fixed sigma (clamped logs),
    summed as sl_loss sums it, with no scribble NLL (pairwise by _plane_value)."""
    _, _, free = _check_instance(sigma, scribbles, graph, y)
    yp = y.planes()
    pairwise = _plane_value(cfg.potts, yp, graph, cfg.lam)[0]
    return _joint_terms(cfg, np.zeros(0), yp, sigma.planes(), free, pairwise)[0].value


def _armijo_descent(x, value_grad, steps, step0, record=lambda value: None, name="model"):
    """Armijo backtracking gradient descent; returns (x, value).

    value_grad(x) -> (value, gradient) runs at x and once per trial, all under
    one np.errstate: a start whose value or |g|^2 is not finite raises
    NumericalError naming the `name` objective, and such a trial fails. A
    step's first trial takes the last accepted step size (at first step0),
    which halves until f(x - t g) < f(x) - 1e-4 t |g|^2 and never grows.
    |g|^2 is an einsum, since BLAS would add it in an order set by its thread
    count. The test is strict so that a trial which rounds back to x (t |g|
    below the float resolution of x) fails instead of passing as a null step.
    Stops after `steps` steps, at a zero gradient, or after _MAX_HALVINGS
    failed trials. record(value) runs at the start and at each accepted
    point, right after its evaluation.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        value, grad = value_grad(x)
        gnorm2 = float(np.einsum("i,i->", grad.ravel(), grad.ravel()))
        if not np.isfinite(value):
            raise NumericalError(f"{name} objective at the start point is {value!r}")
        if not np.isfinite(gnorm2):
            raise NumericalError(f"{name} gradient at the start point is not finite")
        record(value)
        t = step0
        for _ in range(steps):
            if gnorm2 == 0.0:
                break
            for _ in range(_MAX_HALVINGS):
                cand = x - t * grad
                fc, gc = value_grad(cand)
                gc2 = float(np.einsum("i,i->", gc.ravel(), gc.ravel()))
                if -np.inf < fc < value - _ARMIJO * t * gnorm2 and gc2 < np.inf:
                    break
                t *= 0.5
            else:
                break
            x, value, grad, gnorm2 = cand, fc, gc, gc2
            record(value)
    return x, value


def _solve_planes(s, logits, scribbled, cls, free, graph, loss_cfg, solver_cfg):
    """solve_pseudo_labels on the planes of a checked instance: sigma's s,
    the start logits and the scribbles' partition. Returns the final logit
    and label planes and the report, whose logits it leaves None."""
    pinned = np.eye(s.shape[0])[:, cls]
    report = SolveReport()
    events, terms = 0, None
    ws = PlaneWorkspace(graph, loss_cfg.lam, s.shape[0])

    def labels(logits):
        y = softmax_rows(logits)
        y[:, scribbled] = pinned
        return y

    def value_grad(logits):
        nonlocal events, terms
        y = labels(logits)
        terms, events, grad = _objective(y, s, free, scribbled, graph, loss_cfg, ws)
        return terms.value, softmax_backward(y, grad)

    def record(value):
        report.trace.append(value)
        report.terms = terms
        report.divergence_events += events

    logits, value = _armijo_descent(logits, value_grad, solver_cfg.steps,
                                    solver_cfg.learning_rate, record, "pseudo-label")
    report.trace += [value] * (solver_cfg.steps + 1 - len(report.trace))
    return logits, labels(logits), report


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
    ending at the final objective. A start objective or squared gradient norm
    that is not finite (eta or lambda near the float range) raises
    NumericalError; from a finite start every trace entry is finite.
    """
    parts = _check_instance(sigma, scribbles, graph, init_logits=init_logits)
    s = sigma.planes()
    # the descent starts at init_logits if given, else at the (clamped) log of sigma
    logits = np.log(np.maximum(s, LOG_CLAMP)) if init_logits is None else init_logits.planes()
    logits, y, report = _solve_planes(s, logits, *parts, graph, loss_cfg, solver_cfg)
    report.logits = LogitField(logits.T.reshape(sigma.data.shape))
    return ProbField(y.T.reshape(sigma.data.shape)), report


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
