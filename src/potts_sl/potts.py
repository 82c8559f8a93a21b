"""Pairwise relaxations of the Potts smoothness penalty, with gradients.

Six interaction potentials P(p, q) on pairs of simplex points:

  BL   1 - p.q                    bilinear; tight w.r.t. the discrete model
  Q    ||p - q||^2 / 2            quadratic; the random-walker energy
  NQ   1 - p.q / (|p| |q|)        normalized quadratic (cosine dissimilarity)
  CCE  -ln p.q                    collision cross-entropy
  CD   -ln ( p.q / (|p| |q|) )    collision divergence = -ln(1 - NQ)
  LQ   -ln (1 - ||p - q||^2 / 2)  log-quadratic

All six vanish on equal one-hot pairs; BL/Q/NQ equal 1 on differing one-hots
while the log-based three diverge there. Divergence is surfaced as the
DIVERGENT sentinel for values and as DivergentPointError for gradients.

Values extend smoothly to positive vectors slightly off the simplex, which
the finite-difference gradient checks rely on.

The gradient on an edge is a combination of its two endpoints,
dP/dp = a_p p + b q and dP/dq = a_q q + b p, so each kernel returns three
per-edge coefficients rather than two (E, K) gradient arrays:

  kind  a_p                a_q                b
  BL    0                  0                  -1
  Q     1                  1                  -1
  NQ    s / (|p|^2 ab)     s / (|q|^2 ab)     -1 / ab
  CCE   0                  0                  -1 / ss
  CD    1 / |p|^2          1 / |q|^2          -1 / ss
  LQ    1 / uu             1 / uu             -1 / uu

with s = p.q, ab = sqrt(|p|^2 |q|^2), and ss, uu the clamped ln arguments.
edge_sum adds a pixel's gradient as own * y plus the b-weighted sum of its
neighbours. Values and divergence masks are bit-identical to evaluating each
edge on its own; gradients are the same sums in another order, equal to the
per-edge formulas within a few units in the last place.
"""

from __future__ import annotations

import enum

import numpy as np

from .affinity import AffinityGraph
from .errors import DIVERGENT, DataError, DivergentPointError, LOG_CLAMP
from .simplex import ProbField, _pair_arrays


class PottsKind(enum.Enum):
    BL = "bl"
    Q = "q"
    NQ = "nq"
    CCE = "cce"
    CD = "cd"
    LQ = "lq"

    @classmethod
    def parse(cls, name: str) -> "PottsKind":
        try:
            return cls(name.strip().lower())
        except ValueError:
            raise DataError(f"unknown Potts relaxation {name!r}") from None


LOG_KINDS = frozenset({PottsKind.CCE, PottsKind.CD, PottsKind.LQ})


def _dot(a, b):
    return np.einsum("...k,...k->...", a, b)


def _row_terms(kind, y):
    """Per-row terms of y (..., K) that kind's kernel reads on both edge sides:
    (|y|^2, |y|) for NQ, (|y|, 1 / |y|^2) for CD, none for the other kinds."""
    if kind not in (PottsKind.NQ, PottsKind.CD):
        return ()
    n2 = _dot(y, y)
    if kind is PottsKind.NQ:
        return n2, np.sqrt(n2)
    return np.sqrt(n2), 1.0 / n2


# Each kernel takes the pair (p, q), their row terms (tp, tq) and the grad
# flag, and returns (values, divergent-or-None, coefficients-or-None). The
# coefficients (a_p, a_q, b) of the module table are per-edge arrays or
# constants, possibly views of the row terms; _evaluate makes them fresh.


def _bl(p, q, tp, tq, grad):
    return 1.0 - _dot(p, q), None, (0.0, 0.0, -1.0) if grad else None


def _q(p, q, tp, tq, grad):
    d = p - q
    return 0.5 * _dot(d, d), None, (1.0, 1.0, -1.0) if grad else None


def _nq(p, q, tp, tq, grad):
    (a2, ra), (b2, rb) = tp, tq
    s = _dot(p, q)
    coefs = None
    if grad:
        ab = np.sqrt(a2 * b2)
        coefs = (s / (a2 * ab), s / (b2 * ab), -1.0 / ab)
    return 1.0 - s / (ra * rb), None, coefs


def _cce(p, q, tp, tq, grad):
    s = _dot(p, q)
    ss = np.maximum(s, LOG_CLAMP)
    return -np.log(ss), s <= LOG_CLAMP, (0.0, 0.0, -1.0 / ss) if grad else None


def _cd(p, q, tp, tq, grad):
    (ra, ia), (rb, ib) = tp, tq
    s = _dot(p, q)
    c = s / (ra * rb)
    coefs = (ia, ib, -1.0 / np.maximum(s, LOG_CLAMP)) if grad else None
    return -np.log(np.maximum(c, LOG_CLAMP)), c <= LOG_CLAMP, coefs


def _lq(p, q, tp, tq, grad):
    d = p - q
    u = 1.0 - 0.5 * _dot(d, d)
    uu = np.maximum(u, LOG_CLAMP)
    coefs = None
    if grad:
        r = 1.0 / uu
        coefs = (r, r, -r)
    return -np.log(uu), u <= LOG_CLAMP, coefs


_KERNELS = {
    PottsKind.BL: _bl,
    PottsKind.Q: _q,
    PottsKind.NQ: _nq,
    PottsKind.CCE: _cce,
    PottsKind.CD: _cd,
    PottsKind.LQ: _lq,
}


def _evaluate(kind, p, q, tp, tq, weights=None):
    """(values, divergent, coefficients) on pairs whose row terms
    (_row_terms) are already known.

    Without weights the coefficients are None. With weights (an array the
    shape of the values) they are (a_p, a_q, b) times weights: fresh arrays
    the shape of the values, zero on divergent edges.
    """
    kernel = _KERNELS.get(kind)
    if kernel is None:
        raise DataError(f"unknown Potts kind {kind!r}")
    values, div, coefs = kernel(p, q, tp, tq, weights is not None)
    if div is None:
        div = np.zeros(values.shape, dtype=bool)
    elif weights is not None and div.any():
        weights = np.where(div, 0.0, weights)
    if weights is not None:
        coefs = tuple(c * weights for c in coefs)
    return values, div, coefs


def edge_values(kind: PottsKind, p: np.ndarray, q: np.ndarray, grad: bool = False):
    """Vectorized P over (..., K) pairs, with (dP/dp, dP/dq) when grad is set.

    Returns (values, divergent, grads) where values are exact for
    non-divergent rows and log-clamped (-ln LOG_CLAMP) on divergent ones,
    divergent flags rows whose ln argument fell at/below the clamp, and grads
    is None or the pair (dP/dp, dP/dq) = (a_p p + b q, a_q q + b p) built
    from the kernel's coefficients, with divergent rows zeroed; callers
    decide whether to refuse (potts_grad) or skip and count (the solver).
    """
    tp, tq = _row_terms(kind, p), _row_terms(kind, q)
    if not grad:
        return _evaluate(kind, p, q, tp, tq)
    ones = np.ones(np.broadcast_shapes(p.shape, q.shape)[:-1])
    values, div, (ap, aq, b) = _evaluate(kind, p, q, tp, tq, ones)
    b = b[..., None]
    return values, div, (ap[..., None] * p + b * q, aq[..., None] * q + b * p)


def edge_sum(kind: PottsKind, y: np.ndarray, graph: AffinityGraph, grad_out=None, scale=1.0):
    """scale * sum_e w_e P(y_i, y_j) over the edges of graph; y is (N, K).

    Returns (value, divergent) with the per-edge divergence mask in edge
    order. When grad_out (N, K, C-contiguous) is given, scale * w_e * dP is
    added into it, with the gradient of divergent edges skipped.

    The per-row terms a kernel reads on both sides of an edge (|y|^2 and |y|
    for NQ; |y| and 1 / |y|^2 for CD) are computed once per call on all N
    rows, not once per edge side.

    The gradient is built from each edge's coefficients (a_p, a_q, b) times
    scale * w_e. An (N,) array `own` sums a_p over the edges leaving a pixel
    and a_q over the edges entering it; grad_out receives b * y_j at each
    source i and b * y_i at each target j; own * y is added last. So the
    only (E, K) work is one product and one sum per edge side. Values and
    divergence masks are bit-identical to evaluating each edge on its own;
    the gradient reorders the per-edge sums and matches them within a few
    units in the last place of its largest entry.

    A graph with a grid layout is walked one offset block at a time on
    shifted slices of y viewed as (H, W, K), and of the row terms viewed as
    (H, W, ...): no (E, K) gather and no scatter. Any other graph gathers
    y[ei], y[ej] and the row terms the same way and scatters with np.add.at.
    Both paths give bit-identical results: the per-edge arithmetic is the
    same, values and masks are concatenated in edge order before the one dot
    with w, and own and grad_out receive every block's source-side terms
    first, then (from the E-long a_q and b kept per block) every block's
    target-side terms. A pixel occurs at most once per block side, so each
    entry receives its terms in the same order as np.add.at's pass over ei,
    then over ej.
    """
    weights = None if grad_out is None else scale * graph.w
    if graph.grid is None:
        ei, ej = graph.ei, graph.ej
        terms = _row_terms(kind, y)
        p, q = y[ei], y[ej]
        v, div, coefs = _evaluate(kind, p, q, [t[ei] for t in terms],
                                  [t[ej] for t in terms], weights)
        if coefs is not None:
            ap, aq, b = coefs
            b = b[:, None]
            own = np.zeros(len(y))
            np.add.at(own, ei, ap)
            np.add.at(grad_out, ei, b * q)
            np.add.at(own, ej, aq)
            np.add.at(grad_out, ej, b * p)
            grad_out += own[:, None] * y
        return scale * float(np.dot(graph.w, v)), div

    field = y.reshape(*graph.grid, -1)
    terms = _row_terms(kind, field)
    if weights is not None:
        if not grad_out.flags.c_contiguous:
            raise DataError("grad_out must be C-contiguous to take grid-block updates")
        out = grad_out.reshape(field.shape)  # a view, as grad_out is contiguous
        own = np.zeros(graph.grid)
    vs, divs, targets = [np.zeros(0)], [np.zeros(0, dtype=bool)], []
    start = 0
    for src, dst in graph.blocks:
        p, q = field[src], field[dst]
        wb = None
        if weights is not None:
            h, w = p.shape[:-1]
            wb = weights[start : start + h * w].reshape(h, w)
        v, div, coefs = _evaluate(kind, p, q, [t[src] for t in terms],
                                  [t[dst] for t in terms], wb)
        if coefs is not None:
            ap, aq, b = coefs
            b = b[..., None]
            own[src] += ap
            out[src] += b * q
            targets.append((dst, aq, b, p))
        vs.append(v)
        divs.append(div)
        start += v.size
    for dst, aq, b, p in targets:
        own[dst] += aq
        out[dst] += b * p
    if weights is not None:
        out += own[..., None] * field
    return (scale * float(np.dot(graph.w, np.concatenate(vs, axis=None))),
            np.concatenate(divs, axis=None))


def potts_value(kind: PottsKind, p, q):
    """P(p, q) for one pair; DIVERGENT if a log argument hits the clamp."""
    v, div, _ = edge_values(kind, *_pair_arrays(p, q))
    if div[0]:
        return DIVERGENT
    return float(v[0])


def potts_grad(kind: PottsKind, p, q):
    """(dP/dp, dP/dq) for one pair; refuses divergent points."""
    _, div, (gp, gq) = edge_values(kind, *_pair_arrays(p, q), grad=True)
    if div[0]:
        raise DivergentPointError(f"{kind.name} gradient requested at a divergent pair")
    return gp[0], gq[0]


def potts_sum(kind: PottsKind, field: ProbField, graph: AffinityGraph):
    """Weighted sum of P over all graph edges.

    Returns DIVERGENT if any positively weighted edge diverges.
    """
    graph.check_covers(field.height, field.width)
    value, div = edge_sum(kind, field.flat(), graph)
    if np.any(div & (graph.w > 0)):
        return DIVERGENT
    return value


def potts_sum_grad(kind: PottsKind, field: ProbField, graph: AffinityGraph):
    """(value, gradient) of the weighted edge sum; gradient is (H, W, K).

    Raises DivergentPointError if any positively weighted edge diverges.
    """
    graph.check_covers(field.height, field.width)
    y = field.flat()
    grad = np.zeros_like(y)
    value, div = edge_sum(kind, y, graph, grad_out=grad)
    if np.any(div & (graph.w > 0)):
        raise DivergentPointError(f"{kind.name} edge sum has a divergent edge")
    return value, grad.reshape(field.data.shape)
