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

edge_sum computes the per-row terms NQ and CD read on both sides of an edge
(|y|^2, |y| and y / |y|^2) once per call on the whole field rather than once
per edge side. Each term is the same per-row operation on the same row, so
sums stay bit-identical to evaluating every edge on its own.
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
    (|y|^2, |y|) for NQ, (|y|, y / |y|^2) for CD, none for the other kinds."""
    if kind not in (PottsKind.NQ, PottsKind.CD):
        return ()
    n2 = _dot(y, y)
    if kind is PottsKind.NQ:
        return n2, np.sqrt(n2)
    return np.sqrt(n2), y / n2[..., None]


# Each kernel takes the pair (p, q), their row terms (tp, tq) and the grad
# flag, and returns (values, divergent-or-None, fresh grad arrays or None).


def _bl(p, q, tp, tq, grad):
    return 1.0 - _dot(p, q), None, (-q, -p) if grad else None


def _q(p, q, tp, tq, grad):
    d = p - q
    return 0.5 * _dot(d, d), None, (d, -d) if grad else None


def _nq(p, q, tp, tq, grad):
    (a2, ra), (b2, rb) = tp, tq
    s = _dot(p, q)
    grads = None
    if grad:
        ab = np.sqrt(a2 * b2)[..., None]
        grads = ((s / a2)[..., None] * p / ab - q / ab, (s / b2)[..., None] * q / ab - p / ab)
    return 1.0 - s / (ra * rb), None, grads


def _cce(p, q, tp, tq, grad):
    s = _dot(p, q)
    ss = np.maximum(s, LOG_CLAMP)
    grads = (-q / ss[..., None], -p / ss[..., None]) if grad else None
    return -np.log(ss), s <= LOG_CLAMP, grads


def _cd(p, q, tp, tq, grad):
    (ra, ua), (rb, ub) = tp, tq
    s = _dot(p, q)
    c = s / (ra * rb)
    grads = None
    if grad:
        ss = np.maximum(s, LOG_CLAMP)[..., None]
        grads = (ua - q / ss, ub - p / ss)
    return -np.log(np.maximum(c, LOG_CLAMP)), c <= LOG_CLAMP, grads


def _lq(p, q, tp, tq, grad):
    d = p - q
    u = 1.0 - 0.5 * _dot(d, d)
    uu = np.maximum(u, LOG_CLAMP)
    grads = (d / uu[..., None], -d / uu[..., None]) if grad else None
    return -np.log(uu), u <= LOG_CLAMP, grads


_KERNELS = {
    PottsKind.BL: _bl,
    PottsKind.Q: _q,
    PottsKind.NQ: _nq,
    PottsKind.CCE: _cce,
    PottsKind.CD: _cd,
    PottsKind.LQ: _lq,
}


def _evaluate(kind, p, q, tp, tq, grad):
    """edge_values on pairs whose row terms (_row_terms) are already known."""
    kernel = _KERNELS.get(kind)
    if kernel is None:
        raise DataError(f"unknown Potts kind {kind!r}")
    values, div, grads = kernel(p, q, tp, tq, grad)
    if div is None:
        div = np.zeros(values.shape, dtype=bool)
    elif grads is not None and div.any():
        grads[0][div] = 0.0
        grads[1][div] = 0.0
    return values, div, grads


def edge_values(kind: PottsKind, p: np.ndarray, q: np.ndarray, grad: bool = False):
    """Vectorized P over (..., K) pairs, with (dP/dp, dP/dq) when grad is set.

    Returns (values, divergent, grads) where values are exact for
    non-divergent rows and log-clamped (-ln LOG_CLAMP) on divergent ones,
    divergent flags rows whose ln argument fell at/below the clamp, and grads
    is None or the pair (dP/dp, dP/dq) with divergent rows zeroed; callers
    decide whether to refuse (potts_grad) or skip and count (the solver).
    """
    return _evaluate(kind, p, q, _row_terms(kind, p), _row_terms(kind, q), grad)


def edge_sum(kind: PottsKind, y: np.ndarray, graph: AffinityGraph, grad_out=None, scale=1.0):
    """scale * sum_e w_e P(y_i, y_j) over the edges of graph; y is (N, K).

    Returns (value, divergent) with the per-edge divergence mask in edge
    order. When grad_out (N, K, C-contiguous) is given, scale * w_e * dP is
    added into it, with the gradient of divergent edges skipped.

    The per-row terms a kernel reads on both sides of an edge (|y|^2 and |y|
    for NQ; |y| and y / |y|^2 for CD) are computed once per call on all N
    rows, not once per edge side (up to 24 times per row on sparse:2). Each
    term is the per-row operation an edge-by-edge evaluation would apply to
    the same row, and the CD gradient y/|y|^2 - q/s equals -q/s + y/|y|^2
    exactly (IEEE addition commutes, negation is exact), so results are
    bit-identical to evaluating every edge on its own.

    A graph with a grid layout is walked one offset block at a time on
    shifted slices of y viewed as (H, W, K), and of the row terms viewed as
    (H, W, ...): no (E, K) gather and no scatter. Any other graph gathers
    y[ei], y[ej] and the row terms the same way and scatters with np.add.at.
    Both paths give bit-identical results: the per-edge arithmetic is the
    same, values and masks are concatenated in edge order before the one dot
    with w, and the gradient is added first as every block's dP/dp into its
    sources, then as every block's dP/dq into its targets. A pixel occurs at
    most once per block side, so each gradient entry receives its terms in
    the same order as np.add.at's pass over ei, then over ej.
    """
    grad = grad_out is not None
    if graph.grid is None:
        ei, ej = graph.ei, graph.ej
        terms = _row_terms(kind, y)
        v, div, grads = _evaluate(kind, y[ei], y[ej], [t[ei] for t in terms],
                                  [t[ej] for t in terms], grad)
        if grad:
            weights = (scale * graph.w)[:, None]
            for index, g in zip((ei, ej), grads):
                g *= weights
                np.add.at(grad_out, index, g)
        return scale * float(np.dot(graph.w, v)), div

    field = y.reshape(*graph.grid, -1)
    terms = _row_terms(kind, field)
    if grad:
        if not grad_out.flags.c_contiguous:
            raise DataError("grad_out must be C-contiguous to take grid-block updates")
        out = grad_out.reshape(field.shape)  # a view, as grad_out is contiguous
        weights = scale * graph.w
    vs, divs, target_terms = [np.zeros(0)], [np.zeros(0, dtype=bool)], []
    start = 0
    for src, dst in graph.blocks:
        v, div, grads = _evaluate(kind, field[src], field[dst], [t[src] for t in terms],
                                  [t[dst] for t in terms], grad)
        if grad:
            wb = weights[start : start + v.size].reshape(v.shape)[..., None]
            gp, gq = grads
            gp *= wb
            out[src] += gp
            gq *= wb
            target_terms.append(gq)
        vs.append(v.ravel())
        divs.append(div.ravel())
        start += v.size
    for (_, dst), term in zip(graph.blocks, target_terms):
        out[dst] += term
    return scale * float(np.dot(graph.w, np.concatenate(vs))), np.concatenate(divs)


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
