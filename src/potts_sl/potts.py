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
dP/dp = a_p p + b q and dP/dq = a_q q + b p. Each kernel returns its values
and these gradient terms in one call, as three per-edge coefficients rather
than two (E, K) gradient arrays:

  kind  a_p                a_q                b
  BL    0                  0                  -1
  Q     1                  1                  -1
  NQ    s / (|p|^2 ab)     s / (|q|^2 ab)     -1 / ab
  CCE   0                  0                  -1 / ss
  CD    1 / |p|^2          1 / |q|^2          -1 / ss
  LQ    1 / uu             1 / uu             -1 / uu

with s = p.q, ab = sqrt(|p|^2 |q|^2), and ss, uu the clamped ln arguments.
The edge sum (plane_sum) returns the value and adds the gradient, a pixel's
as own * y plus the b-weighted sum of its neighbours. It works on
class-major fields, y held as (K, N) class planes, so each product and sum
steps over a whole contiguous plane rather than K-long rows. On a grid
graph each of graph.runs (one per grid offset) is one contiguous stretch of
the planes, whose pairs across row ends are not edges: they carry weight 0
and are left out of the values and divergence masks. Values and masks are
bit-identical to evaluating each edge on its own; gradients are the same
sums in another order, equal to the per-edge formulas within a few units in
the last place. potts_grad sums its one pair with plane_sum too, so the
gradient checks test this assembly. The value functions (potts_sum, the
losses, the solver's objective) drop the gradient, unreported if it
overflows (_plane_value).

A PlaneWorkspace holds the grid path's edge- and plane-sized buffers: the
values, own, the products b * y, and each run's scaled zero-padded weights
and coefficients. The pseudo-label solve passes one to all its evaluations,
so these buffers live for one solve; a call without one builds its own.
The arithmetic is the same either way. The solve saves the kernel's time
faulting in memory that the allocator returned between calls, not numpy
time.
"""

from __future__ import annotations

import enum

import numpy as np

from .affinity import AffinityGraph
from .errors import DIVERGENT, DataError, DivergentPointError, LOG_CLAMP
from .simplex import ProbField, _pair_arrays, _row_dot


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


def _row_terms(kind, y):
    """Per-row terms of y (..., K) that kind's kernel reads on both edge sides:
    (|y|^2, |y|) for NQ, (|y|, 1 / |y|^2) for CD, none for the other kinds."""
    if kind not in (PottsKind.NQ, PottsKind.CD):
        return ()
    n2 = _row_dot(y, y)
    if kind is PottsKind.NQ:
        return n2, np.sqrt(n2)
    return np.sqrt(n2), 1.0 / n2


# Each kernel takes the pair (p, q) and their row terms (tp, tq) and returns
# (values, divergent-or-None, coefficients). The coefficients (a_p, a_q, b) of
# the module table are per-edge arrays or constants, possibly views of the row
# terms; _evaluate makes them fresh.


def _bl(p, q, tp, tq):
    return 1.0 - _row_dot(p, q), None, (0.0, 0.0, -1.0)


def _q(p, q, tp, tq):
    d = p - q
    return 0.5 * _row_dot(d, d), None, (1.0, 1.0, -1.0)


def _nq(p, q, tp, tq):
    (a2, ra), (b2, rb) = tp, tq
    s = _row_dot(p, q)
    ab = np.sqrt(a2 * b2)
    return 1.0 - s / (ra * rb), None, (s / (a2 * ab), s / (b2 * ab), -1.0 / ab)


def _cce(p, q, tp, tq):
    s = _row_dot(p, q)
    ss = np.maximum(s, LOG_CLAMP)
    return -np.log(ss), s <= LOG_CLAMP, (0.0, 0.0, -1.0 / ss)


def _cd(p, q, tp, tq):
    (ra, ia), (rb, ib) = tp, tq
    s = _row_dot(p, q)
    c = s / (ra * rb)
    coefs = (ia, ib, -1.0 / np.maximum(s, LOG_CLAMP))
    return -np.log(np.maximum(c, LOG_CLAMP)), c <= LOG_CLAMP, coefs


def _lq(p, q, tp, tq):
    d = p - q
    u = 1.0 - 0.5 * _row_dot(d, d)
    uu = np.maximum(u, LOG_CLAMP)
    r = 1.0 / uu
    return -np.log(uu), u <= LOG_CLAMP, (r, r, -r)


_KERNELS = {
    PottsKind.BL: _bl,
    PottsKind.Q: _q,
    PottsKind.NQ: _nq,
    PottsKind.CCE: _cce,
    PottsKind.CD: _cd,
    PottsKind.LQ: _lq,
}


def _evaluate(kind, p, q, tp, tq, weights, out=(None, None, None)):
    """(values, divergent, coefficients) on pairs whose row terms
    (_row_terms) are already known, from one kernel call.

    The coefficients are the kernel's (a_p, a_q, b) times weights (an array
    the shape of the values), zero on divergent edges: written into the three
    arrays of out, or fresh arrays the shape of the values where out holds
    None. Values and mask are the kernel's, computed before any weighting.
    """
    kernel = _KERNELS.get(kind)
    if kernel is None:
        raise DataError(f"unknown Potts kind {kind!r}")
    values, div, coefs = kernel(p, q, tp, tq)
    if div is None:
        div = np.zeros(values.shape, dtype=bool)
    elif div.any():
        weights = np.where(div, 0.0, weights)
    return values, div, tuple(np.multiply(c, weights, out=o) for c, o in zip(coefs, out))


class PlaneWorkspace:
    """The buffers that plane_sum calls on one grid graph, scale and class
    count share: the (E,) values in edge order, the (N,) array own, (K, N)
    product planes (own * y, and a (K, n) view per run for b * y), and per
    run of graph.runs its scale * w zero-padded at the wrap pairs and its
    (a_p, a_q, b) buffers: a_p shared by all runs, a_q and b kept per run for
    the target pass. A graph with no layout has no runs, and plane_sum uses
    none of its buffers. It serves one call at a time; the masks plane_sum
    returns and the gradient planes it adds into never alias it.
    """

    def __init__(self, graph: AffinityGraph, scale, classes: int):
        self.graph, self.scale, self.classes = graph, scale, classes
        self.values, self.own = np.empty(graph.nedges), np.empty(graph.npixels)
        self.products = np.empty((classes, graph.npixels))
        _, width = graph.grid or (0, 0)
        weights = scale * graph.w
        sizes = [(h - 1) * width + w for _, _, h, w in graph.runs]
        ap = np.empty(max(sizes, default=0))
        self.runs, start = [], 0
        for (a, t, h, w), n in zip(graph.runs, sizes):
            wb = np.zeros(n)
            _at_edges(wb, h, w, width)[...] = weights[start : start + h * w].reshape(h, w)
            self.runs.append((wb, (ap[:n], np.empty(n), np.empty(n)),
                              self.products.reshape(-1)[: classes * n].reshape(classes, n)))
            start += h * w


def plane_sum(kind: PottsKind, planes: np.ndarray, graph: AffinityGraph, grad_planes: np.ndarray,
              scale=1.0, workspace: PlaneWorkspace | None = None):
    """scale * sum_e w_e P(y_i, y_j) over the edges of graph, with y held as
    C-contiguous (K, N) class planes, and its gradient.

    Returns (value, divergent) with the per-edge divergence mask in edge
    order, a fresh array, and adds scale * w_e * dP into grad_planes, (K, N)
    planes of the same layout (DataError if not C-contiguous), with the
    gradient of divergent edges skipped.

    The per-row terms a kernel reads on both sides of an edge (|y|^2 and |y|
    for NQ; |y| and 1 / |y|^2 for CD) are computed once per call on all N
    rows, not once per edge side. The kernels see class-last views of the
    planes, so every class-axis step they take is a whole contiguous plane.

    The gradient is built from each edge's coefficients (a_p, a_q, b) times
    scale * w_e. An (N,) array `own` sums a_p over the edges leaving a pixel
    and a_q over the edges entering it; each class plane receives b * y_j at
    each source i and b * y_i at each target j; own * y is added last. So
    the only per-edge work on the planes is one product and one sum per edge
    side and class. Values and divergence masks are bit-identical to
    evaluating each edge on its own; the gradient reorders the per-edge sums
    and matches them within a few units in the last place of its largest
    entry.

    A graph with a grid layout is walked one of graph.runs at a time, each as
    one contiguous stretch of the planes and the row terms, with no gather
    and no scatter. Run (a, t, h, w) of an H x W grid pairs the
    n = (h - 1) W + w pixels from a with the n pixels from t; the kernels
    see the class-last views of the two (K, n) slices. Its edges are the
    positions r W + c (r < h, c < w), in edge order. The other pairs wrap
    from one row's end to the next row's start and are not edges. They get
    weight 0, so their coefficients are +-0. With scale >= 0, a_p, a_q >= 0
    add +0.0 to own, which only holds sums of such terms, and b <= 0 makes
    b * y -0.0 on y >= 0, the exact additive identity. Values and masks are
    written at the edge positions only (an (h, w) view of the run), so a
    wrap pair that diverges reaches neither. A run evaluates (h - 1) W + w
    pairs for h w edges: a few percent more on a small window, and over all
    the runs of a window as wide as the image about twice as many.

    The grid path writes the values, own, the coefficients and the products
    into workspace, a PlaneWorkspace built for this graph, scale and K
    (DataError for any other), or into one it builds for the call. The
    pseudo-label solve passes one workspace to all its evaluations, so their
    buffers are faulted in once per solve instead of once per call: the
    saving is kernel page-fault time, not numpy time.

    Any other graph gathers planes[:, ei], planes[:, ej] and the row terms
    and scatters into each class plane with np.add.at; it ignores the
    workspace. Both paths give bit-identical results: the per-edge
    arithmetic is the same, values and masks are laid out in edge order
    before the one dot with w (an einsum: BLAS would add in an order set by
    its thread count), and own and the gradient receive every run's
    source-side terms first, then (from the a_q and b kept per run) every
    run's target-side terms.
    A pixel occurs at most once per run, so each entry receives its terms in
    the same order as np.add.at's pass over ei, then over ej.
    """
    if not grad_planes.flags.c_contiguous:
        raise DataError("grad_planes must be C-contiguous")
    classes = planes.shape[0]
    if workspace is not None and (workspace.graph is not graph or workspace.scale != scale
                                  or workspace.classes != classes):
        raise DataError("plane_sum workspace was built for another graph, scale or class count")
    terms = _row_terms(kind, planes.T)
    if graph.grid is None:
        ei, ej = graph.ei, graph.ej
        p, q = planes[:, ei], planes[:, ej]
        v, div, (ap, aq, b) = _evaluate(kind, p.T, q.T, [t[ei] for t in terms],
                                        [t[ej] for t in terms], scale * graph.w)
        own = np.zeros(planes.shape[1])
        np.add.at(own, ei, ap)
        for g, qk in zip(grad_planes, q):
            np.add.at(g, ei, b * qk)
        np.add.at(own, ej, aq)
        for g, pk in zip(grad_planes, p):
            np.add.at(g, ej, b * pk)
        grad_planes += own * planes
        return scale * float(np.einsum("e,e->", graph.w, v)), div

    ws = PlaneWorkspace(graph, scale, classes) if workspace is None else workspace
    width = graph.grid[1]
    values, divs, own = ws.values, np.empty(graph.nedges, dtype=bool), ws.own
    own.fill(0.0)
    targets = []
    start = 0
    for (a, t, h, w), (wb, out, prod_n) in zip(graph.runs, ws.runs):
        n = (h - 1) * width + w
        p, q = planes[:, a : a + n], planes[:, t : t + n]
        v, div, (ap, aq, b) = _evaluate(kind, p.T, q.T, [x[a : a + n] for x in terms],
                                        [x[t : t + n] for x in terms], wb, out)
        own[a : a + n] += ap
        grad_planes[:, a : a + n] += np.multiply(b, q, out=prod_n)
        targets.append((t, aq, b, p, prod_n))
        edges = slice(start, start + h * w)
        values[edges].reshape(h, w)[...] = _at_edges(v, h, w, width)
        divs[edges].reshape(h, w)[...] = _at_edges(div, h, w, width)
        start += h * w
    for t, aq, b, p, prod_n in targets:
        own[t : t + aq.size] += aq
        grad_planes[:, t : t + aq.size] += np.multiply(b, p, out=prod_n)
    grad_planes += np.multiply(own, planes, out=ws.products)
    return scale * float(np.einsum("e,e->", graph.w, values)), divs


def _plane_value(kind, planes, graph, scale=1.0):
    """plane_sum's (value, divergent), its gradient assembled into scratch
    planes and dropped with overflow and invalid values unreported: at a scale
    near the float range it overflows where the value only reaches inf."""
    with np.errstate(over="ignore", invalid="ignore"):
        return plane_sum(kind, planes, graph, np.zeros(planes.shape), scale)


def _at_edges(run, h, w, width):
    """(h, w) view of the edge positions r * width + c of a 1-D run."""
    step = run.strides[0]
    return np.ndarray((h, w), run.dtype, run, 0, (width * step, step))


def potts_value(kind: PottsKind, p, q):
    """P(p, q) for one pair; DIVERGENT if a log argument hits the clamp.

    The value is the kernel's own, as plane_sum evaluates each edge: its
    weighted sum would turn the -0.0 of -ln 1 into +0.0.
    """
    a, b = _pair_arrays(p, q)
    v, div, _ = _evaluate(kind, a, b, _row_terms(kind, a), _row_terms(kind, b), np.ones(1))
    if div[0]:
        return DIVERGENT
    return float(v[0])


# The one-edge graph potts_grad sums its pair on, held as (K, 2) planes.
_PAIR = AffinityGraph(2, [0], [1], [1.0], grid=(1, 2))


def potts_grad(kind: PottsKind, p, q):
    """(dP/dp, dP/dq) for one pair, assembled by plane_sum; refuses divergent
    points."""
    a, b = _pair_arrays(p, q)
    planes = np.stack([a[0], b[0]], axis=1)
    grad = np.zeros_like(planes)
    _, div = plane_sum(kind, planes, _PAIR, grad)
    if div[0]:
        raise DivergentPointError(f"{kind.name} gradient requested at a divergent pair")
    return tuple(grad.T.copy())


def potts_sum(kind: PottsKind, field: ProbField, graph: AffinityGraph):
    """Weighted sum of P over all graph edges.

    Returns DIVERGENT if any positively weighted edge diverges.
    """
    graph.check_covers(field.height, field.width)
    value, div = _plane_value(kind, field.planes(), graph)
    if np.any(div & (graph.w > 0)):
        return DIVERGENT
    return value


def potts_sum_grad(kind: PottsKind, field: ProbField, graph: AffinityGraph):
    """(value, gradient) of the weighted edge sum; gradient is (H, W, K).

    Raises DivergentPointError if any positively weighted edge diverges.
    """
    graph.check_covers(field.height, field.width)
    y = field.planes()
    grad = np.zeros_like(y)
    value, div = plane_sum(kind, y, graph, grad)
    if np.any(div & (graph.w > 0)):
        raise DivergentPointError(f"{kind.name} edge sum has a divergent edge")
    return value, grad.T.reshape(field.data.shape)
