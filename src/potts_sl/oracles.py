"""Independent ground-truth generators for checking the main code paths.

random_walker_solve gives the exact minimizer of the quadratic pseudo-label
objective by solving per-class Laplacian systems; finite_diff_check validates
analytic gradients with central differences; brute_force_discrete enumerates
every labeling of a tiny discrete Potts instance. None of them share
numerical code with the gradient-descent solver they are used to check.

Only random_walker_solve needs scipy. It imports scipy.sparse, its csgraph
and its linalg inside the calls (through _laplacian and cg), so importing
this module, and the package, loads no scipy.
"""

from __future__ import annotations

import numpy as np

from .affinity import AffinityGraph
from .errors import DataError, NumericalError
from .losses import _check_instance
from .simplex import ProbField, ScribbleField, one_hot_rows

_CG_TOL = 1e-10


def cg(*args, **kwargs):
    """scipy.sparse.linalg.cg, imported at the first call.

    random_walker_solve calls the solver through this module-level name, so
    a caller can replace it to fake or instrument the solves.
    """
    from scipy.sparse.linalg import cg as scipy_cg

    return scipy_cg(*args, **kwargs)


def _laplacian(graph: AffinityGraph):
    """Weighted graph Laplacian D - W as a scipy CSR matrix."""
    from scipy import sparse

    n = graph.npixels
    rows = np.concatenate([graph.ei, graph.ej])
    cols = np.concatenate([graph.ej, graph.ei])
    vals = np.concatenate([-graph.w, -graph.w])
    lap = sparse.coo_matrix((vals, (rows, cols)), shape=(n, n)).tocsr()
    lap = lap + sparse.diags(graph.degrees())
    return lap.tocsr()


def random_walker_solve(
    sigma: ProbField,
    scribbles: ScribbleField,
    graph: AffinityGraph,
    eta: float,
    lam: float,
) -> ProbField:
    """Exact minimizer of the quadratic pseudo-label objective.

    Minimizes eta * sum_{i not in S} ||y_i - sigma_i||^2 plus lambda times the
    affinity-weighted quadratic pairwise sum (with its 1/2 factor), subject to
    y_i pinned to the ground-truth one-hot on scribbles. Stationarity gives
    one sparse SPD system per class,

        (2 eta I + lambda L)_UU y_U = 2 eta sigma_U + lambda W_US ybar_S,

    solved by Jacobi-preconditioned conjugate gradients to 1e-10. Row sums of
    the solution are exactly 1 because the constant vector solves the summed
    system. When 2 eta <= eps * lambda * max(w) (eta = 0 included), a pixel
    group that no edge above eps * max(w) connects to a scribble makes the
    system singular in floating point, and NumericalError is raised before
    any solve. A solution that is not a probability field anyway also raises
    NumericalError.
    """
    from scipy import sparse
    from scipy.sparse.csgraph import connected_components

    _check_instance(sigma, scribbles, graph)
    if not (np.isfinite(eta) and eta >= 0 and np.isfinite(lam) and lam >= 0):
        raise DataError("eta and lambda must be finite and >= 0")

    n, k = graph.npixels, sigma.classes
    lab = scribbles.data.ravel()
    labeled = lab > 0
    unlabeled_idx = np.flatnonzero(~labeled)
    out = np.empty((n, k))
    if labeled.any():
        out[labeled] = one_hot_rows(lab[labeled], k)
    if unlabeled_idx.size == 0:
        return ProbField(out.reshape(sigma.data.shape))

    eps_w = np.finfo(float).eps * graph.w.max(initial=0.0)
    if 2.0 * eta <= lam * eps_w:
        # lambda * L_UU alone is singular on any component without a scribble,
        # and numerically so when a group reaches every scribble only through
        # edges below eps * max(w): its condition number then exceeds 1/eps.
        # A diagonal 2 eta that small does not lift it above that bound.
        pos = graph.w > eps_w
        adj = sparse.coo_matrix(
            (graph.w[pos], (graph.ei[pos], graph.ej[pos])), shape=(n, n)
        )
        ncomp, comp = connected_components(adj, directed=False)
        grounded = np.zeros(ncomp, dtype=bool)
        grounded[comp[labeled]] = True
        if not grounded[comp[unlabeled_idx]].all():
            raise NumericalError(
                "singular system: eta is negligible next to lambda * max(w) "
                "and a component has no scribble"
            )

    lap = _laplacian(graph)
    system = (2.0 * eta) * sparse.identity(n, format="csr") + lam * lap
    a_uu = system[unlabeled_idx][:, unlabeled_idx].tocsr()

    s_u = 2.0 * eta * sigma.flat()[unlabeled_idx]
    rhs = s_u.copy()
    if labeled.any():
        labeled_idx = np.flatnonzero(labeled)
        # off-diagonal block of the system is -lambda * W_US
        w_us = -system[unlabeled_idx][:, labeled_idx]
        rhs += np.asarray(w_us @ out[labeled])

    diag = a_uu.diagonal()
    if np.any(diag <= 0):
        raise NumericalError("singular system: zero diagonal in the Laplacian block")
    precond = sparse.diags(1.0 / diag)

    for c in range(k):
        x, info = cg(a_uu, rhs[:, c], rtol=_CG_TOL, atol=0.0, M=precond)
        if info != 0:
            raise NumericalError(f"conjugate gradient failed to converge (info={info})")
        out[unlabeled_idx, c] = x
    try:
        return ProbField(out.reshape(sigma.data.shape))
    except DataError as exc:
        raise NumericalError(f"random-walker solution is not on the simplex: {exc}") from exc


def finite_diff_check(f, analytic_grad, point, step: float = 1e-5) -> float:
    """Max coordinate-wise relative error of a gradient vs central differences.

    f maps a flat float array to a scalar; analytic_grad is either the
    gradient array at `point` or a callable returning it. The per-coordinate
    error is |analytic - numeric| / max(1, |numeric|), so small entries are
    compared absolutely and large ones relatively.
    """
    x0 = np.asarray(point, dtype=np.float64).ravel().copy()
    grad = analytic_grad(x0) if callable(analytic_grad) else analytic_grad
    grad = np.asarray(grad, dtype=np.float64).ravel()
    if grad.shape != x0.shape:
        raise DataError("analytic gradient shape differs from the point")
    worst = 0.0
    for i in range(x0.size):
        x = x0.copy()
        x[i] = x0[i] + step
        fp = f(x)
        x[i] = x0[i] - step
        fm = f(x)
        if not (np.isfinite(fp) and np.isfinite(fm)):
            raise NumericalError("function diverged inside the difference stencil")
        num = (fp - fm) / (2.0 * step)
        err = abs(grad[i] - num) / max(1.0, abs(num))
        worst = max(worst, err)
    return worst


def brute_force_discrete(unary: np.ndarray, graph: AffinityGraph, lam: float):
    """Global minimizer of a tiny discrete Potts energy by full enumeration.

    Energy is sum_i unary[i, k_i] + lam * sum_edges w_ij [k_i != k_j] over
    labelings in {1..K}^N. Limited to N <= 16 pixels and K <= 3 classes; ties
    are broken toward the lexicographically smallest labeling. Returns
    (labels, energy) with 1-based labels.
    """
    u = np.asarray(unary, dtype=np.float64)
    if u.ndim != 2:
        raise DataError("unary costs must be (N, K)")
    n, k = u.shape
    if n != graph.npixels:
        raise DataError("unary row count differs from the graph")
    if n > 16 or k > 3:
        raise DataError(f"instance too large for enumeration: N={n}, K={k}")

    total = k**n
    weights = lam * graph.w
    pix = np.arange(n)
    # most-significant digit first => enumeration order is lexicographic
    place = k ** (n - 1 - pix)

    best_energy = np.inf
    best_labels = None
    chunk = 1 << 18
    for start in range(0, total, chunk):
        idx = np.arange(start, min(start + chunk, total), dtype=np.int64)
        digits = (idx[:, None] // place[None, :]) % k
        energy = u[pix[None, :], digits].sum(axis=1)
        if graph.nedges:
            mismatch = digits[:, graph.ei] != digits[:, graph.ej]
            energy += mismatch @ weights
        j = int(np.argmin(energy))
        if energy[j] < best_energy:
            best_energy = float(energy[j])
            best_labels = digits[j] + 1
    return best_labels.astype(np.int64), best_energy


def discrete_energy(labels: np.ndarray, unary: np.ndarray, graph: AffinityGraph, lam: float) -> float:
    """Energy of one labeling under the same discrete Potts model."""
    lab = np.asarray(labels, dtype=np.int64).ravel()
    u = np.asarray(unary, dtype=np.float64)
    if lab.size != u.shape[0] or lab.size != graph.npixels:
        raise DataError("labeling length differs from the instance")
    value = float(u[np.arange(lab.size), lab - 1].sum())
    if graph.nedges:
        value += float(lam * np.dot(graph.w, lab[graph.ei] != lab[graph.ej]))
    return value
