"""Independent ground-truth generators for checking the main code paths.

random_walker_solve gives the exact minimizer of the quadratic pseudo-label
objective by solving per-class Laplacian systems; finite_diff_check validates
analytic gradients with central differences; brute_force_discrete enumerates
every labeling of a tiny discrete Potts instance. None of them share
numerical code with the gradient-descent solver they are used to check.

Only random_walker_solve needs scipy. It imports scipy.sparse inside the
call, and scipy.sparse.csgraph only to check a system that may be singular,
so importing this module, and the package, loads no scipy; scipy's linalg is
never loaded.
"""

from __future__ import annotations

import math
import os

import numpy as np

from .affinity import AffinityGraph
from .errors import DataError, NumericalError, check_real
from .losses import _check_instance
from .simplex import ProbField, ScribbleField

_CG_TOL = 1e-10
_FD_STEP = 1e-5


def _dot(u: np.ndarray, v: np.ndarray) -> float:
    return float(np.einsum("i,i->", u, v))


def cg(a, b, *, rtol, atol, M, callback=None):
    """Jacobi-preconditioned conjugate gradients for a x = b, from x = 0.

    Takes the steps of scipy.sparse.linalg.cg, with M the inverse diagonal of
    a as a vector (z = M * r), and its stopping rule: stop when
    |r| < max(atol, rtol |b|), after at most 10 n iterations. Its dot
    products are einsums: BLAS would split a long one between its threads and
    add the parts in an order set by the thread count. Returns (x, info),
    info 0 on convergence and the iteration count otherwise; b = 0 gives
    zeros at once. callback(x) runs once per iteration.

    random_walker_solve calls the solver through this module-level name, so
    a caller can replace it to fake or instrument the solves.
    """
    x = np.zeros(b.shape)
    bnorm = np.sqrt(_dot(b, b))
    if bnorm == 0.0:
        return x, 0
    tol = max(atol, rtol * bnorm)
    r = b.copy()
    maxiter = 10 * b.size
    for it in range(maxiter):
        if np.sqrt(_dot(r, r)) < tol:
            return x, 0
        z = M * r
        rho = _dot(r, z)
        if it:
            p *= rho / rho_prev
            p += z
        else:
            p = z
        q = a @ p
        alpha = rho / _dot(p, q)
        x += alpha * p
        r -= alpha * q
        rho_prev = rho
        if callback is not None:
            callback(x)
    return x, maxiter


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

    solved by Jacobi-preconditioned conjugate gradients (cg) to 1e-10. The K
    class solves share no state, so they run on a pool of min(K, usable
    CPUs) threads; cg's einsum dots, ufuncs and the CSR matvec release the
    GIL. Each class's result is the one a serial loop gives, so the solution
    does not depend on the worker or BLAS thread count. Row sums of the
    solution are exactly 1 because the constant vector solves the summed
    system. The solution depends on lambda / eta alone, so both are first
    scaled by the power of two that brings the larger of 2 eta and
    lambda * max(w) into [1/4, 1) (max(w) taken as at least 2**-1022, and
    lambda as 0 if no edge has weight): that is exact, and no product in the
    assembly or in cg overflows, or underflows for want of scale, at any
    finite eta and lambda. When 2 eta <= eps * lambda * max(w) (eta = 0
    included), a pixel group that no edge above eps * max(w) connects to a
    scribble makes the system singular in floating point, and NumericalError
    is raised before any solve. A solution that is not a probability field
    anyway also raises NumericalError.
    """
    from concurrent.futures import ThreadPoolExecutor

    from scipy import sparse

    scribbled, cls, free = _check_instance(sigma, scribbles, graph)
    check_real("eta", eta)
    check_real("lam", lam)

    n, k = graph.npixels, sigma.classes
    out = np.empty((n, k))
    out[scribbled] = np.eye(k)[cls]
    if free.size == 0:
        return ProbField(out.reshape(sigma.data.shape))

    # 2 eta < 2**e and lambda * max(w) < 2**e for the larger binary exponent e
    w_max = graph.w.max(initial=0.0)
    exponents = [math.frexp(eta)[1] + 1] if eta else []
    if lam and w_max:  # a subnormal max(w) counts as 2**-1022: lambda scales below 2**1021
        exponents.append(math.frexp(lam)[1] + max(math.frexp(w_max)[1], -1021))
    if exponents:
        shift = -max(exponents)
        eta, lam = math.ldexp(eta, shift), (math.ldexp(lam, shift) if w_max else 0.0)

    eps_w = np.finfo(float).eps * w_max
    if 2.0 * eta <= lam * eps_w:
        # lambda * L_UU alone is singular on any component without a scribble,
        # and numerically so when a group reaches every scribble only through
        # edges below eps * max(w): its condition number then exceeds 1/eps.
        # A diagonal 2 eta that small does not lift it above that bound.
        from scipy.sparse.csgraph import connected_components

        pos = graph.w > eps_w
        adj = sparse.coo_matrix(
            (graph.w[pos], (graph.ei[pos], graph.ej[pos])), shape=(n, n)
        )
        ncomp, comp = connected_components(adj, directed=False)
        grounded = np.zeros(ncomp, dtype=bool)
        grounded[comp[scribbled]] = True
        if not grounded[comp[free]].all():
            raise NumericalError(
                "singular system: eta is negligible next to lambda * max(w) "
                "and a component has no scribble"
            )

    lap = _laplacian(graph)
    system = (2.0 * eta) * sparse.identity(n, format="csr") + lam * lap
    system_u = system[free]
    a_uu = system_u[:, free].tocsr()

    rhs = 2.0 * eta * sigma.flat()[free]
    if scribbled.size:
        # off-diagonal block of the system is -lambda * W_US
        w_us = -system_u[:, scribbled]
        rhs += np.asarray(w_us @ out[scribbled])

    diag = a_uu.diagonal()
    if np.any(diag <= 0):
        raise NumericalError("singular system: zero diagonal in the Laplacian block")
    inv_diag = 1.0 / diag

    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:
        cpus = os.cpu_count() or 1
    with ThreadPoolExecutor(max_workers=min(k, cpus)) as pool:
        solves = list(pool.map(
            lambda b: cg(a_uu, b, rtol=_CG_TOL, atol=0.0, M=inv_diag), rhs.T))
    for c, (x, info) in enumerate(solves):
        if info != 0:
            raise NumericalError(f"conjugate gradient failed to converge (info={info})")
        out[free, c] = x
    try:
        return ProbField(out.reshape(sigma.data.shape))
    except DataError as exc:
        raise NumericalError(f"random-walker solution is not on the simplex: {exc}") from exc


def finite_diff_check(f, analytic_grad, point) -> float:
    """Max coordinate-wise relative error of a gradient vs central differences.

    f maps a flat float array to a scalar; analytic_grad is the gradient
    array at `point`. The differences step _FD_STEP each way. The
    per-coordinate error is |analytic - numeric| / max(1, |numeric|), so
    small entries are compared absolutely and large ones relatively.
    """
    x0 = np.asarray(point, dtype=np.float64).ravel().copy()
    grad = np.asarray(analytic_grad, dtype=np.float64).ravel()
    if grad.shape != x0.shape:
        raise DataError("analytic gradient shape differs from the point")
    worst = 0.0
    for i in range(x0.size):
        x = x0.copy()
        x[i] = x0[i] + _FD_STEP
        fp = f(x)
        x[i] = x0[i] - _FD_STEP
        fm = f(x)
        if not (np.isfinite(fp) and np.isfinite(fm)):
            raise NumericalError("function diverged inside the difference stencil")
        num = (fp - fm) / (2.0 * _FD_STEP)
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
