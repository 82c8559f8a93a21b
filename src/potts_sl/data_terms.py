"""Couplings between pseudo-labels y and predictions sigma, plus gradients.

Argument order is fixed as (y, sigma) = (target, estimate) throughout:

  CE    -sum_k y_k ln sigma_k      standard cross-entropy
  RCE   -sum_k sigma_k ln y_k      reverse cross-entropy
  CCE   -ln sigma.y                collision cross-entropy (symmetric)
  QUAD  ||y - sigma||^2            quadratic coupling (no 1/2 factor)

With a uniform target, RCE and CCE are constant (= ln K) in sigma, so they
never push predictions to mimic an uninformative label; CE does.

row_values returns each coupling's values and its gradient pair in one call.
It takes y and sigma as (K, N) class planes, so its class sums are numpy
reductions over axis 0 that add whole planes in class order.
"""

from __future__ import annotations

import enum

import numpy as np

from .errors import DIVERGENT, DataError, DivergentPointError, LOG_CLAMP
from .simplex import Distribution, _pair_arrays, _row_dot


class XentKind(enum.Enum):
    CE = "ce"
    RCE = "rce"
    CCE = "cce"
    QUAD = "quad"

    @classmethod
    def parse(cls, name: str) -> "XentKind":
        try:
            return cls(name.strip().lower())
        except ValueError:
            raise DataError(f"unknown cross-entropy kind {name!r}") from None


def row_values(kind: XentKind, y: np.ndarray, sigma: np.ndarray):
    """Values and gradients in one call over the pixels of (K, N) class
    planes y and sigma: (values, divergent, (d/dy, d/dsigma)), the first two
    of shape (N,).

    Log arguments are clamped at LOG_CLAMP so the returned values stay finite;
    the mask records pixels where the clamp was active. The gradient pair is
    that of the log-clamped loss as (K, N) planes: finite everywhere, and zero
    along any coordinate sitting in the flat clamped region.
    """
    if kind is XentKind.CE:
        div = ((y > 0.0) & (sigma <= LOG_CLAMP)).any(axis=0)
        logs = np.log(np.maximum(sigma, LOG_CLAMP))
        gs = np.where(sigma > LOG_CLAMP, -y / np.maximum(sigma, LOG_CLAMP), 0.0)
        return -(y * logs).sum(axis=0), div, (-logs, gs)
    if kind is XentKind.RCE:
        div = ((sigma > 0.0) & (y <= LOG_CLAMP)).any(axis=0)
        logs = np.log(np.maximum(y, LOG_CLAMP))
        gy = np.where(y > LOG_CLAMP, -sigma / np.maximum(y, LOG_CLAMP), 0.0)
        return -(sigma * logs).sum(axis=0), div, (gy, -logs)
    if kind is XentKind.CCE:
        s = _row_dot(sigma.T, y.T)
        div = s <= LOG_CLAMP
        ss = np.maximum(s, LOG_CLAMP)
        grads = (-sigma / ss, -y / ss)
        if div.any():
            for g in grads:
                g[:, div] = 0.0
        return -np.log(ss), div, grads
    if kind is XentKind.QUAD:
        d = y - sigma
        return _row_dot(d.T, d.T), np.zeros(d.shape[1], dtype=bool), (2.0 * d, -2.0 * d)
    raise DataError(f"unknown cross-entropy kind {kind!r}")


def _pair_planes(y, sigma):
    """(K, 1) planes of one (target, estimate) pair."""
    return [np.ascontiguousarray(a.T) for a in _pair_arrays(y, sigma)]


def xent_value(kind: XentKind, y, sigma):
    """Coupling value for one (target, estimate) pair; DIVERGENT on clamped logs."""
    v, div, _ = row_values(kind, *_pair_planes(y, sigma))
    if div[0]:
        return DIVERGENT
    return float(v[0])


def xent_grad(kind: XentKind, y, sigma):
    """(d/dy, d/dsigma) for one pair; refuses divergent points."""
    _, div, (gy, gs) = row_values(kind, *_pair_planes(y, sigma))
    if div[0]:
        raise DivergentPointError(f"{kind.name} gradient requested at a divergent pair")
    return gy[:, 0], gs[:, 0]


def corrupted_target(y, eta: float) -> Distribution:
    """Mix a one-hot label with the uniform distribution: eta*u + (1-eta)*y."""
    p = np.asarray(y, dtype=np.float64)
    if not 0.0 <= eta <= 1.0:
        raise DataError(f"mixing weight {eta} outside [0, 1]")
    if p.ndim != 1 or not (np.count_nonzero(p == 1.0) == 1 and np.count_nonzero(p) == 1):
        raise DataError("corrupted_target expects a one-hot distribution")
    k = p.size
    return Distribution(eta / k + (1.0 - eta) * p)
