"""Shared error types, the divergence sentinel, numerical constants, and the
two checks every setting goes through: check_count for counts (steps,
rounds, epochs, a radius, graph sizes) and check_real for weights and
steps (eta, lambda, the learning rate). A bad value raises DataError
naming the setting.
"""

import math

import numpy as np

# Per-pixel simplex tolerance on construction/validation.
SIMPLEX_TOL = 1e-6

# Clamp applied inside logarithms during loss *evaluation*. Gradients never
# clamp: a divergent point is refused (or skipped and counted, in the solver).
LOG_CLAMP = 1e-12


class DataError(ValueError):
    """Malformed input: bad file, bad config, dimension mismatch, bad value."""


def check_count(name, value) -> int:
    """value as an int if it is an int or numpy integer >= 1 (not a bool)."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < 1:
        raise DataError(f"{name} must be an integer >= 1, got {value!r}")
    return int(value)


def check_real(name, value, positive=False):
    """DataError unless value is a finite int, float or numpy real (not a
    bool, nor an int beyond the float range) that is >= 0, or > 0 if
    positive."""
    try:
        ok = (isinstance(value, (int, float, np.integer, np.floating))
              and not isinstance(value, bool) and math.isfinite(value)
              and (value > 0 if positive else value >= 0))
    except OverflowError:
        ok = False
    if not ok:
        raise DataError(f"{name} must be a finite number {'>' if positive else '>='} 0, "
                        f"got {value!r}")


class NumericalError(RuntimeError):
    """Numerical failure: singular system, solver non-convergence."""


class DivergentPointError(NumericalError):
    """A gradient was requested at a point where the value diverges."""


class InfiniteDivergenceError(NumericalError):
    """KL divergence is infinite: q has no support where p does."""


class _Divergent:
    """Tag for a log-based value whose ln argument fell at/below the clamp.

    Returned (never raised) by value-level operations so callers can detect
    divergence deterministically instead of comparing float infinities.
    """

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "DIVERGENT"


DIVERGENT = _Divergent()


def is_divergent(value):
    return value is DIVERGENT
