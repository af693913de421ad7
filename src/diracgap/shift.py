"""The spectral-shift staircase and the Gaussian window of the trace.

The truncated spectral shift is an odd right-continuous step function built
from the positive gap eigenvalues lambda_k with integer weights m_k:

    xi(lambda) = sum_{lambda_k <= lambda} m_k    for lambda > 0,
    xi(0) = 0,    xi(-lambda) = -xi(lambda).

`Staircase` is its one representation and its one evaluator: jump arrays,
then a vectorised search for |lambda| among the jumps and the sign of
lambda, in integer arithmetic, so oddness holds exactly.  A run builds its
staircase once, on the gap spectrum's own arrays, whose jumps spectrum.csv
lists.  The mapped model and zero staircases of the zero alignment are
Staircases too.  `TestFunction` is the Gaussian window of the trace.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

@dataclass(frozen=True)
class TestFunction:
    """Gaussian window phi(x) = exp(-x^2 / alpha^2).

    Even, positive, strictly decreasing on (0, inf), phi(0) = 1; its Fourier
    transform (integral with e^{-i x t}) is alpha sqrt(pi) exp(-alpha^2 t^2 / 4).
    """

    alpha: float

    def __post_init__(self):
        if not (self.alpha > 0.0 and math.isfinite(self.alpha)):
            raise ValueError("the Gaussian width alpha must be positive and finite")

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        return np.exp(-(x * x) / (self.alpha * self.alpha))

    def fourier(self, t):
        a, t = self.alpha, np.asarray(t, dtype=float)
        return a * math.sqrt(math.pi) * np.exp(-(a * a) * (t * t) / 4.0)


@dataclass(frozen=True, eq=False)
class Staircase:
    """Odd right-continuous step function stored by its positive jumps.

    locations (float64, strictly positive, ascending) and weights (positive
    integers below 2**63, stored as int64) are arrays; arrays of those dtypes
    are kept without a copy, so the run's staircase shares the gap spectrum's.
    Calling it evaluates xi elementwise: the height after the jumps at or
    below |x|, negated for x < 0, so xi(-x) = -xi(x) and xi(0) = 0 exactly.
    """

    locations: np.ndarray
    weights: np.ndarray
    heights: np.ndarray = field(init=False, repr=False)  # xi after 0, 1, ... jumps

    def __post_init__(self):
        x = np.asarray(self.locations, dtype=float)
        w = np.asarray(self.weights)
        if x.shape != w.shape or x.ndim != 1:
            raise ValueError("locations and weights must be 1-d and of equal length")
        if not np.all(x > 0.0):
            raise ValueError("jump locations must be strictly positive")
        if np.any(x[1:] < x[:-1]):
            raise ValueError("jump locations must be ascending")
        if not np.all((w > 0) & (w < 2.0**63) & (w == np.rint(w))):
            raise ValueError("jump weights must be positive integers below 2**63")
        w = w.astype(np.int64, copy=False)
        object.__setattr__(self, "locations", x)
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "heights", np.concatenate([[0], np.cumsum(w)]))

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        value = self.heights[np.searchsorted(self.locations, np.abs(x), side="right")]
        return np.where(x < 0.0, -value, value)
