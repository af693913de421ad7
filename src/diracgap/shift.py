"""Spectral-shift staircase and stationary-point diagnostics.

The truncated spectral shift is an odd right-continuous step function built
from the positive gap eigenvalues lambda_k with integer weights m_k:

    xi(lambda) = sum_{lambda_k <= lambda} m_k    for lambda > 0,
    xi(0) = 0,    xi(-lambda) = -xi(lambda).

`Staircase` is its one representation and its one evaluator: jump arrays,
then a vectorised search for |lambda| among the jumps and the sign of
lambda, in integer arithmetic, so oddness holds exactly.  A run builds its
staircase once, on the gap spectrum's own arrays, and the stationary scan
takes it as built.  The mapped model and zero staircases of the zero
alignment are Staircases too.

The stationary scan evaluates the translated-trace response

    F(t) = sum_k m_k [phi(lambda_k - t) + phi(-lambda_k - t)]

for a Gaussian window phi and refines the zeros of its closed-form derivative
above a noise floor by Newton's method.  F is even, so t = 0 is stationary;
isolated pairs produce near-stationary points displaced from +-lambda_k by
the exponentially small cross term phi'(2 lambda_k), which is why the scan
is a diagnostic rather than an exact detector.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

BISECTION_TOLERANCE = 1e-10
REFINE_PASSES = 64  # cap on the Newton passes over the scan's brackets
NOISE_FLOOR = 1e-12  # relative to max|F'| on the scan grid
WINDOW_ALPHAS = 8.0  # half-width of the summation window, in units of alpha
TILE_CELLS = 1 << 14  # cells per evaluation tile (~128 KiB per float array)


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


@dataclass(frozen=True)
class StationaryScan:
    """Refined roots of F'(t) with their local type and scan warnings."""

    roots: tuple[float, ...]
    kinds: tuple[str, ...]  # "max" | "min"
    warnings: tuple[str, ...]


def trace_response_derivative(s: Staircase, phi: TestFunction, t, curvature: bool = False):
    """Closed-form F'(t) from the jumps with |lambda_k - |t|| <= 8 alpha.

    A dropped term is below exp(-64) of the largest (a truncated Gauss
    transform).  Each jump enters as the pair (lambda_k - t) phi(lambda_k - t)
    + (-lambda_k - t) phi(-lambda_k - t) and the window depends on |t| only,
    so F'(-t) = -F'(t) bitwise and F'(0) = 0 exactly.  F' is therefore
    evaluated once per distinct |t| whose window holds a jump, and signed.
    With curvature, the pair (F', F'') with F'' summed from the same window,
    (2 / alpha^2) sum_k m_k sum_{x = +-lambda_k} phi(x - t) (2 (x - t)^2 / alpha^2 - 1);
    F'' is even, so it is not signed.
    """
    t = np.asarray(t, dtype=float)
    flat = t.ravel()
    lam, w = s.locations, s.weights
    reach = WINDOW_ALPHAS * phi.alpha
    lo = np.searchsorted(lam, np.abs(flat) - reach, side="left")
    count = np.searchsorted(lam, np.abs(flat) + reach, side="right") - lo
    seen = np.flatnonzero(count)  # points with an empty window stay 0.0
    u, first, inverse = np.unique(np.abs(flat[seen]), return_index=True, return_inverse=True)
    lo, count = lo[seen[first]], count[seen[first]]
    scale = 2.0 / (phi.alpha * phi.alpha)
    value, second = np.zeros(len(u)), np.zeros(len(u) if curvature else 0)
    rows = np.arange(len(u))
    while len(rows):
        widest = np.maximum.accumulate(count[rows[:TILE_CELLS]])
        n = max(1, np.count_nonzero(widest * np.arange(1, len(widest) + 1) <= TILE_CELLS))
        block, rows = rows[:n], rows[n:]
        offset = np.arange(widest[n - 1])
        idx = np.minimum(lo[block, None] + offset, len(lam) - 1)
        x, tt = lam[idx], u[block, None]
        terms = w[idx] * scale * ((x - tt) * phi(x - tt) + (-x - tt) * phi(-x - tt))
        inside = offset < count[block, None]
        # cumsum adds strictly left to right, unlike sum's pairwise blocking.
        value[block] = np.cumsum(np.where(inside, terms, 0.0), axis=1)[:, -1]
        if curvature:
            terms = w[idx] * scale * (phi(x - tt) * ((x - tt) ** 2 * scale - 1.0)
                                      + phi(-x - tt) * ((x + tt) ** 2 * scale - 1.0))
            second[block] = np.cumsum(np.where(inside, terms, 0.0), axis=1)[:, -1]
    out = np.zeros(len(flat))
    out[seen] = np.where(flat[seen] < 0.0, -value[inverse], value[inverse])
    if not curvature:
        return out.reshape(t.shape)
    curv = np.zeros(len(flat))
    curv[seen] = second[inverse]
    return out.reshape(t.shape), curv.reshape(t.shape)


def stationary_scan(s: Staircase, phi: TestFunction, t_grid: np.ndarray) -> StationaryScan:
    """Locate stationary points of the translated trace on a uniform grid.

    Grid values of F' at or below NOISE_FLOOR * max|F'| count as zero.  Sign
    changes between above-floor neighbours are refined together by Newton
    steps on F' from their midpoints, a step out of its bracket replaced by the
    midpoint (rtsafe), to a step of 1e-10 / 4, a 1e-10 bracket or a step that
    no longer moves (wider once |t| > 2^19); a below-floor point between
    opposite signs (t = 0) is a root as it stands.
    Longer below-floor runs are flat noise (Gaussian underflow far from every
    jump), counted in a warning.  A grid too coarse to separate adjacent jump
    locations is named in the warnings rather than rejected.
    """
    t = np.asarray(t_grid, dtype=float)
    if not len(s.locations):
        return StationaryScan(roots=(), kinds=(), warnings=())
    warnings: list[str] = []
    lam = s.locations
    spacing = min(2.0 * float(lam[0]), float(np.diff(lam).min(initial=math.inf)))
    step = float(t[1] - t[0]) if len(t) > 1 else math.inf
    if step > spacing / 2.0:
        warnings.append(f"grid step {step:.3g} exceeds half the minimum jump spacing "
                        f"{spacing:.3g}; adjacent eigenvalues may be unresolved")
    if phi.alpha > spacing / 4.0:
        warnings.append(f"window width alpha={phi.alpha:.3g} exceeds a quarter of the "
                        f"minimum jump spacing {spacing:.3g}; peaks may merge")

    deriv = trace_response_derivative(s, phi, t)
    floor = NOISE_FLOOR * float(np.abs(deriv).max(initial=0.0))
    sign = np.where(np.abs(deriv) > floor, np.sign(deriv), 0.0)
    cross = np.flatnonzero(sign[:-1] * sign[1:] < 0)
    isolated = np.flatnonzero((sign[1:-1] == 0) & (sign[:-2] * sign[2:] < 0)) + 1
    flat = sign == 0
    flat[isolated] = False
    if flat.any():
        warnings.append(f"{np.count_nonzero(flat)} grid points lie in flat runs at or below "
                        f"the noise floor {floor:.3g}; they are not reported as roots")

    lo, hi, f_lo = t[cross], t[cross + 1], deriv[cross]
    x, live = 0.5 * (lo + hi), np.flatnonzero(hi - lo > BISECTION_TOLERANCE)
    for _ in range(REFINE_PASSES):
        if not len(live):
            break
        f, df = trace_response_derivative(s, phi, x[live], curvature=True)
        up = (f_lo[live] > 0) == (f > 0)  # x replaces the end whose sign it shares
        lo[live[up]], f_lo[live[up]] = x[live[up]], f[up]
        hi[live[~up]] = x[live[~up]]
        step = np.divide(f, df, out=np.full_like(f, np.inf), where=df != 0.0)
        new = x[live] - step
        inside = (lo[live] <= new) & (new <= hi[live])
        new = np.where(inside, new, 0.5 * (lo[live] + hi[live]))
        # F' = 0 exactly gives a zero step onto the end x has just become.
        done = ((inside & (np.abs(step) <= BISECTION_TOLERANCE / 4))
                | (hi[live] - lo[live] <= BISECTION_TOLERANCE) | (new == x[live]))
        x[live] = new
        live = live[~done]

    order = np.argsort(np.concatenate([isolated, cross + 0.5]))
    roots = np.concatenate([t[isolated], x])[order]
    rising = np.concatenate([sign[isolated - 1], deriv[cross]])[order] > 0
    return StationaryScan(roots=tuple(roots.tolist()),
                          kinds=tuple(np.where(rising, "max", "min").tolist()),
                          warnings=tuple(warnings))
