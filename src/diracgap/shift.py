"""Spectral-shift staircase, Krein pairing, and stationary-point diagnostics.

The truncated spectral shift is an odd right-continuous step function built
from the positive gap eigenvalues lambda_k with integer weights m_k:

    xi(lambda) = sum_{lambda_k <= lambda} m_k    for lambda > 0,
    xi(0) = 0,    xi(-lambda) = -xi(lambda).

Evaluation is integer arithmetic throughout, so oddness holds exactly.  The
Krein pairing treats the jump data as the signed measure
sum_k m_k (delta_{+lambda_k} - delta_{-lambda_k}) and pairs it against an
arbitrary differentiable probe psi by exact summation; even probes cancel
identically.

The stationary scan evaluates the translated-trace response

    F(t) = sum_k m_k [phi(lambda_k - t) + phi(-lambda_k - t)]

for a Gaussian window phi and locates the zeros of its closed-form
derivative above a noise floor.  F is even, so t = 0 is stationary; isolated
pairs produce near-stationary points displaced from +-lambda_k by the
exponentially small cross term phi'(2 lambda_k), which is why the scan is a
diagnostic rather than an exact detector.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from itertools import accumulate

import numpy as np

from .arithmetic import CoefficientFamily, HeckeEnsemble, local_factor_grid
from .gapspec import GapSpectrum

BISECTION_TOLERANCE = 1e-10
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
    kind: str = "gaussian"

    def __post_init__(self):
        if self.kind != "gaussian":
            raise ValueError(f"unsupported test function kind {self.kind!r}")
        if not (self.alpha > 0.0 and math.isfinite(self.alpha)):
            raise ValueError("the Gaussian width alpha must be positive and finite")

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        return np.exp(-(x * x) / (self.alpha * self.alpha))

    def fourier(self, t):
        a, t = self.alpha, np.asarray(t, dtype=float)
        return a * math.sqrt(math.pi) * np.exp(-(a * a) * (t * t) / 4.0)


@dataclass(frozen=True)
class Staircase:
    """Odd right-continuous step function stored by its positive jumps."""

    locations: tuple[float, ...]
    weights: tuple[int, ...]
    cumulative: tuple[int, ...] = field(repr=False, default=())

    def __post_init__(self):
        if len(self.locations) != len(self.weights):
            raise ValueError("locations and weights must have equal length")
        if any(x <= 0.0 for x in self.locations):
            raise ValueError("jump locations must be strictly positive")
        if list(self.locations) != sorted(self.locations):
            raise ValueError("jump locations must be ascending")
        if any(w <= 0 for w in self.weights):
            raise ValueError("jump weights must be positive integers")
        object.__setattr__(self, "cumulative", tuple(accumulate(map(int, self.weights))))

    @property
    def total_weight(self) -> int:
        return self.cumulative[-1] if self.cumulative else 0


def build_staircase(spectrum: GapSpectrum) -> Staircase:
    """Staircase with jump +m_k at +lambda_k; the negative side is implied."""
    return Staircase(locations=spectrum.positive_values, weights=spectrum.multiplicities)


def eval_staircase(s: Staircase, lam: float) -> int:
    """xi(lambda) under the right-continuous odd convention (exact integers)."""
    k = bisect_right(s.locations, abs(lam))
    value = s.cumulative[k - 1] if k else 0
    return -value if lam < 0.0 else value


def krein_pairing(s: Staircase, probe) -> float:
    """sum_k m_k (psi(lambda_k) - psi(-lambda_k)) for a differentiable probe.

    This is the pairing of the probe with the signed jump measure; it equals
    -integral psi' xi_signed and vanishes identically for even probes.
    """
    return sum((w * (float(probe(lam)) - float(probe(-lam)))
                for lam, w in zip(s.locations, s.weights)), 0.0)


@dataclass(frozen=True)
class StationaryScan:
    """Refined roots of F'(t) with their local type and scan warnings."""

    roots: tuple[float, ...]
    kinds: tuple[str, ...]  # "max" | "min"
    warnings: tuple[str, ...]


def trace_response(s: Staircase, phi: TestFunction, t):
    """F(t) = sum over the symmetric spectrum of phi(lambda - t)."""
    t = np.asarray(t, dtype=float)
    return sum((w * (phi(lam - t) + phi(-lam - t)) for lam, w in zip(s.locations, s.weights)),
               np.zeros_like(t))


def trace_response_derivative(s: Staircase, phi: TestFunction, t):
    """Closed-form F'(t) from the jumps with |lambda_k - |t|| <= 8 alpha.

    A dropped term is below exp(-64) of the largest (a truncated Gauss
    transform).  Each jump enters as the pair (lambda_k - t) phi(lambda_k - t)
    + (-lambda_k - t) phi(-lambda_k - t) and the window depends on |t| only,
    so F'(-t) = -F'(t) bitwise and F'(0) = 0 exactly.
    """
    t = np.asarray(t, dtype=float)
    flat = t.ravel()
    lam = np.asarray(s.locations, dtype=float)
    w = np.asarray(s.weights, dtype=float)
    reach = WINDOW_ALPHAS * phi.alpha
    lo = np.searchsorted(lam, np.abs(flat) - reach, side="left")
    count = np.searchsorted(lam, np.abs(flat) + reach, side="right") - lo
    scale = 2.0 / (phi.alpha * phi.alpha)
    out = np.zeros(len(flat))
    rows = np.flatnonzero(count)  # rows with an empty window stay 0.0
    while len(rows):
        widest = np.maximum.accumulate(count[rows[:TILE_CELLS]])
        n = max(1, np.count_nonzero(widest * np.arange(1, len(widest) + 1) <= TILE_CELLS))
        block, rows = rows[:n], rows[n:]
        offset = np.arange(widest[n - 1])
        idx = np.minimum(lo[block, None] + offset, len(lam) - 1)
        x, tt = lam[idx], flat[block, None]
        terms = w[idx] * scale * ((x - tt) * phi(x - tt) + (-x - tt) * phi(-x - tt))
        # cumsum adds strictly left to right, unlike sum's pairwise blocking.
        out[block] = np.cumsum(np.where(offset < count[block, None], terms, 0.0), axis=1)[:, -1]
    return out.reshape(t.shape)


def stationary_scan(spectrum: GapSpectrum, phi: TestFunction, t_grid: np.ndarray) -> StationaryScan:
    """Locate stationary points of the translated trace on a uniform grid.

    Grid values of F' at or below NOISE_FLOOR * max|F'| count as zero.  Sign
    changes between above-floor neighbours are bisected together to 1e-10; a
    below-floor point between opposite signs (t = 0) is a root as it stands.
    Longer below-floor runs are flat noise (Gaussian underflow far from every
    jump), counted in a warning.  A grid too coarse to separate adjacent jump
    locations is flagged in the warnings rather than rejected.
    """
    s = build_staircase(spectrum)
    t = np.asarray(t_grid, dtype=float)
    if not s.locations:
        return StationaryScan(roots=(), kinds=(), warnings=())
    warnings: list[str] = []
    lam = np.asarray(s.locations)
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
    live = np.flatnonzero(hi - lo > BISECTION_TOLERANCE)
    while len(live):
        mid = 0.5 * (lo[live] + hi[live])
        f_mid = trace_response_derivative(s, phi, mid)
        exact = f_mid == 0.0  # collapse the bracket onto mid
        up = exact | ((f_lo[live] > 0) == (f_mid > 0))
        lo[live[up]], f_lo[live[up]] = mid[up], f_mid[up]
        hi[live[exact | ~up]] = mid[exact | ~up]
        live = live[hi[live] - lo[live] > BISECTION_TOLERANCE]

    order = np.argsort(np.concatenate([isolated, cross + 0.5]))
    roots = np.concatenate([t[isolated], 0.5 * (lo + hi)])[order]
    rising = np.concatenate([sign[isolated - 1], deriv[cross]])[order] > 0
    return StationaryScan(roots=tuple(roots.tolist()),
                          kinds=tuple(np.where(rising, "max", "min").tolist()),
                          warnings=tuple(warnings))


def arithmetic_shift_density(ensemble: HeckeEnsemble, family: CoefficientFamily,
                             lambda_grid: np.ndarray) -> np.ndarray:
    """EXPLORATORY prime-indexed shift density on a uniform grid.

    Computes sum_p log A_p(lambda) with the branch tracked continuously along
    the grid (anchored to the principal branch at the node nearest 0, where
    A_p = 1 when the grid contains 0), then returns the real part of the
    central-difference derivative divided by 2 pi i.  Grid points where some
    |A_p| < 1e-12 are rejected since the branch becomes ambiguous.
    """
    grid = np.asarray(lambda_grid, dtype=float)
    if grid.ndim != 1 or len(grid) < 3:
        raise ValueError("lambda_grid must be a 1-d grid with at least 3 nodes")
    steps = np.diff(grid)
    h = float(steps[0])
    if h <= 0.0 or np.abs(steps - h).max() > 1e-9 * abs(h):
        raise ValueError("lambda_grid must be uniform and increasing")
    total_log = np.zeros(len(grid), dtype=complex)
    anchor = int(np.argmin(np.abs(grid)))
    for p in ensemble.primes:
        a = local_factor_grid(ensemble, family, p, grid)
        mods = np.abs(a)
        if mods.min() < 1e-12:
            bad = grid[int(np.argmin(mods))]
            raise ValueError(
                f"|A_{p}| vanishes near lambda={bad:.6g}; branch tracking is ambiguous"
            )
        # Continuous phase: accumulate principal increments between nodes,
        # then pin the node nearest 0 to its principal argument.
        increments = np.angle(a[1:] / a[:-1])
        phase = np.concatenate([[0.0], np.cumsum(increments)])
        phase += np.angle(a[anchor]) - phase[anchor]
        total_log += np.log(mods) + 1j * phase
    density = np.empty(len(grid), dtype=complex)
    density[1:-1] = (total_log[2:] - total_log[:-2]) / (2.0 * h)
    density[0] = (total_log[1] - total_log[0]) / h
    density[-1] = (total_log[-1] - total_log[-2]) / h
    return (density / (2.0j * np.pi)).real


def is_jump_location(s: Staircase, lam: float) -> bool:
    """True when |lam| coincides with a stored jump location."""
    k = bisect_left(s.locations, abs(lam))
    return k < len(s.locations) and s.locations[k] == abs(lam)
