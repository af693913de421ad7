"""Fiber traces and the separated (geometric x arithmetic) representation.

For an even Gaussian window phi, the trace of phi of the truncated Dirac
operator decomposes over Floquet-Hecke fibers:

    theta_fiber = 2 sum_n int_{-pi/L}^{pi/L} mean_m phi(E_n(kappa) - E* + m_m) dkappa,

with the kappa integral done by trapezoid weights on the stored grid.  The
same quantity has a separated Fourier-side form

    theta_separated = (1/pi) int phihat(t) (sum_n G_n(t)) A(t) dt,

with geometric factors G_n(t) = int e^{i t (E_n(kappa) - E*)} dkappa and the
joint arithmetic factor A(t) = mean_m e^{i t m_m}.  With matching quadrature
weights the two sides agree identically up to the t-quadrature error; the
1/pi prefactor follows from phi = (1/2pi) int phihat e^{i t lambda} dt
together with the factor 2 in the fiber sum, and is pinned here by requiring
agreement with the fiber sum.

Only t_grid knows the t grid t_k = k h, k = -K..K: from alpha, n_bands, L and
v_max = max |E_n - E* + m_m| it sets K h by the tail rule phihat(T) < 1e-14
(widened until the analytic tail bound drops below 1e-10) and h so that the
trapezoid aliasing images phi(v - 2 pi k / h) are negligible for every fiber
value v, and it rejects a grid over MAX_T_POINTS points.

A_joint (the empirical joint measure) is what enters theta_separated; the
prime product A_prod = prod_p A_p is reported separately, because strict
multiplicativity of the empirical joint measure holds only in expectation
at finite N_H (it is exact in constant_one mode).  Write eta_p = c_p + y with
c_p = mean_m eta_p and beta_p = max_m |y|.  For |z| beta_p <= s0, where
e^{s0} - 1 - s0 = 1/2, |log mean_m e^{z y}| <= ln 2, so by Cauchy the log
series of A_p (its cumulants) cut after degree D = 30 errs by at most
ln 2 q^{D+1} / (1 - q) on |t| <= T, with q = T beta_p / s0.  The primes with
q <= 0.2 (euler_series_primes; summed bound euler_series_bound) take that
series: their coefficients are summed, one polynomial is evaluated on the
grid and exponentiated.  The few with large phases take the phase tables.

Only the bands the window sees enter sum_n G_n.  With d_n = min_kappa
|E_n - E*| - max_m |m_m|, band n adds at most 2 (2 pi / L) e^{-d_n^2 / alpha^2}
to theta; bands with d_n > 40 alpha are left out, and their summed bound
(band_prune_bound; it underflows to 0) widens the agreement floor.  All bands
still set the t grid, and theta_fiber keeps them, so rel_gap checks the pruning.

Every factor is a sum S(t_k) = sum_j w_j e^{i t_k x_j} on that grid, and
every function here takes the grid as (K, h).  Only k >= 0 is
computed: the sums are real-weighted, so the t < 0 half is the exact
conjugate mirror S(-t_k) = conj S(t_k), bitwise.  With R = ceil(sqrt(K + 1))
and k = b R + r the phase splits as e^{i b R h x} e^{i r h x}, so two exp
tables of shapes (n_b, J) and (R, J) and one contraction over j replace the
(2K + 1, J) table: about 2 sqrt(K) exps per point x_j instead of 2K + 1.

The geometric factors are also folded in kappa.  The bands are solved on
kappa >= 0 and mirrored, so E_n(-kappa_j) = E_n(kappa_j) holds bitwise (checked
before folding), and the trapezoid sum over the whole grid equals the sum
over kappa >= 0 with weights 1 at kappa = 0, 2 inside and 2 * 1/2 = 1 at pi/L,
which halves the exp tables and the contraction.  theta_fiber stays on the
whole grid: it is the independent route that rel_gap checks the fold against.

The contraction is np.einsum without BLAS, and so are the t trapezoid sum
and the kappa sum of theta_fiber: OpenBLAS splits long dot and matrix
products across its threads, so their last bits depend on the thread count.
On the wide config (2-vCPU Xeon, NumPy 2.4) the per-band products take about
14-20 ms with matmul (zgemm) against 180 ms with einsum, but the matmul
products hash differently under OPENBLAS_NUM_THREADS=1 and 2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .arithmetic import MassShifts
from .floquet import BandStructure
from .shift import TestFunction

TAIL_HAT_CUTOFF = 1e-14
TAIL_BOUND = 1e-10
# Primes per block of the A_prod tables, which bounds their size for any N_P.
PRIME_CHUNK = 16
# A band farther than this many alpha from the window is left out of sum_n G_n.
BAND_PRUNE_WIDTH = 40.0
# Primes with q_p = T beta_p / EULER_SERIES_S0 <= EULER_SERIES_RATIO take the
# log series of A_p to this degree; EULER_SERIES_S0 solves e^s - 1 - s = 1/2.
EULER_SERIES_DEGREE = 30
EULER_SERIES_RATIO = 0.2
EULER_SERIES_S0 = 0.8576766739458992
# Largest t grid a configuration may ask for; M=64, N_kappa=1001, n_bands=16 uses 18,201.
MAX_T_POINTS = 2**22
# Cap on the t step.  The aliasing rule alone would do (h = 0.010012 on the default run,
# rel_gap 4.2e-14), but dropping the cap moves the trace bits that perfbench/reference pins.
H_MAX = 0.01


@dataclass(frozen=True)
class TraceFactors:
    """Arithmetic factors A_joint and A_prod on the symmetric t grid."""

    a_joint: np.ndarray = field(repr=False)
    a_prod: np.ndarray = field(repr=False)
    euler_series_primes: int
    euler_series_bound: float  # on |log A_prod| lost by truncating the series


@dataclass(frozen=True)
class TraceReport:
    theta_fiber: float
    theta_separated: float
    rel_gap: float
    euler_gap: float
    t_max: float
    h_t: float
    abs_gap: float = 0.0
    # L1 mass of the Fourier-side integrand: the quadrature's rounding noise
    # scales with it, so agreement below ~eps * l1_mass is at resolution.
    l1_mass: float = 0.0
    # The fiber sum is the ground truth that fixes the Fourier-side constant.
    resolved_prefactor: str = "1/pi"
    bands_kept: int = 0
    band_prune_bound: float = 0.0
    euler_series_primes: int = 0
    euler_series_bound: float = 0.0


def _kappa_pattern(n_nodes: int) -> np.ndarray:
    c = np.ones(n_nodes)
    c[0] = 0.5
    c[-1] = 0.5
    return c


def theta_fiber(phi, bands: BandStructure, e_star: float, shifts: MassShifts) -> float:
    """Trapezoid fiber sum 2 sum_n sum_j w_j mean_m phi(E - E* + m).

    phi may be any callable acting elementwise on arrays.  The weights are
    applied as (2 pi / L) * c_j / (N - 1) with c the half-end trapezoid
    pattern, so a constant integrand integrates exactly.  The bands are taken
    one at a time, in order, which bounds the temporaries to (N_kappa, N_H).
    """
    mean_over_modes = np.zeros(bands.grid.n_nodes)
    for row in bands.bands - e_star:
        mean_over_modes += np.asarray(phi(row[:, None] + shifts.values)).mean(axis=1)
    c = _kappa_pattern(bands.grid.n_nodes)
    raw = float((mean_over_modes * c).sum())
    L = bands.potential.period
    return 2.0 * (2.0 * np.pi / L) * (raw / (bands.grid.n_nodes - 1))


def _half_grid_sums(x: np.ndarray, w: np.ndarray | None, h: float, K: int) -> np.ndarray:
    """S[i, k] = sum_j w_j e^{i k h x[i, j]} for k = 0..K (w = None means all ones).

    Two-level phase tables: k = b R + r with R = ceil(sqrt(K + 1)), one exp
    per table entry, and a fixed-order einsum contraction over j.
    """
    R = math.isqrt(K) + 1
    n_b = -(-(K + 1) // R)
    rows = x[:, None, :]
    coarse = np.exp(1j * ((np.arange(n_b) * R * h)[:, None] * rows))
    fine = np.exp(1j * ((np.arange(R) * h)[:, None] * rows))
    if w is not None:
        fine *= w
    # Both tables are contiguous along j, the summed axis: einsum then runs
    # its dot-product inner loop.
    sums = np.einsum("ibj,irj->ibr", coarse, fine, optimize=False)
    return sums.reshape(len(x), n_b * R)[:, : K + 1]


def _mirror(half: np.ndarray) -> np.ndarray:
    """Values at k = -K..K from those at k = 0..K, by S(-t) = conj S(t)."""
    return np.concatenate([np.conj(half[..., :0:-1]), half], axis=-1)


def _geometric_on_grid(bands: BandStructure, e_star: float, K: int, h: float,
                       rows=slice(None)) -> np.ndarray:
    """G_n(t_k) for the bands n in rows, k = -K..K, summed over the kappa >= 0 half grid."""
    mid = bands.grid.half_index
    if not np.array_equal(bands.bands[:, :mid], bands.bands[:, :mid:-1]):
        raise ValueError(
            "the geometric factor folds the kappa grid by E_n(-kappa) = E_n(kappa), "
            "which requires bands[:, j] == bands[:, N_kappa - 1 - j] bitwise"
        )
    # Folded trapezoid weights: 1 at kappa = 0, 2 inside, 2 * 1/2 at pi/L.
    w = np.full(bands.grid.n_nodes - mid, 2.0)
    w[0] = w[-1] = 1.0
    L = bands.potential.period
    scale = 2.0 * np.pi / L / (bands.grid.n_nodes - 1)
    q = bands.bands[rows, mid:] - e_star
    half = np.array([_half_grid_sums(row[None], w, h, K)[0] for row in q]).reshape(len(q), K + 1)
    return _mirror(scale * half)


def tail_half_width(alpha: float, n_bands: int, period: float) -> float:
    """Half-width T of the t grid: phihat(T) = TAIL_HAT_CUTOFF, widened until the
    analytic Gaussian tail bound on the truncated integral falls below TAIL_BOUND."""
    a = alpha
    if not a * a > 0.0:  # a^2 underflows: no finite t grid reaches the Gaussian tail
        return math.inf
    # phihat(T) < cutoff  <=>  T > (2/a) sqrt(log(a sqrt(pi) / cutoff))
    arg = a * math.sqrt(math.pi) / TAIL_HAT_CUTOFF
    T = (2.0 / a) * math.sqrt(max(math.log(arg), 1.0))
    amp = (1.0 / math.pi) * n_bands * (2.0 * math.pi / period)
    coef = a * math.sqrt(math.pi)
    aa = a * a / 4.0
    # two-sided tail of int_T^inf e^{-aa t^2} <= e^{-aa T^2} / (2 aa T)
    while 2.0 * amp * coef * math.exp(-aa * T * T) / (2.0 * aa * T) > TAIL_BOUND:
        T *= 1.25
    return T


def t_grid(alpha: float, n_bands: int, period: float, v_max: float) -> tuple[int, float]:
    """(K, h) of the t grid t_k = k h, k = -K..K, for fiber values |v| <= v_max.

    K h is tail_half_width.  The step obeys h <= H_MAX and keeps 2 pi / h
    beyond v_max by 8 alpha + 1, so the trapezoid aliasing images of phi are
    negligible.  ValueError if the grid has more than MAX_T_POINTS points.
    """
    T = tail_half_width(alpha, n_bands, period)
    h = min(H_MAX, 2.0 * math.pi / (v_max + 8.0 * alpha + 1.0))
    steps = T / h if h > 0.0 else math.inf
    if not (math.isfinite(steps) and 2 * math.ceil(steps) + 1 <= MAX_T_POINTS):
        raise ValueError(f"the t grid needs 2*ceil(T/h)+1 > MAX_T_POINTS={MAX_T_POINTS} points "
                         f"(half-width T={T:.6g}, step h={h:.6g} from alpha and "
                         f"v_max={v_max:.6g}, the largest |E - E* + m| known)")
    K = max(math.ceil(steps), 1)
    return K, T / K


def arithmetic_factors(shifts: MassShifts, K: int, h: float) -> TraceFactors:
    """Evaluate A_joint and A_prod on the grid t_k = k h, k = -K..K.

    A_joint(t) = mean_m e^{i t m_m}; A_prod(t) = prod_{p in S} A_p(t), with
    A_p(t) = mean_m e^{i t eta_p} from the rows of shifts.terms.  Both equal 1
    at t = 0.
    """
    a_joint = _mirror(_half_grid_sums(shifts.values[None], None, h, K)[0] / len(shifts))
    eta = shifts.terms
    beta = np.abs(eta - eta.mean(axis=1, keepdims=True)).max(axis=1)
    q = K * h * beta / EULER_SERIES_S0
    series = q <= EULER_SERIES_RATIO
    coef = _log_series(eta[series], EULER_SERIES_DEGREE).sum(axis=0)  # of t^1..t^D
    a_prod_half = np.exp(np.polyval(np.append(coef[::-1], 0.0), np.arange(K + 1) * h))
    table = eta[~series]
    for lo in range(0, len(table), PRIME_CHUNK):
        for a_p in _half_grid_sums(table[lo : lo + PRIME_CHUNK], None, h, K):
            a_prod_half *= a_p / len(shifts)
    q = q[series]
    return TraceFactors(
        a_joint=a_joint, a_prod=_mirror(a_prod_half), euler_series_primes=int(series.sum()),
        euler_series_bound=float((math.log(2) * q ** (EULER_SERIES_DEGREE + 1) / (1 - q)).sum()),
    )


def _separated_integral(integrand: np.ndarray, h_t: float) -> complex:
    """(1/pi) times the trapezoid rule in t.

    The sum is numpy's own (no BLAS dot), whose order does not depend on
    the BLAS thread count.
    """
    return h_t * complex(integrand.sum() - 0.5 * (integrand[0] + integrand[-1])) / np.pi


def _log_series(eta: np.ndarray, degree: int) -> np.ndarray:
    """c[i, r - 1], the coefficient of t^r in log mean_m e^{i t eta[i, m]}, r = 1..degree.

    With eta = mu + y (mu the mean over m), mean_m e^{z y} = sum_r a_r z^r with
    a_r = mean_m y^r / r!, and its logarithm sum_r l_r z^r (l_r = kappa_r / r!, the
    cumulants) follows from l' M = M': r l_r = r a_r - sum_{j<r} j l_j a_{r-j}.
    Then c_r = l_r i^r, plus i mu at r = 1.
    """
    mu = eta.mean(axis=1)
    y = eta - mu[:, None]
    a = np.ones((len(eta), degree + 1))
    power = np.ones_like(y)
    for r in range(1, degree + 1):
        power = power * y / r
        a[:, r] = power.mean(axis=1)
    ell = np.zeros_like(a)
    for r in range(1, degree + 1):
        ell[:, r] = a[:, r] - (np.arange(1, r) * ell[:, 1:r] * a[:, r - 1 : 0 : -1]).sum(axis=1) / r
    c = ell[:, 1:] * np.array([1, 1j, -1, -1j])[np.arange(1, degree + 1) % 4]
    c[:, 0] += 1j * mu
    return c


def compare_trace_representations(
    bands: BandStructure,
    e_star: float,
    shifts: MassShifts,
    phi: TestFunction,
    K: int,
    h: float,
) -> TraceReport:
    """Run both trace routes on one configuration, on the t grid (K, h), and report the gaps.

    G_n is left out for the bands farther than BAND_PRUNE_WIDTH * alpha from
    the window, d_n = min_kappa |E_n - E*| - max_m |m_m|.
    """
    # The fiber sum first: its (n_bands, N_kappa, N_H) temporaries are freed
    # before the phase tables are built, which keeps the peak memory down.
    fiber = theta_fiber(phi, bands, e_star, shifts)
    factors = arithmetic_factors(shifts, K, h)
    d = np.abs(bands.bands - e_star).min(axis=1) - np.abs(shifts.values).max(initial=0.0)
    far = d > BAND_PRUNE_WIDTH * phi.alpha
    pruned = float(np.exp(-(d[far] / phi.alpha) ** 2).sum() * 4.0 * np.pi / bands.potential.period)
    geometric = _geometric_on_grid(bands, e_star, K, h, np.flatnonzero(~far))
    t = np.arange(-K, K + 1) * h
    integrand = phi.fourier(t) * geometric.sum(axis=0) * factors.a_joint
    h_t = float(t[1] - t[0])  # the step as the grid holds it: it may differ from h in the last bit
    separated = _separated_integral(integrand, h_t).real
    scale = max(abs(fiber), np.finfo(float).tiny)
    euler_gap = float(np.abs(factors.a_joint - factors.a_prod).max())
    l1_mass = h_t * float(np.abs(integrand).sum()) / np.pi
    return TraceReport(
        theta_fiber=fiber,
        theta_separated=separated,
        rel_gap=abs(fiber - separated) / scale,
        euler_gap=euler_gap,
        t_max=float(t[-1]),
        h_t=h_t,
        abs_gap=abs(fiber - separated),
        l1_mass=l1_mass,
        bands_kept=len(geometric),
        band_prune_bound=pruned,
        euler_series_primes=factors.euler_series_primes,
        euler_series_bound=factors.euler_series_bound,
    )
