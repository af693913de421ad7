"""Fiber traces and the separated (geometric x arithmetic) representation.

For an even Gaussian window phi, the trace of phi of the truncated Dirac
operator decomposes over Floquet-Hecke fibers:

    theta_fiber = 2 sum_n int_{-pi/L}^{pi/L} mean_m phi(E_n(kappa) - E* + m_m) dkappa,

with the kappa integral done by the whole grid's trapezoid rule, folded onto
the stored kappa >= 0 half by E_n(-kappa) = E_n(kappa) (the grid's
fold_weights).  The same quantity has a separated Fourier-side form

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
Both routes sum the same folded kappa grid with the same weights; a test, not
the run, compares the folded sums with sums over the whole grid.

Every factor is a sum S(t_k) = sum_j w_j e^{i t_k x_j} on that grid, and
every function here takes the grid as (K, h).  Only k >= 0 is
computed: the sums are real-weighted, so the t < 0 half is the exact
conjugate mirror S(-t_k) = conj S(t_k), bitwise.  Each call of
_half_grid_sums (one band, A_joint, or a block of PRIME_CHUNK primes) takes
one of two routes:

- Tables.  With R = ceil(sqrt(K + 1)) and k = b R + r the phase splits as
  e^{i b R h x} e^{i r h x}, so two exp tables of shapes (n_b, J) and (R, J)
  and one contraction over j replace the (2K + 1, J) table: about
  2 sqrt(K) exps per point x_j and K J multiply-adds per row.
- Taylor moments.  Write x = mid + y, mid the centre of each row and beta
  the largest |y| of the call, and cut k = 0..K into segments of at most
  span = 2 floor(rho / (beta h)) + 1 points (rho = TAYLOR_RHO = 2), as few
  as cover the grid, filled evenly.  Around a segment centre t_c,
  S(t_c + s h) = e^{i s h mid} sum_r (i s h)^r m_r with the moments
  m_r = sum_j w_j e^{i t_c x_j} y_j^r / r!, r <= D = TAYLOR_DEGREE = 26.
  As |s h y| <= rho, the cut errs by at most sum_{r > D} rho^r / r!
  ~ 1.3e-20 per unit weight: far below the rounding of either route.  It
  costs (D + 1)(K / span + K / J) multiply-adds per row.

A call takes the Taylor route exactly when (D + 1)(1 / span + 1 / J) < 1,
span the length of its segments, so only rows whose phases turn slowly over
many points take it.  On the four benchmark shapes that is band 0 (rule
value 0.57 at the default step, 0.13 at h = 0.0025) and band 1 at
h = 0.0025 (0.29); A_joint and the table primes at N_H = 500 (0.08); band 1
at the default step (1.27), and A_joint and the table primes at N_H = 20
(1.37), keep the tables.  trace_report.json counts the rows of the Taylor
route in taylor_rows.

Both contractions over j are np.einsum without BLAS, and so are the t
trapezoid sum and the kappa sum of theta_fiber: OpenBLAS splits long dot and
matrix products across its threads, so their last bits depend on the thread
count (matmul products hash differently under OPENBLAS_NUM_THREADS=1 and 2).
tests/test_source.py rejects any BLAS call in the library.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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
# rel_gap 1.1e-15), but dropping the cap moves the trace bits that perfbench/reference pins.
H_MAX = 0.01
# Taylor route of _half_grid_sums: segments with |s h y| <= TAYLOR_RHO, series
# cut after TAYLOR_DEGREE, which errs by sum_{r > 26} 2^r / r! ~ 1.3e-20 per unit weight.
TAYLOR_RHO = 2.0
TAYLOR_DEGREE = 26


@dataclass(frozen=True)
class TraceReport:
    theta_fiber: float
    theta_separated: float
    rel_gap: float
    euler_gap: float
    t_max: float
    h_t: float
    abs_gap: float
    # L1 mass of the Fourier-side integrand: the quadrature's rounding noise
    # scales with it, so agreement below ~eps * l1_mass is at resolution.
    l1_mass: float
    bands_kept: int
    band_prune_bound: float
    euler_series_primes: int
    euler_series_bound: float  # on |log A_prod| lost by truncating the series
    taylor_rows: int  # rows summed on the Taylor route: bands, A_joint and A_prod tables


def theta_fiber(phi, bands: BandStructure, e_star: float, shifts: MassShifts) -> float:
    """Trapezoid fiber sum 2 sum_n sum_j w_j mean_m phi(E - E* + m) on kappa >= 0.

    phi may be any callable acting elementwise on arrays.  The weights are
    applied as (2 pi / L) * w_j / (N_kappa - 1) with w the grid's fold_weights,
    so a constant integrand integrates exactly.  The bands are taken one at a
    time, in order, which bounds the temporaries to (N_kappa // 2 + 1, N_H).
    """
    w = bands.grid.fold_weights()
    mean_over_modes = np.zeros(len(w))
    for row in bands.bands - e_star:
        mean_over_modes += np.asarray(phi(row[:, None] + shifts.values)).mean(axis=1)
    raw = float((mean_over_modes * w).sum())
    L = bands.potential.period
    return 2.0 * (2.0 * np.pi / L) * (raw / (bands.grid.n_nodes - 1))


def _half_grid_sums(x: np.ndarray, w: np.ndarray | None, h: float,
                    K: int) -> tuple[np.ndarray, bool]:
    """S[i, k] = sum_j w_j e^{i k h x[i, j]} for k = 0..K (w = None means all ones),
    and whether the Taylor route summed them.

    The Taylor route serves the rows whose phases turn slowly: it takes
    (D + 1)(K / span + K / J) multiply-adds against the K J of the tables.
    """
    beta = 0.5 * float(np.ptp(x, axis=1).max())  # the largest half-range of a row
    # |s h beta| <= TAYLOR_RHO for |s| <= half; half = K (one segment) when every
    # s of the grid keeps it, which also spares beta h = 0 a division.
    half = K if beta * h * K <= TAYLOR_RHO else int(TAYLOR_RHO / (beta * h))
    n_seg = -(-(K + 1) // (2 * half + 1))
    half = -(-(K + 1) // n_seg) // 2  # as many segments, evenly filled
    if (TAYLOR_DEGREE + 1) * (1.0 / (2 * half + 1) + 1.0 / x.shape[1]) >= 1.0:
        return _table_sums(x, w, h, K), False
    return _taylor_sums(x, w, h, K, half), True


def _table_sums(x: np.ndarray, w: np.ndarray | None, h: float, K: int) -> np.ndarray:
    """The half-grid sums from two-level phase tables.

    k = b R + r with R = ceil(sqrt(K + 1)): one exp per entry of an (n_b, J)
    and an (R, J) table, and a fixed-order einsum contraction over j.
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


def _taylor_sums(x: np.ndarray, w: np.ndarray | None, h: float, K: int,
                 half: int) -> np.ndarray:
    """The half-grid sums from local Taylor moments, on segments of 2 half + 1 points.

    Each row is x = mid + beta u, mid its centre and |u| <= 1.  With t_c = k_c h
    a segment centre and k = k_c + s, S = e^{i s h mid} sum_r (i s h beta)^r m_r,
    where m_r = sum_j w_j e^{i t_c x_j} u_j^r / r! are taken with one einsum and
    the series is evaluated by Horner.  The cut after TAYLOR_DEGREE errs by at
    most sum_{r > D} rho^r / r! per unit weight, rho = half h beta.
    """
    mid = 0.5 * (x.max(axis=1) + x.min(axis=1))
    y = x - mid[:, None]
    beta = float(np.abs(y).max())
    u = y / beta if beta > 0.0 else y
    span = 2 * half + 1
    n_seg = -(-(K + 1) // span)
    centre = (half + span * np.arange(n_seg)) * h
    phase = np.exp(1j * (centre[:, None] * x[:, None, :]))  # (rows, n_seg, J)
    # Real values stored as complex: einsum then runs its same-type inner loop.
    moments = np.empty((len(x), TAYLOR_DEGREE + 1, x.shape[1]), dtype=complex)
    moments[:, 0] = 1.0 if w is None else w
    for r in range(1, TAYLOR_DEGREE + 1):
        moments[:, r] = moments[:, r - 1].real * u / r
    m = np.einsum("icj,irj->icr", phase, moments, optimize=False)  # (rows, n_seg, D + 1)
    s = np.arange(-half, half + 1) * h
    z = 1j * beta * s
    series = np.zeros((len(x), n_seg, span), dtype=complex)
    for r in range(TAYLOR_DEGREE, -1, -1):
        series *= z
        series += m[:, :, r, None]
    series *= np.exp(1j * np.multiply.outer(mid, s))[:, None, :]
    return series.reshape(len(x), n_seg * span)[:, : K + 1]


def _mirror(half: np.ndarray) -> np.ndarray:
    """Values at k = -K..K from those at k = 0..K, by S(-t) = conj S(t)."""
    return np.concatenate([np.conj(half[..., :0:-1]), half], axis=-1)


def _geometric_on_grid(bands: BandStructure, e_star: float, K: int, h: float,
                       rows=slice(None)) -> tuple[np.ndarray, int]:
    """G_n(t_k) for the bands n in rows, k = -K..K, summed over the kappa >= 0 half grid
    with its fold_weights, and the number of bands summed on the Taylor route."""
    w = bands.grid.fold_weights()
    L = bands.potential.period
    scale = 2.0 * np.pi / L / (bands.grid.n_nodes - 1)
    q = bands.bands[rows] - e_star
    sums = [_half_grid_sums(row[None], w, h, K) for row in q]
    half = np.array([band[0] for band, _ in sums]).reshape(len(q), K + 1)
    return _mirror(scale * half), sum(taylor for _, taylor in sums)


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


def arithmetic_factors(shifts: MassShifts, K: int,
                       h: float) -> tuple[np.ndarray, np.ndarray, int, float, int]:
    """(a_joint, a_prod, series_primes, series_bound, taylor_rows) on t_k = k h, k = -K..K.

    A_joint(t) = mean_m e^{i t m_m}; A_prod(t) = prod_{p in S} A_p(t), with
    A_p(t) = mean_m e^{i t eta_p} from the rows of shifts.terms.  Both equal 1
    at t = 0.  series_primes take the log series, whose truncation loses at
    most series_bound of |log A_prod|; taylor_rows counts the rows of A_joint
    and the A_prod tables summed on the Taylor route.
    """
    joint, taylor = _half_grid_sums(shifts.values[None], None, h, K)
    a_joint = _mirror(joint[0] / len(shifts))
    taylor_rows = int(taylor)
    eta = shifts.terms
    beta = np.abs(eta - eta.mean(axis=1, keepdims=True)).max(axis=1)
    q = K * h * beta / EULER_SERIES_S0
    series = q <= EULER_SERIES_RATIO
    coef = _log_series(eta[series], EULER_SERIES_DEGREE).sum(axis=0)  # of t^1..t^D
    a_prod_half = np.exp(np.polyval(np.append(coef[::-1], 0.0), np.arange(K + 1) * h))
    table = eta[~series]
    for lo in range(0, len(table), PRIME_CHUNK):
        chunk, taylor = _half_grid_sums(table[lo : lo + PRIME_CHUNK], None, h, K)
        taylor_rows += taylor * len(chunk)
        for a_p in chunk:
            a_prod_half *= a_p / len(shifts)
    q = q[series]
    bound = float((math.log(2) * q ** (EULER_SERIES_DEGREE + 1) / (1 - q)).sum())
    return a_joint, _mirror(a_prod_half), int(series.sum()), bound, taylor_rows


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
    a_joint, a_prod, series_primes, series_bound, taylor_rows = arithmetic_factors(shifts, K, h)
    d = np.abs(bands.bands - e_star).min(axis=1) - np.abs(shifts.values).max(initial=0.0)
    far = d > BAND_PRUNE_WIDTH * phi.alpha
    pruned = float(np.exp(-(d[far] / phi.alpha) ** 2).sum() * 4.0 * np.pi / bands.potential.period)
    geometric, taylor_bands = _geometric_on_grid(bands, e_star, K, h, np.flatnonzero(~far))
    integrand = phi.fourier(np.arange(-K, K + 1) * h) * geometric.sum(axis=0) * a_joint
    separated = _separated_integral(integrand, h).real
    scale = max(abs(fiber), np.finfo(float).tiny)
    euler_gap = float(np.abs(a_joint - a_prod).max())
    l1_mass = h * float(np.abs(integrand).sum()) / np.pi
    return TraceReport(
        theta_fiber=fiber,
        theta_separated=separated,
        rel_gap=abs(fiber - separated) / scale,
        euler_gap=euler_gap,
        t_max=K * h,
        h_t=h,
        abs_gap=abs(fiber - separated),
        l1_mass=l1_mass,
        bands_kept=len(geometric),
        band_prune_bound=pruned,
        euler_series_primes=series_primes,
        euler_series_bound=series_bound,
        taylor_rows=taylor_bands + taylor_rows,
    )
