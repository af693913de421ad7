"""Fiber traces and the separated (geometric x arithmetic) representation.

For an even Gaussian window phi, the trace of phi of the truncated Dirac
operator decomposes over Floquet-Hecke fibers:

    theta_fiber = 2 sum_n int_{-pi/L}^{pi/L} mean_m phi(E_n(kappa) - E* + m_m) dkappa,

with the kappa integral done by the whole grid's trapezoid rule, folded onto
the stored kappa >= 0 half by E_n(-kappa) = E_n(kappa) (floquet.fold_weights).
The same quantity has a separated Fourier-side form

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
value v, and it rejects a grid over MAX_T_POINTS points with a GridError.
compare_trace_representations derives the grid itself, from the bands and
shifts it is given.

A_joint (the empirical joint measure) is what enters theta_separated; the
prime product A_prod = prod_p A_p is reported separately, because strict
multiplicativity of the empirical joint measure holds only in expectation
at finite N_H (it is exact in constant_one mode).  Write eta_p = c_p + y with
c_p = low + mean_m (eta_p - low), low = min_m eta_p (the mean, taken so that a
constant row gets y = 0 exactly), and beta_p = max_m |y|.  For |z| beta_p <= s0,
where e^{s0} - 1 - s0 = 1/2, |log mean_m e^{z y}| <= ln 2, so by Cauchy the log
series of A_p (its cumulants) cut after degree D errs by at most
ln 2 q^{D+1} / (1 - q) on |t| <= T, with q = T beta_p / s0.  The n primes with
q <= 0.2 (euler_series_primes) take that series, each cut at the least
D_p <= 30 whose bound is within 2^-80 / n, or at 30 where none is, as read
off one (degree, prime) table of the bounds; euler_series_bound sums the
bounds at D_p, at most 2^-80 above the bound of a common cut at 30.  On
N_P = 1000 the median series prime stops at degree 7.
Their coefficients are summed, one polynomial is evaluated on the grid and
exponentiated.  The few with large phases take the phase tables.

Only the bands the window sees enter either route.  With d_n = min_kappa
|E_n - E*| - max_m |m_m|, a band with d_n^2 > 746 alpha^2 (UNDERFLOW_EXPONENT)
has every fiber Gaussian exactly 0.0, so theta_fiber keeps its bits without
it, and sum_n G_n leaves out the same bands.  All bands set the t grid.
Both routes sum the same folded kappa grid with the same weights; a test, not
the run, compares the folded sums with sums over the whole grid.

Every factor is a sum S(t_k) = sum_j w_j e^{i t_k x_j} on that grid, and
each summing function takes the grid as (K, h).  Only k >= 0 is computed: the
sums are real-weighted, so S(-t) = conj S(t), and so is the integrand I of
theta_separated, whose trapezoid sum over k = -K..K is therefore that of
Re I over k = 0..K with the weights 1, 2, ..., 2, 1 of fold_weights(K), the
kappa axis's fold.  Each call of _half_grid_sums (one band, A_joint, or a
block of PRIME_CHUNK primes) takes one of two routes:

- Tables.  With R = ceil(sqrt(K + 1)) and k = b R + r the phase splits as
  e^{i b R h x} e^{i r h x}, so two exp tables of shapes (n_b, J) and (R, J)
  and one contraction over j replace the (K + 1, J) table: about
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

Three kinds of temporary outgrow what they feed: the Taylor route's phases
and moments, (rows, n_seg + D + 1, J), theta_fiber's Gaussians, (nodes, N_H),
and the Euler factors' centred rows and running powers, (primes, N_H).  All
are built in blocks of arithmetic.BLOCK_ELEMENTS elements, or of one row or
kappa node where that is more.  Each row and each node is summed alone, and a
Taylor call's beta, mid and segment centres are the whole call's, so no block
moves a bit; only one row of the mode axis (A_joint) can outgrow the budget.
Horner's evaluation and the table route stay whole, being about the size of
the output, and so does PRIME_CHUNK's grouping, which fixes beta.

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

from .arithmetic import BLOCK_ELEMENTS, MassShifts
from .floquet import BandStructure, fold_weights
from .shift import TestFunction

TAIL_HAT_CUTOFF = 1e-14
TAIL_BOUND = 1e-10
# Primes per block of the A_prod tables, which bounds their size for any N_P.
PRIME_CHUNK = 16
UNDERFLOW_EXPONENT = 746.0  # exp(-x) is exactly 0.0 in float64 for x > 745.14
# Primes with q_p = T beta_p / EULER_SERIES_S0 <= EULER_SERIES_RATIO take the
# log series of A_p, each cut at the least degree D_p <= EULER_SERIES_DEGREE whose
# tail bound is within EULER_SERIES_TOLERANCE / (number of series primes);
# EULER_SERIES_S0 solves e^s - 1 - s = 1/2.
EULER_SERIES_DEGREE = 30
EULER_SERIES_TOLERANCE = 2.0**-80
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


class GridError(ValueError):
    """A t grid of more than MAX_T_POINTS points."""


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
    bands_kept: int  # the bands both routes sum
    euler_series_primes: int
    euler_series_bound: float  # on |log A_prod| lost by truncating the series
    taylor_rows: int  # rows summed on the Taylor route: bands, A_joint and A_prod tables


def theta_fiber(phi, bands: BandStructure, e_star: float, shifts: MassShifts,
                rows=slice(None)) -> float:
    """Trapezoid fiber sum 2 sum_n sum_j w_j mean_m phi(E - E* + m) on kappa >= 0, n in rows.

    phi may be any callable acting elementwise on arrays.  The weights are
    applied as (2 pi / L) * w_j / (N_kappa - 1) with w = fold_weights(half_index),
    so a constant integrand integrates exactly.  The bands are taken one at a
    time, in order, and their Gaussians for blocks of kappa nodes under BLOCK_ELEMENTS;
    each node's mean over the modes is the same in any block.
    """
    w = fold_weights(bands.grid.half_index)
    mean_over_modes = np.zeros(len(w))
    step = max(1, BLOCK_ELEMENTS // len(shifts))
    for row in bands.bands[rows] - e_star:
        for lo in range(0, len(w), step):
            gauss = np.asarray(phi(row[lo : lo + step, None] + shifts.values))
            mean_over_modes[lo : lo + step] += gauss.mean(axis=1)
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
    m = np.empty((len(x), n_seg, TAYLOR_DEGREE + 1), dtype=complex)
    step = max(1, BLOCK_ELEMENTS // ((n_seg + TAYLOR_DEGREE + 1) * x.shape[1]))
    for lo in range(0, len(x), step):
        rows = slice(lo, lo + step)
        phase = np.exp(1j * (centre[:, None] * x[rows, None, :]))  # (rows, n_seg, J)
        # Real values stored as complex: einsum then runs its same-type inner loop.
        moments = np.empty((len(phase), TAYLOR_DEGREE + 1, x.shape[1]), dtype=complex)
        moments[:, 0] = 1.0 if w is None else w
        for r in range(1, TAYLOR_DEGREE + 1):
            moments[:, r] = moments[:, r - 1].real * u[rows] / r
        np.einsum("icj,irj->icr", phase, moments, out=m[rows], optimize=False)
    s = np.arange(-half, half + 1) * h
    z = 1j * beta * s
    series = np.zeros((len(x), n_seg, span), dtype=complex)
    for r in range(TAYLOR_DEGREE, -1, -1):
        series *= z
        series += m[:, :, r, None]
    series *= np.exp(1j * np.multiply.outer(mid, s))[:, None, :]
    return series.reshape(len(x), n_seg * span)[:, : K + 1]


def _geometric_on_grid(bands: BandStructure, e_star: float, K: int, h: float,
                       rows=slice(None)) -> tuple[np.ndarray, int]:
    """G_n(t_k) for the bands n in rows, k = 0..K, summed over the kappa >= 0 half grid
    with its fold_weights, and the number of bands summed on the Taylor route."""
    w = fold_weights(bands.grid.half_index)
    L = bands.potential.period
    scale = 2.0 * np.pi / L / (bands.grid.n_nodes - 1)
    q = bands.bands[rows] - e_star
    sums = [_half_grid_sums(row[None], w, h, K) for row in q]
    half = np.array([band[0] for band, _ in sums]).reshape(len(q), K + 1)
    return scale * half, sum(taylor for _, taylor in sums)


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
    negligible.  GridError if the grid has more than MAX_T_POINTS points.
    """
    T = tail_half_width(alpha, n_bands, period)
    h = min(H_MAX, 2.0 * math.pi / (v_max + 8.0 * alpha + 1.0))
    steps = T / h if h > 0.0 else math.inf
    if not (math.isfinite(steps) and 2 * math.ceil(steps) + 1 <= MAX_T_POINTS):
        raise GridError(f"the t grid needs 2*ceil(T/h)+1 > MAX_T_POINTS={MAX_T_POINTS} points "
                        f"(half-width T={T:.6g}, step h={h:.6g} from alpha and "
                        f"v_max={v_max:.6g}, the largest |E - E* + m| known)")
    K = max(math.ceil(steps), 1)
    return K, T / K


def arithmetic_factors(shifts: MassShifts, K: int,
                       h: float) -> tuple[np.ndarray, np.ndarray, int, float, int]:
    """(a_joint, a_prod, series_primes, series_bound, taylor_rows) on t_k = k h, k = 0..K.

    A_joint(t) = mean_m e^{i t m_m}; A_prod(t) = prod_{p in S} A_p(t), with
    A_p(t) = mean_m e^{i t eta_p} from the rows of shifts.terms.  Both equal 1
    at t = 0.  series_primes take the log series, whose truncation loses at
    most series_bound of |log A_prod|; taylor_rows counts the rows of A_joint
    and the A_prod tables summed on the Taylor route.
    """
    joint, taylor = _half_grid_sums(shifts.values[None], None, h, K)
    a_joint = joint[0] / len(shifts)
    taylor_rows = int(taylor)
    eta = shifts.terms
    mu, beta = _centred(eta)
    q = K * h * beta / EULER_SERIES_S0
    series = q <= EULER_SERIES_RATIO
    degrees = np.zeros(len(eta), dtype=np.int64)  # degree 0: the row takes the tables
    degrees[series], bound = _series_degrees(q[series])
    coef = _log_series(eta, mu, degrees)  # of t^1..t^max(degrees)
    a_prod = np.exp(np.polyval(np.append(coef[::-1], 0.0), np.arange(K + 1) * h))
    table = np.flatnonzero(~series)
    for lo in range(0, len(table), PRIME_CHUNK):
        chunk, taylor = _half_grid_sums(eta[table[lo : lo + PRIME_CHUNK]], None, h, K)
        taylor_rows += taylor * len(chunk)
        for a_p in chunk:
            a_prod *= a_p / len(shifts)
    return a_joint, a_prod, int(series.sum()), bound, taylor_rows


def _centred(eta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(mu, beta) row by row: eta = mu + y with mu = low + mean_m (eta - low), low the row
    minimum, so a constant row gets y = 0 exactly, and beta = max_m |y|.  The rows are
    taken in blocks under BLOCK_ELEMENTS."""
    mu, beta = np.empty(len(eta)), np.empty(len(eta))
    step = max(1, BLOCK_ELEMENTS // eta.shape[1])
    for lo in range(0, len(eta), step):
        block = eta[lo : lo + step]
        low = block.min(axis=1, keepdims=True)
        centre = low + (block - low).mean(axis=1, keepdims=True)
        mu[lo : lo + step] = centre[:, 0]
        beta[lo : lo + step] = np.abs(block - centre).max(axis=1)
    return mu, beta


def _series_degrees(q: np.ndarray) -> tuple[np.ndarray, float]:
    """(D, bound) from one (degree, prime) table of the tail bounds ln 2 q_p^{D+1} / (1 - q_p),
    D = 1..EULER_SERIES_DEGREE: D_p is the least D whose bound is within
    EULER_SERIES_TOLERANCE / len(q), or EULER_SERIES_DEGREE where none is (the bounds fall
    with D), and bound sums the bounds at D_p over p."""
    tail = math.log(2) * q ** np.arange(2, EULER_SERIES_DEGREE + 2)[:, None] / (1 - q)
    cut = EULER_SERIES_TOLERANCE / max(len(q), 1)
    degrees = np.minimum(1 + (tail > cut).sum(axis=0), EULER_SERIES_DEGREE)
    return degrees, float(tail[degrees - 1, np.arange(len(q))].sum())


def _log_series(eta: np.ndarray, mu: np.ndarray, degrees: np.ndarray) -> np.ndarray:
    """c[r - 1], the coefficient of t^r in sum_p log mean_m e^{i t eta[p, m]} over the rows
    with degrees[p] > 0, each row's series cut after degrees[p], r = 1..max(degrees);
    mu[p] is the row's centre from _centred.

    With y = eta - mu, mean_m e^{z y} = sum_r a_r z^r with a_r = mean_m y^r / r!, and its
    logarithm sum_r l_r z^r (l_r = kappa_r / r!, the cumulants) follows from l' M = M':
    r l_r = r a_r - sum_{j<r} j l_j a_{r-j}.  Then c_r = i^r sum_p l_r, plus i sum_p mu
    at r = 1.  The rows go in descending degree, in blocks under BLOCK_ELEMENTS, so step
    r touches only the block's rows with degrees >= r: the powers stay (prime, mode), so
    each mean runs over the contiguous mode axis, and the recursion runs (degree, prime).
    """
    kept = np.flatnonzero(degrees)  # ascending, the order mass_shifts adds the rows in
    order = kept[np.argsort(-degrees[kept], kind="stable")]
    degrees = degrees[order]
    top = int(degrees.max(initial=0))
    a = np.zeros((top + 1, len(order)))
    step = max(1, BLOCK_ELEMENTS // eta.shape[1])
    for lo in range(0, len(order), step):
        rows = order[lo : lo + step]
        y = eta[rows] - mu[rows, None]
        power = np.ones_like(y)
        for r in range(1, int(degrees[lo]) + 1):
            live = int(np.count_nonzero(degrees[lo : lo + step] >= r))
            power = power[:live] * y[:live] / r
            a[r, lo : lo + live] = power.mean(axis=1)
    rl = np.zeros_like(a)  # r l_r
    for r in range(1, top + 1):
        live = int(np.count_nonzero(degrees >= r))
        rl[r, :live] = r * a[r, :live] - np.einsum(
            "jp,jp->p", rl[1:r, :live], a[r - 1 : 0 : -1, :live], optimize=False)
    r = np.arange(1, top + 1)
    c = rl[1:].sum(axis=1) / r * np.array([1, 1j, -1, -1j])[r % 4]
    c[:1] += 1j * np.cumsum(mu[kept])[-1:]  # row after row
    return c


def compare_trace_representations(bands: BandStructure, e_star: float, shifts: MassShifts,
                                  phi: TestFunction) -> TraceReport:
    """Run both trace routes on one configuration and report the gaps.

    The t grid is t_grid's for v_max = max |E_n - E*| + max_m |m_m|, the largest fiber
    value; a grid over MAX_T_POINTS points raises GridError before any sum is taken.
    Both routes sum the bands the window sees, d_n = min_kappa |E_n - E*| - max_m |m_m|
    at most sqrt(UNDERFLOW_EXPONENT) alpha; the Gaussians of the others are all 0.0.
    """
    distance, m_max = np.abs(bands.bands - e_star), np.abs(shifts.values).max(initial=0.0)
    K, h = t_grid(phi.alpha, bands.n_bands, bands.potential.period,
                  float(distance.max() + m_max))
    d = distance.min(axis=1) - m_max
    seen = np.flatnonzero(d <= math.sqrt(UNDERFLOW_EXPONENT) * phi.alpha)
    # The fiber sum first: its blocks of Gaussians are freed before the phase sums start.
    fiber = theta_fiber(phi, bands, e_star, shifts, seen)
    a_joint, a_prod, series_primes, series_bound, taylor_rows = arithmetic_factors(shifts, K, h)
    geometric, taylor_bands = _geometric_on_grid(bands, e_star, K, h, seen)
    integrand = phi.fourier(np.arange(K + 1) * h) * geometric.sum(axis=0) * a_joint
    w = fold_weights(K)  # numpy's own sums, whose order does not depend on the BLAS threads
    separated = h * float((w * integrand).sum().real) / np.pi
    scale = max(abs(fiber), np.finfo(float).tiny)
    euler_gap = float(np.abs(a_joint - a_prod).max())
    l1_mass = h * float((w * np.abs(integrand)).sum()) / np.pi
    return TraceReport(
        theta_fiber=fiber,
        theta_separated=separated,
        rel_gap=abs(fiber - separated) / scale,
        euler_gap=euler_gap,
        t_max=K * h,
        h_t=h,
        abs_gap=abs(fiber - separated),
        l1_mass=l1_mass,
        bands_kept=len(seen),
        euler_series_primes=series_primes,
        euler_series_bound=series_bound,
        taylor_rows=taylor_bands + taylor_rows,
    )
