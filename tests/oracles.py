"""Reference implementations that the tests compare the library against.

The library stores the bands on kappa >= 0 only.  mirrored_bands writes out
the whole kappa grid by E_n(-kappa) = E_n(kappa), and solved_whole_grid solves
the negative half afresh instead.  geometric_factor is the unfolded trapezoid
sum over the whole grid, one t at a time; the library folds the grid onto
kappa >= 0 and evaluates whole t grids from phase tables.  whole_grid_sums is
theta_fiber and sum_n G_n over the whole, freshly solved grid with weights
1/2, 1, ..., 1, 1/2, against which the tests check the library's fold.
theta_fiber_whole_array is the folded fiber sum from one
(n_bands, N_kappa // 2 + 1, N_H) array; the library adds one band at a time,
in blocks of kappa nodes.  eta is the coefficient family
eta_p(lambda) = p^-(1+epsilon) lambda^2, and mass_shifts_loop the mass shifts
built one prime row at a time and added into a running total, where the
library takes one array product and one sum over the prime axis.
local_factor is A_p at one t and local_factor_grid A_p on a whole t grid,
straight from the samples; the library sums the primes on phase tables, on
local Taylor moments or on the cumulant series.  log_series is that series
with one degree for every prime, one prime per row; the library cuts each
prime where its own tail bound ends, read off one (degree, prime) table of
the bounds, and sums the rows' coefficients.
phase_sums is every phase sum of the trace from its full exp table, summed
in order; the library sums them on two-level tables or on local Taylor
moments.  build_fiber_matrix
and dense_block_model write out the dense matrices that the library keeps as
banded or diagonal data, the latter on the fibers and modes that
subsample_entries picks.  trace_response sums
F(t) over every jump, where the library's F' sums only the jumps near |t|,
and two_half_mismatch sweeps both halves of [-T, T], where the library sweeps
one.
"""

import numpy as np

from diracgap.arithmetic import HeckeEnsemble
from diracgap.floquet import BandStructure, PotentialSpec, fiber_eigenvalues
from diracgap.shift import Staircase, TestFunction
from diracgap.zeta import ZeroTable, mapped_staircase, zero_staircase


def trapezoid_weights(n_nodes: int) -> np.ndarray:
    """1/2, 1, ..., 1, 1/2: the trapezoid rule on the whole kappa grid, in grid steps."""
    c = np.ones(n_nodes)
    c[0] = c[-1] = 0.5
    return c


def mirrored_bands(bands: BandStructure) -> np.ndarray:
    """E_n on the whole kappa grid, shape (n_bands, N_kappa): column j < N_kappa // 2 is
    the stored column of -kappa_j, written out here by E_n(-kappa) = E_n(kappa)."""
    return np.concatenate([bands.bands[:, :0:-1], bands.bands], axis=1)


def solved_whole_grid(bands: BandStructure) -> np.ndarray:
    """E_n on the whole kappa grid, the negative half solved by fiber_eigenvalues, not mirrored."""
    g = bands.grid
    negative = fiber_eigenvalues(bands.potential, g.nodes[:g.half_index], bands.truncation,
                                 bands.n_bands)
    return np.concatenate([negative.T, bands.bands], axis=1)


def whole_grid_sums(phi, bands: BandStructure, e_star: float, shifts,
                    t) -> tuple[float, np.ndarray]:
    """(theta_fiber, sum_n G_n(t)) by the unfolded trapezoid rule over solved_whole_grid."""
    q = solved_whole_grid(bands) - e_star
    c = trapezoid_weights(bands.grid.n_nodes)
    step = 2.0 * np.pi / bands.potential.period / (bands.grid.n_nodes - 1)
    mean_over_modes = np.asarray(phi(q[:, :, None] + shifts.values)).mean(axis=2)
    theta = 2.0 * step * float((mean_over_modes * c).sum())
    phases = np.exp(1j * np.multiply.outer(np.asarray(t, dtype=float), q))  # (t, n, j)
    return theta, step * (phases * c).sum(axis=(1, 2))


def geometric_factor(bands: BandStructure, e_star: float, n: int, t: float) -> complex:
    """Trapezoid quadrature of e^{i t (E_n(kappa) - E*)} over the full kappa grid.

    G_n(0) = 2 pi / L exactly (the grid measure).
    """
    if not 0 <= n < bands.n_bands:
        raise ValueError(f"band index {n} not stored (n_bands={bands.n_bands})")
    q = mirrored_bands(bands)[n] - e_star
    raw = complex(np.dot(trapezoid_weights(bands.grid.n_nodes), np.exp(1j * t * q)))
    L = bands.potential.period
    return (2.0 * np.pi / L) * (raw / (bands.grid.n_nodes - 1))


def theta_fiber_whole_array(phi, bands: BandStructure, e_star: float, shifts) -> float:
    """theta_fiber with every band's values and Gaussian temporaries in one array, on the
    stored kappa >= 0 half with the whole grid's weights folded onto it: 1, 2, ..., 2, 1."""
    vals = (bands.bands - e_star)[:, :, None] + shifts.values[None, None, :]
    mean_over_modes = np.asarray(phi(vals)).mean(axis=2)
    w = np.full(bands.bands.shape[1], 2.0)
    w[0] = w[-1] = 1.0
    raw = float((mean_over_modes.sum(axis=0) * w).sum())
    return 2.0 * (2.0 * np.pi / bands.potential.period) * (raw / (bands.grid.n_nodes - 1))


def eta(p: int, lam, epsilon: float):
    """eta_p(lambda) = p^-(1+epsilon) lambda^2, vectorized over lambda."""
    lam = np.asarray(lam, dtype=float)
    return p ** -(1.0 + epsilon) * lam * lam


def mass_shifts_loop(ensemble: HeckeEnsemble, epsilon: float) -> tuple[np.ndarray, np.ndarray]:
    """(values, terms): one eta_p row per prime, added into a zero total in ascending-prime order."""
    terms = np.array([p ** -(1.0 + epsilon) * lam * lam
                      for p, lam in zip(ensemble.primes, ensemble.samples)])
    total = np.zeros(ensemble.samples.shape[1])
    for row in terms:
        total += row
    return total, terms


def sample_row(ensemble: HeckeEnsemble, p: int) -> np.ndarray:
    """The samples lambda_p(m) of one prime, indexed by mode."""
    return ensemble.samples[ensemble.primes.index(p)]


def local_factor(ensemble: HeckeEnsemble, epsilon: float, p: int, t: float) -> complex:
    """Empirical local factor A_p(t) = mean_m exp(i t eta_p(lambda_p(m))).

    A_p(0) = 1 exactly, |A_p(t)| <= 1, and A_p(-t) = conj(A_p(t)).
    """
    return complex(np.mean(np.exp(1j * t * eta(p, sample_row(ensemble, p), epsilon))))


def local_factor_grid(ensemble: HeckeEnsemble, epsilon: float, p: int,
                      t_grid: np.ndarray) -> np.ndarray:
    """A_p evaluated on a whole grid of t values at once."""
    values = eta(p, sample_row(ensemble, p), epsilon)
    return np.exp(1j * np.multiply.outer(np.asarray(t_grid, dtype=float), values)).mean(axis=1)


def log_series(eta: np.ndarray, degree: int) -> np.ndarray:
    """c[i, r - 1], the coefficient of t^r in log mean_m e^{i t eta[i, m]}, r = 1..degree.

    With eta = mu + y (mu the mean over m), mean_m e^{z y} = sum_r a_r z^r with
    a_r = mean_m y^r / r!, and its logarithm sum_r l_r z^r (l_r = kappa_r / r!, the
    cumulants) follows from l' M = M': r l_r = r a_r - sum_{j<r} j l_j a_{r-j}.
    Then c_r = l_r i^r, plus i mu at r = 1.  Every row is cut at the same degree.
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


def phase_sums(x, w, h: float, K: int) -> np.ndarray:
    """S[i, k] = sum_j w_j e^{i k h x[i, j]}, k = 0..K (w = None means all ones).

    Each row takes its full (K + 1, J) exp table, summed over j left to right.
    """
    x = np.atleast_2d(np.asarray(x, dtype=float))
    weights = np.ones(x.shape[1]) if w is None else np.asarray(w, dtype=float)
    t = np.arange(K + 1) * h
    return np.array([np.cumsum(np.exp(1j * np.multiply.outer(t, row)) * weights, axis=1)[:, -1]
                     for row in x]).reshape(len(x), K + 1)


def build_fiber_matrix(potential: PotentialSpec, kappa: float, M: int) -> np.ndarray:
    """Dense real symmetric fiber matrix of size 2M+1 at quasi-momentum kappa."""
    L = potential.period
    m = np.arange(-M, M + 1)
    a = np.diag((kappa + 2.0 * np.pi * m / L) ** 2)
    n = 2 * M + 1
    for r, c in enumerate(potential.cosine_coefficients, start=1):
        idx = np.arange(n - r)
        a[idx, idx + r] = c / 2.0
        a[idx + r, idx] = c / 2.0
    return a


def block_entries(q, mass, deformed: bool) -> np.ndarray:
    """Diagonal of B over (fiber i, mode m), i major: q_i + m_m, or q_i for the background."""
    q, mass = np.asarray(q, dtype=float), np.asarray(mass, dtype=float)
    return (q[:, None] + mass[None, :]).ravel() if deformed else np.repeat(q, len(mass))


def subsample_entries(bands: BandStructure, e_star: float, shifts, nodes, mode_stride: int):
    """(q, mass) of every band at the whole-grid kappa nodes, band major, and every
    mode_stride-th mode."""
    return (mirrored_bands(bands)[:, nodes] - e_star).ravel(), shifts.values[::mode_stride]


def dense_block_model(b) -> np.ndarray:
    """Dense block matrix [[0, B], [B, 0]] with B = diag(b); dimension capped at 512."""
    b = np.asarray(b, dtype=float)
    dim = 2 * len(b)
    if dim > 512:
        raise ValueError(f"dense oracle limited to dimension 512, requested {dim}")
    out = np.zeros((dim, dim))
    out[: len(b), len(b):] = np.diag(b)
    out[len(b):, : len(b)] = np.diag(b)
    return out


def trace_response(s: Staircase, phi: TestFunction, t):
    """F(t) = sum over the symmetric spectrum of phi(lambda - t)."""
    t = np.asarray(t, dtype=float)
    return sum((w * (phi(lam - t) + phi(-lam - t)) for lam, w in zip(s.locations, s.weights)),
               np.zeros_like(t))


def two_half_mismatch(mapped_locations, multiplicities, zeros: ZeroTable, T: float):
    """(E_step, positive half, negative half): both halves swept at mirrored midpoints."""
    model = mapped_staircase(mapped_locations, multiplicities)
    zero = zero_staircase(zeros)
    jumps = np.concatenate([model.locations, zero.locations])
    points = np.unique(np.concatenate([[0.0, T], jumps[jumps < T]]))
    widths = np.diff(points)
    mid = 0.5 * (points[:-1] + points[1:])
    pos, neg = (float(np.cumsum(widths * np.abs(model(m) - zero(m)))[-1]) for m in (mid, -mid))
    return (pos + neg) / (2.0 * T), pos, neg
