"""Reference implementations that the tests compare the library against.

geometric_factor is the unfolded trapezoid sum over the whole kappa grid, one
t at a time; the library folds the grid onto kappa >= 0 and evaluates whole t
grids from phase tables.  theta_fiber_whole_array is the fiber sum from one
(n_bands, N_kappa, N_H) array; the library adds one band at a time.
local_factor is A_p at one t and local_factor_grid A_p on a whole t grid,
straight from the samples; the library sums the primes on phase tables or on
the cumulant series.  build_fiber_matrix and
materialize_dense write out the dense matrices that the library keeps as
banded or diagonal data, and trace_response sums F(t) over every jump, where
the library's F' sums only the jumps near |t|.
"""

import numpy as np

from diracgap.arithmetic import CoefficientFamily, HeckeEnsemble
from diracgap.floquet import BandStructure, PotentialSpec
from diracgap.matmodel import MatrixModel
from diracgap.shift import Staircase, TestFunction


def geometric_factor(bands: BandStructure, e_star: float, n: int, t: float) -> complex:
    """Trapezoid quadrature of e^{i t (E_n(kappa) - E*)} over the full kappa grid.

    G_n(0) = 2 pi / L exactly (the grid measure).
    """
    if not 0 <= n < bands.n_bands:
        raise ValueError(f"band index {n} not stored (n_bands={bands.n_bands})")
    q = bands.bands[n] - e_star
    c = np.ones(bands.grid.n_nodes)
    c[0] = c[-1] = 0.5
    raw = complex(np.dot(c, np.exp(1j * t * q)))
    L = bands.potential.period
    return (2.0 * np.pi / L) * (raw / (bands.grid.n_nodes - 1))


def theta_fiber_whole_array(phi, bands: BandStructure, e_star: float, shifts) -> float:
    """theta_fiber with every band's values and Gaussian temporaries in one array."""
    vals = (bands.bands - e_star)[:, :, None] + shifts.values[None, None, :]
    mean_over_modes = np.asarray(phi(vals)).mean(axis=2)
    c = np.ones(bands.grid.n_nodes)
    c[0] = c[-1] = 0.5
    raw = float((mean_over_modes.sum(axis=0) * c).sum())
    return 2.0 * (2.0 * np.pi / bands.potential.period) * (raw / (bands.grid.n_nodes - 1))


def sample_row(ensemble: HeckeEnsemble, p: int) -> np.ndarray:
    """The samples lambda_p(m) of one prime, indexed by mode."""
    return ensemble.samples[ensemble.primes.index(p)]


def local_factor(ensemble: HeckeEnsemble, family: CoefficientFamily, p: int, t: float) -> complex:
    """Empirical local factor A_p(t) = mean_m exp(i t eta_p(lambda_p(m))).

    A_p(0) = 1 exactly, |A_p(t)| <= 1, and A_p(-t) = conj(A_p(t)).
    """
    eta = family.eta(p, sample_row(ensemble, p))
    return complex(np.mean(np.exp(1j * t * eta)))


def local_factor_grid(
    ensemble: HeckeEnsemble, family: CoefficientFamily, p: int, t_grid: np.ndarray
) -> np.ndarray:
    """A_p evaluated on a whole grid of t values at once."""
    eta = family.eta(p, sample_row(ensemble, p))
    return np.exp(1j * np.multiply.outer(np.asarray(t_grid, dtype=float), eta)).mean(axis=1)


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


def model_from_values(q_values, mass_values) -> MatrixModel:
    """Toy matrix model straight from fiber energies and mode shifts."""
    q = np.asarray(q_values, dtype=float)
    mass = np.asarray(mass_values, dtype=float)
    if q.size == 0 or mass.size == 0:
        raise ValueError("empty band structure")
    return MatrixModel(q=q, mass=mass)


def materialize_dense(model: MatrixModel, deformed: bool) -> np.ndarray:
    """Dense block matrix [[0, B], [B, 0]]; dimension capped at 512."""
    b = model.arith_positive() if deformed else model.glob_positive()
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
