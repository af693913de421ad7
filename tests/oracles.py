"""Scalar reference implementations that the tests compare the library against.

geometric_factor is the unfolded trapezoid sum over the whole kappa grid, one
t at a time; the library folds the grid onto kappa >= 0 and evaluates whole t
grids from phase tables.  local_factor is A_p at one t; the library's
local_factor_grid evaluates a whole t grid at once.
"""

import numpy as np

from diracgap.arithmetic import CoefficientFamily, HeckeEnsemble
from diracgap.floquet import BandStructure


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


def local_factor(ensemble: HeckeEnsemble, family: CoefficientFamily, p: int, t: float) -> complex:
    """Empirical local factor A_p(t) = mean_m exp(i t eta_p(lambda_p(m))).

    A_p(0) = 1 exactly, |A_p(t)| <= 1, and A_p(-t) = conj(A_p(t)).
    """
    eta = family.eta(p, ensemble.row(p))
    return complex(np.mean(np.exp(1j * t * eta)))
