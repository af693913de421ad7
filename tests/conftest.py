import numpy as np
import pytest

from diracgap import expcli, tracekit
from diracgap.arithmetic import MassShifts
from diracgap.floquet import (
    BandStructure,
    PotentialSpec,
    QuasiMomentumGrid,
    compute_band_structure,
)
from diracgap.gapspec import GapSpectrum
from diracgap.shift import Staircase


@pytest.fixture(scope="session")
def mathieu_bands():
    """Production-default band structure: Mathieu, M=32, N_kappa=201, 8 bands."""
    pot = PotentialSpec.mathieu()
    grid = QuasiMomentumGrid(n_nodes=201, period=1.0)
    return compute_band_structure(pot, grid, M=32, n_bands=8)


@pytest.fixture(scope="session")
def default_run():
    """Full pipeline result for the default configuration."""
    return expcli.compute_run(expcli.parse_config("{}"))


def one_row_shifts(values):
    """Mode shifts carried by a single eta row."""
    values = np.asarray(values, dtype=float)
    return MassShifts(values=values, terms=values[None])


def staircase_of(pairs):
    """The staircase a run builds on a hand-built gap spectrum of (lambda_k, m_k) pairs.

    Every group's fibers are m_k rows (0, 0, 1): group k starts at starts[k].
    """
    multiplicities = np.array([m for _, m in pairs], dtype=np.int64)
    spec = GapSpectrum(
        positive_values=np.array([v for v, _ in pairs], dtype=float),
        multiplicities=multiplicities,
        fibers=np.tile([0, 0, 1], (multiplicities.sum(), 1)),
        starts=np.cumsum(multiplicities) - multiplicities,
    )
    return Staircase(spec.positive_values, spec.multiplicities)


def trace_grid(bands, e_star, shifts, alpha):
    """(K, h) of the t grid that compute_run derives for these bands and shifts."""
    v_max = float(np.abs(bands.bands - e_star).max() + np.abs(shifts.values).max(initial=0.0))
    return tracekit.t_grid(alpha, bands.n_bands, bands.potential.period, v_max)


def toy_band_structure(rows, period=1.0):
    """BandStructure from explicit per-band energy rows on the kappa >= 0 nodes.

    rows[n] lists E_n at kappa = 0, ..., pi/L; all rows must share a length
    >= 2 (pad constant bands by repetition), and the grid has 2 len - 1 nodes.
    """
    bands = np.array(rows, dtype=float)
    return BandStructure(
        potential=PotentialSpec(period=period),
        grid=QuasiMomentumGrid(n_nodes=2 * bands.shape[1] - 1, period=period),
        truncation=max(1, bands.shape[0]),
        bands=bands,
    )
