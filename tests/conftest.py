import numpy as np
import pytest

from diracgap import expcli
from diracgap.arithmetic import MassShifts
from diracgap.floquet import (
    GAP_TOLERANCE,
    BandStructure,
    GapInterval,
    PotentialSpec,
    QuasiMomentumGrid,
    compute_band_structure,
)


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


def toy_band_structure(rows, period=1.0):
    """BandStructure from explicit per-band energy rows on a 1-node-per-value grid.

    rows[n] lists E_n at each grid node; all rows must share a length that is
    odd and >= 3 (pad constant bands by repetition).
    """
    bands = np.array(rows, dtype=float)
    n_nodes = bands.shape[1]
    grid = QuasiMomentumGrid(n_nodes=n_nodes, period=period)
    edges = tuple((float(r.min()), float(r.max())) for r in bands)
    gaps = []
    for n in range(len(edges) - 1):
        if edges[n + 1][0] - edges[n][1] > GAP_TOLERANCE:
            gaps.append(GapInterval(lower=edges[n][1], upper=edges[n + 1][0], index=n))
    return BandStructure(
        potential=PotentialSpec(period=period),
        grid=grid,
        truncation=max(1, bands.shape[0]),
        bands=bands,
        band_edges=edges,
        gaps=tuple(gaps),
    )
