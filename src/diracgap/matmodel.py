"""The diagonal matrix models and the jumps of their spectral shift in the chiral gap.

Both operators are block off-diagonal with diagonal blocks over every fiber
(n, j) and mode m,

    D = [[0, B], [B, 0]],    B = diag(q_nj) (background) or diag(q_nj + m_m),

with q_nj = E_n(kappa_j) - E*.  The spectra are {+-b} over the diagonal
entries b, so the spectral shift xi = N_arith - N_glob jumps only at
+-(q_nj + m_m) and +-q_nj.  Each q_nj lies in its band, so inside the chiral
gap around 0 every jump of xi comes from a deformed entry v = q_nj + m_m, and
those jumps must be exactly the gap values that gapspec keeps there.  Both
lists are taken on kappa >= 0, and each entry counts as the grid's copies of
its node.  The run's krein_identity check counts the jumps that differ.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .arithmetic import MassShifts
from .floquet import BandStructure
from .gapspec import MEMBERSHIP_MARGIN, DiracBandSet, GapValues


@dataclass(frozen=True)
class GapJumpReport:
    """The jump pairs +-v of xi in the chiral gap (-above, above), against gapspec's values.

    Counts are of the whole grid; differing counts the jumps whose value or fiber is
    not the kept one at the same position, plus the difference of the two list lengths.
    """

    above: float
    jumps: int
    kept: int
    differing: int


def chiral_gap_jumps(
    bands: BandStructure,
    e_star: float,
    shifts: MassShifts,
    band_set: DiracBandSet,
    gap_values: GapValues,
) -> GapJumpReport:
    """List the jumps of xi inside the chiral gap from the closed form, and compare.

    With below and above the band-set edges on either side of 0, v = q + m is
    in the gap when min(v - below, above - v) > MEMBERSHIP_MARGIN, the
    distance band_distance takes there.  Rounding is monotone, so a row (n, j)
    can only reach the gap if q + [min m, max m] meets (below, above).  The
    jumps come in (n, j, m) order and must equal, fiber for fiber and bit for
    bit, the gap values lying in the same gap.
    """
    i = np.searchsorted(band_set.lowers, 0.0, side="right") - 1
    below, above = band_set.uppers[i], band_set.lowers[i + 1]
    q = (bands.bands - e_star).ravel()
    m_vals = shifts.values
    rows = np.flatnonzero((q + m_vals.min() < above) & (q + m_vals.max() > below))
    v = q[rows, None] + m_vals[None, :]
    row, m = np.nonzero(np.minimum(v - below, above - v) > MEMBERSHIP_MARGIN)
    n, j = np.divmod(rows[row], bands.bands.shape[1])
    j += bands.grid.half_index
    in_gap = (gap_values.values > below) & (gap_values.values < above)
    jumps = np.column_stack([v[row, m], n, j, m + 1])  # indices are exact as floats
    kept = np.column_stack([gap_values.values[in_gap], gap_values.fibers[in_gap]])
    k = min(len(jumps), len(kept))
    copies = bands.grid.copies(j)
    n_jumps, n_kept = int(copies.sum()), int(gap_values.grid.copies(kept[:, 2]).sum())
    return GapJumpReport(above=float(above), jumps=n_jumps, kept=n_kept,
                         differing=int(copies[:k][(jumps[:k] != kept[:k]).any(axis=1)].sum())
                         + abs(n_jumps - n_kept))
