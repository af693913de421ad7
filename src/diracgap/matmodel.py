"""The diagonal matrix models: the spectral shift's gap jumps and the tail norms.

Both operators are block off-diagonal with diagonal blocks over every fiber
(n, j) and mode m,

    D = [[0, B], [B, 0]],    B = diag(q_nj) (background) or diag(q_nj + m_m),

with q_nj = E_n(kappa_j) - E*.  The spectra are {+-b} over the diagonal
entries b, so the spectral shift xi = N_arith - N_glob jumps only at
+-(q_nj + m_m) and +-q_nj.  Each q_nj lies in its band, so inside the chiral
gap around 0 every jump of xi comes from a deformed entry v = q_nj + m_m, and
those jumps must be exactly the gap values that gapspec keeps there.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .arithmetic import CoefficientFamily, MassShifts
from .floquet import BandStructure
from .gapspec import MEMBERSHIP_MARGIN, DiracBandSet, GapValues


@dataclass(frozen=True)
class GapJumpReport:
    """The jump pairs +-v of xi in the chiral gap (-above, above), against gapspec's values."""

    above: float
    jumps: int
    kept: int
    matches: bool


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
    n, j = np.divmod(rows[row], bands.grid.n_nodes)
    in_gap = (gap_values.values > below) & (gap_values.values < above)
    matches = np.array_equal(v[row, m], gap_values.values[in_gap]) and np.array_equal(
        np.stack([n, j, m + 1], axis=1), gap_values.fibers[in_gap])
    return GapJumpReport(above=float(above), jumps=len(row), kept=int(in_gap.sum()),
                         matches=bool(matches))


@dataclass(frozen=True)
class NormBoundReport:
    tail_norms: tuple[float, ...]
    tail_bounds: tuple[float, ...]
    all_bounds_hold: bool


def norm_bound_checks(
    family: CoefficientFamily, primes: tuple[int, ...], shifts: MassShifts
) -> NormBoundReport:
    """Functional-calculus and tail-norm inequalities on diagonal Hecke data.

    With T_p = diag(lambda_p(.)), the operator norm of eta_p(T_p) (row p of
    shifts.terms) is the max over modes of |eta_p|, bounded by the sup norm
    p^-(1+eps).  Tail norms ||M^(S) - M^(S_k)|| over the nested ascending
    prefixes S_k of N_P/4, N_P/2 and all N_P primes are bounded by the
    corresponding prime tail sums and decrease monotonically in k.  Each tail
    adds its rows to 0 in ascending-prime order.
    """
    n = len(primes)
    bounds = np.array([family.sup_norm(p) for p in primes])
    tail_norms, tail_bounds = [], []
    for size in sorted({max(1, n // 4), max(1, n // 2), n}):
        tail = np.cumsum(np.vstack([np.zeros(len(shifts)), shifts.terms[size:]]), axis=0)[-1]
        tail_norms.append(float(np.abs(tail).max()))
        tail_bounds.append(float(np.cumsum(np.concatenate([[0.0], bounds[size:]]))[-1]))

    slack = 1.0 + 1e-12
    holds = (bool(np.all(np.abs(shifts.terms).max(axis=1) <= bounds * slack))
             and all(x <= b * slack for x, b in zip(tail_norms, tail_bounds))
             and all(x >= y for x, y in zip(tail_norms, tail_norms[1:])))
    return NormBoundReport(tuple(tail_norms), tuple(tail_bounds), holds)
