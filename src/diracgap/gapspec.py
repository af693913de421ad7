"""Gap eigenvalue enumeration and aggregation for the truncated Dirac model.

The chiral background has spectrum +-(band - E*) for every Floquet band; a
fiber (n, j, m) contributes the candidate pair

    +-v,   v = E_n(kappa_j) - E* + m_m,

which is a gap eigenvalue exactly when it clears every interval of the
symmetric band set by more than a membership margin.  Values are filtered
against the full chiral band set (bands and their negations), not just the
gap containing E*, since that set is the essential spectrum of the doubled
operator.  The filter and the grouping run on the stored kappa >= 0 half: a
mirror fiber at -kappa_j has the value of its fiber at kappa_j, and the
grid's copies counts it where the whole grid is meant; nothing lists it.
Positive survivors are grouped into a multiplicity-weighted gap spectrum,
its first two arrays shared by the staircase; the full spectrum is {+-lambda_k}.  The
band set is the pair (lowers, uppers) of interval ends that dirac_band_set returns;
fiber_gap_eigenvalues builds it from its bands and E*.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .arithmetic import MassShifts
from .floquet import BandStructure, QuasiMomentumGrid

MEMBERSHIP_MARGIN = 1e-8
GROUPING_TOLERANCE = 1e-9
GROUPING_DECIMALS = 12


@dataclass(frozen=True)
class GapValues:
    """Kept fibers on the kappa >= 0 half of grid and their signed values.

    values[i] = E_n(kappa_j) - E* + m_m for fibers[i] = (n, j, m), m 1-based and
    j >= grid.half_index, in lexicographic (n, j, m) order.  Each value stands
    for the pair +-v at (n, j, m) and, for j > half_index, at its mirror fiber
    too; len() counts the +- eigenvalues of the whole grid.
    """

    values: np.ndarray = field(repr=False, compare=False)
    fibers: np.ndarray = field(repr=False, compare=False)  # shape (k, 3), integer
    grid: QuasiMomentumGrid

    def __len__(self) -> int:
        return 2 * int(self.grid.copies(self.fibers[:, 1]).sum())


@dataclass(frozen=True, eq=False)
class GapSpectrum:
    """Sorted positive gap eigenvalues with multiplicities and their kappa >= 0 fibers.

    positive_values[k] (float64, ascending) carries multiplicity
    multiplicities[k] (int64), counted on the whole grid.  fibers holds the
    kept (n, j, m) fibers with j >= half_index, one row each, in group order:
    group k is fibers[starts[k]:starts[k + 1]], the last running to the end,
    and each row off kappa = 0 stands for its mirror fiber too.
    """

    positive_values: np.ndarray
    multiplicities: np.ndarray
    fibers: np.ndarray = field(repr=False)
    starts: np.ndarray = field(repr=False)

    def __len__(self) -> int:
        return len(self.positive_values)


def dirac_band_set(bands: BandStructure, e_star: float) -> tuple[np.ndarray, np.ndarray]:
    """The band set (lowers, uppers): bands shifted by -E*, closed under negation, merged.

    The closed intervals [lowers[i], uppers[i]] come out disjoint, ascending
    and symmetric under negation.  E* must lie outside every band (inside a
    gap); a reference energy inside a band is rejected.  Sorted by lower end,
    an interval starts a new merged interval when it begins past the running
    max of the upper ends before it.
    """
    inside = np.flatnonzero((bands.lowers <= e_star) & (e_star <= bands.uppers))
    if len(inside):
        n = inside[0]
        raise ValueError(f"reference energy {e_star} lies inside the band "
                         f"[{float(bands.lowers[n])}, {float(bands.uppers[n])}]")
    lo, hi = bands.lowers - e_star, bands.uppers - e_star
    lo, hi = np.concatenate([lo, -hi]), np.concatenate([hi, -lo])
    order = np.argsort(lo, kind="stable")
    lo, hi = lo[order], hi[order]
    starts = np.flatnonzero(np.concatenate([[True], lo[1:] > np.maximum.accumulate(hi)[:-1]]))
    return lo[starts], np.maximum.reduceat(hi, starts)


def fiber_gap_eigenvalues(bands: BandStructure, e_star: float, shifts: MassShifts) -> GapValues:
    """Enumerate the kappa >= 0 fibers whose +-(E_n(kappa_j) - E* + m_m) pass the gap filter.

    Fibers come in lexicographic (n, j, m) order, so the result is
    schedule-independent.  An empty result is a valid outcome.

    Rounding is monotone, so every v = q_nj + m of a row (n, j) lies between
    q_nj + min(m) and q_nj + max(m).  A row whose two ends lie in one closed
    band interval is dropped before the (rows x modes) candidates are built.
    A candidate v is kept when v - (upper end below v) and (lower end above
    v) - v both exceed MEMBERSHIP_MARGIN; the set is symmetric, so -v is too.
    """
    lows, highs = dirac_band_set(bands, e_star)
    q = (bands.bands - e_star).ravel()
    m_vals = shifts.values
    ends = np.stack([q + m_vals.min(), q + m_vals.max()])
    idx = np.searchsorted(lows, ends, side="right") - 1
    inside = (idx >= 0) & (ends <= highs[np.maximum(idx, 0)])
    rows = np.flatnonzero(~(inside.all(axis=0) & (idx[0] == idx[1])))
    v = q[rows, None] + m_vals[None, :]
    i = np.searchsorted(lows, v, side="right") - 1  # the interval at or below v, -1 if none
    above = v - np.append(highs, -np.inf)[i]  # +inf where i = -1
    below = np.append(lows, np.inf)[i + 1] - v  # +inf past the last interval
    row, m = np.nonzero((above > MEMBERSHIP_MARGIN) & (below > MEMBERSHIP_MARGIN))
    n, j = np.divmod(rows[row], bands.bands.shape[1])
    j += bands.grid.half_index
    return GapValues(values=v[row, m], fibers=np.stack([n, j, m + 1], axis=1), grid=bands.grid)


def round_decimals(x: np.ndarray) -> np.ndarray:
    """round(v, GROUPING_DECIMALS) for each v of x, bit for bit, in one NumPy pass.

    p = v 10^12 is within half an ulp of the exact product, so where |p| < 2^52
    rint(p) rounds that product correctly unless p is a half-integer, and
    rint(p) / 10^12 is then correct; half-integer p and larger |v| take round.
    """
    scale = 10.0**GROUPING_DECIMALS
    small = np.abs(x) < 2.0**52 / scale
    p = np.where(small, x, 0.0) * scale
    out = np.rint(p) / scale
    rest = ~small | (p % 1.0 == 0.5)
    out[rest] = [round(v, GROUPING_DECIMALS) for v in x[rest].tolist()]
    return out


def aggregate_spectrum(gap_values: GapValues) -> GapSpectrum:
    """Group the positive values of the kappa >= 0 fibers within the grouping tolerance, ascending.

    Each |v| is rounded to 12 decimals (round_decimals: Python's correctly
    rounded `round`) once; ties sort by fiber, and groups chain while
    consecutive rounded values are within GROUPING_TOLERANCE.  A mirror has
    its fiber's value, so multiplicity is the group's sum of the grid's
    copies; the group's smallest rounded value is the representative.
    """
    rounded = round_decimals(np.abs(gap_values.values))
    keep = rounded > 0.0
    lam, fib = rounded[keep], gap_values.fibers[keep]
    order = np.lexsort((fib[:, 2], fib[:, 1], fib[:, 0], lam))
    lam, fib = lam[order], fib[order]
    starts = np.flatnonzero(np.concatenate([[True], np.diff(lam) > GROUPING_TOLERANCE])[: lam.size])
    return GapSpectrum(
        positive_values=lam[starts],
        multiplicities=np.add.reduceat(gap_values.grid.copies(fib[:, 1]), starts),
        fibers=fib,
        starts=starts,
    )
