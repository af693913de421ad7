"""Zero-ordinate table, affine alignment, and staircase-mismatch diagnostics.

The table of nontrivial-zero ordinates is bundled data (first 100 ordinates
to 9 decimal places) behind a validation gate; nothing is computed from the
zeta function at runtime.  The alignment lambda -> a lambda + b is the
least-squares fit of the leading gap eigenvalues onto the leading ordinates.

The staircase mismatch E_step(T) is the time-averaged L1 distance between
two odd integer staircases on [-T, T]: the mapped model staircase (jumps at
+-(a lambda_k + b) with weights m_k) and the signed zero staircase (unit
jumps at +-gamma_k), two `shift.Staircase`s that `diagnostics` builds.  The
integrand is piecewise constant, so the integral is evaluated exactly by a
breakpoint sweep.  Both staircases are exactly odd in floating point, so the
integrand is exactly even and one half is swept.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .shift import Staircase

GAMMA1_GATE = (14.13, 14.14)


@dataclass(frozen=True)
class ZeroTable:
    """Ascending positive zero ordinates."""

    ordinates: tuple[float, ...]

    def __len__(self) -> int:
        return len(self.ordinates)


@dataclass(frozen=True)
class AffineMap:
    """Orientation-preserving map lambda -> a lambda + b."""

    a: float
    b: float

    def __post_init__(self):
        if not (self.a > 0.0 and math.isfinite(self.a) and math.isfinite(self.b)):
            raise ValueError(f"affine map requires finite b and a > 0, got a={self.a}")

    def __call__(self, lam):
        return self.a * np.asarray(lam, dtype=float) + self.b


@dataclass(frozen=True)
class DiagnosticsReport:
    """MAE and max_abs of the affine fit over the first K zeros, and the staircase mismatch
    E_step.  The record is the schema of diagnostics.json: that file is its asdict, plus checks."""

    K: int
    mae: float
    max_abs: float
    e_step: float
    T: float
    affine: AffineMap
    flags: tuple[str, ...] = ()


def _parse_zero_rows(lines) -> ZeroTable:
    header, *rows = [ln.strip() for ln in lines if ln.strip()]
    if header != "gamma":
        raise ValueError(f"zero table: expected header 'gamma', got {header!r}")
    vals = tuple(float(r) for r in rows)
    if not vals:
        raise ValueError("zero table is empty")
    if not GAMMA1_GATE[0] < vals[0] < GAMMA1_GATE[1]:
        raise ValueError(f"zero table failed the gamma_1 gate {GAMMA1_GATE}: got {vals[0]}")
    if not all(math.isfinite(v) for v in vals):
        raise ValueError("zero table holds a non-finite ordinate")
    if any(b <= a for a, b in zip(vals, vals[1:])):
        raise ValueError("zero table is not strictly ascending")
    return ZeroTable(ordinates=vals)


@functools.cache
def _bundled_table() -> ZeroTable:
    """data/zeros.csv next to this module, read and validated once per process."""
    text = (Path(__file__).parent / "data" / "zeros.csv").read_text()
    table = _parse_zero_rows(text.splitlines())
    if len(table) < 100:
        raise ValueError("bundled zero table is corrupt: fewer than 100 ordinates")
    return table


def load_zero_table(source: str = "embedded", min_count: int | None = None) -> ZeroTable:
    """The bundled ordinate table ("embedded", the only source), of at least min_count ordinates."""
    if source != "embedded":
        raise ValueError(f"unknown zero table source {source!r}: only 'embedded' is bundled")
    table = _bundled_table()
    if min_count is not None and len(table) < min_count:
        raise ValueError(f"insufficient zeros: requested {min_count}, table holds {len(table)}")
    return table


def fit_affine(lambdas, zeros: ZeroTable, K: int) -> AffineMap:
    """Least-squares a, b minimizing sum_{k<=K} (a lambda_k + b - gamma_k)^2.

    Uses the closed-form normal equations with the centred (two-pass)
    variance and covariance, which do not cancel when the lambda_k are close.
    The lambda_k must be ascending: with the ordinates strictly ascending the
    slope is then positive (Chebyshev's sum inequality).
    """
    lam = np.asarray(lambdas, dtype=float)
    if K < 2:
        raise ValueError(f"need K >= 2 points to fit an affine map, got K={K}")
    if len(lam) < K:
        raise ValueError(f"insufficient gap eigenvalues: requested K={K}, have {len(lam)}")
    if len(zeros) < K:
        raise ValueError(f"insufficient zeros: requested K={K}, table holds {len(zeros)}")
    x = lam[:K]
    if (np.diff(x) < 0.0).any():
        raise ValueError("eigenvalue list is not ascending")
    y = np.asarray(zeros.ordinates[:K])
    dx, dy = x - np.mean(x), y - np.mean(y)
    var = float(np.mean(dx * dx))
    if x.min() == x.max() or var == 0.0:  # the mean of equal values may round off them
        raise ValueError("degenerate eigenvalue list: all lambda_k equal")
    a = float(np.mean(dx * dy)) / var
    return AffineMap(a=a, b=float(np.mean(y) - a * np.mean(x)))


def mapped_staircase(mapped_locations, multiplicities) -> Staircase:
    """The model staircase after the alignment map: jump m_k at |a lambda_k + b|.

    Locations mapped onto 0 are dropped; the rest are sorted by location, then
    weight (the mapped spectrum is symmetric, so a negative image folds onto
    its absolute value).
    """
    v = np.asarray(mapped_locations, dtype=float)
    keep = v != 0.0
    v, w = np.abs(v[keep]), np.asarray(multiplicities)[keep]
    order = np.lexsort((w, v))
    return Staircase(locations=v[order], weights=w[order])


def zero_staircase(zeros: ZeroTable) -> Staircase:
    """The signed zero staircase: unit jumps at the ordinates."""
    return Staircase(locations=zeros.ordinates, weights=np.ones(len(zeros), dtype=np.int64))


def staircase_mismatch(model: Staircase, zero: Staircase, T: float) -> float:
    """Exact (1/2T) integral of |xi_model - xi_zero| over [-T, T].

    The integrand is exactly even, so this is (1/T) times the integral over
    [0, T], summed left to right over the breakpoint intervals.  For T >= 1
    the widths are scaled by 2^-e, T = f 2^e with f in [0.5, 1), so the sum
    cannot overflow; scaling by a power of 2 is exact, so no bit changes.
    """
    if not (T > 0.0 and math.isfinite(T)):
        raise ValueError(f"T must be positive and finite, got {T}")
    e = max(math.frexp(T)[1], 0)
    jumps = np.concatenate([model.locations, zero.locations])
    points = np.unique(np.concatenate([[0.0, T], jumps[jumps < T]]))
    widths = np.diff(points) * math.ldexp(1.0, -e)
    mid = 0.5 * (points[:-1] + points[1:])
    # cumsum adds strictly left to right, as the interval-by-interval sweep did.
    return float(np.cumsum(widths * np.abs(model(mid) - zero(mid)))[-1]) / math.ldexp(T, -e)


def diagnostics(lambdas, multiplicities, zeros: ZeroTable, K: int, T: float) -> DiagnosticsReport:
    """Affine fit on the leading K values, Delta_k = (a lambda_k + b) - gamma_k, and E_step(T).

    With fewer than K values (a degenerate spectrum, e.g. a near-zero mass
    deformation) no K-point fit exists: the identity map stands in, with the flag
    insufficient-spectrum, K, MAE and max_abs are 0, and E_step is still well defined.
    """
    lam = np.asarray(lambdas, dtype=float)
    short = len(lam) < K
    affine = AffineMap(a=1.0, b=0.0) if short else fit_affine(lam, zeros, K)
    deltas = () if short else tuple(float(affine(lam[k]) - zeros.ordinates[k]) for k in range(K))
    model, zero = mapped_staircase(affine(lam), multiplicities), zero_staircase(zeros)
    e_step = staircase_mismatch(model, zero, T)
    return DiagnosticsReport(
        K=len(deltas),
        mae=sum(abs(d) for d in deltas) / K,
        max_abs=max((abs(d) for d in deltas), default=0.0),
        e_step=e_step,
        T=T,
        affine=affine,
        flags=("insufficient-spectrum",) if short else (),
    )
