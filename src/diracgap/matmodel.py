"""Explicit finite matrix models for the chiral background and its deformation.

Both operators are block off-diagonal with commuting diagonal blocks,

    D = [[0, B], [B, 0]],    B = diag over (fiber, mode),

with B = diag(q_i) (tensored over modes) for the background and
B = diag(q_i + m_m) for the deformed operator, q_i = E_n(kappa_j) - E*.
Every spectral quantity is therefore closed form: the spectrum is {+-b} over
the diagonal entries b of B, and the module never materializes a full
matrix; it works on the diagonal fiber data alone.

Fiber subsampling keeps the kappa nodes mirror-closed (center node plus
symmetric strided offsets), always reaching the zone edges.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .arithmetic import CoefficientFamily, MassShifts
from .floquet import BandStructure


@dataclass(frozen=True)
class MatrixModel:
    """Diagonal fiber data of the block models (matrices never materialized).

    q[i] = E_n(kappa_j) - E* for fiber i of the (possibly strided) subsample;
    mass[m] the mode shifts.  The full operators have dimension
    2 * len(q) * len(mass).
    """

    q: np.ndarray = field(repr=False)
    mass: np.ndarray = field(repr=False)

    @property
    def dimension(self) -> int:
        return 2 * len(self.q) * len(self.mass)

    def glob_positive(self) -> np.ndarray:
        """Diagonal entries of the background block (q_i repeated per mode)."""
        return np.repeat(self.q, len(self.mass))

    def arith_positive(self) -> np.ndarray:
        """Diagonal entries of the deformed block, (q_i + m_m) pairs."""
        return (self.q[:, None] + self.mass[None, :]).ravel()

    def glob_spectrum(self) -> np.ndarray:
        b = self.glob_positive()
        return np.sort(np.concatenate([b, -b]))

    def arith_spectrum(self) -> np.ndarray:
        b = self.arith_positive()
        return np.sort(np.concatenate([b, -b]))


def _mirror_closed_nodes(n_nodes: int, max_nodes: int) -> list[int]:
    # Center node plus symmetric offsets, always reaching the zone edges
    # (the near-gap fibers live there); symmetric by construction.
    half = (n_nodes - 1) // 2
    k = min((max_nodes - 1) // 2, half)
    if k <= 0:
        return [half]
    offsets = sorted({int(round(half * i / k)) for i in range(1, k + 1)})
    return sorted({half} | {half - o for o in offsets} | {half + o for o in offsets})


def assemble(
    bands: BandStructure,
    e_star: float,
    shifts: MassShifts,
    max_fibers: int,
    max_modes: int,
) -> MatrixModel:
    """Flatten fiber energies into a model, subsampling by stride under caps.

    Fibers are ordered lexicographically by (band, node).
    """
    if max_fibers < 1 or max_modes < 1:
        raise ValueError("caps must be >= 1")
    if bands.n_bands == 0 or bands.bands.size == 0:
        raise ValueError("empty band structure")

    n_bands = bands.n_bands
    if n_bands <= max_fibers:
        band_ids = list(range(n_bands))
        nodes = _mirror_closed_nodes(bands.grid.n_nodes, max_fibers // n_bands)
    else:
        stride = int(math.ceil(n_bands / max_fibers))
        band_ids = list(range(0, n_bands, stride))
        nodes = [bands.grid.half_index]

    q = (bands.bands[np.ix_(band_ids, nodes)] - e_star).ravel()
    mode_stride = max(int(math.ceil(len(shifts) / max_modes)), 1)
    return MatrixModel(q=q, mass=shifts.values[::mode_stride])


@dataclass(frozen=True)
class KreinReport:
    trace_diff: float
    jump_pairing: float
    gap: float


def krein_from_counting(model: MatrixModel, phi) -> KreinReport:
    """The two routes of the Krein identity on the closed-form spectra.

    trace_diff evaluates Tr(phi(D_arith) - phi(D_glob)) by functional
    calculus; jump_pairing integrates phi against the signed jump measure of
    the counting difference N_arith - N_glob (coincident points cancel
    before summation).  The two must agree to 1e-9.
    """
    arith = model.arith_spectrum()
    glob = model.glob_spectrum()
    trace_diff = float(np.sum(phi(arith)) - np.sum(phi(glob)))

    locations: dict[float, int] = {}
    for x in arith:
        locations[float(x)] = locations.get(float(x), 0) + 1
    for x in glob:
        locations[float(x)] = locations.get(float(x), 0) - 1
    pairing = 0.0
    for x in sorted(locations):
        h = locations[x]
        if h:
            pairing += h * float(phi(x))
    return KreinReport(
        trace_diff=trace_diff,
        jump_pairing=pairing,
        gap=abs(trace_diff - pairing),
    )


@dataclass(frozen=True)
class NormBoundReport:
    per_prime_norms: tuple[float, ...]
    per_prime_bounds: tuple[float, ...]
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
    sums its rows in ascending-prime order.
    """
    n = len(primes)
    norms = [float(np.abs(row).max()) for row in shifts.terms]
    bounds = [family.sup_norm(p) for p in primes]
    tail_norms, tail_bounds = [], []
    for size in sorted({max(1, n // 4), max(1, n // 2), n}):
        tail, bound = np.zeros(len(shifts)), 0.0
        for i in range(size, n):
            tail += shifts.terms[i]
            bound += bounds[i]
        tail_norms.append(float(np.abs(tail).max()))
        tail_bounds.append(bound)

    slack = 1.0 + 1e-12
    holds = all(n <= b * slack for n, b in zip(norms, bounds)) and all(
        n <= b * slack for n, b in zip(tail_norms, tail_bounds)
    )
    holds = holds and all(
        tail_norms[i] >= tail_norms[i + 1] for i in range(len(tail_norms) - 1)
    )
    return NormBoundReport(
        per_prime_norms=tuple(norms),
        per_prime_bounds=tuple(bounds),
        tail_norms=tuple(tail_norms),
        tail_bounds=tuple(tail_bounds),
        all_bounds_hold=bool(holds),
    )
