"""Explicit finite matrix models for the chiral background and its deformation.

Both operators are block off-diagonal with commuting diagonal blocks,

    D = [[0, B], [B, 0]],    B = diag over (fiber, mode),

with B = diag(q_i) (tensored over modes) for the background and
B = diag(q_i + m_m) for the deformed operator, q_i = E_n(kappa_j) - E*.
Every spectral quantity is therefore closed form: the spectrum is {+-b} over
the diagonal entries b of B, and the module never materializes a full
matrix; it works on the diagonal fiber data alone.

The block sign involution Gamma = diag(+I, -I) anticommutes with any such D
structurally (the anticommutator blocks are differences of identical
arrays).  The composition of the off-diagonal reflection with the mode
inversion, stored as a signed permutation, commutes with D instead, because
the reflection commutes with B; the probe quantifying this is kept as a
documented discrepancy check.

Fiber subsampling keeps the kappa nodes mirror-closed (center node plus
symmetric strided offsets), so the reflection permutation is well defined on
the subsample.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .arithmetic import CoefficientFamily, HeckeEnsemble, MassShifts, PrimeSet
from .floquet import BandStructure

DENSE_CAP = 4096  # max fibers x modes for the structured model


@dataclass(frozen=True)
class MatrixModel:
    """Diagonal fiber data of the block models (matrices never materialized).

    q[i] = E_n(kappa_j) - E* for fiber i; mass[m] the mode shifts; fibers and
    mode_indices record the provenance of the (possibly strided) subsample.
    The full operators have dimension 2 * len(q) * len(mass).
    """

    q: np.ndarray = field(repr=False)
    mass: np.ndarray = field(repr=False)
    fibers: tuple[tuple[int, int], ...]
    mode_indices: tuple[int, ...]
    reflection: tuple[int, ...]  # permutation pairing each fiber with its mirror

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

    max_fibers * max_modes <= 4096 keeps dense verification desk-scale.
    Fibers are ordered lexicographically by (band, node).
    """
    if max_fibers < 1 or max_modes < 1:
        raise ValueError("caps must be >= 1")
    if max_fibers * max_modes > DENSE_CAP:
        raise ValueError(
            f"caps product {max_fibers * max_modes} exceeds the dense-scale cap {DENSE_CAP}"
        )
    if bands.n_bands == 0 or bands.bands.size == 0:
        raise ValueError("empty band structure")

    n_bands = bands.n_bands
    half = (bands.grid.n_nodes - 1) // 2
    if n_bands <= max_fibers:
        band_ids = list(range(n_bands))
        nodes = _mirror_closed_nodes(bands.grid.n_nodes, max_fibers // n_bands)
    else:
        stride = int(math.ceil(n_bands / max_fibers))
        band_ids = list(range(0, n_bands, stride))
        nodes = [half]

    fibers = [(n, j) for n in band_ids for j in nodes]
    q = np.array([bands.bands[n, j] - e_star for n, j in fibers])

    n_modes = len(shifts)
    mode_stride = max(int(math.ceil(n_modes / max_modes)), 1)
    mode_indices = tuple(range(0, n_modes, mode_stride))
    mass = shifts.values[list(mode_indices)]

    mirror = bands.grid.n_nodes - 1
    pos = {f: i for i, f in enumerate(fibers)}
    reflection = tuple(pos[(n, mirror - j)] for n, j in fibers)
    return MatrixModel(
        q=q,
        mass=mass,
        fibers=tuple(fibers),
        mode_indices=mode_indices,
        reflection=reflection,
    )


@dataclass(frozen=True)
class ChiralReport:
    anticommutator_norm: float
    pairing_defect: float
    reflection_commute_defect: float
    reflection_anticommute_defect: float


def verify_chiral(model: MatrixModel) -> ChiralReport:
    """Check Gamma anticommutation, +-pairing, and the reflection-form probe.

    Gamma D + D Gamma has off-diagonal blocks B - B, computed literally, so
    the anticommutator norm is exactly zero.  The reflection form
    J = [[0, R], [R, 0]] (mode inversion acting as identity) satisfies
    J D J^-1 = D since [R, B] = 0; its defect from -D is 2 max|q + m|,
    quantifying that the commuting form cannot implement the sign flip.
    """
    b = model.arith_positive()
    anticommutator = float(np.abs(b - b).max()) if b.size else 0.0

    spec = model.arith_spectrum()
    pairing = float(np.abs(spec + spec[::-1]).max()) if spec.size else 0.0

    # R B R^-1 permutes the diagonal by the mirror pairing; mirrored fibers
    # carry bitwise-equal energies, so the conjugated block equals B.
    n_modes = len(model.mass)
    perm = np.repeat(np.array(model.reflection), n_modes) * n_modes + np.tile(
        np.arange(n_modes), len(model.q)
    )
    conjugated = b[perm]
    commute_defect = float(np.abs(conjugated - b).max())
    anticommute_defect = float(np.abs(conjugated + b).max())
    return ChiralReport(
        anticommutator_norm=anticommutator,
        pairing_defect=pairing,
        reflection_commute_defect=commute_defect,
        reflection_anticommute_defect=anticommute_defect,
    )


@dataclass(frozen=True)
class KreinReport:
    xi_values: np.ndarray = field(repr=False)
    trace_diff: float = 0.0
    jump_pairing: float = 0.0
    gap: float = 0.0


def counting_difference(model: MatrixModel, probe_grid) -> np.ndarray:
    """xi_full(lambda) = N_arith(lambda) - N_glob(lambda), right-continuous."""
    grid = np.atleast_1d(np.asarray(probe_grid, dtype=float))
    arith = model.arith_spectrum()
    glob = model.glob_spectrum()
    n_arith = np.searchsorted(arith, grid, side="right")
    n_glob = np.searchsorted(glob, grid, side="right")
    return (n_arith - n_glob).astype(int)


def krein_from_counting(model: MatrixModel, probe_grid, phi) -> KreinReport:
    """Counting staircase plus the two routes of the Krein identity.

    trace_diff evaluates Tr(phi(D_arith) - phi(D_glob)) by functional
    calculus on the closed-form spectra; jump_pairing integrates phi against
    the signed jump measure of the counting difference (coincident points
    cancel before summation).  The two must agree to 1e-9.
    """
    xi = counting_difference(model, probe_grid)

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
        xi_values=xi,
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
    family: CoefficientFamily,
    primes: PrimeSet,
    ensemble: HeckeEnsemble,
    nested_sizes: tuple[int, ...],
) -> NormBoundReport:
    """Functional-calculus and tail-norm inequalities on diagonal Hecke data.

    With T_p = diag(lambda_p(.)), the operator norm of eta_p(T_p) is the max
    over modes of |eta_p|, bounded by the sup norm p^-(1+eps).  Tail norms
    ||M^(S_max) - M^(S_k)|| over nested ascending prefixes are bounded by the
    corresponding prime tail sums and decrease monotonically in k.
    """
    if list(nested_sizes) != sorted(nested_sizes) or not nested_sizes:
        raise ValueError("nested_sizes must be a nonempty ascending sequence")
    if nested_sizes[-1] > len(primes):
        raise ValueError("largest nested size exceeds the available prime set")
    if primes.primes != ensemble.primes.primes:
        raise ValueError("primes and ensemble prime set disagree")

    # One pass in ascending-prime order: each eta_p row is computed once and
    # added to every tail that holds p, so each tail sums in a fixed order.
    s_max = nested_sizes[-1]
    tails = [np.zeros(ensemble.n_modes) for _ in nested_sizes]
    tail_bounds = [0.0] * len(nested_sizes)
    norms, bounds = [], []
    for i, p in enumerate(primes):
        row = family.eta(p, ensemble.samples[i])
        norms.append(float(np.abs(row).max()))
        bounds.append(family.sup_norm(p))
        for k, size in enumerate(nested_sizes):
            if size <= i < s_max:
                tails[k] += row
                tail_bounds[k] += bounds[i]
    tail_norms = [float(np.abs(tail).max()) for tail in tails]

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
