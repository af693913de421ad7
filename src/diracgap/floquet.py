"""Floquet-Bloch band structure of an even periodic Hill operator.

The operator is H = -d^2/dy^2 + U(y) with U even and L-periodic, given as a
finite cosine series U(y) = sum_r c_r cos(2 pi r y / L).  Bloch decomposition
reduces H to a family of fibers H(kappa) over the quasi-momentum
kappa in [-pi/L, pi/L].  In the plane-wave basis e^{2 pi i m y / L},
m = -M..M, each fiber is the real symmetric matrix

    A[m][m]   = (kappa + 2 pi m / L)^2
    A[m][m']  = c_{|m-m'|} / 2      for 1 <= |m-m'| <= R,

banded with bandwidth R (tridiagonal for a single cosine).  Bands are the
ranges of the ascending fiber eigenvalues E_n(kappa); evenness of U gives
E_n(-kappa) = E_n(kappa), which we exploit by solving the non-negative half
grid only and mirroring.  Band edges and open gaps are arrays derived from
the bands in one place, BandStructure.

Fiber eigenvalues are computed with a bisection-based banded solver, which
resolves the low-lying spectrum far below the 1e-10 contract even though the
matrix norm grows like (2 pi M / L)^2.  fiber_eigenvalues calls LAPACK's
dsbevx with the arguments scipy.linalg.eigvals_banded(select="i") passes
(eigenvalues only, index range 1..count, upper storage), so the values are
bitwise those of that call without its per-call argument handling.  The
routine comes from SciPy's compiled LAPACK extension, scipy/linalg/_flapack,
loaded once at import from its file alone: importing scipy.linalg would
cost about 0.4 s of start-up and 19 MiB.  Python files the extension in
sys.modules under its own name, so scipy.linalg, if imported later, reuses
this module, and if imported earlier, supplies it.  The absolute tolerance
is pinned here to 2 dlamch('s'), twice the safe minimum, the value the
dsbevx manual recommends for the most accurate eigenvalues; it no longer
follows a scipy default.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from importlib.machinery import EXTENSION_SUFFIXES
from importlib.util import find_spec, module_from_spec, spec_from_file_location
from pathlib import Path

import numpy as np

# A gap narrower than this is treated as closed (numerically touching bands).
GAP_TOLERANCE = 1e-6


def _load_flapack():
    """scipy.linalg._flapack, loaded from its file without importing scipy or scipy.linalg."""
    scipy_spec = find_spec("scipy")  # locates the package without importing it
    if scipy_spec is None or not scipy_spec.submodule_search_locations:
        raise ImportError("diracgap needs SciPy's LAPACK extension; no scipy package found")
    folder = Path(scipy_spec.submodule_search_locations[0]) / "linalg"
    for suffix in EXTENSION_SUFFIXES:
        path = folder / f"_flapack{suffix}"
        if path.is_file():
            spec = spec_from_file_location("scipy.linalg._flapack", path)
            module = module_from_spec(spec)
            spec.loader.exec_module(module)
            return module
    raise ImportError(f"no _flapack extension in {folder}")


_FLAPACK = _load_flapack()
_DSBEVX, _DLAMCH = _FLAPACK.dsbevx, _FLAPACK.dlamch
SBEVX_ABSTOL = 2.0 * _DLAMCH("s")


class NoOpenGapError(ValueError):
    """Raised when a reference energy is requested but no gap is open."""


class FiberSolveError(RuntimeError):
    """Eigensolver failure on a single quasi-momentum fiber."""


@dataclass(frozen=True)
class PotentialSpec:
    """Even periodic potential given by a cosine series.

    cosine_coefficients[r-1] is the coefficient of cos(2 pi r y / L); the
    representation is even by construction.  An empty tuple is the free
    potential U = 0.
    """

    period: float = 1.0
    cosine_coefficients: tuple[float, ...] = ()

    def __post_init__(self):
        if not (self.period > 0.0 and math.isfinite(self.period)):
            raise ValueError(f"period must be positive and finite, got {self.period}")
        coeffs = tuple(float(c) for c in self.cosine_coefficients)
        if any(not math.isfinite(c) for c in coeffs):
            raise ValueError("cosine coefficients must be finite")
        object.__setattr__(self, "cosine_coefficients", coeffs)

    @property
    def harmonic_count(self) -> int:
        return len(self.cosine_coefficients)

    @classmethod
    def mathieu(cls) -> "PotentialSpec":
        """Default potential U(y) = 2 cos(2 pi y), period 1."""
        return cls(period=1.0, cosine_coefficients=(2.0,))


@dataclass(frozen=True)
class QuasiMomentumGrid:
    """Uniform symmetric grid on [-pi/L, pi/L] with an odd node count.

    Nodes satisfy nodes[j] == -nodes[n-1-j] bitwise: the negative half is
    constructed by negating the positive half, never recomputed.
    """

    n_nodes: int
    period: float
    nodes: np.ndarray = field(repr=False, compare=False, default=None)

    def __post_init__(self):
        if self.n_nodes < 3 or self.n_nodes % 2 == 0:
            raise ValueError(f"n_nodes must be odd and >= 3, got {self.n_nodes}")
        if not self.period > 0.0:
            raise ValueError("period must be positive")
        half = (self.n_nodes - 1) // 2
        edge = np.pi / self.period
        positive = np.array([edge * j / half for j in range(half + 1)])
        nodes = np.concatenate([-positive[:0:-1], positive])
        nodes.setflags(write=False)
        object.__setattr__(self, "nodes", nodes)

    @property
    def half_index(self) -> int:
        """Index of the kappa = 0 node."""
        return (self.n_nodes - 1) // 2


@dataclass(frozen=True, eq=False)
class BandStructure:
    """Band functions E_n(kappa_j), shape (n_bands, n_nodes), and what they imply.

    Derived once, as read-only arrays: the band edges lowers[n] = alpha_n and
    uppers[n] = beta_n (grid extrema), and gaps, the ascending n whose gap
    (beta_n, alpha_{n+1}) is wider than GAP_TOLERANCE.
    """

    potential: PotentialSpec
    grid: QuasiMomentumGrid
    truncation: int
    bands: np.ndarray
    lowers: np.ndarray = field(init=False, repr=False)
    uppers: np.ndarray = field(init=False, repr=False)
    gaps: np.ndarray = field(init=False)

    def __post_init__(self):
        lowers, uppers = self.bands.min(axis=1), self.bands.max(axis=1)
        gaps = np.flatnonzero(lowers[1:] - uppers[:-1] > GAP_TOLERANCE)
        for name, value in (("lowers", lowers), ("uppers", uppers), ("gaps", gaps)):
            value.setflags(write=False)
            object.__setattr__(self, name, value)

    @property
    def n_bands(self) -> int:
        return self.bands.shape[0]


def _check_fiber_args(potential: PotentialSpec, kappa: float, M: int) -> None:
    R = potential.harmonic_count
    if M < max(R, 1):
        raise ValueError(
            f"truncation M={M} must be >= R={R}; smaller M drops potential harmonics"
        )
    if not math.isfinite(kappa):
        raise ValueError(f"non-finite quasi-momentum {kappa!r}")
    if abs(kappa) > (np.pi / potential.period) * (1.0 + 1e-12):
        raise ValueError(f"kappa={kappa} outside the Brillouin zone [-pi/L, pi/L]")


def _fiber_band_storage(potential: PotentialSpec, kappa: float, M: int) -> np.ndarray:
    # Upper banded LAPACK storage (row R is the diagonal).
    L = potential.period
    R = potential.harmonic_count
    n = 2 * M + 1
    m = np.arange(-M, M + 1)
    ab = np.zeros((R + 1, n))
    ab[R, :] = (kappa + 2.0 * np.pi * m / L) ** 2
    for r, c in enumerate(potential.cosine_coefficients, start=1):
        ab[R - r, r:] = c / 2.0
    return ab


def fiber_eigenvalues(potential: PotentialSpec, kappa: float, M: int, count: int) -> np.ndarray:
    """Lowest `count` fiber eigenvalues, ascending."""
    _check_fiber_args(potential, kappa, M)
    n = 2 * M + 1
    if not 1 <= count <= n:
        raise ValueError(f"requested {count} eigenvalues from a fiber of size {n}")
    ab = np.asarray_chkfinite(_fiber_band_storage(potential, kappa, M))
    w, _, m, _, info = _DSBEVX(ab, 0.0, 1.0, 1, count, compute_v=0, range=2, lower=0,
                               abstol=SBEVX_ABSTOL, mmax=1)
    if info != 0:
        raise FiberSolveError(f"dsbevx failed at kappa={kappa}: info={info}")
    return w[:m]


def compute_band_structure(
    potential: PotentialSpec,
    grid: QuasiMomentumGrid,
    M: int,
    n_bands: int,
) -> BandStructure:
    """Solve every fiber on the non-negative half grid and mirror.

    Only the lowest n_bands <= 2M eigenvalues per fiber are kept;
    truncation_defect measures how well M resolves them.  The mirror is
    one slice, column j < half copying column n - 1 - j, so
    E_n(-kappa_j) = E_n(kappa_j) bitwise; BandStructure derives the edges and open gaps.
    """
    if n_bands < 1:
        raise ValueError("n_bands must be >= 1")
    if n_bands > 2 * M:
        raise ValueError(f"n_bands={n_bands} exceeds 2M={2 * M}; increase M")
    if grid.period != potential.period:
        raise ValueError("grid and potential periods disagree")

    n = grid.n_nodes
    half = grid.half_index
    bands = np.empty((n_bands, n))
    for j in range(half, n):
        try:
            bands[:, j] = fiber_eigenvalues(potential, grid.nodes[j], M, n_bands)
        except FiberSolveError as err:
            raise FiberSolveError(f"fiber j={j}: {err}") from err
    bands[:, :half] = bands[:, :half:-1]
    bands.setflags(write=False)
    return BandStructure(potential=potential, grid=grid, truncation=M, bands=bands)


def truncation_defect(bands: BandStructure) -> float:
    """max_n |E_n(M) - E_n(2M)| at kappa = 0, a middle node and pi/L: a Hill operator's
    band edges lie at 0 and pi/L, so this is the truncation error of the gap filter's edges."""
    g = bands.grid
    nodes = [g.half_index, (g.half_index + g.n_nodes - 1) // 2, g.n_nodes - 1]
    fine = np.array([fiber_eigenvalues(bands.potential, g.nodes[j], 2 * bands.truncation,
                                       bands.n_bands) for j in nodes]).T
    return float(np.abs(bands.bands[:, nodes] - fine).max())


def select_reference_energy(bands: BandStructure, gap_index: int) -> float:
    """Midpoint of the selected open gap."""
    if not len(bands.gaps):
        raise NoOpenGapError(
            "no open gaps in the band structure; increase the potential strength"
        )
    if not 0 <= gap_index < len(bands.gaps):
        raise ValueError(
            f"gap_index={gap_index} out of range; {len(bands.gaps)} open gaps available"
        )
    n = bands.gaps[gap_index]
    return float(0.5 * (bands.uppers[n] + bands.lowers[n + 1]))
