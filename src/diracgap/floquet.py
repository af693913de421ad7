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
E_n(-kappa) = E_n(kappa), so only the kappa >= 0 half of the grid is solved
and stored; fold_weights(grid.half_index) weights and the grid's copies
counts the mirror, nothing lists it: they turn half-grid sums and counts
into whole-grid ones.  Band edges and open gaps are derived in one place,
BandStructure.

Fiber eigenvalues are computed with a bisection-based banded solver, which
resolves the low-lying spectrum far below the 1e-10 contract even though the
matrix norm grows like (2 pi M / L)^2.  fiber_eigenvalues calls LAPACK's
dsbevx with the arguments scipy.linalg.eigvals_banded(select="i") passes
(eigenvalues only, index range 1..count, upper storage).  The routine is
the one in the OpenBLAS that NumPy's wheel bundles and has already loaded,
numpy.libs/libscipy_openblas64_*.so (64-bit LAPACK integers), bound once at
import through ctypes; SciPy is not imported.  One call solves a batch of
fibers: their band storage is built in one NumPy expression, and contiguous
chunks of them, one per CPU, are solved concurrently, each on a thread of its
own and none on the caller's, since ctypes releases the GIL for the duration
of each LAPACK call.  Every fiber is solved alone
with the same arguments, so the eigenvalues do not depend on the thread
count, and they are bitwise those of eigvals_banded.  The absolute tolerance
is pinned to twice the safe minimum, 2 finfo(float).tiny (LAPACK's
dlamch('s')), the value the dsbevx manual recommends for the most accurate
eigenvalues.
"""

from __future__ import annotations

import ctypes
import math
import os
import threading
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

# A gap narrower than this is treated as closed (numerically touching bands).
GAP_TOLERANCE = 1e-6


def _load_lapack(folder: Path) -> ctypes.CDLL:
    """The ILP64 OpenBLAS bundled with NumPy's wheel, whose LAPACK symbols read scipy_*_64_."""
    found = sorted(folder.glob("libscipy_openblas64_*.so"))
    if len(found) != 1:
        raise ImportError(f"expected one libscipy_openblas64_ library in {folder}, "
                          f"found {len(found)}")
    return ctypes.CDLL(str(found[0]))


_LAPACK = _load_lapack(Path(np.__file__).parent.parent / "numpy.libs")
# Every pointer is a c_void_p: an address passed as a plain int would be cut to 32 bits.
# The three trailing lengths are gfortran's hidden lengths of JOBZ, RANGE and UPLO.
_DSBEVX = _LAPACK.scipy_dsbevx_64_
_DSBEVX.argtypes = [ctypes.c_void_p] * 21 + [ctypes.c_size_t] * 3
_DSBEVX.restype = None
SBEVX_ABSTOL = 2.0 * np.finfo(float).tiny


def fold_weights(half: int) -> np.ndarray:
    """The trapezoid weights 1/2, 1, ..., 1, 1/2 of a symmetric grid -half..half folded onto
    0..half, for a sum whose terms at -x and x have the same real part: 1 at 0, 2 inside and
    2 * 1/2 = 1 at the end.  The kappa axis (half_index) and the trace's t axis (K) use it."""
    return np.concatenate([[1.0], np.full(half - 1, 2.0), [1.0]])


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
        if not (self.period > 0.0 and math.isfinite(self.period)):
            raise ValueError(f"period must be positive and finite, got {self.period}")
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

    def copies(self, j: np.ndarray) -> np.ndarray:
        """How many fibers of the whole grid node j >= half_index stands for: 1 at kappa = 0,
        2 elsewhere (kappa_j and its mirror -kappa_j)."""
        return 1 + (j > self.half_index)


@dataclass(frozen=True, eq=False)
class BandStructure:
    """Band functions E_n(kappa_j) on kappa >= 0, shape (n_bands, n_nodes // 2 + 1) with
    column i at grid.nodes[half_index + i], and what they imply.

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
        if self.bands.shape[1] != self.grid.half_index + 1:
            raise ValueError(f"bands hold {self.bands.shape[1]} nodes, not the "
                             f"{self.grid.half_index + 1} of the grid's kappa >= 0 half")
        lowers, uppers = self.bands.min(axis=1), self.bands.max(axis=1)
        gaps = np.flatnonzero(lowers[1:] - uppers[:-1] > GAP_TOLERANCE)
        for name, value in (("lowers", lowers), ("uppers", uppers), ("gaps", gaps)):
            value.setflags(write=False)
            object.__setattr__(self, name, value)

    @property
    def n_bands(self) -> int:
        return self.bands.shape[0]


def _check_fiber_args(potential: PotentialSpec, kappas: np.ndarray, M: int, count: int) -> None:
    R = potential.harmonic_count
    if M < max(R, 1):
        raise ValueError(
            f"truncation M={M} must be >= R={R}; smaller M drops potential harmonics"
        )
    if kappas.ndim != 1:
        raise ValueError(f"kappas must be one-dimensional, got shape {kappas.shape}")
    bad = kappas[~np.isfinite(kappas)].tolist()
    if bad:
        raise ValueError(f"non-finite quasi-momentum {bad[0]!r}")
    outside = kappas[np.abs(kappas) > (np.pi / potential.period) * (1.0 + 1e-12)].tolist()
    if outside:
        raise ValueError(f"kappa={outside[0]} outside the Brillouin zone [-pi/L, pi/L]")
    n = 2 * M + 1
    if not 1 <= count <= n:
        raise ValueError(f"requested {count} eigenvalues from a fiber of size {n}")


def _fiber_band_storage(potential: PotentialSpec, kappas: np.ndarray, M: int) -> np.ndarray:
    # Upper banded LAPACK storage of every fiber, column-major: ab[f, j] is column j of
    # fiber f and ab[f, :, R] its diagonal.
    R = potential.harmonic_count
    m = np.arange(-M, M + 1)
    ab = np.zeros((len(kappas), 2 * M + 1, R + 1))
    ab[:, :, R] = (kappas[:, None] + 2.0 * np.pi * m / potential.period) ** 2
    for r, c in enumerate(potential.cosine_coefficients, start=1):
        ab[:, r:, R - r] = c / 2.0
    return ab


def _solve_chunk(ab: np.ndarray, count: int, out: np.ndarray, fibers: range, failures: dict) -> None:
    """dsbevx on the fibers ab[j], j in fibers, in turn, each one's eigenvalues into out[j].  The
    first failure ends the chunk: failures[j] holds dsbevx's info or what the call raised."""
    n, ldab = ab.shape[1], ab.shape[2]
    # n, kd, ldab, il, iu, ldq = ldz, then the outputs m and info, all by reference
    ints = np.array([n, ldab - 1, ldab, 1, count, 1, 0, 0], dtype=np.int64)
    reals = np.array([0.0, 1.0, SBEVX_ABSTOL])  # vl, vu (unused for an index range), abstol
    w, dummy = np.empty(n), np.empty(1)  # dummy stands for Q, Z and IFAIL, never referenced
    work, iwork = np.empty(7 * n), np.empty(5 * n, dtype=np.int64)
    i, r = ints.ctypes.data, reals.ctypes.data
    for j in fibers:
        try:
            _DSBEVX(b"N", b"I", b"U", i, i + 8, ab[j].ctypes.data, i + 16, dummy.ctypes.data,
                    i + 40, r, r + 8, i + 24, i + 32, r + 16, i + 48, w.ctypes.data,
                    dummy.ctypes.data, i + 40, work.ctypes.data, iwork.ctypes.data,
                    dummy.ctypes.data, i + 56, 1, 1, 1)
        except Exception as err:  # raised again in the caller's thread, naming the fiber
            failures[j] = err
            return
        if ints[7] != 0:
            failures[j] = int(ints[7])
            return
        out[j] = w[:count]


def fiber_eigenvalues(potential: PotentialSpec, kappas, M: int, count: int) -> np.ndarray:
    """Lowest `count` eigenvalues of each fiber H(kappa), ascending: shape (len(kappas), count).

    The fibers are split into contiguous chunks, one per CPU this process may run on, and
    each chunk is solved on a thread of its own, with the GIL released inside LAPACK; the
    caller's thread solves none and waits for them all.  Each row depends only on its own
    fiber, so not on the chunking.  The lowest failing fiber raises FiberSolveError.
    """
    kappas = np.asarray(kappas, dtype=float)
    _check_fiber_args(potential, kappas, M, count)
    ab = np.asarray_chkfinite(_fiber_band_storage(potential, kappas, M))
    out = np.empty((len(kappas), count))
    chunks = max(1, min(len(os.sched_getaffinity(0)), len(kappas)))
    bounds = [len(kappas) * k // chunks for k in range(chunks + 1)]
    failures = {}
    threads = [threading.Thread(target=_solve_chunk, args=(ab, count, out, range(lo, hi), failures))
               for lo, hi in zip(bounds, bounds[1:])]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if failures:
        j, info = min(failures.items())
        cause = info if isinstance(info, Exception) else None
        raise FiberSolveError(
            f"dsbevx failed on fiber {j} (kappa={kappas[j]}): info={info!r}") from cause
    return out


def compute_band_structure(
    potential: PotentialSpec,
    grid: QuasiMomentumGrid,
    M: int,
    n_bands: int,
) -> BandStructure:
    """Solve every fiber on the kappa >= 0 half grid in one batch.

    Only the lowest n_bands <= 2M eigenvalues per fiber are kept;
    truncation_defect measures how well M resolves them.  E_n(-kappa) = E_n(kappa)
    holds exactly, so the negative half is never stored; BandStructure derives the
    edges and open gaps.
    """
    if n_bands < 1:
        raise ValueError("n_bands must be >= 1")
    if n_bands > 2 * M:
        raise ValueError(f"n_bands={n_bands} exceeds 2M={2 * M}; increase M")
    if grid.period != potential.period:
        raise ValueError("grid and potential periods disagree")

    bands = np.ascontiguousarray(
        fiber_eigenvalues(potential, grid.nodes[grid.half_index:], M, n_bands).T)
    bands.setflags(write=False)
    return BandStructure(potential=potential, grid=grid, truncation=M, bands=bands)


def truncation_defect(bands: BandStructure) -> float:
    """max_n |E_n(M) - E_n(2M)| at kappa = 0, a middle node and pi/L: a Hill operator's
    band edges lie at 0 and pi/L, so this is the truncation error of the gap filter's edges."""
    h = bands.grid.half_index
    columns = [0, h // 2, h]
    kappas = bands.grid.nodes[h:][columns]
    fine = fiber_eigenvalues(bands.potential, kappas, 2 * bands.truncation, bands.n_bands)
    return float(np.abs(bands.bands[:, columns] - fine.T).max())


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
