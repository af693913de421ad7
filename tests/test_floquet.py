import ctypes
import math
import os
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import eigh_tridiagonal, eigvals_banded, lapack

from conftest import toy_band_structure
from oracles import build_fiber_matrix
from diracgap import floquet
from diracgap.floquet import (
    BandStructure,
    FiberSolveError,
    PotentialSpec,
    QuasiMomentumGrid,
    compute_band_structure,
    fiber_eigenvalues,
    fold_weights,
    select_reference_energy,
)

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src"

# True lowest eigenvalue of the Mathieu fiber at kappa = pi (L=1, c1=2),
# from a 40-digit arbitrary-precision diagonalization at M=20.
TRUE_LOWEST_AT_PI = 8.857098951351016856

PI2 = np.pi * np.pi


def tridiagonal_oracle(kappa, M, count):
    """Full-spectrum tridiagonal diagonalization at high truncation (stemr)."""
    m = np.arange(-M, M + 1)
    d = (kappa + 2.0 * np.pi * m) ** 2
    e = np.ones(2 * M)
    return eigh_tridiagonal(d, e, eigvals_only=True, lapack_driver="stemr")[:count]


def test_free_fiber_matrix_closed_form():
    a = build_fiber_matrix(PotentialSpec(), kappa=0.0, M=2)
    expected = np.diag([16 * PI2, 4 * PI2, 0.0, 4 * PI2, 16 * PI2])
    assert np.array_equal(a, expected)


def test_mathieu_fiber_matrix_m1():
    a = build_fiber_matrix(PotentialSpec.mathieu(), kappa=0.0, M=1)
    assert np.array_equal(np.diag(a), [4 * PI2, 0.0, 4 * PI2])
    assert a[0, 1] == a[1, 0] == 1.0  # c_1 = 2 forces off-diagonal 1
    assert a[0, 2] == a[2, 0] == 0.0
    assert np.array_equal(a, a.T)


def test_fiber_matrix_rejections():
    pot = PotentialSpec.mathieu()
    with pytest.raises(ValueError, match="harmonics"):
        fiber_eigenvalues(pot, [0.0], M=0, count=1)
    with pytest.raises(ValueError, match=r"one-dimensional, got shape \(\)"):
        fiber_eigenvalues(pot, 0.0, M=4, count=1)
    # a NaN kappa passes the zone check, and the band storage rejects it
    with pytest.raises(ValueError, match="infs or NaNs"):
        fiber_eigenvalues(pot, [0.0, float("nan")], M=4, count=1)
    for kappa in (math.inf, -math.inf):
        with pytest.raises(ValueError, match=f"kappa={kappa} outside the Brillouin"):
            fiber_eigenvalues(pot, [0.0, kappa], M=4, count=1)
    with pytest.raises(ValueError, match="Brillouin"):
        fiber_eigenvalues(pot, [0.0, 4.0], M=4, count=1)
    # kappa = 1e-13 is 3e6 times pi/L here: the zone's slack is relative to pi/L
    with pytest.raises(ValueError, match="Brillouin"):
        fiber_eigenvalues(PotentialSpec(period=1e20, cosine_coefficients=(1.0,)), [1e-13], 1, 1)


def test_fiber_eigenvalue_count_and_order():
    pot = PotentialSpec.mathieu()
    full = fiber_eigenvalues(pot, [0.3], M=6, count=13)[0]
    assert len(full) == 13  # 2M + 1
    assert np.all(np.diff(full) >= 0)
    dense = np.linalg.eigvalsh(build_fiber_matrix(pot, 0.3, M=6))
    assert np.allclose(full, dense, atol=1e-9)


BITWISE_CASES = [
    (M, (2.0,), 1.0) for M in (1, 8, 32, 64)
] + [
    (M, (2.0, 0.7, 0.3), 2.0) for M in (8, 32, 64)  # M = 1 < R = 3 is rejected
]


@pytest.mark.parametrize("M,coefficients,period", BITWISE_CASES)
def test_fiber_eigenvalues_bitwise_equal_to_eigvals_banded(M, coefficients, period):
    # NumPy's OpenBLAS, called directly on a batch, must give exactly what SciPy's
    # wrapper gives on its own OpenBLAS build, fiber by fiber.  The oracle's band
    # storage comes from the dense fiber matrix.
    pot = PotentialSpec(period=period, cosine_coefficients=coefficients)
    R = pot.harmonic_count
    count = min(16, 2 * M + 1)
    edge = np.pi / period
    kappas = [-edge, 0.0, edge, 0.37 * edge]
    got = fiber_eigenvalues(pot, kappas, M, count)
    assert floquet.SBEVX_ABSTOL == 2 * lapack.dlamch("s")  # the abstol eigvals_banded passes
    assert got.shape == (len(kappas), count)
    for kappa, row in zip(kappas, got):
        dense = build_fiber_matrix(pot, kappa, M)
        ab = np.array([np.concatenate([np.zeros(R - r), np.diag(dense, R - r)])
                       for r in range(R + 1)])
        expected = eigvals_banded(ab, select="i", select_range=(0, count - 1))
        assert row.tobytes() == expected.tobytes(), kappa


def run_python(code):
    """Run code in a fresh interpreter whose path starts with src/ and tests/."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), str(TESTS), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)


def test_a_default_run_loads_no_scipy_module_and_one_openblas():
    # floquet calls dsbevx in the OpenBLAS that NumPy already maps; SciPy's own
    # OpenBLAS build is never loaded beside it.
    proc = run_python(
        "import sys, diracgap\n"
        "from diracgap.expcli import compute_run, parse_config\n"
        "compute_run(parse_config('{}'))\n"
        "assert not [m for m in sys.modules if m.split('.')[0] == 'scipy'], sorted(sys.modules)\n"
        "maps = open('/proc/self/maps').read().splitlines()\n"
        "libs = {line.split()[-1] for line in maps if 'openblas' in line.lower()}\n"
        "assert len(libs) == 1, libs\n"
        "assert 'libscipy_openblas64_' in libs.pop()\n")
    assert proc.returncode == 0, proc.stderr


def test_a_missing_openblas_fails_the_loader(tmp_path):
    # No library in the folder: the loader names it; nothing falls back to another route.
    with pytest.raises(ImportError) as err:
        floquet._load_lapack(tmp_path)
    assert str(err.value) == f"expected one libscipy_openblas64_ library in {tmp_path}, found 0"


def patch_cpus(monkeypatch, cpus):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))


THREE_HARMONICS = PotentialSpec(period=2.0, cosine_coefficients=(2.0, 0.7, 0.3))


def test_bands_do_not_depend_on_the_thread_count(monkeypatch):
    # 21 half-grid fibers in 1, 2, 3 or 7 chunks, and 3 fibers at kappa = 0, pi/4 and pi/2,
    # fewer than 7
    solved = {}
    for cpus in (1, 2, 3, 7):
        patch_cpus(monkeypatch, cpus)
        bands = compute_band_structure(THREE_HARMONICS, 41, M=16, n_bands=8)
        three = fiber_eigenvalues(THREE_HARMONICS, bands.grid.nodes[[20, 30, 40]], M=32, count=8)
        solved[cpus] = (bands.bands.tobytes(), three.tobytes())
    assert len(set(solved.values())) == 1


@pytest.mark.parametrize("failure", ["info", "raise"])
def test_a_failed_fiber_names_itself_and_leaves_no_thread(monkeypatch, failure):
    # 21 fibers in 3 chunks of 7: fibers 3 and 17 fail, in the first and the last chunk, each
    # solved by a worker thread; the lower one is named.  The fake finds them by their m = 0
    # diagonal entry, kappa^2, read before dsbevx overwrites it.
    grid = QuasiMomentumGrid(n_nodes=41, period=2.0)
    kappa = grid.nodes[grid.half_index + 3]
    failing = {grid.nodes[grid.half_index + j] ** 2 for j in (3, 17)}
    M, real, solvers = 16, floquet._DSBEVX, []

    def fake(*args):
        ldab = ctypes.c_int64.from_address(args[6]).value
        diagonal = ctypes.c_double.from_address(args[5] + 8 * (M * ldab + ldab - 1)).value
        real(*args)
        if diagonal in failing:
            solvers.append(threading.current_thread())
            if failure == "raise":
                raise MemoryError(f"no room for the fiber at kappa^2={diagonal}")
            ctypes.c_int64.from_address(args[21]).value = 1

    patch_cpus(monkeypatch, 3)
    monkeypatch.setattr(floquet, "_DSBEVX", fake)
    threads = threading.active_count()
    with pytest.raises(FiberSolveError) as err:
        compute_band_structure(THREE_HARMONICS, grid.n_nodes, M=M, n_bands=8)
    cause = MemoryError(f"no room for the fiber at kappa^2={kappa ** 2}")
    info = "1" if failure == "info" else repr(cause)
    assert str(err.value) == f"dsbevx failed on fiber 3 (kappa={kappa}): info={info}"
    assert repr(err.value.__cause__) == ("None" if failure == "info" else repr(cause))
    assert len(solvers) == 2 and threading.current_thread() not in solvers
    assert len(set(solvers)) == 2  # one thread per chunk
    assert threading.active_count() == threads


def test_fiber_eigenvalues_rejects_non_finite_storage_and_bad_counts():
    # the diagonal (2 pi M / L)^2 overflows; LAPACK must never see the inf
    with np.errstate(over="ignore"), pytest.raises(ValueError, match="infs or NaNs"):
        fiber_eigenvalues(PotentialSpec(period=1e-300, cosine_coefficients=(2.0,)), [0.0], 4, 2)
    for count in (0, 10):
        with pytest.raises(ValueError, match="eigenvalues from a fiber of size 9"):
            fiber_eigenvalues(PotentialSpec.mathieu(), [0.0], 4, count)


def test_golden_lowest_eigenvalue_at_zone_edge():
    # Production truncation M=32 against the high-truncation desk oracle.
    prod = fiber_eigenvalues(PotentialSpec.mathieu(), [np.pi], M=32, count=1)[0, 0]
    oracle = tridiagonal_oracle(np.pi, 128, 1)[0]
    assert abs(prod - oracle) < 1e-10
    assert abs(prod - TRUE_LOWEST_AT_PI) < 1e-10
    # Dense-matrix route as an independent cross-check; its own rounding is
    # eps * ||A|| ~ 1.3e-10 at M=128, hence the looser tolerance.
    m = np.arange(-128, 129)
    dense = np.linalg.eigvalsh(
        np.diag((np.pi + 2 * np.pi * m) ** 2)
        + np.diag(np.ones(256), 1)
        + np.diag(np.ones(256), -1)
    )[0]
    assert abs(prod - dense) < 5e-10


def test_grid_symmetry_is_bitwise():
    grid = QuasiMomentumGrid(n_nodes=41, period=1.0)
    n = grid.n_nodes
    for j in range(n):
        assert grid.nodes[j] == -grid.nodes[n - 1 - j]
    assert grid.nodes[grid.half_index] == 0.0
    assert grid.nodes[0] == -np.pi
    assert grid.nodes[-1] == np.pi


def test_grid_validation():
    with pytest.raises(ValueError):
        QuasiMomentumGrid(n_nodes=40, period=1.0)
    with pytest.raises(ValueError):
        QuasiMomentumGrid(n_nodes=1, period=1.0)
    with pytest.raises(ValueError, match="period must be positive"):
        QuasiMomentumGrid(n_nodes=5, period=0.0)


def test_grid_rejects_an_infinite_period():
    # the nodes of an infinite period would all be zero; PotentialSpec has the same rule
    with pytest.raises(ValueError, match="period must be positive and finite"):
        QuasiMomentumGrid(n_nodes=3, period=float("inf"))


def test_free_potential_has_no_open_gaps():
    bands = compute_band_structure(PotentialSpec(), 41, M=8, n_bands=4)
    assert bands.gaps.tolist() == []
    for n in range(3):
        assert bands.lowers[n + 1] - bands.uppers[n] < 1e-8


def test_band_structure_derives_edges_and_gaps_once(mathieu_bands):
    bands = mathieu_bands
    assert bands.lowers.tolist() == [float(row.min()) for row in bands.bands]
    assert bands.uppers.tolist() == [float(row.max()) for row in bands.bands]
    edges = zip(bands.uppers[:-1].tolist(), bands.lowers[1:].tolist())
    assert bands.gaps.tolist() == [n for n, (lo, hi) in enumerate(edges) if hi - lo > 1e-6
                                   and hi - lo > 64 * max(math.ulp(lo), math.ulp(hi))]
    for derived in (bands.lowers, bands.uppers, bands.gaps):
        assert not derived.flags.writeable
    assert bands == bands and bands != toy_band_structure([[0.0, 1.0, 0.0]])


def test_band_structure_rejects_underresolved_bands():
    with pytest.raises(ValueError, match="n_bands"):
        compute_band_structure(PotentialSpec.mathieu(), 5, M=2, n_bands=5)
    with pytest.raises(ValueError, match="requested 0 eigenvalues from a fiber of size 17"):
        compute_band_structure(PotentialSpec.mathieu(), 5, M=8, n_bands=0)


def test_evenness_bitwise_and_independent(mathieu_bands):
    # Only kappa >= 0 is stored; the reversed half array is E_n at -pi/L, ..., 0, whose
    # nodes are the stored ones negated, bitwise.
    bands, grid = mathieu_bands, mathieu_bands.grid
    half = grid.half_index
    assert bands.bands.shape == (bands.n_bands, half + 1)
    assert np.array_equal(grid.nodes[:half + 1], -grid.nodes[half:][::-1])
    # Re-solve a few negative nodes independently, without mirroring.
    nodes = [0, 17, 60, 99]
    assert np.all(grid.nodes[nodes] < 0)
    fresh = fiber_eigenvalues(bands.potential, grid.nodes[nodes], M=32, count=bands.n_bands)
    assert np.abs(fresh.T - bands.bands[:, ::-1][:, nodes]).max() < 1e-10


def test_fold_helpers_state_the_mirror_once():
    # Seven nodes -pi, ..., pi: kappa = 0 is j = 3, and j > 3 also stands for its mirror 6 - j.
    grid = QuasiMomentumGrid(n_nodes=7, period=1.0)
    assert fold_weights(grid.half_index).tolist() == [1.0, 2.0, 2.0, 1.0]
    assert fold_weights(QuasiMomentumGrid(n_nodes=3, period=1.0).half_index).tolist() == [1.0, 1.0]
    assert grid.copies(np.arange(3, 7)).tolist() == [1, 2, 2, 2]
    assert grid.copies(np.empty(0, dtype=np.int64)).shape == (0,)


def test_band_structure_holds_the_kappa_half_only():
    grid = QuasiMomentumGrid(n_nodes=5, period=1.0)
    with pytest.raises(ValueError, match="kappa >= 0 half"):
        BandStructure(potential=PotentialSpec(), grid=grid, truncation=1, bands=np.zeros((1, 5)))


def test_band_ordering_and_interlacing(mathieu_bands):
    bands = mathieu_bands
    assert np.all(np.diff(bands.bands, axis=0) >= 0)
    for n in bands.gaps:
        alpha_n, beta_n = bands.lowers[n], bands.uppers[n]
        assert alpha_n <= beta_n < bands.lowers[n + 1]
        assert bands.lowers[n + 1] - beta_n > 1e-6


def test_mathieu_open_gaps(mathieu_bands):
    # Gap widths ~ 2.0, 5.06e-2, 3.2e-4; gap 3 (9e-7) is below tolerance.
    assert mathieu_bands.gaps.tolist() == [0, 1, 2]
    width = mathieu_bands.lowers[1] - mathieu_bands.uppers[0]
    assert abs(width - 1.999679250962929) < 1e-8


def test_reference_energy(mathieu_bands):
    e_star = select_reference_energy(mathieu_bands, 0)
    assert abs(e_star - 9.856938576832455) < 1e-9
    toy = toy_band_structure([[0.0, 0.5, 1.0], [2.0, 2.5, 3.0]])
    assert select_reference_energy(toy, 0) == 1.5
    with pytest.raises(ValueError, match="gap_index=1 must select an open gap .*: 1 open gaps "
                       "available among the 2 bands"):
        select_reference_energy(toy, 1)


@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_a_gap_must_be_wider_than_64_ulps_of_its_edges(sign):
    # At 2^40 one ulp is 2^-12, so 64 ulps are 2^-6, far wider than GAP_TOLERANCE; below
    # zero the larger edge is the lower one.
    assert floquet.GAP_ULPS == 64 and floquet.GAP_TOLERANCE < 2.0**-6
    for ulps, gaps in ((64, []), (65, [0])):
        edges = sorted([sign * 2.0**40, sign * (2.0**40 + ulps * 2.0**-12)])
        bands = toy_band_structure([[edges[0]] * 2, [edges[1]] * 2])
        assert bands.gaps.tolist() == gaps, ulps
    assert edges[0] < select_reference_energy(bands, 0) < edges[1]


@settings(max_examples=300, deadline=None)
@given(edge=st.floats(-1e300, 1e300), ulps=st.integers(1, 200))
def test_the_midpoint_of_an_open_gap_lies_strictly_inside_it(edge, ulps):
    # the upper edge lies `ulps` representable floats above the lower one
    upper = edge
    for _ in range(ulps):
        upper = math.nextafter(upper, math.inf)
    bands = toy_band_structure([[edge] * 2, [upper] * 2])
    if ulps <= 64:  # no more than 64 ulps of the edge whose ulp is the larger
        assert bands.gaps.tolist() == []
    if bands.gaps.tolist():
        assert edge < select_reference_energy(bands, 0) < upper


def test_reference_energy_requires_open_gap():
    bands = compute_band_structure(PotentialSpec(), 21, M=6, n_bands=3)
    with pytest.raises(ValueError, match="no open gaps among the 3 bands"):
        select_reference_energy(bands, 0)


def test_potential_validation():
    with pytest.raises(ValueError):
        PotentialSpec(period=0.0)
    with pytest.raises(ValueError):
        PotentialSpec(period=1.0, cosine_coefficients=(float("inf"),))


def test_truncation_convergence_fast():
    # Cheap variant of the M-doubling invariant (full check in acceptance).
    e16 = compute_band_structure(PotentialSpec.mathieu(), 21, M=16, n_bands=6)
    e32 = compute_band_structure(PotentialSpec.mathieu(), 21, M=32, n_bands=6)
    diff = max(np.abs(e16.lowers - e32.lowers).max(), np.abs(e16.uppers - e32.uppers).max())
    assert diff < 1e-8


def test_band_structure_runtime_is_desk_scale():
    t0 = time.perf_counter()
    compute_band_structure(PotentialSpec.mathieu(), 201, M=32, n_bands=8)
    assert time.perf_counter() - t0 < 5.0
