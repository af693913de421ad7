"""Acceptance gate: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every tolerance is pinned here, nothing is deferred.  Criterion 10,
the stationary scan of the translated trace, is retired with the scan: the
jumps of xi it searched for are the values spectrum.csv lists.
"""

import time
import numpy as np
from scipy.linalg import eigh_tridiagonal

from diracgap import expcli
from diracgap.arithmetic import (
    generate_primes,
    mass_shifts,
    sample_hecke_ensemble,
)
from diracgap.floquet import (
    PotentialSpec,
    QuasiMomentumGrid,
    compute_band_structure,
    fiber_eigenvalues,
)
from diracgap.gapspec import MEMBERSHIP_MARGIN, dirac_band_set
from diracgap.shift import TestFunction
from conftest import trace_grid
from oracles import block_entries, dense_block_model, subsample_entries, two_half_mismatch
from diracgap.tracekit import arithmetic_factors, compare_trace_representations
from diracgap.zeta import fit_affine, load_zero_table

EPSILON = 0.35  # the default run's epsilon


def report(n, text):
    print(f"\nACCEPTANCE {n:>2} PASS - {text}")


def test_c01_free_potential_control():
    t0 = time.perf_counter()
    grid = QuasiMomentumGrid(n_nodes=41, period=1.0)
    bands = compute_band_structure(PotentialSpec(), grid, M=8, n_bands=5)
    elapsed = time.perf_counter() - t0
    widths = (bands.lowers[1:] - bands.uppers[:-1]).tolist()
    assert len(widths) == 4 and all(w < 1e-8 for w in widths)
    assert bands.gaps.tolist() == []
    assert elapsed < 1.0
    report(1, f"free potential: max pseudo-gap {max(widths):.2e} < 1e-8, {elapsed:.2f}s")


def test_c02_floquet_evenness_and_convergence():
    pot = PotentialSpec.mathieu()
    grid = QuasiMomentumGrid(n_nodes=201, period=1.0)
    t0 = time.perf_counter()
    b32 = compute_band_structure(pot, grid, M=32, n_bands=8)
    b64 = compute_band_structure(pot, grid, M=64, n_bands=8)
    edge_diff = max(np.abs(b32.lowers - b64.lowers).max(), np.abs(b32.uppers - b64.uppers).max())
    assert edge_diff < 1e-8
    # independent -kappa solves, no mirroring, full negative half grid, against the
    # reversed kappa >= 0 half: its column j holds the node -grid.nodes[j]
    fresh = fiber_eigenvalues(pot, grid.nodes[:grid.half_index], M=32, count=8)
    worst = float(np.abs(fresh.T - b32.bands[:, ::-1][:, :grid.half_index]).max())
    elapsed = time.perf_counter() - t0
    assert worst < 1e-10
    assert elapsed < 10.0
    report(2, f"edges M32 vs M64 {edge_diff:.2e} < 1e-8; +-kappa {worst:.2e} < 1e-10; {elapsed:.1f}s")


def test_c03_open_first_gap(mathieu_bands):
    beta0 = mathieu_bands.uppers[0]
    alpha1 = mathieu_bands.lowers[1]
    assert alpha1 - beta0 > 0.1
    # M = 128 full-spectrum tridiagonal desk oracle (edges at kappa = 0, pi)
    m = np.arange(-128, 129)
    e0 = eigh_tridiagonal((0.0 + 2 * np.pi * m) ** 2, np.ones(256), eigvals_only=True)[:8]
    epi = eigh_tridiagonal((np.pi + 2 * np.pi * m) ** 2, np.ones(256), eigvals_only=True)[:8]
    oracle_alpha = np.minimum(e0, epi)
    oracle_beta = np.maximum(e0, epi)
    diff = max(
        float(np.abs(oracle_alpha - mathieu_bands.lowers).max()),
        float(np.abs(oracle_beta - mathieu_bands.uppers).max()),
    )
    assert diff < 1e-8
    report(3, f"first gap width {alpha1 - beta0:.4f} > 0.1; edges vs M=128 oracle {diff:.2e} < 1e-8")


# Every band at the zone edges and the centre, every third mode: 8 * 3 * 7 fibers.
SUBSAMPLE = ([0, 100, 200], 3)


def test_c04_chiral_pairing(default_run):
    # The pairing is structural in the closed form, so it is checked on the
    # dense block matrix with an independent eigensolver.
    q, mass = subsample_entries(default_run.bands, default_run.e_star, default_run.shifts,
                                *SUBSAMPLE)
    b = block_entries(q, mass, True)
    dense = dense_block_model(b)
    spec = np.linalg.eigvalsh(dense)
    pairing = float(np.abs(spec + spec[::-1]).max())
    assert pairing < 1e-10
    assert np.abs(spec - np.sort(np.concatenate([b, -b]))).max() < 1e-10
    n = len(dense) // 2
    gamma = np.diag(np.concatenate([np.ones(n), -np.ones(n)]))
    anticommutator = float(np.abs(gamma @ dense + dense @ gamma).max())
    assert anticommutator == 0.0
    report(4, f"dense dim {len(dense)}: eigvalsh pairing defect {pairing:.2e} < 1e-10; "
              f"Gamma D + D Gamma exactly {anticommutator}")


def test_c05_krein_identity_matrix_scale(default_run):
    # The jumps of xi = N_arith - N_glob inside the chiral gap, read off dense
    # eigvalsh spectra of a fiber subsample, are the kept gap values +-v there.
    r = default_run
    q, mass = subsample_entries(r.bands, r.e_star, r.shifts, *SUBSAMPLE)
    lowers, _ = dirac_band_set(r.bands, r.e_star)
    above = lowers[np.searchsorted(lowers, 0.0)]

    def in_gap(spec):
        return spec[np.minimum(spec + above, above - spec) > MEMBERSHIP_MARGIN]

    dense = {d: np.linalg.eigvalsh(dense_block_model(block_entries(q, mass, d)))
             for d in (False, True)}
    assert len(dense[True]) <= 512
    assert in_gap(dense[False]).size == 0  # every background eigenvalue lies in a band
    jumps = in_gap(dense[True])  # each a +1 jump of xi
    # a kept value on kappa >= 0 stands for its fiber j and, off kappa = 0, the mirror
    # N_kappa - 1 - j: count the subsample nodes among them
    j, mirror = r.gap_values.fibers[:, 1], r.bands.grid.n_nodes - 1 - r.gap_values.fibers[:, 1]
    copies = np.isin(j, SUBSAMPLE[0]).astype(int) + ((mirror != j) & np.isin(mirror, SUBSAMPLE[0]))
    kept = ((r.gap_values.fibers[:, 2] - 1) % SUBSAMPLE[1] == 0) & (
        np.abs(r.gap_values.values) < above)
    v = np.repeat(r.gap_values.values[kept], copies[kept])
    assert len(jumps) == 2 * len(v) > 0
    defect = float(np.abs(jumps - np.sort(np.concatenate([v, -v]))).max())
    assert defect < 1e-10
    report(5, f"dim {len(dense[True])}: {len(jumps)} dense jumps of xi in the chiral gap "
              f"(-{above:.6f}, {above:.6f}) match the kept +-v to {defect:.1e} < 1e-10")


def test_c06_trace_representation_agreement(default_run):
    t0 = time.perf_counter()
    r = default_run
    grid = trace_grid(r.bands, r.e_star, r.shifts, 0.5)
    rep = compare_trace_representations(r.bands, r.e_star, r.shifts, TestFunction(alpha=0.5), *grid)
    elapsed = time.perf_counter() - t0
    assert rep.h_t <= 0.01
    assert rep.rel_gap < 1e-6
    assert elapsed < 30.0
    report(6, f"theta_fiber={rep.theta_fiber:.6e}, rel gap {rep.rel_gap:.2e} < 1e-6, "
              f"h_t={rep.h_t:.4f}, T={rep.t_max:.1f}, {elapsed:.1f}s")


def test_c07_euler_factorization():
    primes = generate_primes(20)
    ones = sample_hecke_ensemble(primes, 20, seed=12345, mode="constant_one")
    shifts = mass_shifts(ones, EPSILON)
    a_joint, a_prod, *_ = arithmetic_factors(shifts, 2500, 0.01)  # |t| <= 25
    sup = float(np.abs(a_joint - a_prod).max())
    assert sup < 1e-12
    t_small = np.arange(5) * 0.5
    at = np.isin(t_small, [0.5, 1.0, 2.0])
    gaps = {}
    for n_h in (100, 10_000):
        ens = sample_hecke_ensemble(primes, n_h, seed=12345)
        a_joint, a_prod, *_ = arithmetic_factors(mass_shifts(ens, EPSILON), 4, 0.5)  # t_small
        gaps[n_h] = np.abs(a_joint - a_prod)[at]
    assert np.all(gaps[10_000] < gaps[100])
    report(7, f"constant_one sup gap {sup:.2e} < 1e-12; iid gap shrinks "
              f"{np.round(gaps[100], 4)} -> {np.round(gaps[10_000], 4)} at t=0.5/1/2")


def test_c08_norm_bounds():
    primes = generate_primes(20)
    assert primes[-1] == 71
    ens = sample_hecke_ensemble(primes, 20, seed=12345)
    shifts = mass_shifts(ens, EPSILON)
    # ||eta_p(T_p)|| is the largest |eta_p| over the modes, bounded by sup |eta_p| = p^-(1+eps)
    sup = np.array([p ** -(1.0 + EPSILON) for p in primes])
    assert np.all(np.abs(shifts.terms).max(axis=1) <= sup * (1 + 1e-12))
    # tails ||M^(S) - M^(S_k)|| over the prefixes of N_P/4, N_P/2 and N_P primes
    tail_norms = [float(np.abs(shifts.terms[k:].sum(axis=0)).max()) for k in (5, 10, 20)]
    for tn, k in zip(tail_norms, (5, 10, 20)):
        assert tn <= sup[k:].sum() * (1 + 1e-12)
    assert tail_norms[0] >= tail_norms[1] >= tail_norms[2] == 0.0
    report(8, f"eta_p norms bounded for all p <= 71; tails {[f'{x:.3e}' for x in tail_norms]} monotone")


def test_c09_staircase_oddness_and_estep_symmetry(default_run):
    s = default_run.staircase
    rng = np.random.default_rng(2024)
    count = 0
    while count < 1000:
        x = float(rng.uniform(-700.0, 700.0))
        if x == 0.0 or abs(x) in s.locations:
            continue
        assert s(-x) == -s(x)
        count += 1
    # E_step sweeps one half; both halves, swept at mirrored midpoints, agree bitwise.
    mapped = default_run.diagnostics.affine(np.array(default_run.spectrum.positive_values))
    e_step, pos, neg = two_half_mismatch(
        mapped, default_run.spectrum.multiplicities, load_zero_table(), 80.0
    )
    assert pos == neg
    assert default_run.diagnostics.e_step == e_step
    report(9, f"1000 random probes exactly odd; E_step halves equal bitwise ({pos:.6f})")


def test_c11_affine_fit_optimality(default_run):
    zeros = load_zero_table()
    lam = np.array(default_run.spectrum.positive_values)
    K = default_run.config.K
    fit = default_run.diagnostics.affine
    gamma = np.array(zeros.ordinates[:K])

    def residual(a, b):
        d = a * lam[:K] + b - gamma
        return float(np.dot(d, d))

    base = residual(fit.a, fit.b)
    rng = np.random.default_rng(7)
    worst_margin = np.inf
    for _ in range(100):
        da = rng.normal() * (abs(fit.a) * 1e-3)
        db = rng.normal() * (abs(fit.b) * 1e-3 + 1e-3)
        perturbed = residual(fit.a + da, fit.b + db)
        worst_margin = min(worst_margin, perturbed - base)
        assert base <= perturbed + 1e-12 * base
    synth = fit_affine((gamma - 3.0) / 2.0, zeros, K)
    assert abs(synth.a - 2.0) < 1e-12
    assert abs(synth.b - 3.0) < 1e-12
    report(11, f"golden fit beats 100 perturbations (closest margin {worst_margin:.3e}); "
               f"synthetic (a,b)=(2,3) recovered to 1e-12")


def test_c12_table_structure_reproduction(tmp_path):
    base = expcli.parse_config("{}")
    t0 = time.perf_counter()
    suites = {
        "N_P": expcli.scaling_suite("N_P", [20, 100, 500, 1000], base, tmp_path / "one"),
        "N_H": expcli.scaling_suite("N_H", [20, 100, 500], base, tmp_path / "one"),
        "seed": expcli.scaling_suite("seed", [12345, 54321, 10101, 99999], base, tmp_path / "one"),
    }
    elapsed = time.perf_counter() - t0
    assert elapsed < 300.0
    maes = []
    for axis, path in suites.items():
        rows = path.read_text().splitlines()[1:]
        for row in rows:
            _, mae, max_abs, e_step = row.split(",")
            for v in (mae, max_abs, e_step):
                assert np.isfinite(float(v))
            assert 1.0 <= float(mae) <= 40.0
            maes.append(float(mae))
    # reruns are byte-identical
    for axis, values in (("N_P", [20, 100, 500, 1000]), ("N_H", [20, 100, 500]),
                         ("seed", [12345, 54321, 10101, 99999])):
        again = expcli.scaling_suite(axis, values, base, tmp_path / "two")
        assert again.read_bytes() == suites[axis].read_bytes()
    report(12, f"11 suite rows finite, MAE in [{min(maes):.2f}, {max(maes):.2f}] within [1, 40]; "
               f"reruns byte-identical; first pass {elapsed:.0f}s < 300s")
