import math
import os
from dataclasses import replace
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import one_row_shifts, toy_band_structure, trace_grid
from oracles import (eta, geometric_factor, local_factor, local_factor_grid, mirrored_bands,
                     phase_sums, sample_row, theta_fiber_whole_array, whole_grid_sums)
from diracgap.arithmetic import (
    MODES,
    HeckeEnsemble,
    generate_primes,
    mass_shifts,
    sample_hecke_ensemble,
)
from diracgap import expcli, tracekit
from diracgap.floquet import (
    PotentialSpec,
    QuasiMomentumGrid,
    compute_band_structure,
    select_reference_energy,
)
from diracgap.shift import TestFunction
from diracgap.tracekit import (
    arithmetic_factors,
    compare_trace_representations,
    t_grid,
    tail_half_width,
    theta_fiber,
)

EPSILON = 0.35  # the default run's epsilon


def log_coefficients(ens, p, degree):
    """Coefficients of t^1..t^degree in log A_p, from the production series helper."""
    return tracekit._log_series(eta(p, sample_row(ens, p), EPSILON)[None], degree)[0]


def zero_shifts(n):
    return one_row_shifts(np.zeros(n))


def test_theta_fiber_zero_function():
    bands = toy_band_structure([[1.0, 1.0, 1.0]])
    assert theta_fiber(lambda x: np.zeros_like(np.asarray(x)), bands, 1.5, zero_shifts(2)) == 0.0


def test_theta_fiber_constant_band_at_reference():
    # single band pinned at E*: integrand is phi(0) = 1, giving 2 * 2pi/L
    bands = toy_band_structure([[3.0, 3.0, 3.0, 3.0, 3.0]])
    phi = TestFunction(alpha=0.5)
    got = theta_fiber(phi, bands, 3.0, zero_shifts(4))
    assert got == pytest.approx(4.0 * np.pi, abs=1e-14)


def test_theta_fiber_brute_force_oracle(default_run):
    r = default_run
    phi = TestFunction(alpha=0.5)
    got = theta_fiber(phi, r.bands, r.e_star, r.shifts)
    # independent plain-loop summation over the whole kappa grid
    whole = mirrored_bands(r.bands)
    n_nodes = r.bands.grid.n_nodes
    h_weight = 2.0 * np.pi / (n_nodes - 1)
    acc = 0.0
    for n in range(r.bands.n_bands):
        for j in range(n_nodes):
            w = h_weight * (0.5 if j in (0, n_nodes - 1) else 1.0)
            inner = sum(
                math.exp(-((whole[n, j] - r.e_star + mm) ** 2) / 0.25)
                for mm in r.shifts.values
            )
            acc += w * inner / len(r.shifts.values)
    assert got == pytest.approx(2.0 * acc, rel=1e-12)


def test_theta_fiber_matches_the_whole_array_sum_bitwise(default_run):
    # Eight bands of 101 nodes and 20 modes; a mode-by-mode sum changes the last bits here.
    r = default_run
    phi = TestFunction(alpha=0.5)
    got = theta_fiber(phi, r.bands, r.e_star, r.shifts)
    assert got.hex() == theta_fiber_whole_array(phi, r.bands, r.e_star, r.shifts).hex()


def test_geometric_factor_at_zero_is_exact(mathieu_bands):
    for n in (0, 3, 7):
        assert geometric_factor(mathieu_bands, 9.85, n, 0.0) == 2.0 * np.pi + 0.0j


def test_geometric_factor_constant_band():
    bands = toy_band_structure([[4.0, 4.0, 4.0]])
    got = geometric_factor(bands, 1.5, 0, 0.7)
    assert got == pytest.approx(2.0 * np.pi * np.exp(1j * 0.7 * 2.5), abs=1e-13)


def test_geometric_factor_band_index_validation(mathieu_bands):
    with pytest.raises(ValueError):
        geometric_factor(mathieu_bands, 9.85, 8, 0.0)


def test_geometric_factor_grid_refinement(mathieu_bands):
    # doubled kappa grid as the refinement oracle (trapezoid on a smooth
    # periodic integrand converges spectrally)
    pot = PotentialSpec.mathieu()
    fine = compute_band_structure(pot, QuasiMomentumGrid(n_nodes=401, period=1.0), 32, 1)
    e_star = 9.856938576832455
    coarse_val = geometric_factor(mathieu_bands, e_star, 0, 1.0)
    fine_val = geometric_factor(fine, e_star, 0, 1.0)
    assert abs(coarse_val - fine_val) < 1e-8


def test_arithmetic_factors_at_zero(default_run):
    r = default_run
    a_joint, a_prod, *_ = arithmetic_factors(r.shifts, 1, 0.5)  # t = -0.5, 0, 0.5
    assert a_joint[1] == 1.0 + 0.0j
    assert a_prod[1] == 1.0 + 0.0j
    assert np.all(np.abs(a_joint) <= 1.0 + 1e-15)


def test_constant_one_factorizes_exactly():
    primes = generate_primes(20)
    ens = sample_hecke_ensemble(primes, 20, seed=12345, mode="constant_one")
    shifts = mass_shifts(ens, EPSILON)
    t = np.arange(-2000, 2001) * 0.01
    a_joint, a_prod, *_ = arithmetic_factors(shifts, 2000, 0.01)
    total = sum(p**-1.35 for p in primes)
    closed = np.exp(1j * t * total)
    assert np.abs(a_joint - closed).max() < 1e-12
    assert np.abs(a_joint - a_prod).max() < 1e-12


def test_euler_gap_shrinks_with_modes():
    primes = generate_primes(20)
    t = np.arange(-4, 5) * 0.5
    at = np.isin(t, [0.5, 1.0, 2.0])
    gaps = {}
    for n_h in (100, 10_000):
        ens = sample_hecke_ensemble(primes, n_h, seed=12345)
        a_joint, a_prod, *_ = arithmetic_factors(mass_shifts(ens, EPSILON), 4, 0.5)
        gaps[n_h] = np.abs(a_joint - a_prod)[at]
    assert np.all(gaps[10_000] < gaps[100])


def test_table_factors_match_direct_references(default_run):
    # K = 6000 gives R = 78 and 77 coarse blocks.  The two lowest Mathieu
    # bands and t <= 12 keep |t x| <= 360: each route rounds its phases at
    # about eps |t x|, so at the default run's |t x| ~ 1e4 neither route is
    # within 1e-13 of the exact sum and the bound would test rounding only.
    r = default_run
    pot = PotentialSpec.mathieu()
    bands = compute_band_structure(pot, QuasiMomentumGrid(n_nodes=201, period=1.0), 32, 2)
    e_star = 9.856938576832455
    t = np.arange(-6000, 6001) * 0.002
    geometric, _ = tracekit._geometric_on_grid(bands, e_star, 6000, 0.002)
    for n in range(bands.n_bands):
        direct = np.array([geometric_factor(bands, e_star, n, tk) for tk in t])
        assert np.abs(geometric[n] - direct).max() <= 1e-13
    got_joint, got_prod, *_ = arithmetic_factors(r.shifts, 6000, 0.002)
    a_joint = np.exp(1j * np.multiply.outer(t, r.shifts.values)).mean(axis=1)
    assert np.abs(got_joint - a_joint).max() <= 1e-13
    a_prod = np.ones(len(t), dtype=complex)
    for p in r.ensemble.primes:
        a_prod *= local_factor_grid(r.ensemble, EPSILON, p, t)
    assert np.abs(got_prod - a_prod).max() <= 1e-13


def largest_taylor_half(x, h, K):
    """The widest segment half-width with |s h (x - mid)| <= TAYLOR_RHO, at most K."""
    beta = np.abs(x - 0.5 * (x.max(axis=1) + x.min(axis=1))[:, None]).max()
    return K if beta * h * K <= tracekit.TAYLOR_RHO else int(tracekit.TAYLOR_RHO / (beta * h))


@settings(max_examples=60, deadline=None)
@given(rows=st.integers(1, 3), J=st.integers(1, 40), K=st.integers(1, 3000),
       h=st.floats(1e-3, 0.1), centre=st.floats(-1.0, 1.0), spread=st.floats(0.0, 1.0),
       weighted=st.booleans(), fraction=st.floats(0.0, 1.0), seed=st.integers(0, 2**32 - 1))
@example(rows=2, J=30, K=3000, h=0.01, centre=0.3, spread=0.0, weighted=False, fraction=1.0,
         seed=0)  # beta = 0, as in constant_one mode: one segment
@example(rows=1, J=1, K=2267, h=0.01, centre=-0.5, spread=0.5, weighted=True, fraction=1.0,
         seed=1)
@example(rows=3, J=40, K=1, h=0.05, centre=0.9, spread=0.1, weighted=True, fraction=1.0, seed=2)
@example(rows=1, J=40, K=3000, h=0.01, centre=0.0, spread=1e-310, weighted=False, fraction=1.0,
         seed=3)  # beta h subnormal
def test_half_grid_sums_match_the_direct_oracle_on_both_routes(rows, J, K, h, centre, spread,
                                                               weighted, fraction, seed):
    # |t x| <= 50: each route rounds its phases at about eps |t x|, so the bound
    # tests the summation and not the rounding of the phases.
    rng = np.random.default_rng(seed)
    x = 25.0 / (K * h) * (centre + spread * rng.uniform(-1.0, 1.0, (rows, J)))
    w = rng.uniform(0.5, 2.0, J) if weighted else None
    bound = 1e-13 * (J if w is None else np.abs(w).sum())
    direct = phase_sums(x, w, h, K)
    half = int(fraction * largest_taylor_half(x, h, K))
    assert np.abs(tracekit._taylor_sums(x, w, h, K, half) - direct).max() <= bound
    assert np.abs(tracekit._table_sums(x, w, h, K) - direct).max() <= bound
    sums, taylor = tracekit._half_grid_sums(x, w, h, K)
    assert np.abs(sums - direct).max() <= bound
    if J == 1:  # the moments cost more than the tables
        assert not taylor


@pytest.mark.parametrize("row, h", [
    ([0.0] * 40, 0.01),  # beta = 0
    ([0.0, 5e-324] * 20, 0.01),  # beta subnormal
    ([1e-200, -1e-200] * 20, 1e-200),  # beta h underflows to 0
    ([0.0, 1e-300] * 20, 1e-10),  # beta h subnormal
])
def test_half_grid_sums_take_one_taylor_segment_when_beta_h_vanishes(row, h):
    x = np.array([row])
    sums, taylor = tracekit._half_grid_sums(x, None, h, 3000)
    assert taylor
    assert np.abs(sums - phase_sums(x, None, h, 3000)).max() <= 1e-13 * len(row)


@pytest.mark.parametrize("config, rows", [
    # band 0 (rule value 0.57); band 1 (1.27), A_joint and the 8 table primes
    # at N_H = 20 (1.37) keep the tables
    ("{}", 1),
    ('{"N_P": 1000}', 1),
    # band 0, A_joint and the 9 table primes, whose N_H = 500 rows (0.08)
    # outweigh the moments
    ('{"N_H": 500}', 11),
    # h = 0.0025: bands 0 and 1 (0.13 and 0.29); A_joint and the primes keep the tables
    ('{"M": 64, "N_kappa": 1001, "n_bands": 16}', 2),
])
def test_taylor_route_takes_the_rows_the_rule_predicts_on_the_benchmark_shapes(config, rows):
    r = expcli.compute_run(expcli.parse_config(config))
    assert r.trace.taylor_rows == rows


@pytest.mark.parametrize("case", ["default", "three-harmonic"])
def test_folded_geometric_factor_matches_full_grid_oracle(default_run, case):
    if case == "default":
        bands, e_star = default_run.bands, default_run.e_star
    else:
        pot = PotentialSpec(period=2.0, cosine_coefficients=(2.0, 0.7, 0.3))
        bands = compute_band_structure(pot, QuasiMomentumGrid(n_nodes=81, period=2.0), 16, 6)
        e_star = select_reference_energy(bands, 0)
    h = default_run.trace.h_t
    K = round(default_run.trace.t_max / h)
    folded, _ = tracekit._geometric_on_grid(bands, e_star, K, h)
    # The scalar oracle rounds its phases at about eps |t q|; |t q| <= 700
    # keeps that, summed over the kappa grid, below the 1e-13 bound.
    q = mirrored_bands(bands) - e_star
    k_max = int(700.0 / (h * np.abs(q).max()))
    for k in range(-k_max, k_max + 1):
        for n in range(bands.n_bands):
            assert abs(folded[n, K + k] - geometric_factor(bands, e_star, n, k * h)) <= 1e-13
    # On the whole grid, against the unfolded trapezoid sum from the same
    # phase-sum routes (a band's route depends on its half-range, which the
    # fold keeps): only the fold differs between the two.
    c = np.ones(bands.grid.n_nodes)
    c[0] = c[-1] = 0.5
    scale = 2.0 * np.pi / bands.potential.period / (bands.grid.n_nodes - 1)
    unfolded = tracekit._mirror(
        scale * np.concatenate([tracekit._half_grid_sums(row[None], c, h, K)[0] for row in q]))
    assert np.abs(folded - unfolded).max() <= 1e-13


THREE_HARMONICS = PotentialSpec(period=2.0, cosine_coefficients=(2.0, 0.7, 0.3))


@pytest.mark.parametrize("case", ["default", "three-harmonic"])
def test_folded_sums_match_whole_grid_sums_of_fresh_negative_solves(default_run, case):
    # The library sums kappa >= 0 with the folded weights 1, 2, ..., 2, 1; the oracle
    # solves kappa < 0 afresh and sums the whole grid with 1/2, 1, ..., 1, 1/2.  A fold
    # weight of 2 at pi/L or a mirror for kappa = 0 moves both sums by about 1e-2.
    if case == "default":
        bands, e_star = default_run.bands, default_run.e_star
    else:
        bands = compute_band_structure(THREE_HARMONICS, QuasiMomentumGrid(n_nodes=81, period=2.0),
                                       16, 6)
        e_star = select_reference_energy(bands, 0)
    phi, shifts = TestFunction(alpha=0.5), default_run.shifts
    K, h = trace_grid(bands, e_star, shifts, phi.alpha)
    folded = tracekit._geometric_on_grid(bands, e_star, K, h)[0].sum(axis=0)
    # |t q| <= 700 keeps the phase rounding of either side below the bound
    k_max = int(700.0 / (h * np.abs(bands.bands - e_star).max()))
    k = np.arange(-k_max, k_max + 1, max(1, k_max // 20))
    theta, geometric = whole_grid_sums(phi, bands, e_star, shifts, k * h)
    assert abs(theta_fiber(phi, bands, e_star, shifts) - theta) <= 1e-13 * abs(theta)
    assert np.abs(folded[K + k] - geometric).max() <= 1e-12
    # G(0) = 2 pi / L exactly on the table route: the fold weights sum to N_kappa - 1
    assert tracekit._geometric_on_grid(toy_band_structure([[1.0, 2.0]]), 0.0, 4, 0.5)[0][0, 4] == (
        2.0 * np.pi)


def test_trace_is_bitwise_stable_across_blas_threads():
    # alpha = 0.1 gives n_t = 22,095: long enough for OpenBLAS to split a
    # dot product or a matrix product across threads.  The wide config has
    # the largest geometric-factor operands (16 bands x 501 folded nodes),
    # and N_P = 1000 sums the Euler series over 991 primes.
    code = (
        "import sys; from diracgap import expcli; "
        "r = expcli.compute_run(expcli.parse_config(sys.argv[1])); "
        "print(r.trace.theta_fiber.hex(), r.trace.theta_separated.hex(), r.trace.euler_gap.hex())"
    )
    src = str(Path(__file__).resolve().parent.parent / "src")
    for config in ('{"alpha": 0.1}', '{"M": 64, "N_kappa": 1001, "n_bands": 16}', '{"N_P": 1000}'):
        outputs = []
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
            env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
            proc = subprocess.run([sys.executable, "-c", code, config], env=env,
                                  capture_output=True, text=True, timeout=120, check=True)
            outputs.append(proc.stdout.split())
        assert outputs[0] == outputs[1], config


def test_separated_matches_fiber_on_golden_run(default_run):
    assert default_run.trace.rel_gap < 1e-6
    assert default_run.trace.h_t <= 0.01


def test_separated_zero_mass_consistency():
    pot = PotentialSpec.mathieu()
    bands = compute_band_structure(pot, QuasiMomentumGrid(n_nodes=41, period=1.0), 8, 4)
    e_star = 9.856938576832455
    shifts = zero_shifts(3)
    phi = TestFunction(alpha=0.5)
    K, h = trace_grid(bands, e_star, shifts, phi.alpha)
    a_joint, *_ = arithmetic_factors(shifts, K, h)
    assert np.all(a_joint == 1.0 + 0.0j)  # A == 1 when mass vanishes
    fiber = theta_fiber(phi, bands, e_star, shifts)
    separated = compare_trace_representations(bands, e_star, shifts, phi, K, h).theta_separated
    assert abs(fiber - separated) / abs(fiber) < 1e-6


def test_separated_saturation_limit():
    # phi ~= 1 on the whole finite spectrum: theta -> 2 (2pi/L) n_bands
    pot = PotentialSpec.mathieu()
    bands = compute_band_structure(pot, QuasiMomentumGrid(n_nodes=41, period=1.0), 8, 4)
    e_star = 9.856938576832455
    shifts = zero_shifts(2)
    phi = TestFunction(alpha=1e5)
    fiber = theta_fiber(phi, bands, e_star, shifts)
    assert fiber == pytest.approx(2.0 * 2.0 * np.pi * 4, rel=1e-4)
    grid = trace_grid(bands, e_star, shifts, phi.alpha)
    separated = compare_trace_representations(bands, e_star, shifts, phi, *grid).theta_separated
    assert abs(fiber - separated) / abs(fiber) < 1e-6


def test_default_grid_obeys_tail_and_alias_rules(mathieu_bands):
    phi = TestFunction(alpha=0.5)
    v_max = abs(mathieu_bands.bands.max() - 9.85)
    K, h = t_grid(0.5, mathieu_bands.n_bands, mathieu_bands.potential.period, v_max)
    assert h <= tracekit.H_MAX
    assert phi.fourier(K * h) < 1e-13
    assert 2.0 * np.pi / h > v_max + 4.0 * phi.alpha
    # a fiber value far enough out makes the aliasing rule, not H_MAX, set the step
    _, h_far = t_grid(0.5, mathieu_bands.n_bands, mathieu_bands.potential.period, 1e4)
    assert h_far < h and 2.0 * np.pi / h_far > 1e4 + 4.0 * phi.alpha


def test_tail_half_width_sets_the_default_grid(mathieu_bands):
    phi = TestFunction(alpha=0.5)
    T = tail_half_width(0.5, mathieu_bands.n_bands, mathieu_bands.potential.period)
    K, h = t_grid(0.5, mathieu_bands.n_bands, mathieu_bands.potential.period, 0.0)
    assert K * h == pytest.approx(T, rel=1e-15)
    assert K == math.ceil(T / tracekit.H_MAX)
    assert phi.fourier(T) <= 1e-14 * (1 + 1e-12)  # phihat(T) = TAIL_HAT_CUTOFF, up to rounding
    assert tail_half_width(0.25, 8, 1.0) > T  # a narrower window needs a wider grid


def test_geometric_factors_conjugate_symmetry(mathieu_bands):
    ens = sample_hecke_ensemble(generate_primes(2), 2, seed=1)
    shifts = mass_shifts(ens, EPSILON)
    K, h = 500, 0.05
    geometric, _ = tracekit._geometric_on_grid(mathieu_bands, 9.85, K, h)
    _, a_prod, *_ = arithmetic_factors(shifts, K, h)
    # G_n(-t) = conj(G_n(t)) holds bitwise on the symmetric grid
    assert np.array_equal(geometric[:, ::-1], np.conj(geometric))
    assert np.array_equal(a_prod[::-1], np.conj(a_prod))


def test_log_coefficients_constant_one():
    ens = sample_hecke_ensemble(generate_primes(3), 6, seed=4, mode="constant_one")
    for p in (2, 3, 5):
        c = log_coefficients(ens, p, 5)
        assert abs(c[0] - 1j * p**-1.35) < 1e-15
        # cumulants of a point mass vanish up to rounding in the mode mean
        assert all(abs(x) < 1e-15 for x in c[1:])


def test_log_coefficients_zero_samples():
    primes = generate_primes(2)
    ens = HeckeEnsemble(primes=primes, samples=np.zeros((2, 4)))
    assert all(x == 0.0 for x in log_coefficients(ens, 2, 6))


def test_log_coefficients_match_finite_differences():
    ens = sample_hecke_ensemble(generate_primes(5), 200, seed=12345)
    c = log_coefficients(ens, 2, 2)
    # five-point central differences of log A_2 near t = 0 (principal branch
    # is fine: A_2 stays near 1)
    h = 1e-3
    f = [complex(np.log(local_factor(ens, EPSILON, 2, k * h))) for k in (-2, -1, 0, 1, 2)]
    d1 = (-f[4] + 8 * f[3] - 8 * f[1] + f[0]) / (12 * h)
    d2 = (-f[4] + 16 * f[3] - 30 * f[2] + 16 * f[1] - f[0]) / (12 * h * h)
    assert abs(c[0] - d1) < 1e-6
    assert abs(c[1] - d2 / 2.0) < 1e-6


def test_log_coefficients_taylor_remainder():
    ens = sample_hecke_ensemble(generate_primes(4), 64, seed=7)
    p = 3
    c = log_coefficients(ens, p, 6)
    t = 0.05
    taylor = sum(ck * t ** (r + 1) for r, ck in enumerate(c))
    direct = complex(np.log(local_factor(ens, EPSILON, p, t)))
    assert abs(taylor - direct) < 1e-9


def test_compare_report_fields(default_run):
    r = default_run.trace
    assert r.theta_fiber == pytest.approx(0.05803138952821934, rel=1e-9)
    assert r.euler_gap > 0.0  # iid mode: empirical joint is not multiplicative
    assert r.t_max > 0 and r.h_t > 0


def prime_product(ens, epsilon, h, K, sums):
    """A_prod on k = 0..K with every prime's A_p from sums(x, w, h, K), in ascending order."""
    terms = np.array([eta(p, row, epsilon) for p, row in zip(ens.primes, ens.samples)])
    a = np.ones(K + 1, dtype=complex)
    for a_p in sums(terms, None, h, K):
        a *= a_p / ens.samples.shape[1]
    return a


@settings(max_examples=30, deadline=None)
@given(n_p=st.integers(1, 40), n_h=st.integers(1, 30), seed=st.integers(0, 2**64 - 1),
       mode=st.sampled_from(MODES), zero=st.booleans(), epsilon=st.floats(0.1, 4.0),
       K=st.integers(1, 300), h=st.floats(0.005, 0.1))
@example(n_p=20, n_h=20, seed=12345, mode="constant_one", zero=False, epsilon=0.35, K=2267, h=0.01)
@example(n_p=5, n_h=4, seed=0, mode="iid_uniform", zero=True, epsilon=0.35, K=100, h=0.05)
@example(n_p=40, n_h=30, seed=3, mode="iid_uniform", zero=False, epsilon=0.35, K=2267, h=0.01)
def test_euler_series_matches_the_table_route(n_p, n_h, seed, mode, zero, epsilon, K, h):
    ens = sample_hecke_ensemble(generate_primes(n_p), n_h, seed, mode)
    if zero:
        ens = replace(ens, samples=np.zeros_like(ens.samples))
    _, a_prod, series_primes, series_bound, _ = arithmetic_factors(mass_shifts(ens, epsilon),
                                                                   K, h)
    assert np.abs(a_prod[K:] - prime_product(ens, epsilon, h, K, phase_sums)).max() <= 1e-12
    if zero or mode == "constant_one":  # beta_p = 0: every prime takes the series
        assert series_primes == n_p and series_bound == 0.0


@pytest.mark.slow
def test_euler_series_is_at_least_as_close_to_mpmath_as_the_tables():
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 40
    ens = sample_hecke_ensemble(generate_primes(1000), 20, seed=3)
    h, K = 0.1, 227
    t = np.arange(-K, K + 1) * h
    _, a_prod, series_primes, *_ = arithmetic_factors(mass_shifts(ens, EPSILON), K, h)
    assert series_primes == 991
    table = prime_product(ens, EPSILON, h, K, tracekit._table_sums)
    terms = np.array([eta(p, row, EPSILON) for p, row in zip(ens.primes, ens.samples)])
    for k in (32, 113, 227):  # t = 3.2, 11.3, 22.7
        tk = mpmath.mpf(float(t[K + k]))
        exact = mpmath.mpf(1)
        for row in terms:
            exact *= mpmath.fsum(mpmath.expj(tk * mpmath.mpf(float(x))) for x in row) / len(row)
        assert abs(complex(a_prod[K + k]) - exact) <= abs(complex(table[k]) - exact)


def test_band_pruning_keeps_a_band_at_40_alpha_and_drops_one_an_ulp_beyond():
    # max|m| = 0.5: the band at 20.5 is d = 20 = 40 alpha from the window, the
    # one at -nextafter(20.5) an ulp farther; the band at 1..2 is always kept.
    edge = 20.5
    bands = toy_band_structure([[-np.nextafter(edge, np.inf)] * 3, [1.0, 2.0, 1.0], [edge] * 3])
    r = compare_trace_representations(bands, 0.0, one_row_shifts([0.25, -0.5]),
                                      TestFunction(alpha=0.5), 500, 0.05)
    assert r.bands_kept == 2
    assert r.band_prune_bound == 0.0  # 2 (2 pi / L) e^{-1600} underflows


def test_band_prune_bound_holds_the_mass_of_the_dropped_band(monkeypatch):
    # At width 1 alpha the bound does not underflow: it must hold theta_fiber of the band.
    monkeypatch.setattr(tracekit, "BAND_PRUNE_WIDTH", 1.0)
    phi = TestFunction(alpha=0.5)
    shifts = one_row_shifts([0.1, -0.2])
    band = toy_band_structure([[0.8, 1.0, 1.3]], period=2.0)
    r = compare_trace_representations(band, 0.0, shifts, phi, 250, 0.1)
    assert r.bands_kept == 0 and r.theta_separated == 0.0
    bound = r.band_prune_bound  # d = 0.8 - 0.2
    assert bound == pytest.approx(4.0 * np.pi / 2.0 * np.exp(-(0.6 / 0.5) ** 2), rel=1e-15)
    assert 0.0 < theta_fiber(phi, band, 0.0, shifts) <= bound


def test_trace_with_no_visible_band_is_finite_and_agrees():
    bands = toy_band_structure([[0.0] * 3, [100.0] * 3])
    ens = sample_hecke_ensemble(generate_primes(3), 4, seed=1)
    shifts = mass_shifts(ens, EPSILON)
    r = compare_trace_representations(bands, 50.0, shifts, TestFunction(alpha=0.5),
                                      *trace_grid(bands, 50.0, shifts, 0.5))
    assert r.bands_kept == 0
    assert r.theta_fiber == 0.0 and r.theta_separated == 0.0  # every fiber value is >= 49 from 0
    assert all(math.isfinite(x) for x in (r.rel_gap, r.abs_gap, r.l1_mass, r.euler_gap))
    assert r.abs_gap <= 1e-12 * r.l1_mass + r.band_prune_bound


def test_default_run_t_grid_is_pinned(default_run):
    # K = 2267 steps of T / K: T from the tail rule, the step capped at H_MAX.  The
    # perfbench references were taken on this grid, so a change to it shows here first.
    r = default_run.trace
    assert round(r.t_max / r.h_t) == 2267
    assert (r.t_max.hex(), r.h_t.hex()) == ("0x1.6ab0e13966df1p+4", "0x1.47a75bc8cddbbp-7")


def test_default_run_weights_the_trapezoid_with_the_step_that_built_the_nodes(default_run):
    # t[1] - t[0] at the far left node -K h carries an error near ulp(K h), about 1e-13
    # relative, and the trapezoid weight would pass it on to theta_separated.
    assert default_run.trace.rel_gap < 1e-14


def test_default_run_keeps_two_bands_and_sends_the_primes_from_23_to_the_series(default_run):
    # q_p = T beta_p / s0 is 0.30 at p = 19 and 0.18 at p = 23 on this run
    r = default_run.trace
    assert (r.bands_kept, r.euler_series_primes) == (2, 12)
    assert r.band_prune_bound == 0.0 and 0.0 < r.euler_series_bound < 1e-22
