import math
import os
from dataclasses import replace
import subprocess
import sys
import tracemalloc
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import one_row_shifts, toy_band_structure
from oracles import (eta, geometric_factor, local_factor, local_factor_grid, log_series,
                     mirrored_bands, phase_sums, sample_row, theta_fiber_whole_array,
                     whole_grid_sums)
from diracgap.arithmetic import (
    MODES,
    HeckeEnsemble,
    generate_primes,
    mass_shifts,
    sample_hecke_ensemble,
)
from diracgap import arithmetic, expcli, tracekit
from diracgap.floquet import (
    PotentialSpec,
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
    row = eta(p, sample_row(ens, p), EPSILON)[None]
    return tracekit._log_series(row, tracekit._centred(row)[0], np.array([degree]))


def zero_shifts(n):
    return one_row_shifts(np.zeros(n))


def grid_of(report):
    """(K, h) of the t grid a trace report was summed on, read back from t_max = K h."""
    return round(report.t_max / report.h_t), report.h_t


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
    fine = compute_band_structure(pot, 401, 32, 1)
    e_star = 9.856938576832455
    coarse_val = geometric_factor(mathieu_bands, e_star, 0, 1.0)
    fine_val = geometric_factor(fine, e_star, 0, 1.0)
    assert abs(coarse_val - fine_val) < 1e-8


def test_arithmetic_factors_at_zero(default_run):
    r = default_run
    a_joint, a_prod, *_ = arithmetic_factors(r.shifts, 1, 0.5)  # t = 0, 0.5
    assert a_joint[0] == 1.0 + 0.0j
    assert a_prod[0] == 1.0 + 0.0j
    assert np.all(np.abs(a_joint) <= 1.0 + 1e-15)


def test_constant_one_factorizes_exactly():
    primes = generate_primes(20)
    ens = sample_hecke_ensemble(primes, 20, seed=12345, mode="constant_one")
    shifts = mass_shifts(ens, EPSILON)
    t = np.arange(2001) * 0.01
    a_joint, a_prod, *_ = arithmetic_factors(shifts, 2000, 0.01)
    total = sum(p**-1.35 for p in primes)
    closed = np.exp(1j * t * total)
    assert np.abs(a_joint - closed).max() < 1e-12
    assert np.abs(a_joint - a_prod).max() < 1e-12


def test_constant_one_series_adds_the_phases_in_the_order_of_the_mass_shifts():
    # A constant row is centred to y = 0 exactly, so its series is the phase t mu_p
    # alone.  Added row after row, as mass_shifts adds the eta rows, the phases
    # (|t sum mu| up to 233 here) round as A_joint's do; a pairwise sum left 3.8e-13.
    ens = sample_hecke_ensemble(generate_primes(1000), 20, seed=12345, mode="constant_one")
    a_joint, a_prod, *_ = arithmetic_factors(mass_shifts(ens, 0.05), 11000, 0.01)
    assert np.abs(a_joint - a_prod).max() < 1e-13


def test_euler_gap_shrinks_with_modes():
    primes = generate_primes(20)
    t = np.arange(5) * 0.5
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
    bands = compute_band_structure(pot, 201, 32, 2)
    e_star = 9.856938576832455
    t = np.arange(6001) * 0.002
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
        bands = compute_band_structure(pot, 81, 16, 6)
        e_star = select_reference_energy(bands, 0)
    K, h = grid_of(default_run.trace)
    folded, _ = tracekit._geometric_on_grid(bands, e_star, K, h)
    # The scalar oracle rounds its phases at about eps |t q|; |t q| <= 700
    # keeps that, summed over the kappa grid, below the 1e-13 bound.
    q = mirrored_bands(bands) - e_star
    k_max = int(700.0 / (h * np.abs(q).max()))
    for k in range(k_max + 1):
        for n in range(bands.n_bands):
            assert abs(folded[n, k] - geometric_factor(bands, e_star, n, k * h)) <= 1e-13
    # On the whole grid, against the unfolded trapezoid sum from the same
    # phase-sum routes (a band's route depends on its half-range, which the
    # fold keeps): only the fold differs between the two.
    c = np.ones(bands.grid.n_nodes)
    c[0] = c[-1] = 0.5
    scale = 2.0 * np.pi / bands.potential.period / (bands.grid.n_nodes - 1)
    unfolded = scale * np.concatenate([tracekit._half_grid_sums(row[None], c, h, K)[0] for row in q])
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
        bands = compute_band_structure(THREE_HARMONICS, 81, 16, 6)
        e_star = select_reference_energy(bands, 0)
    phi, shifts = TestFunction(alpha=0.5), default_run.shifts
    K, h = grid_of(compare_trace_representations(bands, e_star, shifts, phi))
    folded = tracekit._geometric_on_grid(bands, e_star, K, h)[0].sum(axis=0)
    # |t q| <= 700 keeps the phase rounding of either side below the bound
    k_max = int(700.0 / (h * np.abs(bands.bands - e_star).max()))
    k = np.arange(0, k_max + 1, max(1, k_max // 20))
    theta, geometric = whole_grid_sums(phi, bands, e_star, shifts, k * h)
    assert abs(theta_fiber(phi, bands, e_star, shifts) - theta) <= 1e-13 * abs(theta)
    assert np.abs(folded[k] - geometric).max() <= 1e-12
    # G(0) = 2 pi / L exactly on the table route: the fold weights sum to N_kappa - 1
    assert tracekit._geometric_on_grid(toy_band_structure([[1.0, 2.0]]), 0.0, 4, 0.5)[0][0, 0] == (
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
    bands = compute_band_structure(pot, 41, 8, 4)
    e_star = 9.856938576832455
    shifts = zero_shifts(3)
    phi = TestFunction(alpha=0.5)
    r = compare_trace_representations(bands, e_star, shifts, phi)
    a_joint, *_ = arithmetic_factors(shifts, *grid_of(r))
    assert np.all(a_joint == 1.0 + 0.0j)  # A == 1 when mass vanishes
    fiber = theta_fiber(phi, bands, e_star, shifts)
    assert abs(fiber - r.theta_separated) / abs(fiber) < 1e-6


def test_separated_saturation_limit():
    # phi ~= 1 on the whole finite spectrum: theta -> 2 (2pi/L) n_bands
    pot = PotentialSpec.mathieu()
    bands = compute_band_structure(pot, 41, 8, 4)
    e_star = 9.856938576832455
    shifts = zero_shifts(2)
    phi = TestFunction(alpha=1e5)
    fiber = theta_fiber(phi, bands, e_star, shifts)
    assert fiber == pytest.approx(2.0 * 2.0 * np.pi * 4, rel=1e-4)
    separated = compare_trace_representations(bands, e_star, shifts, phi).theta_separated
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


def test_folded_t_sum_matches_the_whole_grid_trapezoid_at_negative_t():
    # The library sums Re I on k = 0..K with the weights 1, 2, ..., 2, 1; the oracle takes
    # sum_n G_n and A_joint directly at every t_k, k = -K..K, on the freshly solved whole
    # kappa grid, and sums the trapezoid 1/2, 1, ..., 1, 1/2.  Counting k = 0 twice or
    # weighting the inside by 1 moves theta_separated by 0.035 or 0.098 here.
    bands = compute_band_structure(THREE_HARMONICS, 41, 16, 6)
    e_star = select_reference_energy(bands, 0)
    shifts = mass_shifts(sample_hecke_ensemble(generate_primes(5), 8, seed=3), EPSILON)
    phi = TestFunction(alpha=0.5)
    r = compare_trace_representations(bands, e_star, shifts, phi)
    K, h = grid_of(r)
    t = np.arange(-K, K + 1) * h
    _, geometric = whole_grid_sums(phi, bands, e_star, shifts, t)
    a_joint = np.exp(1j * np.multiply.outer(t, shifts.values)).mean(axis=1)
    integrand = phi.fourier(t) * geometric * a_joint
    whole = h * (integrand.sum() - 0.5 * (integrand[0] + integrand[-1])).real / np.pi
    assert abs(r.theta_separated - whole) <= 4 * np.spacing(r.l1_mass)


# Wrong t folds: (the entries of the weights 1, 2, ..., 2, 1 on k = 0..K changed, their value).
T_FOLD_MUTATIONS = {"count k = 0 twice": (0, 2.0), "weight the inside by 1": (slice(1, -1), 1.0)}


@pytest.mark.parametrize("mutation", T_FOLD_MUTATIONS)
def test_trace_agreement_fails_on_a_wrong_t_fold(default_run, monkeypatch, mutation):
    # Only the t axis's weights change: the kappa half has 51 nodes, the t half K + 1 = 2268.
    K, _ = grid_of(default_run.trace)
    at, value = T_FOLD_MUTATIONS[mutation]
    fold = tracekit.fold_weights

    def t_weights(half):
        w = fold(half)
        if half == K:
            w[at] = value
        return w

    monkeypatch.setattr(tracekit, "fold_weights", t_weights)
    r = expcli.compute_run(expcli.parse_config("{}"))
    assert r.trace.theta_fiber == default_run.trace.theta_fiber
    assert not next(c for c in r.checks if c.name == "trace_agreement").passed


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


@settings(max_examples=30, deadline=None)
@given(n_p=st.integers(1, 60), n_h=st.integers(1, 30), seed=st.integers(0, 2**64 - 1),
       mode=st.sampled_from(MODES), zero=st.booleans(), epsilon=st.floats(0.1, 4.0),
       K=st.integers(1, 3000), h=st.floats(0.002, 0.1))
@example(n_p=1000, n_h=20, seed=3, mode="iid_uniform", zero=False, epsilon=0.35, K=2267, h=0.01)
@example(n_p=20, n_h=500, seed=3, mode="iid_uniform", zero=False, epsilon=0.35, K=2267, h=0.01)
def test_per_prime_series_gives_the_a_prod_of_the_degree_30_series(n_p, n_h, seed, mode, zero,
                                                                    epsilon, K, h):
    ens = sample_hecke_ensemble(generate_primes(n_p), n_h, seed, mode)
    if zero:
        ens = replace(ens, samples=np.zeros_like(ens.samples))
    terms = mass_shifts(ens, epsilon).terms
    mu, beta = tracekit._centred(terms)
    q = K * h * beta / tracekit.EULER_SERIES_S0
    series = q <= tracekit.EULER_SERIES_RATIO
    degrees, _ = tracekit._series_degrees(q[series])
    t = np.arange(K + 1) * h

    def a_prod(coef):
        return np.exp(np.polyval(np.append(coef[::-1], 0.0), t))

    got = a_prod(tracekit._log_series(terms[series], mu[series], degrees))
    want = a_prod(log_series(terms[series], tracekit.EULER_SERIES_DEGREE).sum(axis=0))
    assert np.abs(got - want).max() <= 1e-13


def _check_least_degrees(q: np.ndarray) -> float:
    """Assert that each prime of q takes the least degree whose tail is within its share,
    and return _series_degrees' bound."""
    degrees, bound = tracekit._series_degrees(q)
    cut = tracekit.EULER_SERIES_TOLERANCE / len(q)
    top = tracekit.EULER_SERIES_DEGREE
    # tail[d - 1, p] at degree d, from NumPy's pow on the same q array and exponent table as
    # the library: Python's ** rounds some of these powers differently.
    tail = math.log(2) * q ** np.arange(2, top + 2)[:, None] / (1 - q)
    for p, d in enumerate(degrees.tolist()):
        assert 1 <= d <= top
        assert tail[d - 1, p] <= cut or d == top
        assert d == 1 or tail[d - 2, p] > cut
    assert bound == pytest.approx(math.fsum(tail[degrees - 1, np.arange(len(q))]), rel=1e-12,
                                  abs=0.0)
    # at most the bound of the fixed degree-30 cut, plus the tolerance the cuts share
    assert bound <= math.fsum(tail[-1]) + tracekit.EULER_SERIES_TOLERANCE
    return bound


@settings(max_examples=60, deadline=None)
@given(q=st.lists(st.floats(0.0, tracekit.EULER_SERIES_RATIO), min_size=1, max_size=60))
@example(q=[0.0])
@example(q=[0.2])
@example(q=[tracekit.EULER_SERIES_RATIO] * 3)
@example(q=[1.0924144669714166e-12])  # ln 2 q^2 / (1 - q) is 2^-80, the cut, exactly
@example(q=np.geomspace(1e-12, tracekit.EULER_SERIES_RATIO, 1000).tolist())
def test_each_series_prime_takes_the_least_degree_whose_tail_is_within_its_share(q):
    _check_least_degrees(np.array(q))


@pytest.mark.parametrize("config", [
    '{"N_P": 1000, "seed": 3}', '{"N_P": 1000, "epsilon": 0.01, "alpha": 0.02}', "{}",
    '{"N_H": 500}',
])
def test_series_degrees_keep_the_bits_of_the_whole_degree_table(config):
    # The run's series primes take the least degrees of the whole (degree, prime) table of
    # tail bounds, and the run reports their bound bit for bit.
    r = expcli.compute_run(expcli.parse_config(config))
    K, h = grid_of(r.trace)
    q = K * h * tracekit._centred(r.shifts.terms)[1] / tracekit.EULER_SERIES_S0
    bound = _check_least_degrees(q[q <= tracekit.EULER_SERIES_RATIO])
    assert bound.hex() == r.trace.euler_series_bound.hex()


def test_primes_1000_does_a_third_of_the_fixed_degree_series_work(monkeypatch):
    # At N_P = 1000 the median series prime has q_p ~ 2.4e-4: its tail is below the
    # tolerance by degree 7, where the fixed cut took every prime to degree 30.
    cut = []
    series = tracekit._log_series
    # The run passes every prime's degree, 0 for a prime that takes the tables.
    monkeypatch.setattr(tracekit, "_log_series", lambda eta, mu, degrees: cut.append(
        degrees[degrees > 0]) or series(eta, mu, degrees))
    r = expcli.compute_run(expcli.parse_config('{"N_P": 1000, "seed": 3}'))
    (degrees,) = cut
    assert len(degrees) == r.trace.euler_series_primes == 991
    assert degrees.sum() <= tracekit.EULER_SERIES_DEGREE * len(degrees) / 3


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
    assert np.abs(a_prod - prime_product(ens, epsilon, h, K, phase_sums)).max() <= 1e-12
    if zero or mode == "constant_one":  # beta_p = 0: every prime takes the series
        assert series_primes == n_p and series_bound == 0.0


@pytest.mark.slow
def test_euler_series_is_at_least_as_close_to_mpmath_as_the_tables():
    mpmath.mp.dps = 40
    ens = sample_hecke_ensemble(generate_primes(1000), 20, seed=3)
    h, K = 0.1, 227
    t = np.arange(K + 1) * h
    _, a_prod, series_primes, *_ = arithmetic_factors(mass_shifts(ens, EPSILON), K, h)
    assert series_primes == 991
    table = prime_product(ens, EPSILON, h, K, tracekit._table_sums)
    terms = np.array([eta(p, row, EPSILON) for p, row in zip(ens.primes, ens.samples)])
    for k in (32, 113, 227):  # t = 3.2, 11.3, 22.7
        tk = mpmath.mpf(float(t[k]))
        exact = mpmath.mpf(1)
        for row in terms:
            exact *= mpmath.fsum(mpmath.expj(tk * mpmath.mpf(float(x))) for x in row) / len(row)
        assert abs(complex(a_prod[k]) - exact) <= abs(complex(table[k]) - exact)


def test_both_routes_keep_a_band_at_sqrt_746_alpha_and_drop_one_an_ulp_beyond(monkeypatch):
    # max|m| = 0.5: the band at edge is d = sqrt(746) alpha from the window, the one at
    # -nextafter(edge) an ulp farther; the band at 1..2 is always kept.
    alpha = 0.5
    cut = math.sqrt(tracekit.UNDERFLOW_EXPONENT) * alpha
    edge = cut + 0.5
    assert edge - 0.5 == cut  # both lie in [8, 16), where 0.5 is a whole number of ulps
    summed = {}  # the rows each route was given, passed last
    for name in ("theta_fiber", "_geometric_on_grid"):
        def spy(*args, route=getattr(tracekit, name), name=name):
            summed[name] = list(args[-1])
            return route(*args)
        monkeypatch.setattr(tracekit, name, spy)
    bands = toy_band_structure([[-np.nextafter(edge, np.inf)] * 3, [1.0, 2.0, 1.0], [edge] * 3])
    r = compare_trace_representations(bands, 0.0, one_row_shifts([0.25, -0.5]),
                                      TestFunction(alpha=alpha))
    assert summed == {"theta_fiber": [1, 2], "_geometric_on_grid": [1, 2]}
    assert r.bands_kept == len(summed["theta_fiber"])


def test_trace_with_no_visible_band_is_finite_and_agrees():
    bands = toy_band_structure([[0.0] * 3, [100.0] * 3])
    ens = sample_hecke_ensemble(generate_primes(3), 4, seed=1)
    shifts = mass_shifts(ens, EPSILON)
    r = compare_trace_representations(bands, 50.0, shifts, TestFunction(alpha=0.5))
    assert r.bands_kept == 0
    assert r.theta_fiber == 0.0 and r.theta_separated == 0.0  # every fiber value is >= 49 from 0
    assert all(math.isfinite(x) for x in (r.rel_gap, r.abs_gap, r.l1_mass, r.euler_gap))
    assert r.abs_gap <= 1e-12 * r.l1_mass


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
    assert 0.0 < r.euler_series_bound < 1e-22



def test_wide_window_sums_only_the_bands_whose_gaussians_do_not_underflow():
    # At alpha = 2 the fourth band lies between sqrt(746) alpha and 40 alpha from the
    # window: every Gaussian of it is 0.0, so neither route sums it.
    r = expcli.compute_run(expcli.parse_config('{"alpha": 2.0, "seed": 3}'))
    assert r.trace.bands_kept == 3
    assert r.all_checks_pass

@pytest.mark.parametrize("config", [
    "{}", '{"N_H": 500}', '{"M": 64, "N_kappa": 1001, "n_bands": 16}', '{"alpha": 0.1}',
])
def test_fiber_sum_over_the_bands_that_do_not_underflow_is_the_all_band_sum_bitwise(
        config, monkeypatch):
    # The bands left out lie more than sqrt(746) alpha from the window: their every
    # Gaussian is exactly 0.0, so the sum keeps its bits.  The run sums 2 bands of
    # 8 or 16, a work count that fails if the all-band loop comes back.
    summed = []
    every_band = tracekit.theta_fiber

    def spy(phi, bands, e_star, shifts, rows=slice(None)):
        summed.append(len(bands.bands[rows]))
        return every_band(phi, bands, e_star, shifts, rows)

    monkeypatch.setattr(tracekit, "theta_fiber", spy)
    r = expcli.compute_run(expcli.parse_config(config))
    phi = TestFunction(alpha=r.config.alpha)
    assert summed == [2] and r.bands.n_bands >= 8
    assert r.trace.theta_fiber.hex() == every_band(phi, r.bands, r.e_star, r.shifts).hex()


def test_fiber_sum_keeps_a_band_whose_gaussians_are_subnormal_and_drops_one_that_underflows(
        monkeypatch):
    # alpha = 0.5: the band at 13.6 is 27.2 alpha from the window, e^{-739.84} ~ 1e-321,
    # a subnormal; the one at -13.7 is 27.4 alpha away, e^{-750.76} = 0.0 exactly.
    summed = []
    every_band = tracekit.theta_fiber
    monkeypatch.setattr(tracekit, "theta_fiber", lambda phi, bands, e_star, shifts, rows:
                        summed.append(list(rows)) or every_band(phi, bands, e_star, shifts, rows))
    bands = toy_band_structure([[-13.7] * 3, [13.6] * 3])
    phi = TestFunction(alpha=0.5)
    r = compare_trace_representations(bands, 0.0, one_row_shifts([0.0]), phi)
    assert summed == [[1]]
    assert r.theta_fiber > 0.0
    assert r.theta_fiber == every_band(phi, bands, 0.0, one_row_shifts([0.0]))


@pytest.mark.parametrize("config", [
    "{}", '{"N_H": 500}', '{"N_H": 2000}', '{"alpha": 0.02}', '{"N_H": 500, "alpha": 0.02}',
])
def test_blocks_change_no_bit_of_the_trace_report(config, monkeypatch):
    # A budget of 1 makes every row and kappa node its own block, 2**62 makes one block
    # of everything.  Both alpha = 0.02 runs send every prime to the tables in two
    # PRIME_CHUNK calls, on the Taylor route at N_H = 500, each with its own beta.
    cfg = expcli.parse_config(config)
    report = expcli.compute_run(cfg).trace
    for budget in (1, 2**62):
        monkeypatch.setattr(tracekit, "BLOCK_ELEMENTS", budget)
        assert expcli.compute_run(cfg).trace == report


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("n_p, n_h", [(200, 400), (2000, 20)])
def test_blocks_of_primes_change_no_bit_of_the_samples_or_the_euler_factors(
        n_p, n_h, mode, monkeypatch):
    # Both shapes take several blocks of primes at the default budget; a budget of 64 puts
    # one prime in each block at N_H = 400 and three at N_H = 20.  In iid mode the first
    # few primes take the tables and the rest the series.
    assert n_p * n_h > arithmetic.BLOCK_ELEMENTS

    def run():
        ens = sample_hecke_ensemble(generate_primes(n_p), n_h, 3, mode)
        return ens.samples, tracekit.arithmetic_factors(mass_shifts(ens, EPSILON), 2267, 0.01)

    samples, (a_joint, a_prod, *rest) = run()
    monkeypatch.setattr(arithmetic, "BLOCK_ELEMENTS", 64)
    monkeypatch.setattr(tracekit, "BLOCK_ELEMENTS", 64)
    blocked, (blocked_joint, blocked_prod, *blocked_rest) = run()
    assert blocked.tobytes() == samples.tobytes()
    assert blocked_joint.tobytes() == a_joint.tobytes()
    assert blocked_prod.tobytes() == a_prod.tobytes()
    assert blocked_rest == rest


def heap_peak(work) -> int:
    """Bytes of the largest traced heap while work() runs."""
    tracemalloc.start()
    try:
        work()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_trace_temporaries_stay_under_the_block_budget():
    # Whole-array temporaries peaked at 9.5 MiB here and at 3.42 MiB for the N_H = 500 run.
    r = expcli.compute_run(expcli.parse_config('{"N_H": 2000, "seed": 3}'))
    phi = TestFunction(alpha=r.config.alpha)
    assert heap_peak(lambda: compare_trace_representations(
        r.bands, r.e_star, r.shifts, phi)) <= 4 * 2**20
    cfg = expcli.parse_config('{"N_H": 500, "seed": 3}')
    assert heap_peak(lambda: expcli.compute_run(cfg)) <= 2.5 * 2**20


def test_the_ensemble_and_its_euler_factors_stay_under_the_block_budget():
    # 300 primes of 2,000 modes take 19 blocks.  Built whole, the sampler's mix peaked at
    # 18.4 MiB for its 4.6 MiB result, the Euler factors' centred rows and powers at
    # 18.1 MiB, and the run at 27.3 MiB.
    cfg = expcli.parse_config('{"N_P": 300, "N_H": 2000, "seed": 3}')
    r = expcli.compute_run(cfg)
    K, h = grid_of(r.trace)
    assert heap_peak(lambda: sample_hecke_ensemble(r.ensemble.primes, cfg.N_H, cfg.seed)) <= (
        r.ensemble.samples.nbytes + 2 * 2**20)
    assert heap_peak(lambda: tracekit.arithmetic_factors(r.shifts, K, h)) <= 3 * 2**20
    assert heap_peak(lambda: expcli.compute_run(cfg)) <= 13 * 2**20
