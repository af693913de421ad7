import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diracgap.arithmetic import (
    CoefficientFamily,
    HeckeEnsemble,
    generate_primes,
    local_factor_grid,
    sample_hecke_ensemble,
)
from diracgap.gapspec import GapSpectrum
from diracgap.shift import (
    Staircase,
    TestFunction,
    arithmetic_shift_density,
    build_staircase,
    eval_staircase,
    is_jump_location,
    krein_pairing,
    stationary_scan,
    trace_response,
    trace_response_derivative,
)


def spectrum_of(pairs):
    return GapSpectrum(
        positive_values=tuple(v for v, _ in pairs),
        multiplicities=tuple(m for _, m in pairs),
        provenance=tuple(((0, 0, 1),) * m for _, m in pairs),
    )


def test_empty_staircase_is_zero():
    s = build_staircase(spectrum_of([]))
    for x in (-5.0, -0.1, 0.0, 0.1, 5.0):
        assert eval_staircase(s, x) == 0


def test_single_jump_convention():
    s = Staircase(locations=(0.1,), weights=(1,))
    assert eval_staircase(s, 0.05) == 0
    assert eval_staircase(s, 0.2) == 1
    assert eval_staircase(s, -0.2) == -1
    assert eval_staircase(s, 0.0) == 0
    # right-continuity at the jump itself
    s2 = Staircase(locations=(0.1,), weights=(2,))
    assert eval_staircase(s2, 0.1) == 2
    assert eval_staircase(s2, -0.1) == -2


def test_staircase_validation():
    with pytest.raises(ValueError):
        Staircase(locations=(0.0,), weights=(1,))
    with pytest.raises(ValueError):
        Staircase(locations=(0.2, 0.1), weights=(1, 1))
    with pytest.raises(ValueError):
        Staircase(locations=(0.1,), weights=(0,))


def test_golden_staircase_matches_cumulative_recount(default_run):
    s = default_run.staircase
    spectrum = default_run.spectrum
    # independent recount: sort raw positive emitted values, count <= lambda
    raw = sorted(abs(v) for v in default_run.gap_values.values.tolist() if v != 0.0)
    for lam in np.linspace(0.0, float(s.locations[-1]) * 1.05, 137):
        expected = sum(1 for v in raw if v <= lam)
        assert eval_staircase(s, lam) == expected
    assert s.total_weight == sum(spectrum.multiplicities)


@settings(max_examples=60, deadline=None)
@given(
    locs=st.lists(st.floats(min_value=1e-6, max_value=50.0), min_size=0, max_size=12, unique=True),
    weights=st.lists(st.integers(min_value=1, max_value=4), min_size=12, max_size=12),
    probes=st.lists(st.floats(min_value=-100.0, max_value=100.0), min_size=1, max_size=8),
)
def test_oddness_is_exact(locs, weights, probes):
    locs = sorted(locs)
    s = Staircase(locations=tuple(locs), weights=tuple(weights[: len(locs)]))
    for x in probes:
        assert eval_staircase(s, -x) == -eval_staircase(s, x)


def test_krein_even_probe_cancels_exactly(default_run):
    s = default_run.staircase
    for probe in (lambda x: math.exp(-x * x), lambda x: x * x, lambda x: abs(x)):
        assert krein_pairing(s, probe) == 0.0


def test_krein_linear_probe():
    s = Staircase(locations=(0.1,), weights=(1,))
    assert krein_pairing(s, lambda x: x) == pytest.approx(0.2, abs=1e-16)


def test_krein_tanh_matches_quadrature(default_run):
    s = default_run.staircase
    got = krein_pairing(s, math.tanh)
    # Independent oracle: -int psi'(x) xi_signed(x) dx with xi_signed the
    # antiderivative of the signed jump measure (value -sum m_k on
    # (-l_k, l_k), 0 outside).  The integrand is a step function, so the
    # quadrature is split at the breakpoints and each smooth segment is
    # integrated by Simpson at step <= 1e-4; sech^2 beyond |x| = 32 is
    # ~4e-28, so truncating there is far below the 1e-9 tolerance.
    cut = 32.0
    locs = np.array(s.locations)
    wts = np.array(s.weights)

    def xi_signed(x):
        return -int(wts[(-locs <= x) & (x < locs)].sum())

    breaks = sorted({-cut, cut} | {v for v in locs if v < cut} | {-v for v in locs if v < cut})
    oracle = 0.0
    for a, b in zip(breaks, breaks[1:]):
        n_sub = 2 * max(1, int(math.ceil((b - a) / 2e-4)))
        x = np.linspace(a, b, n_sub + 1)
        dpsi = 1.0 / np.cosh(x) ** 2
        coeff = np.ones(n_sub + 1)
        coeff[1:-1:2] = 4.0
        coeff[2:-1:2] = 2.0
        segment = (b - a) / n_sub / 3.0 * float(np.dot(coeff, dpsi))
        oracle -= segment * xi_signed(0.5 * (a + b))
    assert got == pytest.approx(oracle, abs=1e-9)


def test_is_jump_location():
    s = Staircase(locations=(0.25, 1.5), weights=(1, 2))
    assert is_jump_location(s, 0.25)
    assert is_jump_location(s, -1.5)
    assert not is_jump_location(s, 0.3)


def test_scan_zero_is_always_stationary():
    spec = spectrum_of([(1.0, 1)])
    phi = TestFunction(alpha=0.2)
    t = np.arange(-200, 201) * 0.01
    assert float(trace_response_derivative(build_staircase(spec), phi, 0.0)) == 0.0
    scan = stationary_scan(spec, phi, t)
    assert any(r == 0.0 for r in scan.roots)


def test_scan_localizes_isolated_pair():
    # lambda = 1.0 >= 5 alpha: extrema within alpha/10 of +-1, and within
    # the 0.02 gate; the cross term phi'(2 lambda) displaces them slightly.
    spec = spectrum_of([(1.0, 1)])
    phi = TestFunction(alpha=0.2)
    t = np.arange(-200, 201) * 0.01
    scan = stationary_scan(spec, phi, t)
    maxima = [r for r, k in zip(scan.roots, scan.kinds) if k == "max"]
    assert len(maxima) == 2
    for target in (-1.0, 1.0):
        best = min(maxima, key=lambda r: abs(r - target))
        assert abs(best - target) < 0.02
        assert abs(best - target) < phi.alpha / 10.0


def test_scan_against_brute_force_response():
    spec = spectrum_of([(0.8, 1), (2.0, 2)])
    phi = TestFunction(alpha=0.15)
    s = build_staircase(spec)
    t = np.arange(-300, 301) * 0.01
    scan = stationary_scan(spec, phi, t)
    fine = np.arange(-300_000, 300_001) * 1e-5
    f = trace_response(s, phi, fine)
    # every detected maximum is a genuine local maximum of F on the fine grid
    for r, kind in zip(scan.roots, scan.kinds):
        i = int(round((r - fine[0]) / 1e-5))
        lo, hi = max(i - 120, 1), min(i + 120, len(fine) - 2)
        window = f[lo:hi]
        if kind == "max":
            assert window.max() >= f[i] - 1e-12
            assert abs(fine[lo + int(np.argmax(window))] - r) < 2.5e-3
        # derivative vanishes at the refined root
        assert abs(float(trace_response_derivative(s, phi, r))) < 1e-8


def test_response_evenness():
    spec = spectrum_of([(0.7, 2), (1.9, 1)])
    phi = TestFunction(alpha=0.2)
    s = build_staircase(spec)
    t = np.arange(0, 301) * 0.01
    f_pos = trace_response(s, phi, t)
    f_neg = trace_response(s, phi, -t)
    f0 = float(trace_response(s, phi, 0.0))
    assert np.abs(f_pos - f_neg).max() <= 1e-12 * abs(f0)


def test_scan_empty_spectrum():
    scan = stationary_scan(spectrum_of([]), TestFunction(alpha=0.2), np.linspace(-1, 1, 21))
    assert scan.roots == ()
    assert scan.warnings == ()


def test_scan_warns_on_coarse_grid():
    spec = spectrum_of([(1.0, 1), (1.05, 1)])
    scan = stationary_scan(spec, TestFunction(alpha=0.01), np.arange(-30, 31) * 0.1)
    assert any("unresolved" in w for w in scan.warnings)


def test_test_function_validation():
    with pytest.raises(ValueError):
        TestFunction(alpha=0.0)
    with pytest.raises(ValueError):
        TestFunction(alpha=-1.0)
    phi = TestFunction(alpha=0.5)
    assert phi(0.0) == 1.0
    x = np.array([0.3, 1.0, -1.0])
    assert np.array_equal(phi(x), phi(-x))


def test_density_constant_one_closed_form():
    ens = sample_hecke_ensemble(generate_primes(2), 5, seed=1, mode="constant_one")
    fam = CoefficientFamily(0.35)
    grid = np.arange(-2000, 2001) * 1e-3
    density = arithmetic_shift_density(ens, fam, grid)
    expected = (2.0**-1.35 + 3.0**-1.35) / (2.0 * np.pi)
    assert np.abs(density - expected).max() < 1e-10
    assert math.isfinite(density[len(grid) // 2])


def test_density_branch_ambiguity_rejected():
    # two modes with eta values {0, c}: A_2(t) = (1 + e^{itc}) / 2 vanishes
    # at t = pi / c, which the grid hits exactly
    primes = generate_primes(1)
    samples = np.array([[0.0, 1.0]])
    ens = HeckeEnsemble(primes=primes, n_modes=2, seed=0, mode="iid_uniform", samples=samples)
    fam = CoefficientFamily(0.35)
    c = 2.0**-1.35
    t_star = math.pi / c
    grid = np.array([0.0, 0.5 * t_star, t_star])
    with pytest.raises(ValueError, match="branch"):
        arithmetic_shift_density(ens, fam, grid)


def test_density_matches_independent_unwrap_oracle():
    ens = sample_hecke_ensemble(generate_primes(10), 40, seed=12345)
    fam = CoefficientFamily(0.35)
    h = 1e-3
    grid = np.arange(-3000, 3001) * h
    density = arithmetic_shift_density(ens, fam, grid)
    # independent oracle: numpy unwrap of the per-prime phases + np.gradient
    total = np.zeros(len(grid), dtype=complex)
    for p in ens.primes:
        a = local_factor_grid(ens, fam, p, grid)
        total += np.log(np.abs(a)) + 1j * np.unwrap(np.angle(a))
    oracle = (np.gradient(total, h) / (2j * np.pi)).real
    assert np.abs(density[1:-1] - oracle[1:-1]).max() < 1e-8


def test_density_halved_step_richardson():
    ens = sample_hecke_ensemble(generate_primes(10), 40, seed=12345)
    fam = CoefficientFamily(0.35)
    coarse_grid = np.arange(-1500, 1501) * 2e-3
    fine_grid = np.arange(-3000, 3001) * 1e-3
    coarse = arithmetic_shift_density(ens, fam, coarse_grid)
    fine = arithmetic_shift_density(ens, fam, fine_grid)
    # central differences converge at O(h^2); h = 2e-3 puts the pair within 1e-6
    assert np.abs(coarse[1:-1] - fine[2:-2:2]).max() < 1e-6
