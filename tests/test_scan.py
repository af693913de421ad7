"""Windowed F' evaluation and the noise-floored stationary scan.

The oracles here are the direct forms the library replaced: F' summed over
every jump, and a scalar bisection of one bracket at a time.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from diracgap.gapspec import GapSpectrum
from diracgap.shift import (
    BISECTION_TOLERANCE,
    NOISE_FLOOR,
    Staircase,
    TestFunction,
    build_staircase,
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


def direct_derivative(s, phi, t):
    """F'(t) summed over every jump, in ascending order (no window)."""
    t = np.asarray(t, dtype=float)
    a2 = phi.alpha * phi.alpha
    total = np.zeros_like(t)
    for lam, w in zip(s.locations, s.weights):
        total += w * (2.0 / a2) * ((lam - t) * phi(lam - t) + (-lam - t) * phi(-lam - t))
    return total


def scalar_bisection(s, phi, lo, hi):
    """One bracket refined with the direct derivative, one midpoint at a time."""
    f_lo = float(direct_derivative(s, phi, lo))
    while hi - lo > BISECTION_TOLERANCE:
        mid = 0.5 * (lo + hi)
        f_mid = float(direct_derivative(s, phi, mid))
        if f_mid == 0.0:
            return mid
        if (f_lo > 0) == (f_mid > 0):
            lo, f_lo = mid, f_mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


@settings(max_examples=60, deadline=None)
@given(
    locs=st.lists(st.floats(min_value=0.01, max_value=30.0), min_size=1, max_size=50,
                  unique=True),
    weights=st.lists(st.integers(min_value=1, max_value=3), min_size=50, max_size=50),
    alpha=st.floats(min_value=0.05, max_value=1.0),
    probes=st.lists(st.floats(min_value=-40.0, max_value=40.0), min_size=1, max_size=20),
)
def test_windowed_derivative_matches_direct_sum(locs, weights, alpha, probes):
    locs = sorted(locs)
    s = Staircase(locations=tuple(locs), weights=tuple(weights[: len(locs)]))
    phi = TestFunction(alpha=alpha)
    t = np.concatenate([np.linspace(-32.0, 32.0, 801), probes, locs])
    got = trace_response_derivative(s, phi, t)
    # max|phi'| = sqrt(2) exp(-1/2) / alpha, reached at x = alpha / sqrt(2).
    bound = 1e-12 * s.total_weight * math.sqrt(2.0) * math.exp(-0.5) / alpha
    assert np.abs(got - direct_derivative(s, phi, t)).max() <= bound
    assert np.array_equal(trace_response_derivative(s, phi, -t), -got)
    assert float(trace_response_derivative(s, phi, 0.0)) == 0.0
    # A value does not depend on the other points evaluated with it.
    alone = [float(trace_response_derivative(s, phi, x)) for x in t[801:]]
    assert np.array_equal(got[801:], alone)


def test_derivative_keeps_the_shape_of_t():
    s = Staircase(locations=(0.5, 1.5), weights=(1, 2))
    phi = TestFunction(alpha=0.3)
    t = np.linspace(-2.0, 2.0, 12).reshape(3, 4)
    got = trace_response_derivative(s, phi, t)
    assert got.shape == (3, 4)
    assert np.array_equal(got.ravel(), trace_response_derivative(s, phi, t.ravel()))
    assert trace_response_derivative(s, phi, 0.7).shape == ()


def test_refined_roots_match_scalar_bisection():
    spec = spectrum_of([(0.6, 1), (1.1, 2), (2.5, 1), (2.9, 3)])
    phi = TestFunction(alpha=0.25)
    s = build_staircase(spec)
    t = np.arange(-400, 401) * 0.01
    scan = stationary_scan(spec, phi, t)
    d = direct_derivative(s, phi, t)
    floor = NOISE_FLOOR * np.abs(d).max()
    expected = [0.0]  # the isolated zero F'(0) = 0
    for i in range(len(t) - 1):
        if abs(d[i]) > floor and abs(d[i + 1]) > floor and (d[i] > 0) != (d[i + 1] > 0):
            expected.append(scalar_bisection(s, phi, float(t[i]), float(t[i + 1])))
    expected.sort()
    assert len(scan.roots) == len(expected) > 1
    assert np.abs(np.array(scan.roots) - expected).max() <= BISECTION_TOLERANCE
    assert scan.kinds[len(expected) // 2] == "min"  # the two pairs dip at t = 0


def test_default_run_reports_only_roots_above_the_floor(default_run):
    s = default_run.staircase
    phi = TestFunction(alpha=default_run.config.alpha)
    roots = np.array(default_run.scan.roots)
    assert 0 < len(roots) < 50
    grid = np.linspace(-s.locations[-1] - 1.0, s.locations[-1] + 1.0, 20001)
    peak = max(trace_response(s, phi, grid).max(),
               trace_response(s, phi, np.array(s.locations)).max())
    assert trace_response(s, phi, roots).min() > 1e-12 * peak
    assert any("noise floor" in w for w in default_run.scan.warnings)


def test_noise_level_minimum_between_separated_jumps_is_not_reported():
    # Between jumps 12 alpha apart F dips to ~1e-16 of its peak; F' there is
    # nonzero (both jumps lie inside the 8 alpha window) but below the floor.
    spec = spectrum_of([(1.0, 1), (7.0, 1)])
    phi = TestFunction(alpha=0.5)
    t = np.arange(-900, 901) * 0.01
    scan = stationary_scan(spec, phi, t)
    assert not [r for r in scan.roots if 2.0 < abs(r) < 6.0]
    assert sorted(np.round(np.abs(scan.roots), 2)) == [0.0, 1.0, 1.0, 7.0, 7.0]
    assert any("flat runs" in w for w in scan.warnings)


def test_far_outlier_leaves_the_empty_stretch_without_roots():
    spec = spectrum_of([(0.3, 1), (0.31, 1), (600.0, 1)])
    phi = TestFunction(alpha=0.5)
    t = np.arange(-9700, 9701) * 0.0625
    scan = stationary_scan(spec, phi, t)
    assert scan.roots
    assert all(abs(r) < 1.0 or abs(abs(r) - 600.0) < 1.0 for r in scan.roots)
    maxima = [r for r, k in zip(scan.roots, scan.kinds) if k == "max"]
    assert any(abs(r - 600.0) < 0.02 for r in maxima)
    assert any(abs(r + 600.0) < 0.02 for r in maxima)
    assert any("flat runs" in w for w in scan.warnings)
