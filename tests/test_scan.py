"""Windowed F' evaluation and the noise-floored stationary scan.

The oracles here are the direct forms the library replaced: F' and F''
summed over every jump, and a scalar bisection of one bracket at a time,
against which the library's Newton refinement of all brackets together is
checked.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import staircase_of
from diracgap import expcli, shift
from diracgap.shift import (
    BISECTION_TOLERANCE,
    NOISE_FLOOR,
    REFINE_PASSES,
    Staircase,
    TestFunction,
    stationary_scan,
    trace_response_derivative,
)
from oracles import trace_response


def direct_derivative(s, phi, t):
    """F'(t) summed over every jump, in ascending order (no window)."""
    t = np.asarray(t, dtype=float)
    a2 = phi.alpha * phi.alpha
    total = np.zeros_like(t)
    for lam, w in zip(s.locations, s.weights):
        total += w * (2.0 / a2) * ((lam - t) * phi(lam - t) + (-lam - t) * phi(-lam - t))
    return total


def direct_curvature(s, phi, t):
    """F''(t) summed over every jump, in ascending order (no window)."""
    t = np.asarray(t, dtype=float)
    a2 = phi.alpha * phi.alpha
    total = np.zeros_like(t)
    for lam, w in zip(s.locations, s.weights):
        total += w * (2.0 / a2) * (phi(lam - t) * (2.0 * (lam - t) ** 2 / a2 - 1.0)
                                   + phi(-lam - t) * (2.0 * (lam + t) ** 2 / a2 - 1.0))
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
    bound = 1e-12 * sum(s.weights) * math.sqrt(2.0) * math.exp(-0.5) / alpha
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


@settings(max_examples=30, deadline=None)
@given(locs=st.lists(st.floats(min_value=0.01, max_value=10.0), min_size=1, max_size=20,
                     unique=True),
       probes=st.lists(st.floats(min_value=-12.0, max_value=12.0), min_size=1, max_size=30))
def test_each_value_is_the_one_its_point_gets_alone(locs, probes):
    # F' is evaluated once per distinct |t| and then signed, so a point's bits
    # must not depend on which other points, or their mirrors, come with it.
    s = Staircase(locations=tuple(sorted(locs)), weights=(2,) * len(locs))
    phi = TestFunction(alpha=0.3)
    t = np.array(probes + [-x for x in probes] + probes[:3] + [0.0, -0.0])
    got = trace_response_derivative(s, phi, t)
    alone = np.array([trace_response_derivative(s, phi, t[i : i + 1])[0] for i in range(len(t))])
    assert got.tobytes() == alone.tobytes()
    assert np.array_equal(trace_response_derivative(s, phi, -t), -got)


def test_refined_roots_match_scalar_bisection():
    s = staircase_of([(0.6, 1), (1.1, 2), (2.5, 1), (2.9, 3)])
    phi = TestFunction(alpha=0.25)
    t = np.arange(-400, 401) * 0.01
    scan = stationary_scan(s, phi, t)
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
    s = staircase_of([(1.0, 1), (7.0, 1)])
    phi = TestFunction(alpha=0.5)
    t = np.arange(-900, 901) * 0.01
    scan = stationary_scan(s, phi, t)
    assert not [r for r in scan.roots if 2.0 < abs(r) < 6.0]
    assert sorted(np.round(np.abs(scan.roots), 2)) == [0.0, 1.0, 1.0, 7.0, 7.0]
    assert any("flat runs" in w for w in scan.warnings)


def test_far_outlier_leaves_the_empty_stretch_without_roots():
    s = staircase_of([(0.3, 1), (0.31, 1), (600.0, 1)])
    phi = TestFunction(alpha=0.5)
    t = np.arange(-9700, 9701) * 0.0625
    scan = stationary_scan(s, phi, t)
    assert scan.roots
    assert all(abs(r) < 1.0 or abs(abs(r) - 600.0) < 1.0 for r in scan.roots)
    maxima = [r for r, k in zip(scan.roots, scan.kinds) if k == "max"]
    assert any(abs(r - 600.0) < 0.02 for r in maxima)
    assert any(abs(r + 600.0) < 0.02 for r in maxima)
    assert any("flat runs" in w for w in scan.warnings)


@settings(max_examples=60, deadline=None)
@given(
    locs=st.lists(st.floats(min_value=0.01, max_value=30.0), min_size=1, max_size=50,
                  unique=True),
    weights=st.lists(st.integers(min_value=1, max_value=3), min_size=50, max_size=50),
    alpha=st.floats(min_value=0.05, max_value=1.0),
    probes=st.lists(st.floats(min_value=-40.0, max_value=40.0), min_size=1, max_size=20),
)
def test_curvature_matches_the_direct_sum_and_a_central_difference(locs, weights, alpha, probes):
    s = Staircase(locations=tuple(sorted(locs)), weights=tuple(weights[: len(locs)]))
    phi = TestFunction(alpha=alpha)
    t = np.concatenate([np.linspace(-32.0, 32.0, 401), probes, locs])
    first, second = trace_response_derivative(s, phi, t, curvature=True)
    assert first.tobytes() == trace_response_derivative(s, phi, t).tobytes()
    # |phi(x) (2 x^2 / alpha^2 - 1)| <= 1, so each jump adds at most 2 (2 / alpha^2).
    scale = sum(s.weights) * 4.0 / (alpha * alpha)
    assert np.abs(second - direct_curvature(s, phi, t)).max() <= 1e-12 * scale
    delta = 1e-5 * alpha
    central = (trace_response_derivative(s, phi, t + delta)
               - trace_response_derivative(s, phi, t - delta)) / (2.0 * delta)
    assert np.abs(second - central).max() <= 1e-6 * scale
    # F'' is even: the window is deduplicated by |t| and F'' is not signed.
    assert trace_response_derivative(s, phi, -t, curvature=True)[1].tobytes() == second.tobytes()


@settings(max_examples=40, deadline=None)
@given(
    gaps=st.lists(st.floats(min_value=4.0, max_value=20.0), min_size=1, max_size=10),
    weights=st.lists(st.integers(min_value=1, max_value=3), min_size=10, max_size=10),
    alpha=st.floats(min_value=0.05, max_value=1.0),
    per_alpha=st.integers(min_value=8, max_value=40),
)
def test_refined_roots_match_scalar_bisection_on_random_staircases(gaps, weights, alpha,
                                                                   per_alpha):
    # Jumps at least 4 alpha apart, and 2 alpha from 0, keep one root per grid bracket.
    locs = 2.0 * alpha + alpha * np.cumsum([0.0] + gaps[:-1])
    s = Staircase(locations=locs, weights=weights[: len(locs)])
    phi = TestFunction(alpha=alpha)
    step = alpha / per_alpha
    half = int(math.ceil((locs[-1] + 5.0 * alpha) / step))
    t = np.arange(-half, half + 1) * step
    scan = stationary_scan(s, phi, t)
    d = trace_response_derivative(s, phi, t)
    sign = np.where(np.abs(d) > NOISE_FLOOR * np.abs(d).max(), np.sign(d), 0.0)
    # Below-floor grid points between opposite signs are roots as they stand (t = 0 is one).
    expected = [(float(t[i]), "max" if sign[i - 1] > 0 else "min") for i in range(1, len(t) - 1)
                if sign[i] == 0 and sign[i - 1] * sign[i + 1] < 0]
    expected += [(scalar_bisection(s, phi, float(t[i]), float(t[i + 1])),
                  "max" if sign[i] > 0 else "min")
                 for i in range(len(t) - 1) if sign[i] * sign[i + 1] < 0]
    expected.sort()
    roots = np.array(scan.roots)
    assert len(roots) == len(expected) > 1
    assert np.abs(roots - [r for r, _ in expected]).max() <= BISECTION_TOLERANCE
    assert list(scan.kinds) == [k for _, k in expected]
    assert np.array_equal(roots, -roots[::-1])  # bitwise, but for the sign of t = 0


def test_a_newton_step_that_leaves_the_bracket_falls_back_and_converges(monkeypatch):
    # One jump at 1 with alpha = 0.5: F'' vanishes at |t - 1| = alpha / sqrt(2) = 0.354,
    # and the bracket's midpoint 1.34 lies near there, so its Newton step leaves it.
    s = staircase_of([(1.0, 1)])
    phi = TestFunction(alpha=0.5)
    lo, hi = 0.7, 1.98
    f, df = trace_response_derivative(s, phi, 0.5 * (lo + hi), curvature=True)
    assert not lo <= 0.5 * (lo + hi) - f / df <= hi
    calls = []
    counted = trace_response_derivative
    monkeypatch.setattr(shift, "trace_response_derivative",
                        lambda *a, **k: calls.append(1) or counted(*a, **k))
    scan = stationary_scan(s, phi, np.array([lo, hi]))
    assert len(scan.roots) == 1 and scan.kinds == ("max",)
    assert abs(scan.roots[0] - scalar_bisection(s, phi, lo, hi)) <= BISECTION_TOLERANCE
    assert len(calls) <= 1 + REFINE_PASSES


def test_default_run_refines_its_brackets_in_a_few_window_sums(monkeypatch):
    # A work count, not a timing: the grid takes one call and Newton a few more,
    # where bisection to 1e-10 from the alpha / 8 grid took 30.
    calls = []
    counted = shift.trace_response_derivative
    monkeypatch.setattr(shift, "trace_response_derivative",
                        lambda *a, **k: calls.append(1) or counted(*a, **k))
    expcli.compute_run(expcli.parse_config("{}"))
    assert 2 <= len(calls) <= 1 + 6
