import math
from bisect import bisect_right

import mpmath
import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from diracgap.expcli import ExperimentConfig
from diracgap.zeta import (
    AffineMap,
    ZeroTable,
    diagnostics,
    fit_affine,
    _parse_zero_rows,
    load_zero_table,
    mapped_staircase,
    staircase_mismatch,
    zero_staircase,
)
from oracles import two_half_mismatch

GAMMA1 = 14.134725142
GAMMA2 = 21.022039639
GAMMA3 = 25.010857580


def mismatch(mapped, mults, zeros, T):
    """E_step of the mapped model staircase against the zero staircase."""
    return staircase_mismatch(mapped_staircase(mapped, mults), zero_staircase(zeros), T)


def test_embedded_table():
    table = load_zero_table("embedded")
    assert len(table) == 100
    assert table.ordinates[0] == GAMMA1
    assert table.ordinates[1] == GAMMA2
    assert table.ordinates[2] == GAMMA3
    assert all(b > a for a, b in zip(table.ordinates, table.ordinates[1:]))


def test_table_gate_and_order_validation():
    with pytest.raises(ValueError, match="gamma_1 gate"):
        _parse_zero_rows(["gamma", "21.0", "14.1"])
    with pytest.raises(ValueError, match="ascending"):
        _parse_zero_rows(["gamma", "14.135", "25.0", "21.0"])
    with pytest.raises(ValueError, match="header"):
        _parse_zero_rows(["ordinate", "14.135"])
    with pytest.raises(ValueError, match="empty"):
        _parse_zero_rows(["gamma", ""])
    # NaN and inf pass every ordering comparison; the gate names them
    for bad in ("nan", "inf"):
        with pytest.raises(ValueError, match="non-finite"):
            _parse_zero_rows(["gamma", "14.134725142", bad, "25.0"])
    with pytest.raises(ValueError, match="non-finite"):
        _parse_zero_rows(["gamma", "14.134725142", "nan", "25.0", "inf"])


def test_insufficient_zeros():
    with pytest.raises(ValueError, match="insufficient zeros"):
        load_zero_table("embedded", min_count=1000)
    with pytest.raises(ValueError, match="only 'embedded'"):
        load_zero_table("zeros.csv")
    assert load_zero_table() is load_zero_table("embedded", min_count=100)  # parsed once


def test_fit_identity():
    zeros = load_zero_table("embedded")
    lam = np.array(zeros.ordinates[:20])
    fit = fit_affine(lam, zeros, 20)
    assert fit.a == pytest.approx(1.0, abs=1e-12)
    assert fit.b == pytest.approx(0.0, abs=1e-9)


def test_fit_exact_affine_preimage():
    zeros = load_zero_table("embedded")
    lam = (np.array(zeros.ordinates[:20]) - 3.0) / 2.0
    fit = fit_affine(lam, zeros, 20)
    assert abs(fit.a - 2.0) < 1e-12
    assert abs(fit.b - 3.0) < 1e-12


def test_fit_validation():
    zeros = load_zero_table("embedded")
    with pytest.raises(ValueError, match="K >= 2"):
        fit_affine([1.0, 2.0], zeros, 1)
    with pytest.raises(ValueError, match="degenerate"):
        fit_affine([1.0, 1.0, 1.0], zeros, 3)
    with pytest.raises(ValueError, match="degenerate"):
        fit_affine([0.1, 0.1, 0.1], zeros, 3)  # their mean rounds to 0.10000000000000002
    with pytest.raises(ValueError, match="insufficient gap eigenvalues"):
        fit_affine([1.0], zeros, 2)
    with pytest.raises(ValueError, match="insufficient zeros"):
        fit_affine(np.arange(1000.0) + 1.0, zeros, 500)


def test_fit_of_closely_spaced_lambdas_is_centred():
    # Spread 2.7e-6 on values near 2.7e3: the one-pass mean(x^2) - mean(x)^2
    # loses every digit to cancellation (it gave a = 1354, not 4e6); the
    # centred fit recovers the exact map.
    zeros = load_zero_table("embedded")
    gamma = np.array(zeros.ordinates[:3])
    lam = 2700.0 + (gamma - gamma[0]) * 2.5e-7
    fit = fit_affine(lam, zeros, 3)
    assert fit.a == pytest.approx(4e6, rel=1e-6)
    assert np.abs(fit.a * lam + fit.b - gamma).max() < 1e-6 * gamma.max()


def test_fit_rejects_non_ascending_lambdas():
    # Out-of-order input is the only way to a slope <= 0; it is refused.
    zeros = load_zero_table("embedded")
    with pytest.raises(ValueError, match="not ascending"):
        fit_affine([2.0, 30.0, 0.5, 2.1], zeros, 4)
    with pytest.raises(ValueError, match="not ascending"):
        fit_affine([1.0, np.nextafter(1.0, 0.0)], zeros, 2)


STEP = st.one_of(st.integers(0, 3), st.floats(1e-9, 1e3))


@settings(max_examples=200, deadline=None)
@given(start=st.floats(1e-3, 1e6),
       steps=st.integers(2, 100).flatmap(lambda K: st.lists(STEP, min_size=K - 1, max_size=K - 1)))
@example(start=1.0, steps=[1] * 99)
@example(start=1e6, steps=[0] * 98 + [1])
@example(start=1e6, steps=[1] + [0] * 98)
@example(start=2700.0, steps=[1, 2])
def test_fit_slope_is_positive_on_ascending_lambdas(start, steps):
    # Ascending lambda against the strictly ascending ordinates: by Chebyshev's sum
    # inequality the least-squares slope is positive, also for runs an ulp apart.
    # An integer step is that many ulps, a float step is added.
    K = len(steps) + 1
    lam = [start]
    for step in steps:
        x = lam[-1]
        if isinstance(step, int):
            for _ in range(step):
                x = np.nextafter(x, np.inf)
        else:
            x += step
        lam.append(float(x))
    assume(lam[0] < lam[-1])
    assert fit_affine(lam, load_zero_table(), K).a > 0.0


def test_affine_map_validation():
    with pytest.raises(ValueError):
        AffineMap(a=0.0, b=1.0)
    with pytest.raises(ValueError):
        AffineMap(a=-2.0, b=0.0)


def test_fit_optimality_against_perturbations(default_run):
    zeros = load_zero_table()
    lam = np.array(default_run.spectrum.positive_values)
    K = default_run.config.K
    fit = default_run.diagnostics.affine

    def residual(a, b):
        d = a * lam[:K] + b - np.array(zeros.ordinates[:K])
        return float(np.dot(d, d))

    base = residual(fit.a, fit.b)
    rng = np.random.default_rng(42)
    for _ in range(100):
        da, db = rng.normal(scale=[abs(fit.a) * 1e-3 + 1e-6, abs(fit.b) * 1e-3 + 1e-6])
        assert base <= residual(fit.a + da, fit.b + db) + 1e-12 * base


def test_fit_affine_equivariance():
    zeros = load_zero_table("embedded")
    rng = np.random.default_rng(3)
    lam = np.sort(rng.uniform(0.1, 5.0, size=30))
    base = fit_affine(lam, zeros, 25)
    a1, b1 = 1.7, -0.4
    refit = fit_affine(a1 * lam + b1, zeros, 25)
    assert refit.a == pytest.approx(base.a / a1, abs=1e-10 * base.a)
    assert refit.b == pytest.approx(base.b - base.a * b1 / a1, abs=1e-10 * abs(base.b))


def test_diagnostics_identical_staircases():
    zeros = load_zero_table("embedded")
    lam = np.array(zeros.ordinates)
    report = diagnostics(lam, [1] * len(lam), zeros, K=20, T=80.0)
    assert (report.affine.a, report.affine.b) == (1.0, 0.0)
    assert report.mae == 0.0
    assert report.max_abs == 0.0
    assert report.e_step == 0.0


def test_e_step_hand_example():
    # single model jump at 1, zero staircase truncated to gamma_1, T = 20:
    # |diff| is 1 exactly on (1, gamma_1), zero elsewhere
    zeros = ZeroTable(ordinates=(GAMMA1,))
    e_step = mismatch([1.0], [1], zeros, 20.0)
    expected_half = GAMMA1 - 1.0
    assert e_step == pytest.approx(2.0 * expected_half / 40.0, abs=1e-13)


def test_e_step_half_interval_symmetry_is_exact(default_run):
    mapped = default_run.diagnostics.affine(np.array(default_run.spectrum.positive_values))
    e_step, pos, neg = two_half_mismatch(
        mapped, default_run.spectrum.multiplicities, load_zero_table(), 80.0
    )
    assert pos == neg  # bitwise, by the mirrored sweep
    assert e_step == default_run.diagnostics.e_step
    assert e_step == mismatch(
        mapped, default_run.spectrum.multiplicities, load_zero_table(), 80.0)


def scalar_sweep(mapped, mults, zeros, T, side):
    """One half of E_step as first written: a bisection per interval, summed in a loop."""
    pairs = sorted((abs(float(v)), int(m)) for v, m in zip(mapped, mults) if v != 0.0)
    model = [v for v, _ in pairs]
    model_cum = np.cumsum([m for _, m in pairs]).tolist()
    zero = list(zeros.ordinates)

    def xi(jumps, cum, x):
        k = bisect_right(jumps, abs(x))
        value = cum[k - 1] if k else 0
        return -value if x < 0.0 else value

    points = sorted({0.0, T} | {x for x in model if x < T} | {x for x in zero if x < T})
    total = 0.0
    for a, b in zip(points, points[1:]):
        mid = side * (0.5 * (a + b))
        total += (b - a) * abs(xi(model, model_cum, mid) - xi(zero, list(range(1, len(zero) + 1)), mid))
    return total


@settings(max_examples=60, deadline=None)
@given(
    mapped=st.lists(st.floats(-60.0, 60.0) | st.sampled_from([0.0, 14.134725142, -21.022039639]),
                    max_size=40),
    mults=st.lists(st.integers(1, 4), min_size=40, max_size=40),
    T=st.floats(0.5, 80.0) | st.sampled_from([14.134725142, 33.3]),
)
def test_e_step_matches_the_scalar_sweep_bitwise(mapped, mults, T):
    zeros = load_zero_table("embedded")
    mults = mults[: len(mapped)]
    e_step = mismatch(mapped, mults, zeros, T)
    pos = scalar_sweep(mapped, mults, zeros, T, +1.0)
    assert e_step == pos / T
    assert e_step == (pos + scalar_sweep(mapped, mults, zeros, T, -1.0)) / (2.0 * T)


def test_mapped_staircase_folds_and_drops_zero():
    s = mapped_staircase(np.array([-2.0, 0.0, 1.0, 2.0]), (3, 5, 1, 2))
    assert s.locations.tolist() == [1.0, 2.0, 2.0] and s.weights.tolist() == [1, 2, 3]
    assert s(2.0) == 6 and s(-1.5) == -1 and s(0.0) == 0


def test_e_step_matches_riemann_oracle(default_run):
    mapped = list(default_run.diagnostics.affine(np.array(default_run.spectrum.positive_values)))
    mults = list(default_run.spectrum.multiplicities)
    zeros = load_zero_table()
    T = 80.0
    e_step = mismatch(mapped, mults, zeros, T)

    # midpoint Riemann oracle; its error is rigorously bounded by
    # sum(|jump|) * h / (2T) since the integrand is a step function
    n = 1_000_000
    h = 2.0 * T / n
    x = -T + (np.arange(n) + 0.5) * h
    model = np.sort([abs(v) for v in mapped])
    model_w = np.array([w for _, w in sorted(zip(map(abs, mapped), mults))])
    model_cum = np.concatenate([[0], np.cumsum(model_w)])
    zcum = np.arange(len(zeros.ordinates) + 1)

    def odd_eval(jumps, cum, pts):
        mag = cum[np.searchsorted(jumps, np.abs(pts), side="right")]
        return np.sign(pts) * mag

    integrand = np.abs(
        odd_eval(model, model_cum, x) - odd_eval(np.array(zeros.ordinates), zcum, x)
    )
    riemann = integrand.sum() * h / (2.0 * T)
    jumps_in_window = sum(w for v, w in zip(map(abs, mapped), mults) if v < T) + sum(
        1 for g in zeros.ordinates if g < T
    )
    bound = 2.0 * jumps_in_window * h / (2.0 * T)
    assert abs(e_step - riemann) <= bound


def test_diagnostics_validation(default_run):
    zeros = load_zero_table()
    lam = np.array(zeros.ordinates[:30])
    with pytest.raises(ValueError, match="T must be positive"):
        diagnostics(lam, [1] * 30, zeros, K=5, T=0.0)
    # fewer than K values: the identity map stands in, flagged, with E_step only
    short = diagnostics(lam[:3], [1] * 3, zeros, K=5, T=10.0)
    assert (short.K, short.mae, short.max_abs) == (0, 0.0, 0.0)
    assert short.flags == ("insufficient-spectrum",)
    assert short.affine == AffineMap(a=1.0, b=0.0)
    assert short.e_step == mismatch(lam[:3], [1] * 3, zeros, 10.0)


def test_e_step_of_an_empty_spectrum_is_the_zero_staircase_alone():
    # a zero-mass run has no jumps: the model staircase is empty and E_step is the
    # mean of |xi_zero| over [-T, T], here 1, 2 and 3 on the three intervals past gamma_1
    zeros = ZeroTable(ordinates=(GAMMA1, GAMMA2, GAMMA3))
    report = diagnostics(np.array([]), np.array([], dtype=np.int64), zeros, K=5, T=30.0)
    assert report.flags == ("insufficient-spectrum",)
    expected = ((GAMMA2 - GAMMA1) + 2 * (GAMMA3 - GAMMA2) + 3 * (30.0 - GAMMA3)) / 30.0
    assert report.e_step == pytest.approx(expected, rel=1e-15)
    assert report.e_step == mismatch([], [], zeros, 30.0)


def test_staircase_mismatch_is_symmetric_in_its_arguments(default_run):
    # the breakpoints are the union of both jump sets and |x - y| = |y - x| exactly,
    # so swapping the model and zero staircases changes no bit
    model = mapped_staircase(default_run.diagnostics.affine(default_run.spectrum.positive_values),
                             default_run.spectrum.multiplicities)
    zero = zero_staircase(load_zero_table())
    for T in (10.0, 40.0, default_run.diagnostics.T, 1e3):
        assert staircase_mismatch(model, zero, T) == staircase_mismatch(zero, model, T)
    assert staircase_mismatch(model, zero, default_run.diagnostics.T) == default_run.diagnostics.e_step


def test_staircase_mismatch_rejects_an_infinite_window():
    # the mean over [-T, T] of an infinite window is NaN; ExperimentConfig rejects it too
    zero = zero_staircase(load_zero_table("embedded"))
    with pytest.raises(ValueError, match="T must be positive and finite"):
        staircase_mismatch(zero, zero, T=float("inf"))


def test_mae_recomputable(default_run):
    d = default_run.diagnostics
    assert d.K == ExperimentConfig().K
    lam = default_run.spectrum.positive_values[: d.K]
    deviations = [float(d.affine(x) - g) for x, g in zip(lam, load_zero_table().ordinates)]
    assert d.mae == sum(abs(x) for x in deviations) / d.K
    assert d.max_abs == max(abs(x) for x in deviations)
    assert all(math.isfinite(x) for x in deviations)


def test_embedded_table_matches_mpmath_zetazero():
    # The table rounds each ordinate to 9 decimals, so the deviation from the
    # high-precision value is at most half a unit there; 1e-12 covers the
    # double-precision representation of ordinates up to ~240.  Hardy's Z changes
    # sign across each gamma_n +- tol, so a zero lies in each interval; the
    # intervals are disjoint and ascending, and nzeros counts exactly as many
    # zeros up to past the last one, so the n-th interval holds the n-th zero.
    table = load_zero_table("embedded").ordinates
    tol = 0.5e-9 + 1e-12
    with mpmath.workdps(25):
        for gamma in table:
            lo, hi = mpmath.mpf(gamma) - tol, mpmath.mpf(gamma) + tol
            assert mpmath.sign(mpmath.siegelz(lo)) * mpmath.sign(mpmath.siegelz(hi)) < 0, gamma
        assert all(a + tol < b - tol for a, b in zip(table, table[1:]))
        assert mpmath.nzeros(mpmath.mpf(table[-1]) + mpmath.mpf("0.01")) == len(table) == 100
