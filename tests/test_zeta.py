import math

import numpy as np
import pytest

from diracgap.zeta import (
    AffineMap,
    ZeroTable,
    diagnostics,
    fit_affine,
    load_zero_table,
    staircase_mismatch,
)

GAMMA1 = 14.134725142
GAMMA2 = 21.022039639
GAMMA3 = 25.010857580


def test_embedded_table():
    table = load_zero_table("embedded")
    assert len(table) == 100
    assert table.ordinates[0] == GAMMA1
    assert table.ordinates[1] == GAMMA2
    assert table.ordinates[2] == GAMMA3
    assert all(b > a for a, b in zip(table.ordinates, table.ordinates[1:]))


def test_table_gate_and_order_validation(tmp_path):
    bad = tmp_path / "zeros.csv"
    bad.write_text("gamma\n21.0\n14.1\n")
    with pytest.raises(ValueError, match="gamma_1 gate"):
        load_zero_table(str(bad))
    bad.write_text("gamma\n14.135\n25.0\n21.0\n")
    with pytest.raises(ValueError, match="ascending"):
        load_zero_table(str(bad))
    bad.write_text("ordinate\n14.135\n")
    with pytest.raises(ValueError, match="header"):
        load_zero_table(str(bad))


def test_insufficient_zeros():
    with pytest.raises(ValueError, match="insufficient zeros"):
        load_zero_table("embedded", min_count=1000)


def test_fit_identity():
    zeros = load_zero_table("embedded")
    lam = np.array(zeros.ordinates[:20])
    fit = fit_affine(lam, zeros, 20)
    assert fit.a == pytest.approx(1.0, abs=1e-12)
    assert fit.b == pytest.approx(0.0, abs=1e-9)
    assert not fit.flagged


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
    with pytest.raises(ValueError, match="insufficient gap eigenvalues"):
        fit_affine([1.0], zeros, 2)
    with pytest.raises(ValueError, match="insufficient zeros"):
        fit_affine(np.arange(1000.0) + 1.0, zeros, 500)


def test_fit_fallback_when_slope_nonpositive():
    # For ascending lambda the covariance with ascending gamma is always
    # >= 0 (Chebyshev sum inequality), so the defensive fallback is only
    # reachable with out-of-order input; the span ratio must stay positive.
    zeros = load_zero_table("embedded")
    lam = np.array([2.0, 30.0, 0.5, 2.1])
    fit = fit_affine(lam, zeros, 4)
    assert fit.flagged
    assert fit.a > 0.0
    expected_a = (zeros.ordinates[3] - zeros.ordinates[0]) / (lam[3] - lam[0])
    assert fit.a == pytest.approx(expected_a, rel=1e-12)


def test_affine_map_validation():
    with pytest.raises(ValueError):
        AffineMap(a=0.0, b=1.0)
    with pytest.raises(ValueError):
        AffineMap(a=-2.0, b=0.0)


def test_fit_optimality_against_perturbations(default_run):
    zeros = default_run.zeros
    lam = np.array(default_run.spectrum.positive_values)
    K = default_run.config.K
    fit = default_run.affine

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
    report = diagnostics(AffineMap(a=1.0, b=0.0), lam, zeros, K=20, T=80.0)
    assert report.mae == 0.0
    assert report.max_abs == 0.0
    assert report.e_step == 0.0


def test_e_step_hand_example():
    # single model jump at 1, zero staircase truncated to gamma_1, T = 20:
    # |diff| is 1 exactly on (1, gamma_1), zero elsewhere
    zeros = ZeroTable(ordinates=(GAMMA1,))
    e_step, pos, neg = staircase_mismatch([1.0], [1], zeros, 20.0)
    expected_half = GAMMA1 - 1.0
    assert pos == pytest.approx(expected_half, abs=1e-12)
    assert pos == neg
    assert e_step == pytest.approx(2.0 * expected_half / 40.0, abs=1e-13)


def test_e_step_half_interval_symmetry_is_exact(default_run):
    mapped = default_run.affine(np.array(default_run.spectrum.positive_values))
    e_step, pos, neg = staircase_mismatch(
        mapped, default_run.spectrum.multiplicities, default_run.zeros, 80.0
    )
    assert pos == neg  # bitwise, by the mirrored sweep
    assert e_step == default_run.diagnostics.e_step


def test_e_step_matches_riemann_oracle(default_run):
    mapped = list(default_run.affine(np.array(default_run.spectrum.positive_values)))
    mults = list(default_run.spectrum.multiplicities)
    zeros = default_run.zeros
    T = 80.0
    e_step, _, _ = staircase_mismatch(mapped, mults, zeros, T)

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
    zeros = default_run.zeros
    lam = np.array(zeros.ordinates[:30])
    with pytest.raises(ValueError, match="T must be positive"):
        diagnostics(AffineMap(1.0, 0.0), lam, zeros, K=5, T=0.0)
    with pytest.raises(ValueError, match="insufficient"):
        diagnostics(AffineMap(1.0, 0.0), lam[:3], zeros, K=5, T=10.0)


def test_mae_recomputable(default_run):
    d = default_run.diagnostics
    assert d.mae == sum(abs(x) for x in d.deviations) / d.K
    assert d.max_abs == max(abs(x) for x in d.deviations)
    assert len(d.deviations) == d.K
    assert all(math.isfinite(x) for x in d.deviations)


@pytest.mark.slow
def test_embedded_table_matches_mpmath_zetazero():
    # The table rounds each ordinate to 9 decimals, so the deviation from the
    # high-precision value is at most half a unit there; 1e-12 covers the
    # double-precision representation of ordinates up to ~240.
    mpmath = pytest.importorskip("mpmath")
    table = load_zero_table("embedded")
    worst = max(abs(float(mpmath.zetazero(n).imag) - gamma)
                for n, gamma in enumerate(table.ordinates, start=1))
    assert worst <= 0.5e-9 + 1e-12
