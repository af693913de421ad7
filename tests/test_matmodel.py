import numpy as np
import pytest

from diracgap.arithmetic import (
    CoefficientFamily,
    HeckeEnsemble,
    generate_primes,
    sample_hecke_ensemble,
)
from diracgap.matmodel import (
    MatrixModel,
    assemble,
    counting_difference,
    krein_from_counting,
    norm_bound_checks,
    verify_chiral,
)
from oracles import materialize_dense, model_from_values
from diracgap.shift import TestFunction

FAM = CoefficientFamily(0.35)


def test_single_fiber_closed_form():
    model = model_from_values([1.0], [0.5])
    assert np.allclose(model.glob_spectrum(), [-1.0, 1.0])
    assert np.allclose(model.arith_spectrum(), [-1.5, 1.5])
    assert model.dimension == 2


def test_two_fiber_enumeration():
    model = model_from_values([1.0, 2.0], [0.0, 0.5])
    assert np.allclose(model.arith_spectrum(),
                       [-2.5, -2.0, -1.5, -1.0, 1.0, 1.5, 2.0, 2.5])
    assert model.dimension == 8


def test_model_validation():
    with pytest.raises(ValueError, match="empty"):
        model_from_values([], [1.0])


def test_assemble_caps(mathieu_bands, default_run):
    with pytest.raises(ValueError, match="cap"):
        assemble(mathieu_bands, default_run.e_star, default_run.shifts, 1000, 1000)
    model = assemble(mathieu_bands, default_run.e_star, default_run.shifts, 24, 8)
    assert len(model.q) <= 24
    assert len(model.mass) <= 8
    assert model.dimension <= 4096
    # zone-edge nodes are kept: the near-gap fibers |q| ~ 1 are in the model
    assert np.abs(model.q).min() < 1.1
    # kappa subsample is mirror-closed: reflection is an involution
    refl = list(model.reflection)
    assert all(refl[refl[i]] == i for i in range(len(refl)))
    assert all(model.q[refl[i]] == model.q[i] for i in range(len(refl)))


def test_closed_form_spectra_match_dense_oracle(mathieu_bands, default_run):
    model = assemble(mathieu_bands, default_run.e_star, default_run.shifts, 24, 8)
    for deformed in (False, True):
        dense = materialize_dense(model, deformed=deformed)
        assert dense.shape[0] <= 512
        oracle = np.linalg.eigvalsh(dense)
        closed = model.arith_spectrum() if deformed else model.glob_spectrum()
        assert np.abs(oracle - closed).max() < 1e-10


def test_chiral_report(default_run, mathieu_bands):
    model = assemble(mathieu_bands, default_run.e_star, default_run.shifts, 32, 8)
    report = verify_chiral(model)
    assert report.anticommutator_norm == 0.0
    assert report.pairing_defect < 1e-10
    # the commuting reflection form: zero defect from +D, 2 max|q+m| from -D
    assert report.reflection_commute_defect == 0.0
    b = model.arith_positive()
    assert report.reflection_anticommute_defect == 2.0 * np.abs(b).max()


def test_reflection_involution_on_dense_4x4():
    # two mirror-paired fibers with equal energies, one mode
    model = MatrixModel(
        q=np.array([1.0, 1.0]),
        mass=np.array([0.5]),
        fibers=((0, 0), (0, 2)),
        mode_indices=(0,),
        reflection=(1, 0),
    )
    d = materialize_dense(model, deformed=True)
    r = np.array([[0.0, 1.0], [1.0, 0.0]])
    j = np.block([[np.zeros((2, 2)), r], [r, np.zeros((2, 2))]])
    gamma = np.diag([1.0, 1.0, -1.0, -1.0])
    assert np.abs(j @ d - d @ j).max() == 0.0  # commutes, does not flip sign
    assert np.abs(j @ d @ j + d).max() == 2.0 * 1.5
    assert np.abs(gamma @ d + d @ gamma).max() == 0.0  # the honest involution
    report = verify_chiral(model)
    assert report.reflection_commute_defect == 0.0
    assert report.reflection_anticommute_defect == 3.0


def test_counting_difference_zero_mass():
    model = model_from_values([1.0, 2.0], [0.0])
    grid = np.linspace(-3.0, 3.0, 61)
    assert np.all(counting_difference(model, grid) == 0)
    report = krein_from_counting(model, grid, TestFunction(alpha=0.5))
    assert report.trace_diff == 0.0
    assert report.jump_pairing == 0.0


def test_krein_hand_example():
    model = model_from_values([1.0], [0.5])
    phi = TestFunction(alpha=0.3)
    report = krein_from_counting(model, np.linspace(-2, 2, 41), phi)
    expected = (phi(1.5) - phi(1.0)) + (phi(-1.5) - phi(-1.0))
    assert report.trace_diff == pytest.approx(float(expected), abs=1e-15)
    assert report.gap < 1e-15
    # the counting function is the hand staircase
    xi = counting_difference(model, np.array([-1.6, -1.2, 0.0, 1.2, 1.6]))
    assert list(xi) == [0, 1, 0, -1, 0]


def test_krein_identity_on_golden_subsample(mathieu_bands, default_run):
    model = assemble(mathieu_bands, default_run.e_star, default_run.shifts, 24, 8)
    hi = float(np.abs(model.arith_spectrum()).max()) * 1.1
    grid = np.linspace(-hi, hi, 101)
    for alpha in (0.05, 0.5, 5.0):
        phi = TestFunction(alpha=alpha)
        report = krein_from_counting(model, grid, phi)
        assert report.gap < 1e-9
        # independent dense functional-calculus oracle
        dense_arith = np.linalg.eigvalsh(materialize_dense(model, True))
        dense_glob = np.linalg.eigvalsh(materialize_dense(model, False))
        oracle = float(np.sum(phi(dense_arith)) - np.sum(phi(dense_glob)))
        assert report.trace_diff == pytest.approx(oracle, abs=1e-9)


def test_norm_bounds_constant_one_saturates():
    primes = generate_primes(5)
    ens = sample_hecke_ensemble(primes, 6, seed=2, mode="constant_one")
    report = norm_bound_checks(FAM, primes, ens, (2, 5))
    assert report.all_bounds_hold
    # lambda = 1 saturates the functional-calculus bound with equality
    assert all(n == b for n, b in zip(report.per_prime_norms, report.per_prime_bounds))


def test_norm_bounds_zero_samples():
    primes = generate_primes(4)
    ens = HeckeEnsemble(primes=primes, n_modes=3, seed=0, mode="iid_uniform",
                        samples=np.zeros((4, 3)))
    report = norm_bound_checks(FAM, primes, ens, (1, 2, 4))
    assert report.all_bounds_hold
    assert all(n == 0.0 for n in report.per_prime_norms)
    assert all(n == 0.0 for n in report.tail_norms)


def test_norm_bounds_iid_chain():
    primes = generate_primes(20)
    ens = sample_hecke_ensemble(primes, 50, seed=12345)
    report = norm_bound_checks(FAM, primes, ens, (5, 10, 20))
    assert report.all_bounds_hold
    assert report.tail_norms[0] >= report.tail_norms[1] >= report.tail_norms[2]
    assert report.tail_norms[2] == 0.0
    for n, b in zip(report.tail_norms, report.tail_bounds):
        assert n <= b


def test_norm_bounds_evaluate_each_eta_row_once():
    calls = []

    class CountingFamily(CoefficientFamily):
        def eta(self, p, lam):
            calls.append(p)
            return super().eta(p, lam)

    primes = generate_primes(40)
    ens = sample_hecke_ensemble(primes, 30, seed=7)
    sizes = (10, 20, 40)
    report = norm_bound_checks(CountingFamily(0.35), primes, ens, sizes)
    assert calls == list(primes)
    # Oracle: every tail summed afresh in ascending-prime order, bitwise equal.
    for size, norm, bound in zip(sizes, report.tail_norms, report.tail_bounds):
        tail, total = np.zeros(30), 0.0
        for i in range(size, 40):
            tail += FAM.eta(primes.primes[i], ens.samples[i])
            total += FAM.sup_norm(primes.primes[i])
        assert (norm, bound) == (float(np.abs(tail).max()), total)


def test_norm_bounds_validation():
    primes = generate_primes(3)
    ens = sample_hecke_ensemble(primes, 2, seed=1)
    with pytest.raises(ValueError):
        norm_bound_checks(FAM, primes, ens, ())
    with pytest.raises(ValueError):
        norm_bound_checks(FAM, primes, ens, (2, 1))
    with pytest.raises(ValueError):
        norm_bound_checks(FAM, primes, ens, (5,))
