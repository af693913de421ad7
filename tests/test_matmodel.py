import numpy as np
import pytest

from diracgap.arithmetic import (
    CoefficientFamily,
    HeckeEnsemble,
    generate_primes,
    mass_shifts,
    sample_hecke_ensemble,
)
from diracgap.matmodel import (
    MatrixModel,
    _mirror_closed_nodes,
    assemble,
    krein_from_counting,
    norm_bound_checks,
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
    with pytest.raises(ValueError, match="caps must be >= 1"):
        assemble(mathieu_bands, default_run.e_star, default_run.shifts, 24, 0)
    model = assemble(mathieu_bands, default_run.e_star, default_run.shifts, 24, 8)
    assert len(model.q) <= 24
    assert len(model.mass) <= 8
    assert model.dimension <= 4096
    # zone-edge nodes are kept: the near-gap fibers |q| ~ 1 are in the model
    assert np.abs(model.q).min() < 1.1
    # kappa subsample is mirror-closed: each band's fibers read the same backwards
    nodes = _mirror_closed_nodes(mathieu_bands.grid.n_nodes, 24 // mathieu_bands.n_bands)
    assert nodes == [mathieu_bands.grid.n_nodes - 1 - j for j in reversed(nodes)]
    q = model.q.reshape(mathieu_bands.n_bands, len(nodes))
    assert np.array_equal(q, q[:, ::-1])


def test_closed_form_spectra_match_dense_oracle(mathieu_bands, default_run):
    model = assemble(mathieu_bands, default_run.e_star, default_run.shifts, 24, 8)
    for deformed in (False, True):
        dense = materialize_dense(model, deformed=deformed)
        assert dense.shape[0] <= 512
        oracle = np.linalg.eigvalsh(dense)
        closed = model.arith_spectrum() if deformed else model.glob_spectrum()
        assert np.abs(oracle - closed).max() < 1e-10


def test_reflection_involution_on_dense_4x4():
    # two mirror-paired fibers with equal energies, one mode
    model = MatrixModel(q=np.array([1.0, 1.0]), mass=np.array([0.5]))
    d = materialize_dense(model, deformed=True)
    r = np.array([[0.0, 1.0], [1.0, 0.0]])
    j = np.block([[np.zeros((2, 2)), r], [r, np.zeros((2, 2))]])
    gamma = np.diag([1.0, 1.0, -1.0, -1.0])
    assert np.abs(j @ d - d @ j).max() == 0.0  # commutes, does not flip sign
    assert np.abs(j @ d @ j + d).max() == 2.0 * 1.5
    assert np.abs(gamma @ d + d @ gamma).max() == 0.0  # the honest involution


def test_counting_difference_zero_mass():
    model = model_from_values([1.0, 2.0], [0.0])
    assert np.array_equal(model.arith_spectrum(), model.glob_spectrum())
    report = krein_from_counting(model, TestFunction(alpha=0.5))
    assert report.trace_diff == 0.0
    assert report.jump_pairing == 0.0


def test_krein_hand_example():
    model = model_from_values([1.0], [0.5])
    phi = TestFunction(alpha=0.3)
    report = krein_from_counting(model, phi)
    expected = (phi(1.5) - phi(1.0)) + (phi(-1.5) - phi(-1.0))
    assert report.trace_diff == pytest.approx(float(expected), abs=1e-15)
    assert report.jump_pairing == pytest.approx(float(expected), abs=1e-15)
    assert report.gap < 1e-15


def test_krein_identity_on_golden_subsample(mathieu_bands, default_run):
    model = assemble(mathieu_bands, default_run.e_star, default_run.shifts, 24, 8)
    for alpha in (0.05, 0.5, 5.0):
        phi = TestFunction(alpha=alpha)
        report = krein_from_counting(model, phi)
        assert report.gap < 1e-9
        # independent dense functional-calculus oracle
        dense_arith = np.linalg.eigvalsh(materialize_dense(model, True))
        dense_glob = np.linalg.eigvalsh(materialize_dense(model, False))
        oracle = float(np.sum(phi(dense_arith)) - np.sum(phi(dense_glob)))
        assert report.trace_diff == pytest.approx(oracle, abs=1e-9)


def test_norm_bounds_constant_one_saturates():
    primes = generate_primes(5)
    ens = sample_hecke_ensemble(primes, 6, seed=2, mode="constant_one")
    report = norm_bound_checks(FAM, primes, mass_shifts(ens, FAM))
    assert report.all_bounds_hold
    # lambda = 1 saturates the functional-calculus bound with equality
    assert all(n == b for n, b in zip(report.per_prime_norms, report.per_prime_bounds))
    # the nested prefixes hold N_P/4, N_P/2 and N_P primes
    assert report.tail_bounds == pytest.approx(
        (sum(FAM.sup_norm(p) for p in primes[1:]), sum(FAM.sup_norm(p) for p in primes[2:]), 0.0),
        rel=1e-15)


def test_norm_bounds_zero_samples():
    primes = generate_primes(4)
    ens = HeckeEnsemble(primes=primes, n_modes=3, seed=0, mode="iid_uniform",
                        samples=np.zeros((4, 3)))
    report = norm_bound_checks(FAM, primes, mass_shifts(ens, FAM))
    assert report.all_bounds_hold
    assert all(n == 0.0 for n in report.per_prime_norms)
    assert all(n == 0.0 for n in report.tail_norms)


def test_norm_bounds_iid_chain():
    primes = generate_primes(20)
    ens = sample_hecke_ensemble(primes, 50, seed=12345)
    report = norm_bound_checks(FAM, primes, mass_shifts(ens, FAM))
    assert report.all_bounds_hold
    assert report.tail_norms[0] >= report.tail_norms[1] >= report.tail_norms[2]
    assert report.tail_norms[2] == 0.0
    for n, b in zip(report.tail_norms, report.tail_bounds):
        assert n <= b
    # Oracle: every tail summed afresh in ascending-prime order, bitwise equal.
    for size, norm, bound in zip((5, 10, 20), report.tail_norms, report.tail_bounds):
        tail, total = np.zeros(50), 0.0
        for i in range(size, 20):
            tail += FAM.eta(primes[i], ens.samples[i])
            total += FAM.sup_norm(primes[i])
        assert (norm, bound) == (float(np.abs(tail).max()), total)
