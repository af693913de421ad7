import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import eta, local_factor, local_factor_grid, mass_shifts_loop
from diracgap.arithmetic import (
    HeckeEnsemble,
    generate_primes,
    mass_shifts,
    sample_hecke_ensemble,
    sample_unit,
    splitmix64,
)

# Independent fixture for the documented bit mix, frozen from a separate
# step-by-step evaluation of the keying formula.
SAMPLE_12345_P2_M1 = 0.3803819561984241

MASK = (1 << 64) - 1


def reference_sample(seed, p, m):
    """Line-by-line reimplementation of the documented mix (test oracle)."""
    key = (seed ^ ((p * 0x9E3779B97F4A7C15) & MASK) ^ ((m * 0xBF58476D1CE4E5B9) & MASK)) & MASK
    z = (key + 0x9E3779B97F4A7C15) & MASK
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK
    z = z ^ (z >> 31)
    return 2.0 * (z >> 11) / 2.0**53 - 1.0


def is_prime(n):
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def test_generate_primes_basics():
    assert generate_primes(1) == (2,)
    assert generate_primes(5) == (2, 3, 5, 7, 11)
    twenty = generate_primes(20)
    assert twenty[-1] == 71
    assert len(twenty) == 20
    assert all(type(p) is int for p in twenty)  # Python ints, not NumPy scalars


def test_generate_primes_against_trial_division():
    # Every count 1..3,000 against the first primes by trial division.  One sieve
    # to 15 for n < 6, to n (ln n + ln ln n) + 3 from n = 6 on: Rosser's bound on
    # p_n leaves no count short of primes, on either side of the switch.
    reference = [n for n in range(2, 27450) if is_prime(n)]
    assert len(reference) == 3000
    for count in range(1, 3001):
        assert generate_primes(count) == tuple(reference[:count])


def test_generate_primes_rejects_nonpositive():
    with pytest.raises(ValueError):
        generate_primes(0)


def test_splitmix64_known_answer():
    # First output of the reference splitmix64 sequence seeded with 0.
    assert splitmix64(0) == 0xE220A8397B1DCDAF


def test_sample_matches_independent_reimplementation():
    assert sample_unit(12345, 2, 1) == reference_sample(12345, 2, 1)
    assert sample_unit(12345, 2, 1) == SAMPLE_12345_P2_M1
    for seed, p, m in [(0, 2, 1), (54321, 71, 20), (2**63, 97, 3)]:
        assert sample_unit(seed, p, m) == reference_sample(seed, p, m)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, MASK), n_primes=st.integers(1, 60), n_modes=st.integers(1, 12))
@example(seed=0, n_primes=25, n_modes=12)
@example(seed=MASK, n_primes=25, n_modes=12)
@example(seed=2**63 + 17, n_primes=1, n_modes=1)
def test_ensemble_block_matches_reference_sample(seed, n_primes, n_modes):
    primes = generate_primes(n_primes)
    samples = sample_hecke_ensemble(primes, n_modes, seed).samples
    expected = [[reference_sample(seed, p, m) for m in range(1, n_modes + 1)] for p in primes]
    assert samples.tolist() == expected


def test_ensemble_constant_one():
    ens = sample_hecke_ensemble(generate_primes(4), 3, seed=7, mode="constant_one")
    assert np.array_equal(ens.samples, np.ones((4, 3)))


def test_ensemble_determinism_bitwise():
    primes = generate_primes(10)
    a = sample_hecke_ensemble(primes, 8, seed=12345)
    b = sample_hecke_ensemble(primes, 8, seed=12345)
    assert a.samples.tobytes() == b.samples.tobytes()
    c = sample_hecke_ensemble(primes, 8, seed=12346)
    assert a.samples.tobytes() != c.samples.tobytes()


def test_ensemble_bounds_and_validation():
    ens = sample_hecke_ensemble(generate_primes(20), 50, seed=99)
    assert np.all(np.abs(ens.samples) <= 1.0)
    with pytest.raises(ValueError):
        sample_hecke_ensemble(generate_primes(2), 0, seed=1)
    with pytest.raises(ValueError):
        sample_hecke_ensemble(generate_primes(2), 1, seed=1, mode="gaussian")
    with pytest.raises(ValueError, match="seed must fit in 64 unsigned bits"):
        sample_hecke_ensemble((2, 3), 4, seed=2**64)


@settings(max_examples=50, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=MASK),
    p=st.sampled_from([2, 3, 5, 7, 11, 101, 9973]),
    m=st.integers(min_value=1, max_value=10_000),
)
def test_sample_unit_is_bounded_and_stable(seed, p, m):
    x = sample_unit(seed, p, m)
    assert -1.0 <= x < 1.0
    assert x == sample_unit(seed, p, m)


EPSILON = 0.35  # the default run's epsilon


def test_eta_quadratic_values():
    # the terms eta_p(lambda) of the primes 2 and 3 at lambda = 0, 1, -1, 0.7, -0.7
    ens = HeckeEnsemble(primes=(2, 3), samples=np.tile([0.0, 1.0, -1.0, 0.7, -0.7], (2, 1)))
    terms = mass_shifts(ens, EPSILON).terms
    assert terms[0, 0] == 0.0
    assert terms[0, 1] == 2.0**-1.35
    assert abs(terms[0, 1] - 0.392292) < 1e-6
    # evenness is exact: lambda enters squared
    assert terms[1, 2] == terms[1, 1]
    assert terms[1, 4] == terms[1, 3]
    # the tests' own family, bitwise
    assert np.array_equal(terms, [eta(p, row, EPSILON) for p, row in zip(ens.primes, ens.samples)])


def test_family_validation():
    ens = sample_hecke_ensemble(generate_primes(3), 4, seed=1)
    for epsilon in (0.0, -1.0, math.nan):
        with pytest.raises(ValueError, match="diverges"):
            mass_shifts(ens, epsilon)


def test_family_rejects_an_infinite_epsilon():
    # p^-(1 + inf) is 0.0 for every prime: the shifts would all be zero, where the
    # configuration rejects the same epsilon as Assumption B.
    ens = sample_hecke_ensemble(generate_primes(3), 4, seed=1)
    with pytest.raises(ValueError, match="epsilon must be finite and positive"):
        mass_shifts(ens, math.inf)


def test_mass_shifts_zero_samples():
    primes = generate_primes(3)
    ens = HeckeEnsemble(primes=primes, samples=np.zeros((3, 4)))
    assert np.array_equal(mass_shifts(ens, EPSILON).values, np.zeros(4))


def test_mass_shifts_constant_one_closed_form():
    ens = sample_hecke_ensemble(generate_primes(2), 5, seed=1, mode="constant_one")
    shifts = mass_shifts(ens, EPSILON)
    expected = 2.0**-1.35 + 3.0**-1.35
    assert np.all(shifts.values == expected)
    assert abs(expected - 0.6192191191645254) < 1e-15


def test_mass_shifts_bounded_by_partial_sum():
    primes = generate_primes(20)
    ens = sample_hecke_ensemble(primes, 100, seed=5)
    shifts = mass_shifts(ens, EPSILON)
    partial = sum(p ** -(1.0 + EPSILON) for p in primes)
    assert np.all(shifts.values >= 0.0)
    assert np.all(shifts.values <= partial)


def test_mass_shifts_permutation_equivariance():
    primes = generate_primes(6)
    ens = sample_hecke_ensemble(primes, 9, seed=3)
    perm = np.array([4, 0, 8, 2, 6, 1, 7, 3, 5])
    permuted = HeckeEnsemble(primes=primes, samples=ens.samples[:, perm])
    assert np.array_equal(mass_shifts(permuted, EPSILON).values,
                          mass_shifts(ens, EPSILON).values[perm])


def test_local_factor_unit_mass_at_zero():
    ens = sample_hecke_ensemble(generate_primes(5), 64, seed=11)
    assert local_factor(ens, EPSILON, 2, 0.0) == 1.0 + 0.0j


def test_local_factor_constant_one_is_pure_phase():
    ens = sample_hecke_ensemble(generate_primes(3), 7, seed=2, mode="constant_one")
    for p in (2, 3, 5):
        for t in (0.5, 1.0, -2.0):
            expected = complex(np.exp(1j * t * p**-1.35))
            assert abs(local_factor(ens, EPSILON, p, t) - expected) < 1e-15


def test_local_factor_brute_force_oracle():
    ens = sample_hecke_ensemble(generate_primes(1), 10_000, seed=12345)
    got = local_factor(ens, EPSILON, 2, 1.0)
    acc = 0.0 + 0.0j
    for lam in ens.samples[0]:
        acc += complex(math.cos(eta(2, lam, EPSILON)), math.sin(eta(2, lam, EPSILON)))
    brute = acc / 10_000
    assert abs(got) < 1.0
    assert abs(got - brute) < 1e-12


def test_local_factor_symmetries():
    ens = sample_hecke_ensemble(generate_primes(4), 33, seed=8)
    t = np.arange(-15, 16) * 0.2  # negation-symmetric by construction
    for p in ens.primes:
        vals = local_factor_grid(ens, EPSILON, p, t)
        assert np.all(np.abs(vals) <= 1.0 + 1e-15)
        assert np.allclose(vals[::-1], np.conj(vals), rtol=0, atol=0)
    # grid evaluation agrees with the scalar path
    assert (local_factor_grid(ens, EPSILON, 2, np.array([1.25]))[0]
            == local_factor(ens, EPSILON, 2, 1.25))


@pytest.mark.parametrize("n_p, n_h, seed", [
    (1000, 20, 3), (1000, 20, 12345), (20, 500, 12345), (300, 300, 12345), (1000, 500, 3),
    (1000, 1, 3),  # one mode: the prime axis is the fast one, where np.sum goes pairwise
])
def test_mass_shifts_match_the_row_loop_bitwise(n_p, n_h, seed):
    ensemble = sample_hecke_ensemble(generate_primes(n_p), n_h, seed)
    shifts = mass_shifts(ensemble, 0.35)
    values, terms = mass_shifts_loop(ensemble, 0.35)
    assert shifts.values.tobytes() == values.tobytes()
    assert shifts.terms.tobytes() == terms.tobytes()
