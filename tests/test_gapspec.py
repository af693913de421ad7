import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import one_row_shifts, toy_band_structure
from diracgap.arithmetic import (
    CoefficientFamily,
    HeckeEnsemble,
    generate_primes,
    mass_shifts,
    sample_hecke_ensemble,
)
from diracgap.gapspec import (
    GROUPING_DECIMALS,
    GROUPING_TOLERANCE,
    MEMBERSHIP_MARGIN,
    DiracBandSet,
    GapValues,
    aggregate_spectrum,
    band_distance,
    dirac_band_set,
    fiber_gap_eigenvalues,
)

TOY = toy_band_structure([[0.0, 0.5, 1.0], [2.0, 2.5, 3.0]])
FAM = CoefficientFamily(0.35)  # the default run's epsilon


def brute_force_gap_values(bands, e_star, shifts, intervals):
    """Plain-Python double loop; independent of the vectorized path."""
    out = []
    for n in range(bands.bands.shape[0]):
        for j in range(bands.bands.shape[1]):
            for m, mass in enumerate(shifts.values, start=1):
                v = bands.bands[n, j] - e_star + mass
                dist = min(
                    max(lo - v, v - hi, 0.0) for lo, hi in intervals
                )
                if dist > MEMBERSHIP_MARGIN:
                    out.append((v, (n, j, m)))
                    out.append((-v, (n, j, m)))
    return out


def brute_force_spectrum(pairs):
    """The list-based grouping of the +- pairs: round, keep positives, sort, chain.

    Python's correctly rounded round on a float: np.float64's own __round__ scales by
    10^12 first and can round the other way near a tie (4.86111057182349970...).
    """
    positives = sorted(
        (round(float(v), GROUPING_DECIMALS), f) for v, f in pairs
        if round(float(v), GROUPING_DECIMALS) > 0.0
    )
    lams, mults, prov = [], [], []
    previous = None
    for val, fiber in positives:
        if lams and val - previous <= GROUPING_TOLERANCE:
            mults[-1] += 1
            prov[-1].append(fiber)
        else:
            lams.append(val)
            mults.append(1)
            prov.append([fiber])
        previous = val
    return tuple(lams), tuple(mults), tuple(tuple(p) for p in prov)


def fiber_tuples(gap_values):
    return [tuple(f) for f in gap_values.fibers.tolist()]


def test_toy_band_set():
    bs = dirac_band_set(TOY, 1.5)
    assert bs.intervals == ((-1.5, -0.5), (0.5, 1.5))
    # the set equals its own negation
    negated = sorted((-hi, -lo) for lo, hi in bs.intervals)
    assert tuple(negated) == bs.intervals


def test_band_set_rejects_reference_inside_band():
    with pytest.raises(ValueError, match="inside the band"):
        dirac_band_set(TOY, 0.5)


def test_band_set_merges_touching_intervals():
    touching = toy_band_structure([[0.0, 0.5, 1.0], [1.0, 1.5, 2.0]])
    bs = dirac_band_set(touching, 2.5)
    assert bs.intervals == ((-2.5, -0.5), (0.5, 2.5))


def test_band_set_symmetry_mathieu(mathieu_bands):
    bs = dirac_band_set(mathieu_bands, 9.856938576832455)
    negated = sorted((-hi, -lo) for lo, hi in bs.intervals)
    assert tuple(negated) == bs.intervals


def test_band_distance():
    bs = DiracBandSet(intervals=((-1.5, -0.5), (0.5, 1.5)))
    d = band_distance([0.0, 0.5, 0.6, -2.0, 1.7], bs)
    assert np.allclose(d, [0.5, 0.0, 0.0, 0.5, 0.2])


def test_boundary_value_not_emitted():
    # fiber at E = 2.0 with zero mass: v = 0.5 is a band edge, distance 0
    bands = toy_band_structure([[2.0, 2.0, 2.0]])
    band_set = DiracBandSet(intervals=((-1.5, -0.5), (0.5, 1.5)))
    got = fiber_gap_eigenvalues(bands, 1.5, one_row_shifts([0.0]), band_set)
    assert len(got) == 0
    assert got.values.shape == (0,) and got.fibers.shape == (0, 3)


def test_toy_fiber_emission():
    bands = toy_band_structure([[1.0, 1.0, 1.0]])
    band_set = DiracBandSet(intervals=((-1.5, -0.5), (0.5, 1.5)))
    got = fiber_gap_eigenvalues(bands, 1.5, one_row_shifts([0.6]), band_set)
    # v = 1.0 - 1.5 + 0.6 = 0.1 inside the central gap, one fiber per node;
    # each value stands for the pair +-0.1
    assert got.values.tolist() == pytest.approx([0.1] * 3, abs=1e-15)
    assert len(got) == 6
    assert fiber_tuples(got) == [(0, 0, 1), (0, 1, 1), (0, 2, 1)]


def test_emission_is_lexicographic_and_symmetric(default_run):
    vals = default_run.gap_values
    fibers = fiber_tuples(vals)
    assert fibers == sorted(set(fibers))
    # the +- closure is implicit: one stored value per emitted pair
    assert len(vals) == 2 * len(vals.values) == 2 * len(fibers)


def test_aggregate_trivial_cases():
    bands = toy_band_structure([[1.0, 1.0, 1.0]])
    band_set = DiracBandSet(intervals=((-1.5, -0.5), (0.5, 1.5)))
    got = fiber_gap_eigenvalues(bands, 1.5, one_row_shifts([0.6]), band_set)
    one = GapValues(values=got.values[:1], fibers=got.fibers[:1])  # single fiber's +-0.1
    spec = aggregate_spectrum(one)
    assert spec.positive_values == (0.1,)
    assert spec.multiplicities == (1,)

    # two fibers at exactly the same value group with multiplicity 2
    two = GapValues(values=np.tile(one.values, 2), fibers=np.tile(one.fibers, (2, 1)))
    spec2 = aggregate_spectrum(two)
    assert spec2.positive_values == (0.1,)
    assert spec2.multiplicities == (2,)

    empty = GapValues(values=np.empty(0), fibers=np.empty((0, 3), dtype=np.int64))
    assert aggregate_spectrum(empty).positive_values == ()


def test_aggregate_chains_at_the_tolerance_and_breaks_ties_by_fiber():
    # 2e-9 - 1e-9 == 1e-9 exactly: the chain continues at the tolerance itself
    fibers = [(0, 0, 2), (0, 1, 1), (1, 0, 1), (0, 0, 1)]
    got = GapValues(values=np.array([2e-9, 1e-9, 3.5e-9, -1e-9]), fibers=np.array(fibers))
    spec = aggregate_spectrum(got)
    assert spec.positive_values == (1e-9, 3.5e-9)
    assert spec.multiplicities == (3, 1)
    assert spec.provenance == (((0, 0, 1), (0, 1, 1), (0, 0, 2)), ((1, 0, 1),))
    pairs = [(s * v, f) for v, f in zip(got.values.tolist(), fibers) for s in (1, -1)]
    assert brute_force_spectrum(pairs) == (
        spec.positive_values, spec.multiplicities, spec.provenance)


def test_golden_configuration_against_brute_force(default_run):
    r = default_run
    got = r.gap_values
    brute = brute_force_gap_values(
        r.bands, r.e_star, r.shifts, list(dirac_band_set(r.bands, r.e_star).intervals)
    )
    assert len(got) == len(brute)
    assert got.values.tolist() == [v for v, _ in brute[::2]]
    assert [v for v, _ in brute[1::2]] == (-got.values).tolist()
    assert fiber_tuples(got) == [f for _, f in brute[::2]] == [f for _, f in brute[1::2]]
    # frozen regression anchors for the default configuration
    assert len(got) == 432
    assert len(r.spectrum) == 118
    assert sum(r.spectrum.multiplicities) == 216
    assert r.spectrum.positive_values[0] == pytest.approx(0.472105106768, abs=1e-9)
    assert r.spectrum.positive_values[-1] == pytest.approx(622.326281748686, abs=1e-6)


def test_filtering_idempotent(default_run):
    r = default_run
    values = r.gap_values.values
    band_set = dirac_band_set(r.bands, r.e_star)
    assert (band_distance(values, band_set) > MEMBERSHIP_MARGIN).all()
    assert (band_distance(-values, band_set) > MEMBERSHIP_MARGIN).all()


def test_permutation_invariance_of_spectrum(default_run):
    r = default_run
    rng = np.random.default_rng(1)
    perm = rng.permutation(r.ensemble.n_modes)
    permuted = HeckeEnsemble(
        primes=r.ensemble.primes,
        n_modes=r.ensemble.n_modes,
        seed=r.ensemble.seed,
        mode=r.ensemble.mode,
        samples=r.ensemble.samples[:, perm],
    )
    shifts = mass_shifts(permuted, FAM)
    vals = fiber_gap_eigenvalues(r.bands, r.e_star, shifts, dirac_band_set(r.bands, r.e_star))
    spec = aggregate_spectrum(vals)
    assert spec.positive_values == r.spectrum.positive_values
    assert spec.multiplicities == r.spectrum.multiplicities


def test_monotone_response_to_pointwise_larger_samples(default_run):
    # constant_one saturates lambda^2 = 1 >= any iid lambda^2 pointwise
    r = default_run
    ones = sample_hecke_ensemble(r.ensemble.primes, r.ensemble.n_modes,
                                 r.ensemble.seed, mode="constant_one")
    shifts_hi = mass_shifts(ones, FAM)
    assert np.all(shifts_hi.values >= r.shifts.values)
    v_lo = r.bands.bands[..., None] - r.e_star + r.shifts.values
    v_hi = r.bands.bands[..., None] - r.e_star + shifts_hi.values
    assert np.all(v_hi >= v_lo)


# Band rows on a 1/8 grid inside [2n, 2n + 1] and masses on a 1/16 grid plus
# offsets at the grouping tolerance and the membership margin: whole rows land
# inside a band, and candidates hit band edges exactly or within the margin.
OFFSETS = (0.0, 5e-10, -5e-10, MEMBERSHIP_MARGIN, -MEMBERSHIP_MARGIN, 2 * MEMBERSHIP_MARGIN)
MASSES = st.one_of(
    st.builds(lambda k, d: k / 16 + d, st.integers(-16, 80), st.sampled_from(OFFSETS)),
    st.floats(min_value=-3.0, max_value=10.0),
)


@st.composite
def toy_problems(draw):
    n_bands = draw(st.integers(1, 3))
    n_nodes = draw(st.sampled_from([3, 5]))
    rows = [[2 * n + draw(st.integers(0, 8)) / 8 for _ in range(n_nodes)] for n in range(n_bands)]
    e_star = draw(st.sampled_from([2 * n + 1.5 for n in range(-1, n_bands)]))
    masses = draw(st.lists(MASSES, min_size=1, max_size=6))
    return rows, e_star, masses


@settings(max_examples=300, deadline=None)
@given(problem=toy_problems())
# every row stays inside its band: the row prefilter drops all of them
@example(problem=([[0.0, 0.5, 1.0], [2.0, 2.25, 3.0]], 1.5, [0.0, 0.0625]))
# masses straddling the band edges, at and around the margin
@example(problem=([[0.0, 0.5, 1.0], [2.0, 2.25, 3.0]], 1.5,
                  [0.0, 1.0, 1.0 + MEMBERSHIP_MARGIN, 1.0 + 2 * MEMBERSHIP_MARGIN, 1.5]))
# |v| = 4.86111057182349970...: rounds down to 12 decimals, np.float64 rounds it up
@example(problem=([[0.0, 0.0, 0.0]], -0.5, [4.3611105718235]))
def test_array_path_matches_brute_force(problem):
    rows, e_star, masses = problem
    bands = toy_band_structure(rows)
    band_set = dirac_band_set(bands, e_star)
    shifts = one_row_shifts(masses)
    got = fiber_gap_eigenvalues(bands, e_star, shifts, band_set)
    brute = brute_force_gap_values(bands, e_star, shifts, band_set.intervals)
    assert len(got) == len(brute)
    assert got.fibers.shape == (len(got.values), 3)
    assert got.values.tolist() == [v for v, _ in brute[::2]]
    assert fiber_tuples(got) == [f for _, f in brute[::2]]
    spec = aggregate_spectrum(got)
    assert (spec.positive_values, spec.multiplicities, spec.provenance) == brute_force_spectrum(brute)
