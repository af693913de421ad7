import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import one_row_shifts, toy_band_structure
from oracles import mirrored_bands
from diracgap.arithmetic import (
    HeckeEnsemble,
    generate_primes,
    mass_shifts,
    sample_hecke_ensemble,
)
from diracgap.floquet import QuasiMomentumGrid
from diracgap.gapspec import (
    GROUPING_DECIMALS,
    GROUPING_TOLERANCE,
    MEMBERSHIP_MARGIN,
    GapValues,
    aggregate_spectrum,
    band_distance,
    dirac_band_set,
    fiber_gap_eigenvalues,
)

TOY = toy_band_structure([[0.0, 0.5, 1.0], [2.0, 2.5, 3.0]])
EPSILON = 0.35  # the default run's epsilon


def brute_force_gap_values(bands, e_star, shifts, intervals):
    """Plain-Python double loop over the whole kappa grid; independent of the vectorized path."""
    whole = mirrored_bands(bands)
    out = []
    for n in range(whole.shape[0]):
        for j in range(whole.shape[1]):
            for m, mass in enumerate(shifts.values, start=1):
                v = whole[n, j] - e_star + mass
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


def intervals(band_set):
    """The band set's intervals as (lower, upper) float pairs."""
    lowers, uppers = band_set
    return list(zip(lowers.tolist(), uppers.tolist()))


def brute_force_band_set(bands, e_star):
    """Plain-Python merge of the shifted bands and their negations, sorted by (lower, upper)."""
    raw = sorted(iv for a, b in zip(bands.lowers.tolist(), bands.uppers.tolist())
                 for iv in ((a - e_star, b - e_star), (-(b - e_star), -(a - e_star))))
    merged = [raw[0]]
    for lo, hi in raw[1:]:
        if lo <= merged[-1][1]:
            merged[-1] = (merged[-1][0], max(merged[-1][1], hi))
        else:
            merged.append((lo, hi))
    return merged


TOY_SET = (np.array([-1.5, 0.5]), np.array([-0.5, 1.5]))


def fiber_tuples(gap_values):
    return [tuple(f) for f in gap_values.fibers.tolist()]


def assert_matches_the_whole_grid(got, brute):
    """got, on kappa >= 0, against the brute-force pairs of the whole grid: the same count of
    +- eigenvalues, the kappa >= 0 values and fibers in order, and the kappa < 0 ones their
    mirrors (n, N_kappa - 1 - j, m), bitwise."""
    half, n_nodes = got.grid.half_index, got.grid.n_nodes
    assert len(got) == len(brute)
    assert [v for v, _ in brute[1::2]] == [-v for v, _ in brute[::2]]
    upper = [(v, f) for v, f in brute[::2] if f[1] >= half]
    lower = [(v, (f[0], n_nodes - 1 - f[1], f[2])) for v, f in brute[::2] if f[1] < half]
    assert got.values.tolist() == [v for v, _ in upper]
    assert fiber_tuples(got) == [f for _, f in upper]
    assert sorted(lower) == sorted((v, f) for v, f in upper if f[1] > half)


def spectrum_tuples(spec):
    """(values, multiplicities, groups) as tuples; group k is fibers[h[k]:h[k + 1]]."""
    h = np.concatenate([[0], np.cumsum(spec.multiplicities)]).tolist()
    groups = tuple(tuple(map(tuple, spec.fibers[a:b].tolist())) for a, b in zip(h, h[1:]))
    return tuple(spec.positive_values.tolist()), tuple(spec.multiplicities.tolist()), groups


def test_toy_band_set():
    bs = dirac_band_set(TOY, 1.5)
    assert intervals(bs) == [(-1.5, -0.5), (0.5, 1.5)]
    assert (bs[0].dtype, bs[1].dtype) == (np.float64, np.float64)
    # the set equals its own negation
    negated = sorted((-hi, -lo) for lo, hi in intervals(bs))
    assert negated == intervals(bs)


def test_band_set_rejects_reference_inside_band():
    with pytest.raises(ValueError, match="inside the band"):
        dirac_band_set(TOY, 0.5)


def test_band_set_merges_touching_intervals():
    touching = toy_band_structure([[0.0, 0.5, 1.0], [1.0, 1.5, 2.0]])
    bs = dirac_band_set(touching, 2.5)
    assert intervals(bs) == [(-2.5, -0.5), (0.5, 2.5)]


def test_band_set_symmetry_mathieu(mathieu_bands):
    bs = dirac_band_set(mathieu_bands, 9.856938576832455)
    negated = sorted((-hi, -lo) for lo, hi in intervals(bs))
    assert negated == intervals(bs)


def test_band_distance():
    d = band_distance([0.0, 0.5, 0.6, -2.0, 1.7], TOY_SET)
    assert np.allclose(d, [0.5, 0.0, 0.0, 0.5, 0.2])


def test_boundary_value_not_emitted():
    # fiber at E = 2.0 with zero mass: v = 0.5 is a band edge, distance 0
    bands = toy_band_structure([[2.0, 2.0, 2.0]])
    got = fiber_gap_eigenvalues(bands, 1.5, one_row_shifts([0.0]), TOY_SET)
    assert len(got) == 0
    assert got.values.shape == (0,) and got.fibers.shape == (0, 3)


def test_toy_fiber_emission():
    bands = toy_band_structure([[1.0, 1.0]])
    got = fiber_gap_eigenvalues(bands, 1.5, one_row_shifts([0.6]), TOY_SET)
    # v = 1.0 - 1.5 + 0.6 = 0.1 inside the central gap, one fiber per node of kappa >= 0;
    # each value stands for the pair +-0.1, and the one at pi/L for its mirror at -pi/L too
    assert got.values.tolist() == pytest.approx([0.1] * 2, abs=1e-15)
    assert len(got) == 6
    assert fiber_tuples(got) == [(0, 1, 1), (0, 2, 1)]


def test_emission_is_lexicographic_and_symmetric(default_run):
    vals = default_run.gap_values
    fibers = fiber_tuples(vals)
    assert fibers == sorted(set(fibers))
    half = vals.grid.half_index
    assert min(j for _, j, _ in fibers) >= half
    # the +- closure and the mirror are implicit: one stored value stands for the pair +-v at
    # its fiber and, off kappa = 0, at its mirror fiber
    assert len(vals) == 2 * (2 * len(fibers) - sum(j == half for _, j, _ in fibers))


GRID3 = QuasiMomentumGrid(n_nodes=3, period=1.0)  # nodes -pi, 0, pi: j = 1 is kappa = 0


def test_aggregate_trivial_cases():
    bands = toy_band_structure([[1.0, 1.0]])
    got = fiber_gap_eigenvalues(bands, 1.5, one_row_shifts([0.6]), TOY_SET)
    # the single fiber at kappa = 0 and its +-0.1
    one = GapValues(values=got.values[:1], fibers=got.fibers[:1], grid=got.grid)
    spec = aggregate_spectrum(one)
    assert spectrum_tuples(spec) == ((0.1,), (1,), ((tuple(one.fibers[0].tolist()),),))

    # two fibers at exactly the same value group with multiplicity 2
    two = GapValues(values=np.tile(one.values, 2), fibers=np.tile(one.fibers, (2, 1)),
                    grid=got.grid)
    spec2 = aggregate_spectrum(two)
    assert spectrum_tuples(spec2)[:2] == ((0.1,), (2,))
    assert spec2.fibers.tolist() == np.tile(one.fibers, (2, 1)).tolist()

    # the fiber at pi/L stands for its mirror at -pi/L as well
    edge = aggregate_spectrum(
        GapValues(values=got.values[1:], fibers=got.fibers[1:], grid=got.grid))
    assert spectrum_tuples(edge) == ((0.1,), (2,), (((0, 0, 1), (0, 2, 1)),))

    empty = aggregate_spectrum(
        GapValues(values=np.empty(0), fibers=np.empty((0, 3), dtype=np.int64), grid=GRID3))
    assert spectrum_tuples(empty) == ((), (), ())
    assert empty.fibers.shape == (0, 3)


def test_aggregate_chains_at_the_tolerance_and_breaks_ties_by_fiber():
    # 2e-9 - 1e-9 == 1e-9 exactly: the chain continues at the tolerance itself.  The
    # fibers at j = 2 (kappa = pi) stand for their mirrors at j = 0 too.
    fibers = [(0, 1, 2), (0, 2, 1), (1, 1, 1), (0, 1, 1)]
    got = GapValues(values=np.array([2e-9, 1e-9, 3.5e-9, -1e-9]), fibers=np.array(fibers),
                    grid=GRID3)
    spec = aggregate_spectrum(got)
    assert spectrum_tuples(spec) == (
        (1e-9, 3.5e-9), (4, 1), (((0, 0, 1), (0, 1, 1), (0, 2, 1), (0, 1, 2)), ((1, 1, 1),)))
    assert (spec.positive_values.dtype, spec.multiplicities.dtype) == (np.float64, np.int64)
    assert spec.fibers.shape == (5, 3)
    whole = fibers + [(0, 0, 1)]  # the mirror of (0, 2, 1), written out here
    pairs = [(s * v, f) for v, f in zip(got.values.tolist() + [1e-9], whole) for s in (1, -1)]
    assert brute_force_spectrum(pairs) == spectrum_tuples(spec)


def test_golden_configuration_against_brute_force(default_run):
    r = default_run
    got = r.gap_values
    brute = brute_force_gap_values(
        r.bands, r.e_star, r.shifts, intervals(dirac_band_set(r.bands, r.e_star))
    )
    assert_matches_the_whole_grid(got, brute)
    assert [f for _, f in brute[::2]] == [f for _, f in brute[1::2]]
    assert spectrum_tuples(r.spectrum) == brute_force_spectrum(brute)
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
    perm = rng.permutation(r.config.N_H)
    permuted = HeckeEnsemble(primes=r.ensemble.primes, samples=r.ensemble.samples[:, perm])
    shifts = mass_shifts(permuted, EPSILON)
    vals = fiber_gap_eigenvalues(r.bands, r.e_star, shifts, dirac_band_set(r.bands, r.e_star))
    spec = aggregate_spectrum(vals)
    assert spec.positive_values.tolist() == r.spectrum.positive_values.tolist()
    assert spec.multiplicities.tolist() == r.spectrum.multiplicities.tolist()


def test_monotone_response_to_pointwise_larger_samples(default_run):
    # constant_one saturates lambda^2 = 1 >= any iid lambda^2 pointwise
    r = default_run
    ones = sample_hecke_ensemble(r.ensemble.primes, r.config.N_H, r.config.seed,
                                 mode="constant_one")
    shifts_hi = mass_shifts(ones, EPSILON)
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
    n_nodes = draw(st.sampled_from([2, 3]))  # of kappa >= 0: whole grids of 3 and 5 nodes
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
    assert intervals(band_set) == brute_force_band_set(bands, e_star)
    shifts = one_row_shifts(masses)
    got = fiber_gap_eigenvalues(bands, e_star, shifts, band_set)
    brute = brute_force_gap_values(bands, e_star, shifts, intervals(band_set))
    assert got.fibers.shape == (len(got.values), 3)
    assert_matches_the_whole_grid(got, brute)
    spec = aggregate_spectrum(got)
    assert spectrum_tuples(spec) == brute_force_spectrum(brute)
