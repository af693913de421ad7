import inspect

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
from diracgap import gapspec
from diracgap.expcli import compute_run, parse_config
from diracgap.floquet import QuasiMomentumGrid
from diracgap.gapspec import (
    GROUPING_DECIMALS,
    GROUPING_TOLERANCE,
    MEMBERSHIP_MARGIN,
    GapValues,
    aggregate_spectrum,
    dirac_band_set,
    fiber_gap_eigenvalues,
    round_decimals,
)

TOY = toy_band_structure([[0.0, 0.5, 1.0], [2.0, 2.5, 3.0]])
EPSILON = 0.35  # the default run's epsilon


def brute_force_distance(v, intervals):
    """Distance from v to the union of the closed intervals, 0 inside one: a min over all."""
    return min(max(lo - v, v - hi, 0.0) for lo, hi in intervals)


def brute_force_gap_values(bands, e_star, shifts, intervals):
    """Plain-Python double loop over the whole kappa grid; independent of the vectorized path."""
    whole = mirrored_bands(bands)
    out = []
    for n in range(whole.shape[0]):
        for j in range(whole.shape[1]):
            for m, mass in enumerate(shifts.values, start=1):
                v = whole[n, j] - e_star + mass
                if brute_force_distance(v, intervals) > MEMBERSHIP_MARGIN:
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


TOY_SET = [(-1.5, -0.5), (0.5, 1.5)]  # the intervals of TOY's band set at E* = 1.5


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


def group_rows(spec):
    """The listed kappa >= 0 rows of each group: group k is fibers[starts[k]:starts[k + 1]]."""
    ends = np.append(spec.starts, len(spec.fibers)).tolist()
    return tuple(tuple(map(tuple, spec.fibers[a:b].tolist())) for a, b in zip(ends, ends[1:]))


def spectrum_tuples(spec, grid):
    """(values, multiplicities, groups) as tuples on the whole grid: group k is its listed
    rows and the mirror (n, N_kappa - 1 - j, m) of each row off kappa = 0, written out here,
    as a sorted multiset."""
    groups = tuple(
        tuple(sorted(rows + tuple((n, grid.n_nodes - 1 - j, m) for n, j, m in rows
                                  if j > grid.half_index)))
        for rows in group_rows(spec))
    return tuple(spec.positive_values.tolist()), tuple(spec.multiplicities.tolist()), groups


def assert_spectrum_matches_brute_force(spec, grid, pairs):
    """spec against brute_force_spectrum of the whole-grid pairs: the same values and
    multiplicities, each group's listed rows in the oracle's order of the group's kappa >= 0
    fibers, and each group with its mirrors written out the oracle's whole group."""
    lams, mults, groups = brute_force_spectrum(pairs)
    assert spectrum_tuples(spec, grid) == (lams, mults, tuple(tuple(sorted(g)) for g in groups))
    assert group_rows(spec) == tuple(
        tuple(f for f in g if f[1] >= grid.half_index) for g in groups)


def test_toy_band_set():
    bs = dirac_band_set(TOY, 1.5)
    assert intervals(bs) == TOY_SET
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


def test_boundary_value_not_emitted():
    # fiber at E = 2.0 with zero mass: v = 0.5 is a band edge, distance 0
    bands = toy_band_structure([[2.0, 2.0, 2.0]])
    got = fiber_gap_eigenvalues(bands, 1.5, one_row_shifts([0.0]))
    assert len(got) == 0
    assert got.values.shape == (0,) and got.fibers.shape == (0, 3)


def test_margin_is_the_difference_from_the_band_edge():
    # v = (0.25 - 1.0) + 1e-8 = -0.74999999 lies 1.0000000050e-8 above the edge -0.75, past
    # the margin; the widened edge -0.75 + 1e-8 rounds to v itself, so a filter comparing
    # v > highs + margin would drop the fiber that the difference and the oracle keep.
    bands = toy_band_structure([[0.0, 0.125, 0.25]])
    shifts = one_row_shifts([MEMBERSHIP_MARGIN])
    band_set = dirac_band_set(bands, 1.0)
    assert intervals(band_set) == [(-1.0, -0.75), (0.75, 1.0)]
    got = fiber_gap_eigenvalues(bands, 1.0, shifts)
    assert fiber_tuples(got) == [(0, 4, 1)]
    assert got.values.tolist() == [-0.75 + MEMBERSHIP_MARGIN]
    assert got.values[0] + 0.75 > MEMBERSHIP_MARGIN
    brute = brute_force_gap_values(bands, 1.0, shifts, intervals(band_set))
    assert_matches_the_whole_grid(got, brute)


def test_toy_fiber_emission():
    bands = toy_band_structure([[1.0, 1.0]])
    got = fiber_gap_eigenvalues(bands, 1.5, one_row_shifts([0.6]))
    # v = 1.0 - 1.5 + 0.6 = 0.1 inside the central gap, one fiber per node of kappa >= 0;
    # each value stands for the pair +-0.1, and the one at pi/L for its mirror at -pi/L too
    assert got.values.tolist() == pytest.approx([0.1] * 2, abs=1e-15)
    assert len(got) == 6
    assert fiber_tuples(got) == [(0, 1, 1), (0, 2, 1)]


def test_two_band_hand_example_keeps_the_chiral_gap_value_and_the_one_above():
    # The shift 0.25 moves fiber (0, 4) at kappa = pi from the edge -0.5 to -0.25,
    # inside the chiral gap, and its mirror (0, 0) at -pi with it; 1.5 + 0.25 leaves
    # the band set too, but above the top band.
    shifts = one_row_shifts([0.0, 0.25])
    got = fiber_gap_eigenvalues(TOY, 1.5, shifts)
    assert got.values.tolist() == [-0.25, 1.75]
    assert got.fibers.tolist() == [[0, 4, 2], [1, 4, 2]]
    brute = brute_force_gap_values(TOY, 1.5, shifts, TOY_SET)
    assert_matches_the_whole_grid(got, brute)


def test_zero_mass_keeps_no_value_on_the_default_bands(default_run):
    # With every m = 0 each v = E_n(kappa) - E* lies in band n's own interval.
    r = default_run
    shifts = one_row_shifts(np.zeros(4))
    band_set = dirac_band_set(r.bands, r.e_star)
    assert len(fiber_gap_eigenvalues(r.bands, r.e_star, shifts)) == 0
    assert brute_force_gap_values(r.bands, r.e_star, shifts, intervals(band_set)) == []


@pytest.mark.parametrize("fault", ["drop", "ulp"])
def test_brute_force_comparison_catches_one_wrong_kept_value(default_run, fault):
    r = default_run
    brute = brute_force_gap_values(
        r.bands, r.e_star, r.shifts, intervals(dirac_band_set(r.bands, r.e_star)))
    values, fibers = r.gap_values.values.copy(), r.gap_values.fibers
    k = int(np.flatnonzero(np.abs(values) < 0.99)[7])  # a kept value inside the chiral gap
    if fault == "drop":
        values, fibers = np.delete(values, k), np.delete(fibers, k, axis=0)
    else:
        values[k] = np.nextafter(values[k], np.inf)
    wrong = GapValues(values=values, fibers=fibers, grid=r.gap_values.grid)
    with pytest.raises(AssertionError):
        assert_matches_the_whole_grid(wrong, brute)


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
    got = fiber_gap_eigenvalues(bands, 1.5, one_row_shifts([0.6]))
    # the single fiber at kappa = 0 and its +-0.1
    one = GapValues(values=got.values[:1], fibers=got.fibers[:1], grid=got.grid)
    spec = aggregate_spectrum(one)
    assert spectrum_tuples(spec, got.grid) == ((0.1,), (1,), (((0, 1, 1),),))

    # two fibers at exactly the same value group with multiplicity 2
    two = GapValues(values=np.tile(one.values, 2), fibers=np.tile(one.fibers, (2, 1)),
                    grid=got.grid)
    spec2 = aggregate_spectrum(two)
    assert spectrum_tuples(spec2, got.grid)[:2] == ((0.1,), (2,))
    assert spec2.fibers.tolist() == np.tile(one.fibers, (2, 1)).tolist()
    assert spec2.starts.tolist() == [0]

    # the fiber at pi/L stands for its mirror at -pi/L as well, which is counted, not listed
    edge = aggregate_spectrum(
        GapValues(values=got.values[1:], fibers=got.fibers[1:], grid=got.grid))
    assert spectrum_tuples(edge, got.grid) == ((0.1,), (2,), (((0, 0, 1), (0, 2, 1)),))
    assert edge.fibers.tolist() == [[0, 2, 1]]

    empty = aggregate_spectrum(
        GapValues(values=np.empty(0), fibers=np.empty((0, 3), dtype=np.int64), grid=GRID3))
    assert spectrum_tuples(empty, GRID3) == ((), (), ())
    assert (empty.fibers.shape, empty.starts.shape) == ((0, 3), (0,))
    assert empty.multiplicities.dtype == np.int64


def test_aggregate_chains_at_the_tolerance_and_breaks_ties_by_fiber():
    # 2e-9 - 1e-9 == 1e-9 exactly: the chain continues at the tolerance itself.  The
    # fibers at j = 2 (kappa = pi) stand for their mirrors at j = 0 too.
    fibers = [(0, 1, 2), (0, 2, 1), (1, 1, 1), (0, 1, 1)]
    got = GapValues(values=np.array([2e-9, 1e-9, 3.5e-9, -1e-9]), fibers=np.array(fibers),
                    grid=GRID3)
    spec = aggregate_spectrum(got)
    assert spectrum_tuples(spec, GRID3) == (
        (1e-9, 3.5e-9), (4, 1), (((0, 0, 1), (0, 1, 1), (0, 1, 2), (0, 2, 1)), ((1, 1, 1),)))
    assert (spec.positive_values.dtype, spec.multiplicities.dtype) == (np.float64, np.int64)
    # the kept rows only, sorted by rounded value, then fiber, whatever the input order
    assert spec.fibers.tolist() == [[0, 1, 1], [0, 2, 1], [0, 1, 2], [1, 1, 1]]
    assert spec.starts.tolist() == [0, 3]
    whole = fibers + [(0, 0, 1)]  # the mirror of (0, 2, 1), written out here
    pairs = [(s * v, f) for v, f in zip(got.values.tolist() + [1e-9], whole) for s in (1, -1)]
    assert_spectrum_matches_brute_force(spec, GRID3, pairs)


def test_golden_configuration_against_brute_force(default_run):
    r = default_run
    got = r.gap_values
    brute = brute_force_gap_values(
        r.bands, r.e_star, r.shifts, intervals(dirac_band_set(r.bands, r.e_star))
    )
    assert_matches_the_whole_grid(got, brute)
    assert [f for _, f in brute[::2]] == [f for _, f in brute[1::2]]
    assert_spectrum_matches_brute_force(r.spectrum, got.grid, brute)
    # frozen regression anchors for the default configuration
    assert len(got) == 432
    assert len(r.spectrum) == 118
    assert sum(r.spectrum.multiplicities) == 216
    assert r.spectrum.positive_values[0] == pytest.approx(0.472105106768, abs=1e-9)
    assert r.spectrum.positive_values[-1] == pytest.approx(622.326281748686, abs=1e-6)


def test_any_inside_prefilter_loses_values_the_brute_force_keeps(default_run):
    # Drop every row with one end inside a band, not only rows inside one band: rows
    # whose masses carry them across a gap then lose the values that land in it.
    source = inspect.getsource(gapspec.fiber_gap_eigenvalues)
    kept_rows = "~(inside.all(axis=0) & (idx[0] == idx[1]))"
    assert source.count(kept_rows) == 1
    namespace = dict(vars(gapspec))
    exec(source.replace(kept_rows, "~inside.any(axis=0)"), namespace)
    r = default_run
    band_set = dirac_band_set(r.bands, r.e_star)
    got = namespace["fiber_gap_eigenvalues"](r.bands, r.e_star, r.shifts)
    brute = brute_force_gap_values(r.bands, r.e_star, r.shifts, intervals(band_set))
    assert (len(got), len(brute)) == (280, 432)


@pytest.mark.xfail(strict=True, raises=AssertionError, reason="ROADMAP item 19")
def test_one_more_band_keeps_every_value_and_adds_only_above_the_old_top_band(default_run):
    # At a fixed M, a ninth band may add values only above the old top band's upper edge
    # minus E* (621.7985), where the 8-band set ends; every 8-band value must stay.  Compared
    # within the eigenvalue contract, not bitwise: dsbevx's bits depend on the requested
    # count, and E* moves by 1 ulp between the two runs.
    old, new = default_run, compute_run(parse_config('{"n_bands": 9}'))
    lam_old, lam_new = old.spectrum.positive_values, new.spectrum.positive_values
    dist = np.abs(lam_old[:, None] - lam_new[None, :])
    assert lam_old[dist.min(axis=1) > 1e-10].tolist() == []
    added = lam_new[dist.min(axis=0) > 1e-10]
    assert np.all(added > old.bands.uppers[-1] - old.e_star)


def test_filtering_idempotent(default_run):
    r = default_run
    band_set = intervals(dirac_band_set(r.bands, r.e_star))
    for v in r.gap_values.values.tolist():
        assert brute_force_distance(v, band_set) > MEMBERSHIP_MARGIN
        assert brute_force_distance(-v, band_set) > MEMBERSHIP_MARGIN


def test_permutation_invariance_of_spectrum(default_run):
    r = default_run
    rng = np.random.default_rng(1)
    perm = rng.permutation(r.config.N_H)
    permuted = HeckeEnsemble(primes=r.ensemble.primes, samples=r.ensemble.samples[:, perm])
    shifts = mass_shifts(permuted, EPSILON)
    vals = fiber_gap_eigenvalues(r.bands, r.e_star, shifts)
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
    got = fiber_gap_eigenvalues(bands, e_star, shifts)
    brute = brute_force_gap_values(bands, e_star, shifts, intervals(band_set))
    assert got.fibers.shape == (len(got.values), 3)
    assert_matches_the_whole_grid(got, brute)
    spec = aggregate_spectrum(got)
    assert_spectrum_matches_brute_force(spec, got.grid, brute)


def python_round(x):
    return np.array([round(v, GROUPING_DECIMALS) for v in np.asarray(x, dtype=float).tolist()])


@settings(max_examples=60, deadline=None)
@given(st.lists(st.floats(min_value=-1e5, max_value=1e5), min_size=1, max_size=200))
def test_round_decimals_is_python_round_bitwise(values):
    x = np.array(values)
    assert round_decimals(x).tobytes() == python_round(x).tobytes()


def test_round_decimals_on_ties_zero_and_the_fallback():
    rng = np.random.default_rng(7)
    # m / 8192 with m odd is an exact binary tie at the 12th decimal (10^12 = 2^12 5^12),
    # which round sends to even; (k + 0.5) 10^-12 is a decimal tie that the binary
    # value misses by less than an ulp, on either side.
    exact_ties = (2.0 * rng.integers(0, 8192 * 4503 // 2, 20000) + 1.0) / 8192.0
    near_ties = (rng.integers(0, 10**15, 20000) + 0.5) / 1e12
    edges = [0.0, -0.0, 5e-13, -5e-13, 1.5e-12, 2.5e-12, 5e-324, 2.0**52 / 1e12,
             np.nextafter(2.0**52 / 1e12, 0.0), 4503.6, -4503.6, 1e5, 1e300, np.inf, -np.inf]
    for x in (exact_ties, near_ties, np.array(edges), 10.0 ** rng.uniform(-15.0, 6.0, 20000)):
        assert round_decimals(x).tobytes() == python_round(x).tobytes()
    assert np.all((exact_ties * 1e12) % 1.0 == 0.5)  # the ties are exact
