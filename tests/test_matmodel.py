import inspect

import numpy as np
import pytest

from conftest import one_row_shifts, toy_band_structure
from diracgap import expcli, gapspec
from diracgap.gapspec import GapValues, dirac_band_set, fiber_gap_eigenvalues
from diracgap.matmodel import chiral_gap_jumps
from oracles import block_entries, dense_block_model, subsample_entries

# Chiral gap (-0.5, 0.5) around E* = 1.5: q runs over -1.5, -1.0, -0.5 and 0.5, 1.0, 1.5
# at kappa = 0, pi/2, pi (j = 2, 3, 4 of the whole grid's 5 nodes).
TOY = toy_band_structure([[0.0, 0.5, 1.0], [2.0, 2.5, 3.0]])


def closed_form_spectrum(b):
    return np.sort(np.concatenate([b, -b]))


def jumps_of(bands, e_star, shifts, gap_values=None):
    band_set = dirac_band_set(bands, e_star)
    if gap_values is None:
        gap_values = fiber_gap_eigenvalues(bands, e_star, shifts, band_set)
    return chiral_gap_jumps(bands, e_star, shifts, band_set, gap_values)


def test_single_fiber_closed_form():
    for deformed, expected in ((False, [-1.0, 1.0]), (True, [-1.5, 1.5])):
        b = block_entries([1.0], [0.5], deformed)
        assert np.array_equal(closed_form_spectrum(b), expected)
        assert np.allclose(np.linalg.eigvalsh(dense_block_model(b)), expected)


def test_two_fiber_enumeration():
    b = block_entries([1.0, 2.0], [0.0, 0.5], True)
    assert np.array_equal(b, [1.0, 1.5, 2.0, 2.5])
    assert dense_block_model(b).shape == (8, 8)
    assert np.array_equal(block_entries([1.0, 2.0], [0.0, 0.5], False), [1.0, 1.0, 2.0, 2.0])


def test_closed_form_spectra_match_dense_oracle(default_run):
    # zone edges and centre of every band, every third mode: 8 * 3 * 7 fibers
    q, mass = subsample_entries(default_run.bands, default_run.e_star, default_run.shifts,
                                [0, 100, 200], 3)
    for deformed in (False, True):
        b = block_entries(q, mass, deformed)
        oracle = np.linalg.eigvalsh(dense_block_model(b))
        assert np.abs(oracle - closed_form_spectrum(b)).max() < 1e-10


def test_reflection_involution_on_dense_4x4():
    # two mirror-paired fibers with equal energies, one mode
    d = dense_block_model(block_entries([1.0, 1.0], [0.5], True))
    r = np.array([[0.0, 1.0], [1.0, 0.0]])
    j = np.block([[np.zeros((2, 2)), r], [r, np.zeros((2, 2))]])
    gamma = np.diag([1.0, 1.0, -1.0, -1.0])
    assert np.abs(j @ d - d @ j).max() == 0.0  # commutes, does not flip sign
    assert np.abs(j @ d @ j + d).max() == 2.0 * 1.5
    assert np.abs(gamma @ d + d @ gamma).max() == 0.0  # the honest involution


def test_krein_hand_example():
    # The shift 0.25 moves fiber (0, 4) at kappa = pi from the edge -0.5 to -0.25,
    # inside the chiral gap, and its mirror (0, 0) at -pi with it; 1.5 + 0.25 leaves
    # the band set too, but above the gap.
    shifts = one_row_shifts([0.0, 0.25])
    kept = fiber_gap_eigenvalues(TOY, 1.5, shifts, dirac_band_set(TOY, 1.5))
    assert kept.values.tolist() == [-0.25, 1.75]
    assert kept.fibers.tolist() == [[0, 4, 2], [1, 4, 2]]
    report = jumps_of(TOY, 1.5, shifts)
    assert (report.above, report.jumps, report.kept, report.differing) == (0.5, 2, 2, 0)
    lost = GapValues(values=kept.values[1:], fibers=kept.fibers[1:], grid=kept.grid)
    assert jumps_of(TOY, 1.5, shifts, lost).differing == 2


def test_counting_difference_zero_mass(default_run):
    # With every m = 0 the two block models coincide, so xi = 0: no jumps, none kept.
    assert np.array_equal(block_entries([1.0, 2.0], [0.0], True),
                          block_entries([1.0, 2.0], [0.0], False))
    shifts = one_row_shifts(np.zeros(4))
    report = jumps_of(default_run.bands, default_run.e_star, shifts)
    assert (report.jumps, report.kept, report.differing) == (0, 0, 0)


def test_default_run_jumps_match_the_kept_values(default_run):
    r = default_run
    report = jumps_of(r.bands, r.e_star, r.shifts, r.gap_values)
    assert (report.jumps, report.kept, report.differing) == (192, 192, 0)
    assert r.gap_jumps == report


@pytest.mark.parametrize("fault", ["drop", "ulp"])
def test_one_wrong_kept_value_fails_the_check(default_run, fault):
    r = default_run
    values, fibers = r.gap_values.values.copy(), r.gap_values.fibers
    k = int(np.flatnonzero(np.abs(values) < 0.99)[7])  # a kept value inside the chiral gap
    if fault == "drop":
        values, fibers = np.delete(values, k), np.delete(fibers, k, axis=0)
    else:
        values[k] = np.nextafter(values[k], np.inf)
    report = jumps_of(r.bands, r.e_star, r.shifts,
                      GapValues(values=values, fibers=fibers, grid=r.gap_values.grid))
    assert report.differing > 0


def test_any_inside_prefilter_fails_krein_identity(monkeypatch, capsys):
    # Drop every row with one end inside a band, not only rows inside one band.
    source = inspect.getsource(gapspec.fiber_gap_eigenvalues)
    kept_rows = "~(inside.all(axis=0) & (idx[0] == idx[1]))"
    assert source.count(kept_rows) == 1
    namespace = dict(vars(gapspec))
    exec(source.replace(kept_rows, "~inside.any(axis=0)"), namespace)
    monkeypatch.setattr(gapspec, "fiber_gap_eigenvalues", namespace["fiber_gap_eigenvalues"])
    assert expcli.main(["verify"]) == 1
    assert "FAIL krein_identity" in capsys.readouterr().out

