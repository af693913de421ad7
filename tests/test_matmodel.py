import numpy as np

from oracles import block_entries, dense_block_model, subsample_entries


def closed_form_spectrum(b):
    return np.sort(np.concatenate([b, -b]))


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
    # with every m = 0 the two block models coincide
    assert np.array_equal(block_entries([1.0, 2.0], [0.0], True),
                          block_entries([1.0, 2.0], [0.0], False))


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
