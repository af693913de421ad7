import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import staircase_of
from diracgap.shift import Staircase, TestFunction
from diracgap.zeta import diagnostics, load_zero_table
from oracles import trace_response


def test_empty_staircase_is_zero():
    s = staircase_of([])
    for x in (-5.0, -0.1, 0.0, 0.1, 5.0):
        assert s(x) == 0


def test_single_jump_convention():
    s = Staircase(locations=(0.1,), weights=(1,))
    assert s(0.05) == 0
    assert s(0.2) == 1
    assert s(-0.2) == -1
    assert s(0.0) == 0
    # right-continuity at the jump itself
    s2 = Staircase(locations=(0.1,), weights=(2,))
    assert s2(0.1) == 2
    assert s2(-0.1) == -2


def test_staircase_validation():
    with pytest.raises(ValueError):
        Staircase(locations=(0.0,), weights=(1,))
    with pytest.raises(ValueError):
        Staircase(locations=(0.2, 0.1), weights=(1, 1))
    with pytest.raises(ValueError):
        Staircase(locations=(0.1,), weights=(0,))
    with pytest.raises(ValueError):
        Staircase(locations=(0.1, np.nan), weights=(1, 1))
    with pytest.raises(ValueError):
        Staircase(locations=(0.1, 0.2), weights=(1,))
    with pytest.raises(ValueError):
        Staircase(locations=np.ones((1, 1)), weights=np.ones((1, 1), dtype=np.int64))


def test_staircase_rejects_fractional_weights():
    # a fractional weight is rejected, not cut to an integer ([1.5, 2.7] would give xi(3) = 3)
    # a whole float past int64 (1e20) is rejected too, not overflowed by the int64 cast
    for weights in ([1.5, 2.7], [1.0, 0.5], [1.0, np.inf], [1.0, np.nan], [1.0, 1e20]):
        with pytest.raises(ValueError, match="jump weights must be positive integers"):
            Staircase(locations=[1.0, 2.0], weights=weights)
    # the public diagnostics hands its multiplicities to Staircase unconverted
    with pytest.raises(ValueError, match="jump weights must be positive integers"):
        diagnostics([1.0, 2.0], [1.5, 2.7], load_zero_table("embedded"), K=5, T=10.0)
    # integral values of another dtype are kept, as int64
    s = Staircase(locations=[1.0, 2.0], weights=[1.0, 2.0])
    assert s.weights.dtype == np.int64 and s.heights.tolist() == [0, 1, 3]


def test_golden_staircase_matches_cumulative_recount(default_run):
    s = default_run.staircase
    spectrum = default_run.spectrum
    # independent recount: sort raw positive emitted values, each once per fiber of the whole
    # grid (at kappa = 0 once, elsewhere at kappa_j and -kappa_j), count <= lambda
    gap_values = default_run.gap_values
    copies = [1 if j == gap_values.grid.half_index else 2 for j in gap_values.fibers[:, 1].tolist()]
    raw = sorted(abs(v) for v, c in zip(gap_values.values.tolist(), copies) if v != 0.0
                 for _ in range(c))
    for lam in np.linspace(0.0, float(s.locations[-1]) * 1.05, 137):
        expected = sum(1 for v in raw if v <= lam)
        assert s(lam) == expected
    assert s(np.inf) == sum(spectrum.multiplicities)


@settings(max_examples=60, deadline=None)
@given(
    locs=st.lists(st.floats(min_value=1e-6, max_value=50.0), min_size=0, max_size=12, unique=True),
    weights=st.lists(st.integers(min_value=1, max_value=4), min_size=12, max_size=12),
    probes=st.lists(st.floats(min_value=-100.0, max_value=100.0), min_size=1, max_size=8),
)
def test_oddness_is_exact(locs, weights, probes):
    locs = sorted(locs)
    s = Staircase(locations=tuple(locs), weights=tuple(weights[: len(locs)]))
    for x in probes:
        assert s(-x) == -s(x)


def test_response_evenness():
    s = staircase_of([(0.7, 2), (1.9, 1)])
    phi = TestFunction(alpha=0.2)
    t = np.arange(0, 301) * 0.01
    f_pos = trace_response(s, phi, t)
    f_neg = trace_response(s, phi, -t)
    f0 = float(trace_response(s, phi, 0.0))
    assert np.abs(f_pos - f_neg).max() <= 1e-12 * abs(f0)


def test_test_function_validation():
    with pytest.raises(ValueError):
        TestFunction(alpha=0.0)
    with pytest.raises(ValueError):
        TestFunction(alpha=-1.0)
    phi = TestFunction(alpha=0.5)
    assert phi(0.0) == 1.0
    x = np.array([0.3, 1.0, -1.0])
    assert np.array_equal(phi(x), phi(-x))
