"""The shared finiteness test: a finite sum passes at once, and a sum that
overflows or is not finite leaves the answer to an element scan."""

import warnings

import numpy as np
import pytest

from knotopt._finite import all_finite


@pytest.mark.parametrize("action", ["error", "ignore"])
@pytest.mark.parametrize("size", [2, 5, 40, 1000])
class TestAllFinite:
    def test_finite_entries_whose_sum_overflows_pass(self, action, size):
        with warnings.catch_warnings():
            warnings.simplefilter(action)
            assert all_finite(np.full(size, 1e308))
            assert all_finite(np.full(size, -1e308))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_a_non_finite_entry_fails_whatever_the_sum(self, action, size,
                                                       bad):
        v = np.full(size, 1e308)
        v[size // 2] = bad
        with warnings.catch_warnings():
            warnings.simplefilter(action)
            assert not all_finite(v)
            assert not all_finite(np.where(v == 1e308, 1.0, v))


def test_numbers_and_empty_arrays():
    assert all_finite(1.0) and all_finite(np.float64(-2.0))
    assert not all_finite(np.nan) and not all_finite(np.array(-np.inf))
    assert all_finite(np.empty(0))
