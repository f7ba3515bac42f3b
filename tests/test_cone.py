import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays
from numpy.testing import assert_allclose

from knotopt import project

from helpers import (brute_force_cone_projection, random_feasible_y,
                     sequential_pava_projection)

# the same examples on every run, and no example database
PROPERTY = settings(derandomize=True, database=None, deadline=None)

# finite entries, -0.0 included
ENTRY = st.floats(-1e6, 1e6)
VECTORS = arrays(float, st.integers(1, 300), elements=ENTRY)
NONDECREASING = VECTORS.map(np.sort)
DROP = st.floats(1e-3, 1e3)


def assert_matches_sequential_pava(v):
    out = project(v)
    assert out.tobytes() == sequential_pava_projection(v).tobytes()
    assert not np.shares_memory(out, v)


class TestAnchors:
    def test_feasible_input_unchanged(self):
        for v in (np.array([1.0, 2.0, 3.0]), np.array([-0.0, -0.0, 3.0])):
            assert project(v).tobytes() == v.tobytes()   # sign bits included

    def test_all_negative_projects_to_apex(self):
        assert_allclose(project(np.array([-1.0, -2.0])), [0.0, 0.0])

    def test_pooling(self):
        assert_allclose(project(np.array([2.0, 1.0, 3.0])), [1.5, 1.5, 3.0])

    def test_pools_a_run_with_a_negative_entry(self):
        out = project(np.array([3.0, 1.0, 2.0, -1.0, 5.0]))
        assert np.array_equal(out, [1.25] * 4 + [5.0])

    def test_matches_brute_force_on_anchor(self):
        v = np.array([2.0, 1.0, 3.0])
        assert_allclose(project(v), brute_force_cone_projection(v), atol=1e-12)


class TestOracleEquivalence:
    def test_small_dimensions(self, rng):
        for n in range(1, 6):
            for _ in range(200):
                v = rng.uniform(-5.0, 5.0, size=n)
                assert_allclose(project(v), brute_force_cone_projection(v),
                                atol=1e-9)


class TestMatchesSequentialPava:
    @PROPERTY
    @given(VECTORS)
    def test_any_input(self, v):
        assert_matches_sequential_pava(v)

    @PROPERTY
    @given(NONDECREASING)
    def test_no_descent(self, v):
        assert_matches_sequential_pava(v)

    @PROPERTY
    @given(VECTORS.map(lambda v: np.sort(np.abs(v))),
           st.one_of(st.just(-0.0), st.floats(-1e6, -1e-300)))
    def test_negative_or_negative_zero_head(self, v, head):
        v[0] = head
        assert_matches_sequential_pava(v)

    @PROPERTY
    @given(arrays(float, st.integers(1, 300),
                  elements=st.sampled_from([-1.0, -0.0, 0.0, 0.5, 2.0])))
    def test_ties(self, v):
        assert_matches_sequential_pava(v)

    @PROPERTY
    @given(arrays(float, st.integers(2, 300), elements=ENTRY).map(np.sort),
           DROP, st.booleans())
    def test_descent_at_index_one_or_the_last(self, v, drop, at_end):
        i = v.size - 1 if at_end else 1
        v[i] = v[i - 1] - drop
        assert_matches_sequential_pava(v)

    @PROPERTY
    @given(arrays(float, 1, elements=ENTRY))
    def test_single_entry(self, v):
        assert_matches_sequential_pava(v)


class TestProperties:
    def test_feasibility_exact(self, rng):
        for _ in range(300):
            out = project(rng.normal(scale=3.0, size=rng.integers(1, 9)))
            assert out[0] >= 0.0
            assert np.all(np.diff(out) >= 0.0)

    def test_idempotent_exact(self, rng):
        for _ in range(100):
            out = project(rng.normal(scale=3.0, size=6))
            assert np.array_equal(project(out), out)

    def test_nonexpansive(self, rng):
        for _ in range(100):
            u = rng.normal(scale=4.0, size=7)
            v = rng.normal(scale=4.0, size=7)
            lhs = np.linalg.norm(project(u) - project(v))
            assert lhs <= np.linalg.norm(u - v) + 1e-12

    def test_obtuse_angle_optimality(self, rng):
        for _ in range(100):
            v = rng.normal(scale=3.0, size=6)
            p = project(v)
            w = random_feasible_y(rng, 6)
            assert float((v - p) @ (w - p)) <= 1e-9


class TestValidation:
    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            project(np.array([]))

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            project(np.array([1.0, np.nan]))
        with pytest.raises(ValueError):
            project(np.array([np.inf, 1.0]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("where", [0, 2, 4])
    def test_rejects_non_finite_with_and_without_descent(self, bad, where):
        for v in ([0.0, 1.0, 2.0, 3.0, 4.0], [4.0, 3.0, 2.0, 1.0, 0.0]):
            v = np.array(v)
            v[where] = bad
            with pytest.raises(ValueError, match="input must be finite"):
                project(v)

    # a sum that overflows proves nothing, so the entries are scanned,
    # whether numpy raises its overflow warning or only emits it
    @pytest.mark.parametrize("action", ["error", "ignore"])
    def test_finite_input_whose_sum_overflows_passes(self, action):
        with warnings.catch_warnings():
            warnings.simplefilter(action)
            ordered = project(np.array([1e308, 1e308]))
            pooled = project(np.array([1e308, 1e308, -1e308]))
        assert ordered.tolist() == [1e308, 1e308]
        assert pooled.tolist() == [1e308 / 3.0] * 3

    # a block total near the largest float, or the pooling test's product of
    # one and a count, would overflow: the input is scaled by a power of two
    # and back, so the means are those of exact-exponent arithmetic
    @pytest.mark.parametrize("v, mean", [
        ([1e308, 1e308, 1.0], 1e308 / 3.0 * 2.0),
        ([1.7e308] * 3 + [1.0], 1.7e308 / 4.0 * 2.0 + 1.7e308 / 4.0),
    ], ids=["two-large-then-one", "three-near-max-then-one"])
    def test_pools_finite_input_near_the_largest_float(self, v, mean):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = project(np.array(v))
        assert out.tolist() == [mean] * len(v)

    # both sides of the pooling test overflow, so the unscaled pass leaves
    # two descending finite blocks, [8.5e307] * 2 + [7.8e307] * 2
    def test_pools_blocks_whose_pooling_test_overflows(self):
        v = np.array([0.9e308, 0.8e308, 0.86e308, 0.7e308])
        out = project(v)
        assert np.all(np.diff(out) >= 0)
        assert out.tobytes() == (project(v / 256.0) * 256.0).tobytes()

    # past the overflow bound, an input whose unscaled pass does not
    # overflow is not scaled, so its subnormal entries keep their bits
    def test_keeps_subnormal_entries_beside_a_large_one(self):
        out = project(np.array([1.5e-323, 5e-324, 1e308]))
        assert out.tolist() == [1e-323, 1e-323, 1e308]

    @pytest.mark.parametrize("v", [[np.inf, -np.inf], [1e308, 1e308, np.nan],
                                   [-np.inf, 1e308, 1e308], [np.nan, np.inf]],
                             ids=str)
    def test_rejects_non_finite_whatever_the_sum(self, v):
        with pytest.raises(ValueError, match="^input must be finite$"):
            project(np.array(v))

    def test_no_descent_keeps_negative_zero(self):
        # the clamp alone: -0.0 entries come back with their sign bit
        for v in ([-0.0], [-1.0, -0.0, 5.0], [-0.0, 0.0, 2.0]):
            v = np.array(v)
            want = np.maximum(0.0, v)
            assert np.signbit(want).any()
            assert project(v).tobytes() == want.tobytes()
