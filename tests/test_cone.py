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
