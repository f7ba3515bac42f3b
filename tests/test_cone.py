import numpy as np
import pytest
from numpy.testing import assert_allclose

from knotopt import project

from helpers import brute_force_cone_projection, random_feasible_y


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
