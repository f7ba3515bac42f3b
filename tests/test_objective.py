import numpy as np
import pytest
from numpy.testing import assert_allclose

from knotopt import (KnotVector, ObjectiveKind, YObjective, error_concave,
                     error_general, error_interior_squared, from_y, phi, to_y)
from knotopt.objective import DELTA_SCALE, evaluate, grad_x
from knotopt.pl import squared_gap_sum, window_gaps
from knotopt.quadrature import integrate_segments

from helpers import LinearCurve, QuadraticCurve, fd_gradient, simpson_integral

AREA = ObjectiveKind.CONCAVE_AREA
GENERAL = ObjectiveKind.GENERAL_SQUARED
INTERIOR = ObjectiveKind.INTERIOR_SQUARED


class TestPhi:
    def test_single_trapezoid(self):
        curve = QuadraticCurve(-1.0, 2.0, 0.0)
        kv = KnotVector(0.0, 1.0, np.empty(0))
        assert phi(curve, kv) == pytest.approx(-0.5, rel=1e-14)

    def test_error_minus_phi_is_curve_integral(self, catalog_by_name):
        # error = integral + phi, since phi is the negated trapezoid area
        entry = catalog_by_name["logistic1a"]
        kv = KnotVector.equally_spaced(entry.a, entry.b, 4)
        diff = error_concave(entry.curve, kv) - phi(entry.curve, kv)
        assert abs(diff - simpson_integral(entry.curve.value, entry.a, entry.b)) < 1e-11

    def test_collapsed_knots_match_empty(self, catalog_by_name):
        entry = catalog_by_name["logistic1a"]
        collapsed = KnotVector(entry.a, entry.b, np.full(3, float(entry.a)))
        empty = KnotVector(entry.a, entry.b, np.empty(0))
        assert phi(entry.curve, collapsed) == pytest.approx(
            phi(entry.curve, empty), rel=1e-14)


class TestGradPhi:
    def test_even_spacing_is_stationary_for_quadratic(self):
        curve = QuadraticCurve(-2.0, 1.0, 5.0)
        kv = KnotVector.equally_spaced(-1.0, 3.0, 5)
        assert_allclose(grad_x(curve, AREA, kv.full()), 0.0, atol=1e-12)

    def test_matches_finite_differences(self, catalog_by_name):
        entry = catalog_by_name["logistic1a"]
        kv = KnotVector(0.0, 2.0, np.array([0.5, 1.0, 1.5]))

        def phi_at(inner):
            return phi(entry.curve, KnotVector(0.0, 2.0, np.sort(inner)))

        fd = fd_gradient(phi_at, kv.interior.copy(), 1e-6)
        assert_allclose(grad_x(entry.curve, AREA, kv.full()), fd,
                        rtol=1e-6, atol=1e-10)

    def test_symmetric_bump_midpoint(self):
        curve = QuadraticCurve(-1.0, 2.0, 1.0)  # peak at x = 1
        kv = KnotVector(0.0, 2.0, np.array([1.0]))
        assert_allclose(grad_x(curve, AREA, kv.full()), 0.0, atol=1e-14)


class TestPsi:
    # psi is the squared area gap of one segment; the general objective sums
    # it over all segments, so one segment's psi and partials are read off a
    # general objective whose other segments are empty or exact

    def test_empty_segment(self, catalog_by_name):
        # a tied knot pair makes a zero-width segment: no gap, no gradient
        entry = catalog_by_name["logistic1b"]
        a, b = entry.a, entry.b
        tied = KnotVector(a, b, np.array([-1.0, 1.0, 1.0, 2.0]))
        xs = tied.full()
        gaps = window_gaps(entry.curve, xs, 0, tied.n)
        assert gaps[2] == 0.0
        untied = KnotVector(a, b, np.array([-1.0, 1.0, 2.0]))
        assert GENERAL.error(entry.curve, tied) == GENERAL.error(entry.curve, untied)
        # the objective sees knots through y, which cannot reach b = 2.0
        objective = YObjective(entry.curve, a, b, GENERAL)
        tied_y = to_y(KnotVector(a, b, np.array([-1.0, 1.0, 1.0, 1.5])))
        untied_y = to_y(KnotVector(a, b, np.array([-1.0, 1.0, 1.5])))
        assert objective.value(tied_y) == objective.value(untied_y)

    def test_affine_segment(self, rng):
        objective = YObjective(LinearCurve(2.0, 1.0), 0.0, 2.0, GENERAL)
        for _ in range(5):
            kv = KnotVector(0.0, 2.0, np.sort(rng.uniform(0.0, 2.0, size=3)))
            assert objective.value(to_y(kv)) == pytest.approx(0.0, abs=1e-26)
            assert_allclose(grad_x(objective.curve, GENERAL, kv.full()), 0.0,
                            atol=1e-13)

    def test_partials_match_finite_differences(self, catalog_by_name):
        # each knot's component adds the partials of psi for its two segments
        entry = catalog_by_name["logistic1b"]
        objective = YObjective(entry.curve, entry.a, entry.b, GENERAL)

        def value_at(inner):
            return objective.value(to_y(KnotVector(entry.a, entry.b, inner)))

        kv = KnotVector(entry.a, entry.b, np.array([-1.0, 0.5]))
        fd = fd_gradient(value_at, kv.interior.copy(), 1e-6)
        assert_allclose(grad_x(entry.curve, GENERAL, kv.full()), fd, rtol=1e-6)

    def test_reversed_segment_rejected(self, catalog_by_name):
        curve = catalog_by_name["logistic1b"].curve
        xs = np.array([-2.0, 1.0, 0.0, 2.0])
        with pytest.raises(ValueError):
            window_gaps(curve, xs, 0, 2)


class TestPureMap:
    # YObjective keeps nothing between calls: each is the x-space routine at
    # from_y(y), so any order of calls gives the same bits

    @pytest.mark.parametrize("kind", list(ObjectiveKind))
    def test_value_and_grad_are_x_space_at_from_y(self, catalog_by_name, kind):
        entry = catalog_by_name["logistic2b"]
        a, b = entry.a, entry.b
        objective = YObjective(entry.curve, a, b, kind)
        for inner in ([-1.5, -0.2, 0.3, 1.1], [-1.5, 0.3, 0.3, 1.1]):
            y = to_y(KnotVector(a, b, np.array(inner)))
            xs = from_y(y, a, b).full()
            assert objective.value(y) == evaluate(entry.curve, kind, xs)[2]
            dx_dy = (b - a) / (1.0 + y) ** 2
            assert objective.grad(y).tobytes() == \
                (grad_x(entry.curve, kind, xs) * dx_dy).tobytes()
            moved = y * 1.01
            calls = [objective.value(y), objective.grad(y), objective.value(moved)]
            fresh = [YObjective(entry.curve, a, b, kind).value(y),
                     YObjective(entry.curve, a, b, kind).grad(y),
                     YObjective(entry.curve, a, b, kind).value(moved)]
            for got, want in zip(calls, fresh):
                assert np.asarray(got).tobytes() == np.asarray(want).tobytes()


class TestYTransform:
    def test_anchor_values(self):
        kv = KnotVector(0.0, 2.0, np.array([1.0]))
        assert_allclose(to_y(kv), [1.0])
        assert_allclose(to_y(KnotVector(0.0, 2.0, np.array([0.0]))), [0.0])

    def test_round_trip(self, rng):
        a, b = -1.5, 4.0
        for _ in range(50):
            xs = np.sort(rng.uniform(a, b - 1e-6, size=5))
            kv = KnotVector(a, b, xs)
            back = from_y(to_y(kv), a, b)
            assert np.max(np.abs(back.interior - xs)) < 1e-12 * (b - a)

    def test_order_preserved(self, rng):
        xs = np.sort(rng.uniform(0.0, 1.9, size=6))
        y = to_y(KnotVector(0.0, 2.0, xs))
        assert np.all(np.diff(y) >= 0.0)

    def test_domain_guard(self):
        # knots in the guard band below b, b itself included, move to its edge
        delta = DELTA_SCALE * 2.0
        edge = to_y(KnotVector(0.0, 2.0, np.array([2.0 - delta])))
        for x in (2.0 - 0.5 * delta, 2.0):
            y = to_y(KnotVector(0.0, 2.0, np.array([0.5, x])))
            assert y[0] == 1.0 / 3.0
            assert y[1] == edge[0]

    def test_cap_round_trips(self):
        # b - x cancels catastrophically at the guard band, so the mapped
        # value only carries a few significant digits at the cap scale
        delta = DELTA_SCALE * 2.0
        kv = KnotVector(0.0, 2.0, np.array([2.0 - delta]))
        y = to_y(kv)
        assert y[0] == pytest.approx(1.0 / DELTA_SCALE - 1.0, rel=1e-3)
        assert from_y(y, 0.0, 2.0).interior[0] <= 2.0 - 0.5 * delta

    def test_value_follows_y_past_the_guard_band(self, catalog_by_name):
        # y beyond 1 / DELTA_SCALE maps into the guard band below b; the
        # value still moves there, the way its gradient says
        entry = catalog_by_name["logistic1b"]
        y = to_y(KnotVector(entry.a, entry.b, np.array([-1.2, -0.4, 0.4, 1.0])))
        objective = YObjective(entry.curve, entry.a, entry.b,
                               ObjectiveKind.GENERAL_SQUARED)
        near, far = (np.append(y[:3], y_last) for y_last in (2e12, 4e12))
        rise = objective.value(far) - objective.value(near)
        assert rise != 0.0
        assert np.sign(rise) == np.sign(objective.grad(near)[3])

    def test_from_y_clips_negative(self):
        kv = from_y(np.array([-0.5, 1.0]), 0.0, 2.0)
        assert kv.interior[0] == 0.0


class TestBigPhi:
    # the objective of any kind seen through the cone substitution
    def test_zero_vector_collapses(self, catalog_by_name):
        entry = catalog_by_name["logistic1a"]
        y = np.zeros(4)
        expected = phi(entry.curve, KnotVector(entry.a, entry.b, np.empty(0)))
        objective = YObjective(entry.curve, entry.a, entry.b,
                               ObjectiveKind.CONCAVE_AREA)
        assert objective.value(y) == pytest.approx(expected, rel=1e-13)

    def test_even_spacing_stationary_for_quadratic(self):
        curve = QuadraticCurve(-1.0, 0.0, 4.0)
        y = to_y(KnotVector.equally_spaced(0.0, 2.0, 4))
        objective = YObjective(curve, 0.0, 2.0, ObjectiveKind.CONCAVE_AREA)
        assert_allclose(objective.grad(y), 0.0, atol=1e-10)

    def test_gradient_matches_fd(self, catalog_by_name, rng):
        entry = catalog_by_name["logistic2a"]
        for kind in ObjectiveKind:
            xs = np.sort(rng.uniform(entry.a + 0.05, entry.b - 0.05, size=4))
            y = to_y(KnotVector(entry.a, entry.b, xs))
            objective = YObjective(entry.curve, entry.a, entry.b, kind)
            fd = fd_gradient(objective.value, y, 1e-5 * (1.0 + np.abs(y)))
            assert_allclose(objective.grad(y), fd, rtol=1e-6, atol=1e-9)

    def test_chain_rule_factor(self, catalog_by_name, rng):
        entry = catalog_by_name["logistic1b"]
        xs = np.sort(rng.uniform(entry.a + 0.1, entry.b - 0.1, size=5))
        kv = KnotVector(entry.a, entry.b, xs)
        y = to_y(kv)
        for kind in ObjectiveKind:
            objective = YObjective(entry.curve, entry.a, entry.b, kind)
            expected = (grad_x(entry.curve, kind, kv.full())
                        * (entry.b - entry.a) / (1.0 + y) ** 2)
            assert_allclose(objective.grad(y), expected, rtol=0, atol=1e-10)


class TestArgminInvariance:
    # phi and the area error differ by a constant, so their stationary
    # points coincide
    def test_stationary_for_phi_iff_stationary_for_error(self, catalog_by_name):
        curve = QuadraticCurve(-1.0, 0.0, 4.0)
        even = KnotVector.equally_spaced(0.0, 2.0, 3)
        assert_allclose(grad_x(curve, AREA, even.full()), 0.0, atol=1e-12)

        def err_at(inner):
            return error_concave(curve, KnotVector(0.0, 2.0, np.sort(inner)))

        fd_err = fd_gradient(err_at, even.interior.copy(), 1e-6)
        assert_allclose(fd_err, 0.0, atol=1e-8)

        skewed = KnotVector(0.0, 2.0, np.array([0.2, 0.9, 1.1]))
        fd_err = fd_gradient(err_at, skewed.interior.copy(), 1e-6)
        analytic = grad_x(curve, AREA, skewed.full())
        assert np.max(np.abs(analytic)) > 1e-3
        assert_allclose(fd_err, analytic, rtol=1e-5, atol=1e-8)


class TestWindowedObjective:
    # the interior kind scores segments 1..n-1, between the interior knots
    def test_window_matches_manual_sum(self, catalog_by_name):
        entry = catalog_by_name["logistic1b"]
        curve, n = entry.curve, 4
        kv = KnotVector.equally_spaced(entry.a, entry.b, n)
        objective = YObjective(curve, entry.a, entry.b, INTERIOR)
        xs, fv = kv.full(), curve.value(kv.full())
        manual = sum(
            (simpson_integral(curve.value, xs[i], xs[i + 1], tol=1e-14)
             - 0.5 * (fv[i] + fv[i + 1]) * (xs[i + 1] - xs[i])) ** 2
            for i in range(1, n))
        assert objective.value(to_y(kv)) == pytest.approx(manual, rel=1e-9)

    def test_windowed_gradient_matches_fd(self, catalog_by_name, rng):
        entry = catalog_by_name["gompertz1b"]
        n = 4
        objective = YObjective(entry.curve, entry.a, entry.b, INTERIOR)
        xs = np.sort(rng.uniform(entry.a + 0.1, entry.b - 0.1, size=n))
        y = to_y(KnotVector(entry.a, entry.b, xs))
        fd = fd_gradient(objective.value, y, 1e-5 * (1.0 + np.abs(y)))
        assert_allclose(objective.grad(y), fd, rtol=1e-6, atol=1e-9)

    def test_empty_window_is_flat(self, catalog_by_name):
        # one interior knot leaves no segment between interior knots
        entry = catalog_by_name["logistic1a"]
        objective = YObjective(entry.curve, entry.a, entry.b, INTERIOR)
        y = np.array([1.0])
        assert objective.value(y) == 0.0
        assert_allclose(objective.grad(y), 0.0)


class TestKindOwnsItsMeasure:
    # every kind's objective is its error measure (the area kind up to the
    # constant integral of f), on every catalog row and many knot counts
    def test_objective_agrees_with_measure(self, catalog):
        rng = np.random.default_rng(7)
        for entry in catalog:
            a, b = entry.a, entry.b
            for kind in ObjectiveKind:
                objective = YObjective(entry.curve, a, b, kind)
                offset = None
                for n in (1, 2, 4, 8, 16):
                    for _ in range(2):
                        y = to_y(KnotVector(a, b, np.sort(rng.uniform(a, b, n))))
                        value = objective.value(y)
                        diff = kind.error(entry.curve, from_y(y, a, b)) - value
                        label = (entry.name, kind, n)
                        if kind is not ObjectiveKind.CONCAVE_AREA:
                            assert diff == 0.0, label
                            continue
                        if offset is None:
                            offset = diff
                        assert abs(diff - offset) <= 1e-11 * max(1.0, abs(offset)), label

    def test_squared_kinds_sum_the_kernels_gaps(self, catalog):
        # the squared kinds' Newton paths follow the last bits of their gaps
        # (catalog-auto's step count moves when they move), so their
        # measures and objectives stay on the kernel, bit for bit
        rng = np.random.default_rng(11)
        measures = {GENERAL: error_general, INTERIOR: error_interior_squared}
        for entry in catalog:
            for n in (1, 2, 4, 8, 16):
                knots = KnotVector(entry.a, entry.b, np.sort(rng.uniform(entry.a, entry.b, n)))
                xs = knots.full()
                for kind, measure in measures.items():
                    lo, hi = kind.window(n)
                    gaps = np.zeros(n + 1)
                    gaps[lo:hi + 1] = integrate_segments(entry.curve.deriv2, xs[lo:hi + 1],
                                                         xs[lo + 1:hi + 2])
                    want = squared_gap_sum(gaps)
                    label = (entry.name, kind, n)
                    assert measure(entry.curve, knots) == want, label
                    assert evaluate(entry.curve, kind, xs)[2] == want, label

    def test_measure_names_are_kind_values(self):
        assert {kind.value for kind in ObjectiveKind} == {"auto", "concave", "general"}
        assert ObjectiveKind("auto") is INTERIOR
        assert INTERIOR.window(4) == (1, 3)
        assert GENERAL.window(4) == (0, 4)
        assert ObjectiveKind.CONCAVE_AREA.window(4) is None
