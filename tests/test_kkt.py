import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from knotopt import (KnotVector, ObjectiveKind, hessian_phi, kkt_check,
                     prop1_test, solve)
from knotopt.objective import grad_x

from helpers import QuadraticCurve

AREA = ObjectiveKind.CONCAVE_AREA


class Mirrored:
    """The curve x -> f(-x), on the mirrored interval."""

    def __init__(self, curve):
        self.curve = curve

    def value(self, x):
        return self.curve.value(-np.asarray(x, dtype=float))

    def deriv1(self, x):
        return -self.curve.deriv1(-np.asarray(x, dtype=float))

    def deriv2(self, x):
        return self.curve.deriv2(-np.asarray(x, dtype=float))


@pytest.fixture(scope="module")
def logistic1a_solution(catalog_by_name_module):
    entry = catalog_by_name_module["logistic1a"]
    report = solve(entry.curve, ObjectiveKind.CONCAVE_AREA, 4,
                   a=entry.a, b=entry.b)
    return entry, report.final_knots


@pytest.fixture(scope="module")
def catalog_by_name_module():
    from knotopt import default_catalog
    return {entry.name: entry for entry in default_catalog()}


class TestKktCheck:
    def test_quadratic_even_spacing(self):
        curve = QuadraticCurve(-1.0, 0.0, 4.0)
        kv = KnotVector.equally_spaced(0.0, 2.0, 4)
        report = kkt_check(curve, kv)
        assert report.stationarity_residual <= 1e-10
        assert_allclose(report.lam, 0.0)
        assert report.complementarity_residual <= 1e-12

    def test_solver_solution_is_kkt(self, logistic1a_solution):
        entry, knots = logistic1a_solution
        report = kkt_check(entry.curve, knots)
        assert report.stationarity_residual <= 1e-6
        assert_allclose(report.lam, 0.0)

    def test_nonstationary_residual_is_gradient_norm(self, catalog_by_name_module):
        entry = catalog_by_name_module["logistic1a"]
        kv = KnotVector(entry.a, entry.b, np.array([0.1, 0.4, 1.9]))
        report = kkt_check(entry.curve, kv)
        expected = float(np.max(np.abs(grad_x(entry.curve, AREA, kv))))
        assert report.stationarity_residual == expected

    def test_tied_knots_recover_nonnegative_multipliers(self, catalog_by_name_module):
        entry = catalog_by_name_module["logistic1a"]
        kv = KnotVector(entry.a, entry.b, np.array([0.5, 0.5, 1.5]))
        report = kkt_check(entry.curve, kv)
        assert np.all(report.lam >= 0.0)
        assert report.complementarity_residual <= 1e-8 + 1e-12

    def test_stationary_solutions_satisfy_kkt(self, catalog_by_name_module):
        # strictly concave rows solved to stationarity carry zero multipliers
        # and a first-order residual within 10x the solver tolerance
        from knotopt import Termination, spg
        eps = spg.EPS
        for name in ("logistic1a", "logistic2a", "weibull2a", "weibull3a"):
            entry = catalog_by_name_module[name]
            result = solve(entry.curve, ObjectiveKind.CONCAVE_AREA, 4,
                           a=entry.a, b=entry.b)
            if result.termination is not Termination.STATIONARY:
                continue
            report = kkt_check(entry.curve, result.final_knots)
            assert report.stationarity_residual <= 10.0 * eps, name
            assert_allclose(report.lam, 0.0)

    @pytest.mark.parametrize("kind", list(ObjectiveKind))
    def test_knot_pressed_against_a_is_held_like_its_twin_at_b(
            self, catalog_by_name_module, kind):
        # x -> -x maps weibull1a's knots pressed against b onto knots
        # pressed against a, with every gradient component negated
        entry = catalog_by_name_module["weibull1a"]
        at_b = KnotVector(entry.a, entry.b, np.array([-1.75, -1.5, -1.0, entry.b]))
        at_a = KnotVector(-entry.b, -entry.a, -at_b.interior[::-1])
        rows = {}
        for side, curve, kv in (("b", entry.curve, at_b),
                                ("a", Mirrored(entry.curve), at_a)):
            report = kkt_check(curve, kv, kind)
            g = grad_x(curve, kind, kv)
            rows[side] = g + report.lam[1:] - report.lam[:-1]
            assert report.complementarity_residual == 0.0, side
        g_b = grad_x(entry.curve, kind, at_b)
        assert g_b[-1] < 0.0          # pushes x_n above b
        assert rows["b"][-1] == 0.0
        assert rows["a"][0] == 0.0
        assert_allclose(rows["a"][1:], -rows["b"][-2::-1], rtol=1e-12)

    def test_every_gap_tied_absorbs_the_gradient(self):
        # on so short an interval every gap counts as tied; x^2 pushes x_1
        # below a and x_2 above b, and the multipliers at both ends hold them
        curve = QuadraticCurve(1e18, 0.0, 0.0)
        kv = KnotVector(0.0, 1e-9, np.array([0.0, 1e-9]))
        report = kkt_check(curve, kv)
        assert_allclose(grad_x(curve, AREA, kv), [0.5, -0.5])
        assert_allclose(report.lam, [0.5, 0.0, 0.5])
        assert report.stationarity_residual <= 1e-15

    def test_general_kind_uses_squared_gap_gradient(self, catalog_by_name_module):
        entry = catalog_by_name_module["logistic1b"]
        kv = KnotVector.equally_spaced(entry.a, entry.b, 4)
        report = kkt_check(entry.curve, kv, ObjectiveKind.GENERAL_SQUARED)
        assert report.stationarity_residual > 0.0
        assert_allclose(report.lam, 0.0)

    def test_interior_kind_residual_is_window_gradient_norm(
            self, catalog_by_name_module):
        # the harness's own objective can be certified like any other kind
        entry = catalog_by_name_module["gompertz1b"]
        kind = ObjectiveKind.INTERIOR_SQUARED
        kv = KnotVector(entry.a, entry.b, np.array([-1.2, 0.1, 0.4, 1.3]))
        report = kkt_check(entry.curve, kv, kind)
        grad = grad_x(entry.curve, kind, kv)
        assert report.stationarity_residual == float(np.max(np.abs(grad)))
        assert report.stationarity_residual > 0.0
        assert_allclose(report.lam, 0.0)

    def test_report_serialises(self, catalog_by_name_module):
        import json
        entry = catalog_by_name_module["logistic1a"]
        kv = KnotVector.equally_spaced(entry.a, entry.b, 3)
        record = kkt_check(entry.curve, kv).to_dict()
        json.dumps(record)
        assert set(record) == {"lambda", "stationarity_residual",
                               "complementarity_residual"}
        assert "hessian" not in record


class TestHessian:
    def test_single_knot_formula(self, catalog_by_name_module):
        entry = catalog_by_name_module["logistic1a"]
        kv = KnotVector(entry.a, entry.b, np.array([0.7]))
        matrix = hessian_phi(entry.curve, kv)
        expected = (entry.a - entry.b) * entry.curve.deriv2(0.7)
        assert matrix.shape == (1, 1)
        assert matrix[0, 0] == pytest.approx(expected, rel=1e-14)

    def test_quadratic_even_spacing_entries(self):
        a2 = -1.5
        curve = QuadraticCurve(a2, 0.5, 1.0)
        kv = KnotVector.equally_spaced(0.0, 2.0, 4)
        step = 0.4
        matrix = hessian_phi(curve, kv)
        assert_allclose(np.diag(matrix), -2.0 * step * 2.0 * a2, rtol=1e-13)
        assert_allclose(np.diag(matrix, 1), 2.0 * a2 * step, rtol=1e-13)

    def test_structure_exactly_tridiagonal_and_symmetric(self, catalog_by_name_module):
        entry = catalog_by_name_module["gompertz1a"]
        kv = KnotVector.equally_spaced(entry.a, entry.b, 6)
        matrix = hessian_phi(entry.curve, kv)
        assert np.array_equal(matrix, matrix.T)
        off = np.triu(np.ones_like(matrix, dtype=bool), 2)
        assert np.all(matrix[off] == 0.0)

    def test_matches_fd_hessian_of_phi(self, catalog_by_name_module):
        entry = catalog_by_name_module["logistic1a"]
        kv = KnotVector(entry.a, entry.b, np.array([0.5, 1.0, 1.5]))

        def grad_at(inner):
            return grad_x(entry.curve, AREA, KnotVector(entry.a, entry.b, inner))

        n = kv.n
        fd = np.empty((n, n))
        h = 1e-6
        for j in range(n):
            step = np.zeros(n)
            step[j] = h
            fd[:, j] = (grad_at(kv.interior + step)
                        - grad_at(kv.interior - step)) / (2 * h)
        # the assembled matrix carries twice the curvature of phi
        assert_allclose(hessian_phi(entry.curve, kv), 2.0 * fd, rtol=1e-4, atol=1e-9)


class TestProp1:
    def test_quadratic_even_spacing_holds(self):
        curve = QuadraticCurve(-1.0, 0.0, 4.0)
        kv = KnotVector.equally_spaced(0.0, 2.0, 4)
        holds, margins = prop1_test(curve, kv)
        assert holds
        assert margins.shape == (3,)
        assert np.all(margins > 0.0)

    def test_convex_quadratic_fails_without_error(self):
        curve = QuadraticCurve(1.0, 0.0, 0.0)  # convex, even spacing still KKT
        kv = KnotVector.equally_spaced(0.0, 2.0, 3)
        holds, _ = prop1_test(curve, kv)
        assert holds is False

    def test_single_knot_positive_diagonal(self, catalog_by_name_module):
        from scipy.optimize import brentq
        entry = catalog_by_name_module["logistic1b"]
        curve, a, b = entry.curve, entry.a, entry.b
        secant = (curve.value(b) - curve.value(a)) / (b - a)
        # two symmetric stationary points; concave side passes, convex fails
        root_pos = brentq(lambda x: curve.deriv1(x) - secant, 0.0, b)
        holds_pos, _ = prop1_test(curve, KnotVector(a, b, np.array([root_pos])))
        assert holds_pos is True
        root_neg = brentq(lambda x: curve.deriv1(x) - secant, a, 0.0)
        holds_neg, _ = prop1_test(curve, KnotVector(a, b, np.array([root_neg])))
        assert holds_neg is False

    def test_raises_away_from_kkt_points(self, catalog_by_name_module):
        entry = catalog_by_name_module["logistic1a"]
        kv = KnotVector(entry.a, entry.b, np.array([0.2, 0.3, 1.8]))
        with pytest.raises(ValueError):
            prop1_test(entry.curve, kv)

    def test_eigenvalues_positive_when_condition_holds(self):
        curve = QuadraticCurve(-2.0, 1.0, 3.0)
        for n in range(2, 9):
            kv = KnotVector.equally_spaced(-1.0, 1.0, n)
            holds, _ = prop1_test(curve, kv)
            assert holds
            eigenvalues = np.linalg.eigvalsh(hessian_phi(curve, kv))
            assert np.all(eigenvalues > 0.0)

    def test_margin_formula(self):
        curve = QuadraticCurve(-1.0, 0.0, 4.0)
        n = 4
        kv = KnotVector.equally_spaced(0.0, 2.0, n)
        _, margins = prop1_test(curve, kv)
        step = 2.0 / (n + 1)
        lhs = (2.0 * -1.0 * step) ** 2
        diag = -2.0 * step * -2.0
        rhs = 0.25 * diag * diag / math.cos(math.pi / (n + 1)) ** 2
        assert_allclose(margins, rhs - lhs, rtol=1e-12)

    def test_bands_match_the_dense_matrix_on_concave_small(self,
                                                          catalog_by_name_module):
        # every concave-flagged row at n in {4, 8, 16, 32}, solved: the
        # verdict and margins read off hessian_phi's diagonals are the same
        for entry in catalog_by_name_module.values():
            if not entry.concave:
                continue
            for n in (4, 8, 16, 32):
                knots = solve(entry.curve, AREA, n, a=entry.a, b=entry.b).final_knots
                holds, margins = prop1_test(entry.curve, knots)
                matrix = hessian_phi(entry.curve, knots)
                diag, off = np.diag(matrix), np.diag(matrix, 1)
                rhs = 0.25 * diag[:-1] * diag[1:] / math.cos(math.pi / (n + 1)) ** 2
                want = rhs - off ** 2
                assert np.array_equal(margins, want), (entry.name, n)
                assert holds == bool(np.all(diag > 0.0) and np.all(want > 0.0))
