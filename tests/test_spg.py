import numpy as np
import pytest
from numpy.testing import assert_allclose

from knotopt import (Backtrack, BbRule, KnotVector, MinimizeResult,
                     ObjectiveKind, SolverError, SpgConfig, Termination,
                     backtrack_step, from_y, minimize_y, solve, to_y)

from helpers import QuadraticCurve


def make_hook():
    return QuadraticCurve(-1.0, 0.0, 4.0)  # -x^2 + 4, optimum is even spacing


class TestQuadraticHook:
    def test_default_init_already_stationary(self):
        report = solve(make_hook(), ObjectiveKind.CONCAVE_AREA, 3, a=0.0, b=2.0)
        assert report.termination is Termination.STATIONARY
        assert report.iterations <= 2
        assert_allclose(report.final_knots.interior, [0.5, 1.0, 1.5], atol=1e-8)

    def test_converges_from_skewed_start(self):
        init = KnotVector(0.0, 2.0, np.array([0.1, 0.2, 0.3]))
        report = solve(make_hook(), ObjectiveKind.CONCAVE_AREA, 3, init=init)
        assert report.termination is Termination.STATIONARY
        assert report.iterations < 200
        assert np.max(np.abs(report.final_knots.interior - [0.5, 1.0, 1.5])) < 1e-6

    def test_halving_mode_converges_too(self):
        init = KnotVector(0.0, 2.0, np.array([1.2, 1.5, 1.7]))
        config = SpgConfig(backtrack=Backtrack.HALVING)
        report = solve(make_hook(), ObjectiveKind.CONCAVE_AREA, 3,
                       config=config, init=init)
        assert report.termination is Termination.STATIONARY
        assert np.max(np.abs(report.final_knots.interior - [0.5, 1.0, 1.5])) < 1e-6

    def test_near_endpoint_cluster_is_a_known_trap(self):
        # knots crowded against b map to huge cone coordinates where the
        # substitution's chain factor crushes the gradient, so the solver can
        # stop at a point that is stationary in y but not in x; the
        # first-order diagnostic exposes such points
        from knotopt import kkt_check
        init = KnotVector(0.0, 2.0, np.array([1.7, 1.8, 1.9]))
        report = solve(make_hook(), ObjectiveKind.CONCAVE_AREA, 3, init=init)
        assert report.final_error <= report.initial_error + 1e-12
        if np.max(np.abs(report.final_knots.interior - [0.5, 1.0, 1.5])) > 1e-6:
            residual = kkt_check(make_hook(), report.final_knots).stationarity_residual
            assert residual > 1e-3


class TestBacktrackStep:
    def test_halving(self):
        assert backtrack_step(1.0, mode=Backtrack.HALVING) == 0.5

    def test_random_draw_in_range(self, rng):
        alpha = 1.0
        for _ in range(50):
            alpha_new = backtrack_step(alpha, rng, Backtrack.SEEDED_RANDOM)
            assert 0.0 <= alpha_new < alpha
            alpha = max(alpha_new, 1e-12)

    def test_random_needs_generator(self):
        with pytest.raises(ValueError):
            backtrack_step(1.0, None, Backtrack.SEEDED_RANDOM)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            backtrack_step(0.0, mode=Backtrack.HALVING)


class TestDeterminism:
    def test_identical_runs_identical_traces(self, catalog_by_name):
        entry = catalog_by_name["logistic2a"]
        reports = [
            solve(entry.curve, ObjectiveKind.GENERAL_SQUARED, 4,
                  a=entry.a, b=entry.b, config=SpgConfig(rng_seed=7))
            for _ in range(2)
        ]
        assert reports[0].objective_trace == reports[1].objective_trace
        assert_allclose(reports[0].final_knots.interior,
                        reports[1].final_knots.interior, rtol=0, atol=0)


class TestLineSearchContract:
    def test_armijo_slack_nonnegative_on_accepted_steps(self, catalog_by_name):
        entry = catalog_by_name["logistic2a"]
        report = solve(entry.curve, ObjectiveKind.GENERAL_SQUARED, 4,
                       a=entry.a, b=entry.b)
        assert len(report.accepted_alphas) > 0
        assert all(0.0 < alpha <= 1.0 for alpha in report.accepted_alphas)
        assert all(slack >= 0.0 for slack in report.armijo_slacks)

    def test_iterates_stay_in_cone_exactly(self, catalog_by_name):
        entry = catalog_by_name["logistic1a"]
        from knotopt import YObjective
        objective = YObjective(entry.curve, entry.a, entry.b,
                               kind=ObjectiveKind.CONCAVE_AREA)
        seen = []

        def value(y):
            seen.append(np.array(y))
            return objective.value(y)

        y0 = to_y(KnotVector(entry.a, entry.b, np.array([0.2, 0.3, 0.5, 1.9])))
        minimize_y(value, objective.grad, y0, SpgConfig(max_iter=60))
        assert len(seen) > 10
        for y in seen:
            assert y[0] >= -1e-15
            # trial points are convex combinations of exactly-feasible points
            assert np.all(np.diff(y) >= -1e-12 * np.maximum(1.0, np.abs(y[1:])))


class TestTermination:
    def test_max_iter(self, catalog_by_name):
        entry = catalog_by_name["gompertz1b"]
        config = SpgConfig(max_iter=3)
        report = solve(entry.curve, ObjectiveKind.GENERAL_SQUARED, 4,
                       a=entry.a, b=entry.b, config=config)
        assert report.termination is Termination.MAX_ITER
        assert report.iterations == 3

    def test_no_improvement_stall(self, catalog_by_name):
        entry = catalog_by_name["logistic1a"]
        config = SpgConfig(improvement_tol=1e30, stall_iters=5, max_iter=100)
        report = solve(entry.curve, ObjectiveKind.CONCAVE_AREA, 4,
                       a=entry.a, b=entry.b, config=config)
        assert report.termination is Termination.NO_IMPROVEMENT
        assert report.iterations == 5

    def test_line_search_underflow_returns_incumbent(self):
        # gradient deliberately points uphill so no step can be accepted
        value = lambda y: float(np.sum(y ** 2))
        grad = lambda y: -np.ones_like(y)
        result = minimize_y(value, grad, np.array([1.0, 2.0]), SpgConfig())
        assert result.termination is Termination.NO_IMPROVEMENT
        assert_allclose(result.y, [1.0, 2.0])

    def test_stationary_norm_bound(self):
        report = solve(make_hook(), ObjectiveKind.CONCAVE_AREA, 3, a=0.0, b=2.0,
                       init=KnotVector(0.0, 2.0, np.array([0.4, 1.0, 1.6])))
        assert report.termination is Termination.STATIONARY
        assert report.d_norm_trace[-1] <= SpgConfig().eps


class TestReports:
    def test_incumbent_guard(self, catalog):
        for entry in catalog[:6]:
            report = solve(entry.curve, ObjectiveKind.GENERAL_SQUARED, 4,
                           a=entry.a, b=entry.b, config=SpgConfig(max_iter=40))
            assert report.final_error <= report.initial_error + 1e-12

    def test_paper_literal_bb_rule_still_improves(self, catalog_by_name):
        entry = catalog_by_name["logistic1a"]
        config = SpgConfig(bb_rule=BbRule.PAPER_LITERAL)
        report = solve(entry.curve, ObjectiveKind.CONCAVE_AREA, 4,
                       a=entry.a, b=entry.b, config=config)
        assert report.final_error <= report.initial_error

    def test_final_knots_sorted_and_strictly_increasing(self, catalog_by_name):
        # strictly concave rows: interior optima keep all knots separated
        for name in ("logistic1a", "logistic2a", "gompertz1a", "weibull2a"):
            entry = catalog_by_name[name]
            report = solve(entry.curve, ObjectiveKind.CONCAVE_AREA, 4,
                           a=entry.a, b=entry.b)
            xs = report.final_knots.full()
            assert np.all(np.diff(xs) > 0.0), name

    def test_concave_solution_matches_derivative_free_oracle(self, catalog_by_name):
        from scipy.optimize import minimize as scipy_minimize
        entry = catalog_by_name["logistic1a"]
        from knotopt import phi

        def objective(inner):
            return phi(entry.curve, KnotVector(entry.a, entry.b, np.sort(inner)))

        oracle = scipy_minimize(objective, np.linspace(0.4, 1.6, 4),
                                method="Nelder-Mead",
                                options=dict(xatol=1e-10, fatol=1e-14,
                                             maxiter=20000, maxfev=20000))
        report = solve(entry.curve, ObjectiveKind.CONCAVE_AREA, 4,
                       a=entry.a, b=entry.b)
        assert_allclose(report.final_knots.interior, np.sort(oracle.x), atol=5e-6)

    def test_report_is_the_minimiser_result_plus_errors(self, catalog_by_name):
        entry = catalog_by_name["logistic2a"]
        report = solve(entry.curve, ObjectiveKind.GENERAL_SQUARED, 4,
                       a=entry.a, b=entry.b)
        assert isinstance(report, MinimizeResult)
        assert report.objective == min(report.objective_trace)
        assert report.final_error < report.initial_error
        assert np.array_equal(report.final_knots.interior,
                              from_y(report.y, entry.a, entry.b).interior)

    def test_objective_trace_starts_at_initial_point(self, catalog_by_name):
        entry = catalog_by_name["logistic1a"]
        report = solve(entry.curve, ObjectiveKind.CONCAVE_AREA, 4,
                       a=entry.a, b=entry.b)
        from knotopt import phi
        start = KnotVector.equally_spaced(entry.a, entry.b, 4)
        assert report.objective_trace[0] == pytest.approx(
            phi(entry.curve, start), rel=1e-13)


class TestValidation:
    def test_solver_error_on_nan_objective(self):
        value = lambda y: float("nan")
        grad = lambda y: np.zeros_like(y)
        with pytest.raises(SolverError):
            minimize_y(value, grad, np.array([1.0]), SpgConfig())

    def test_bad_dimensions(self):
        with pytest.raises(ValueError):
            solve(make_hook(), ObjectiveKind.CONCAVE_AREA, 0, a=0.0, b=2.0)
        with pytest.raises(ValueError):
            solve(make_hook(), ObjectiveKind.CONCAVE_AREA, 2,
                  init=KnotVector(0.0, 2.0, np.array([1.0])))

    def test_interval_required(self):
        with pytest.raises(ValueError):
            solve(make_hook(), ObjectiveKind.CONCAVE_AREA, 2)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SpgConfig(alpha_min=1.0, alpha_max=0.5)
        with pytest.raises(ValueError):
            SpgConfig(nu=2.0)

    @pytest.mark.parametrize("seed", [-1, 1.5, "7", None])
    def test_seed_must_be_a_nonnegative_integer(self, seed):
        with pytest.raises(ValueError, match="rng_seed"):
            SpgConfig(rng_seed=seed)
        assert SpgConfig(rng_seed=np.int64(0)).rng_seed == 0
