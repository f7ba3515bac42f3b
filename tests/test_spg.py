import dataclasses
from collections import Counter
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose

from knotopt import (KnotVector, MinimizeResult, ObjectiveKind, SolverError,
                     SpgConfig, Termination, YObjective, backtrack_step,
                     default_catalog, error_concave, from_y, kkt_check,
                     minimize_y, phi, solve, to_y)
from knotopt import spg

from helpers import QuadraticCurve

AREA = ObjectiveKind.CONCAVE_AREA


def make_hook():
    return QuadraticCurve(-1.0, 0.0, 4.0)  # -x^2 + 4, optimum is even spacing


def spg_on_area(curve, knots: KnotVector):
    """SPG on the area objective, which ``solve`` hands to Newton instead."""
    objective = YObjective(curve, knots.a, knots.b, AREA)
    return minimize_y(objective.value, objective.grad, to_y(knots), SpgConfig())


@pytest.fixture
def watched(monkeypatch):
    """Record what the solver asks of every ``YObjective``.

    ``values`` holds each objective value taken and ``valued`` the y it was
    taken at; ``points`` holds each y at which the gradient is asked for and
    ``last_valued`` the y of the value taken last before that call.  The
    solver asks for the gradient only at its start and at each accepted
    iterate, so ``accepted`` (the value taken last before each gradient call)
    is the sequence of accepted values.
    """
    log = SimpleNamespace(values=[], valued=[], points=[], last_valued=[],
                          accepted=[])
    value, grad = YObjective.value, YObjective.grad

    def watched_value(self, y):
        log.valued.append(np.array(y))
        log.values.append(value(self, y))
        return log.values[-1]

    def watched_grad(self, y):
        log.points.append(np.array(y))
        log.last_valued.append(log.valued[-1])
        log.accepted.append(log.values[-1])
        return grad(self, y)

    monkeypatch.setattr(YObjective, "value", watched_value)
    monkeypatch.setattr(YObjective, "grad", watched_grad)
    return log


@pytest.fixture
def counted(monkeypatch):
    """Count the solver's calls of ``project`` and ``backtrack_step``."""
    calls = Counter()

    def count(name):
        fn = getattr(spg, name)

        def counting(*args):
            calls[name] += 1
            return fn(*args)

        monkeypatch.setattr(spg, name, counting)

    count("project")
    count("backtrack_step")
    return calls


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

    def test_converges_from_start_near_b(self):
        init = KnotVector(0.0, 2.0, np.array([1.2, 1.5, 1.7]))
        report = solve(make_hook(), ObjectiveKind.CONCAVE_AREA, 3, init=init)
        assert report.termination is Termination.STATIONARY
        assert np.max(np.abs(report.final_knots.interior - [0.5, 1.0, 1.5])) < 1e-6

    def test_near_endpoint_cluster_is_a_known_trap(self):
        # for SPG's kinds, knots crowded against b map to huge cone
        # coordinates where the substitution's chain factor crushes the
        # gradient, so the solver can stop at a point that is stationary in y
        # but not in x; the first-order diagnostic exposes such points
        kind = ObjectiveKind.GENERAL_SQUARED   # even spacing is its optimum too
        init = KnotVector(0.0, 2.0, np.array([1.7, 1.8, 1.9]))
        report = solve(make_hook(), kind, 3, init=init)
        assert report.final_error <= report.initial_error + 1e-12
        if np.max(np.abs(report.final_knots.interior - [0.5, 1.0, 1.5])) > 1e-6:
            residual = kkt_check(make_hook(), report.final_knots,
                                 kind).stationarity_residual
            assert residual > 1e-3


CONCAVE_ROWS = [entry for entry in default_catalog() if entry.concave]


class TestNewton:
    # the Newton solver works in x, so knots crowded against b are no trap
    @pytest.mark.parametrize("start", [[0.1, 0.2, 0.3], [0.5, 0.5, 0.5],
                                       [0.0, 1.0, 2.0], [1.2, 1.5, 1.7],
                                       [1.7, 1.8, 1.9], [1.99, 1.995, 1.999]],
                             ids=["skewed", "tied", "on-bounds", "near-b",
                                  "right-cluster", "at-b"])
    def test_hook_reaches_even_spacing(self, start):
        init = KnotVector(0.0, 2.0, np.array(start))
        report = solve(make_hook(), AREA, 3, init=init)
        assert report.termination is Termination.STATIONARY
        assert report.iterations <= 10
        assert np.max(np.abs(report.final_knots.interior - [0.5, 1.0, 1.5])) < 1e-12

    def test_stationary_passes_kkt_at_the_stop_tolerance(self):
        for entry in CONCAVE_ROWS:
            for n in (4, 8, 16, 32):
                report = solve(entry.curve, AREA, n, a=entry.a, b=entry.b)
                assert report.termination is Termination.STATIONARY, (entry.name, n)
                knots = KnotVector(entry.a, entry.b, report.point)
                fv = entry.curve.value(knots.full())
                tol = spg.NEWTON_TOL * max(1.0, np.max(np.abs(fv)))
                residual = kkt_check(entry.curve, knots).stationarity_residual
                assert residual <= tol, (entry.name, n)

    def test_nan_value_names_the_point(self):
        class Holed(QuadraticCurve):
            def value(self, x):
                inside = (np.asarray(x) > 0.9) & (np.asarray(x) < 1.1)
                return np.where(inside, np.nan, super().value(x))

        init = KnotVector(0.0, 2.0, np.array([0.1, 0.2, 0.3]))
        with pytest.raises(SolverError, match="non-finite curve value") as caught:
            solve(Holed(-1.0, 0.0, 4.0), AREA, 3, init=init)
        point = caught.value.point
        assert np.any((point > 0.9) & (point < 1.1))

    @settings(derandomize=True, database=None, deadline=None, max_examples=60)
    @given(st.sampled_from(CONCAVE_ROWS),
           st.lists(st.floats(0.0, 1.0), min_size=1, max_size=40))
    def test_random_starts_never_end_worse(self, entry, unit):
        # scored by phi, which differs from the area error by the constant
        # integral of f, so the solver is judged without the gap quadrature
        a, b = entry.a, entry.b
        start = KnotVector(a, b, np.clip(a + (b - a) * np.sort(unit), a, b))
        result = spg.minimize_x(entry.curve, start)
        reached = KnotVector(a, b, result.point)   # ordered in [a, b]
        assert result.objective == phi(entry.curve, reached)
        assert result.objective <= phi(entry.curve, start) + 1e-12

    def test_no_worse_than_spg(self):
        for entry in CONCAVE_ROWS:
            for n in (4, 8):
                start = KnotVector.equally_spaced(entry.a, entry.b, n)
                newton = solve(entry.curve, AREA, n, init=start).final_error
                reached = from_y(spg_on_area(entry.curve, start).point,
                                 entry.a, entry.b)
                assert newton <= error_concave(entry.curve, reached), (entry.name, n)


class TestBacktrackStep:
    def test_random_draw_in_range(self, rng):
        alpha = 1.0
        for _ in range(50):
            alpha_new = backtrack_step(alpha, rng)
            assert 0.0 <= alpha_new < alpha
            alpha = max(alpha_new, 1e-12)

    def test_rejects_nonpositive(self, rng):
        with pytest.raises(ValueError):
            backtrack_step(0.0, rng)


class TestDeterminism:
    def test_identical_runs_identical_traces(self, catalog_by_name, watched):
        entry = catalog_by_name["logistic2a"]
        runs = []
        for _ in range(2):
            watched.values.clear()
            report = solve(entry.curve, ObjectiveKind.GENERAL_SQUARED, 4,
                           a=entry.a, b=entry.b, config=SpgConfig(rng_seed=7))
            runs.append((report.point.tobytes(), report.iterations,
                         report.termination, list(watched.values)))
        assert runs[0] == runs[1]


class TestLineSearchContract:
    def test_armijo_slack_nonnegative_on_accepted_steps(self, catalog_by_name,
                                                        watched):
        # nonmonotone Armijo along a descent direction: every accepted value
        # is strictly below the largest of the HISTORY + 1 accepted before it
        entry = catalog_by_name["logistic2a"]
        solve(entry.curve, ObjectiveKind.GENERAL_SQUARED, 4,
              a=entry.a, b=entry.b)
        accepted = watched.accepted
        assert len(accepted) > 10
        for k in range(1, len(accepted)):
            assert accepted[k] < max(accepted[max(0, k - spg.HISTORY - 1):k]), k

    def test_iterates_stay_in_cone_exactly(self, catalog_by_name, monkeypatch,
                                           watched, counted):
        # trial points are formed from cone points with monotone rounding, so
        # every point the objective sees is in the cone with no tolerance
        entry = catalog_by_name["gompertz2b"]   # backtracks under every kind
        y0 = to_y(KnotVector.equally_spaced(entry.a, entry.b, 4))
        monkeypatch.setattr(spg, "MAX_ITER", 60)
        for kind in ObjectiveKind:
            watched.valued.clear()
            watched.points.clear()
            counted.clear()
            objective = YObjective(entry.curve, entry.a, entry.b, kind)
            minimize_y(objective.value, objective.grad, y0, SpgConfig())
            assert counted["backtrack_step"] > 0, kind
            assert len(watched.valued) > 10, kind
            for y in watched.valued + watched.points:
                assert y[0] >= 0.0, kind
                assert np.all(np.diff(y) >= 0.0), kind

    def test_gradient_is_taken_where_the_value_was(self, catalog_by_name,
                                                   watched):
        entry = catalog_by_name["logistic1a"]
        for kind in ObjectiveKind:
            solve(entry.curve, kind, 4, a=entry.a, b=entry.b)
        assert len(watched.points) > 10
        for y, last in zip(watched.points, watched.last_valued, strict=True):
            assert y.tobytes() == last.tobytes()

    def test_one_projection_per_iteration(self, catalog_by_name, counted):
        # one at the start and one per iteration, the last of which may stop
        for name, kind in (("logistic1a", AREA),
                           ("logistic2a", ObjectiveKind.GENERAL_SQUARED),
                           ("gompertz1b", ObjectiveKind.INTERIOR_SQUARED)):
            entry = catalog_by_name[name]
            start = KnotVector.equally_spaced(entry.a, entry.b, 4)
            counted.clear()
            if kind is AREA:
                report = spg_on_area(entry.curve, start)
            else:
                report = solve(entry.curve, kind, 4, init=start)
            assert report.iterations > 10, name
            assert counted["project"] <= report.iterations + 2, name


class TestTermination:
    def test_max_iter(self, catalog_by_name, monkeypatch):
        entry = catalog_by_name["gompertz1b"]
        monkeypatch.setattr(spg, "MAX_ITER", 3)
        report = solve(entry.curve, ObjectiveKind.GENERAL_SQUARED, 4,
                       a=entry.a, b=entry.b)
        assert report.termination is Termination.MAX_ITER
        assert report.iterations == 3

    def test_no_improvement_stall(self, catalog_by_name, monkeypatch):
        entry = catalog_by_name["logistic1a"]
        monkeypatch.setattr(spg, "IMPROVEMENT_TOL", 1e30)
        monkeypatch.setattr(spg, "STALL_ITERS", 5)
        monkeypatch.setattr(spg, "MAX_ITER", 100)
        report = spg_on_area(entry.curve,
                             KnotVector.equally_spaced(entry.a, entry.b, 4))
        assert report.termination is Termination.NO_IMPROVEMENT
        assert report.iterations == 5

    def test_line_search_underflow_returns_incumbent(self):
        # gradient deliberately points uphill so no step can be accepted
        value = lambda y: float(np.sum(y ** 2))
        grad = lambda y: -np.ones_like(y)
        result = minimize_y(value, grad, np.array([1.0, 2.0]), SpgConfig())
        assert result.termination is Termination.NO_IMPROVEMENT
        assert_allclose(result.point, [1.0, 2.0])

    def test_stationary_norm_bound(self, watched, monkeypatch):
        # the last projection is the stationary iterate's step, taken from
        # the last point the gradient was asked at
        project, projections = spg.project, []

        def watched_project(v):
            projections.append(project(v))
            return projections[-1]

        monkeypatch.setattr(spg, "project", watched_project)
        report = spg_on_area(make_hook(),
                             KnotVector(0.0, 2.0, np.array([0.4, 1.0, 1.6])))
        assert report.termination is Termination.STATIONARY
        assert np.linalg.norm(projections[-1] - watched.points[-1]) <= spg.EPS


class TestReports:
    def test_incumbent_guard(self, catalog, monkeypatch):
        monkeypatch.setattr(spg, "MAX_ITER", 40)
        for entry in catalog[:6]:
            report = solve(entry.curve, ObjectiveKind.GENERAL_SQUARED, 4,
                           a=entry.a, b=entry.b)
            assert report.final_error <= report.initial_error + 1e-12

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

        def objective(inner):
            return phi(entry.curve, KnotVector(entry.a, entry.b, np.sort(inner)))

        oracle = scipy_minimize(objective, np.linspace(0.4, 1.6, 4),
                                method="Nelder-Mead",
                                options=dict(xatol=1e-10, fatol=1e-14,
                                             maxiter=20000, maxfev=20000))
        report = solve(entry.curve, ObjectiveKind.CONCAVE_AREA, 4,
                       a=entry.a, b=entry.b)
        assert_allclose(report.final_knots.interior, np.sort(oracle.x), atol=5e-6)

    def test_report_is_the_minimiser_result_plus_errors(self, catalog_by_name,
                                                        watched):
        # logistic1a's last accepted value is not its best: nonmonotone steps
        for name in ("logistic2a", "logistic1a"):
            entry = catalog_by_name[name]
            watched.accepted.clear()
            report = solve(entry.curve, ObjectiveKind.GENERAL_SQUARED, 4,
                           a=entry.a, b=entry.b)
            assert isinstance(report, MinimizeResult)
            assert report.objective == min(watched.accepted), name
            assert report.final_error < report.initial_error, name
            assert np.array_equal(report.final_knots.interior,
                                  from_y(report.point, entry.a, entry.b).interior)

    def test_objective_trace_starts_at_initial_point(self, catalog_by_name,
                                                     watched):
        entry = catalog_by_name["logistic1a"]
        start = KnotVector.equally_spaced(entry.a, entry.b, 4)
        spg_on_area(entry.curve, start)
        assert watched.values[0] == pytest.approx(
            phi(entry.curve, start), rel=1e-13)


class TestValidation:
    def test_solver_error_on_nan_objective(self):
        value = lambda y: float("nan")
        grad = lambda y: np.zeros_like(y)
        with pytest.raises(SolverError):
            minimize_y(value, grad, np.array([1.0]), SpgConfig())

    def test_solver_error_names_the_trial_point(self):
        # the value is finite only at the start, so the first trial point,
        # p = project(y0 - g) with the unit first step, is the one that fails
        y0 = np.array([1.0, 3.0])
        value = lambda y: 0.0 if np.array_equal(y, y0) else float("nan")
        grad = lambda y: np.array([0.5, -1.0])
        with pytest.raises(SolverError, match="at iteration 0") as caught:
            minimize_y(value, grad, y0, SpgConfig())
        assert caught.value.iteration == 0
        assert np.array_equal(caught.value.point, [0.5, 4.0])

    def test_bad_dimensions(self):
        with pytest.raises(ValueError):
            solve(make_hook(), ObjectiveKind.CONCAVE_AREA, 0, a=0.0, b=2.0)
        with pytest.raises(ValueError):
            solve(make_hook(), ObjectiveKind.CONCAVE_AREA, 2,
                  init=KnotVector(0.0, 2.0, np.array([1.0])))

    def test_interval_required(self):
        with pytest.raises(ValueError):
            solve(make_hook(), ObjectiveKind.CONCAVE_AREA, 2)

    def test_bounds_must_agree_with_init(self):
        init = KnotVector(0.0, 1.0, np.array([0.2, 0.5, 0.8]))
        for bounds in (dict(a=5.0, b=9.0), dict(a=5.0), dict(b=9.0),
                       dict(a=0.0, b=2.0)):
            with pytest.raises(ValueError, match="init's interval"):
                solve(make_hook(), ObjectiveKind.CONCAVE_AREA, 3, init=init,
                      **bounds)
        for bounds in (dict(), dict(a=0.0, b=1.0), dict(a=0, b=1)):
            report = solve(make_hook(), ObjectiveKind.CONCAVE_AREA, 3,
                           init=init, **bounds)
            assert (report.final_knots.a, report.final_knots.b) == (0.0, 1.0)

    def test_seed_is_the_only_setting(self):
        assert [f.name for f in dataclasses.fields(SpgConfig)] == ["rng_seed"]

    @pytest.mark.parametrize("seed", [-1, 1.5, "7", None])
    def test_seed_must_be_a_nonnegative_integer(self, seed):
        with pytest.raises(ValueError, match="rng_seed"):
            SpgConfig(rng_seed=seed)
        assert SpgConfig(rng_seed=np.int64(0)).rng_seed == 0
