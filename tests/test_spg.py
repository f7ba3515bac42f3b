import dataclasses
import warnings
from collections import Counter
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays
from numpy.testing import assert_allclose

from knotopt import (Curve, CurveFamily, KnotVector, MinimizeResult,
                     ObjectiveKind, QuadratureError, SolverError, SpgConfig,
                     Termination, YObjective, backtrack_step, default_catalog,
                     error_concave, from_y, kkt_check, minimize_y, phi, project,
                     solve, to_y)
from knotopt import objective, pl, spg
from knotopt.objective import evaluate, grad_x
from knotopt.pl import equidistributed, window_gaps

from helpers import HoledCurve, QuadraticCurve, f2_zeros, sequential_ldlt_solve

AREA = ObjectiveKind.CONCAVE_AREA
GENERAL = ObjectiveKind.GENERAL_SQUARED
SQUARED = [GENERAL, ObjectiveKind.INTERIOR_SQUARED]


def make_hook():
    return QuadraticCurve(-1.0, 0.0, 4.0)  # -x^2 + 4, optimum is even spacing


def spg_in_y(curve, knots: KnotVector, kind: ObjectiveKind = AREA,
             config: SpgConfig = SpgConfig()):
    """SPG on the kind's objective in y; ``solve`` runs Newton in x instead."""
    objective = YObjective(curve, knots.a, knots.b, kind)
    return minimize_y(objective.value, objective.grad, to_y(knots), config)


def equal_start(entry, n: int = 4) -> KnotVector:
    return KnotVector.equally_spaced(entry.a, entry.b, n)


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

    # Newton is called directly from here on: solve would start the area
    # kind at equidistributed knots, which are the hook's optimum
    def test_converges_from_skewed_start(self):
        init = KnotVector(0.0, 2.0, np.array([0.1, 0.2, 0.3]))
        result = spg.minimize_x(make_hook(), init, AREA)
        assert result.termination is Termination.STATIONARY
        assert result.iterations < 200
        assert np.max(np.abs(result.point - [0.5, 1.0, 1.5])) < 1e-6

    def test_converges_from_start_near_b(self):
        init = KnotVector(0.0, 2.0, np.array([1.2, 1.5, 1.7]))
        result = spg.minimize_x(make_hook(), init, AREA)
        assert result.termination is Termination.STATIONARY
        assert np.max(np.abs(result.point - [0.5, 1.0, 1.5])) < 1e-6

    def test_criterion_4_skewed_start_in_newton(self):
        # acceptance criterion 4's start, without solve's choice of start
        init = KnotVector(0.0, 2.0, np.array([0.15, 0.25, 0.4]))
        result = spg.minimize_x(make_hook(), init, AREA)
        assert result.termination is Termination.STATIONARY
        assert result.iterations < 200
        assert np.max(np.abs(result.point - [0.5, 1.0, 1.5])) < 1e-6

    def test_near_endpoint_cluster_is_a_known_trap(self):
        # for SPG in y, knots crowded against b map to huge cone
        # coordinates where the substitution's chain factor crushes the
        # gradient, so the solver can stop at a point that is stationary in y
        # but not in x; the first-order diagnostic exposes such points
        kind = GENERAL   # even spacing is its optimum too
        init = KnotVector(0.0, 2.0, np.array([1.7, 1.8, 1.9]))
        reached = from_y(spg_in_y(make_hook(), init, kind).point, 0.0, 2.0)
        assert kind.error(make_hook(), reached) \
            <= kind.error(make_hook(), init) + 1e-12
        if np.max(np.abs(reached.interior - [0.5, 1.0, 1.5])) > 1e-6:
            residual = kkt_check(make_hook(), reached, kind).stationarity_residual
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
        result = spg.minimize_x(make_hook(), init, AREA)
        assert result.termination is Termination.STATIONARY
        assert result.iterations <= 10
        assert np.max(np.abs(result.point - [0.5, 1.0, 1.5])) < 1e-12

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

    @pytest.mark.parametrize("kind", [AREA, GENERAL], ids=lambda kind: kind.value)
    def test_nan_value_names_the_point(self, kind):
        class Holed(QuadraticCurve):
            def value(self, x):
                inside = (np.asarray(x) > 0.9) & (np.asarray(x) < 1.1)
                return np.where(inside, np.nan, super().value(x))

        init = KnotVector(0.0, 2.0, np.array([0.1, 0.2, 0.3]))
        with pytest.raises(SolverError, match="non-finite curve value") as caught:
            solve(Holed(-1.0, 0.0, 4.0), kind, 3, init=init)
        point = caught.value.point
        assert np.any((point > 0.9) & (point < 1.1))

    @pytest.mark.parametrize("kind", list(ObjectiveKind), ids=lambda kind: kind.value)
    def test_nan_derivative_names_the_point(self, kind):
        class Kinked(QuadraticCurve):
            def deriv1(self, x):
                inside = (np.asarray(x) > 0.9) & (np.asarray(x) < 1.1)
                return np.where(inside, np.nan, super().deriv1(x))

        init = KnotVector(0.0, 2.0, np.array([0.5, 1.0, 1.5]))
        with pytest.raises(SolverError,
                           match="^non-finite derivative at iteration 0$") as caught:
            solve(Kinked(-1.0, 0.0, 4.0), kind, 3, init=init)
        assert np.array_equal(caught.value.point, init.interior)

    @pytest.mark.parametrize("kind", list(ObjectiveKind), ids=lambda kind: kind.value)
    def test_max_iter_ends_at_the_last_point(self, catalog_by_name, monkeypatch,
                                             kind):
        entry = catalog_by_name["gompertz1b"]
        monkeypatch.setattr(spg, "NEWTON_MAX_ITER", 2)
        report = solve(entry.curve, kind, 8, a=entry.a, b=entry.b)
        assert report.termination is Termination.MAX_ITER
        assert report.iterations == 2
        assert report.final_error <= report.initial_error
        xs = KnotVector(entry.a, entry.b, report.point).full()
        assert report.objective == evaluate(entry.curve, kind, xs)[2]

    def test_nan_curvature_stops_the_solve(self):
        # a NaN f'' would make the damping's scale NaN, and the model solve
        # would then fail for every damping tried
        class Flat(QuadraticCurve):
            def deriv2(self, x):
                return np.full_like(np.asarray(x, dtype=float), np.nan)

        # called directly: solve's equidistributed start rejects a NaN f''
        init = KnotVector(0.0, 2.0, np.array([0.1, 0.2, 0.3]))
        with pytest.raises(SolverError,
                           match="non-finite curvature at iteration 0") as caught:
            spg.minimize_x(Flat(-1.0, 0.0, 4.0), init, AREA)
        assert np.array_equal(caught.value.point, init.interior)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("init", [None, [0.1, 0.2, 0.3]], ids=["no-init", "init"])
    def test_non_finite_f2_fails_the_area_start(self, bad, init):
        # with or without init, the area kind forms equidistributed knots
        if init is not None:
            init = KnotVector(0.0, 2.0, np.array(init))
        with pytest.raises(QuadratureError, match="^non-finite f'' at x=1.2109375 "):
            solve(HoledCurve(bad), AREA, 3, init=init, a=0.0, b=2.0)

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

    @pytest.mark.parametrize("kind", list(ObjectiveKind), ids=lambda kind: kind.value)
    def test_knot_vectors_are_built_only_at_the_boundary(self, catalog_by_name,
                                                         monkeypatch, kind):
        # the loop carries breakpoint arrays, which the projection keeps
        # ordered: only solve's baseline, Newton's start (the area kind's
        # own) and the final knots are checked
        built = []
        check = KnotVector.__post_init__

        def counting(self):
            built.append(self)
            check(self)

        entry = catalog_by_name["gompertz1b"]
        start = equal_start(entry, 8)
        if kind is AREA:
            start = equidistributed(entry.curve, entry.a, entry.b, 8)
        monkeypatch.setattr(KnotVector, "__post_init__", counting)
        result = spg.minimize_x(entry.curve, start, kind)
        assert result.iterations > 0 and built == []
        report = solve(entry.curve, kind, 8, a=entry.a, b=entry.b)
        assert report.iterations == result.iterations
        assert np.array_equal(report.point, result.point)
        assert len(built) == (3 if kind is AREA else 2)
        assert built[-1] is report.final_knots
        if kind is AREA:
            assert np.array_equal(built[1].interior, start.interior)

    def test_no_worse_than_spg(self):
        for entry in CONCAVE_ROWS:
            for n in (4, 8):
                start = KnotVector.equally_spaced(entry.a, entry.b, n)
                newton = solve(entry.curve, AREA, n, init=start).final_error
                reached = from_y(spg_in_y(entry.curve, start).point,
                                 entry.a, entry.b)
                assert newton <= error_concave(entry.curve, reached), (entry.name, n)


class TestGaussNewton:
    """The squared kinds in x: Gauss-Newton on the gaps of the kind's window."""

    @pytest.mark.parametrize("kind", SQUARED, ids=lambda kind: kind.value)
    @pytest.mark.parametrize("name", ["logistic1a", "gompertz2b", "weibull2b",
                                      "arctan3b"])
    def test_bands_are_two_jtj_of_the_gap_jacobian(self, catalog_by_name,
                                                   name, kind):
        entry, n = catalog_by_name[name], 5
        width = (entry.b - entry.a) / (n + 1)
        xs = equal_start(entry, n).full()
        xs[1:-1] += np.random.default_rng(3).uniform(-0.3, 0.3, n) * width
        window = kind.window(n)
        fv, gaps, _ = evaluate(entry.curve, kind, xs)
        fp = entry.curve.deriv1(xs[1:-1])
        _, brackets = objective._gradient(xs, fv, gaps, fp)
        diag, off = objective._model(entry.curve, kind, xs, fp, brackets)

        step = 1e-6 * width
        jac = np.empty((n + 1, n))
        for i in range(n):
            up, down = xs.copy(), xs.copy()
            up[i + 1] += step
            down[i + 1] -= step
            jac[:, i] = (window_gaps(entry.curve, up, *window)
                         - window_gaps(entry.curve, down, *window)) / (2 * step)
        want = 2.0 * jac.T @ jac
        bands = np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)
        assert_allclose(bands, want, rtol=0, atol=1e-6 * np.max(np.abs(want)))

    @staticmethod
    def recorded_steps(entry, kind, monkeypatch):
        """Each (xs, g) and each (xs, model) of a Newton solve from equal knots.

        Newton takes the gradient at every step, the one that stops
        included, and forms the model only for each step it takes.
        """
        gradients, models = [], []

        def gradient(xs, *cached):
            gradients.append((xs, objective._gradient(xs, *cached)))
            return gradients[-1][1]

        def model(curve, kind, xs, *cached):
            models.append((xs, objective._model(curve, kind, xs, *cached)))
            return models[-1][1]

        monkeypatch.setattr(spg, "_gradient", gradient)
        monkeypatch.setattr(spg, "_model", model)
        report = solve(entry.curve, kind, 4, a=entry.a, b=entry.b)
        assert report.termination is Termination.STATIONARY
        assert len(gradients) == report.iterations + 1 > 1
        assert len(models) == report.iterations
        return gradients, models

    @pytest.mark.parametrize("kind", SQUARED, ids=lambda kind: kind.value)
    def test_gradient_is_grad_x_bit_for_bit(self, catalog_by_name, monkeypatch,
                                            kind):
        # the loop hands _gradient the f, gaps and f' it already has; the
        # gradient must be grad_x's at the same knots
        entry = catalog_by_name["gompertz1b"]
        gradients, _ = self.recorded_steps(entry, kind, monkeypatch)
        for xs, (g, _) in gradients:
            assert g.tobytes() == grad_x(entry.curve, kind, xs).tobytes()

    @pytest.mark.parametrize("kind", list(ObjectiveKind), ids=lambda kind: kind.value)
    def test_bands_are_model_bands_bit_for_bit(self, catalog_by_name, monkeypatch,
                                               kind):
        # the gradient and bands Newton uses must be _gradient's and
        # _model's, computed afresh at the same knots
        entry = catalog_by_name["gompertz1b"]
        gradients, models = self.recorded_steps(entry, kind, monkeypatch)
        for (xs, (g, _)), (model_xs, model) in zip(gradients, models):
            assert model_xs is xs
            fv, gaps, _ = evaluate(entry.curve, kind, xs)
            fp = entry.curve.deriv1(xs[1:-1])
            g_fresh, brackets = objective._gradient(xs, fv, gaps, fp)
            fresh = (g_fresh, *objective._model(entry.curve, kind, xs, fp, brackets))
            assert [part.tobytes() for part in (g, *model)] \
                == [part.tobytes() for part in fresh]

    @pytest.mark.parametrize("kind", SQUARED, ids=lambda kind: kind.value)
    def test_errors_are_the_measure_bit_for_bit(self, catalog, kind):
        # a squared kind reports the solve's own values at the start and at
        # the end, which must be its measure there to the last bit
        def bits(value):
            return np.float64(value).tobytes()

        starts = [(entry, equal_start(entry, n)) for entry in catalog for n in (4, 8)]
        entry, rng = catalog[0], np.random.default_rng(11)
        xs = np.sort(rng.uniform(entry.a, entry.b, 6))
        starts.append((entry, KnotVector(entry.a, entry.b, xs)))
        for entry, start in starts:
            report = solve(entry.curve, kind, start.n, init=start)
            assert bits(report.initial_error) \
                == bits(kind.error(entry.curve, start)), (entry.name, start.n)
            assert bits(report.final_error) \
                == bits(kind.error(entry.curve, report.final_knots)), \
                (entry.name, start.n)

    @pytest.mark.parametrize("kind", SQUARED, ids=lambda kind: kind.value)
    def test_each_point_is_integrated_once(self, catalog_by_name, monkeypatch,
                                           kind):
        # solve re-integrates neither its start nor its end
        calls = Counter()

        def counting(name, fn):
            def counted(*args):
                calls[name] += 1
                return fn(*args)
            return counted

        monkeypatch.setattr(pl, "integrate_segments",
                            counting("kernel", pl.integrate_segments))
        monkeypatch.setattr(spg, "evaluate", counting("evaluate", evaluate))
        entry = catalog_by_name["weibull2b"]
        solve(entry.curve, kind, 8, a=entry.a, b=entry.b)
        assert calls["evaluate"] > 1
        assert calls["kernel"] == calls["evaluate"]

    def test_area_kind_measures_start_and_end(self, catalog_by_name, monkeypatch):
        # phi is not the area kind's measure, so solve still measures twice
        measured = []

        def counting(curve, knots):
            measured.append(knots)
            return error_concave(curve, knots)

        monkeypatch.setattr(pl, "error_concave", counting)
        entry = catalog_by_name["logistic1a"]
        report = solve(entry.curve, AREA, 8, a=entry.a, b=entry.b)
        assert len(measured) == 2 and measured[1] is report.final_knots

    def test_catalog_auto_cells_end_stationary(self, catalog):
        for entry in catalog:
            for n in (4, 8):
                report = solve(entry.curve, ObjectiveKind.INTERIOR_SQUARED, n,
                               a=entry.a, b=entry.b)
                assert report.termination is Termination.STATIONARY, (entry.name, n)
                assert report.final_error <= report.initial_error, (entry.name, n)
                assert report.objective == report.final_error, (entry.name, n)

    @pytest.mark.parametrize("kind", SQUARED, ids=lambda kind: kind.value)
    def test_two_solves_are_byte_identical(self, catalog_by_name, kind):
        entry = catalog_by_name["weibull2b"]
        runs = [solve(entry.curve, kind, 8, a=entry.a, b=entry.b) for _ in range(2)]
        keys = [(r.point.tobytes(), r.objective, r.iterations, r.termination,
                 r.final_error) for r in runs]
        assert keys[0] == keys[1]

    def test_degenerate_cases_stop_at_once(self, catalog):
        # the hook's midpoint is stationary for the general kind by symmetry
        report = solve(make_hook(), GENERAL, 1, a=0.0, b=2.0)
        assert report.termination is Termination.STATIONARY
        assert report.iterations == 0
        for entry in catalog:
            # one knot leaves `auto` no interior segment, so no error
            report = solve(entry.curve, ObjectiveKind.INTERIOR_SQUARED, 1,
                           a=entry.a, b=entry.b)
            assert report.termination is Termination.STATIONARY, entry.name
            assert (report.iterations, report.final_error) == (0, 0.0), entry.name
            report = solve(entry.curve, GENERAL, 1, a=entry.a, b=entry.b)
            assert report.final_error <= report.initial_error, entry.name

    def test_right_cluster_is_no_trap_in_x(self):
        # the start that traps SPG in y (TestQuadraticHook)
        init = KnotVector(0.0, 2.0, np.array([1.7, 1.8, 1.9]))
        report = solve(make_hook(), GENERAL, 3, init=init)
        assert report.termination is Termination.STATIONARY
        assert np.max(np.abs(report.final_knots.interior - [0.5, 1.0, 1.5])) < 1e-6

    def test_held_model_is_the_model_on_the_runs(self):
        probe = np.array([0.0, 0.3, 0.3, 0.5, 0.7, 0.7, 0.7, 1.0])
        rng = np.random.default_rng(5)
        diag, off = rng.uniform(1, 2, 8), rng.uniform(-0.4, 0.4, 7)
        g = rng.normal(size=8)
        held_diag, held_off, held_g, runs = spg._held_model(probe, 0.0, 1.0,
                                                            diag, off, g)
        assert runs.tolist() == [-1, 0, 0, 1, 2, 2, 2, -1]
        hessian = np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)
        copy = np.zeros((8, 3))   # P: a run's step to its knots
        copy[runs >= 0, runs[runs >= 0]] = 1.0
        held = np.diag(held_diag) + np.diag(held_off, 1) + np.diag(held_off, -1)
        assert_allclose(held, copy.T @ hessian @ copy, rtol=1e-15)
        assert_allclose(held_g, copy.T @ g, rtol=1e-15)
        step = rng.normal(size=3)
        assert np.append(step, 0.0)[runs].tolist() == (copy @ step).tolist()
        # every knot at a or b: an empty model, which the loop reads as stationary
        empty = spg._held_model(np.array([0.0, 0.0, 1.0]), 0.0, 1.0,
                                diag[:3], off[:2], g[:3])
        assert [part.size for part in empty[:3]] == [0, 0, 0]
        assert empty[3].tolist() == [-1, -1, -1]

    def test_general_cells_end_stationary(self, catalog):
        for entry in catalog:
            for n in (4, 8):
                report = solve(entry.curve, GENERAL, n, a=entry.a, b=entry.b)
                assert report.termination is Termination.STATIONARY, (entry.name, n)
                assert report.final_error <= report.initial_error, (entry.name, n)

    @pytest.mark.parametrize("name, n", [("gompertz2b", 4), ("gompertz1b", 8),
                                         ("gompertz3b", 8), ("weibull1b", 8)])
    def test_tied_knots_no_worse_than_spg(self, catalog_by_name, name, n):
        # cells whose unheld model step pooled tied knots into an ascent, so
        # that Newton stopped above SPG's error
        entry = catalog_by_name[name]
        start = equal_start(entry, n)
        newton = solve(entry.curve, GENERAL, n, init=start).final_error
        reached = from_y(spg_in_y(entry.curve, start, GENERAL).point,
                         entry.a, entry.b)
        assert newton <= GENERAL.error(entry.curve, reached)


def _fail(v):
    raise AssertionError("project was called")


class TestOntoKnots:
    """Newton's projection onto the knots, and its path that skips ``project``."""

    @staticmethod
    def via_project(v, a, b):
        return np.minimum(project(v - a) + a, b)

    @pytest.mark.parametrize("seed", range(6))
    def test_ordered_input_skips_project_bit_for_bit(self, monkeypatch, seed):
        rng = np.random.default_rng(seed)
        a, b = np.sort(rng.uniform(-3.0, 3.0, 2))
        inputs = [
            np.sort(rng.uniform(a, b, 8)),                                # ordered
            np.repeat(np.sort(rng.uniform(a, b, 4)), 2),                  # tied
            np.concatenate(([a, a], np.sort(rng.uniform(a, b, 6)))),      # at a
            np.concatenate((np.sort(rng.uniform(a, b, 6)), [b, b])),      # at b
            np.sort(rng.uniform(a, 2.0 * b - a, 8)),                      # past b
            np.array([a]),
        ]
        want = [self.via_project(v, a, b) for v in inputs]
        monkeypatch.setattr(spg, "project", _fail)
        for v, expected in zip(inputs, want):
            assert spg._onto_knots(v, a, b).tobytes() == expected.tobytes()

    @pytest.mark.parametrize("a, v", [
        (0.0, [-0.0, 0.0, 0.5]), (-0.0, [0.0, -0.0, 0.5]), (-0.0, [-0.0, -0.0]),
        (0.0, [0.0, 0.0]), (-1.0, [-1.0, -0.0, 0.0, 1.0])], ids=str)
    def test_signed_zeros_keep_projects_bits(self, monkeypatch, a, v):
        v = np.array(v)
        expected = self.via_project(v, a, 1.0)
        monkeypatch.setattr(spg, "project", _fail)
        assert spg._onto_knots(v, a, 1.0).tobytes() == expected.tobytes()

    def test_other_input_goes_through_project(self, monkeypatch):
        # a descent or a knot below a is projected; a non-finite entry
        # raises project's error
        calls = []

        def counting(v):
            calls.append(v)
            return project(v)

        monkeypatch.setattr(spg, "project", counting)
        for v in ([0.5, 0.4, 0.9], [-0.1, 0.2, 0.3], [0.3, -2.0], [-0.5]):
            v = np.array(v)
            got = spg._onto_knots(v, 0.0, 1.0)
            assert got.tobytes() == self.via_project(v, 0.0, 1.0).tobytes()
        assert len(calls) == 4
        for bad in ([0.1, np.nan, 0.3], [0.1, 0.2, np.inf], [np.nan], [np.inf],
                    [-np.inf, 0.5], [0.2, np.nan]):
            with pytest.raises(ValueError, match="input must be finite"):
                spg._onto_knots(np.array(bad), 0.0, 1.0)
        with pytest.raises(ValueError, match="nonempty"):
            spg._onto_knots(np.empty(0), 0.0, 1.0)
        assert len(calls) == 11


class CountingCurve:
    """A catalog curve that counts its f'' calls."""

    def __init__(self, curve):
        self.curve = curve
        self.value = curve.value
        self.deriv1 = curve.deriv1
        self.f2_calls = 0

    def deriv2(self, x):
        self.f2_calls += 1
        return self.curve.deriv2(x)


class TestModelOnlyForStepsTaken:
    """Newton tests its stop on the gradient and forms no model for that step."""

    @pytest.mark.parametrize("name, n", [("logistic1a", 8), ("gompertz1a", 4),
                                         ("weibull2a", 16), ("logistic3a", 32)])
    def test_area_kind_evaluates_f2_once_per_step(self, catalog_by_name, name, n):
        # called directly: solve's equidistributed start samples f'' too
        entry = catalog_by_name[name]
        counting = CountingCurve(entry.curve)
        report = spg.minimize_x(counting, equal_start(entry, n), AREA)
        assert report.termination is Termination.STATIONARY
        assert counting.f2_calls == report.iterations > 0

    @pytest.mark.parametrize("kind", SQUARED, ids=lambda kind: kind.value)
    @pytest.mark.parametrize("name, n", [("logistic1a", 4), ("gompertz2b", 8),
                                         ("arctan3b", 8)])
    def test_squared_kind_forms_one_model_per_step(self, catalog_by_name,
                                                   monkeypatch, kind, name, n):
        formed = []

        def model(*args):
            formed.append(args)
            return objective._model(*args)

        monkeypatch.setattr(spg, "_model", model)
        entry = catalog_by_name[name]
        report = spg.minimize_x(entry.curve, equal_start(entry, n), kind)
        assert report.termination is Termination.STATIONARY
        assert len(formed) == report.iterations > 0


@st.composite
def tridiagonal_systems(draw):
    """Bands and a right-hand side: positive definite, indefinite or singular."""
    n = draw(st.integers(1, 300))
    entries = st.floats(-10.0, 10.0)
    off = draw(arrays(float, n - 1, elements=entries))
    shape = draw(st.sampled_from(["definite", "indefinite", "singular"]))
    if shape == "definite":   # strictly diagonally dominant
        margin = draw(arrays(float, n, elements=st.floats(1e-3, 10.0)))
        diag = margin + np.abs(np.append(off, 0.0)) + np.abs(np.append(0.0, off))
    elif shape == "indefinite":
        diag = draw(arrays(float, n, elements=entries))
    else:   # a path graph's Laplacian: every row sums to zero
        diag = np.abs(np.append(off, 0.0)) + np.abs(np.append(0.0, off))
        off = -np.abs(off)
    return diag, off, draw(arrays(float, n, elements=st.floats(-1e3, 1e3)))


class TestTridiagonalSweep:
    @settings(derandomize=True, database=None, deadline=None, max_examples=300)
    @given(tridiagonal_systems())
    def test_matches_the_indexed_sweep(self, system):
        got, want = spg._solve_tridiagonal(*system), sequential_ldlt_solve(*system)
        assert (got is None) == (want is None)
        if want is not None:
            assert got.tobytes() == want.tobytes()

    def test_singular_and_indefinite_bands_have_no_solve(self):
        rhs = np.ones(3)
        laplacian = (np.array([1.0, 2.0, 1.0]), np.array([-1.0, -1.0]))
        assert spg._solve_tridiagonal(*laplacian, rhs) is None
        assert spg._solve_tridiagonal(np.array([1.0, -1.0, 1.0]),
                                      np.zeros(2), rhs) is None
        assert spg._solve_tridiagonal(np.array([0.0]), np.zeros(0),
                                      rhs[:1]) is None


class TestHeldRunsForTheAreaKind:
    # weibull1a is concave-flagged but not concave on its interval, so its
    # area optimum ties knots and presses them against b.  The errors that
    # the unheld model reached from these starts, ending NoImprovement or
    # MaxIter:
    UNHELD_ERRORS = {(42, 64): -0.0004441329793983341,
                     (42, 256): -0.0004780822007461497,
                     (7, 64): -0.0004398561921456415,
                     (7, 256): -0.0004729436590907247}

    @pytest.mark.parametrize("seed, n", list(UNHELD_ERRORS))
    def test_weibull1a_random_starts_end_stationary(self, seed, n):
        # the many-knots benchmark's start: sorted uniform from
        # rng([seed, row, n]), row the index among the concave-flagged rows
        row = [entry.name for entry in CONCAVE_ROWS].index("weibull1a")
        entry = CONCAVE_ROWS[row]
        rng = np.random.default_rng([seed, row, n])
        init = KnotVector(entry.a, entry.b, np.sort(rng.uniform(entry.a, entry.b, n)))
        # Newton directly: solve would start at the equidistributed knots
        result = spg.minimize_x(entry.curve, init, AREA)
        assert result.termination is Termination.STATIONARY
        reached = KnotVector(entry.a, entry.b, result.point)
        assert AREA.error(entry.curve, reached) < self.UNHELD_ERRORS[seed, n]


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
            result = spg_in_y(entry.curve, equal_start(entry), GENERAL,
                              SpgConfig(rng_seed=7))
            runs.append((result.point.tobytes(), result.iterations,
                         result.termination, list(watched.values)))
        assert runs[0] == runs[1]


class TestLineSearchContract:
    def test_armijo_slack_nonnegative_on_accepted_steps(self, catalog_by_name,
                                                        watched):
        # nonmonotone Armijo along a descent direction: every accepted value
        # is strictly below the largest of the HISTORY + 1 accepted before it
        entry = catalog_by_name["logistic2a"]
        spg_in_y(entry.curve, equal_start(entry), GENERAL)
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
            spg_in_y(entry.curve, equal_start(entry), kind)
        assert len(watched.points) > 10
        for y, last in zip(watched.points, watched.last_valued, strict=True):
            assert y.tobytes() == last.tobytes()

    def test_one_projection_per_iteration(self, catalog_by_name, counted):
        # one at the start and one per iteration, the last of which may stop
        for name, kind in (("logistic1a", AREA),
                           ("logistic2a", GENERAL),
                           ("gompertz1b", ObjectiveKind.INTERIOR_SQUARED)):
            entry = catalog_by_name[name]
            counted.clear()
            report = spg_in_y(entry.curve, equal_start(entry), kind)
            assert report.iterations > 10, name
            assert counted["project"] <= report.iterations + 2, name


class TestTermination:
    def test_max_iter(self, catalog_by_name, monkeypatch):
        entry = catalog_by_name["gompertz1b"]
        monkeypatch.setattr(spg, "MAX_ITER", 3)
        report = spg_in_y(entry.curve, equal_start(entry), GENERAL)
        assert report.termination is Termination.MAX_ITER
        assert report.iterations == 3

    def test_no_improvement_stall(self, catalog_by_name, monkeypatch):
        entry = catalog_by_name["logistic1a"]
        monkeypatch.setattr(spg, "IMPROVEMENT_TOL", 1e30)
        monkeypatch.setattr(spg, "STALL_ITERS", 5)
        monkeypatch.setattr(spg, "MAX_ITER", 100)
        report = spg_in_y(entry.curve, equal_start(entry))
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
        report = spg_in_y(make_hook(),
                          KnotVector(0.0, 2.0, np.array([0.4, 1.0, 1.6])))
        assert report.termination is Termination.STATIONARY
        assert np.linalg.norm(projections[-1] - watched.points[-1]) <= spg.EPS


class TestReports:
    def test_incumbent_guard(self, catalog, monkeypatch):
        # SPG returns its best point, so a cut-short run is no worse than
        # its start in the measure, up to the round trip through y
        monkeypatch.setattr(spg, "MAX_ITER", 40)
        for entry in catalog[:6]:
            start = equal_start(entry)
            result = spg_in_y(entry.curve, start, GENERAL)
            final_error = GENERAL.error(entry.curve,
                                        from_y(result.point, entry.a, entry.b))
            assert final_error <= GENERAL.error(entry.curve, start) + 1e-12

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
            start = equal_start(entry)
            watched.accepted.clear()
            result = spg_in_y(entry.curve, start, GENERAL)
            assert isinstance(result, MinimizeResult)
            assert result.objective == min(watched.accepted), name
            reached = from_y(result.point, entry.a, entry.b)
            assert GENERAL.error(entry.curve, reached) \
                < GENERAL.error(entry.curve, start), name
            report = solve(entry.curve, GENERAL, 4, init=start)
            assert isinstance(report, MinimizeResult)
            assert report.final_error < report.initial_error, name
            assert np.array_equal(report.final_knots.interior, report.point)

    @pytest.mark.parametrize("kind", [ObjectiveKind.GENERAL_SQUARED,
                                      ObjectiveKind.INTERIOR_SQUARED])
    def test_initial_error_is_measured_at_the_start_as_given(self, catalog_by_name,
                                                             kind):
        # the start keeps its knot at b: the reported baseline is its error
        entry = catalog_by_name["logistic1b"]
        init = KnotVector(entry.a, entry.b, np.array([-1.2, -0.4, 0.4, entry.b]))
        report = solve(entry.curve, kind, 4, init=init)
        assert report.initial_error == kind.error(entry.curve, init)

    def test_objective_trace_starts_at_initial_point(self, catalog_by_name,
                                                     watched):
        entry = catalog_by_name["logistic1a"]
        start = equal_start(entry)
        spg_in_y(entry.curve, start)
        assert watched.values[0] == pytest.approx(
            phi(entry.curve, start), rel=1e-13)


SINGULAR_END = Curve(CurveFamily.WEIBULL, 1.0, -1.0, 1.5, 1.0, 0.0)   # f'' ~ x^-0.5


class TestBaseline:
    """The baseline is init or equal spacing, wherever Newton starts."""

    @pytest.mark.parametrize("kind", list(ObjectiveKind), ids=lambda kind: kind.value)
    @pytest.mark.parametrize("name", ["logistic1a", "weibull2a", "gompertz1b",
                                      "arctan2b"])
    def test_initial_error_is_equal_spacing_bit_for_bit(self, catalog_by_name,
                                                        name, kind):
        entry = catalog_by_name[name]
        report = solve(entry.curve, kind, 8, a=entry.a, b=entry.b)
        want = kind.error(entry.curve, equal_start(entry, 8))
        assert np.float64(report.initial_error).tobytes() == np.float64(want).tobytes()

    @pytest.mark.parametrize("kind", list(ObjectiveKind), ids=lambda kind: kind.value)
    def test_guard_falls_back_to_equal_spacing(self, catalog_by_name, monkeypatch,
                                               kind):
        # a minimiser that returns one segment over [a, b] (the last knot at
        # b, the others at a), far worse than the start in every measure
        def worse(curve, start, kind):
            point = np.append(np.full(start.n - 1, start.a), start.b)
            value = kind.error(curve, KnotVector(start.a, start.b, point))
            return MinimizeResult(point, value, 1, Termination.STATIONARY,
                                  initial_objective=kind.error(curve, start))

        monkeypatch.setattr(spg, "minimize_x", worse)
        entry = catalog_by_name["gompertz1a"]
        report = solve(entry.curve, kind, 8, a=entry.a, b=entry.b)
        equal = equal_start(entry, 8)
        assert report.final_knots.interior.tobytes() == equal.interior.tobytes()
        assert report.final_error == report.initial_error \
            == kind.error(entry.curve, equal)

    def test_area_kind_starts_at_the_lower_phi(self, catalog_by_name,
                                               monkeypatch):
        # the area kind starts at the lower phi of init and equidistributed
        # knots, ties going to init; the squared kinds start at init, and
        # every kind's initial error is measured at init
        starts = []
        minimize_x = spg.minimize_x

        def recording(curve, start, kind):
            starts.append(start)
            return minimize_x(curve, start, kind)

        def check(kind, init, start):
            report = solve(entry.curve, kind, 8, init=init)
            assert starts[-1].interior.tobytes() == start.interior.tobytes()
            want = kind.error(entry.curve, init)
            assert np.float64(report.initial_error).tobytes() \
                == np.float64(want).tobytes()
            return report

        monkeypatch.setattr(spg, "minimize_x", recording)
        entry = catalog_by_name["weibull2a"]
        equal = equal_start(entry, 8)
        equi = equidistributed(entry.curve, entry.a, entry.b, 8)
        assert phi(entry.curve, equi) < phi(entry.curve, equal)
        optimum = check(AREA, equal, equi).final_knots

        again = check(AREA, optimum, optimum)
        assert again.termination is Termination.STATIONARY
        assert again.iterations <= 2
        tied = KnotVector(entry.a, entry.b, equi.interior)
        check(AREA, tied, tied)
        assert starts[-1] is tied
        for kind in SQUARED:
            check(kind, equal, equal)

    @pytest.mark.parametrize("kind, n", [(kind, 8) for kind in ObjectiveKind]
                             + [(AREA, n) for n in (4, 16, 64)],
                             ids=lambda v: getattr(v, "value", v))
    def test_singular_end_row_solves(self, kind, n):
        # Newton moves knots onto a, where f'' is infinite: the area model
        # gives them no curvature, and the gap kernel skips their zero-width
        # segments (the general kind raised CurveDomainError there)
        report = solve(SINGULAR_END, kind, n, a=0.0, b=2.0)
        assert np.isfinite(report.final_error)
        assert report.final_error <= report.initial_error
        if kind is AREA:
            assert report.termination is Termination.STATIONARY


def cube_root_integral(entry) -> float:
    from scipy.integrate import quad
    value, _ = quad(lambda x: abs(float(entry.curve.deriv2(x))) ** (1.0 / 3.0),
                    entry.a, entry.b, limit=200, epsabs=0.0, epsrel=1e-12)
    return value


ORACLE_CELLS = [(name, n) for name in ("logistic1a", "logistic2a", "logistic3a",
                                       "gompertz1a", "weibull3a")
                for n in (64, 256)] + [("weibull2a", 256)]


class TestAsymptoticOracle:
    """de Boor: the area kind's optimum E*(n) (n + 1)^2 tends to I^3 / 12.

    I is the integral of |f''|^(1/3) over [a, b]; the check is independent
    of the solver.  weibull2a at n = 64 is 1.023 and is left out.
    """

    @pytest.mark.parametrize("name, n", ORACLE_CELLS,
                             ids=[f"{name}-{n}" for name, n in ORACLE_CELLS])
    def test_area_optimum_meets_the_prediction(self, catalog_by_name, name, n):
        entry = catalog_by_name[name]
        report = solve(entry.curve, AREA, n, a=entry.a, b=entry.b)
        ratio = report.final_error * (n + 1) ** 2 / (cube_root_integral(entry) ** 3 / 12.0)
        assert report.termination is Termination.STATIONARY
        assert abs(ratio - 1.0) < 0.01, ratio


# f'' may vanish on an end (logistic1a at a = 0), which is no inflection
SMOOTH_CONCAVE_ROWS = [entry for entry in CONCAVE_ROWS
                       if not any(entry.a < z < entry.b for z in f2_zeros(entry))]


class TestCallerStarts:
    """Random caller starts at large n reach the no-init optimum.

    From such a start, weibull2a's knots past x = 2.4, where f rounds to 1,
    leave Newton 200 steps short of the optimum at n = 256; equidistributed
    knots, which the area kind starts at when their phi is lower, do not.
    """

    @pytest.mark.parametrize("seed", [42, 7])
    @pytest.mark.parametrize("n", [64, 256])
    def test_sorted_uniform_starts_end_at_the_optimum(self, n, seed):
        assert len(SMOOTH_CONCAVE_ROWS) == 6   # every concave row but weibull1a
        for row, entry in enumerate(SMOOTH_CONCAVE_ROWS):
            a, b = entry.a, entry.b
            rng = np.random.default_rng([seed, row, n])
            init = KnotVector(a, b, np.sort(rng.uniform(a, b, n)))
            report = solve(entry.curve, AREA, n, init=init)
            want = solve(entry.curve, AREA, n, a=a, b=b).final_error
            assert report.termination is Termination.STATIONARY, entry.name
            assert report.final_error == pytest.approx(want, rel=1e-12), entry.name


class TestConcaveOnlyStart:
    """The area kind's start puts no density where f'' > 0.

    Started by |f''|^(1/3), knots went into convex parts, which the area
    objective empties: weibull1a, convex on its last 14 %, ended worse
    without init than from equal spacing, and the singular-end row, convex
    next to a, kept knots tied at a.
    """

    @pytest.mark.parametrize("n, from_equal", [(16, -1.489236e-04),
                                               (32, -3.976304e-04)])
    def test_weibull1a_ends_at_the_equal_spacing_optimum(self, catalog_by_name,
                                                         n, from_equal):
        entry = catalog_by_name["weibull1a"]
        report = solve(entry.curve, AREA, n, a=entry.a, b=entry.b)
        assert report.final_error <= from_equal

    @pytest.mark.parametrize("n", [5, 8, 16, 24, 64])
    def test_singular_end_row_leaves_no_knot_at_a(self, n):
        report = solve(SINGULAR_END, AREA, n, a=0.0, b=2.0)
        # Newton directly: solve would start at the equidistributed knots
        equal = spg.minimize_x(SINGULAR_END, KnotVector.equally_spaced(0.0, 2.0, n), AREA)
        from_equal = AREA.error(SINGULAR_END, KnotVector(0.0, 2.0, equal.point))
        assert report.termination is Termination.STATIONARY
        assert report.final_knots.interior[0] > 0.0
        assert report.final_error <= from_equal + 1e-12 * abs(from_equal)

    def test_weibull1a_many_knots_start_takes_few_steps(self):
        # many-knots' seed-42 start at n = 256; equidistributed knots have
        # the lower phi, so Newton starts there and need not empty a convex part
        row = [entry.name for entry in CONCAVE_ROWS].index("weibull1a")
        entry = CONCAVE_ROWS[row]
        rng = np.random.default_rng([42, row, 256])
        init = KnotVector(entry.a, entry.b, np.sort(rng.uniform(entry.a, entry.b, 256)))
        report = solve(entry.curve, AREA, 256, init=init)
        assert report.termination is Termination.STATIONARY
        assert report.iterations <= 15


class TestValidation:
    @pytest.mark.parametrize("value", [
        float("nan"), float("inf"), -float("inf"), np.float64(np.nan),
        np.float64(-np.inf), np.array([1.0, np.nan]), np.array([[np.inf]])],
        ids=repr)
    def test_checked_rejects_non_finite_values(self, value):
        point = np.array([0.5])
        with pytest.raises(SolverError,
                           match="^non-finite objective at iteration 3$") as caught:
            spg._checked(value, 3, point, "objective")
        assert caught.value.iteration == 3 and caught.value.point is point

    @pytest.mark.parametrize("value", [0.0, -1.5, np.float64(2.0),
                                       np.array([1.0, -0.0])], ids=repr)
    def test_checked_passes_finite_values_through(self, value):
        assert spg._checked(value, 0, np.array([0.5]), "objective") is value

    # a sum that overflows proves nothing, so the entries are scanned, whether
    # numpy raises its overflow warning or only emits it
    @pytest.mark.parametrize("action", ["error", "ignore"])
    def test_checked_passes_an_array_whose_sum_overflows(self, action):
        value = np.array([1e308, 1e308])
        with warnings.catch_warnings():
            warnings.simplefilter(action)
            assert spg._checked(value, 0, np.array([0.5]), "curvature") is value

    @pytest.mark.parametrize("value", [
        [1e308, 1e308, np.nan], [1.0, np.inf], [-np.inf, 1.0], [np.inf, -np.inf],
        [1e308, 1e308, -np.inf]], ids=str)
    def test_checked_rejects_a_non_finite_entry_whatever_its_sum(self, value):
        point = np.array([0.5])
        with pytest.raises(SolverError,
                           match="^non-finite curvature at iteration 2$") as caught:
            spg._checked(np.array(value), 2, point, "curvature")
        assert caught.value.point is point

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
