"""Both gap rules against an 80-digit oracle, and their failure modes.

``segment_gaps`` runs the Gauss-Jacobi front end and ``integrate_segments``
is the kernel it falls back to; every oracle case checks both.
"""

import time
import warnings

import mpmath as mp
import numpy as np
import pytest
from numpy.polynomial.legendre import leggauss
from numpy.testing import assert_allclose

from knotopt import (Curve, CurveCatalogEntry, CurveDomainError, CurveFamily,
                     KnotVector, QuadratureError, error_concave, error_general,
                     harness, quadrature, run_catalog)
from knotopt.pl import segment_gaps
from knotopt.quadrature import gauss_jacobi_segments, integrate_segments

from helpers import HoledCurve, QuadraticCurve, f2_zeros, mp_value

ORACLE_DPS = 80
GAP_RTOL = 1e-12

#: knots at these offsets from the zero of f'' (at u = 0) of these rows
NEAR_INFLECTION = ([(name, [d]) for name in ("logistic1a", "logistic2a", "gompertz1a")
                    for d in (1e-5, 1e-7, 1e-9)]
                   + [(name, [-1e-7, 1e-7])
                      for name in ("logistic1b", "logistic2b", "gompertz1b")])


def oracle_gaps(curve, xs: np.ndarray) -> np.ndarray:
    """Integral minus trapezoid of every segment, at ORACLE_DPS digits.

    The breakpoints are taken as the exact binary values of the floats.
    """
    with mp.workdps(ORACLE_DPS):
        pts = [mp.mpf(float(x)) for x in xs]
        fv = [mp_value(curve, x) for x in pts]
        out = []
        for lo, hi, flo, fhi in zip(pts[:-1], pts[1:], fv[:-1], fv[1:]):
            integral = mp.quad(lambda x: mp_value(curve, x), [lo, hi])
            out.append(float(integral - (hi - lo) * (flo + fhi) / 2))
    return np.array(out)


def gap_scale(curve, xs: np.ndarray) -> np.ndarray:
    """(1/2) * integral of (x - lo)(hi - x)|f''|: |gap| where f'' keeps its sign.

    Where f'' changes sign inside a segment the gap is a difference of two
    parts of this size, so this is the scale its error is measured against.
    A fixed 64-point Gauss-Legendre rule gives it to a few digits, enough
    for a scale.
    """
    t, w = leggauss(64)
    h = 0.5 * np.diff(xs)
    c = xs[:-1] + h
    d2 = np.abs(curve.deriv2(c[:, None] + h[:, None] * t))
    return 0.5 * h ** 3 * ((d2 * (1.0 - t * t)) @ w)


def assert_matches_oracle(curve, knots: KnotVector):
    """The front end and the kernel against one oracle; returns all three."""
    xs = knots.full()
    want = oracle_gaps(curve, xs)
    scale = gap_scale(curve, xs)
    front = segment_gaps(curve, knots)
    kernel = integrate_segments(curve.deriv2, xs[:-1], xs[1:])
    for rule, got in (("front end", front), ("kernel", kernel)):
        rel = np.abs(got - want) / scale
        assert np.all(rel <= GAP_RTOL), (rule, rel, got, want)
    return want, front, kernel


@pytest.fixture
def fallbacks(monkeypatch):
    """The (lo, hi) of every segment the front end hands to the kernel."""
    seen = []

    def recording(func, lo, hi):
        seen.extend(zip(lo.tolist(), hi.tolist()))
        return integrate_segments(func, lo, hi)

    monkeypatch.setattr(quadrature, "integrate_segments", recording)
    return seen


class TestOracle:
    def test_weibull2a_small_gaps(self, catalog_by_name):
        # equal spacing, n=8: the last gaps are ~1e-14, 3e-20 and 1e-27,
        # which "integral minus trapezoid" in doubles loses to cancellation
        entry = catalog_by_name["weibull2a"]
        want, *paths = assert_matches_oracle(
            entry.curve, KnotVector.equally_spaced(entry.a, entry.b, 8))
        assert_allclose(want[-3:], [1.2302e-14, 2.8867e-20, 1.3850e-27], rtol=1e-4)
        for got in paths:
            assert_allclose(got, want, rtol=GAP_RTOL)

    def test_arctan1b_wide_segments(self, catalog_by_name):
        entry = catalog_by_name["arctan1b"]
        assert_matches_oracle(entry.curve, KnotVector.equally_spaced(entry.a, entry.b, 4))

    @pytest.mark.parametrize("shape", [1.5, 2.5])
    def test_f2_not_smooth_at_the_left_end(self, shape, fallbacks):
        # f'' ~ x^(shape - 2) at x = 0: singular for 1.5, a kink for 2.5; the
        # end panel's relative error never shrinks, so the segment-relative
        # floor ends its refinement.  The front end's tail test rejects that
        # segment and hands it to the kernel.
        curve = Curve(CurveFamily.WEIBULL, 1.0, -1.0, shape, 1.0, 0.0)
        assert_matches_oracle(curve, KnotVector.equally_spaced(0.0, 2.0, 2))
        assert fallbacks == [(0.0, 2.0 / 3.0)]

    @pytest.mark.parametrize("n", [1, 2, 4, 8])
    def test_random_segments_of_every_row(self, catalog, n, fallbacks):
        # wide segments across an inflection or a steep end fail the front
        # end's tail test; the kernel's gaps for them must match too
        rng = np.random.default_rng([7, n])
        for entry in catalog:
            inner = np.sort(rng.uniform(entry.a, entry.b, n))
            assert_matches_oracle(entry.curve, KnotVector(entry.a, entry.b, inner))
        assert len(fallbacks) >= 10

    @pytest.mark.parametrize("name, offsets", NEAR_INFLECTION,
                             ids=[f"{name}@{','.join(f'{d:+g}' for d in offsets)}"
                                  for name, offsets in NEAR_INFLECTION])
    def test_knots_next_to_an_inflection(self, catalog_by_name, name, offsets):
        # f'' of these rows vanishes at u = 0; computed as 1 - e its noise
        # there kept the short segment's panels from converging
        entry = catalog_by_name[name]
        [z] = f2_zeros(entry)
        assert_matches_oracle(entry.curve,
                              KnotVector(entry.a, entry.b, z + np.array(offsets)))


class TestRule:
    def test_gauss_part_is_gauss_legendre_7(self):
        nodes, weights = leggauss(7)
        on = quadrature._G7 != 0.0
        assert_allclose(quadrature._NODES[on], nodes, atol=1e-15)
        assert_allclose(quadrature._G7[on], weights, rtol=1e-14)

    def test_kronrod_rule_is_exact_to_degree_22(self):
        for d in range(23):
            exact = (1.0 - (-1.0) ** (d + 1)) / (d + 1)
            assert abs(quadrature._K15 @ quadrature._NODES ** d - exact) < 1e-15

    def test_quadratic_gap_is_closed_form(self):
        # f = x^2 has gap -(hi - lo)^3 / 6 on every segment
        lo = np.array([-1.0, 0.0, 0.25, 3.0])
        hi = np.array([2.0, 1e-9, 0.25, 3.5])
        got = integrate_segments(lambda x: np.full_like(x, 2.0), lo, hi)
        assert_allclose(got, -(hi - lo) ** 3 / 6.0, rtol=1e-15)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            integrate_segments(np.cos, np.zeros(2), np.ones(3))

    def test_empty_batch(self):
        assert integrate_segments(np.cos, np.zeros(0), np.zeros(0)).shape == (0,)


class TestGaussJacobiRule:
    def test_rule_is_exact_to_degree_47(self):
        # the integral of (1 - t^2) t^d over [-1, 1]
        t, w = quadrature._GJ_T, quadrature._GJ_W
        for d in range(48):
            exact = 0.0 if d % 2 else 2.0 / (d + 1) - 2.0 / (d + 3)
            assert abs(w @ t ** d - exact) < 1e-15, d

    def test_tail_sees_only_degrees_22_and_23(self):
        # the tail rows are the last two discrete orthonormal coefficients:
        # 0 to rounding below degree 22, and t^d's coefficient on p_d is one
        # over p_d's leading coefficient, about 2^-d
        t, tail = quadrature._GJ_T, quadrature._GJ_TAIL
        for d in range(22):
            assert np.abs(tail @ t ** d).max() < 1e-15, d
        assert abs(tail[0] @ t ** 22) > 1e-7 and abs(tail[1] @ t ** 23) > 5e-8


class TestGaussJacobiFrontEnd:
    """Where the front end must fall back, and the kernel's edge cases."""

    @pytest.mark.parametrize("n", [64, 256])
    @pytest.mark.parametrize("start", ["equal", "random"])
    def test_concave_rows_need_no_fallback(self, catalog, n, start, fallbacks):
        # equal spacing and many-knots' seeded random starts on the seven
        # concave rows, against the kernel within 1e-13 of each gap's scale
        rows = [entry for entry in catalog if entry.concave]
        assert len(rows) == 7
        for row, entry in enumerate(rows):
            if start == "equal":
                knots = KnotVector.equally_spaced(entry.a, entry.b, n)
            else:
                rng = np.random.default_rng([42, row, n])
                knots = KnotVector(entry.a, entry.b,
                                   np.sort(rng.uniform(entry.a, entry.b, n)))
            xs = knots.full()
            kernel = integrate_segments(entry.curve.deriv2, xs[:-1], xs[1:])
            rel = np.abs(segment_gaps(entry.curve, knots) - kernel) / gap_scale(entry.curve, xs)
            assert rel.max() <= 1e-13, entry.name
        assert fallbacks == []

    def test_tied_knots_at_a_singular_end_are_not_sampled(self, fallbacks):
        curve = TestZeroWidthSegments.SINGULAR
        seen = []

        def recording(x):
            seen.append(np.array(x))
            return curve.deriv2(x)

        lo = np.array([0.0, 0.0, 0.0, 0.7])
        hi = np.array([0.0, 0.0, 0.7, 2.0])
        got = gauss_jacobi_segments(recording, lo, hi)
        assert got[0] == 0.0 and got[1] == 0.0
        assert np.all(np.concatenate(seen) > 0.0)
        # the segment at the singular end falls back; the kernel agrees
        assert fallbacks == [(0.0, 0.7)]
        assert_allclose(got, integrate_segments(curve.deriv2, lo, hi), rtol=1e-13)

    @pytest.mark.parametrize("lo, hi", [([np.nan], [1.0]), ([0.0], [np.nan]),
                                        ([0.0, np.nan], [0.0, 1.0])], ids=str)
    def test_nan_bounds_still_raise(self, catalog_by_name, lo, hi):
        curve = catalog_by_name["logistic1a"].curve
        with pytest.raises(CurveDomainError, match="undefined at x=nan"):
            gauss_jacobi_segments(curve.deriv2, np.array(lo), np.array(hi))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_names_the_first_non_finite_x(self, bad):
        knots = KnotVector.equally_spaced(0.0, 2.0, 3)
        xs = knots.full()
        nodes = (xs[:-1, None] + 0.5 * np.diff(xs)[:, None] * quadrature._GJ_LEFT).ravel()
        first = float(nodes[np.argmax(nodes > 1.2)])
        with pytest.raises(QuadratureError) as caught:
            error_concave(HoledCurve(bad), knots)
        assert str(caught.value) == (f"non-finite integrand at x={first!r} "
                                     f"({np.count_nonzero(nodes > 1.2)} of 96 points)")

    def test_bad_bounds_rejected(self):
        with pytest.raises(ValueError, match="lo <= hi"):
            gauss_jacobi_segments(np.cos, np.array([0.0, 1.0]), np.array([0.0, 0.5]))
        with pytest.raises(ValueError, match="matching shapes"):
            gauss_jacobi_segments(np.cos, np.zeros(2), np.ones(3))
        assert gauss_jacobi_segments(np.cos, np.zeros(0), np.zeros(0)).shape == (0,)


class NoisyCurve:
    """A curve double whose second derivative is noise: never converges."""

    def __init__(self, seed: int = 0):
        self.rng = np.random.default_rng(seed)

    def value(self, x):
        x = np.asarray(x, dtype=float)
        out = np.sin(x)
        return out if out.ndim else float(out)

    def deriv1(self, x):
        x = np.asarray(x, dtype=float)
        out = np.cos(x)
        return out if out.ndim else float(out)

    def deriv2(self, x):
        return self.rng.standard_normal(np.shape(x))


class TestBoundedBisection:
    def test_noisy_integrand_raises_quickly(self):
        curve = NoisyCurve()
        xs = np.linspace(0.0, 1.0, 10)
        start = time.perf_counter()
        with pytest.raises(QuadratureError, match="live panels"):
            integrate_segments(curve.deriv2, xs[:-1], xs[1:])
        assert time.perf_counter() - start < 2.0

    def test_noisy_row_fails_only_its_own_row(self, catalog_by_name, monkeypatch):
        noisy = CurveCatalogEntry("noisy", NoisyCurve(), False, 0.0, 1.0)
        good = catalog_by_name["logistic1a"]
        monkeypatch.setattr(harness, "default_catalog", lambda: [noisy, good])
        bad_row, good_row = run_catalog(knot_counts=(4,))
        assert bad_row.status.startswith("error: ")
        assert "live panels" in bad_row.status
        assert np.isnan(bad_row.orig_error)
        assert good_row.status == "ok"
        assert good_row.spg_error < good_row.orig_error

    @pytest.mark.parametrize("levels", [0, 1, 2])
    def test_level_limit_raises(self, monkeypatch, levels):
        # f'' is infinite at 0, so the panel there needs many bisections
        # (unpatched, the integral is -0.18185328)
        curve = Curve(CurveFamily.WEIBULL, 0, 1, 1.5, 1, 0)
        monkeypatch.setattr(quadrature, "_MAX_LEVELS", levels)
        with pytest.raises(QuadratureError) as caught:
            integrate_segments(curve.deriv2, np.array([0.0]), np.array([2.0]))
        assert str(caught.value) == f"no convergence after {levels} bisections"


class TestNonFiniteIntegrand:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_sampled_names_the_first_node_and_counts_the_bad(self, bad):
        x = np.linspace(0.0, 1.0, 9)
        fx = np.sin(x)
        fx[[3, 5, 8]] = bad
        with pytest.raises(QuadratureError) as caught:
            quadrature.sampled(lambda _: fx, x)
        assert str(caught.value) == (f"non-finite integrand at x={float(x[3])!r} "
                                     f"(3 of 9 points)")
        assert quadrature.sampled(np.sin, x).tobytes() == np.sin(x).tobytes()

    # a sum that overflows proves nothing, so the samples are scanned,
    # whether numpy raises its overflow warning or only emits it
    @pytest.mark.parametrize("action", ["error", "ignore"])
    def test_sampled_passes_samples_whose_sum_overflows(self, action):
        x = np.linspace(0.0, 1.0, 3)
        fx = np.array([1e308, 1e308, -1.0])
        with warnings.catch_warnings():
            warnings.simplefilter(action)
            assert quadrature.sampled(lambda _: fx, x) is fx

    @pytest.mark.parametrize("bad", [[np.nan, np.inf], [np.inf, -np.inf],
                                     [-np.inf, np.nan]], ids=str)
    def test_sampled_names_the_first_bad_node_whatever_the_sum(self, bad):
        x = np.linspace(0.0, 1.0, 5)
        fx = np.array([1e308, 1e308, bad[0], 1.0, bad[1]])
        with pytest.raises(QuadratureError) as caught:
            quadrature.sampled(lambda _: fx, x, "f''")
        assert str(caught.value) == (f"non-finite f'' at x={float(x[2])!r} "
                                     f"(2 of 5 points)")

    # NaN used to bisect up to the panel cap and inf to warn in the panel sums
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_names_the_first_non_finite_x(self, bad):
        knots = KnotVector.equally_spaced(0.0, 2.0, 3)
        with pytest.raises(QuadratureError, match="non-finite integrand") as caught:
            error_general(HoledCurve(bad), knots)
        message = str(caught.value)
        first = float(message.split("x=")[1].split()[0])
        nodes = np.linspace(0.0, 2.0, 5)
        assert 1.2 < first < 1.2 + (nodes[1] - nodes[0]) / quadrature._START_PANELS
        assert message.endswith(" of 480 points)")


class TestZeroWidthSegments:
    """f'' is not sampled on a zero-width segment, where it may be undefined."""

    SINGULAR = Curve(CurveFamily.WEIBULL, 1.0, -1.0, 1.5, 1.0, 0.0)   # f'' ~ x^-0.5

    def test_tied_knots_at_a_singular_end_give_zero_gaps(self):
        seen = []

        def recording(x):
            seen.append(np.array(x))
            return self.SINGULAR.deriv2(x)

        lo = np.array([0.0, 0.0, 0.0, 0.7])
        hi = np.array([0.0, 0.0, 0.7, 2.0])
        got = integrate_segments(recording, lo, hi)
        assert got[0] == 0.0 and got[1] == 0.0
        assert np.all(np.concatenate(seen) > 0.0)
        # the zero-width rows stay in the batch: moved to where f'' is
        # finite, they leave the other rows' gaps the same to the bit
        moved = integrate_segments(self.SINGULAR.deriv2, np.array([1.0, 1.5, 0.0, 0.7]),
                                   np.array([1.0, 1.5, 0.7, 2.0]))
        assert got.tobytes() == moved.tobytes()

    @pytest.mark.parametrize("lo, hi", [([np.nan], [1.0]), ([0.0], [np.nan]),
                                        ([0.0, np.nan], [0.0, 1.0])], ids=str)
    def test_nan_bounds_still_raise(self, catalog_by_name, lo, hi):
        curve = catalog_by_name["logistic1a"].curve
        with pytest.raises(CurveDomainError, match="undefined at x=nan"):
            integrate_segments(curve.deriv2, np.array(lo), np.array(hi))

    def test_negative_width_still_rejected(self):
        with pytest.raises(ValueError, match="lo <= hi"):
            integrate_segments(np.cos, np.array([0.0, 1.0]), np.array([0.0, 0.5]))
