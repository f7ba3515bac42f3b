import numpy as np
import pytest
from numpy.testing import assert_allclose

from knotopt import (Curve, CurveFamily, KnotVector, QuadratureError, build_pl,
                     error_concave, error_general, error_interior_squared,
                     segment_gaps)
from knotopt.pl import equidistributed, squared_gap_sum

from helpers import HoledCurve, LinearCurve, QuadraticCurve, simpson_integral


class TestKnotVector:
    def test_equally_spaced(self):
        kv = KnotVector.equally_spaced(0.0, 2.0, 4)
        assert_allclose(kv.interior, [0.4, 0.8, 1.2, 1.6])
        assert_allclose(kv.full(), np.linspace(0.0, 2.0, 6))

    def test_ties_allowed(self):
        kv = KnotVector(0.0, 1.0, np.array([0.3, 0.3, 0.7]))
        assert kv.n == 3

    def test_ordering_enforced(self):
        with pytest.raises(ValueError):
            KnotVector(0.0, 1.0, np.array([0.7, 0.3]))

    def test_bounds_enforced(self):
        with pytest.raises(ValueError):
            KnotVector(0.0, 1.0, np.array([1.5]))
        for bad in ([np.nan], [0.2, np.nan], [np.nan, 0.2], [0.1, np.nan, 0.5]):
            with pytest.raises(ValueError):
                KnotVector(0.0, 1.0, np.array(bad))
        # a NaN between two knots is the order test's to reject
        with pytest.raises(ValueError, match="nondecreasing"):
            KnotVector(0.0, 1.0, np.array([0.1, 0.3, np.nan, 0.7, 0.9]))

    @pytest.mark.parametrize("a, b", [(0.0, np.inf), (-np.inf, 1.0),
                                      (-np.inf, np.inf), (np.nan, 1.0)])
    def test_endpoints_must_be_finite(self, a, b):
        with pytest.raises(ValueError, match="needs finite a < b"):
            KnotVector(a, b, np.empty(0))


class Deriv2Only:
    """A curve given by its f'' alone, all that equidistributed samples."""

    def __init__(self, f2):
        self.f2 = f2

    def deriv2(self, x):
        return self.f2(np.asarray(x, dtype=float))


class TestEquidistributed:
    def test_constant_density_is_equal_spacing(self):
        kv = equidistributed(QuadraticCurve(-1.0, 0.0, 4.0), 0.0, 2.0, 4)
        assert_allclose(kv.interior, [0.4, 0.8, 1.2, 1.6], rtol=1e-14)

    def test_zero_density_is_equal_spacing(self):
        kv = equidistributed(LinearCurve(2.0, 1.0), -1.0, 3.0, 3)
        assert kv.interior.tobytes() == \
            KnotVector.equally_spaced(-1.0, 3.0, 3).interior.tobytes()

    def test_shares_follow_the_cube_root_of_f2(self):
        # f'' = -x^2 on [0, 2]: rho = x^(2/3), so knot j sits where
        # (x/2)^(5/3) = j/(n + 1)
        kv = equidistributed(QuarticHook(), 0.0, 2.0, 5)
        want = 2.0 * (np.arange(1, 6) / 6.0) ** 0.6
        assert_allclose(kv.interior, want, rtol=2e-3)

    def test_convex_part_keeps_only_the_floors_share(self):
        # f'' = -x on [-1, 1]: the density is x^(1/3) on the concave half,
        # whose integral is 3/4, and only the floor, 1e-3 of a peak below 1,
        # on the convex half, which so carries some knots at large n but
        # under 1e-3 / (3/4) of the total
        curve = Deriv2Only(lambda x: -x)
        assert equidistributed(curve, -1.0, 1.0, 15).interior.min() > 0.0
        n = 2999
        convex = np.count_nonzero(equidistributed(curve, -1.0, 1.0, n).interior < 0.0)
        assert 0 < convex <= (n + 1) * 1e-3 / 0.75

    @pytest.mark.parametrize("curve", [QuadraticCurve(1.0, 0.0, 0.0),
                                       Deriv2Only(lambda x: x ** 2)],
                             ids=["convex", "convex-zero-at-0"])
    def test_nowhere_negative_f2_is_equal_spacing(self, curve):
        kv = equidistributed(curve, -1.0, 3.0, 5)
        assert kv.interior.tobytes() == \
            KnotVector.equally_spaced(-1.0, 3.0, 5).interior.tobytes()

    def test_samples_f2_strictly_inside(self):
        # f'' ~ x^-0.5 is infinite at a = 0, which the gap kernel integrates
        curve = Curve(CurveFamily.WEIBULL, 1.0, -1.0, 1.5, 1.0, 0.0)
        seen = []

        class Recording:
            def deriv2(self, x):
                seen.append(np.array(x))
                return curve.deriv2(x)

        kv = equidistributed(Recording(), 0.0, 2.0, 16)
        xs = np.concatenate(seen)
        assert xs.min() > 0.0 and xs.max() < 2.0
        assert 0.0 < kv.interior[0] and np.all(np.diff(kv.full()) > 0.0)

    # a NaN sample made the density's total NaN, which read as f'' = 0 and
    # gave equal spacing; an inf one gave NaN knots
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_names_the_first_non_finite_f2(self, bad):
        # the cells' midpoints are (k + 1/2)/64; k = 77..127 lie above 1.2
        with pytest.raises(QuadratureError) as caught:
            equidistributed(HoledCurve(bad), 0.0, 2.0, 4)
        assert str(caught.value) == "non-finite f'' at x=1.2109375 (51 of 128 points)"


class QuarticHook:
    """f = -x^4 / 12, so f'' = -x^2: its density vanishes at 0."""

    def deriv2(self, x):
        return -np.asarray(x, dtype=float) ** 2


class TestBuildPl:
    def test_quadratic_secants(self):
        curve = QuadraticCurve(1.0, 0.0, 0.0)  # x^2
        pl = build_pl(curve, KnotVector(0.0, 2.0, np.array([1.0])))
        # chords y = x on [0, 1] and y = 3x - 2 on [1, 2]
        xs = np.array([0.0, 0.25, 0.5, 1.0, 1.25, 1.5, 2.0])
        expected = np.where(xs <= 1.0, xs, 3.0 * xs - 2.0)
        assert_allclose(pl(xs), expected, atol=1e-15)

    def test_single_segment_secant(self, catalog_by_name):
        entry = catalog_by_name["logistic1a"]
        pl = build_pl(entry.curve, KnotVector(entry.a, entry.b, np.empty(0)))
        fa, fb = entry.curve.value(entry.a), entry.curve.value(entry.b)
        slope = (fb - fa) / (entry.b - entry.a)
        xs = np.linspace(entry.a, entry.b, 11)
        assert_allclose(pl(xs), fa + slope * (xs - entry.a), atol=1e-14)

    def test_interpolation_at_knots(self, catalog_by_name):
        entry = catalog_by_name["logistic1a"]
        kv = KnotVector(0.0, 2.0, np.array([0.5, 1.0, 1.5]))
        pl = build_pl(entry.curve, kv)
        xs = kv.full()
        for x in xs:
            assert abs(pl(x) - entry.curve.value(x)) < 1e-12
        # linear between knots: each segment's midpoint gets the chord mean
        fv = entry.curve.value(xs)
        mids = 0.5 * (xs[:-1] + xs[1:])
        assert_allclose(pl(mids), 0.5 * (fv[:-1] + fv[1:]), atol=1e-12)

    def test_degenerate_segments_skipped(self, catalog_by_name):
        entry = catalog_by_name["logistic1a"]
        kv = KnotVector(0.0, 2.0, np.array([0.5, 0.5, 1.5]))
        pl = build_pl(entry.curve, kv)
        assert pl(0.5) == entry.curve.value(0.5)
        xs = np.linspace(0.0, 2.0, 101)
        reference = build_pl(entry.curve, KnotVector(0.0, 2.0, np.array([0.5, 1.5])))
        assert_allclose(pl(xs), reference(xs), atol=1e-14)


class TestErrorConcave:
    def test_analytic_single_trapezoid(self):
        curve = QuadraticCurve(-1.0, 2.0, 0.0)  # -x^2 + 2x on [0, 1]
        kv = KnotVector(0.0, 1.0, np.empty(0))
        assert error_concave(curve, kv) == pytest.approx(1.0 / 6.0, rel=1e-12)

    def test_against_independent_quadrature(self, catalog_by_name):
        entry = catalog_by_name["logistic1a"]
        kv = KnotVector.equally_spaced(entry.a, entry.b, 4)
        xs = kv.full()
        fv = entry.curve.value(xs)
        oracle = simpson_integral(entry.curve.value, entry.a, entry.b, tol=1e-14) \
            - 0.5 * np.sum(np.diff(xs) * (fv[1:] + fv[:-1]))
        assert_allclose(error_concave(entry.curve, kv), oracle, rtol=1e-9)

    def test_gaps_nonnegative_for_concave(self, catalog_by_name, rng):
        for name in ("logistic1a", "gompertz1a", "weibull2a"):
            entry = catalog_by_name[name]
            for _ in range(5):
                inner = np.sort(rng.uniform(entry.a, entry.b, size=5))
                kv = KnotVector(entry.a, entry.b, inner)
                gaps = segment_gaps(entry.curve, kv)
                assert np.all(gaps > -1e-14), name
                assert error_concave(entry.curve, kv) == pytest.approx(
                    np.abs(gaps).sum(), abs=1e-13)

    def test_refinement_does_not_increase_error(self, catalog_by_name, rng):
        entry = catalog_by_name["logistic1a"]
        for _ in range(25):
            inner = np.sort(rng.uniform(entry.a, entry.b, size=3))
            kv = KnotVector(entry.a, entry.b, inner)
            xs = kv.full()
            seg = rng.integers(0, 4)
            extra = rng.uniform(xs[seg], xs[seg + 1])
            refined = KnotVector(entry.a, entry.b, np.sort(np.append(inner, extra)))
            assert error_concave(entry.curve, refined) \
                <= error_concave(entry.curve, kv) + 1e-14


class TestErrorGeneral:
    def test_affine_curve_is_exact(self, rng):
        curve = LinearCurve(1.5, -0.25)
        for _ in range(5):
            inner = np.sort(rng.uniform(0.0, 1.0, size=4))
            kv = KnotVector(0.0, 1.0, inner)
            assert error_general(curve, kv) == pytest.approx(0.0, abs=1e-24)

    def test_collapsed_knots_reduce_to_single_segment(self, catalog_by_name):
        entry = catalog_by_name["logistic1b"]
        collapsed = KnotVector(entry.a, entry.b,
                               np.full(4, float(entry.a)))
        single = KnotVector(entry.a, entry.b, np.empty(0))
        gap = segment_gaps(entry.curve, single)[0]
        assert error_general(entry.curve, collapsed) == pytest.approx(gap ** 2, rel=1e-12)

    def test_nonnegative(self, catalog, rng):
        for entry in catalog[:5]:
            inner = np.sort(rng.uniform(entry.a, entry.b, size=4))
            assert error_general(entry.curve, KnotVector(entry.a, entry.b, inner)) >= 0.0


class TestSquaredGapSum:
    # the sum reduces gaps * gaps directly; the bits are those of the square
    # and the sum through numpy's wrappers, at every length the pairwise sum
    # treats differently
    @pytest.mark.parametrize("size", [0, 1, 2, 7, 8, 9, 15, 16, 17, 127, 128, 129, 300])
    def test_equals_the_sum_of_squares(self, rng, size):
        gaps = rng.normal(size=size) * 10.0 ** rng.uniform(-20.0, 0.0, size)
        gaps[rng.random(size) < 0.2] = 0.0
        gaps[rng.random(size) < 0.2] *= 1e-150    # squares below the normal range
        if size:
            gaps[0] = -0.0
        assert repr(squared_gap_sum(gaps)) == repr(float((gaps ** 2).sum()))


class TestReferenceErrors:
    # frozen reference values for the bundled catalog at equal spacing
    def test_logistic1a_baselines(self, catalog_by_name):
        entry = catalog_by_name["logistic1a"]
        for n, expected in ((4, 6.166057e-07), (8, 3.901868e-08)):
            kv = KnotVector.equally_spaced(entry.a, entry.b, n)
            value = error_interior_squared(entry.curve, kv)
            assert value == pytest.approx(expected, rel=1e-3)

    def test_logistic1b_baseline(self, catalog_by_name):
        entry = catalog_by_name["logistic1b"]
        kv = KnotVector.equally_spaced(entry.a, entry.b, 4)
        value = error_interior_squared(entry.curve, kv)
        assert value == pytest.approx(2.287906e-05, rel=1e-3)

    def test_interior_measure_skips_boundary_segments(self, catalog_by_name):
        entry = catalog_by_name["logistic1a"]
        kv = KnotVector.equally_spaced(entry.a, entry.b, 4)
        gaps = segment_gaps(entry.curve, kv)
        assert error_interior_squared(entry.curve, kv) == pytest.approx(
            np.sum(gaps[1:-1] ** 2), rel=1e-14)
        assert error_general(entry.curve, kv) == pytest.approx(
            np.sum(gaps ** 2), rel=1e-14)

    def test_interior_measure_small_n(self, catalog_by_name):
        entry = catalog_by_name["logistic1a"]
        for n in (0, 1):
            kv = KnotVector.equally_spaced(entry.a, entry.b, n)
            assert error_interior_squared(entry.curve, kv) == 0.0
