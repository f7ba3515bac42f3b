import math
import warnings

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose

from knotopt import (Curve, CurveCatalogEntry, CurveDomainError, CurveFamily,
                     curves, default_catalog, load_catalog)
from knotopt.quadrature import integrate_segments

from helpers import central_diff, f2_zeros, mp_value, simpson_integral

EPS = np.finfo(float).eps

#: every (row, zero of f'' in [a, b]) of the bundled catalog
F2_ZEROS = [(entry, z) for entry in default_catalog() for z in f2_zeros(entry)]


def mp_deriv(curve, x: float, order: int) -> float:
    """f (order 0), f' or f'' at the exact binary value of x, to 60 digits."""
    with mp.workdps(60):
        return float(mp.diff(lambda t: mp_value(curve, t), mp.mpf(x), order))


def near_zero(row_zero, exponent: float, right: bool):
    """A catalog row and a point 10**exponent of its interval from a zero of f''."""
    entry, z = row_zero
    d = 10.0 ** exponent * (entry.b - entry.a)
    x = z + d if right else z - d
    if not entry.a <= x <= entry.b:     # a zero at an end of the interval
        x = 2 * z - x
    return entry, x


def assert_matches_oracle(entry, x: float, order: int):
    method = getattr(entry.curve, ("value", "deriv1", "deriv2")[order])
    scale = np.max(np.abs(method(np.linspace(entry.a, entry.b, 401))))
    want = mp_deriv(entry.curve, x, order)
    # u = d1 x + d2 is rounded, so next to a zero of f'' away from u = 0 the
    # result is known only to a few ulps of its scale on the interval
    assert abs(method(x) - want) <= 1e-14 * abs(want) + 2 * EPS * scale


class TestValues:
    def test_logistic_midpoint(self, catalog_by_name):
        assert catalog_by_name["logistic1a"].curve.value(0.0) == pytest.approx(0.5)

    def test_gompertz_at_zero(self, catalog_by_name):
        value = catalog_by_name["gompertz1a"].curve.value(0.0)
        assert value == pytest.approx(math.exp(-1.0), rel=1e-12)

    def test_arctan_at_zero(self, catalog_by_name):
        assert catalog_by_name["arctan1b"].curve.value(0.0) == 0.0

    def test_vectorised_matches_scalar(self, catalog):
        for entry in catalog:
            xs = np.linspace(entry.a, entry.b, 7)
            batch = entry.curve.value(xs)
            singles = [entry.curve.value(x) for x in xs]
            assert_allclose(batch, singles, rtol=0, atol=0)


class TestDerivatives:
    def test_logistic_first_derivative_peak(self, catalog_by_name):
        assert catalog_by_name["logistic1a"].curve.deriv1(0.0) == pytest.approx(0.25)

    def test_logistic_inflection(self, catalog_by_name):
        assert catalog_by_name["logistic1a"].curve.deriv2(0.0) == pytest.approx(0.0, abs=1e-15)

    def test_weibull_first_derivative_fd(self, catalog_by_name):
        curve = catalog_by_name["weibull1a"].curve
        fd = central_diff(curve.value, -1.0, 1e-6)
        assert_allclose(curve.deriv1(-1.0), fd, rtol=1e-8)

    def test_first_derivative_matches_fd_on_catalog(self, catalog):
        for entry in catalog:
            h = 1e-6 * (entry.b - entry.a)
            xs = np.linspace(entry.a, entry.b, 102)[1:-1]
            fd = (entry.curve.value(xs + h) - entry.curve.value(xs - h)) / (2 * h)
            assert_allclose(entry.curve.deriv1(xs), fd, rtol=1e-6, atol=1e-9,
                            err_msg=f"deriv1 mismatch for {entry.name}")

    def test_second_derivative_matches_fd_on_catalog(self, catalog):
        for entry in catalog:
            h = 1e-6 * (entry.b - entry.a)
            xs = np.linspace(entry.a, entry.b, 102)[1:-1]
            fd = (entry.curve.deriv1(xs + h) - entry.curve.deriv1(xs - h)) / (2 * h)
            assert_allclose(entry.curve.deriv2(xs), fd, rtol=1e-6, atol=1e-9,
                            err_msg=f"deriv2 mismatch for {entry.name}")


class TestNearInflections:
    """f'' next to its zeros, against an mpmath oracle."""

    @pytest.mark.parametrize("offset", [1e-5, 1e-7, 1e-9])
    @pytest.mark.parametrize("name", ["logistic1a", "logistic2a", "logistic1b",
                                      "logistic2b", "gompertz1a", "gompertz1b"])
    def test_factor_vanishing_at_u_zero_is_exact(self, catalog_by_name, name,
                                                 offset):
        # computed as 1 - e, the factor lost -log10(offset) of its 16 digits
        curve = catalog_by_name[name].curve
        for x in (offset, -offset):
            want = mp_deriv(curve, x, 2)
            assert abs(curve.deriv2(x) - want) <= 1e-15 * abs(want), x

    @settings(derandomize=True, database=None, deadline=None, max_examples=60)
    @given(st.sampled_from(F2_ZEROS), st.floats(-12.0, -3.0), st.booleans())
    def test_deriv2_matches_oracle_near_every_zero(self, row_zero, exponent,
                                                   right):
        assert_matches_oracle(*near_zero(row_zero, exponent, right), 2)

    @pytest.mark.parametrize("order", [0, 1], ids=["value", "deriv1"])
    @settings(derandomize=True, database=None, deadline=None, max_examples=60)
    @given(st.sampled_from(F2_ZEROS), st.floats(-12.0, -3.0), st.booleans())
    def test_value_and_deriv1_match_oracle_near_every_zero(self, order, row_zero,
                                                          exponent, right):
        assert_matches_oracle(*near_zero(row_zero, exponent, right), order)


def gap(curve, lo: float, hi: float) -> float:
    """One segment's gap from the production kernel."""
    return float(integrate_segments(curve.deriv2, np.array([lo]), np.array([hi]))[0])


def trap(curve, lo: float, hi: float) -> float:
    return 0.5 * (hi - lo) * (curve.value(lo) + curve.value(hi))


class TestIntegration:
    # a segment's integral is its trapezoid plus its gap, which the kernel
    # computes from deriv2

    def test_empty_interval(self, catalog):
        for entry in catalog:
            assert gap(entry.curve, 1.3, 1.3) == 0.0

    def test_logistic_closed_form(self, catalog_by_name):
        curve = catalog_by_name["logistic1a"].curve
        value = trap(curve, 0.0, 2.0) + gap(curve, 0.0, 2.0)
        assert_allclose(value, math.log((1.0 + math.e ** 2) / 2.0), rtol=1e-13)

    def test_gompertz_against_simpson(self, catalog_by_name):
        curve = catalog_by_name["gompertz1a"].curve
        oracle = simpson_integral(curve.value, 0.0, 6.0, tol=1e-13)
        assert_allclose(trap(curve, 0.0, 6.0) + gap(curve, 0.0, 6.0), oracle, atol=1e-10)

    def test_additivity(self, catalog, rng):
        # gap(a, b) = gap(a, m) + gap(m, b) + trap(a, m) + trap(m, b) - trap(a, b)
        for entry in catalog:
            c, a, b = entry.curve, entry.a, entry.b
            whole = gap(c, a, b)
            for _ in range(3):
                mid = rng.uniform(a, b)
                split = gap(c, a, mid) + gap(c, mid, b) \
                    + trap(c, a, mid) + trap(c, mid, b) - trap(c, a, b)
                assert abs(whole - split) < 1e-11

    def test_reversed_bounds_rejected(self, catalog_by_name):
        with pytest.raises(ValueError):
            gap(catalog_by_name["logistic1a"].curve, 2.0, 0.0)


class TestShape:
    # weibull1a has an inflection at -1/sqrt(2), inside its catalog interval,
    # so its concave flag only describes the bulk of the interval
    CONCAVE_EVERYWHERE = ["logistic1a", "logistic2a", "logistic3a",
                          "gompertz1a", "weibull2a", "weibull3a"]

    def test_flagged_rows_are_concave_inside(self, catalog_by_name):
        for name in self.CONCAVE_EVERYWHERE:
            entry = catalog_by_name[name]
            xs = np.linspace(entry.a, entry.b, 102)[1:-1]
            assert np.all(entry.curve.deriv2(xs) < 0.0), name

    def test_weibull1a_inflection(self, catalog_by_name):
        entry = catalog_by_name["weibull1a"]
        flip = -1.0 / math.sqrt(2.0)
        assert entry.a < flip < entry.b
        left = np.linspace(entry.a, flip, 40)[1:-1]
        right = np.linspace(flip, entry.b, 40)[1:-1]
        assert np.all(entry.curve.deriv2(left) < 0.0)
        assert np.all(entry.curve.deriv2(right) > 0.0)


class TestWeibullDeriv2Bits:
    """deriv2 reuses one w ** s; the result is the two-pow formula's, bit for bit."""

    @staticmethod
    def two_pow(curve, x):
        v2, s, d1, d2 = curve.v2, curve.s, curve.d1, curve.d2
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            w = d1 * x + d2
            return (-v2 * s * d1 * d1 * np.exp(-(w ** s)) * w ** (s - 2.0)
                    * ((s - 1.0) - s * w ** s))

    @pytest.mark.parametrize("n", [4, 8])
    def test_equals_two_pows_at_the_kernel_nodes(self, catalog, n):
        rows = [e for e in catalog if e.curve.family is CurveFamily.WEIBULL]
        assert {e.name for e in rows} >= {"weibull1b", "weibull2b"}
        for entry in rows:
            nodes = []

            def recorded(x, curve=entry.curve):
                nodes.append(x.copy())
                return curve.deriv2(x)

            xs = np.linspace(entry.a, entry.b, n + 2)
            integrate_segments(recorded, xs[:-1], xs[1:])
            x = np.concatenate(nodes)
            if entry.name == "weibull2b":    # numpy's slow negative-base pow
                assert (entry.curve.d1 * x + entry.curve.d2 < 0.0).any()
            got = entry.curve.deriv2(x)
            assert got.tobytes() == self.two_pow(entry.curve, x).tobytes(), entry.name


class TestValidation:
    def test_arctan_rejects_shape(self):
        with pytest.raises(ValueError):
            Curve(CurveFamily.ARCTAN, 0.0, 1.0, 1.0, 1.0, 0.0)

    def test_other_families_require_shape(self):
        with pytest.raises(ValueError):
            Curve(CurveFamily.WEIBULL, 0.0, 1.0, None, 1.0, 0.0)
        with pytest.raises(ValueError, match="must be nonzero"):
            Curve(CurveFamily.WEIBULL, 0, 1, 0.0, 1, 0)

    def test_fractional_power_domain_error(self, catalog_by_name):
        curve = catalog_by_name["weibull3a"].curve  # (x)**2.2 needs x >= 0
        with pytest.raises(CurveDomainError):
            curve.value(-1.0)

    def test_algebraic_domain_error(self):
        curve = Curve(CurveFamily.ALGEBRAIC, 0.0, 1.0, 2.0, 1.0, -2.0)
        with pytest.raises(CurveDomainError):
            curve.value(1.0)  # x**2 - 2 < 0 under a square root

    # values near the largest float, whose sum overflows: f at u = 11..13,
    # f' at u = 0 and f'' at its peak u = 1/sqrt(3) (2 v2 must stay finite)
    @pytest.mark.parametrize("method, v2, d2, x", [
        ("value", 1e308, 10.0, [1.0, 2.0, 3.0]),
        ("deriv1", 1e308, 0.0, [0.0, 0.0, 0.0]),
        ("deriv2", 8e307, 0.0, [3.0 ** -0.5] * 4),
    ], ids=["value", "deriv1", "deriv2"])
    def test_finite_values_near_overflow_do_not_warn(self, method, v2, d2, x):
        curve = Curve(CurveFamily.ARCTAN, 0.0, v2, None, 1.0, d2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = getattr(curve, method)(np.array(x))
        # finite, and each above max_float / len(x), so their sum overflows
        assert np.all(np.isfinite(out))
        assert np.all(np.abs(out) > np.finfo(float).max / len(x))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_value_named_whatever_the_sum(self, bad):
        # the check runs inside the methods' errstate block, as here
        x = np.array([0.25, 0.5, 0.75, 1.0])
        values = np.array([1e308, 1e308, bad, -bad])
        with np.errstate(over="ignore", invalid="ignore"):
            finite = values[:2]   # its sum overflows
            assert curves._finite_or_raise(finite, CurveFamily.ARCTAN, x[:2]) is finite
            with pytest.raises(CurveDomainError) as caught:
                curves._finite_or_raise(values, CurveFamily.ARCTAN, x)
        assert str(caught.value) == "Arctan formula undefined at x=0.75 (2 of 4 points)"

    @pytest.mark.parametrize("method", ["value", "deriv1", "deriv2"])
    def test_undefined_weibull_still_raises_without_warning(self, method):
        # (x - 1) ** 1.5 is undefined below x = 1
        curve = Curve(CurveFamily.WEIBULL, 0.0, 1.0, 1.5, 1.0, -1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(CurveDomainError, match="x=0.5"):
                getattr(curve, method)(np.array([0.5, 1.5, 2.0]))


class TestCatalog:
    def test_bundled_catalog(self, catalog):
        assert len(catalog) == 20
        names = [entry.name for entry in catalog]
        assert len(set(names)) == 20
        assert all(entry.a < entry.b for entry in catalog)
        assert sum(entry.concave for entry in catalog) == 7

    def test_arctan_rows_have_no_shape(self, catalog):
        for entry in catalog:
            if entry.curve.family is CurveFamily.ARCTAN:
                assert entry.curve.s is None

    def test_load_custom_file(self, tmp_path):
        path = tmp_path / "mini.csv"
        path.write_text(
            "name,type,v1,v2,s,d1,d2,concave,a,b\n"
            "demo,Arctan,0.0,1.0,-,1.0,0.0,N,-1.0,1.0\n")
        entries = load_catalog(path)
        assert len(entries) == 1
        assert entries[0].curve.family is CurveFamily.ARCTAN

    def test_duplicate_names_rejected(self, tmp_path):
        path = tmp_path / "dup.csv"
        path.write_text(
            "name,type,v1,v2,s,d1,d2,concave,a,b\n"
            "demo,Arctan,0.0,1.0,-,1.0,0.0,N,-1.0,1.0\n"
            "demo,Arctan,0.0,2.0,-,1.0,0.0,N,-1.0,1.0\n")
        with pytest.raises(ValueError):
            load_catalog(path)

    @pytest.mark.parametrize("name", ["", "  "], ids=["empty", "blank"])
    def test_empty_names_rejected(self, tmp_path, name):
        path = tmp_path / "empty.csv"
        row = f"{name},Logistic,0,1,1,1,0,N,-2,2"
        path.write_text("name,type,v1,v2,s,d1,d2,concave,a,b\n"
                        "demo,Arctan,0.0,1.0,-,1.0,0.0,N,-1.0,1.0\n" + row + "\n")
        with pytest.raises(ValueError) as exc:
            load_catalog(path)
        assert str(exc.value) == f"{path}, line 3: {row!r}: empty curve name"

    def test_interval_validated(self):
        curve = Curve(CurveFamily.ARCTAN, 0.0, 1.0, None, 1.0, 0.0)
        with pytest.raises(ValueError):
            CurveCatalogEntry(name="bad", curve=curve, concave=False, a=1.0, b=1.0)

    @pytest.mark.parametrize("a, b", [(0.0, math.inf), (-math.inf, 1.0),
                                      (-math.inf, math.inf), (math.nan, 1.0)])
    def test_interval_must_be_finite(self, a, b):
        curve = Curve(CurveFamily.ARCTAN, 0.0, 1.0, None, 1.0, 0.0)
        with pytest.raises(ValueError, match="needs finite a and b"):
            CurveCatalogEntry(name="bad", curve=curve, concave=False, a=a, b=b)

    def test_concave_flag_is_y_or_n_in_either_case(self, tmp_path):
        path = tmp_path / "flags.csv"
        path.write_text(
            "name,type,v1,v2,s,d1,d2,concave,a,b\n"
            "p,Arctan,0.0,1.0,-,1.0,0.0,y,-1.0,1.0\n"
            "q,Arctan,0.0,1.0,-,1.0,0.0, N ,-1.0,1.0\n")
        assert [entry.concave for entry in load_catalog(path)] == [True, False]
        for flag in ("maybe", "", "yes", "1"):
            path.write_text(
                "name,type,v1,v2,s,d1,d2,concave,a,b\n"
                f"p,Arctan,0.0,1.0,-,1.0,0.0,{flag},-1.0,1.0\n")
            with pytest.raises(ValueError, match="line 2: .*concave must be Y or N"):
                load_catalog(path)
