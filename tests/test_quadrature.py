"""The gap kernel against an 80-digit oracle, and its failure modes."""

import time

import mpmath as mp
import numpy as np
import pytest
from numpy.polynomial.legendre import leggauss
from numpy.testing import assert_allclose

from knotopt import (Curve, CurveCatalogEntry, CurveFamily, KnotVector,
                     QuadratureError, harness, quadrature, run_catalog)
from knotopt.pl import segment_gaps
from knotopt.quadrature import integrate_segments

from helpers import f2_zeros, mp_value

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
    xs = knots.full()
    got = segment_gaps(curve, knots)
    want = oracle_gaps(curve, xs)
    rel = np.abs(got - want) / gap_scale(curve, xs)
    assert np.all(rel <= GAP_RTOL), (rel, got, want)
    return got, want


class TestOracle:
    def test_weibull2a_small_gaps(self, catalog_by_name):
        # equal spacing, n=8: the last gaps are ~1e-14, 3e-20 and 1e-27,
        # which "integral minus trapezoid" in doubles loses to cancellation
        entry = catalog_by_name["weibull2a"]
        got, want = assert_matches_oracle(
            entry.curve, KnotVector.equally_spaced(entry.a, entry.b, 8))
        assert_allclose(want[-3:], [1.2302e-14, 2.8867e-20, 1.3850e-27], rtol=1e-4)
        assert_allclose(got, want, rtol=GAP_RTOL)

    def test_arctan1b_wide_segments(self, catalog_by_name):
        entry = catalog_by_name["arctan1b"]
        assert_matches_oracle(entry.curve, KnotVector.equally_spaced(entry.a, entry.b, 4))

    @pytest.mark.parametrize("shape", [1.5, 2.5])
    def test_f2_not_smooth_at_the_left_end(self, shape):
        # f'' ~ x^(shape - 2) at x = 0: singular for 1.5, a kink for 2.5; the
        # end panel's relative error never shrinks, so the segment-relative
        # floor ends its refinement
        curve = Curve(CurveFamily.WEIBULL, 1.0, -1.0, shape, 1.0, 0.0)
        assert_matches_oracle(curve, KnotVector.equally_spaced(0.0, 2.0, 2))

    @pytest.mark.parametrize("n", [1, 2, 4, 8])
    def test_random_segments_of_every_row(self, catalog, n):
        rng = np.random.default_rng([7, n])
        for entry in catalog:
            inner = np.sort(rng.uniform(entry.a, entry.b, n))
            assert_matches_oracle(entry.curve, KnotVector(entry.a, entry.b, inner))

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
