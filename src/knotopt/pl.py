"""Piecewise-linear interpolants through a knot vector and their error measures.

A knot vector holds the interval endpoints plus n ordered interior knots.
The interpolant agrees with the curve at every knot.  Coincident knots are
allowed as inputs: a zero-width segment contributes nothing to any error
measure and is skipped during evaluation.

Every error measure sums the signed area gaps that ``knotopt.quadrature``
computes from the curve's second derivative in the Peano
form of the trapezoid error.  Three measures are provided, one per
``ObjectiveKind``, which also owns the squared kinds' windows.
``error_concave`` is the signed area between the curve and the interpolant
(exact L1 error when the curve is concave, where the interpolant
under-approximates everywhere).  ``error_general`` squares each segment's
signed area gap before summing, so it is meaningful without a concavity
assumption.  ``error_interior_squared`` is the squared-gap sum restricted
to the segments joining consecutive interior knots; this is the quantity
reported by the experiment harness, matching the known reference values
for the bundled catalog.  The squared measures and the objectives in
``knotopt.objective`` share ``squared_gap_sum``, so a measure and its
objective agree to the last bit.

The squared measures and objectives take their gaps from ``window_gaps``:
the gap loop's Gauss-Kronrod table over a window of segments.  The area
measure takes them from ``segment_gaps``: the same loop with one 24-node
Gauss-Legendre panel per segment to start, a fifth of the f'' samples.
The two tables agree to rounding.  A squared kind's Newton path follows the
last bits of its gaps, and no Newton loop reads the area measure's, so only
the area measure takes the cheaper table.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .quadrature import gauss_legendre_segments, integrate_segments, sampled


@dataclass(frozen=True)
class KnotVector:
    """Finite endpoints a < b plus n nondecreasing interior knots in [a, b]."""

    a: float
    b: float
    interior: np.ndarray

    def __post_init__(self):
        # copy so later caller-side mutation cannot break the frozen invariant
        xs = np.array(self.interior, dtype=float).reshape(-1)
        if not -np.inf < self.a < self.b < np.inf:
            raise ValueError("knot vector needs finite a < b")
        # both checks are written so that a NaN knot fails them
        if xs.size and not (self.a <= xs[0] and xs[-1] <= self.b):
            raise ValueError("interior knots must lie in [a, b]")
        if not np.logical_and.reduce(xs[1:] >= xs[:-1]):
            raise ValueError("interior knots must be nondecreasing")
        xs.flags.writeable = False
        object.__setattr__(self, "interior", xs)

    @classmethod
    def equally_spaced(cls, a: float, b: float, n: int) -> "KnotVector":
        """n interior knots splitting [a, b] into n + 1 equal segments."""
        return cls(a, b, np.linspace(a, b, n + 2)[1:-1])

    @property
    def n(self) -> int:
        return self.interior.size

    def full(self) -> np.ndarray:
        """All n + 2 breakpoints including the endpoints."""
        xs = np.empty(self.interior.size + 2)
        xs[0], xs[1:-1], xs[-1] = self.a, self.interior, self.b
        return xs


def equidistributed(curve, a: float, b: float, n: int) -> KnotVector:
    """n interior knots at equal shares of the density max(-f'', 0)^(1/3).

    de Boor's asymptotic optimum of the area error ("Good approximation by
    splines with variable knots", 1973): (-f'')^(1/3) where f is concave,
    and 0 where it is convex, since longer chords there only lower the
    signed gap.  The density is floored at 1e-3 of its maximum, so the
    convex part keeps only that floor's share of the knots, and it is taken
    at the midpoints of 128 equal cells only, never at a or b, where f''
    may have an integrable singularity.  Equal spacing when f'' is nowhere
    negative.  The density's cumulative sum is a midpoint rule, so a NaN or
    infinite f'' sample raises ``QuadratureError`` naming its x, as the gap
    kernel does.
    """
    edges = np.linspace(a, b, 129)
    f2 = sampled(curve.deriv2, 0.5 * (edges[:-1] + edges[1:]), "f''")
    rho = np.maximum(-f2, 0.0) ** (1.0 / 3.0)
    cdf = np.concatenate(([0.0], np.maximum(rho, 1e-3 * rho.max()).cumsum()))
    if not cdf[-1] > 0.0:
        return KnotVector.equally_spaced(a, b, n)
    shares = cdf[-1] / (n + 1) * np.arange(1, n + 1)
    return KnotVector(a, b, np.interp(shares, cdf, edges))


class ObjectiveKind(Enum):
    """Which error measure a solve minimises; the value is its measure name.

    Each kind owns the window of segments whose squared gaps it sums (None
    for the closed-form area objective) and the error measure it reports.
    """

    CONCAVE_AREA = "concave"
    GENERAL_SQUARED = "general"
    INTERIOR_SQUARED = "auto"

    def window(self, n: int) -> tuple[int, int] | None:
        """Indices lo..hi of the segments scored for n interior knots."""
        if self is ObjectiveKind.CONCAVE_AREA:
            return None
        if self is ObjectiveKind.GENERAL_SQUARED:
            return 0, n
        return 1, n - 1

    def error(self, curve, knots: KnotVector) -> float:
        """This kind's error measure at the given knots."""
        # looked up in the module globals at call time, so wrappers
        # installed on the measures (such as a tracer's) see every call
        if self is ObjectiveKind.CONCAVE_AREA:
            return error_concave(curve, knots)
        if self is ObjectiveKind.GENERAL_SQUARED:
            return error_general(curve, knots)
        return error_interior_squared(curve, knots)


@dataclass(frozen=True)
class PLApprox:
    """Piecewise-linear interpolant; callable on scalars or arrays."""

    knots: KnotVector
    values: np.ndarray = field(repr=False)

    def __call__(self, x):
        xs = self.knots.full()
        # ties are exact: only zero-width segments are skipped, no tolerance
        keep = np.concatenate(([True], np.diff(xs) > 0.0))
        out = np.interp(np.asarray(x, dtype=float), xs[keep], self.values[keep])
        return out if np.ndim(x) else float(out)


def build_pl(curve, knots: KnotVector) -> PLApprox:
    """Interpolant through (x_i, f(x_i))."""
    fv = np.asarray(curve.value(knots.full()), dtype=float)
    return PLApprox(knots=knots, values=fv)


def window_gaps(curve, xs: np.ndarray, lo: int, hi: int) -> np.ndarray:
    """Signed area gaps of segments lo..hi, zeros for the other segments.

    gap_i = integral of f over [x_i, x_{i+1}] minus its trapezoid, with xs
    all breakpoints, computed from f'' (see ``knotopt.quadrature``).
    Degenerate segments give 0, and so does an empty window (hi < lo).  Only
    the window's segments are integrated: the batched kernel may round
    differently for a different batch, so every caller that must agree on a
    window passes the same one.
    """
    gaps = np.zeros(xs.size - 1)
    gaps[lo:hi + 1] = integrate_segments(curve.deriv2, xs[lo:hi + 1], xs[lo + 1:hi + 2])
    return gaps


def squared_gap_sum(gaps: np.ndarray) -> float:
    """Sum of the squared gaps: a squared kind's measure and objective value."""
    # the bits of (gaps ** 2).sum(): ``**`` 2 is numpy's square, gaps * gaps,
    # and ``.sum`` is this reduction behind a Python wrapper
    return float(np.add.reduce(gaps * gaps))


def segment_gaps(curve, knots: KnotVector) -> np.ndarray:
    """Per-segment signed area between curve and chord, all n + 1 segments.

    Computed by ``quadrature.gauss_legendre_segments``, which agrees with
    ``window_gaps`` to rounding; no Newton loop reads these gaps.
    """
    xs = knots.full()
    return gauss_legendre_segments(curve.deriv2, xs[:-1], xs[1:])


def error_concave(curve, knots: KnotVector) -> float:
    """Area under the curve minus area under the interpolant.

    Nonnegative whenever the curve is concave on [a, b] (the chords then lie
    below the curve); the caller is responsible for that assumption.
    """
    return float(np.sum(segment_gaps(curve, knots)))


def error_general(curve, knots: KnotVector) -> float:
    """Sum of squared per-segment area gaps over all n + 1 segments."""
    window = ObjectiveKind.GENERAL_SQUARED.window(knots.n)
    return squared_gap_sum(window_gaps(curve, knots.full(), *window))


def error_interior_squared(curve, knots: KnotVector) -> float:
    """Squared-gap sum over interior segments only.

    Counts the segments [x_1, x_2] .. [x_{n-1}, x_n] between consecutive
    interior knots and excludes the two boundary segments touching a and b.
    Zero when n < 2.  This is the error the experiment harness reports.
    """
    window = ObjectiveKind.INTERIOR_SQUARED.window(knots.n)
    return squared_gap_sum(window_gaps(curve, knots.full(), *window))
