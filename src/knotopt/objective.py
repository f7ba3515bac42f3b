"""Smooth knot-placement objectives, their gradients, and the y-space map.

Three objective kinds (``pl.ObjectiveKind``) are defined over a knot vector
x with fixed endpoints x_0 = a, x_{n+1} = b.  Each kind's value is the name
of the error measure it minimises:

* ``CONCAVE_AREA`` ("concave"): phi(x) = -(1/2) * sum_i (x_{i+1} - x_i)
  (f(x_{i+1}) + f(x_i)), the negated trapezoid area.  Because the integral
  of f over [a, b] is a constant, minimising phi is equivalent to minimising
  the concave area-gap error measure.
* ``GENERAL_SQUARED`` ("general"): the sum of the squared signed area gaps
  of all n + 1 segments, valid for curves without a concavity assumption.
* ``INTERIOR_SQUARED`` ("auto"): the same sum over the segments between
  consecutive interior knots only, the harness default.

The squared kinds' values are ``pl.squared_gap_sum`` of the gaps in the
kind's window, the same call their error measures make, so each equals its
measure by construction.  Writing a gap as I - T, with I the segment
integral and T the trapezoid, the partials of its square are

    d (I - T)^2 / d x_lo = (I - T) * [f(x_hi) - f(x_lo) - f'(x_lo)(x_hi - x_lo)]
    d (I - T)^2 / d x_hi = (I - T) * [f(x_hi) - f(x_lo) - f'(x_hi)(x_hi - x_lo)]

Both factors vanish when x_lo = x_hi, so degenerate segments are smooth
zeros of the objective.

The substitution y_i = (x_i - a) / (b - x_i), with inverse
x_i = b - (b - a) / (1 + y_i), maps ordered knots in [a, b) onto the monotone
nonnegative cone 0 <= y_1 <= ... <= y_n, turning the ordering constraints
into a cone membership that admits a fast exact projection.
``YObjective.value`` and ``YObjective.grad`` evaluate any kind through that
substitution; the gradient is ``grad_x``, the one x-space gradient of every
kind, times the chain-rule factor dx_i/dy_i = (b - a) / (1 + y_i)^2.
"""

from __future__ import annotations

import numpy as np

from .pl import KnotVector, ObjectiveKind, squared_gap_sum, window_gaps

#: relative width of the guard band below b in which knots may not start
DELTA_SCALE = 1e-12

#: largest representable y component, image of x = b - DELTA_SCALE * (b - a)
Y_MAX = 1.0 / DELTA_SCALE - 1.0


# -- x-space objectives ---------------------------------------------------


def phi(curve, knots: KnotVector, fv: np.ndarray | None = None) -> float:
    """Negated trapezoid area of the interpolant over [a, b].

    ``fv``, f at ``knots.full()``, spares the curve evaluation when given.
    """
    xs = knots.full()
    fv = np.asarray(curve.value(xs), dtype=float) if fv is None else fv
    return float(-0.5 * np.sum(np.diff(xs) * (fv[:-1] + fv[1:])))


def grad_x(curve, kind: ObjectiveKind, knots: KnotVector,
           gaps: np.ndarray | None = None,
           fv: np.ndarray | None = None) -> np.ndarray:
    """The kind's gradient in the interior knots; uses ``gaps``/``fv`` when given.

    For the area kind (phi) component i is
    (1/2)[f(x_{i+1}) - f(x_{i-1}) + f'(x_i)(x_{i-1} - x_{i+1})].
    """
    window = kind.window(knots.n)
    xs = knots.full()
    if window is not None and gaps is None:
        gaps = window_gaps(curve, xs, *window)
    fv = np.asarray(curve.value(xs), dtype=float) if fv is None else fv
    fp = np.asarray(curve.deriv1(xs[1:-1]), dtype=float)
    if window is None:
        return area_gradient(xs, fv, fp)
    h = np.diff(xs)
    df = fv[1:] - fv[:-1]
    # knot j borders segment j-1 from above and segment j from below
    return (gaps[:-1] * (df[:-1] - fp * h[:-1])
            + gaps[1:] * (df[1:] - fp * h[1:]))


def area_gradient(xs: np.ndarray, fv: np.ndarray, fp: np.ndarray) -> np.ndarray:
    """phi's gradient from the breakpoints ``xs``, f at them and f' inside."""
    return 0.5 * (fv[2:] - fv[:-2] + fp * (xs[:-2] - xs[2:]))


def area_hessian_bands(xs: np.ndarray, fp: np.ndarray,
                       fpp: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Diagonal and off-diagonal of phi's Hessian in the interior knots.

    The Hessian is tridiagonal: (1/2)(x_{i-1} - x_{i+1}) f''(x_i) on the
    diagonal and (1/2)(f'(x_{i+1}) - f'(x_i)) beside it; ``fp`` and ``fpp``
    are f' and f'' at the interior knots of the breakpoints ``xs``.
    """
    return 0.5 * (xs[:-2] - xs[2:]) * fpp, 0.5 * (fp[1:] - fp[:-1])


# -- the cone substitution ------------------------------------------------


def to_y(knots: KnotVector) -> np.ndarray:
    """Map interior knots to cone coordinates y_i = (x_i - a) / (b - x_i).

    Raises ValueError if any knot exceeds b - delta with
    delta = DELTA_SCALE * (b - a); the map blows up at x = b.
    """
    a, b, xs = knots.a, knots.b, knots.interior
    delta = DELTA_SCALE * (b - a)
    if np.any(xs > b - delta):
        raise ValueError(f"knots must not exceed b - {delta:.3e}")
    return (xs - a) / (b - xs)


def from_y(y: np.ndarray, a: float, b: float) -> KnotVector:
    """Inverse map x_i = b - (b - a) / (1 + y_i); clips y into [0, Y_MAX]."""
    y = np.clip(np.asarray(y, dtype=float), 0.0, Y_MAX)
    xs = b - (b - a) / (1.0 + y)
    # the floor absorbs b - (b - a) rounding below a; the running maximum
    # orders only y from off the cone, such as finite-difference probes
    xs = np.maximum.accumulate(np.maximum(xs, a))
    return KnotVector(a, b, xs)


class YObjective:
    """A smooth objective of the given kind over the monotone nonnegative cone.

    The solver asks for the gradient where it has just taken the value, so
    ``grad`` reuses the state ``value`` left at the same y: the window gaps
    of a squared kind, or f at the knots for the area kind.
    """

    def __init__(self, curve, a: float, b: float, kind: ObjectiveKind):
        self.curve = curve
        self.a = float(a)
        self.b = float(b)
        self.kind = kind
        self._state = None   # (clipped y, knots, gaps, f at knots) of the last y

    def _at(self, y: np.ndarray):
        y = np.clip(np.asarray(y, dtype=float), 0.0, Y_MAX)
        if self._state is None or not np.array_equal(self._state[0], y):
            knots = from_y(y, self.a, self.b)
            window = self.kind.window(knots.n)
            if window is None:
                gaps, fv = None, np.asarray(self.curve.value(knots.full()), dtype=float)
            else:
                gaps, fv = window_gaps(self.curve, knots.full(), *window), None
            self._state = (y, knots, gaps, fv)
        return self._state

    def value(self, y: np.ndarray) -> float:
        _, knots, gaps, fv = self._at(y)
        return phi(self.curve, knots, fv) if gaps is None else squared_gap_sum(gaps)

    def grad(self, y: np.ndarray) -> np.ndarray:
        y, knots, gaps, fv = self._at(y)
        dx_dy = (self.b - self.a) / (1.0 + y) ** 2
        return grad_x(self.curve, self.kind, knots, gaps, fv) * dx_dy
