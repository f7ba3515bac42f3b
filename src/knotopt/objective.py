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

``evaluate`` is the one place that computes a kind's value: phi for the
area kind, and for a squared kind ``pl.squared_gap_sum`` of the gaps in the
kind's window, the same call its error measure makes, so each equals its
measure by construction.  Writing a gap as I - T, with I the segment
integral and T the trapezoid, the partials of its square are

    d (I - T)^2 / d x_lo = (I - T) * [f(x_hi) - f(x_lo) - f'(x_lo)(x_hi - x_lo)]
    d (I - T)^2 / d x_hi = (I - T) * [f(x_hi) - f(x_lo) - f'(x_hi)(x_hi - x_lo)]

Both factors vanish when x_lo = x_hi, so degenerate segments are smooth
zeros of the objective.  Halved, the brackets are the partials of the gap
itself, the two entries per row of the gaps' Jacobian J.  ``_gradient``
is the one place that forms a kind's gradient, and ``_model`` the one
place that forms its tridiagonal Newton model: from the brackets, the
squared kinds' Gauss-Newton matrix 2 J^T J, and for the area kind phi's
Hessian, which is tridiagonal too.  Newton takes the gradient, tests its
stop on it, and only then forms the model, so a step that stops forms
none; the KKT certificate (``kkt.hessian_phi``) forms the area kind's
model alone.  ``grad_x`` takes the gradient alone, and so evaluates no f''.

The substitution y_i = (x_i - a) / (b - x_i), with inverse
x_i = b - (b - a) / (1 + y_i), maps ordered knots in [a, b) onto the monotone
nonnegative cone 0 <= y_1 <= ... <= y_n, turning the ordering constraints
into a cone membership that admits a fast exact projection.
``YObjective.value`` and ``YObjective.grad`` evaluate any kind through that
substitution; the gradient is ``grad_x``, the gradient Newton takes,
times the chain-rule factor dx_i/dy_i = (b - a) / (1 + y_i)^2.
"""

from __future__ import annotations

from contextlib import suppress

import numpy as np

from .curves import CurveDomainError
from .pl import KnotVector, ObjectiveKind, squared_gap_sum, window_gaps

#: relative width of the guard band below b that ``to_y`` moves knots out of
DELTA_SCALE = 1e-12


# -- x-space objectives ---------------------------------------------------


def evaluate(curve, kind: ObjectiveKind,
             xs: np.ndarray) -> tuple[np.ndarray, np.ndarray | None, float]:
    """f at the ordered breakpoints ``xs`` (a, the knots, b), gaps and value.

    The area kind has no gaps (None) and its value is phi; a squared kind's
    value is ``squared_gap_sum`` of the gaps in its window.
    """
    window = kind.window(xs.size - 2)
    gaps = None if window is None else window_gaps(curve, xs, *window)
    fv = np.asarray(curve.value(xs), dtype=float)
    if gaps is None:
        terms = -0.5 * ((xs[1:] - xs[:-1]) * (fv[:-1] + fv[1:]))
        return fv, None, float(np.add.reduce(terms))
    return fv, gaps, squared_gap_sum(gaps)


def phi(curve, knots: KnotVector) -> float:
    """Negated trapezoid area of the interpolant over [a, b]."""
    return evaluate(curve, ObjectiveKind.CONCAVE_AREA, knots.full())[2]


def _gradient(xs: np.ndarray, fv: np.ndarray, gaps: np.ndarray | None,
              fp: np.ndarray) -> tuple[np.ndarray, tuple[np.ndarray, np.ndarray] | None]:
    """A kind's gradient, and for a squared kind its bracket factors.

    ``xs`` are the breakpoints, ``fv`` and ``gaps`` as ``evaluate`` gives
    them and ``fp`` f' at the interior knots.  For the area kind (``gaps``
    None) component i is phi's partial,
    (1/2)[f(x_{i+1}) - f(x_{i-1}) + f'(x_i)(x_{i-1} - x_{i+1})], and there
    are no brackets.  Nothing here reads f''.
    """
    if gaps is None:
        return 0.5 * (fv[2:] - fv[:-2] + fp * (xs[:-2] - xs[2:])), None
    h = xs[1:] - xs[:-1]
    df = fv[1:] - fv[:-1]
    upper, lower = df[:-1] - fp * h[:-1], df[1:] - fp * h[1:]
    return gaps[:-1] * upper + gaps[1:] * lower, (upper, lower)


def _model(curve, kind: ObjectiveKind, xs: np.ndarray, fp: np.ndarray,
           brackets: tuple[np.ndarray, np.ndarray] | None
           ) -> tuple[np.ndarray, np.ndarray]:
    """The kind's tridiagonal Newton model (diag, off) beside ``_gradient``.

    ``brackets`` are ``_gradient``'s; only the area kind (None) reads f''.
    For the area kind the model is phi's Hessian, (1/2)(x_{i-1} - x_{i+1})
    f''(x_i) on the diagonal and (1/2)(f'(x_{i+1}) - f'(x_i)) beside it,
    with 0 for f'' at a knot on a or b where f'' is infinite (Weibull with
    1 < s < 2 at a).  For a squared kind, interior knot j (breakpoint
    j + 1) ends segment j and starts segment j + 1, so ``upper`` is twice
    d gap_j / d x and ``lower`` twice d gap_{j+1} / d x, and 2 J^T J is
    tridiagonal: each gap depends only on its segment's two end knots.
    """
    if brackets is None:
        x = xs[1:-1]
        try:
            fpp = np.asarray(curve.deriv2(x), dtype=float)
        except CurveDomainError:
            # f'' may be infinite at a or b, where Newton ties knots; only
            # Newton's damping bounds the step of a knot given 0 there
            inside = (xs[0] < x) & (x < xs[-1])
            fpp = np.zeros(x.size)
            fpp[inside] = curve.deriv2(x[inside])
            for end in xs[0], xs[-1]:
                with suppress(CurveDomainError):
                    fpp[x == end] = curve.deriv2(end)
        return 0.5 * (xs[:-2] - xs[2:]) * fpp, 0.5 * (fp[1:] - fp[:-1])
    upper, lower = brackets
    window = kind.window(xs.size - 2)
    scored = np.zeros(xs.size - 1)
    scored[window[0]:window[1] + 1] = 1.0
    return (0.5 * (scored[:-1] * upper ** 2 + scored[1:] * lower ** 2),
            0.5 * scored[1:-1] * lower[:-1] * upper[1:])


def grad_x(curve, kind: ObjectiveKind, xs: np.ndarray) -> np.ndarray:
    """``_gradient`` in the interior knots of the breakpoints ``xs``.

    It is Newton's formula, without the model, so f'' is not evaluated.
    """
    fv, gaps, _ = evaluate(curve, kind, xs)
    fp = np.asarray(curve.deriv1(xs[1:-1]), dtype=float)
    return _gradient(xs, fv, gaps, fp)[0]


# -- the cone substitution ------------------------------------------------


def to_y(knots: KnotVector) -> np.ndarray:
    """Map interior knots to cone coordinates y_i = (x_i - a) / (b - x_i).

    The map blows up at x = b, so knots above b - DELTA_SCALE * (b - a) are
    moved down to that bound first.
    """
    a, b = knots.a, knots.b
    xs = np.minimum(knots.interior, b - DELTA_SCALE * (b - a))
    return (xs - a) / (b - xs)


def from_y(y: np.ndarray, a: float, b: float) -> KnotVector:
    """Inverse map x_i = b - (b - a) / (1 + y_i); clips y below at 0."""
    xs = b - (b - a) / (1.0 + np.maximum(np.asarray(y, dtype=float), 0.0))
    # the floor absorbs b - (b - a) rounding below a; the running maximum
    # orders only y from off the cone, such as finite-difference probes
    xs = np.maximum.accumulate(np.maximum(xs, a))
    return KnotVector(a, b, xs)


class YObjective:
    """A smooth objective of the given kind over the monotone nonnegative cone.

    Each call maps y to knots with ``from_y`` and evaluates the kind there:
    ``value`` is ``evaluate``'s value and ``grad`` is ``grad_x`` times the
    chain-rule factor dx_i/dy_i.
    """

    def __init__(self, curve, a: float, b: float, kind: ObjectiveKind):
        self.curve = curve
        self.a = float(a)
        self.b = float(b)
        self.kind = kind

    def value(self, y: np.ndarray) -> float:
        return evaluate(self.curve, self.kind, from_y(y, self.a, self.b).full())[2]

    def grad(self, y: np.ndarray) -> np.ndarray:
        xs = from_y(y, self.a, self.b).full()
        dx_dy = (self.b - self.a) / (1.0 + y) ** 2
        return grad_x(self.curve, self.kind, xs) * dx_dy
