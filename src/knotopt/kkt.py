"""First-order optimality diagnostics for knot-placement problems.

The ordering constraints x_i - x_{i+1} <= 0 (i = 0..n, with x_0 = a and
x_{n+1} = b fixed) carry multipliers lambda_0..lambda_n.  Stationarity reads

    g_i + lambda_i - lambda_{i-1} = 0,    i = 1..n,

with g the gradient of the chosen objective, together with complementarity
0 <= x_{i+1} - x_i  perp  lambda_i >= 0.  Complementarity makes every
multiplier of a separated gap zero, so when the knots are strictly
separated the report simply sets lambda = 0 and the stationarity residual
equals the max-norm of the gradient.  A KKT point may tie knots, though:
gompertz3b's area solves pass through knots tied at a, and its ``general``
solve at n = 8 from equal spacing ends ``Stationary`` with three knots tied
at a.  When ties are present the
multipliers are recovered by substitution through the stationarity rows
(tied constraints take the value forced by their row, separated ones take
zero, negatives are clamped) and the residuals report how far the rows
remain from holding.  A run tied to a is swept leftwards from the separated
gap after it, so lambda_0 holds x_1 at a as lambda_n holds x_n at b.

The gradient comes from ``objective.grad_x``, the Newton solver's
gradient formula, so every kind, the harness's interior window included,
can be certified, and the first-order check evaluates no f''.  The
curvature comes from ``objective._model``, the model the solver factors.

The area objective's stationarity system has a tridiagonal curvature
matrix: diagonal (x_{i-1} - x_{i+1}) f''(x_i), off-diagonal
f'(x_{i+1}) - f'(x_i).  This equals twice the Hessian of phi (the scale
does not affect definiteness), the area kind's model doubled.
``hessian_phi`` assembles it densely; ``prop1_test`` reads the bands off
that matrix and applies a sufficient local-minimum condition for
tridiagonal matrices:
positive diagonal entries plus, for i = 1..n-1,

    [f'(x_{i+1}) - f'(x_i)]^2
        < (1/4)(x_{i-1} - x_{i+1})(x_i - x_{i+2}) f''(x_i) f''(x_{i+1})
          / cos^2(pi / (n + 1)).

The index range stops at n - 1 because the i = n instance would reference a
breakpoint beyond b.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .objective import _model, grad_x
from .pl import KnotVector, ObjectiveKind

#: a gap below this share of b - a counts as an active (tied) constraint
COMPLEMENTARITY_TOL = 1e-8

#: largest stationarity residual at which ``prop1_test`` gives a verdict
KKT_TOL = 1e-6


@dataclass(frozen=True)
class KktReport:
    lam: np.ndarray                      # multipliers lambda_0..lambda_n
    stationarity_residual: float
    complementarity_residual: float

    def to_dict(self) -> dict:
        return {
            "lambda": self.lam.tolist(),
            "stationarity_residual": self.stationarity_residual,
            "complementarity_residual": self.complementarity_residual,
        }


def kkt_check(curve, knots: KnotVector,
              kind: ObjectiveKind = ObjectiveKind.CONCAVE_AREA) -> KktReport:
    """Recover multipliers and measure how far the KKT conditions are violated."""
    xs = knots.full()
    gaps = np.diff(xs)
    g = grad_x(curve, kind, xs)
    n = knots.n

    active = gaps <= COMPLEMENTARITY_TOL * (knots.b - knots.a)
    lam = np.zeros(n + 1)
    if np.any(active):
        # substitution through g_i + lam_i - lam_{i-1} = 0: leftwards from
        # the first separated gap through the run tied to a, then rightwards
        every_gap_tied = bool(np.all(active))
        lead = n if every_gap_tied else int(np.argmin(active))
        for i in range(lead, 0, -1):
            lam[i - 1] = g[i - 1] + lam[i]
        if every_gap_tied:
            # no separated gap pins lam_n: shift every multiplier by the
            # least amount that leaves them all nonnegative
            lam -= min(0.0, float(lam.min()))
        for i in range(lead + 1, n + 1):
            if active[i]:
                lam[i] = lam[i - 1] - g[i - 1]
        np.maximum(lam, 0.0, out=lam)

    rows = g + lam[1:] - lam[:-1]
    stationarity = float(np.max(np.abs(rows))) if n else 0.0
    complementarity = float(np.max(np.minimum(gaps, lam)))
    return KktReport(lam, stationarity, complementarity)


def hessian_phi(curve, knots: KnotVector) -> np.ndarray:
    """Tridiagonal curvature matrix of the area objective (twice its Hessian).

    A knot on a or b takes 0 only where f'' is infinite there
    (``objective._model``); elsewhere the entries are exact.
    """
    xs = knots.full()
    diag, off = _model(curve, ObjectiveKind.CONCAVE_AREA, xs,
                       curve.deriv1(xs[1:-1]), None)
    return 2.0 * (np.diag(diag) + np.diag(off, 1) + np.diag(off, -1))


def prop1_test(report: KktReport, hessian: np.ndarray) -> tuple[bool, np.ndarray]:
    """Sufficient second-order test at a KKT point of the area objective.

    ``report`` is the area kind's ``kkt_check`` and ``hessian`` is
    ``hessian_phi``, both at the same knots; no curve is evaluated.
    Returns (holds, margins) where margins[i] is the slack of the strict
    inequality for index i + 1 (empty when n == 1, in which case the verdict
    is positivity of the single diagonal entry).  Raises if the point fails
    the first-order check at tolerance ``KKT_TOL``.
    """
    if report.stationarity_residual > KKT_TOL:
        raise ValueError(
            f"not a KKT point: stationarity residual "
            f"{report.stationarity_residual:.3e} exceeds {KKT_TOL:.1e}")

    diag, off = np.diagonal(hessian), np.diagonal(hessian, 1)
    n = len(diag)
    if n == 1:
        return bool(diag[0] > 0.0), np.empty(0)

    lhs = off ** 2
    # (x_{i-1} - x_{i+1})(x_i - x_{i+2}) f''(x_i) f''(x_{i+1}) terms, i = 1..n-1
    rhs = 0.25 * diag[:-1] * diag[1:] / math.cos(math.pi / (n + 1)) ** 2
    margins = rhs - lhs
    holds = bool(np.all(diag > 0.0) and np.all(margins > 0.0))
    return holds, margins
