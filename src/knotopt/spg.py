"""The solvers: damped Newton in x behind ``solve``, and SPG in y.

``minimize_x`` works in the knots, for every kind.  Its model is
tridiagonal: phi's Hessian for the area kind, and for a squared kind the
Gauss-Newton matrix 2 J^T J of its window's gaps, as each gap depends only
on its segment's two end knots.  Each model step solves (H + mu I) s = -g
by an O(n) LDL^T sweep; the Levenberg damping mu grows fourfold until s is
a descent direction, tending to the steepest-descent step.  Trial points
follow the projected arc P(x + t s), t = 1, 1/2, ..., with P the exact
projection onto the ordered knots in [a, b], until an Armijo test holds.
For every kind the model is projected Newton's (Bertsekas, SIAM J.
Control Optim. 20, 1982): the knots that a short steepest-descent step
keeps tied, or at a or b, move as one run or stay put, so P never pools a
model step that pushes tied knots across each other into an ascent along
the whole arc.  Newton draws no random numbers.  ``solve`` runs it for
every kind.

``minimize_y`` is the spectral projected gradient (SPG) method over the
monotone nonnegative cone that y_i = (x_i - a)/(b - x_i) maps the knots
onto, for callers that pass it an objective in y such as ``YObjective``.
Each iteration projects a Barzilai-Borwein-scaled gradient step,
p_k = P(y_k - alpha_bar g_k), takes d_k = p_k - y_k, then runs a
nonmonotone line search against the largest of the last HISTORY + 1 values:

    accept alpha when  F(y_k + alpha d_k) <= f_b + NU * alpha * grad_k . d_k

with alpha shrunk by uniform random redraws on (0, alpha) from a seeded
generator (reproducible).  The step scale is the classical s.s / s.z.  The
first trial point is p_k and a backtracked one is (1 - alpha) y_k + alpha p_k:
nonnegative multiples of ordered nonnegative vectors, summed with monotone
IEEE rounding, so it is in the cone exactly and needs no second projection.

Each stops as stationary (on |P(x - g) - x|: ``NEWTON_TOL`` times
max(1, max |f|) for the area kind, ``SQUARED_RTOL`` times its value at the
start for a squared kind; Newton also stops when no run is free to descend;
``EPS`` on |d_k| for SPG), with no improvement (the step underflows, or
SPG's best value stalls for ``STALL_ITERS`` iterations) or at its
iteration limit.  Each returns its best point (Newton's is its last, as it
descends up to the objective's rounding), the value there, the iteration
count and the reason to stop.
"""

from __future__ import annotations

import numbers
from collections import deque
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .cone import project
from .objective import area_hessian_bands, gauss_newton_bands, grad_x, phi
from .pl import KnotVector, ObjectiveKind, squared_gap_sum, window_gaps


class Termination(Enum):
    MAX_ITER = "MaxIter"
    NO_IMPROVEMENT = "NoImprovement"
    STATIONARY = "Stationary"


class SolverError(RuntimeError):
    """Numeric failure inside a solve; carries the point that failed."""

    def __init__(self, message: str, iteration: int, point: np.ndarray):
        super().__init__(f"{message} at iteration {iteration}")
        self.iteration = iteration
        self.point = point


def _checked(value, k: int, point: np.ndarray, what: str):
    if not np.all(np.isfinite(value)):
        raise SolverError(f"non-finite {what}", k, point)
    return value


# the minimisers read these at call time; none is bound as a default argument
ALPHA_MIN = 1e-10           # bounds on the Barzilai-Borwein step scale
ALPHA_MAX = 1e10
HISTORY = 10                # nonmonotone line search: last HISTORY + 1 values
NU = 1e-4                   # sufficient-decrease parameter
EPS = 1e-8                  # stationarity bound on the direction norm
IMPROVEMENT_TOL = 1e-12     # relative stall threshold on the best value
STALL_ITERS = 25            # consecutive stalled iterations allowed
MAX_ITER = 1000
_ALPHA_FLOOR = 1e-16
NEWTON_TOL = 1e-13          # stationarity bound, relative to max(1, max |f|)
SQUARED_RTOL = 1e-10        # squared kinds: bound relative to the start's residual
PHI_ROUNDING = 8 * np.finfo(float).eps   # Armijo allowance, relative
NEWTON_MAX_ITER = 200


@dataclass(frozen=True)
class SpgConfig:
    """The solver's one setting: the seed of its random backtracking."""

    rng_seed: int = 42

    def __post_init__(self):
        if not isinstance(self.rng_seed, numbers.Integral) or self.rng_seed < 0:
            raise ValueError(f"rng_seed must be an integer >= 0, got {self.rng_seed!r}")


def backtrack_step(alpha: float, rng: np.random.Generator) -> float:
    """Shrink the line-search step by a U(0, alpha) draw."""
    if alpha <= 0.0:
        raise ValueError("alpha must be positive")
    return float(rng.uniform(0.0, alpha))


@dataclass(frozen=True)
class MinimizeResult:
    """Raw outcome of a minimisation in the minimiser's own coordinates."""

    # the best point in the minimiser's own coordinates: cone y from
    # minimize_y, interior knots x from minimize_x
    point: np.ndarray
    objective: float              # objective at the best point
    iterations: int
    termination: Termination


@dataclass(frozen=True)
class SolveReport(MinimizeResult):
    """The minimiser's result plus the knots and errors in the kind's measure."""

    final_knots: KnotVector
    initial_error: float
    final_error: float


def minimize_y(value_fn, grad_fn, y0: np.ndarray, config: SpgConfig) -> MinimizeResult:
    """Minimise a smooth objective over {0 <= y_1 <= ... <= y_n}."""
    rng = np.random.default_rng(config.rng_seed)   # the only generator
    y = project(np.asarray(y0, dtype=float))
    f = float(_checked(value_fn(y), 0, y, "objective"))
    g = np.asarray(_checked(grad_fn(y), 0, y, "gradient"), dtype=float)

    best_y, best_f = y, f
    history = deque([f], maxlen=HISTORY + 1)
    alpha_bb = 1.0
    stall = 0

    for k in range(MAX_ITER):
        alpha_bar = min(ALPHA_MAX, max(ALPHA_MIN, alpha_bb))
        p = project(y - alpha_bar * g)
        d = p - y
        if np.linalg.norm(d) <= EPS:
            return MinimizeResult(best_y, best_f, k, Termination.STATIONARY)

        f_bound = max(history)
        g_dot_d = float(g @ d)
        alpha, y_new = 1.0, p
        f_new = float(_checked(value_fn(y_new), k, y_new, "objective"))
        while f_new > f_bound + NU * alpha * g_dot_d:
            alpha = backtrack_step(alpha, rng)
            if alpha < _ALPHA_FLOOR:
                return MinimizeResult(best_y, best_f, k, Termination.NO_IMPROVEMENT)
            # nonnegative multiples of ordered nonnegative vectors, summed with
            # monotone rounding: in the cone exactly
            y_new = (1.0 - alpha) * y + alpha * p
            f_new = float(_checked(value_fn(y_new), k, y_new, "objective"))

        g_new = np.asarray(_checked(grad_fn(y_new), k, y_new, "gradient"), dtype=float)
        s = y_new - y
        z = g_new - g
        s_dot_z = float(s @ z)
        alpha_bb = float(s @ s) / s_dot_z if s_dot_z > 0.0 else ALPHA_MAX
        if not np.isfinite(alpha_bb):
            alpha_bb = ALPHA_MAX

        improvement = best_f - f_new
        if f_new < best_f:
            best_f, best_y = f_new, y_new
        if improvement <= IMPROVEMENT_TOL * max(1.0, abs(best_f)):
            stall += 1
        else:
            stall = 0

        y, g = y_new, g_new
        history.append(f_new)
        if stall >= STALL_ITERS:
            return MinimizeResult(best_y, best_f, k + 1, Termination.NO_IMPROVEMENT)

    return MinimizeResult(best_y, best_f, MAX_ITER, Termination.MAX_ITER)


def _solve_tridiagonal(diag: np.ndarray, off: np.ndarray,
                       rhs: np.ndarray) -> np.ndarray | None:
    """Solve T s = rhs by an LDL^T sweep; None unless T is positive definite."""
    diag, z = diag.tolist(), rhs.tolist()
    pivot, zi, steps = diag[0], z[0], []
    for o, d, r in zip(off.tolist(), diag[1:], z[1:]):
        if not pivot > 0.0:
            return None
        factor = o / pivot
        steps.append((pivot, factor, zi))
        pivot, zi = d - factor * o, r - factor * zi
    if not pivot > 0.0:
        return None
    s = [zi / pivot]
    for pivot, factor, zi in reversed(steps):
        s.append(zi / pivot - factor * s[-1])
    s.reverse()
    return np.array(s)


def _held_model(probe: np.ndarray, a: float, b: float, diag: np.ndarray,
                off: np.ndarray, g: np.ndarray) -> tuple[np.ndarray, ...]:
    """The tridiagonal model and gradient over the runs of equal ``probe`` knots.

    Each run moves as one and the knots at a or b stay put: P^T H P and
    P^T g for the 0/1 matrix P that copies a run's step to its knots.  The
    last value, each knot's run (-1 at a or b), maps a step s in the runs
    to ``append(s, 0)[runs]`` in the knots.
    """
    lo = int(np.count_nonzero(probe <= a))
    hi = probe.size - int(np.count_nonzero(probe >= b))
    runs = np.full(probe.size, -1)
    runs[lo:hi] = np.cumsum(np.diff(probe[lo:hi], prepend=probe[lo:lo + 1]) > 0.0)
    m, free = int(runs.max()) + 1, runs >= 0
    tied = free[:-1] & (runs[:-1] == runs[1:])
    diag = (np.bincount(runs[free], diag[free], m)
            + 2.0 * np.bincount(runs[:-1][tied], off[tied], m))
    off = off[free[:-1] & (runs[1:] == runs[:-1] + 1)]
    return diag, off, np.bincount(runs[free], g[free], m), runs


def minimize_x(curve, start: KnotVector,
               kind: ObjectiveKind = ObjectiveKind.CONCAVE_AREA) -> MinimizeResult:
    """Minimise the kind's objective over {a <= x_1 <= ... <= x_n <= b}."""
    a, b = start.a, start.b
    window = kind.window(start.n)

    def onto_knots(v):
        # exact projection onto the ordered knots in [a, b]; monotone rounding
        # keeps the shifted cone point ordered and at least a
        return np.minimum(project(v - a) + a, b)

    def evaluate(knots, k):
        xs = knots.full()
        gaps = None if window is None else window_gaps(curve, xs, *window)
        fv = _checked(np.asarray(curve.value(xs), dtype=float),
                      k, knots.interior, "curve value")
        if gaps is None:
            return knots, fv, None, phi(curve, knots, fv)
        f = _checked(squared_gap_sum(gaps), k, knots.interior, "objective")
        return knots, fv, gaps, f

    knots, fv, gaps, f = evaluate(start, 0)
    mu, tol = 0.0, None
    for k in range(NEWTON_MAX_ITER):
        x, xs = knots.interior, knots.full()
        fp = _checked(np.asarray(curve.deriv1(x), dtype=float), k, x, "derivative")
        g = grad_x(curve, kind, knots, gaps, fv, fp)
        residual = np.max(np.abs(onto_knots(x - g) - x))
        # a rise within a few roundings of the objective's terms is noise,
        # which would stall Newton near the optimum: phi sums terms bounded
        # by (b - a) max |f|, the squared-gap sum nonnegative ones
        if window is None:
            f_scale = float(np.max(np.abs(fv)))
            tol = NEWTON_TOL * max(1.0, f_scale)
            noise = PHI_ROUNDING * (b - a) * f_scale
        else:
            noise = PHI_ROUNDING * f
            if tol is None:
                # a squared kind's scale is its start's: `auto` has infimum 0,
                # which an absolute bound would chase by collapsing the knots
                tol = SQUARED_RTOL * residual
        if residual <= tol:
            return MinimizeResult(x, f, k, Termination.STATIONARY)

        if window is None:
            fpp = _checked(np.asarray(curve.deriv2(x), dtype=float), k, x, "curvature")
            diag, off = area_hessian_bands(xs, fp, fpp)
        else:
            diag, off = gauss_newton_bands(xs, fv, fp, window)
        runs, g_model, h = None, g, xs[1:] - xs[:-1]
        if h.min() <= 0.0:
            # projected Newton: the knots that a short steepest-descent step
            # keeps tied, or at a or b, move as one run or stay put; it moves
            # no knot a quarter of the narrowest segment, so no two runs meet
            tau = 0.25 * np.min(h[h > 0.0]) / np.max(np.abs(g))
            probe = onto_knots(x - tau * g)
            diag, off, g_model, runs = _held_model(probe, a, b, diag, off, g)
            if not np.any(g_model):   # stationary on the held face
                return MinimizeResult(x, f, k, Termination.STATIONARY)
        h_scale = float(np.max(np.abs(diag))) or 1.0
        while ((s := _solve_tridiagonal(diag + mu, off, -g_model)) is None
               or g_model @ s >= 0.0):
            mu = max(4.0 * mu, 1e-10 * h_scale)
        if runs is not None:
            s = np.append(s, 0.0)[runs]

        t = 1.0
        while True:
            trial = onto_knots(x + t * s)
            slope = float(g @ (trial - x))
            if slope < 0.0:
                new = evaluate(KnotVector(a, b, trial), k)
                if new[3] <= f + NU * slope + noise:
                    break
            t *= 0.5
            if t < _ALPHA_FLOOR:
                return MinimizeResult(x, f, k, Termination.NO_IMPROVEMENT)
        knots, fv, gaps, f = new
        if t < 1.0:
            mu = max(4.0 * mu, 1e-6 * h_scale)
        elif (mu := mu / 4.0) < 1e-10 * h_scale:
            mu = 0.0

    return MinimizeResult(knots.interior, f, NEWTON_MAX_ITER, Termination.MAX_ITER)


def solve(curve, kind: ObjectiveKind, n: int,
          config=None,
          init: KnotVector | None = None,
          a: float | None = None, b: float | None = None) -> SolveReport:
    """Place n knots minimising the chosen objective over [a, b].

    Every kind runs ``minimize_x``, which draws no random numbers.
    ``config`` is ignored; it stays only because perfbench passes it.  The
    interval comes from ``init`` when given, otherwise from ``a``/``b``;
    bounds given with ``init`` must equal its own.  Reported errors use
    ``kind``'s own error measure, the initial one at the start as given;
    the incumbent guard ensures the reported final error never exceeds the
    initial one, so ``final_knots`` is the start when it rejects the
    minimiser's point.
    """
    if n < 1:
        raise ValueError("need at least one knot")
    if init is not None:
        if (a is not None and a != init.a) or (b is not None and b != init.b):
            raise ValueError(f"a={a}, b={b} disagree with init's interval "
                             f"[{init.a}, {init.b}]")
        if init.n != n:
            raise ValueError(f"init has {init.n} knots, expected {n}")
        a, b, start = init.a, init.b, init
    elif a is None or b is None:
        raise ValueError("provide either init or the interval bounds a and b")
    else:
        start = KnotVector.equally_spaced(a, b, n)

    result = minimize_x(curve, start, kind)
    final = KnotVector(a, b, result.point)
    initial_error = kind.error(curve, start)
    final_error = kind.error(curve, final)
    if final_error > initial_error:   # incumbent guard on the reported measure
        final, final_error = start, initial_error

    return SolveReport(**vars(result), final_knots=final,
                       initial_error=initial_error, final_error=final_error)
