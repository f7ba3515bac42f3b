"""Spectral projected gradient solver over the monotone nonnegative cone.

Each iteration projects a Barzilai-Borwein-scaled gradient step onto the
cone, p_k = P(y_k - alpha_bar g_k), takes the search direction
d_k = p_k - y_k, then runs a nonmonotone line search against the largest of
the last HISTORY + 1 objective values:

    accept alpha when  F(y_k + alpha d_k) <= f_b + NU * alpha * grad_k . d_k

with alpha shrunk by uniform random redraws on (0, alpha) from a seeded
generator (reproducible).  The step scale is the classical Barzilai-Borwein
s.s / s.z.  The first trial point is p_k and a backtracked one is
(1 - alpha) y_k + alpha p_k: nonnegative multiples of ordered nonnegative
vectors, summed with monotone IEEE rounding, so it is in the cone exactly and
the accepted point, the last trial point, needs no second projection.

Termination: the direction norm drops to ``EPS`` (stationary), the best
objective stalls for ``STALL_ITERS`` consecutive iterations (not enough
improvement), the line search underflows, or ``MAX_ITER`` is reached.  The
best point seen is always returned, so the result never scores worse than
the initial point.  The result is that point, its value, the iteration
count and the reason to stop; no per-iteration record is kept.
"""

from __future__ import annotations

import numbers
from collections import deque
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .cone import project
from .objective import DELTA_SCALE, ObjectiveKind, YObjective, from_y, to_y
from .pl import KnotVector


class Termination(Enum):
    MAX_ITER = "MaxIter"
    NO_IMPROVEMENT = "NoImprovement"
    STATIONARY = "Stationary"


class SolverError(RuntimeError):
    """Numeric failure inside a solve; carries the point that failed."""

    def __init__(self, message: str, iteration: int, y: np.ndarray):
        super().__init__(f"{message} at iteration {iteration}")
        self.iteration = iteration
        self.y = y


# minimize_y reads these at call time; none is bound as a default argument
ALPHA_MIN = 1e-10           # bounds on the Barzilai-Borwein step scale
ALPHA_MAX = 1e10
HISTORY = 10                # nonmonotone line search: last HISTORY + 1 values
NU = 1e-4                   # sufficient-decrease parameter
EPS = 1e-8                  # stationarity bound on the direction norm
IMPROVEMENT_TOL = 1e-12     # relative stall threshold on the best value
STALL_ITERS = 25            # consecutive stalled iterations allowed
MAX_ITER = 1000
_ALPHA_FLOOR = 1e-16


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
    """Raw outcome of a cone-constrained minimisation in y coordinates."""

    y: np.ndarray                 # best point seen
    objective: float              # objective at the best point
    iterations: int
    termination: Termination


@dataclass(frozen=True)
class SolveReport(MinimizeResult):
    """``minimize_y``'s result plus the knots and errors in the kind's measure."""

    final_knots: KnotVector
    initial_error: float
    final_error: float


def minimize_y(value_fn, grad_fn, y0: np.ndarray, config: SpgConfig) -> MinimizeResult:
    """Minimise a smooth objective over {0 <= y_1 <= ... <= y_n}."""
    rng = np.random.default_rng(config.rng_seed)   # the only generator

    def checked(value, k, y, what):
        if not np.all(np.isfinite(value)):
            raise SolverError(f"non-finite {what}", k, y)
        return value

    y = project(np.asarray(y0, dtype=float))
    f = float(checked(value_fn(y), 0, y, "objective"))
    g = np.asarray(checked(grad_fn(y), 0, y, "gradient"), dtype=float)

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
        f_new = float(checked(value_fn(y_new), k, y_new, "objective"))
        while f_new > f_bound + NU * alpha * g_dot_d:
            alpha = backtrack_step(alpha, rng)
            if alpha < _ALPHA_FLOOR:
                return MinimizeResult(best_y, best_f, k, Termination.NO_IMPROVEMENT)
            # nonnegative multiples of ordered nonnegative vectors, summed with
            # monotone rounding: in the cone exactly
            y_new = (1.0 - alpha) * y + alpha * p
            f_new = float(checked(value_fn(y_new), k, y_new, "objective"))

        g_new = np.asarray(checked(grad_fn(y_new), k, y_new, "gradient"), dtype=float)
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


def solve(curve, kind: ObjectiveKind, n: int,
          config: SpgConfig = SpgConfig(),
          init: KnotVector | None = None,
          a: float | None = None, b: float | None = None) -> SolveReport:
    """Place n knots minimising the chosen objective over [a, b].

    The interval comes from ``init`` when given, otherwise from ``a``/``b``;
    bounds given with ``init`` must equal its own.  Reported errors use ``kind``'s own error measure; the incumbent guard
    ensures the reported final error never exceeds the initial one, so
    ``final_knots`` is the start when it rejects the minimiser's ``y``.
    """
    if n < 1:
        raise ValueError("need at least one knot")
    if init is not None:
        if (a is not None and a != init.a) or (b is not None and b != init.b):
            raise ValueError(f"a={a}, b={b} disagree with init's interval "
                             f"[{init.a}, {init.b}]")
        if init.n != n:
            raise ValueError(f"init has {init.n} knots, expected {n}")
        a, b = init.a, init.b
        # clip into the guard band below b, where to_y is defined
        start = KnotVector(a, b, np.clip(init.interior, a, b - DELTA_SCALE * (b - a)))
    elif a is None or b is None:
        raise ValueError("provide either init or the interval bounds a and b")
    else:
        start = KnotVector.equally_spaced(a, b, n)

    objective = YObjective(curve, a, b, kind)
    result = minimize_y(objective.value, objective.grad, to_y(start), config)

    final = from_y(result.y, a, b)
    initial_error = kind.error(curve, start)
    final_error = kind.error(curve, final)
    if final_error > initial_error:   # incumbent guard on the reported measure
        final, final_error = start, initial_error

    return SolveReport(**vars(result), final_knots=final,
                       initial_error=initial_error, final_error=final_error)
