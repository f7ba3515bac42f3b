"""Spectral projected gradient solver over the monotone nonnegative cone.

Each iteration projects a Barzilai-Borwein-scaled gradient step onto the
cone to obtain the search direction d_k, then runs a nonmonotone line search
against the largest of the last h + 1 objective values:

    accept alpha when  F(y_k + alpha d_k) <= f_b + nu * alpha * grad_k . d_k

with alpha shrunk either by uniform random redraws on (0, alpha) from a
seeded generator (reproducible) or by plain halving.  Because y_k is
feasible, the projection output is feasible, and alpha lies in (0, 1], the
trial point is a convex combination of feasible points; the accepted iterate
is re-projected only to scrub 1-ulp rounding so cone membership stays exact.

Termination: the direction norm drops to ``eps`` (stationary), the best
objective stalls for ``stall_iters`` consecutive iterations (not enough
improvement), the line search underflows, or ``max_iter`` is reached.  The
best point seen is always returned, so the result never scores worse than
the initial point.
"""

from __future__ import annotations

import numbers
from collections import deque
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .cone import project
from .objective import DELTA_SCALE, ObjectiveKind, YObjective, from_y, to_y
from .pl import KnotVector


class BbRule(Enum):
    BB1 = "bb1"                 # s.s / s.z, the classical first rule
    PAPER_LITERAL = "paper"     # z.z / s.s, kept for fidelity experiments


class Backtrack(Enum):
    SEEDED_RANDOM = "random"
    HALVING = "halving"


class Termination(Enum):
    MAX_ITER = "MaxIter"
    NO_IMPROVEMENT = "NoImprovement"
    STATIONARY = "Stationary"


class SolverError(RuntimeError):
    """Numeric failure inside a solve; carries the iterate for diagnosis."""

    def __init__(self, message: str, iteration: int, y: np.ndarray):
        super().__init__(f"{message} at iteration {iteration}")
        self.iteration = iteration
        self.y = y


@dataclass(frozen=True)
class SpgConfig:
    alpha_min: float = 1e-10
    alpha_max: float = 1e10
    history: int = 10
    nu: float = 1e-4
    eps: float = 1e-8
    improvement_tol: float = 1e-12   # relative stall threshold on the best value
    stall_iters: int = 25            # consecutive stalled iterations allowed
    max_iter: int = 1000
    rng_seed: int = 42
    bb_rule: BbRule = BbRule.BB1
    backtrack: Backtrack = Backtrack.SEEDED_RANDOM

    def __post_init__(self):
        if not 0.0 < self.alpha_min < self.alpha_max:
            raise ValueError("step bounds must satisfy 0 < alpha_min < alpha_max")
        if not 0.0 < self.nu < 1.0:
            raise ValueError("sufficient-decrease parameter nu must lie in (0, 1)")
        if self.history < 1 or self.max_iter < 1:
            raise ValueError("history and max_iter must be positive")
        if not isinstance(self.rng_seed, numbers.Integral) or self.rng_seed < 0:
            raise ValueError(f"rng_seed must be an integer >= 0, got {self.rng_seed!r}")


_ALPHA_FLOOR = 1e-16


def backtrack_step(alpha: float, rng: np.random.Generator | None = None,
                   mode: Backtrack = Backtrack.SEEDED_RANDOM) -> float:
    """Shrink the line-search step: U(0, alpha) draw or alpha / 2."""
    if alpha <= 0.0:
        raise ValueError("alpha must be positive")
    if mode is Backtrack.HALVING:
        return 0.5 * alpha
    if rng is None:
        raise ValueError("seeded-random backtracking needs a generator")
    return float(rng.uniform(0.0, alpha))


@dataclass(frozen=True)
class MinimizeResult:
    """Raw outcome of a cone-constrained minimisation in y coordinates."""

    y: np.ndarray                 # best point seen
    objective: float              # objective at the best point
    iterations: int
    termination: Termination
    objective_trace: list[float] = field(repr=False)
    d_norm_trace: list[float] = field(repr=False)
    accepted_alphas: list[float] = field(repr=False)
    armijo_slacks: list[float] = field(repr=False)


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
    history = deque([f], maxlen=config.history + 1)
    objective_trace = [f]
    d_norm_trace: list[float] = []
    accepted_alphas: list[float] = []
    armijo_slacks: list[float] = []
    alpha_bb = 1.0
    stall = 0
    termination = Termination.MAX_ITER
    iterations = config.max_iter

    for k in range(config.max_iter):
        alpha_bar = min(config.alpha_max, max(config.alpha_min, alpha_bb))
        d = project(y - alpha_bar * g) - y
        checked(d, k, y, "step direction")
        d_norm = float(np.linalg.norm(d))
        d_norm_trace.append(d_norm)
        if d_norm <= config.eps:
            termination = Termination.STATIONARY
            iterations = k
            break

        f_bound = max(history)
        g_dot_d = float(g @ d)
        alpha = 1.0
        f_new = float(checked(value_fn(y + alpha * d), k, y, "objective"))
        underflow = False
        while f_new > f_bound + config.nu * alpha * g_dot_d:
            alpha = backtrack_step(alpha, rng, config.backtrack)
            if alpha < _ALPHA_FLOOR:
                underflow = True
                break
            f_new = float(checked(value_fn(y + alpha * d), k, y, "objective"))
        if underflow:
            termination = Termination.NO_IMPROVEMENT
            iterations = k
            break
        accepted_alphas.append(alpha)
        armijo_slacks.append(f_bound + config.nu * alpha * g_dot_d - f_new)

        y_new = project(y + alpha * d)   # exact cone membership
        g_new = np.asarray(checked(grad_fn(y_new), k, y_new, "gradient"), dtype=float)
        s = y_new - y
        z = g_new - g
        if config.bb_rule is BbRule.BB1:
            s_dot_z = float(s @ z)
            alpha_bb = float(s @ s) / s_dot_z if s_dot_z > 0.0 else config.alpha_max
        else:
            s_dot_s = float(s @ s)
            alpha_bb = float(z @ z) / s_dot_s if s_dot_s > 0.0 else config.alpha_max
        if not np.isfinite(alpha_bb):
            alpha_bb = config.alpha_max

        improvement = best_f - f_new
        if f_new < best_f:
            best_f, best_y = f_new, y_new
        if improvement <= config.improvement_tol * max(1.0, abs(best_f)):
            stall += 1
        else:
            stall = 0

        y, f, g = y_new, f_new, g_new
        history.append(f)
        objective_trace.append(f)
        if stall >= config.stall_iters:
            termination = Termination.NO_IMPROVEMENT
            iterations = k + 1
            break

    return MinimizeResult(
        y=best_y,
        objective=best_f,
        iterations=iterations,
        termination=termination,
        objective_trace=objective_trace,
        d_norm_trace=d_norm_trace,
        accepted_alphas=accepted_alphas,
        armijo_slacks=armijo_slacks,
    )


def initial_knots(a: float, b: float, n: int,
                  init: KnotVector | None = None) -> KnotVector:
    """Default equally spaced knots, or a clamped copy of the given start."""
    if init is None:
        return KnotVector.equally_spaced(a, b, n)
    if init.n != n:
        raise ValueError(f"init has {init.n} knots, expected {n}")
    delta = DELTA_SCALE * (b - a)
    xs = np.clip(init.interior, a, b - delta)
    return KnotVector(a, b, xs)


def solve(curve, kind: ObjectiveKind, n: int,
          config: SpgConfig = SpgConfig(),
          init: KnotVector | None = None,
          a: float | None = None, b: float | None = None) -> SolveReport:
    """Place n knots minimising the chosen objective over [a, b].

    The interval comes from ``init`` when given, otherwise from ``a``/``b``.
    Reported errors use ``kind``'s own error measure; the incumbent guard
    ensures the reported final error never exceeds the initial one, so
    ``final_knots`` is the start when it rejects the minimiser's ``y``.
    """
    if n < 1:
        raise ValueError("need at least one knot")
    if init is not None:
        a, b = init.a, init.b
    if a is None or b is None:
        raise ValueError("provide either init or the interval bounds a and b")

    start = initial_knots(a, b, n, init)
    objective = YObjective(curve, a, b, kind)
    result = minimize_y(objective.value, objective.grad, to_y(start), config)

    final = from_y(result.y, a, b)
    initial_error = kind.error(curve, start)
    final_error = kind.error(curve, final)
    if final_error > initial_error:   # incumbent guard on the reported measure
        final, final_error = start, initial_error

    return SolveReport(**vars(result), final_knots=final,
                       initial_error=initial_error, final_error=final_error)
