"""Shared test curves and independent numerical oracles."""

from __future__ import annotations

import math

import mpmath as mp
import numpy as np

from knotopt import CurveFamily


class QuadraticCurve:
    """Closed-form quadratic a2*x^2 + a1*x + a0 used as a test hook."""

    def __init__(self, a2: float, a1: float, a0: float):
        self.a2, self.a1, self.a0 = a2, a1, a0

    def value(self, x):
        x = np.asarray(x, dtype=float)
        out = self.a2 * x ** 2 + self.a1 * x + self.a0
        return out if out.ndim else float(out)

    def deriv1(self, x):
        x = np.asarray(x, dtype=float)
        out = 2.0 * self.a2 * x + self.a1
        return out if out.ndim else float(out)

    def deriv2(self, x):
        x = np.asarray(x, dtype=float)
        out = np.full_like(x, 2.0 * self.a2)
        return out if out.ndim else float(out)


class HoledCurve(QuadraticCurve):
    """-x^2 + 4 whose f'' is ``bad`` above x = 1.2."""

    def __init__(self, bad: float):
        super().__init__(-1.0, 0.0, 4.0)
        self.bad = bad

    def deriv2(self, x):
        return np.where(np.asarray(x) > 1.2, self.bad, super().deriv2(x))


class LinearCurve(QuadraticCurve):
    """Affine curve; every chord matches it exactly."""

    def __init__(self, slope: float, offset: float):
        super().__init__(0.0, slope, offset)


def central_diff(func, x: float, h: float) -> float:
    return (func(x + h) - func(x - h)) / (2.0 * h)


def fd_gradient(func, x: np.ndarray, h: float | np.ndarray) -> np.ndarray:
    """Componentwise central finite differences of a scalar function."""
    x = np.asarray(x, dtype=float)
    h = np.broadcast_to(np.asarray(h, dtype=float), x.shape)
    grad = np.empty_like(x)
    for i in range(x.size):
        step = np.zeros_like(x)
        step[i] = h[i]
        grad[i] = (func(x + step) - func(x - step)) / (2.0 * h[i])
    return grad


def fd_gradient_richardson(func, x: np.ndarray,
                           h: float | np.ndarray) -> np.ndarray:
    """Central differences at steps h and h/2, Richardson-extrapolated.

    Cancels the leading h^2 truncation term, leaving O(h^4) error; useful
    when gradient components near zero must be resolved to tight absolute
    tolerances.
    """
    coarse = fd_gradient(func, x, h)
    fine = fd_gradient(func, x, 0.5 * np.asarray(h, dtype=float))
    return (4.0 * fine - coarse) / 3.0


def simpson_integral(func, lo: float, hi: float, tol: float = 1e-12,
                     max_doublings: int = 24) -> float:
    """Composite Simpson with panel doubling until two estimates agree."""
    if hi == lo:
        return 0.0
    panels = 8
    prev = _simpson_fixed(func, lo, hi, panels)
    for _ in range(max_doublings):
        panels *= 2
        cur = _simpson_fixed(func, lo, hi, panels)
        if abs(cur - prev) <= tol * max(1.0, abs(cur)):
            return cur
        prev = cur
    raise RuntimeError("simpson oracle did not converge")


def _simpson_fixed(func, lo: float, hi: float, panels: int) -> float:
    xs = np.linspace(lo, hi, 2 * panels + 1)
    fv = np.asarray(func(xs), dtype=float)
    h = (hi - lo) / (2 * panels)
    return h / 3.0 * (fv[0] + fv[-1] + 4.0 * fv[1:-1:2].sum() + 2.0 * fv[2:-2:2].sum())


def brute_force_cone_projection_batch(V: np.ndarray) -> np.ndarray:
    """Projection of each row of V onto {0 <= y_1 <= ... <= y_n}.

    Active-set enumeration: every subset of the n + 1 constraints is treated
    as tight, the resulting equality-constrained least-squares problem is
    solved in closed form (pooled coordinates take their group mean, a group
    anchored at the floor takes zero), and the best feasible candidate wins.
    Exponential in n, so only usable for small n; entirely independent of
    the production code.
    """
    V = np.atleast_2d(np.asarray(V, dtype=float))
    m, n = V.shape
    best = np.full_like(V, np.nan)
    best_cost = np.full(m, np.inf)
    for mask in range(1 << n):
        # bit 0: y_1 = 0; bit i (i >= 1): y_i = y_{i+1}
        groups = []
        start = 0
        for i in range(1, n):
            if not mask & (1 << i):
                groups.append((start, i))
                start = i
        groups.append((start, n))
        Y = np.empty_like(V)
        for lo, hi in groups:
            if lo == 0 and mask & 1:
                Y[:, lo:hi] = 0.0
            else:
                Y[:, lo:hi] = V[:, lo:hi].mean(axis=1, keepdims=True)
        feasible = Y[:, 0] >= -1e-12
        if n > 1:
            feasible &= np.all(np.diff(Y, axis=1) >= -1e-12, axis=1)
        cost = np.sum((V - Y) ** 2, axis=1)
        better = feasible & (cost < best_cost)
        best[better] = Y[better]
        best_cost[better] = cost[better]
    return best


def brute_force_cone_projection(v: np.ndarray) -> np.ndarray:
    return brute_force_cone_projection_batch(np.asarray(v, dtype=float))[0]


def sequential_pava_projection(v: np.ndarray) -> np.ndarray:
    """Cone projection by one pool-adjacent-violators pass over every entry.

    The plain stack loop that ``project`` shortens by starting at the first
    descent; kept as its byte-for-byte reference.  No input checks.
    """
    v = np.asarray(v, dtype=float)
    sums = np.empty(v.size)
    counts = np.empty(v.size, dtype=np.intp)
    top = -1
    for x in v:
        top += 1
        sums[top] = x
        counts[top] = 1
        while top > 0 and sums[top - 1] * counts[top] > sums[top] * counts[top - 1]:
            sums[top - 1] += sums[top]
            counts[top - 1] += counts[top]
            top -= 1
    top += 1
    return np.repeat(np.maximum(0.0, sums[:top] / counts[:top]), counts[:top])


def sequential_ldlt_solve(diag: np.ndarray, off: np.ndarray,
                          rhs: np.ndarray) -> np.ndarray | None:
    """Solve T s = rhs by an indexed LDL^T sweep; None unless T is positive definite.

    The plain loop over pivot, factor and right-hand-side lists that
    ``spg._solve_tridiagonal`` carries in locals; kept as its byte-for-byte
    reference.
    """
    diag, off, z = diag.tolist(), off.tolist(), rhs.tolist()
    pivots, factors = [diag[0]], [0.0]
    for i, o in enumerate(off):
        if not pivots[i] > 0.0:
            return None
        factor = o / pivots[i]
        factors.append(factor)
        pivots.append(diag[i + 1] - factor * o)
        z[i + 1] -= factor * z[i]
    if not pivots[-1] > 0.0:
        return None
    z[-1] /= pivots[-1]
    for i in range(len(z) - 2, -1, -1):
        z[i] = z[i] / pivots[i] - factors[i + 1] * z[i + 1]
    return np.array(z)


def random_feasible_y(rng: np.random.Generator, n: int, scale: float = 2.0) -> np.ndarray:
    """A random point of the cone with comfortably positive components."""
    return np.cumsum(rng.uniform(0.01, scale, size=n))


def mp_value(curve, x):
    """The family formula of ``knotopt.curves`` in mpmath arithmetic."""
    v1, v2, d1, d2 = (mp.mpf(p) for p in (curve.v1, curve.v2, curve.d1, curve.d2))
    s = None if curve.s is None else mp.mpf(curve.s)
    u = d1 * x + d2
    if curve.family is CurveFamily.LOGISTIC:
        return v1 + v2 * (1 + s * mp.exp(u)) ** (-1 / s)
    if curve.family is CurveFamily.GOMPERTZ:
        return v1 + v2 * mp.exp(s * mp.exp(u))
    if curve.family is CurveFamily.WEIBULL:
        return v1 + v2 * mp.exp(-(u ** s))
    if curve.family is CurveFamily.ARCTAN:
        return v1 + v2 * mp.atan(u)
    return v1 + v2 * (d1 * x ** s + d2) ** (1 / s)


def f2_zeros(entry) -> list[float]:
    """The zeros of f'' in [a, b] of a catalog row, from its family's formula.

    With u = d1 x + d2: Logistic and Arctan vanish at u = 0, Gompertz
    (s < 0) at u = -log(-s), Weibull (s > 1) where s u^s = s - 1 and, for
    s > 2, at u = 0; Algebraic, for s > 2, at x = 0.
    """
    c = entry.curve
    if c.family is CurveFamily.ALGEBRAIC:
        xs = [0.0] if c.s > 2 else []
    else:
        if c.family in (CurveFamily.LOGISTIC, CurveFamily.ARCTAN):
            us = [0.0]
        elif c.family is CurveFamily.GOMPERTZ:
            us = [-math.log(-c.s)] if c.s < 0 else []
        else:
            w = ((c.s - 1.0) / c.s) ** (1.0 / c.s) if c.s > 1 else None
            us = [] if w is None else [w, -w] if c.s % 2 == 0 else [w]
            us += [0.0] if c.s > 2 else []
        xs = [(u - c.d2) / c.d1 for u in us]
    return sorted(x for x in set(xs) if entry.a <= x <= entry.b)
