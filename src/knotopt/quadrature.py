"""Segment gaps from the Peano form of the trapezoid error.

On [lo, hi] with half-width h, the integral of f minus its trapezoid is

    -(1/2) h^3 * integral over [-1, 1] of (1 - t^2) f''(lo + h(1 + t)) dt.

So a gap comes from f'' without subtracting two nearly equal areas.  Two
rules compute that integral.

``integrate_segments``, the kernel, splits the t-integral into dyadic
panels.  At t = m + d on a panel with exact midpoint m, the weight
((1 + m) + d)((1 - m) - d) stays precise up to both ends.  Each panel is
integrated with the Gauss-Kronrod 7/15 pair of QUADPACK's ``qk15``.  Every
segment starts with 8 panels of 15 nodes: 120 samples of f''.  On that
first level a panel is done only when |K15 - G7| <= RTOL * K15(|integrand|).
From the first bisection on, a panel is also done when its error estimate
is below the segment floor, RTOL / _MAX_PANELS_PER_SEGMENT of its
segment's first-level K15(|integrand|); the floor ends the refinement at a
kink or an integrable singularity of f'' at a segment end.  The first
level has no floor because it would settle few panels there and would move
the last bits of gaps that a squared kind's Newton path follows.  Panels
not done are bisected, and each level integrates all of them in one batch.

``gauss_jacobi_segments``, the front end, takes one 24-node Gauss-Jacobi
panel per segment for the weight (1 - t^2) (Golub and Welsch, "Calculation
of Gauss quadrature rules", Math. Comp. 23, 1969), which is exact for f''
up to degree 47.  The rule's discrete orthonormal coefficients of f'' come
from the same samples; a segment is accepted when the last two are below
RTOL times the rule's integral of |f''|.  The rest, such as segments with
a singular or kinked end, go to the kernel in one batch.  A smooth segment
thus costs 24 samples instead of 120.

The two rules agree to rounding, but they round differently, and a squared
kind's Newton path follows the last bits of its gaps: scaling every gap by
1 +- 2.2e-16 moves the step count of the catalog's ``auto`` cells by up to
a third.  So the squared kinds' objectives and measures use the kernel
(``pl.window_gaps``), and only the area measure, which no Newton loop
reads, uses the front end (``pl.segment_gaps``).
"""

from __future__ import annotations

from typing import Callable

import numpy as np
from numpy.polynomial.legendre import leggauss

from ._finite import all_finite

# qk15's xgk and wgk: Kronrod nodes in [0, 1), the odd ones those of G7
_XGK = np.array([
    0.991455371120812639206854697526329, 0.949107912342758524526189684047851,
    0.864864423359769072789712788640926, 0.741531185599394439863864773280788,
    0.586087235467691130294144845693013, 0.405845151377397166906606412076961,
    0.207784955007898467600689403773245, 0.0])
_WGK = np.array([
    0.022935322010529224963732008058970, 0.063092092629978553290700663189204,
    0.104790010322250183839876322541518, 0.140653259715525918745189590510238,
    0.169004726639267902826583426598550, 0.190350578064785409913256402421014,
    0.204432940075298892414161999234649, 0.209482141084727828012999174891714])

# the 15 nodes in ascending order with their K15 and G7 weights
_NODES = np.concatenate((-_XGK[:-1], _XGK[::-1]))
_K15 = np.concatenate((_WGK[:-1], _WGK[::-1]))
_G7 = np.zeros(15)
_G7[1::2] = leggauss(7)[1]
# columns: the K15 estimate and the K15 - G7 error estimate
_RULES = np.stack((_K15, _K15 - _G7), axis=1)

#: per-panel relative tolerance on |K15 - G7|, never tightened on bisection
RTOL = 1e-13

#: panels each segment starts with, all evaluated in the first batch
_START_PANELS = 8

#: bound on the live panels of one call, per segment integrated
_MAX_PANELS_PER_SEGMENT = 256

_MAX_LEVELS = 48

# the first level's panel midpoints, and per node 1 + t and (1 + t)(1 - t)
_START_MID = -1.0 + (2.0 * np.arange(_START_PANELS) + 1.0) / _START_PANELS
_START_LEFT = (1.0 + _START_MID)[:, None] + _NODES / _START_PANELS
_START_WEIGHT = _START_LEFT * ((1.0 - _START_MID)[:, None] - _NODES / _START_PANELS)
_START_LEFT_FLAT = _START_LEFT.ravel()
# a bisected panel's two midpoints lie at -1 and +1 times its new half-width
_HALVES = np.array([-1.0, 1.0])


#: nodes of the Gauss-Jacobi rule for the weight (1 - t^2) on [-1, 1]
_GJ_NODES = 24


def _gauss_jacobi(m: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Nodes, weights and tail rows of the m-node rule for the weight 1 - t^2.

    Golub-Welsch: the nodes are the eigenvalues of the Jacobi matrix of the
    orthonormal polynomials p_k, whose recurrence coefficients are
    beta_k = k(k + 2) / ((2k + 1)(2k + 3)), and the weights are mu0 = 4/3
    times the squared first components of the eigenvectors.  Row k of
    eigenvector j is p_k(t_j) sqrt(w_j), so tail row k holds p_k(t_j) w_j
    for k = m - 2 and m - 1, and takes samples g_j to the discrete
    orthonormal coefficient c_k = sum_j w_j p_k(t_j) g_j.
    """
    k = np.arange(1.0, m)
    off = np.sqrt(k * (k + 2.0) / ((2.0 * k + 1.0) * (2.0 * k + 3.0)))
    nodes, vectors = np.linalg.eigh(np.diag(off, 1) + np.diag(off, -1))
    vectors *= np.sign(vectors[0])
    weights = 4.0 / 3.0 * vectors[0] ** 2
    return nodes, weights, vectors[-2:] * np.sqrt(weights)


_GJ_T, _GJ_W, _GJ_TAIL = _gauss_jacobi(_GJ_NODES)
# columns: the rule's integral and the two tail coefficients
_GJ_RULES = np.column_stack((_GJ_W, _GJ_TAIL.T))
_GJ_LEFT = 1.0 + _GJ_T


class QuadratureError(RuntimeError):
    """Raised at a non-finite integrand value or a stalled panel refinement."""


def sampled(func: Callable[[np.ndarray], np.ndarray], x: np.ndarray,
             what: str = "integrand") -> np.ndarray:
    """func at the nodes x; QuadratureError names the first non-finite sample."""
    fx = np.asarray(func(x), dtype=float)
    if all_finite(fx):
        return fx
    bad = ~np.isfinite(fx)
    first = float(x[np.argmax(bad)])
    raise QuadratureError(f"non-finite {what} at x={first!r} "
                          f"({np.count_nonzero(bad)} of {x.size} points)")


def _bounds(lo, hi) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray | None]:
    """lo, hi and hi - lo as float arrays, and which segments to sample.

    The mask is None when every segment has a positive width.  NaN bounds
    are sampled, and raise there.
    """
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    if lo.ndim != 1 or lo.shape != hi.shape:
        raise ValueError("lo and hi must be 1-d arrays of matching shapes")
    width = hi - lo
    live = None
    # the minimum is NaN at a NaN bound, and an empty batch has none
    if width.size and not np.minimum.reduce(width) > 0.0:
        if (width < 0.0).any():
            raise ValueError("segment bounds must satisfy lo <= hi")
        live = width != 0.0
    return lo, hi, width, live


def integrate_segments(func: Callable[[np.ndarray], np.ndarray],
                       lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """-(1/2) * integral of (x - lo_j)(hi_j - x) func(x) over each [lo_j, hi_j].

    With ``func`` = f'' this is the gap of segment j: the integral of f over
    it minus its trapezoid.  Zero-width segments give 0, and ``func`` is not
    called there.  Requires 1-d arrays with lo <= hi.  Raises
    QuadratureError at a non-finite value of ``func``, after _MAX_LEVELS
    levels, or when the live panels would pass _MAX_PANELS_PER_SEGMENT per
    segment.
    """
    lo, hi, width, live = _bounds(lo, hi)
    m = width.size

    h = 0.5 * width
    x = lo[:, None] + h[:, None] * _START_LEFT_FLAT
    if live is None:
        fx = sampled(func, x.ravel())
    else:
        # func may be undefined at a zero-width segment's one point (f'' at
        # an end where it is singular); its gap is 0, and its row stays in
        # the batch as zeros, so the batch keeps its shape and rounding
        fx = np.zeros(x.shape)
        fx[live] = sampled(func, x[live].ravel()).reshape(-1, x.shape[1])
    g = (fx.reshape(m, _START_PANELS, _NODES.size)
         * _START_WEIGHT).reshape(-1, _NODES.size)
    half = 1.0 / _START_PANELS
    est, err = (g @ _RULES).T
    size = np.abs(g) @ _K15
    done = np.abs(err) <= RTOL * size
    if np.logical_and.reduce(done):
        return (-0.5 * half * h ** 3
                * np.add.reduce(est.reshape(m, _START_PANELS), axis=1))

    acc = half * np.add.reduce(np.where(done, est, 0.0).reshape(m, _START_PANELS),
                               axis=1)
    # the absolute error a panel may always have, in the t-integral's units
    floor = (RTOL / _MAX_PANELS_PER_SEGMENT * half) \
        * np.add.reduce(size.reshape(m, _START_PANELS), axis=1)
    # the pending panels' segments and midpoints
    pending = np.flatnonzero(~done)
    seg = pending // _START_PANELS
    mid = _START_MID[pending % _START_PANELS]
    cap = _MAX_PANELS_PER_SEGMENT * m
    for _ in range(_MAX_LEVELS):
        if not seg.size:
            return -0.5 * h ** 3 * acc
        if 2 * seg.size > cap:
            raise QuadratureError(f"bisection would need over {cap} live panels")
        # bisect the pending panels and integrate the halves in one batch
        half *= 0.5
        seg = np.repeat(seg, 2)
        mid = (mid[:, None] + half * _HALVES).ravel()
        offset = half * _NODES
        left = (1.0 + mid)[:, None] + offset
        x = lo[seg][:, None] + h[seg][:, None] * left
        weight = left * ((1.0 - mid)[:, None] - offset)
        g = sampled(func, x.ravel()).reshape(left.shape) * weight
        est, err = (g @ _RULES).T
        err, size = np.abs(err), np.abs(g) @ _K15
        done = err <= np.maximum(RTOL * size, floor[seg] / half)
        acc += np.bincount(seg[done], weights=half * est[done], minlength=m)
        keep = ~done
        seg, mid = seg[keep], mid[keep]

    raise QuadratureError(f"no convergence after {_MAX_LEVELS} bisections")


def gauss_jacobi_segments(func: Callable[[np.ndarray], np.ndarray],
                          lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """``integrate_segments``'s integrals, from one Gauss-Jacobi panel each.

    Samples ``func`` at the 24 nodes of every segment of positive width.  A
    segment whose tail coefficients |c_22| + |c_23| exceed RTOL times the
    rule's integral of |func| goes, with the others like it, to one
    ``integrate_segments`` call.  Zero-width segments give 0 and are not
    sampled.  Takes the same arguments and raises the same errors as
    ``integrate_segments``.
    """
    lo, hi, width, live = _bounds(lo, hi)
    seg = np.arange(width.size) if live is None else np.flatnonzero(live)
    h = 0.5 * width[seg]
    x = lo[seg][:, None] + h[:, None] * _GJ_LEFT
    g = sampled(func, x.ravel()).reshape(x.shape)
    est, tail1, tail2 = (g @ _GJ_RULES).T
    gaps = np.zeros(width.size)
    gaps[seg] = -0.5 * h ** 3 * est
    rejected = seg[np.abs(tail1) + np.abs(tail2) > RTOL * (np.abs(g) @ _GJ_W)]
    if rejected.size:
        gaps[rejected] = integrate_segments(func, lo[rejected], hi[rejected])
    return gaps
