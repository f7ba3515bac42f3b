"""Segment gaps from the Peano form of the trapezoid error.

On [lo, hi] with half-width h, the integral of f minus its trapezoid is

    -(1/2) h^3 * integral over [-1, 1] of (1 - t^2) f''(lo + h(1 + t)) dt.

So a gap comes from f'' without subtracting two nearly equal areas.  One
loop computes it for a batch of segments on dyadic panels of the
t-integral.  At t = m + d on a panel with exact midpoint m, the weight
((1 + m) + d)((1 - m) - d) stays precise up to both ends, and it is folded
into the samples g of f''.  A table sets the rule: its nodes, the columns
that take g to a panel's estimate and error terms, the weights of its sum
of |g|, and the panels each segment starts with.  A panel is done when its
error is at most RTOL times its sum of |g| or, from the first bisection on,
below the segment floor: RTOL / _MAX_PANELS_PER_SEGMENT of its segment's
first-level sum of |g|, which ends the refinement at a kink or an
integrable singularity of f'' at a segment end.  A floor on the first level
would settle few panels and would move the last bits of gaps that a
squared kind's Newton path follows.  Each level bisects the panels not done
and integrates all the halves in one batch.

``integrate_segments`` takes QUADPACK's Gauss-Kronrod 7/15 pair (``qk15``,
Piessens et al. 1983) on 8 start panels, 120 samples of f'' per segment,
with the error |K15 - G7|.  ``gauss_legendre_segments`` takes one 24-node
Gauss-Legendre panel, exact for g up to degree 47, with g's last two
discrete orthonormal Legendre coefficients as its error terms: a smooth
segment costs it 24 samples, and one with a singular or kinked end, or a
wide one across an inflection, bisects.  The tables agree to rounding but
round differently, and a squared kind's Newton path follows the last bits
of its gaps: scaling every gap by 1 +- 2.2e-16 moves the step count of the
catalog's ``auto`` cells by up to a third.  So the squared kinds keep
Gauss-Kronrod (``pl.window_gaps``), and only the area measure, which no
Newton loop reads, takes the 24-node table (``pl.segment_gaps``).
"""

from __future__ import annotations

from typing import Callable

import numpy as np
from numpy.polynomial.legendre import leggauss, legvander

from ._finite import all_finite

#: per-panel relative tolerance on the error terms, never tightened on bisection
RTOL = 1e-13

#: bound on the live panels of one call, per segment integrated
_MAX_PANELS_PER_SEGMENT = 256

_MAX_LEVELS = 48

# a bisected panel's two midpoints lie at -1 and +1 times its new half-width
_HALVES = np.array([-1.0, 1.0])


def _table(nodes: np.ndarray, cols: np.ndarray, abs_weights: np.ndarray,
           panels: int) -> tuple:
    """A panel rule, and its first level of ``panels`` panels per segment:
    ``cols`` take a panel's weighted samples g to its estimate and error
    terms, ``abs_weights`` take |g| to its sum, and the start panels come with
    their midpoints and, at their nodes, 1 + t (flattened) and (1 + t)(1 - t).
    """
    mid = -1.0 + (2.0 * np.arange(panels) + 1.0) / panels
    left = (1.0 + mid)[:, None] + nodes / panels
    weight = left * ((1.0 - mid)[:, None] - nodes / panels)
    return nodes, cols, abs_weights, panels, mid, left.ravel(), weight


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
# the K15 estimate and the K15 - G7 error on 8 start panels
_KRONROD = _table(_NODES, np.stack((_K15, _K15 - _G7), axis=1), _K15, 8)


def _legendre(m: int) -> tuple:
    """The m-node Gauss-Legendre rule on one start panel.

    At numpy's nodes t, q = P_{m-1}(t) - t P_m(t) is (1 - t^2) P_m'(t) / m,
    and the weights are 2 (1 - t^2) / (m q)^2; numpy's own are scaled to sum
    to 2, and are off by up to 1.5e-15 at m = 24.  The error terms are the
    coefficients on p_k = sqrt(k + 1/2) P_k, k = m - 2 and m - 1: sums of
    w p_k(t) g, with q for P_{m-1} and the recurrence at a zero of P_m for
    P_{m-2}, so that they vanish to rounding below degree k.
    """
    t = leggauss(m)[0]
    p = legvander(t, m)
    q = p[:, m - 1] - t * p[:, m]
    w = 2.0 * (1.0 - t * t) / (m * q) ** 2
    last = w * q
    tail = np.column_stack(((2 * m - 1) / (m - 1) * t * last, last)) \
        * np.sqrt(np.arange(m - 2, m) + 0.5)
    return _table(t, np.column_stack((w, tail)), w, 1)


_LEGENDRE = _legendre(24)


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


def _panels(g: np.ndarray, cols: np.ndarray, abs_weights: np.ndarray) -> tuple:
    """Each panel's estimate, error and sum of |g| from its weighted samples."""
    sums = g @ cols
    err = np.add.reduce(np.abs(sums[:, 1:]), axis=1)
    return sums[:, 0], err, np.abs(g) @ abs_weights


def _integrate(table: tuple, func: Callable[[np.ndarray], np.ndarray],
               lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """The panel loop of ``integrate_segments``, with the given table's rule."""
    nodes, cols, abs_weights, panels, start_mid, start_left, start_weight = table
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    if lo.ndim != 1 or lo.shape != hi.shape:
        raise ValueError("lo and hi must be 1-d arrays of matching shapes")
    width = hi - lo
    m, k = width.size, nodes.size
    # the segments to sample, None for all; the minimum is NaN at a NaN
    # bound, which is sampled and raises there, and an empty batch has none
    live = None
    if m and not np.minimum.reduce(width) > 0.0:
        if (width < 0.0).any():
            raise ValueError("segment bounds must satisfy lo <= hi")
        live = width != 0.0

    h = 0.5 * width
    x = lo[:, None] + h[:, None] * start_left
    if live is None:
        fx = sampled(func, x.ravel())
    else:
        # func may be undefined at a zero-width segment's one point (f'' at
        # an end where it is singular); its gap is 0, and its row stays in
        # the batch as zeros, so the batch keeps its shape and rounding
        fx = np.zeros(x.shape)
        fx[live] = sampled(func, x[live].ravel()).reshape(-1, x.shape[1])
    g = (fx.reshape(m, panels, k) * start_weight).reshape(-1, k)
    half = 1.0 / panels
    est, err, size = _panels(g, cols, abs_weights)
    done = err <= RTOL * size
    if np.logical_and.reduce(done):
        return -0.5 * half * h ** 3 * np.add.reduce(est.reshape(m, panels), axis=1)

    acc = half * np.add.reduce(np.where(done, est, 0.0).reshape(m, panels), axis=1)
    # the absolute error a panel may always have, in the t-integral's units
    floor = (RTOL / _MAX_PANELS_PER_SEGMENT * half) \
        * np.add.reduce(size.reshape(m, panels), axis=1)
    # the pending panels' segments and midpoints
    pending = np.flatnonzero(~done)
    seg = pending // panels
    mid = start_mid[pending % panels]
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
        offset = half * nodes
        left = (1.0 + mid)[:, None] + offset
        x = lo[seg][:, None] + h[seg][:, None] * left
        weight = left * ((1.0 - mid)[:, None] - offset)
        g = sampled(func, x.ravel()).reshape(left.shape) * weight
        est, err, size = _panels(g, cols, abs_weights)
        done = err <= np.maximum(RTOL * size, floor[seg] / half)
        acc += np.bincount(seg[done], weights=half * est[done], minlength=m)
        keep = ~done
        seg, mid = seg[keep], mid[keep]

    raise QuadratureError(f"no convergence after {_MAX_LEVELS} bisections")


def integrate_segments(func: Callable[[np.ndarray], np.ndarray],
                       lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """-(1/2) * integral of (x - lo_j)(hi_j - x) func(x) over each [lo_j, hi_j].

    With ``func`` = f'' this is the gap of segment j: the integral of f over
    it minus its trapezoid, from Gauss-Kronrod panels.  Zero-width segments
    give 0, and ``func`` is not called there.  Requires 1-d arrays with
    lo <= hi.  Raises QuadratureError at a non-finite value of ``func``,
    after _MAX_LEVELS levels, or when the live panels would pass
    _MAX_PANELS_PER_SEGMENT per segment.
    """
    return _integrate(_KRONROD, func, lo, hi)


def gauss_legendre_segments(func: Callable[[np.ndarray], np.ndarray],
                            lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """``integrate_segments``'s integrals from 24-node Gauss-Legendre panels,
    one per segment to start; the same arguments and the same errors."""
    return _integrate(_LEGENDRE, func, lo, hi)
