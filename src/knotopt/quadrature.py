"""Segment gaps from the Peano form of the trapezoid error.

On [lo, hi] with half-width h, the integral of f minus its trapezoid is

    -(1/2) h^3 * integral over [-1, 1] of (1 - t^2) f''(lo + h(1 + t)) dt,

so a gap comes from f'' without subtracting two nearly equal areas.  The
t-integral is split into dyadic panels; at t = m + d on a panel with exact
midpoint m, the weight ((1 + m) + d)((1 - m) - d) stays precise up to both
ends.  Each panel is integrated with the Gauss-Kronrod 7/15 pair of
QUADPACK's ``qk15`` and is done when |K15 - G7| <= RTOL * K15(|integrand|)
or when its error estimate is below RTOL / _MAX_PANELS_PER_SEGMENT of its
segment's K15(|integrand|), which ends the refinement at a kink or an
integrable singularity of f'' at a segment end.  Other panels are bisected;
each level integrates all of them in one batch.
"""

from __future__ import annotations

from typing import Callable

import numpy as np
from numpy.polynomial.legendre import leggauss

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


class QuadratureError(RuntimeError):
    """Raised at a non-finite integrand value or a stalled panel refinement."""


def sampled(func: Callable[[np.ndarray], np.ndarray], x: np.ndarray,
             what: str = "integrand") -> np.ndarray:
    """func at the nodes x; QuadratureError names the first non-finite sample."""
    fx = np.asarray(func(x), dtype=float)
    if not np.isfinite(fx).all():
        bad = ~np.isfinite(fx)
        first = float(x[np.argmax(bad)])
        raise QuadratureError(f"non-finite {what} at x={first!r} "
                              f"({np.count_nonzero(bad)} of {x.size} points)")
    return fx


def _panel_sums(g: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per panel (row of g): the K15 sum, |K15 - G7| and the K15 sum of |g|."""
    est, err = (g @ _RULES).T
    return est, np.abs(err), np.abs(g) @ _K15


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
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    if lo.ndim != 1 or lo.shape != hi.shape:
        raise ValueError("lo and hi must be 1-d arrays of matching shapes")
    width = hi - lo
    live = None
    if not (width > 0.0).all():
        if (width < 0.0).any():
            raise ValueError("segment bounds must satisfy lo <= hi")
        live = width != 0.0   # NaN bounds are sampled, and raise there
    m = width.size

    h = 0.5 * width
    x = lo[:, None] + h[:, None] * _START_LEFT.ravel()
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
    est, err, size = _panel_sums(g)
    done = err <= RTOL * size
    if done.all():
        return -0.5 * half * h ** 3 * est.reshape(m, _START_PANELS).sum(axis=1)

    acc = half * np.where(done, est, 0.0).reshape(m, _START_PANELS).sum(axis=1)
    # the absolute error a panel may always have, in the t-integral's units
    floor = (RTOL / _MAX_PANELS_PER_SEGMENT * half) \
        * size.reshape(m, _START_PANELS).sum(axis=1)
    seg = np.repeat(np.arange(m), _START_PANELS)
    mid = np.tile(_START_MID, m)
    cap = _MAX_PANELS_PER_SEGMENT * m
    for _ in range(_MAX_LEVELS):
        keep = ~done
        if not keep.any():
            return -0.5 * h ** 3 * acc
        if 2 * np.count_nonzero(keep) > cap:
            raise QuadratureError(f"bisection would need over {cap} live panels")
        # bisect the pending panels and integrate the halves in one batch
        half *= 0.5
        seg = np.repeat(seg[keep], 2)
        mid = (mid[keep][:, None] + [-half, half]).ravel()
        offset = half * _NODES
        left = (1.0 + mid)[:, None] + offset
        x = lo[seg][:, None] + h[seg][:, None] * left
        weight = left * ((1.0 - mid)[:, None] - offset)
        g = sampled(func, x.ravel()).reshape(left.shape) * weight
        est, err, size = _panel_sums(g)
        done = err <= np.maximum(RTOL * size, floor[seg] / half)
        acc += np.bincount(seg[done], weights=half * est[done], minlength=m)

    raise QuadratureError(f"no convergence after {_MAX_LEVELS} bisections")
