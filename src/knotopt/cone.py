"""Euclidean projection onto the monotone nonnegative cone.

The cone is M^n = {y : 0 <= y_1 <= ... <= y_n}.  The projection of v is the
unique minimiser of ||v - y||^2 over M^n and is computed in two exact steps:

1. pool-adjacent-violators (PAVA) isotonic regression, which yields the
   projection onto the larger cone {y_1 <= ... <= y_n}; violating adjacent
   blocks are merged left to right in a single stack pass, each merged block
   taking the mean of the inputs it covers, and
2. clamping negative block values to zero, which resolves the nonnegativity
   constraint because it can only bind on a prefix of the pooled blocks.

Both steps preserve monotonicity exactly (block members share one float), so
the output satisfies the cone constraints with no tolerance, and projecting
an already-feasible vector returns it unchanged.

PAVA pools only strict violations, so it never merges inside a nondecreasing
prefix.  The Python stack loop therefore starts at the first descent (an
index i with v[i] < v[i-1]), and an input with no descent costs numpy calls
only: its projection is the clamp alone.  The stack holds Python floats and
ints, which are cheaper to push, pop and compare than numpy scalars and
round the same way.
"""

from __future__ import annotations

import math

import numpy as np

from ._finite import all_finite

_FLOAT_MAX = float(np.finfo(float).max)


def project(v: np.ndarray) -> np.ndarray:
    """Project v onto {y : 0 <= y_1 <= ... <= y_n}.

    An input with no descent is only clamped, by numpy alone.  Otherwise the
    prefix before the first descent j goes onto the block stack as
    singletons in one list copy, and the Python loop pushes v[j:] alone,
    one step per element and per merge, each merge removing a block.  The
    clamped block means are then written out in one vectorised repeat.
    Rejects empty or non-finite input.
    """
    v = np.asarray(v, dtype=float)
    if v.ndim != 1 or v.size == 0:
        raise ValueError("input must be a nonempty 1-d vector")
    if not all_finite(v):
        raise ValueError("input must be finite")

    # 0.0 first, here and below: on a tie np.maximum returns its second
    # operand, so a -0.0 entry or block mean keeps its sign and a feasible
    # input comes back bit for bit
    descent = v[1:] < v[:-1]
    if not descent.any():
        return np.maximum(0.0, v)
    j = int(descent.argmax()) + 1

    # a block's total is at most n max|v|, and the pooling test multiplies
    # it by a count, so neither overflows while n^2 max|v| is finite.  Past
    # that bound, a pass that did overflow leaves a non-finite or descending
    # block mean (two infinite products never pool); it is redone on v
    # scaled by 2^-e with n^2 < 2^e, which is exact up to entries that
    # become subnormal, and scaled back.  Every other input keeps the floats
    # of its unscaled pass
    means, counts = _pooled(v, j)
    n2 = v.size * v.size
    if (max(np.maximum.reduce(v), -np.minimum.reduce(v)) > _FLOAT_MAX / n2
            and not (np.isfinite(means).all()
                     and np.logical_and.reduce(means[1:] >= means[:-1]))):
        e = n2.bit_length()
        means, counts = _pooled(math.ldexp(1.0, -e) * v, j)
        means *= math.ldexp(1.0, e)
    return np.repeat(np.maximum(0.0, means), counts)


def _pooled(v: np.ndarray, j: int) -> tuple[np.ndarray, list[int]]:
    """PAVA block means and sizes of v, whose first descent is at index j."""
    # stack of blocks as (total, count); invariant: nondecreasing means.
    # only strict violations are pooled: merging tied blocks would change
    # nothing mathematically but recomputing their mean can drift one ulp,
    # which would break exact idempotence
    sums = v[:j].tolist()
    counts = [1] * j
    for total in v[j:].tolist():
        count = 1
        while sums and sums[-1] * count > total * counts[-1]:
            total += sums.pop()
            count += counts.pop()
        sums.append(total)
        counts.append(count)
    return np.array(sums) / counts, counts
