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
only: its projection is the clamp alone.
"""

from __future__ import annotations

import numpy as np


def project(v: np.ndarray) -> np.ndarray:
    """Project v onto {y : 0 <= y_1 <= ... <= y_n}.

    An input with no descent is only clamped, by numpy alone.  Otherwise the
    prefix before the first descent j goes onto the block stack as
    singletons in one slice copy, and the Python loop pushes v[j:] alone,
    one step per element and per merge, each merge removing a block.  The
    clamped block means are then written out in one vectorised repeat.
    Rejects empty or non-finite input.
    """
    v = np.asarray(v, dtype=float)
    if v.ndim != 1 or v.size == 0:
        raise ValueError("input must be a nonempty 1-d vector")
    if not np.all(np.isfinite(v)):
        raise ValueError("input must be finite")

    # 0.0 first, here and below: on a tie np.maximum returns its second
    # operand, so a -0.0 entry or block mean keeps its sign and a feasible
    # input comes back bit for bit
    descents = np.flatnonzero(v[1:] < v[:-1])
    if descents.size == 0:
        return np.maximum(0.0, v)
    j = int(descents[0]) + 1

    # stack of blocks as (total, count); invariant: nondecreasing means.
    # only strict violations are pooled: merging tied blocks would change
    # nothing mathematically but recomputing their mean can drift one ulp,
    # which would break exact idempotence
    sums = np.empty(v.size)
    counts = np.ones(v.size, dtype=np.intp)
    sums[:j] = v[:j]
    top = j - 1
    for x in v[j:]:
        top += 1
        sums[top] = x
        counts[top] = 1
        while top > 0 and sums[top - 1] * counts[top] > sums[top] * counts[top - 1]:
            sums[top - 1] += sums[top]
            counts[top - 1] += counts[top]
            top -= 1

    top += 1
    return np.repeat(np.maximum(0.0, sums[:top] / counts[:top]), counts[:top])
