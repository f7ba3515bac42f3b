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
    # a finite sum proves every entry finite; one that is not, or that
    # overflows (a numpy warning, raised where warnings are errors), leaves
    # it to the scan
    try:
        finite = math.isfinite(np.add.reduce(v))
    except (RuntimeWarning, FloatingPointError):
        finite = False
    if not (finite or np.isfinite(v).all()):
        raise ValueError("input must be finite")

    # 0.0 first, here and below: on a tie np.maximum returns its second
    # operand, so a -0.0 entry or block mean keeps its sign and a feasible
    # input comes back bit for bit
    descent = v[1:] < v[:-1]
    if not descent.any():
        return np.maximum(0.0, v)
    j = int(descent.argmax()) + 1

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

    return np.repeat(np.maximum(0.0, np.array(sums) / counts), counts)
