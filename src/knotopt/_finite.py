"""The finiteness test behind the curves', the gap kernel's, the cone's and
the solver's input and output checks."""

from __future__ import annotations

import math

import numpy as np


def all_finite(values) -> bool:
    """Whether every entry of ``values``, an array or a number, is finite.

    A finite sum proves every entry finite; one that is not, or that
    overflows (a numpy warning, raised where warnings are errors), leaves
    it to the scan.
    """
    try:
        if math.isfinite(np.add.reduce(values, axis=None)):
            return True
    except (RuntimeWarning, FloatingPointError):
        pass
    return bool(np.isfinite(values).all())
