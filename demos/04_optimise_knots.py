"""Relocating knots with the damped Newton solver.

Every objective has a tridiagonal model in the knots: the area objective's
Hessian, and for the squared-gap objectives the Gauss-Newton matrix of the
gaps, since each gap depends only on its two end knots.  So `solve` runs a
damped Newton method directly in x: each step is one banded solve, and a
projected arc keeps the knots ordered in [a, b].  It converges in a
handful of steps and draws no random numbers.
"""

from pathlib import Path

import numpy as np

from knotopt import (KnotVector, ObjectiveKind, default_catalog, emit_plot_data,
                     run_experiment, solve)
from knotopt.spg import minimize_x

catalog = {e.name: e for e in default_catalog()}

# a quadratic has a known optimum: evenly spaced knots
class Parabola:
    def value(self, x):
        x = np.asarray(x, float)
        out = -x ** 2 + 4.0
        return out if out.ndim else float(out)

    def deriv1(self, x):
        x = np.asarray(x, float)
        out = -2.0 * x
        return out if out.ndim else float(out)

    def deriv2(self, x):
        x = np.asarray(x, float)
        out = np.full_like(x, -2.0)
        return out if out.ndim else float(out)


# Newton in x on the area objective, from the knots it is given
skewed = KnotVector(0.0, 2.0, np.array([0.2, 0.3, 0.4]))
result = minimize_x(Parabola(), skewed)
print("parabola on [0, 2], 3 knots from a skewed start:")
print(f"  knots -> {np.array2string(result.point, precision=7)}"
      f"  ({result.termination.value} after {result.iterations} Newton steps)")

# `solve` starts the area objective at the caller's knots or at knots
# equidistributed by (-f'')^(1/3), whichever has the lower objective; for a
# parabola the latter are equally spaced, its optimum
report = solve(Parabola(), ObjectiveKind.CONCAVE_AREA, 3, init=skewed)
print(f"  solve picked the equidistributed start: "
      f"{report.termination.value} after {report.iterations} Newton steps")

# catalog experiments score knot vectors with the interior squared-gap
# metric and optimise that same functional with Gauss-Newton steps, which
# stop once the projected gradient is 1e-10 of its value at the start; a
# cell's result is the same here, in `knotopt run` and in `knotopt solve`
entry = catalog["gompertz1a"]
for n in (4, 8):
    row = run_experiment(entry, n, "auto")
    print(f"gompertz1a n={n}: baseline {row.orig_error:.3e} -> "
          f"optimised {row.spg_error:.3e} ({row.reduction_pct:.1f}% lower, "
          f"{row.iterations} iterations)")

# the area objective on a catalog curve: the baseline is equal spacing, and
# Newton starts at knots equidistributed by (-f'')^(1/3), near the optimum
report = solve(entry.curve, ObjectiveKind.CONCAVE_AREA, 4,
               a=entry.a, b=entry.b)
print(f"gompertz1a area measure: {report.initial_error:.4e} -> "
      f"{report.final_error:.4e} at "
      f"{np.array2string(report.final_knots.interior, precision=4)} "
      f"({report.termination.value} after {report.iterations} Newton steps)")

out_dir = Path(__file__).parent / "output"
out_dir.mkdir(exist_ok=True)
out = out_dir / "gompertz1a_knots.csv"
emit_plot_data(entry.curve, report.final_knots, out)
print(f"wrote curve/interpolant samples to {out}")
