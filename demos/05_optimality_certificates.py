"""Certifying solutions with first- and second-order checks.

A knot vector is first-order optimal for the area objective exactly when
its gradient vanishes with all ordering multipliers at zero.  On top of
that, a tridiagonal curvature test gives a sufficient condition for a
strict local minimum.  Both checks are cheap, so they double as a safety
net for solver output.  The Newton solver behind `solve` stops on a
different residual, max|P(x - g) - x| with P the projection onto the
ordered knots, while `kkt_check` reports the multiplier rows; the two
agree only to rounding, at a stationary point.  SPG (`minimize_y`), which
the library keeps for its comparison with the paper, works through a cone
substitution that can park iterates against the right endpoint, where the
transformed gradient is artificially tiny; the diagnostic residual exposes
that immediately.
"""

import numpy as np

from knotopt import (KnotVector, ObjectiveKind, SpgConfig, YObjective,
                     default_catalog, from_y, hessian_phi, kkt_check,
                     minimize_y, prop1_test, solve, to_y)

catalog = {e.name: e for e in default_catalog()}
entry = catalog["logistic1a"]

report = solve(entry.curve, ObjectiveKind.CONCAVE_AREA, 4,
               a=entry.a, b=entry.b)
kkt = kkt_check(entry.curve, report.final_knots)
print(f"solution knots {np.array2string(report.final_knots.interior, precision=6)}")
print(f"stationarity residual {kkt.stationarity_residual:.2e}, "
      f"multipliers {kkt.lam}")

hessian = hessian_phi(entry.curve, report.final_knots)
holds, margins = prop1_test(kkt, hessian)
print(f"sufficient condition holds: {holds}, "
      f"margins {np.array2string(margins, precision=3)}")
print("curvature matrix eigenvalues:",
      np.array2string(np.linalg.eigvalsh(hessian), precision=4))

# an arbitrary knot vector fails the first-order check
arbitrary = KnotVector(entry.a, entry.b, np.array([0.1, 0.4, 0.6, 1.9]))
print(f"\narbitrary knots residual: "
      f"{kkt_check(entry.curve, arbitrary).stationarity_residual:.3e}")

# knots crowded against b: the squared gaps' Newton works in x and converges
# from there; for the area objective `solve` starts at the knots
# equidistributed by (-f'')^(1/3) instead, whose objective is lower
cluster = KnotVector(entry.a, entry.b, np.array([1.9, 1.95, 1.99]))
general = ObjectiveKind.GENERAL_SQUARED
for kind in (ObjectiveKind.CONCAVE_AREA, general):
    report = solve(entry.curve, kind, 3, init=cluster)
    residual = kkt_check(entry.curve, report.final_knots, kind).stationarity_residual
    print(f"\nright-cluster start, {kind.value}: termination "
          f"{report.termination.value}, knots "
          f"{np.array2string(report.final_knots.interior, precision=5)}, "
          f"residual {residual:.3e}")

# the known trap of the cone substitution: from the same start, SPG on the
# full squared-gap objective looks stationary in y, but the x-space
# residual gives it away
objective = YObjective(entry.curve, entry.a, entry.b, general)
result = minimize_y(objective.value, objective.grad, to_y(cluster), SpgConfig())
trapped = from_y(result.point, entry.a, entry.b)
residual = kkt_check(entry.curve, trapped, general).stationarity_residual
print(f"\nright-cluster start, squared gaps by SPG in y: termination "
      f"{result.termination.value}, knots "
      f"{np.array2string(trapped.interior, precision=5)}, "
      f"residual {residual:.3e}")
if residual > 1e-6:
    print("-> not first-order optimal; restart from a different point")
