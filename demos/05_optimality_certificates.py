"""Certifying solutions with first- and second-order checks.

A knot vector is first-order optimal for the area objective exactly when
its gradient vanishes with all ordering multipliers at zero.  On top of
that, a tridiagonal curvature test gives a sufficient condition for a
strict local minimum.  Both checks are cheap, so they double as a safety
net for solver output.  The Newton solver of the area objective stops on
this same residual.  SPG, which runs the squared-gap objectives, works
through a cone substitution that can park iterates against the right
endpoint, where the transformed gradient is artificially tiny; the
diagnostic residual exposes that immediately.
"""

import numpy as np

from knotopt import (KnotVector, ObjectiveKind, default_catalog, hessian_phi,
                     kkt_check, prop1_test, solve)

catalog = {e.name: e for e in default_catalog()}
entry = catalog["logistic1a"]

report = solve(entry.curve, ObjectiveKind.CONCAVE_AREA, 4,
               a=entry.a, b=entry.b)
kkt = kkt_check(entry.curve, report.final_knots)
print(f"solution knots {np.array2string(report.final_knots.interior, precision=6)}")
print(f"stationarity residual {kkt.stationarity_residual:.2e}, "
      f"multipliers {kkt.lam}")

holds, margins = prop1_test(entry.curve, report.final_knots)
print(f"sufficient condition holds: {holds}, "
      f"margins {np.array2string(margins, precision=3)}")
print("curvature matrix eigenvalues:",
      np.array2string(np.linalg.eigvalsh(hessian_phi(entry.curve,
                                                     report.final_knots)),
                      precision=4))

# an arbitrary knot vector fails the first-order check
arbitrary = KnotVector(entry.a, entry.b, np.array([0.1, 0.4, 0.6, 1.9]))
print(f"\narbitrary knots residual: "
      f"{kkt_check(entry.curve, arbitrary).stationarity_residual:.3e}")

# knots crowded against b: the area objective's Newton solver works in x
# and converges from there
cluster = KnotVector(entry.a, entry.b, np.array([1.9, 1.95, 1.99]))
area = solve(entry.curve, ObjectiveKind.CONCAVE_AREA, 3, init=cluster)
residual = kkt_check(entry.curve, area.final_knots).stationarity_residual
print(f"\nright-cluster start, area objective: termination "
      f"{area.termination.value}, knots "
      f"{np.array2string(area.final_knots.interior, precision=5)}, "
      f"residual {residual:.3e}")

# the known trap of the cone substitution: from the same start, SPG on the
# full squared-gap objective looks stationary in y, but the x-space
# residual gives it away
general = ObjectiveKind.GENERAL_SQUARED
trapped = solve(entry.curve, general, 3, init=cluster)
residual = kkt_check(entry.curve, trapped.final_knots, general).stationarity_residual
print(f"right-cluster start, squared gaps: termination "
      f"{trapped.termination.value}, knots "
      f"{np.array2string(trapped.final_knots.interior, precision=5)}, "
      f"residual {residual:.3e}")
if residual > 1e-6:
    print("-> not first-order optimal; restart from a different point")
